#include "core/integration.hpp"

#include <memory>
#include <numeric>
#include <utility>

#include "container/image.hpp"

namespace sf::core {

namespace {

/// Control-message size for strategies that do not inline file bytes.
constexpr double kControlBytes = 1024;

double total_bytes(const std::vector<storage::FileRef>& files) {
  return std::accumulate(files.begin(), files.end(), 0.0,
                         [](double acc, const storage::FileRef& f) {
                           return acc + f.bytes;
                         });
}

/// Runs `step(i, next)` for i in [0, n), sequentially and asynchronously;
/// calls `done(ok)` at the end or at the first failure.
void for_each_async(
    std::size_t n,
    std::function<void(std::size_t, std::function<void(bool)>)> step,
    std::function<void(bool)> done) {
  if (n == 0) {
    done(true);
    return;
  }
  auto next = std::make_shared<std::function<void(std::size_t)>>();
  auto done_ptr = std::make_shared<std::function<void(bool)>>(std::move(done));
  auto step_ptr =
      std::make_shared<std::function<void(std::size_t, std::function<void(bool)>)>>(
          std::move(step));
  // Weak self-reference — each in-flight step callback carries the
  // strong ref, so the chain frees itself after the last step instead
  // of leaking as a shared_ptr cycle.
  *next = [n, done_ptr, step_ptr,
           weak = std::weak_ptr<std::function<void(std::size_t)>>(next)](
              std::size_t i) {
    if (i >= n) {
      (*done_ptr)(true);
      return;
    }
    const auto self = weak.lock();
    (*step_ptr)(i, [self, done_ptr, i](bool ok) {
      if (!ok) {
        (*done_ptr)(false);
        return;
      }
      (*self)(i + 1);
    });
  };
  (*next)(0);
}

}  // namespace

const char* to_string(DataStrategy strategy) {
  switch (strategy) {
    case DataStrategy::kPassByValue:
      return "pass-by-value";
    case DataStrategy::kSharedFs:
      return "shared-fs";
    case DataStrategy::kObjectStore:
      return "object-store";
  }
  return "unknown";
}

knative::Annotations ProvisioningPolicy::annotations() const {
  knative::Annotations a;
  a.min_scale = min_scale;
  a.initial_scale = initial_scale;
  a.max_scale = max_scale;
  a.container_concurrency = container_concurrency;
  a.target_concurrency = target_concurrency;
  a.request_timeout_s = request_timeout_s;
  a.route_timeout_s = route_timeout_s;
  a.outlier = outlier;
  a.admission = admission;
  return a;
}

ServerlessIntegration::ServerlessIntegration(
    knative::KnativeServing& serving, container::Registry& registry,
    CalibrationProfile calibration, DataStrategy strategy,
    storage::SharedFileSystem* shared_fs, storage::ObjectStore* object_store)
    : serving_(serving),
      registry_(registry),
      calibration_(calibration),
      strategy_(strategy),
      shared_fs_(shared_fs),
      object_store_(object_store) {
  if (strategy_ == DataStrategy::kSharedFs && shared_fs_ == nullptr) {
    throw std::invalid_argument(
        "ServerlessIntegration: shared-fs strategy needs a filesystem");
  }
  if (strategy_ == DataStrategy::kObjectStore && object_store_ == nullptr) {
    throw std::invalid_argument(
        "ServerlessIntegration: object-store strategy needs a store");
  }
}

std::string ServerlessIntegration::service_name(
    const std::string& transformation) const {
  auto it = services_.find(transformation);
  if (it == services_.end()) {
    throw std::out_of_range("ServerlessIntegration: not registered: " +
                            transformation);
  }
  return it->second;
}

knative::FunctionHandler ServerlessIntegration::make_handler() {
  const DataStrategy strategy = strategy_;
  storage::SharedFileSystem* nfs = shared_fs_;
  storage::ObjectStore* minio = object_store_;
  const double codec_s_per_mb = calibration_.payload_codec_s_per_mb;
  return [strategy, nfs, minio, codec_s_per_mb](
             const net::HttpRequest& req, knative::FunctionContext& ctx,
             net::Responder respond) {
    // Copy: the request object does not outlive a deferred handler.
    const auto payload = std::any_cast<TaskPayload>(req.body);
    auto finish = [respond = std::move(respond), strategy,
                   output_bytes = payload.output_bytes](bool ok) mutable {
      net::HttpResponse resp;
      resp.status = ok ? 200 : 500;
      resp.body_bytes = strategy == DataStrategy::kPassByValue
                            ? output_bytes
                            : kControlBytes;
      respond(std::move(resp));
    };
    // Pass-by-value pays CPU to decode the request body and encode the
    // response (matrices as JSON in the paper's Flask wrapper).
    const double codec_s =
        strategy == DataStrategy::kPassByValue
            ? codec_s_per_mb * (req.body_bytes + payload.output_bytes) / 1e6
            : 0.0;
    auto compute_then_store = [&ctx, payload, strategy, nfs, minio,
                               codec_s](std::function<void(bool)> done) {
      ctx.exec(payload.work_coreseconds + codec_s,
               [&ctx, payload, strategy, nfs, minio,
                done = std::move(done)](bool ok) mutable {
        if (!ok) {
          done(false);
          return;
        }
        switch (strategy) {
          case DataStrategy::kPassByValue:
            done(true);  // outputs travel back in the response body
            return;
          case DataStrategy::kSharedFs:
            for_each_async(
                payload.outputs.size(),
                [&ctx, payload, nfs](std::size_t i,
                                     std::function<void(bool)> next) {
                  nfs->write(ctx.node, payload.outputs[i],
                             [next = std::move(next)] { next(true); });
                },
                std::move(done));
            return;
          case DataStrategy::kObjectStore:
            for_each_async(
                payload.outputs.size(),
                [&ctx, payload, minio](std::size_t i,
                                       std::function<void(bool)> next) {
                  minio->put(ctx.node, "workflow", payload.outputs[i].lfn,
                             payload.outputs[i].bytes, std::move(next));
                },
                std::move(done));
            return;
        }
        done(false);
      });
    };

    switch (strategy) {
      case DataStrategy::kPassByValue:
        compute_then_store(std::move(finish));
        return;
      case DataStrategy::kSharedFs:
        for_each_async(
            payload.inputs.size(),
            [&ctx, payload, nfs](std::size_t i,
                                 std::function<void(bool)> next) {
              nfs->read(ctx.node, payload.inputs[i].lfn,
                        [next = std::move(next)](bool found,
                                                 storage::FileRef) mutable {
                          next(found);
                        });
            },
            [compute_then_store, finish = std::move(finish)](bool ok) mutable {
              if (!ok) {
                finish(false);
                return;
              }
              compute_then_store(std::move(finish));
            });
        return;
      case DataStrategy::kObjectStore:
        for_each_async(
            payload.inputs.size(),
            [&ctx, payload, minio](std::size_t i,
                                   std::function<void(bool)> next) {
              minio->get(ctx.node, "workflow", payload.inputs[i].lfn,
                         [next = std::move(next)](bool ok, double) mutable {
                           next(ok);
                         });
            },
            [compute_then_store, finish = std::move(finish)](bool ok) mutable {
              if (!ok) {
                finish(false);
                return;
              }
              compute_then_store(std::move(finish));
            });
        return;
    }
  };
}

void ServerlessIntegration::register_transformation(
    const pegasus::Transformation& t, const ProvisioningPolicy& policy) {
  if (services_.contains(t.name)) return;
  // §IV-1: containerize the task behind a Flask HTTP event listener and
  // publish the image.
  const std::string image_name = "fn-" + t.name;
  registry_.push(container::make_task_image(image_name));

  knative::KnServiceSpec spec;
  spec.name = "fn-" + t.name;
  spec.container.name = spec.name;
  spec.container.image = image_name + ":latest";
  spec.container.cpu_limit = 1.0;  // single-threaded task
  // Guaranteed QoS: pods with resource requests receive a cgroup
  // cpu.weight well above best-effort co-tenant processes, so redirected
  // tasks keep their share on a noisy node (§IX-D relies on this).
  spec.container.cpu_shares = 8.0;
  spec.container.memory_bytes = t.memory_bytes;
  spec.container.boot_s = calibration_.flask_boot_s;
  spec.cpu_request = 0.5;
  spec.handler = make_handler();
  spec.annotations = policy.annotations();
  serving_.create_service(std::move(spec));
  services_.emplace(t.name, "fn-" + t.name);
}

std::map<std::string, pegasus::JobMode> ServerlessIntegration::auto_register(
    const pegasus::AbstractWorkflow& workflow,
    const pegasus::TransformationCatalog& catalog,
    const ProvisioningPolicy& policy) {
  std::map<std::string, pegasus::JobMode> modes;
  for (const auto& job : workflow.jobs()) {
    register_transformation(catalog.get(job.transformation), policy);
    modes[job.id] = pegasus::JobMode::kServerless;
  }
  return modes;
}

pegasus::ServerlessWrapperFactory ServerlessIntegration::wrapper_factory() {
  return [this](const pegasus::AbstractJob& job,
                const pegasus::Transformation& t,
                std::vector<storage::FileRef> inputs,
                std::vector<storage::FileRef> outputs)
             -> condor::JobExecutable {
    const std::string service = service_name(t.name);
    TaskPayload payload;
    payload.work_coreseconds = t.work_coreseconds;
    payload.output_bytes = total_bytes(outputs);
    payload.inputs = inputs;
    payload.outputs = outputs;
    const double request_bytes =
        strategy_ == DataStrategy::kPassByValue ? total_bytes(inputs)
                                                : kControlBytes;
    const DataStrategy strategy = strategy_;
    storage::SharedFileSystem* nfs = shared_fs_;
    storage::ObjectStore* minio = object_store_;
    (void)job;

    return [this, service, payload, request_bytes, strategy, nfs, minio](
               condor::ExecContext& ctx, std::function<void(bool)> done) {
      // The wrapper job reads its condor-staged inputs from scratch (the
      // paper's redundant data hop: submit → wrapper node → function).
      auto after_upload = [this, service, payload, request_bytes, strategy,
                           nfs, minio, &ctx,
                           done = std::move(done)](bool staged) mutable {
        if (!staged) {
          done(false);
          return;
        }
        net::HttpRequest req;
        req.path = "/invoke";
        req.body = payload;
        req.body_bytes = request_bytes;
        ++invocations_;
        serving_.invoke(
            ctx.node->net_id(), service, std::move(req),
            [this, payload, strategy, nfs, minio, &ctx,
             done = std::move(done)](net::HttpResponse resp) mutable {
              if (!resp.ok()) {
                ++failures_;
                done(false);
                return;
              }
              // Materialize outputs into scratch for condor stage-out;
              // `fetched` reports whether the strategy-specific download
              // step succeeded.
              std::function<void(bool)> write_all =
                  [&ctx, payload, done = std::move(done)](bool fetched) mutable {
                    if (!fetched) {
                      done(false);
                      return;
                    }
                    for_each_async(
                        payload.outputs.size(),
                        [&ctx, payload](std::size_t i,
                                        std::function<void(bool)> next) {
                          ctx.scratch->write(payload.outputs[i],
                                             [next = std::move(next)] {
                                               next(true);
                                             });
                        },
                        std::move(done));
                  };
              switch (strategy) {
                case DataStrategy::kPassByValue:
                  write_all(true);
                  return;
                case DataStrategy::kSharedFs:
                  // Pull outputs off the shared FS to this node first.
                  for_each_async(
                      payload.outputs.size(),
                      [&ctx, payload, nfs](std::size_t i,
                                           std::function<void(bool)> next) {
                        nfs->read(ctx.node->net_id(),
                                  payload.outputs[i].lfn,
                                  [next = std::move(next)](
                                      bool found, storage::FileRef) mutable {
                                    next(found);
                                  });
                      },
                      std::move(write_all));
                  return;
                case DataStrategy::kObjectStore:
                  for_each_async(
                      payload.outputs.size(),
                      [&ctx, payload, minio](std::size_t i,
                                             std::function<void(bool)> next) {
                        minio->get(ctx.node->net_id(), "workflow",
                                   payload.outputs[i].lfn,
                                   [next = std::move(next)](bool ok,
                                                            double) mutable {
                                     next(ok);
                                   });
                      },
                      std::move(write_all));
                  return;
              }
            });
      };

      // Strategy-specific upload step before invocation.
      switch (strategy) {
        case DataStrategy::kPassByValue: {
          // Read staged inputs from local disk to serialize into the
          // request body.
          std::vector<std::string> lfns;
          for (const auto& f : payload.inputs) lfns.push_back(f.lfn);
          for_each_async(
              lfns.size(),
              [&ctx, lfns](std::size_t i, std::function<void(bool)> next) {
                ctx.scratch->read(
                    lfns[i], [next = std::move(next)](
                                 bool found, storage::FileRef) mutable {
                      next(found);
                    });
              },
              std::move(after_upload));
          return;
        }
        case DataStrategy::kSharedFs:
          for_each_async(
              payload.inputs.size(),
              [&ctx, payload, nfs](std::size_t i,
                                   std::function<void(bool)> next) {
                nfs->write(ctx.node->net_id(), payload.inputs[i],
                           [next = std::move(next)] { next(true); });
              },
              std::move(after_upload));
          return;
        case DataStrategy::kObjectStore:
          for_each_async(
              payload.inputs.size(),
              [&ctx, payload, minio](std::size_t i,
                                     std::function<void(bool)> next) {
                minio->put(ctx.node->net_id(), "workflow",
                           payload.inputs[i].lfn, payload.inputs[i].bytes,
                           std::move(next));
              },
              std::move(after_upload));
          return;
      }
    };
  };
}

}  // namespace sf::core
