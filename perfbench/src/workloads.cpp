#include "workloads.hpp"

#include <algorithm>
#include <any>
#include <bit>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "container/image.hpp"
#include "core/testbed.hpp"
#include "fault/splitmix.hpp"
#include "k8s/kube_cluster.hpp"
#include "knative/serving.hpp"
#include "pegasus/planner.hpp"
#include "workload/generators.hpp"
#include "workload/open_loop.hpp"
#include "workload/scale.hpp"

namespace perfbench {
namespace {

using namespace sf;
using fault::SplitMix64;

// Stream tags: every random input is derived from (seed, tag).
constexpr std::uint64_t kSimTag = 1;
constexpr std::uint64_t kArrivalTag = 2;
constexpr std::uint64_t kModeTag = 3;

/// Sim time after which a timed phase that has not finished is declared
/// hung (a correctness failure, never a normal exit).
constexpr double kDeadlineS = 4.0 * 3600.0;

/// A warm concurrency-1 KService whose handler burns the request body's
/// core-seconds and echoes the payload size (the scale sweep's shape).
knative::KnServiceSpec compute_service(const std::string& name,
                                       int min_scale) {
  knative::KnServiceSpec spec;
  spec.name = name;
  spec.container.name = name;
  spec.container.image = name + ":latest";
  spec.container.memory_bytes = 512e6;
  spec.container.boot_s = 0.6;
  spec.container.cpu_limit = 1.0;
  spec.handler = [](const net::HttpRequest& req, knative::FunctionContext& ctx,
                    net::Responder respond) {
    const double work =
        req.body.has_value() ? std::any_cast<double>(req.body) : 0.01;
    ctx.exec(work, [respond = std::move(respond),
                    bytes = req.body_bytes](bool ok) mutable {
      net::HttpResponse resp;
      resp.status = ok ? 200 : 500;
      resp.body_bytes = bytes;
      respond(std::move(resp));
    });
  };
  spec.annotations.min_scale = min_scale;
  spec.annotations.container_concurrency = 1;
  return spec;
}

/// Open-loop requests whose work is drawn uniformly from ±50% around
/// `mean_s` on the issuing user's stream, so latency quantiles depend on
/// the seed rather than on one fixed service time.
std::function<net::HttpRequest(const workload::Arrival&, sim::Rng&)>
varied_work(double mean_s, double payload_bytes) {
  return [mean_s, payload_bytes](const workload::Arrival&, sim::Rng& rng) {
    net::HttpRequest req;
    req.path = "/invoke";
    req.body = rng.uniform(0.5, 1.5) * mean_s;
    req.body_bytes = payload_bytes;
    return req;
  };
}

/// Steps the simulation until `ready()` holds (set-up warm-up, untimed by
/// the probe's drive counters).
template <class Ready>
void warm_until(sim::Simulation& sim, Ready&& ready) {
  const double deadline = sim.now() + 600.0;
  while (!ready() && sim.has_pending_events() && sim.now() < deadline) {
    sim.step();
  }
}

void add_k8s_layers(Outcome& out, k8s::KubeCluster& kube) {
  out.layers["k8s.binds"] = static_cast<double>(kube.scheduler().binds());
  out.layers["k8s.pods_created"] =
      static_cast<double>(kube.api().pods_created_total());
  out.layers["k8s.endpoints_refreshes"] =
      static_cast<double>(kube.endpoints_refreshes());
  out.layers["k8s.watch_batches"] =
      static_cast<double>(kube.api().watch_batches_delivered());
  double created = 0;
  for (const auto& name : kube.worker_names()) {
    created +=
        static_cast<double>(kube.worker(name).runtime->containers_created());
  }
  out.layers["container.created"] += created;
}

/// Knative counters summed over every service; `peak_ready` is the most
/// Ready pods seen at a whole sim second of the timed phase.
void add_knative_layers(Outcome& out, knative::KnativeServing& serving,
                        int peak_ready) {
  double routed = 0;
  double cold = 0;
  double retries = 0;
  for (const auto& svc : serving.service_names()) {
    routed += static_cast<double>(serving.requests_routed(svc));
    cold += static_cast<double>(serving.cold_start_requests(svc));
    retries += static_cast<double>(serving.route_retries(svc));
  }
  out.layers["knative.requests_routed"] = routed;
  out.layers["knative.cold_starts"] = cold;
  out.layers["knative.route_retries"] = retries;
  out.layers["knative.first_try_ratio"] =
      routed > 0 ? (routed - retries) / routed : 0;
  out.layers["knative.ready_pods"] = peak_ready;
  const double binds = out.layers["k8s.binds"];
  out.layers["k8s.ready_pods_per_bind"] = binds > 0 ? peak_ready / binds : 0;
}

void add_net_layers(Outcome& out, cluster::Cluster& cluster) {
  out.layers["net.http_requests"] =
      static_cast<double>(cluster.http().requests_sent());
  out.layers["net.bytes_delivered"] = cluster.network().total_bytes_delivered();
}

/// Tick hook for the traced drive loop: tracks the peak of Ready pods.
auto peak_ready_tracker(knative::KnativeServing& serving, int& peak) {
  return [&serving, &peak] {
    int ready = 0;
    for (const auto& svc : serving.service_names()) {
      ready += serving.ready_replicas(svc);
    }
    peak = std::max(peak, ready);
  };
}

/// Open-loop request results: counts, latencies and correctness checks.
void collect_open_loop(Outcome& out, const workload::OpenLoopEngine& engine,
                       std::uint64_t expected) {
  const auto& s = engine.stats();
  out.ops_attempted += s.issued;
  out.ops_completed += s.ok;
  out.ops_failed += s.issued - s.ok;
  for (const double l : engine.sorted_latencies()) {
    out.latency_us.record_seconds(l);
  }
  if (s.issued != expected) {
    out.errors.push_back("open loop issued " + std::to_string(s.issued) +
                         " requests, expected " + std::to_string(expected));
  }
  if (!engine.quiesced()) {
    out.errors.push_back(std::to_string(s.issued - s.completed) +
                         " open-loop requests unanswered");
  }
  if (s.errors > 0) {
    out.errors.push_back(std::to_string(s.errors) +
                         " open-loop requests got a non-2xx response");
  }
}

// ---- Workflow campaigns (dag, paper-mix) ------------------------------

struct Campaign {
  std::vector<pegasus::AbstractWorkflow> workflows;
  std::map<std::string, pegasus::JobMode> modes;
  std::vector<std::unique_ptr<condor::DagMan>> dags;
  int finished = 0;
  int succeeded = 0;
};

/// Generates `count` layered matmul workflows named from the seed, plus
/// one extra `big_layers` × `big_width` workflow when big_layers > 0, and
/// assigns execution modes realizing `mix`.
void generate(Campaign& c, core::PaperTestbed& tb, const std::string& prefix,
              int big_layers, int big_width, int count, int layers, int width,
              const metrics::MixPoint& mix, std::uint64_t seed) {
  const double bytes = tb.calibration().matrix_bytes;
  if (big_layers > 0) {
    c.workflows.push_back(
        workload::make_layered_matmuls(prefix + ".big", big_layers, big_width,
                                       bytes));
  }
  for (int w = 0; w < count; ++w) {
    c.workflows.push_back(workload::make_layered_matmuls(
        prefix + ".wf" + std::to_string(w), layers, width, bytes));
  }
  std::vector<const pegasus::AbstractWorkflow*> ptrs;
  for (const auto& wf : c.workflows) ptrs.push_back(&wf);
  sim::Rng rng(SplitMix64::mix(seed, kModeTag));
  c.modes = workload::assign_modes(ptrs, mix, rng);
  for (const auto& wf : c.workflows) {
    workload::seed_initial_inputs(wf, tb.condor().submit_staging(),
                                  tb.replicas());
  }
}

/// Plans every workflow and loads it into its own DagMan — the calls
/// PaperTestbed::run_workflows makes, each one timed.
void plan_and_submit(Campaign& c, core::PaperTestbed& tb, Probe& probe,
                     Outcome& out) {
  double plan_s = 0;
  double submit_s = 0;
  double jobs = 0;
  for (const auto& wf : c.workflows) {
    pegasus::PlannerOptions popts;
    popts.default_mode = pegasus::JobMode::kNative;
    popts.dag_retries = tb.options().dag_retries;
    popts.registry = &tb.registry();
    popts.docker = &tb.docker();
    popts.serverless_factory = tb.integration().wrapper_factory();
    popts.catalog = tb.catalog_client();
    for (const auto& job : wf.jobs()) {
      const auto it = c.modes.find(job.id);
      if (it != c.modes.end()) popts.mode_overrides[job.id] = it->second;
    }
    pegasus::Planner planner(wf, tb.transformations(), tb.replicas(),
                             tb.condor(), std::move(popts));
    std::optional<pegasus::Plan> plan;
    plan_s += probe.span("pegasus.plan", [&] { plan = planner.plan(); });
    jobs += static_cast<double>(plan->nodes.size());
    condor::DagConfig cfg;
    cfg.scan_interval_s = tb.calibration().dag_scan_interval_s;
    cfg.post_script_s = tb.calibration().dag_post_script_s;
    auto dag = std::make_unique<condor::DagMan>(tb.condor(), cfg);
    submit_s += probe.span("condor.submit", [&] { plan->load_into(*dag); });
    c.dags.push_back(std::move(dag));
  }
  out.layers["pegasus.plan_s"] = plan_s;
  out.layers["pegasus.jobs_planned"] = jobs;
  out.layers["condor.submit_s"] = submit_s;
}

/// Starts every DAG at the same instant.
void start_dags(Campaign& c, Probe& probe) {
  probe.span("condor.run", [&] {
    for (auto& dag : c.dags) {
      dag->run([&c](bool ok) {
        ++c.finished;
        c.succeeded += ok ? 1 : 0;
      });
    }
  });
}

/// Per-task results, condor statistics and the campaign's checks.
/// `task_latency` selects whether task sojourn feeds the latency
/// histogram (only where the workload has no open-loop requests).
void collect_campaign(Outcome& out, const Campaign& c, core::PaperTestbed& tb,
                      bool task_latency) {
  const int n = static_cast<int>(c.dags.size());
  std::uint64_t tasks = 0;
  std::uint64_t done = 0;
  double wait_sum = 0;
  double exec_sum = 0;
  double counted = 0;
  std::uint64_t fp = 0xDA6ull;
  for (std::size_t i = 0; i < c.dags.size(); ++i) {
    const condor::DagMan& dag = *c.dags[i];
    std::vector<std::string> names;
    for (const auto& job : c.workflows[i].jobs()) {
      names.push_back(job.id);
      ++tasks;
      const condor::JobRecord* rec = dag.node_record(job.id);
      if (rec == nullptr || rec->state != condor::JobState::kCompleted) {
        continue;
      }
      ++done;
      if (task_latency) {
        out.latency_us.record_seconds(rec->end_time - rec->submit_time);
      }
    }
    const auto stats = pegasus::collect_statistics(dag, names);
    wait_sum += stats.mean_queue_wait * static_cast<double>(stats.jobs);
    exec_sum += stats.mean_exec_time * static_cast<double>(stats.jobs);
    counted += static_cast<double>(stats.jobs);
    out.makespan_s = std::max(out.makespan_s, dag.makespan());
    fp = SplitMix64::mix(fp, std::bit_cast<std::uint64_t>(dag.makespan()));
  }
  out.ops_attempted += tasks;
  out.ops_completed += done;
  out.ops_failed += tasks - done;
  out.fingerprint = SplitMix64::mix(out.fingerprint, fp);
  out.fingerprint = SplitMix64::mix(out.fingerprint, done);
  if (c.finished != n || c.succeeded != n) {
    out.errors.push_back(std::to_string(n - c.succeeded) + " of " +
                         std::to_string(n) + " DAGs failed or never finished");
  }
  if (done != tasks) {
    out.errors.push_back("DAGs completed " + std::to_string(done) + " of " +
                         std::to_string(tasks) + " abstract tasks");
  }
  condor::CondorPool& pool = tb.condor();
  out.layers["condor.negotiation_cycles"] =
      static_cast<double>(pool.negotiation_cycles());
  out.layers["condor.jobs_completed"] =
      static_cast<double>(pool.completed_jobs());
  out.layers["condor.jobs_failed"] = static_cast<double>(pool.failed_jobs());
  out.layers["condor.mean_queue_wait_s"] =
      counted > 0 ? wait_sum / counted : 0;
  out.layers["condor.mean_exec_s"] = counted > 0 ? exec_sum / counted : 0;
  double docker_created = 0;
  for (const auto& name : pool.worker_names()) {
    docker_created += static_cast<double>(
        tb.docker().runtime(name).containers_created());
  }
  out.layers["container.created"] += docker_created;
  out.layers["core.invocations"] =
      static_cast<double>(tb.integration().invocations());
  out.layers["core.invocation_failures"] =
      static_cast<double>(tb.integration().failures());
  out.sizes.push_back({"tasks", static_cast<double>(tasks)});
  out.sizes.push_back({"workflows", static_cast<double>(n)});
}

void add_catalog_layers(Outcome& out, core::PaperTestbed& tb) {
  const catalog::CatalogClient* client = tb.catalog_client();
  if (client == nullptr) return;
  const auto lookups = static_cast<double>(client->lookups());
  out.layers["catalog.lookups"] = lookups;
  out.layers["catalog.service_calls"] =
      static_cast<double>(client->service_calls());
  out.layers["catalog.cache_hit_ratio"] =
      lookups > 0 ? static_cast<double>(client->cache_hits()) / lookups : 0;
}

// ---- serving -----------------------------------------------------------

Outcome run_serving(const RunConfig& rc, Probe& probe) {
  struct Size {
    std::uint32_t nodes;
    std::uint32_t racks;
    int users;
    double rate_hz;
    double work_s;
    std::uint64_t requests;
    int min_scale;
  };
  const Size z = rc.smoke ? Size{48, 4, 8, 2.0, 0.1, 800, 4}
                          : Size{1024, 32, 256, 5.0, 0.4, 30000, 32};
  Outcome out;
  sim::Simulation sim(SplitMix64::mix(rc.seed, kSimTag));
  sim.trace().set_enabled(probe.traced());
  workload::ScaledTopology topo;
  std::unique_ptr<container::Registry> hub;
  std::unique_ptr<k8s::KubeCluster> kube;
  std::unique_ptr<knative::KnativeServing> serving;
  std::unique_ptr<workload::OpenLoopEngine> engine;
  const container::Image image = container::make_task_image("fn");

  out.setup_s = probe.span("setup", [&] {
    probe.span("cluster.topology", [&] {
      topo = workload::make_scaled_topology(sim, z.nodes, z.racks);
      hub = std::make_unique<container::Registry>(topo.cluster->node(0));
      hub->push(image);
    });
    out.layers["k8s.setup_s"] = probe.span("k8s.setup", [&] {
      kube = std::make_unique<k8s::KubeCluster>(*topo.cluster, *hub,
                                                topo.workers);
      kube->seed_image_everywhere(image);
      kube->enable_node_lifecycle();
    });
    out.layers["knative.warmup_s"] = probe.span("knative.warmup", [&] {
      serving = std::make_unique<knative::KnativeServing>(
          *kube, topo.cluster->node(0));
      serving->create_service(compute_service("fn", z.min_scale));
      warm_until(sim,
                 [&] { return serving->ready_replicas("fn") >= z.min_scale; });
    });
    out.layers["workload.gen_s"] = probe.span("workload.gen", [&] {
      workload::OpenLoopConfig cfg;
      cfg.users = z.users;
      cfg.rate_hz = z.rate_hz;
      cfg.horizon_s = 3600.0;  // the request cap ends the arrivals
      cfg.max_requests = z.requests;
      cfg.services = {"fn"};
      cfg.request_factory = varied_work(z.work_s, 10000);
      cfg.seed = SplitMix64::mix(rc.seed, kArrivalTag);
      cfg.record_requests = true;
      engine = std::make_unique<workload::OpenLoopEngine>(
          *serving, topo.cluster->node(0).net_id(), std::move(cfg));
    });
  });
  if (rc.setup_only) return out;

  const std::uint64_t events0 = sim.events_processed();
  const double t0 = sim.now();
  int peak_ready = 0;
  out.timed_s = probe.span("timed", [&] {
    engine->start();
    probe.drive(
        sim,
        [&] { return engine->quiesced() || sim.now() > t0 + kDeadlineS; },
        peak_ready_tracker(*serving, peak_ready));
  });

  collect_open_loop(out, *engine, z.requests);
  out.makespan_s = engine->stats().last_completion_time - t0;
  out.fingerprint = SplitMix64::mix(
      engine->fingerprint(), std::bit_cast<std::uint64_t>(out.makespan_s));
  out.layers["sim.events"] =
      static_cast<double>(sim.events_processed() - events0);
  out.layers["trace.records"] = static_cast<double>(sim.trace().size());
  add_k8s_layers(out, *kube);
  add_knative_layers(out, *serving, peak_ready);
  add_net_layers(out, *topo.cluster);
  out.sizes = {{"nodes", z.nodes},
               {"racks", z.racks},
               {"users", z.users},
               {"rate_hz", z.rate_hz},
               {"work_s", z.work_s},
               {"requests", static_cast<double>(z.requests)},
               {"min_scale", z.min_scale}};
  return out;
}

// ---- dag ---------------------------------------------------------------

Outcome run_dag(const RunConfig& rc, Probe& probe) {
  struct Size {
    std::size_t nodes;
    int big_layers;
    int big_width;
    int workflows;
    int layers;
    int width;
  };
  const Size z = rc.smoke ? Size{4, 10, 10, 4, 5, 4}
                          : Size{16, 60, 60, 40, 25, 10};
  Outcome out;
  std::unique_ptr<core::PaperTestbed> tb;
  Campaign c;
  out.setup_s = probe.span("setup", [&] {
    probe.span("core.testbed", [&] {
      core::TestbedOptions opts;
      opts.node_count = z.nodes;
      tb = std::make_unique<core::PaperTestbed>(
          SplitMix64::mix(rc.seed, kSimTag), opts);
      tb->sim().trace().set_enabled(probe.traced());
    });
    out.layers["workload.gen_s"] = probe.span("workload.gen", [&] {
      metrics::MixPoint mix;
      mix.native = 0.5;
      mix.container = 0.5;
      generate(c, *tb, "dag-s" + std::to_string(rc.seed), z.big_layers,
               z.big_width, z.workflows, z.layers, z.width, mix, rc.seed);
    });
  });
  if (rc.setup_only) return out;

  sim::Simulation& sim = tb->sim();
  const std::uint64_t events0 = sim.events_processed();
  const double t0 = sim.now();
  out.timed_s = probe.span("timed", [&] {
    plan_and_submit(c, *tb, probe, out);
    start_dags(c, probe);
    const int n = static_cast<int>(c.dags.size());
    probe.drive(sim, [&] {
      return c.finished == n || sim.now() > t0 + kDeadlineS;
    });
  });

  collect_campaign(out, c, *tb, /*task_latency=*/true);
  out.layers["sim.events"] =
      static_cast<double>(sim.events_processed() - events0);
  out.layers["trace.records"] = static_cast<double>(sim.trace().size());
  add_k8s_layers(out, tb->kube());
  add_knative_layers(out, tb->serving(), 0);
  add_net_layers(out, tb->cluster());
  out.sizes.insert(out.sizes.begin(),
                   {{"nodes", static_cast<double>(z.nodes)},
                    {"big_layers", z.big_layers},
                    {"big_width", z.big_width},
                    {"small_workflows", z.workflows},
                    {"small_layers", z.layers},
                    {"small_width", z.width}});
  return out;
}

// ---- paper-mix ---------------------------------------------------------

Outcome run_paper_mix(const RunConfig& rc, Probe& probe) {
  struct Size {
    std::size_t nodes;
    int workflows;
    int layers;
    int width;
    int users;
    double rate_hz;
    std::uint64_t requests;
  };
  const Size z = rc.smoke ? Size{12, 3, 4, 4, 8, 2.0, 600}
                          : Size{160, 20, 20, 20, 160, 4.0, 40000};
  Outcome out;
  std::unique_ptr<core::PaperTestbed> tb;
  std::unique_ptr<workload::OpenLoopEngine> engine;
  Campaign c;
  const container::Image image = container::make_task_image("fn-open");
  out.setup_s = probe.span("setup", [&] {
    probe.span("core.testbed", [&] {
      core::TestbedOptions opts;
      opts.node_count = z.nodes;
      opts.catalog.enabled = true;
      tb = std::make_unique<core::PaperTestbed>(
          SplitMix64::mix(rc.seed, kSimTag), opts);
      tb->sim().trace().set_enabled(probe.traced());
    });
    out.layers["k8s.setup_s"] = probe.span("k8s.setup", [&] {
      tb->kube().enable_node_lifecycle();
      tb->registry().push(image);
      tb->kube().seed_image_everywhere(image);
    });
    out.layers["knative.warmup_s"] = probe.span("knative.warmup", [&] {
      core::ProvisioningPolicy policy = core::ProvisioningPolicy::prestaged(2);
      policy.container_concurrency = 1;
      tb->register_matmul_function(policy);
      auto spec = compute_service("fn-open", 2);
      spec.annotations.request_timeout_s = 60;
      tb->serving().create_service(std::move(spec));
      warm_until(tb->sim(),
                 [&] { return tb->serving().ready_replicas("fn-open") >= 2; });
    });
    out.layers["workload.gen_s"] = probe.span("workload.gen", [&] {
      metrics::MixPoint mix;
      mix.native = 0.4;
      mix.container = 0.3;
      mix.serverless = 0.3;
      generate(c, *tb, "mix-s" + std::to_string(rc.seed), 0, 0, z.workflows,
               z.layers, z.width, mix, rc.seed);
      workload::OpenLoopConfig cfg;
      cfg.users = z.users;
      cfg.rate_hz = z.rate_hz;
      cfg.horizon_s = 3600.0;  // the request cap ends the arrivals
      cfg.max_requests = z.requests;
      cfg.services = {"fn-open"};
      cfg.request_factory = varied_work(0.05, 10000);
      cfg.seed = SplitMix64::mix(rc.seed, kArrivalTag);
      cfg.record_requests = true;
      engine = std::make_unique<workload::OpenLoopEngine>(
          tb->serving(), tb->cluster().node(0).net_id(), std::move(cfg));
    });
  });
  if (rc.setup_only) return out;

  sim::Simulation& sim = tb->sim();
  const std::uint64_t events0 = sim.events_processed();
  const double t0 = sim.now();
  int peak_ready = 0;
  out.timed_s = probe.span("timed", [&] {
    engine->start();
    plan_and_submit(c, *tb, probe, out);
    start_dags(c, probe);
    const int n = static_cast<int>(c.dags.size());
    probe.drive(
        sim,
        [&] {
          return (c.finished == n && engine->quiesced()) ||
                 sim.now() > t0 + kDeadlineS;
        },
        peak_ready_tracker(tb->serving(), peak_ready));
  });

  collect_open_loop(out, *engine, z.requests);
  collect_campaign(out, c, *tb, /*task_latency=*/false);
  out.fingerprint = SplitMix64::mix(
      out.fingerprint,
      SplitMix64::mix(engine->fingerprint(),
                      std::bit_cast<std::uint64_t>(out.makespan_s)));
  out.layers["sim.events"] =
      static_cast<double>(sim.events_processed() - events0);
  out.layers["trace.records"] = static_cast<double>(sim.trace().size());
  add_k8s_layers(out, tb->kube());
  add_knative_layers(out, tb->serving(), peak_ready);
  add_net_layers(out, tb->cluster());
  add_catalog_layers(out, *tb);
  out.sizes.insert(out.sizes.begin(),
                   {{"nodes", static_cast<double>(z.nodes)},
                    {"layers", z.layers},
                    {"width", z.width},
                    {"users", z.users},
                    {"rate_hz", z.rate_hz},
                    {"requests", static_cast<double>(z.requests)}});
  return out;
}

}  // namespace

WorkloadFn find_workload(const std::string& name) {
  if (name == "serving") return &run_serving;
  if (name == "dag") return &run_dag;
  if (name == "paper-mix") return &run_paper_mix;
  return nullptr;
}

}  // namespace perfbench
