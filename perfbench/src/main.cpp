// perfbench: runs one ServerFlow workload repeatedly for a fixed wall-clock
// budget in one single-threaded process, checks every repetition's
// outputs, and prints the end-to-end metrics (untraced) or the per-layer
// metrics (traced) as the last line of stdout, one JSON object.
//
//   perfbench --workload serving|dag|paper-mix --seed N --seconds S
//             --trace 0|1 [--smoke] [--spans PATH] [--commit SHA]
//
// Every repetition of one seed replays the same simulation, so sim-time
// results must repeat bit for bit; wall-clock results are medians over the
// repetitions. A traced run alternates untraced and traced repetitions so
// that it can report the tracing overhead and check that tracing leaves
// the replay fingerprint unchanged. Exit status 1 means a correctness
// check failed (the JSON line then says "correct": false); 2 means bad
// arguments.
#include <sys/resource.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "probe.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string spans_path;
  std::string commit = "unknown";
};

bool parse(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") return false;
        a.trace = v == "1";
      } else if (flag == "--spans") {
        a.spans_path = v;
      } else if (flag == "--commit") {
        a.commit = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Metrics in output order with their units. Must match BENCHMARK.json.
struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"ops_per_s", "ops/s"},   {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},   {"sim_p50_ms", "ms"},
    {"sim_p99_ms", "ms"},     {"sim_p999_ms", "ms"},
    {"sim_makespan_s", "s"},
};

constexpr MetricDef kPerLayer[] = {
    {"sim.events", "count"},
    {"sim.drive_s", "s"},
    {"sim.ns_per_event", "ns"},
    {"sim.step_p50_ns", "ns"},
    {"sim.step_p99_ns", "ns"},
    {"sim.step_p999_ns", "ns"},
    {"k8s.setup_s", "s"},
    {"k8s.binds", "count"},
    {"k8s.pods_created", "count"},
    {"k8s.endpoints_refreshes", "count"},
    {"k8s.watch_batches", "count"},
    {"k8s.ready_pods_per_bind", "ratio"},
    {"knative.warmup_s", "s"},
    {"knative.requests_routed", "count"},
    {"knative.cold_starts", "count"},
    {"knative.route_retries", "count"},
    {"knative.first_try_ratio", "ratio"},
    {"knative.ready_pods", "count"},
    {"net.http_requests", "count"},
    {"net.bytes_delivered", "bytes"},
    {"pegasus.plan_s", "s"},
    {"pegasus.jobs_planned", "count"},
    {"condor.submit_s", "s"},
    {"condor.negotiation_cycles", "count"},
    {"condor.jobs_completed", "count"},
    {"condor.jobs_failed", "count"},
    {"condor.mean_queue_wait_s", "s"},
    {"condor.mean_exec_s", "s"},
    {"core.invocations", "count"},
    {"core.invocation_failures", "count"},
    {"container.created", "count"},
    {"catalog.lookups", "count"},
    {"catalog.service_calls", "count"},
    {"catalog.cache_hit_ratio", "ratio"},
    {"workload.gen_s", "s"},
    {"trace.records", "count"},
    {"trace.overhead_ratio", "ratio"},
};

/// Per-layer wall-time metrics: reported as medians over the traced
/// repetitions. Every other per-layer metric is a count that repeats.
bool is_wall_time(const std::string& name) {
  return name == "k8s.setup_s" || name == "knative.warmup_s" ||
         name == "pegasus.plan_s" || name == "condor.submit_s" ||
         name == "workload.gen_s";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<std::pair<MetricDef, double>>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    os << (i ? ", " : "") << '"' << metrics[i].first.name
       << "\": {\"value\": " << number(metrics[i].second)
       << ", \"unit\": \"" << metrics[i].first.unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload serving|dag|paper-mix --seed N "
                 "--seconds S --trace 0|1 [--smoke] [--spans PATH] "
                 "[--commit SHA]\n";
    return 2;
  }
  const WorkloadFn workload = find_workload(args.workload);
  if (workload == nullptr) {
    std::cerr << "perfbench: unknown workload '" << args.workload << "'\n";
    return 2;
  }

  // Run record. The load generator is this one thread: the simulation's
  // users are virtual, so offered load never depends on host cores.
  const unsigned cores = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "run: workload=" << args.workload << " seed=" << args.seed
            << " seconds=" << args.seconds << " trace=" << args.trace
            << " smoke=" << args.smoke << "\n"
            << "host: nproc=" << cores << " threads=1 compiler=\""
            << PERFBENCH_COMPILER << "\" build_type=" << PERFBENCH_BUILD_TYPE
            << " commit=" << args.commit << "\n";

  const auto epoch = Clock::now();
  RunConfig rc;
  rc.seed = args.seed;
  rc.smoke = args.smoke;
  std::vector<Span> spans;
  std::vector<std::string> errors;
  std::vector<Outcome> plain;
  std::vector<Outcome> traced;
  std::vector<double> plain_drive_s;
  std::vector<double> traced_drive_s;
  sf::stats::Histogram step_ns;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t fingerprint = 0;
  // Set-up is short next to a repetition, so it gets extra samples.
  constexpr std::size_t kMinSetups = 9;

  auto run_once = [&](bool trace) {
    const int run_id = static_cast<int>(plain.size() + traced.size());
    Probe probe(trace, run_id, spans, epoch);
    Outcome out = workload(rc, probe);
    attempted += out.ops_attempted;
    failed += out.ops_failed;
    for (const auto& e : out.errors) errors.push_back(e);
    if (plain.empty() && traced.empty()) {
      fingerprint = out.fingerprint;
    } else if (out.fingerprint != fingerprint) {
      errors.push_back("repetition " + std::to_string(run_id) +
                       (trace ? " (traced)" : "") +
                       " changed the replay fingerprint");
    }
    if (trace) {
      traced_drive_s.push_back(probe.drive_s());
      step_ns.merge(probe.step_ns());
      traced.push_back(std::move(out));
    } else {
      plain_drive_s.push_back(probe.drive_s());
      plain.push_back(std::move(out));
    }
  };

  do {
    run_once(false);
    if (args.trace) run_once(true);
  } while (errors.empty() && seconds_since(epoch) < args.seconds);

  std::vector<double> setups;
  for (const Outcome& o : plain) setups.push_back(o.setup_s);
  if (!args.trace) {
    RunConfig setup_rc = rc;
    setup_rc.setup_only = true;
    while (setups.size() < kMinSetups) {
      Probe probe(false, -1, spans, epoch);
      setups.push_back(workload(setup_rc, probe).setup_s);
    }
  }

  const Outcome& first = plain.front();
  std::cout << "input:";
  for (const auto& [k, v] : first.sizes) std::cout << ' ' << k << '=' << v;
  std::cout << "\nrepetitions: untraced=" << plain.size()
            << " traced=" << traced.size() << " ops_attempted=" << attempted
            << " ops_failed=" << failed << " fingerprint=0x" << std::hex
            << fingerprint << std::dec << "\n";
  for (std::size_t i = 0; i < plain.size(); ++i) {
    const Outcome& o = plain[i];
    std::cout << "repetition " << i << ": setup_s=" << o.setup_s
              << " timed_s=" << o.timed_s
              << " ops=" << o.ops_completed << "\n";
  }
  for (const auto& e : errors) std::cout << "FAILED: " << e << "\n";

  std::vector<std::pair<MetricDef, double>> metrics;
  if (!args.trace) {
    std::vector<double> ops;
    for (const Outcome& o : plain) {
      ops.push_back(static_cast<double>(o.ops_completed) / o.timed_s);
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const double values[] = {
        median(ops),
        median(setups),
        static_cast<double>(ru.ru_maxrss) / 1024.0,
        first.latency_us.percentile_seconds(0.50) * 1e3,
        first.latency_us.percentile_seconds(0.99) * 1e3,
        first.latency_us.percentile_seconds(0.999) * 1e3,
        first.makespan_s,
    };
    for (std::size_t i = 0; i < std::size(kEndToEnd); ++i) {
      metrics.push_back({kEndToEnd[i], values[i]});
    }
  } else {
    const Outcome& t = traced.front();
    const double drive = median(traced_drive_s);
    const double events = t.layers.at("sim.events");
    std::map<std::string, double> derived{
        {"sim.drive_s", drive},
        {"sim.ns_per_event", events > 0 ? drive * 1e9 / events : 0},
        {"sim.step_p50_ns", static_cast<double>(step_ns.percentile(0.50))},
        {"sim.step_p99_ns", static_cast<double>(step_ns.percentile(0.99))},
        {"sim.step_p999_ns", static_cast<double>(step_ns.percentile(0.999))},
        {"trace.overhead_ratio", drive / median(plain_drive_s)},
    };
    for (const MetricDef& def : kPerLayer) {
      const std::string name = def.name;
      double v = 0;
      if (const auto it = derived.find(name); it != derived.end()) {
        v = it->second;
      } else if (is_wall_time(name)) {
        std::vector<double> samples;
        for (const Outcome& o : traced) {
          const auto jt = o.layers.find(name);
          samples.push_back(jt == o.layers.end() ? 0 : jt->second);
        }
        v = median(samples);
      } else if (const auto jt = t.layers.find(name); jt != t.layers.end()) {
        v = jt->second;
      }
      metrics.push_back({def, v});
    }
    if (!args.spans_path.empty()) {
      std::ofstream out(args.spans_path);
      out.precision(9);
      write_spans(spans, out);
    }
  }
  const bool correct = errors.empty();
  print_result(correct, attempted, failed, metrics);
  return correct ? 0 : 1;
}
