// The benchmark's three workloads. Each builds a fresh simulation from the
// seed, times its set-up and its timed phase separately, checks its own
// outputs and returns the sim-time results, the per-layer counters and a
// replay fingerprint.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "metrics/stream_stats.hpp"
#include "probe.hpp"

namespace perfbench {

struct RunConfig {
  std::uint64_t seed = 1;
  /// Tiny inputs for the smoke check; the metrics keep their names.
  bool smoke = false;
  /// Stop after set-up: extra set-up samples for the setup_s median.
  bool setup_only = false;
};

struct Outcome {
  double setup_s = 0;  ///< wall: workload start → first timed event
  double timed_s = 0;  ///< wall: the timed phase
  /// Ops are answered open-loop requests plus abstract workflow tasks.
  std::uint64_t ops_attempted = 0;
  std::uint64_t ops_completed = 0;
  std::uint64_t ops_failed = 0;
  /// Modelled latency per op in microseconds of sim time: open-loop
  /// requests where the workload has them, else DAG task sojourn
  /// (condor submit → job end).
  sf::stats::Histogram latency_us;
  /// Slowest workflow's makespan; the open-loop drain time (first
  /// arrival window start → last response) where there are no workflows.
  double makespan_s = 0;
  std::uint64_t fingerprint = 0;
  /// Per-layer counters and timings, keyed by the per-layer metric name.
  std::map<std::string, double> layers;
  /// Fixed input sizes, for the run record.
  std::vector<std::pair<std::string, double>> sizes;
  /// Correctness failures; empty when every check passed.
  std::vector<std::string> errors;
};

using WorkloadFn = Outcome (*)(const RunConfig&, Probe&);

/// Looks up a workload by name; null when unknown.
WorkloadFn find_workload(const std::string& name);

}  // namespace perfbench
