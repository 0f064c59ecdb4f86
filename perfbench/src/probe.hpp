// Wall-clock instrumentation the benchmark wraps around its own calls into
// the ServerFlow layers: named spans with parent links, and a drive loop
// that steps the simulation and (when traced) records each step's wall
// time. Nothing here schedules events or draws randomness, so a traced
// run replays exactly the event stream of an untraced one.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "metrics/stream_stats.hpp"
#include "sim/simulation.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// One timed call into a layer. Times are wall seconds since the process
/// epoch; `parent` indexes the enclosing span (-1 at top level); `run`
/// numbers the workload repetition the span belongs to.
struct Span {
  std::string name;
  double start_s = 0;
  double end_s = 0;
  int parent = -1;
  int run = 0;
};

/// Times the benchmark's calls for one workload repetition. The elapsed
/// time of every span is always measured (setup and timed-phase totals
/// need it); the span records themselves, the per-step histogram and the
/// sim-second tick hook are kept only when tracing.
class Probe {
 public:
  Probe(bool traced, int run, std::vector<Span>& sink, Clock::time_point epoch)
      : traced_(traced), run_(run), sink_(sink), epoch_(epoch) {}

  [[nodiscard]] bool traced() const { return traced_; }

  /// Runs `fn` inside a span named `name`; returns its wall seconds.
  template <class Fn>
  double span(const std::string& name, Fn&& fn) {
    const int id = open(name);
    const auto t0 = Clock::now();
    std::forward<Fn>(fn)();
    const double elapsed = seconds_since(t0);
    close(id);
    return elapsed;
  }

  /// Steps `sim` until `done()` holds or the event queue drains. Adds the
  /// loop's wall time and step count to drive_s()/steps(). When traced,
  /// records every step's wall time and calls `on_tick` whenever sim time
  /// crosses a whole second.
  void drive(sf::sim::Simulation& sim, const std::function<bool()>& done,
             const std::function<void()>& on_tick = {});

  [[nodiscard]] double drive_s() const { return drive_s_; }
  [[nodiscard]] std::uint64_t steps() const { return steps_; }
  [[nodiscard]] const sf::stats::Histogram& step_ns() const {
    return step_ns_;
  }

 private:
  int open(const std::string& name);
  void close(int id);

  bool traced_;
  int run_;
  std::vector<Span>& sink_;
  Clock::time_point epoch_;
  std::vector<int> stack_;
  double drive_s_ = 0;
  std::uint64_t steps_ = 0;
  sf::stats::Histogram step_ns_;
};

/// Writes spans as one JSON object per line.
void write_spans(const std::vector<Span>& spans, std::ostream& os);

}  // namespace perfbench
