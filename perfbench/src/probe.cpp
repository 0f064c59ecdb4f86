#include "probe.hpp"

#include <cmath>
#include <ostream>
#include <utility>

namespace perfbench {

int Probe::open(const std::string& name) {
  if (!traced_) return -1;
  Span s;
  s.name = name;
  s.start_s = std::chrono::duration<double>(Clock::now() - epoch_).count();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run = run_;
  sink_.push_back(std::move(s));
  const int id = static_cast<int>(sink_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Probe::close(int id) {
  if (id < 0) return;
  sink_[static_cast<std::size_t>(id)].end_s =
      std::chrono::duration<double>(Clock::now() - epoch_).count();
  stack_.pop_back();
}

void Probe::drive(sf::sim::Simulation& sim, const std::function<bool()>& done,
                  const std::function<void()>& on_tick) {
  const int id = open("sim.drive");
  const auto t0 = Clock::now();
  std::uint64_t steps = 0;
  if (!traced_) {
    while (!done() && sim.has_pending_events()) {
      sim.step();
      ++steps;
    }
  } else {
    double next_tick = std::floor(sim.now()) + 1.0;
    while (!done() && sim.has_pending_events()) {
      const auto s0 = Clock::now();
      sim.step();
      step_ns_.record(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               s0)
              .count()));
      ++steps;
      if (on_tick && sim.now() >= next_tick) {
        on_tick();
        next_tick = std::floor(sim.now()) + 1.0;
      }
    }
  }
  drive_s_ += seconds_since(t0);
  steps_ += steps;
  close(id);
}

void write_spans(const std::vector<Span>& spans, std::ostream& os) {
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    os << "{\"id\": " << i << ", \"run\": " << s.run << ", \"name\": \""
       << s.name << "\", \"parent\": " << s.parent
       << ", \"start_s\": " << s.start_s << ", \"end_s\": " << s.end_s
       << "}\n";
  }
}

}  // namespace perfbench
