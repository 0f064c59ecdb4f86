// Model-based and invariant ("property") tests for the simulation
// engine, run over seeded random scenarios.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/ps_resource.hpp"
#include "sim/simulation.hpp"

namespace sf::sim {
namespace {

// ---- EventQueue vs. a reference model -----------------------------------

class EventQueueModelTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EventQueueModelTest, MatchesMultimapReference) {
  Rng rng(GetParam());
  EventQueue queue;
  // Reference: the live events, ordered exactly like the queue (time, then
  // id); `time_of` maps a live id back to its key.
  std::set<std::pair<SimTime, EventId>> model;
  std::map<EventId, SimTime> time_of;
  std::vector<EventId> live_ids;
  // Fired or cancelled ids. Their slots are reused by later schedules, so
  // cancelling one must miss without touching the slot's new occupant.
  std::vector<EventId> dead_ids;

  const auto schedule = [&](SimTime t) {
    const EventId id = queue.schedule(t, [] {});
    model.emplace(t, id);
    time_of.emplace(id, t);
    live_ids.push_back(id);
  };
  const auto cancel_live = [&](std::size_t pick) {
    const EventId id = live_ids[pick];
    EXPECT_TRUE(queue.cancel(id));
    model.erase({time_of.at(id), id});
    time_of.erase(id);
    live_ids[pick] = live_ids.back();
    live_ids.pop_back();
    dead_ids.push_back(id);
  };
  const auto cancel_stale = [&] {
    EXPECT_FALSE(queue.cancel(dead_ids[rng.index(dead_ids.size())]));
  };
  const auto pop_and_check = [&] {
    ASSERT_FALSE(model.empty());
    const auto event = queue.pop();
    const auto [t, id] = *model.begin();
    EXPECT_EQ(event.time, t);
    EXPECT_EQ(event.id, id);
    model.erase(model.begin());
    time_of.erase(id);
    std::erase(live_ids, id);
    dead_ids.push_back(id);
  };
  // size() and next_time() must always describe the live set exactly.
  const auto check_top = [&] {
    EXPECT_EQ(queue.size(), model.size());
    EXPECT_EQ(queue.next_time(),
              model.empty() ? kTimeInfinity : model.begin()->first);
  };

  // Phase 1: a random mix. Half the times fall on 8 quantized instants, so
  // same-instant ties meet cancels and pops.
  for (int op = 0; op < 2000; ++op) {
    const double p = rng.uniform(0, 1);
    if (p < 0.6 || live_ids.empty()) {
      schedule(rng.chance(0.5) ? static_cast<SimTime>(rng.index(8))
                               : rng.uniform(0, 100));
    } else if (p < 0.75) {
      cancel_live(rng.index(live_ids.size()));
    } else if (p < 0.8 && !dead_ids.empty()) {
      cancel_stale();
    } else if (!model.empty()) {
      pop_and_check();
    }
    check_top();
  }

  // Phase 2: many far-future events (timers that rarely fire), most of
  // them cancelled, interleaved with pops and stale cancels.
  for (int i = 0; i < 3000; ++i) {
    schedule(1000 + (rng.chance(0.5) ? static_cast<SimTime>(rng.index(8))
                                     : rng.uniform(0, 100)));
  }
  check_top();
  while (live_ids.size() > 200) {
    const double p = rng.uniform(0, 1);
    if (p < 0.9) {
      cancel_live(rng.index(live_ids.size()));
    } else if (p < 0.95) {
      cancel_stale();
    } else {
      pop_and_check();
    }
    check_top();
  }

  // Drain both; order must agree to the end.
  while (!queue.empty()) {
    pop_and_check();
    check_top();
  }
  EXPECT_TRUE(model.empty());
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueModelTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ---- PsResource invariants under random load -----------------------------

class PsPropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(PsPropertyTest, AllJobsCompleteAndThroughputIsConserved) {
  Simulation sim(GetParam());
  const double capacity = sim.rng().uniform(1.0, 16.0);
  PsResource cpu(sim, capacity);

  constexpr int kJobs = 60;
  double total_work = 0;
  int completed = 0;
  double last_completion = 0;
  double first_arrival = 1e300;

  for (int i = 0; i < kJobs; ++i) {
    const double arrival = sim.rng().uniform(0.0, 20.0);
    const double work = sim.rng().uniform(0.01, 5.0);
    const double cap = sim.rng().chance(0.5)
                           ? sim.rng().uniform(0.2, 2.0)
                           : PsResource::kNoCap;
    const double weight = sim.rng().uniform(0.5, 4.0);
    total_work += work;
    first_arrival = std::min(first_arrival, arrival);
    sim.call_at(arrival, [&, work, cap, weight] {
      cpu.submit(work,
                 [&] {
                   ++completed;
                   last_completion = sim.now();
                 },
                 cap, weight);
    });
  }
  sim.run();
  EXPECT_EQ(completed, kJobs);
  EXPECT_EQ(cpu.active_jobs(), 0u);
  // Throughput bound: the resource can never deliver more than
  // capacity × elapsed, so the last completion obeys the work bound.
  EXPECT_GE(last_completion - first_arrival,
            total_work / capacity - 1e-6);
}

TEST_P(PsPropertyTest, UtilizationNeverExceedsCapacityOrCaps) {
  Simulation sim(GetParam());
  const double capacity = 8.0;
  PsResource cpu(sim, capacity);
  std::vector<PsResource::JobId> ids;
  for (int i = 0; i < 24; ++i) {
    const double cap = sim.rng().uniform(0.25, 1.5);
    ids.push_back(cpu.submit(sim.rng().uniform(1.0, 10.0), [] {}, cap));
  }
  for (double t = 0.1; t < 10.0; t += 0.7) {
    sim.run_until(t);
    EXPECT_LE(cpu.utilization(), capacity + 1e-9);
    for (const auto id : ids) {
      const double rate = cpu.current_rate(id);
      if (rate >= 0) {
        EXPECT_LE(rate, 1.5 + 1e-9);
      }
    }
  }
  sim.run();
}

INSTANTIATE_TEST_SUITE_P(Seeds, PsPropertyTest,
                         ::testing::Values(7, 21, 99, 4242));

// ---- Equal jobs finish together (symmetry) --------------------------------

TEST(PsSymmetry, IdenticalJobsIdenticalFinish) {
  for (int n : {2, 5, 17}) {
    Simulation sim;
    PsResource cpu(sim, 3.0);
    std::vector<double> finishes;
    for (int i = 0; i < n; ++i) {
      cpu.submit(2.0, [&] { finishes.push_back(sim.now()); }, 1.0);
    }
    sim.run();
    ASSERT_EQ(finishes.size(), static_cast<std::size_t>(n));
    for (double f : finishes) EXPECT_DOUBLE_EQ(f, finishes.front());
  }
}

}  // namespace
}  // namespace sf::sim
