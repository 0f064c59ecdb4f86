// Priority scheduling and ClassAd-style requirements matching.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <utility>
#include <vector>

#include "condor/pool.hpp"
#include "sim/simulation.hpp"

namespace sf::condor {
namespace {

class MatchmakingTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cl = cluster::make_paper_testbed(sim);
  CondorPool pool{*cl, cl->node(0),
                  {&cl->node(1), &cl->node(2), &cl->node(3)}};

  JobSpec job(const std::string& name, double work = 0.5) {
    JobSpec spec;
    spec.name = name;
    spec.executable = [work](ExecContext& ctx,
                             std::function<void(bool)> done) {
      ctx.node->run_process(work, [done = std::move(done)] { done(true); },
                            1.0);
    };
    spec.submit_volume = &pool.submit_staging();
    return spec;
  }

  /// Runs three jobs in one negotiation cycle and drains them, leaving
  /// one free 1-cpu / 512 MB claim per worker in ClaimId order: node1,
  /// node2, node3 (the carve loop fills workers round-robin).
  void warm_one_claim_per_worker() {
    std::vector<std::string> workers;
    for (int i = 0; i < 3; ++i) {
      const std::string idx = std::to_string(i);
      JobSpec spec = job("warm" + idx);
      spec.on_done = [&workers](const JobRecord& rec) {
        workers.push_back(rec.worker);
      };
      pool.submit(std::move(spec));
    }
    sim.run_until(60.0);
    ASSERT_EQ(workers,
              (std::vector<std::string>{"node1", "node2", "node3"}));
    ASSERT_EQ(pool.active_claims(), 3u);
    ASSERT_EQ(pool.running_jobs(), 0u);
  }

  /// Submits `spec` recording the worker it ran on into `workers[name]`.
  void submit_tracked(JobSpec spec,
                      std::map<std::string, std::string>& workers) {
    spec.on_done = [&workers, name = spec.name](const JobRecord& rec) {
      workers[name] = rec.worker;
    };
    pool.submit(std::move(spec));
  }
};

TEST_F(MatchmakingTest, HigherPriorityStartsFirst) {
  std::vector<std::string> start_order;
  auto track = [&](JobSpec spec) {
    spec.on_done = [&start_order, name = spec.name](const JobRecord& rec) {
      (void)rec;
      start_order.push_back(name);
    };
    return spec;
  };
  // Saturate the dispatch pipeline: submit low first, then high.
  JobSpec low = track(job("low"));
  low.priority = 0;
  JobSpec high = track(job("high"));
  high.priority = 10;
  JobSpec mid = track(job("mid"));
  mid.priority = 5;
  pool.submit(std::move(low));
  pool.submit(std::move(high));
  pool.submit(std::move(mid));
  sim.run();
  ASSERT_EQ(start_order.size(), 3u);
  // Same work per job → completion order mirrors start order.
  EXPECT_EQ(start_order[0], "high");
  EXPECT_EQ(start_order[1], "mid");
  EXPECT_EQ(start_order[2], "low");
}

TEST_F(MatchmakingTest, EqualPriorityStaysFifo) {
  std::vector<std::string> order;
  for (int i = 0; i < 4; ++i) {
    const std::string idx = std::to_string(i);
    JobSpec spec = job("j" + idx);
    spec.on_done = [&order, name = spec.name](const JobRecord&) {
      order.push_back(name);
    };
    pool.submit(std::move(spec));
  }
  sim.run();
  EXPECT_EQ(order, (std::vector<std::string>{"j0", "j1", "j2", "j3"}));
}

TEST_F(MatchmakingTest, RequirementsPinJobToMachine) {
  std::string ran_on;
  JobSpec spec = job("pinned");
  spec.requirements = [](const Startd& sd) {
    return sd.node().name() == "node2";
  };
  spec.on_done = [&](const JobRecord& rec) { ran_on = rec.worker; };
  pool.submit(std::move(spec));
  sim.run();
  EXPECT_EQ(ran_on, "node2");
}

TEST_F(MatchmakingTest, RequirementsByResources) {
  // Require ≥ 16 GB free — every paper-testbed node qualifies; the
  // predicate is evaluated against the actual startd.
  std::string ran_on;
  JobSpec spec = job("memory-hungry");
  spec.requirements = [](const Startd& sd) {
    return sd.free_memory() >= 16.0 * (1ull << 30);
  };
  spec.on_done = [&](const JobRecord& rec) { ran_on = rec.worker; };
  pool.submit(std::move(spec));
  sim.run();
  EXPECT_FALSE(ran_on.empty());
}

TEST_F(MatchmakingTest, UnsatisfiableRequirementsNeverRun) {
  bool ran = false;
  JobSpec spec = job("impossible");
  spec.requirements = [](const Startd&) { return false; };
  spec.on_done = [&](const JobRecord&) { ran = true; };
  const JobId id = pool.submit(std::move(spec));
  sim.run_until(120.0);
  EXPECT_FALSE(ran);
  EXPECT_EQ(pool.job(id)->state, JobState::kIdle);
  // A satisfiable job is not blocked behind it.
  bool other_ran = false;
  JobSpec ok = job("fine");
  ok.on_done = [&](const JobRecord&) { other_ran = true; };
  pool.submit(std::move(ok));
  sim.run_until(240.0);
  EXPECT_TRUE(other_ran);
}

TEST_F(MatchmakingTest, ExistingClaimNotReusedAcrossRequirements) {
  // First job pins to node1 and leaves a warm claim there; the second
  // requires node3, so it must negotiate a fresh claim instead of riding
  // the node1 claim.
  std::string first_on;
  std::string second_on;
  JobSpec first = job("first");
  first.requirements = [](const Startd& sd) {
    return sd.node().name() == "node1";
  };
  first.on_done = [&](const JobRecord& rec) { first_on = rec.worker; };
  pool.submit(std::move(first));
  sim.run();
  JobSpec second = job("second");
  second.requirements = [](const Startd& sd) {
    return sd.node().name() == "node3";
  };
  second.on_done = [&](const JobRecord& rec) { second_on = rec.worker; };
  pool.submit(std::move(second));
  sim.run();
  EXPECT_EQ(first_on, "node1");
  EXPECT_EQ(second_on, "node3");
}

TEST_F(MatchmakingTest, SaturatedPoolDispatchSequenceIsPinned) {
  // Four-core jobs fit two per worker, so six claims saturate the pool.
  // Twelve jobs interleave 1 GB and 4 GB shapes at two priorities; each
  // runs a different length, so claims free one at a time. A freed 1 GB
  // claim only fits 1 GB jobs, while a freed 4 GB claim fits both. The
  // exact (job, node, start time) sequence, in start order, pins priority
  // order, first fit by ClaimId and the shape test of the matcher.
  std::vector<std::pair<double, std::string>> started;
  for (int i = 0; i < 12; ++i) {
    char name[8];
    std::snprintf(name, sizeof name, "j%02d", i);
    JobSpec spec = job(name, 10.0 + 7.0 * i);
    spec.request_cpus = 4;
    spec.request_memory = (i % 2 == 0 ? 1.0 : 4.0) * (1ull << 30);
    spec.priority = i % 3 == 0 ? 5 : 0;
    spec.on_done = [&started](const JobRecord& rec) {
      char line[64];
      std::snprintf(line, sizeof line, "%s %s %.6f", rec.spec.name.c_str(),
                    rec.worker.c_str(), rec.start_time);
      started.emplace_back(rec.start_time, line);
    };
    pool.submit(std::move(spec));
  }
  sim.run();
  EXPECT_EQ(pool.completed_jobs(), 12u);
  std::sort(started.begin(), started.end());
  std::vector<std::string> seq;
  for (const auto& [t, line] : started) seq.push_back(line);
  // j04 takes j00's freed 1 GB claim; j05 and j07 take 4 GB claims freed
  // by j01 and j03; j08 (1 GB) passes the 4 GB head job j07 to ride j02's
  // freed 1 GB claim.
  EXPECT_EQ(seq, (std::vector<std::string>{
                     "j00 node1 11.070000",
                     "j03 node2 11.340000",
                     "j06 node3 11.610000",
                     "j09 node1 11.880000",
                     "j01 node2 12.150000",
                     "j02 node3 12.420000",
                     "j04 node1 22.140000",
                     "j05 node2 30.220000",
                     "j08 node3 37.490000",
                     "j07 node2 43.410000",
                     "j10 node1 61.210000",
                     "j11 node2 76.290000",
                 }));
}

TEST_F(MatchmakingTest, HeadJobNoFreeClaimFitsDoesNotBlockLaterJob) {
  // A warm 512 MB claim sits free. The high-priority head job wants 4 GB,
  // which no free claim fits; the job queued behind it fits the warm
  // claim and dispatches at once instead of waiting for negotiation.
  std::map<std::string, std::string> workers;
  submit_tracked(job("warm"), workers);
  sim.run_until(60.0);
  ASSERT_EQ(pool.active_claims(), 1u);

  JobSpec big = job("big");
  big.request_memory = 4.0 * (1ull << 30);
  big.priority = 10;
  const JobId big_id = pool.submit(std::move(big));
  const JobId small_id = pool.submit(job("small"));
  sim.run();
  const JobRecord* big_rec = pool.job(big_id);
  const JobRecord* small_rec = pool.job(small_id);
  ASSERT_EQ(small_rec->state, JobState::kCompleted);
  ASSERT_EQ(big_rec->state, JobState::kCompleted);
  EXPECT_EQ(small_rec->worker, workers.at("warm"));
  // Dispatch (0.27 s) + worker setup (0.8 s): no negotiation cycle.
  EXPECT_DOUBLE_EQ(small_rec->start_time - small_rec->submit_time, 1.07);
  EXPECT_GE(big_rec->start_time - big_rec->submit_time, 10.0);
}

TEST_F(MatchmakingTest, RequirementsJobAmongSameShapeJobsKeepsItsMachine) {
  // Free claims on node1, node2, node3. A and B take the first two; P,
  // queued between same-shaped requirement-free jobs, is pinned to node1,
  // whose only claim A holds. C must not steal a claim from P's search
  // state, and P must wait for a fresh node1 claim instead of riding
  // node3's.
  warm_one_claim_per_worker();
  std::map<std::string, std::string> workers;
  submit_tracked(job("A"), workers);
  submit_tracked(job("B"), workers);
  JobSpec pinned = job("P");
  pinned.requirements = [](const Startd& sd) {
    return sd.node().name() == "node1";
  };
  submit_tracked(std::move(pinned), workers);
  submit_tracked(job("C"), workers);
  sim.run();
  EXPECT_EQ(workers, (std::map<std::string, std::string>{{"A", "node1"},
                                                         {"B", "node2"},
                                                         {"C", "node3"},
                                                         {"P", "node1"}}));
}

TEST_F(MatchmakingTest, WarmClaimsAbsorbSameShapeBurstWithoutNegotiation) {
  // Three free claims and three same-shaped jobs: greedy matching pairs
  // them one to one, so no job is left unmatched and no negotiation
  // cycle is armed; each job rides a distinct warm claim.
  warm_one_claim_per_worker();
  const std::uint64_t cycles = pool.negotiation_cycles();
  std::map<std::string, std::string> workers;
  for (const char* name : {"x", "y", "z"}) submit_tracked(job(name), workers);
  sim.run();
  EXPECT_EQ(pool.negotiation_cycles(), cycles);
  EXPECT_EQ(workers, (std::map<std::string, std::string>{{"x", "node1"},
                                                         {"y", "node2"},
                                                         {"z", "node3"}}));
}

TEST_F(MatchmakingTest, ClaimOnPartitionedWorkerIsSkipped) {
  // The lowest free claim sits on node1, which the schedd cannot reach;
  // the job takes the next free claim (node2) at once.
  warm_one_claim_per_worker();
  net::FlowNetwork& net = cl->network();
  net.set_partition(cl->node(0).net_id(), cl->node(1).net_id(), true);
  std::map<std::string, std::string> workers;
  const double submitted = sim.now();
  submit_tracked(job("cut"), workers);
  sim.run_until(submitted + 5.0);
  EXPECT_EQ(workers, (std::map<std::string, std::string>{{"cut", "node2"}}));
  net.set_partition(cl->node(0).net_id(), cl->node(1).net_id(), false);
  // Healed: the node1 claim is the lowest free one again.
  submit_tracked(job("healed"), workers);
  sim.run();
  EXPECT_EQ(workers.at("healed"), "node1");
}

}  // namespace
}  // namespace sf::condor
