// Focused scheduler behaviours: image-locality scoring, least-requested
// spreading, and resource-exhaustion handling.

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <vector>

#include "container/image.hpp"
#include "k8s/kube_cluster.hpp"
#include "sim/simulation.hpp"

namespace sf::k8s {
namespace {

class SchedulerTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cl = cluster::make_paper_testbed(sim);
  container::Registry hub{cl->node(0)};
  KubeCluster kube{*cl, hub, {&cl->node(1), &cl->node(2), &cl->node(3)}};

  void SetUp() override { hub.push(container::make_task_image("matmul")); }

  Pod pod(const std::string& name, double cpu_request = 0.5) {
    Pod p;
    p.name = name;
    p.container.name = name;
    p.container.image = "matmul:latest";
    p.container.memory_bytes = 256e6;
    p.cpu_request = cpu_request;
    p.memory_request = 256e6;
    return p;
  }
};

TEST_F(SchedulerTest, ImageLocalityWinsOverEmptySpread) {
  // Only node2 has the image cached; with equal resource scores the
  // locality bonus must steer the pod there.
  kube.worker("node2").cache->seed_image(
      container::make_task_image("matmul"));
  kube.api().create_pod(pod("p0"));
  sim.run_until(30.0);
  const Pod* scheduled = kube.api().get_pod("p0");
  ASSERT_NE(scheduled, nullptr);
  EXPECT_EQ(scheduled->node_name, "node2");
  EXPECT_EQ(scheduled->phase, PodPhase::kRunning);
}

TEST_F(SchedulerTest, LeastRequestedSpreadsSequentialPods) {
  kube.seed_image_everywhere(container::make_task_image("matmul"));
  for (int i = 0; i < 3; ++i) {
    const std::string idx = std::to_string(i);
    kube.api().create_pod(pod("p" + idx));
    sim.run_until(sim.now() + 5.0);
  }
  std::set<std::string> nodes;
  for (const auto* p : kube.api().list_pods()) nodes.insert(p->node_name);
  EXPECT_EQ(nodes.size(), 3u);
}

TEST_F(SchedulerTest, CpuExhaustionLeavesPodPending) {
  kube.seed_image_everywhere(container::make_task_image("matmul"));
  // 8-core workers: 3 pods of 8 cpu fill the cluster; a 4th waits.
  for (int i = 0; i < 4; ++i) {
    kube.api().create_pod(pod("big" + std::to_string(i), 8.0));
  }
  sim.run_until(30.0);
  int pending = 0;
  for (const auto* p : kube.api().list_pods()) {
    pending += p->phase == PodPhase::kPending ? 1 : 0;
  }
  EXPECT_EQ(pending, 1);
  EXPECT_EQ(kube.scheduler().pending_count(), 1u);
  // Freeing capacity lets it land.
  kube.api().delete_pod("big0");
  sim.run_until(60.0);
  EXPECT_EQ(kube.scheduler().pending_count(), 0u);
}

TEST_F(SchedulerTest, BindCountTracksScheduledPods) {
  kube.seed_image_everywhere(container::make_task_image("matmul"));
  kube.api().create_pod(pod("p0"));
  kube.api().create_pod(pod("p1"));
  sim.run_until(30.0);
  EXPECT_EQ(kube.scheduler().binds(), 2u);
}


// ---- Pinned bind sequence ---------------------------------------------
//
// Records the (pod, node) bind sequence over 79 workers and pins its
// digest. The run exercises every input of the score: exact ties between
// empty nodes (first-best in name order: node1, node10, node11, ...),
// NotReady nodes, resource misfits, image locality on a subset of nodes
// that grows as pulls land, a registry push that replaces the image's
// layers mid-run, and an image-cache clear.

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

struct BindTranscript {
  std::size_t binds = 0;
  std::uint64_t digest = 0;
  std::size_t pending = 0;
};

BindTranscript run_churny_binds() {
  sim::Simulation sim;
  auto cl = cluster::make_uniform_cluster(sim, 80, cluster::NodeSpec{});
  container::Registry hub{cl->node(0)};
  std::vector<cluster::Node*> workers;
  for (std::size_t i = 1; i < cl->size(); ++i) {
    workers.push_back(&cl->node(i));
  }
  KubeCluster kube{*cl, hub, workers};
  ApiServer& api = kube.api();
  hub.push(container::make_task_image("fn"));
  hub.push(container::make_task_image("aux"));

  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::vector<std::string> binds;
  std::set<std::string> bound;
  api.watch_pods([&](EventType, const Pod& p) {
    if (p.node_name.empty() || !bound.insert(p.name).second) return;
    binds.push_back(p.name + "->" + p.node_name);
    digest = fnv1a(digest, binds.back() + "\n");
  });

  int next = 0;
  auto wave = [&](int n, const std::string& image, double cpu) {
    for (int i = 0; i < n; ++i) {
      const std::string idx = std::to_string(next++);
      Pod p;
      p.name = "p" + idx;
      p.container.name = p.name;
      p.container.image = image;
      p.container.memory_bytes = 256e6;
      p.cpu_request = cpu;
      p.memory_request = 256e6;
      api.create_pod(std::move(p));
    }
  };

  // Locality on three nodes; three other nodes NotReady.
  for (const char* n : {"node5", "node17", "node42"}) {
    kube.worker(n).cache->seed_image(container::make_task_image("fn"));
  }
  for (const char* n : {"node3", "node10", "node50"}) {
    api.set_node_ready(n, false);
  }
  wave(24, "fn:latest", 1.0);
  sim.run_until(20.0);
  wave(16, "aux:latest", 2.5);
  wave(16, "fn:latest", 0.5);
  sim.run_until(40.0);

  // The registry replaces fn's code layer: every node that held the old
  // image loses locality until it holds the new layer too.
  container::Image fn2 = container::make_task_image("fn");
  fn2.layers.back().digest = "sha256:code-fn-v2";
  hub.push(fn2);
  wave(4, "fn:latest", 1.5);  // no node is local now
  sim.run_until(45.0);
  for (const char* n : {"node60", "node61", "node7"}) {
    kube.worker(n).cache->seed_image(fn2);
  }
  wave(12, "fn:latest", 1.5);
  sim.run_until(60.0);

  // An image-cache clear drops a local node; a NotReady node returns.
  kube.worker("node60").cache->clear();
  api.set_node_ready("node3", true);
  wave(12, "fn:latest", 1.0);
  // Pods too big for most nodes, then capacity freed by deletions.
  wave(8, "aux:latest", 7.0);
  sim.run_until(80.0);
  for (int i = 0; i < 12; ++i) {
    const std::string idx = std::to_string(i);
    api.delete_pod("p" + idx);
  }
  api.set_node_ready("node10", true);
  wave(8, "fn:latest", 6.0);
  wave(1, "fn:latest", 9.0);  // fits nowhere: stays pending
  sim.run_until(120.0);
  return {binds.size(), digest, kube.scheduler().pending_count()};
}

TEST_F(SchedulerTest, BindSequenceIsPinned) {
  // Runs on its own 80-node cluster; the fixture's testbed stays idle.
  const BindTranscript t = run_churny_binds();
  // Recorded with the per-node rescan scheduler.
  EXPECT_EQ(t.binds, 100u);
  EXPECT_EQ(t.digest, 0x23d501afbe043f2full);
  EXPECT_EQ(t.pending, 1u);
}

}  // namespace
}  // namespace sf::k8s
