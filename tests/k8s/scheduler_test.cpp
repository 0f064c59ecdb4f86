// Focused scheduler behaviours: image-locality scoring, least-requested
// spreading, and resource-exhaustion handling.

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace sf::k8s
