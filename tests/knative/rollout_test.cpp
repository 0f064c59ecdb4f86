#include <gtest/gtest.h>

#include "container/image.hpp"
#include "knative/serving.hpp"
#include "sim/simulation.hpp"

namespace sf::knative {
namespace {

/// Blue/green revision rollouts: a new spec brings up revision N+1, warms
/// it, atomically switches traffic, and drains revision N.
class RolloutTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cl = cluster::make_paper_testbed(sim);
  container::Registry hub{cl->node(0)};
  k8s::KubeCluster kube{*cl, hub, {&cl->node(1), &cl->node(2), &cl->node(3)}};
  KnativeServing serving{kube, cl->node(0)};

  void SetUp() override {
    hub.push(container::make_task_image("matmul"));
    hub.push(container::make_task_image("matmul-v2"));
    serving.create_service(spec("v1-response", "matmul:latest"));
    sim.run_until(30.0);
    ASSERT_EQ(serving.ready_replicas("fn"), 1);
  }

  KnServiceSpec spec(const std::string& marker, const std::string& image) {
    KnServiceSpec s;
    s.name = "fn";
    s.container.name = "fn";
    s.container.image = image;
    s.container.cpu_limit = 1.0;
    s.container.boot_s = 0.5;
    s.handler = [marker](const net::HttpRequest&, FunctionContext& ctx,
                         net::Responder respond) {
      ctx.exec(0.1, [marker, respond = std::move(respond)](bool ok) mutable {
        net::HttpResponse resp;
        resp.status = ok ? 200 : 500;
        resp.body = marker;
        respond(std::move(resp));
      });
    };
    s.annotations.min_scale = 1;
    return s;
  }

  std::string invoke_and_wait() {
    std::string marker;
    bool done = false;
    serving.invoke(cl->node(0).net_id(), "fn", {},
                   [&](net::HttpResponse resp) {
                     EXPECT_TRUE(resp.ok());
                     if (resp.body.has_value()) {
                       marker = std::any_cast<std::string>(resp.body);
                     }
                     done = true;
                   });
    while (!done && sim.has_pending_events()) sim.step();
    return marker;
  }
};

TEST_F(RolloutTest, InitialRevisionServes) {
  EXPECT_EQ(serving.active_revision("fn"), "fn-00001");
  EXPECT_EQ(invoke_and_wait(), "v1-response");
}

TEST_F(RolloutTest, UpdateSwitchesTrafficToNewRevision) {
  serving.update_service(spec("v2-response", "matmul-v2:latest"));
  // Until the new revision is ready, v1 keeps serving.
  EXPECT_EQ(invoke_and_wait(), "v1-response");
  sim.run_until(sim.now() + 60.0);
  EXPECT_EQ(serving.active_revision("fn"), "fn-00002");
  EXPECT_EQ(invoke_and_wait(), "v2-response");
  EXPECT_EQ(serving.ready_replicas("fn"), 1);
}

TEST_F(RolloutTest, OldRevisionPodsAreTornDown) {
  serving.update_service(spec("v2-response", "matmul-v2:latest"));
  sim.run_until(sim.now() + 60.0);
  // Only the new revision's pod remains in the cluster.
  const auto pods = kube.api().list_pods();
  ASSERT_EQ(pods.size(), 1u);
  EXPECT_EQ(pods[0]->labels.at("serving.knative.dev/revision"), "fn-00002");
}

TEST_F(RolloutTest, NoRequestsDroppedAcrossRollout) {
  int ok = 0;
  int total = 0;
  // A steady trickle of requests while the rollout happens mid-stream.
  for (int i = 0; i < 20; ++i) {
    ++total;
    serving.invoke(cl->node(0).net_id(), "fn", {},
                   [&](net::HttpResponse resp) { ok += resp.ok() ? 1 : 0; });
    if (i == 5) {
      serving.update_service(spec("v2-response", "matmul-v2:latest"));
    }
    sim.run_until(sim.now() + 2.0);
  }
  sim.run_until(sim.now() + 60.0);
  EXPECT_EQ(ok, total);
  EXPECT_EQ(serving.active_revision("fn"), "fn-00002");
}

TEST_F(RolloutTest, ConcurrentRolloutRejected) {
  serving.update_service(spec("v2", "matmul-v2:latest"));
  EXPECT_THROW(serving.update_service(spec("v3", "matmul:latest")),
               std::logic_error);
}

TEST_F(RolloutTest, UpdateUnknownServiceThrows) {
  auto s = spec("x", "matmul:latest");
  s.name = "ghost";
  EXPECT_THROW(serving.update_service(std::move(s)),
               std::invalid_argument);
}

TEST_F(RolloutTest, DeleteDuringRolloutCleansBothRevisions) {
  serving.update_service(spec("v2", "matmul-v2:latest"));
  serving.delete_service("fn");
  sim.run_until(sim.now() + 60.0);
  EXPECT_FALSE(serving.has_service("fn"));
  EXPECT_TRUE(kube.api().list_pods().empty());
}

TEST_F(RolloutTest, GenerationCountsUp) {
  serving.update_service(spec("v2", "matmul-v2:latest"));
  sim.run_until(sim.now() + 60.0);
  serving.update_service(spec("v3", "matmul:latest"));
  sim.run_until(sim.now() + 60.0);
  EXPECT_EQ(serving.active_revision("fn"), "fn-00003");
  EXPECT_EQ(invoke_and_wait(), "v3");
}

TEST(RevisionName, PadsToFiveDigitsAndKeepsWiderGenerations) {
  EXPECT_EQ(KnativeServing::revision_name("fn", 1), "fn-00001");
  EXPECT_EQ(KnativeServing::revision_name("fn", 99999), "fn-99999");
  EXPECT_EQ(KnativeServing::revision_name("fn", 1000000), "fn-1000000");
}

}  // namespace
}  // namespace sf::knative
