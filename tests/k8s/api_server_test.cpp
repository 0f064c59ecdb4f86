#include "k8s/api_server.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "sim/simulation.hpp"

namespace sf::k8s {
namespace {

Pod make_pod(const std::string& name) {
  Pod p;
  p.name = name;
  p.labels = {{"app", "matmul"}};
  p.container.image = "matmul:latest";
  return p;
}

class ApiServerTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  ApiServer api{sim};
};

TEST_F(ApiServerTest, CreatePodAssignsUidAndPending) {
  const Uid uid = api.create_pod(make_pod("p0"));
  EXPECT_GT(uid, 0u);
  const Pod* p = api.get_pod("p0");
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->phase, PodPhase::kPending);
}

TEST_F(ApiServerTest, DuplicatePodNameThrows) {
  api.create_pod(make_pod("p0"));
  EXPECT_THROW(api.create_pod(make_pod("p0")), std::invalid_argument);
}

TEST_F(ApiServerTest, WatchSeesAddedAfterLatency) {
  std::vector<std::pair<EventType, std::string>> events;
  api.watch_pods([&](EventType t, const Pod& p) {
    events.emplace_back(t, p.name);
  });
  api.create_pod(make_pod("p0"));
  EXPECT_TRUE(events.empty());  // delivery is asynchronous
  sim.run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].first, EventType::kAdded);
  EXPECT_GE(sim.now(), api.api_latency());
}

TEST_F(ApiServerTest, MutateNotifiesModified) {
  api.create_pod(make_pod("p0"));
  sim.run();
  int modified = 0;
  api.watch_pods([&](EventType t, const Pod&) {
    if (t == EventType::kModified) ++modified;
  });
  EXPECT_TRUE(api.mutate_pod("p0", [](Pod& p) { p.ready = true; }));
  sim.run();
  EXPECT_EQ(modified, 1);
  EXPECT_TRUE(api.get_pod("p0")->ready);
}

TEST_F(ApiServerTest, MutateUnknownPodFalse) {
  EXPECT_FALSE(api.mutate_pod("ghost", [](Pod&) {}));
}

TEST_F(ApiServerTest, DeleteUnscheduledPodFinalizesDirectly) {
  api.create_pod(make_pod("p0"));
  sim.run();
  std::vector<EventType> events;
  api.watch_pods([&](EventType t, const Pod&) { events.push_back(t); });
  api.delete_pod("p0");
  sim.run();
  EXPECT_EQ(api.get_pod("p0"), nullptr);
  // Modified (Terminating) then Deleted.
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0], EventType::kModified);
  EXPECT_EQ(events[1], EventType::kDeleted);
}

TEST_F(ApiServerTest, DeleteScheduledPodWaitsForKubelet) {
  api.create_pod(make_pod("p0"));
  api.mutate_pod("p0", [](Pod& p) {
    p.node_name = "node1";
    p.phase = PodPhase::kScheduled;
  });
  sim.run();
  api.delete_pod("p0");
  sim.run();
  // Still present until a kubelet finalizes.
  ASSERT_NE(api.get_pod("p0"), nullptr);
  EXPECT_EQ(api.get_pod("p0")->phase, PodPhase::kTerminating);
  api.finalize_pod_deletion("p0");
  sim.run();
  EXPECT_EQ(api.get_pod("p0"), nullptr);
}

TEST_F(ApiServerTest, DoubleDeleteIsIdempotent) {
  api.create_pod(make_pod("p0"));
  api.mutate_pod("p0", [](Pod& p) {
    p.node_name = "n";
    p.phase = PodPhase::kScheduled;
  });
  sim.run();
  api.delete_pod("p0");
  api.delete_pod("p0");
  sim.run();
  EXPECT_EQ(api.get_pod("p0")->phase, PodPhase::kTerminating);
}

TEST_F(ApiServerTest, ListPodsBySelector) {
  api.create_pod(make_pod("p0"));
  Pod other = make_pod("p1");
  other.labels = {{"app", "fft"}};
  api.create_pod(std::move(other));
  EXPECT_EQ(api.list_pods().size(), 2u);
  EXPECT_EQ(api.list_pods({{"app", "matmul"}}).size(), 1u);
  EXPECT_EQ(api.list_pods({{"app", "nope"}}).size(), 0u);
  // Empty selector matches everything.
  EXPECT_EQ(api.list_pods({}).size(), 2u);
}

TEST_F(ApiServerTest, DeploymentApplyCreatesThenUpdates) {
  Deployment d;
  d.name = "matmul-rev1";
  d.replicas = 2;
  const Uid uid = api.apply_deployment(d);
  d.replicas = 5;
  EXPECT_EQ(api.apply_deployment(d), uid);
  EXPECT_EQ(api.get_deployment("matmul-rev1")->replicas, 5);
}

TEST_F(ApiServerTest, SetReplicasNotifiesOnlyOnChange) {
  Deployment d;
  d.name = "dep";
  d.replicas = 1;
  api.apply_deployment(d);
  sim.run();
  int events = 0;
  api.watch_deployments([&](EventType, const Deployment&) { ++events; });
  EXPECT_TRUE(api.set_deployment_replicas("dep", 1));  // no-op
  sim.run();
  EXPECT_EQ(events, 0);
  EXPECT_TRUE(api.set_deployment_replicas("dep", 3));
  sim.run();
  EXPECT_EQ(events, 1);
  EXPECT_FALSE(api.set_deployment_replicas("ghost", 1));
}

TEST_F(ApiServerTest, ServiceAndEndpoints) {
  Service s;
  s.name = "matmul";
  s.selector = {{"app", "matmul"}};
  api.create_service(s);
  ASSERT_NE(api.get_endpoints("matmul"), nullptr);
  EXPECT_TRUE(api.get_endpoints("matmul")->ready.empty());

  int notified = 0;
  api.watch_endpoints([&](EventType, const Endpoints&) { ++notified; });
  Endpoints eps;
  eps.service_name = "matmul";
  eps.ready.push_back(Endpoint{"p0", 1, 10001});
  api.set_endpoints(eps);
  api.set_endpoints(eps);  // identical → suppressed
  sim.run();
  EXPECT_EQ(notified, 1);
  EXPECT_EQ(api.get_endpoints("matmul")->ready.size(), 1u);
}

// The incremental indexes (ready endpoints per service, registered node
// slots in name order) agree with full rescans after every kind of
// mutation, including a ready pod finalized without a delete first and
// pod/service slots being reused.
TEST_F(ApiServerTest, SelfCheckAgreesWithRescansThroughChurn) {
  std::vector<std::string> problems;
  auto check = [&](const char* step) {
    for (const std::string& m : api.self_check()) {
      problems.push_back(std::string(step) + ": " + m);
    }
  };
  for (const char* n : {"node2", "node10", "node1", "node3"}) {
    NodeObject node;
    node.name = n;
    node.allocatable_cpu = 8;
    node.allocatable_memory = 32e9;
    api.register_node(node);
  }
  api.register_node(NodeObject{"node10", 16, 64e9, 0, true});  // re-register
  check("nodes");

  api.create_service(Service{0, "matmul", {{"app", "matmul"}}});
  auto serve = [&](const std::string& name, net::Port port) {
    api.mutate_pod(name, [port](Pod& p) {
      p.node_name = "node1";
      p.phase = PodPhase::kRunning;
      p.ready = true;
      p.port = port;
    });
  };
  for (const char* n : {"p3", "p1", "p2", "p0"}) {
    api.create_pod(make_pod(n));
    check("create");
  }
  serve("p2", 2);
  serve("p0", 0);
  serve("p3", 3);
  check("serve");
  // A second service over the same pods, created after they are ready.
  api.create_service(Service{0, "all", {}});
  check("late service");
  api.mutate_pod("p3", [](Pod& p) { p.port = 30; });
  api.mutate_pod("p0", [](Pod& p) { p.labels["app"] = "other"; });
  check("address and labels");
  api.mutate_pod("p2", [](Pod& p) { p.ready = false; });
  check("unready");
  api.delete_pod("p3");
  check("delete");
  api.finalize_pod_deletion("p0");  // ready, never deleted first
  check("finalize ready");
  api.create_pod(make_pod("p4"));  // may reuse p0's slot
  serve("p4", 4);
  check("slot reuse");
  api.delete_service("matmul");
  api.create_service(Service{0, "matmul", {{"app", "matmul"}}});
  check("re-created service");
  api.finalize_pod_deletion("p3");
  api.finalize_pod_deletion("p4");
  check("finalize");

  EXPECT_TRUE(problems.empty()) << problems.front();
  ASSERT_NE(api.get_service("matmul"), nullptr);
  EXPECT_EQ(api.list_pods({{"app", "matmul"}}).size(), 2u);
}

TEST(SelectorMatch, Semantics) {
  EXPECT_TRUE(selector_matches({}, {{"a", "1"}}));
  EXPECT_TRUE(selector_matches({{"a", "1"}}, {{"a", "1"}, {"b", "2"}}));
  EXPECT_FALSE(selector_matches({{"a", "1"}}, {{"a", "2"}}));
  EXPECT_FALSE(selector_matches({{"a", "1"}}, {}));
}

// ---- Batched watch delivery ---------------------------------------------

TEST(WatchDeterminism, PerWatcherStreamsIndependentOfRegistrationOrder) {
  // The same CRUD script against two servers whose (tagged) watchers are
  // registered in different orders: each tag must observe the identical
  // event stream, and the engine must process the same number of events.
  auto script = [](const std::vector<std::string>& reg_order,
                   std::map<std::string, std::vector<std::string>>& logs) {
    sim::Simulation sim;
    ApiServer api{sim};
    for (const auto& tag : reg_order) {
      api.watch_pods([&logs, tag](EventType t, const Pod& p) {
        logs[tag].push_back(std::to_string(static_cast<int>(t)) + ":" +
                            p.name);
      });
    }
    api.create_pod(make_pod("a"));
    api.create_pod(make_pod("b"));
    api.mutate_pod("a", [](Pod& p) { p.ready = true; });
    sim.run();
    api.delete_pod("b");
    sim.run();
    return sim.events_processed();
  };
  std::map<std::string, std::vector<std::string>> first, second;
  const std::uint64_t e1 = script({"x", "y", "z"}, first);
  const std::uint64_t e2 = script({"z", "x", "y"}, second);
  EXPECT_EQ(first, second);
  EXPECT_EQ(e1, e2);
  EXPECT_FALSE(first.at("x").empty());
}

TEST(WatchDeterminism, OneEngineEventPerNotification) {
  // Fan-out is batched: the engine event count must not grow with the
  // number of registered watchers.
  auto events_for = [](int n_watchers) {
    sim::Simulation sim;
    ApiServer api{sim};
    int sink = 0;
    for (int w = 0; w < n_watchers; ++w) {
      api.watch_pods([&sink](EventType, const Pod&) { ++sink; });
    }
    api.create_pod(make_pod("p"));
    api.mutate_pod("p", [](Pod& p) { p.ready = true; });
    sim.run();
    EXPECT_EQ(sink, 2 * n_watchers);
    return sim.events_processed();
  };
  EXPECT_EQ(events_for(1), events_for(8));
}

TEST(WatchDeterminism, DeliveryFollowsRegistrationOrder) {
  sim::Simulation sim;
  ApiServer api{sim};
  std::vector<int> order;
  for (int w = 0; w < 4; ++w) {
    api.watch_pods([&order, w](EventType, const Pod&) { order.push_back(w); });
  }
  api.create_pod(make_pod("p"));
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(WatchDeterminism, WatcherRegisteredDuringDeliveryIsSafe) {
  // A watcher that registers another watcher from inside a delivery must
  // not invalidate the in-flight batch (the watch list is a deque).
  sim::Simulation sim;
  ApiServer api{sim};
  int late_events = 0;
  bool registered = false;
  api.watch_pods([&](EventType, const Pod&) {
    if (!registered) {
      registered = true;
      api.watch_pods([&late_events](EventType, const Pod&) { ++late_events; });
    }
  });
  api.create_pod(make_pod("p"));
  sim.run();
  EXPECT_EQ(late_events, 0);  // batch snapshot predates the registration
  api.mutate_pod("p", [](Pod& p) { p.ready = true; });
  sim.run();
  EXPECT_EQ(late_events, 1);
}

TEST(PodPhaseNames, AllDistinct) {
  EXPECT_STREQ(to_string(PodPhase::kPending), "Pending");
  EXPECT_STREQ(to_string(PodPhase::kScheduled), "Scheduled");
  EXPECT_STREQ(to_string(PodPhase::kRunning), "Running");
  EXPECT_STREQ(to_string(PodPhase::kTerminating), "Terminating");
  EXPECT_STREQ(to_string(PodPhase::kFailed), "Failed");
}

}  // namespace
}  // namespace sf::k8s
