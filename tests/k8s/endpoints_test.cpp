// EndpointsController dirty-marking regression: a pod event must rebuild
// only the services whose selector matches the pod — O(changed
// selectors), not O(all services). Probed via the refreshes() counter;
// the old refresh-everything controller rebuilt every service on every
// pod event, which this test distinguishes exactly.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "container/image.hpp"
#include "k8s/kube_cluster.hpp"
#include "sim/simulation.hpp"

namespace sf::k8s {
namespace {

class EndpointsDirtyMarkingTest : public ::testing::Test {
 protected:
  sim::Simulation sim;
  std::unique_ptr<cluster::Cluster> cl = cluster::make_paper_testbed(sim);
  container::Registry hub{cl->node(0)};
  KubeCluster kube{*cl, hub, {&cl->node(1), &cl->node(2), &cl->node(3)}};

  void SetUp() override {
    hub.push(container::make_task_image("matmul"));
  }

  Deployment deployment(const std::string& app, int replicas) {
    Deployment d;
    d.name = app + "-rev1";
    d.selector = {{"app", app}};
    d.pod_labels = {{"app", app}};
    d.pod_template.name = app;
    d.pod_template.image = "matmul:latest";
    d.pod_template.memory_bytes = 512e6;
    d.cpu_request = 0.5;
    d.memory_request = 512e6;
    d.replicas = replicas;
    return d;
  }

  Service service(const std::string& app) {
    Service s;
    s.name = app;
    s.selector = {{"app", app}};
    return s;
  }
};

TEST_F(EndpointsDirtyMarkingTest, UnmatchedPodEventsTriggerNoRebuild) {
  kube.api().create_service(service("alpha"));
  sim.run();
  const auto baseline = kube.endpoints_refreshes();

  // Pods labelled app=beta match no service: the controller must not
  // touch alpha's endpoints for any of their lifecycle events.
  kube.api().apply_deployment(deployment("beta", 3));
  sim.run();
  EXPECT_EQ(kube.endpoints_refreshes(), baseline);
}

TEST_F(EndpointsDirtyMarkingTest, MatchedPodEventsRebuildOnlyTheirService) {
  kube.api().create_service(service("alpha"));
  kube.api().create_service(service("beta"));
  sim.run();
  const auto baseline = kube.endpoints_refreshes();

  kube.api().apply_deployment(deployment("alpha", 2));
  sim.run();
  const auto after_alpha = kube.endpoints_refreshes();
  EXPECT_GT(after_alpha, baseline);

  // beta saw zero matching pod events, so its endpoints stay absent —
  // with refresh-everything they would have been (re)built repeatedly.
  const Endpoints* beta_eps = kube.api().get_endpoints("beta");
  if (beta_eps != nullptr) {
    EXPECT_TRUE(beta_eps->ready.empty());
  }

  // Every alpha pod produces a bounded number of lifecycle events
  // (created/scheduled/running/ready); each rebuild maps to exactly one
  // of them, for exactly one service. The old controller rebuilt BOTH
  // services per event, i.e. an even count per event — growing one
  // deployment while the other's count stays frozen is the fix's
  // observable signature.
  kube.api().apply_deployment(deployment("beta", 2));
  sim.run();
  const auto after_beta = kube.endpoints_refreshes();
  EXPECT_GT(after_beta, after_alpha);

  const Endpoints* alpha_eps = kube.api().get_endpoints("alpha");
  ASSERT_NE(alpha_eps, nullptr);
  EXPECT_EQ(alpha_eps->ready.size(), 2u);
  beta_eps = kube.api().get_endpoints("beta");
  ASSERT_NE(beta_eps, nullptr);
  EXPECT_EQ(beta_eps->ready.size(), 2u);
}

TEST_F(EndpointsDirtyMarkingTest, RebuildCountScalesWithMatchingEventsOnly) {
  kube.api().create_service(service("alpha"));
  sim.run();

  // Bring up alpha alone and count its rebuilds.
  kube.api().apply_deployment(deployment("alpha", 2));
  sim.run();
  const auto alpha_only = kube.endpoints_refreshes();

  // A crowd of unrelated services must not inflate the per-event cost:
  // scaling alpha up by the same amount costs the same number of
  // rebuilds as before, despite 8 more services existing.
  for (int i = 0; i < 8; ++i) {
    kube.api().create_service(service("noise" + std::to_string(i)));
  }
  sim.run();
  const auto with_noise = kube.endpoints_refreshes();

  kube.api().set_deployment_replicas("alpha-rev1", 4);
  sim.run();
  const auto after_scale = kube.endpoints_refreshes();

  // +2 pods cost no more rebuilds than the first +2 pods did; the noise
  // services contribute zero.
  EXPECT_LE(after_scale - with_noise, alpha_only);
}


// ---- Pinned endpoints watch stream ------------------------------------
//
// Records every endpoints watch event (type + full ready list, with each
// endpoint's address) over a churny run and pins the transcript's digest.
// The run covers the paths whose timing an endpoints implementation can
// get wrong: two pods of one service changing inside one API-latency
// window (the controller reads the live store when the first event
// arrives, so the second event must produce nothing), an endpoint's
// address changing while it stays ready, a label change moving a ready
// pod between services, a scale-down, a pod kill, a node crash with
// eviction and recovery, and a service deleted and re-created over ready
// pods.

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

TEST(EndpointsControllerTest, WatchStreamIsPinned) {
  sim::Simulation sim;
  auto cl = cluster::make_uniform_cluster(sim, 9, cluster::NodeSpec{});
  container::Registry hub{cl->node(0)};
  std::vector<cluster::Node*> workers;
  for (std::size_t i = 1; i < cl->size(); ++i) {
    workers.push_back(&cl->node(i));
  }
  KubeCluster kube{*cl, hub, workers};
  hub.push(container::make_task_image("matmul"));
  kube.seed_image_everywhere(container::make_task_image("matmul"));
  kube.enable_node_lifecycle();
  ApiServer& api = kube.api();

  std::uint64_t digest = 0xcbf29ce484222325ull;
  std::uint64_t events = 0;
  api.watch_endpoints([&](EventType type, const Endpoints& eps) {
    std::string line = std::to_string(sim.now()) + " " +
                       std::to_string(static_cast<int>(type)) + " " +
                       eps.service_name + ":";
    for (const Endpoint& ep : eps.ready) {
      line += " " + ep.pod_name + "@" + std::to_string(ep.net_id) + ":" +
              std::to_string(ep.port);
    }
    digest = fnv1a(digest, line + "\n");
    ++events;
  });

  auto deployment = [](const std::string& name, const Labels& labels,
                       int replicas) {
    Deployment d;
    d.name = name;
    d.selector = labels;
    d.pod_labels = labels;
    d.pod_template.name = name;
    d.pod_template.image = "matmul:latest";
    d.pod_template.memory_bytes = 512e6;
    d.cpu_request = 0.5;
    d.memory_request = 512e6;
    d.replicas = replicas;
    return d;
  };
  auto ready_pods_of = [&](const std::string& owner) {
    std::vector<std::string> names;
    api.for_each_pod([&](const Pod& p) {
      if (p.owner == owner && p.ready) names.push_back(p.name);
    });
    return names;
  };

  // web selects app=web; all selects every tier=fn pod (both apps);
  // other selects app=other. A ready web pod is listed by two services.
  api.create_service(Service{0, "web", {{"app", "web"}}});
  api.create_service(Service{0, "all", {{"tier", "fn"}}});
  api.create_service(Service{0, "other", {{"app", "other"}}});
  api.apply_deployment(deployment("web", {{"app", "web"}, {"tier", "fn"}}, 6));
  api.apply_deployment(
      deployment("other", {{"app", "other"}, {"tier", "fn"}}, 2));
  sim.run_until(10.0);
  auto web = ready_pods_of("web");
  ASSERT_EQ(web.size(), 6u);

  // Two web pods go unready 2 ms apart: the first event's rebuild already
  // sees both changes.
  api.mutate_pod(web[0], [](Pod& p) { p.ready = false; });
  sim.call_in(0.002, [&] {
    api.mutate_pod(web[1], [](Pod& p) { p.ready = false; });
  });
  sim.run_until(11.0);
  api.mutate_pod(web[0], [](Pod& p) { p.ready = true; });
  api.mutate_pod(web[1], [](Pod& p) { p.ready = true; });
  sim.run_until(12.0);

  // A ready pod's port moves: same ready set, different endpoint.
  api.mutate_pod(web[2],
                 [](Pod& p) { p.port = static_cast<net::Port>(p.port + 1); });
  sim.run_until(13.0);

  // A ready pod is relabelled from web to other while staying ready.
  api.mutate_pod(web[3], [](Pod& p) { p.labels["app"] = "other"; });
  sim.run_until(14.0);

  // Scale-down: the newest web pods terminate.
  api.set_deployment_replicas("web", 3);
  sim.run_until(20.0);

  // Pod kill: the pod fails and is replaced after the restart backoff.
  web = ready_pods_of("web");
  ASSERT_FALSE(web.empty());
  ASSERT_TRUE(kube.kill_pod(web.front()));
  sim.run_until(30.0);

  // Node crash: the lease expires, pods on the node are evicted and
  // replaced elsewhere; the node comes back later.
  const Pod* victim = api.get_pod(ready_pods_of("web").front());
  ASSERT_NE(victim, nullptr);
  cluster::Node& crashed = cl->node_by_name(victim->node_name);
  crashed.fail();
  sim.run_until(45.0);
  crashed.recover();
  sim.run_until(60.0);
  ASSERT_NE(kube.lifecycle_controller(), nullptr);
  EXPECT_GT(kube.lifecycle_controller()->evictions(), 0u);

  // The service is deleted and re-created over ready pods, then scaled up.
  api.delete_service("web");
  api.create_service(Service{0, "web", {{"app", "web"}}});
  api.set_deployment_replicas("web", 5);
  sim.run_until(80.0);

  const Endpoints* eps = api.get_endpoints("web");
  ASSERT_NE(eps, nullptr);
  EXPECT_EQ(eps->ready.size(), 5u);
  // Recorded with the full-rescan controller.
  EXPECT_EQ(events, 25u);
  EXPECT_EQ(digest, 0xa87fba950f3e14b9ull);
}

}  // namespace
}  // namespace sf::k8s
