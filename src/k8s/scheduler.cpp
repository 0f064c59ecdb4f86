#include "k8s/scheduler.hpp"

#include <limits>
#include <utility>

namespace sf::k8s {

Scheduler::Scheduler(ApiServer& api, ImageLocalityFn image_locality)
    : api_(api), image_locality_(std::move(image_locality)) {
  api_.watch_pods([this](EventType type, const Pod& pod) {
    switch (type) {
      case EventType::kAdded:
        try_schedule(pod.name);
        break;
      case EventType::kModified:
        break;
      case EventType::kDeleted:
        // Capacity may have freed; retry anything stuck.
        unschedulable_.erase(pod.name);
        retry_pending();
        break;
    }
  });
  api_.watch_nodes([this](EventType type, const NodeObject& node) {
    // A node turning Ready is fresh capacity for anything stuck.
    if (type == EventType::kModified && node.ready) retry_pending();
  });
}

void Scheduler::try_schedule(const std::string& pod_name) {
  const Pod* pod = api_.get_pod(pod_name);
  if (pod == nullptr || pod->phase != PodPhase::kPending ||
      !pod->node_name.empty()) {
    return;
  }

  // Each node's requested CPU/memory comes from the ApiServer's per-node
  // aggregates, maintained O(changed) with the pod store (the old code
  // rebuilt them from a full pod-store scan on every bind). The request
  // values in play are exactly representable, so the incrementally kept
  // sums equal the rescan's sums bit for bit and scores are unchanged.
  const std::vector<std::uint8_t>* local =
      image_locality_ ? image_locality_(pod->container.image) : nullptr;
  const std::size_t n_local = local != nullptr ? local->size() : 0;
  std::uint32_t best = ApiServer::kNoSlot;
  double best_score = -std::numeric_limits<double>::infinity();
  for (const std::uint32_t slot : api_.node_slots_by_name()) {
    const NodeObject& node = api_.node_at(slot);
    if (!node.ready) continue;  // filter: NotReady (crashed / lease expired)
    const ApiServer::NodeUsage& used = api_.node_usage_at(slot);
    const double used_cpu = used.cpu;
    const double used_mem = used.memory;
    if (used_cpu + pod->cpu_request > node.allocatable_cpu ||
        used_mem + pod->memory_request > node.allocatable_memory) {
      continue;  // filter: does not fit
    }
    // Score: least-requested CPU fraction, plus image-locality bonus.
    double score =
        1.0 - (used_cpu + pod->cpu_request) / node.allocatable_cpu;
    if (slot < n_local && (*local)[slot] != 0) score += kLocalityWeight;
    if (score > best_score) {  // strict: the first best in name order wins
      best_score = score;
      best = slot;
    }
  }

  if (best == ApiServer::kNoSlot) {
    // Unschedulable: remember it and retry after backoff.
    if (unschedulable_.insert(pod_name).second && !retry_scheduled_) {
      retry_scheduled_ = true;
      api_.sim().call_in(1.0, [this] {
        retry_scheduled_ = false;
        retry_pending();
      });
    }
    return;
  }

  const std::string& best_node = api_.node_name(best);
  unschedulable_.erase(pod_name);
  ++binds_;
  api_.sim().trace().record(api_.sim().now(), "k8s", "bind",
                            {{"pod", pod_name}, {"node", best_node}});
  api_.mutate_pod(pod_name, [&best_node](Pod& p) {
    p.node_name = best_node;
    p.phase = PodPhase::kScheduled;
  });
}

void Scheduler::retry_pending() {
  // Copy: try_schedule mutates the set.
  const std::set<std::string> pending = unschedulable_;
  for (const auto& name : pending) try_schedule(name);
  if (!unschedulable_.empty() && !retry_scheduled_) {
    retry_scheduled_ = true;
    api_.sim().call_in(1.0, [this] {
      retry_scheduled_ = false;
      retry_pending();
    });
  }
}

}  // namespace sf::k8s
