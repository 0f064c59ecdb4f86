#pragma once

#include <functional>
#include <set>
#include <string>

#include "k8s/api_server.hpp"

namespace sf::k8s {

/// Default kube-scheduler: filters nodes on resource fit, scores by
/// least-requested CPU plus an image-locality bonus, binds the winner.
/// Unschedulable pods are retried after a backoff and whenever capacity
/// frees up.
class Scheduler {
 public:
  /// `image_locality(node_name, image)` reports whether a node already
  /// caches an image; may be empty (no locality scoring).
  using ImageLocalityFn =
      std::function<bool(const std::string& node, const std::string& image)>;

  explicit Scheduler(ApiServer& api, ImageLocalityFn image_locality = {});

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] std::size_t pending_count() const {
    return unschedulable_.size();
  }
  [[nodiscard]] std::uint64_t binds() const { return binds_; }

 private:
  /// Weight of the image-locality term relative to least-requested.
  static constexpr double kLocalityWeight = 0.3;

  void try_schedule(const std::string& pod_name);
  void retry_pending();

  ApiServer& api_;
  ImageLocalityFn image_locality_;
  std::set<std::string> unschedulable_;
  bool retry_scheduled_ = false;
  std::uint64_t binds_ = 0;
};

}  // namespace sf::k8s
