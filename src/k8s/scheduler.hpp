#pragma once

#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "k8s/api_server.hpp"

namespace sf::k8s {

/// Default kube-scheduler: filters nodes on resource fit, scores by
/// least-requested CPU plus an image-locality bonus, binds the winner.
/// Unschedulable pods are retried after a backoff and whenever capacity
/// frees up.
///
/// A scheduling attempt walks the API server's registered node slots in
/// name order and reads each node's object and usage aggregate by slot.
/// Image locality is resolved once per attempt into a byte per node slot,
/// so a candidate node costs no name hash, map find or call.
class Scheduler {
 public:
  /// `image_locality(image)` returns, indexed by API-server node slot, 1
  /// where that node caches every layer of `image` and 0 elsewhere (slots
  /// past the end count as 0). Called once per scheduling attempt; the
  /// result is read before anything else runs. May be empty (no locality
  /// scoring).
  using ImageLocalityFn = std::function<const std::vector<std::uint8_t>*(
      const std::string& image)>;

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
