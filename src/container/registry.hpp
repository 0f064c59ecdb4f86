#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "cluster/node.hpp"
#include "container/image.hpp"

namespace sf::container {

/// DockerHub-like image registry hosted on one node. Stores image
/// manifests; pullers fetch missing layer bytes over the network from
/// here. (In the paper, task images "are accessible via DockerHub".)
class Registry {
 public:
  explicit Registry(cluster::Node& node) : node_(node) {}

  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  [[nodiscard]] cluster::Node& node() { return node_; }
  [[nodiscard]] net::NodeId net_id() const { return node_.net_id(); }

  /// Publishes (or replaces) an image.
  void push(Image image) {
    images_[image.name] = std::move(image);
    ++generation_;
  }

  /// Manifest lookup by "repo:tag"; nullptr when absent. The pointer stays
  /// valid for the registry's lifetime, but a push of the same name
  /// replaces what it points to: callers that keep the manifest across
  /// sim time keep a copy.
  [[nodiscard]] const Image* manifest(const std::string& name) const {
    auto it = images_.find(name);
    return it == images_.end() ? nullptr : &it->second;
  }

  /// Counts pushes. Anything derived from manifests (per-node image
  /// locality) is stale once this moves.
  [[nodiscard]] std::uint64_t generation() const { return generation_; }

  [[nodiscard]] bool has(const std::string& name) const {
    return images_.contains(name);
  }
  [[nodiscard]] std::size_t image_count() const { return images_.size(); }

  // ---- Fault injection ----------------------------------------------

  /// Makes the registry refuse new pulls until sim time `t` (outages
  /// extend, never shrink). Pullers retry with exponential backoff.
  void set_outage_until(double t) {
    if (t > outage_until_) outage_until_ = t;
  }

  /// Whether a pull starting at `now` would be served.
  [[nodiscard]] bool available(double now) const {
    return now >= outage_until_;
  }

  [[nodiscard]] double outage_until() const { return outage_until_; }

 private:
  cluster::Node& node_;
  std::map<std::string, Image> images_;
  std::uint64_t generation_ = 0;
  double outage_until_ = 0;
};

}  // namespace sf::container
