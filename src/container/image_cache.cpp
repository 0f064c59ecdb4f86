#include "container/image_cache.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

namespace sf::container {

bool ImageCache::has_image(const std::string& image_name,
                           const Registry& registry) const {
  const Image* manifest = registry.manifest(image_name);
  if (manifest == nullptr) return false;
  for (const auto& layer : manifest->layers) {
    if (!layers_.contains(layer.digest)) return false;
  }
  return true;
}

double ImageCache::cached_bytes() const {
  double total = 0;
  for (const auto& [digest, bytes] : layers_) total += bytes;
  return total;
}

void ImageCache::seed_image(const Image& image) {
  for (const auto& layer : image.layers) {
    layers_[layer.digest] = layer.bytes;
  }
  if (on_layers_changed_) on_layers_changed_();
}

void ImageCache::clear() {
  layers_.clear();
  if (on_layers_changed_) on_layers_changed_();
}

void ImageCache::ensure_image(const std::string& image_name,
                              Registry& registry, PullCallback on_done) {
  const Image* manifest = registry.manifest(image_name);
  if (manifest == nullptr) {
    on_done(false);
    return;
  }
  double missing_bytes = 0;
  for (const auto& layer : manifest->layers) {
    if (!layers_.contains(layer.digest)) missing_bytes += layer.bytes;
  }
  if (missing_bytes <= 0) {
    on_done(true);
    return;
  }
  // Coalesce with an in-flight pull of the same image.
  auto [it, inserted] = in_flight_.try_emplace(image_name);
  it->second.push_back(std::move(on_done));
  if (!inserted) {
    ++pulls_coalesced_;
    return;
  }
  ++pulls_started_;
  start_download(image_name, *manifest, missing_bytes, registry, 0);
}

void ImageCache::start_download(const std::string& image_name,
                                const Image& manifest, double missing_bytes,
                                Registry& registry, int attempt) {
  auto& sim = node_.sim();
  if (!registry.available(sim.now())) {
    // Registry outage: capped exponential backoff, then give up — the
    // caller (kubelet / cold-start path) owns what happens next.
    if (pull_retry_.exhausted(attempt)) {
      ++pulls_failed_;
      sim.trace().record(sim.now(), "image_cache", "pull_exhausted",
                         {{"node", node_.name()}, {"image", image_name}});
      finish_pull(image_name, false);
      return;
    }
    ++pull_retries_;
    const double delay = pull_retry_.backoff_s(attempt);
    sim.call_in(delay, [this, image_name, manifest, missing_bytes, &registry,
                        attempt] {
      if (!in_flight_.contains(image_name)) return;  // crashed meanwhile
      start_download(image_name, manifest, missing_bytes, registry,
                     attempt + 1);
    });
    return;
  }
  // Download the missing bytes from the registry, then extract to disk.
  network_.transfer(
      registry.net_id(), node_.net_id(), missing_bytes,
      [this, image_name, manifest, missing_bytes] {
        node_.disk_io(missing_bytes, [this, image_name, manifest] {
          for (const auto& layer : manifest.layers) {
            layers_[layer.digest] = layer.bytes;
          }
          if (on_layers_changed_) on_layers_changed_();
          finish_pull(image_name, true);
        });
      });
}

void ImageCache::handle_node_crash() {
  while (!in_flight_.empty()) {
    finish_pull(in_flight_.begin()->first, false);
  }
}

void ImageCache::finish_pull(const std::string& image_name, bool ok) {
  auto it = in_flight_.find(image_name);
  if (it == in_flight_.end()) return;
  auto callbacks = std::move(it->second);
  in_flight_.erase(it);
  for (auto& cb : callbacks) cb(ok);
}

}  // namespace sf::container
