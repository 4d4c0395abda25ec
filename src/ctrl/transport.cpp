#include "megate/ctrl/transport.h"

#include <stdexcept>
#include <utility>

namespace megate::ctrl {

InProcessTransport::InProcessTransport(KvStore* store) : store_(store) {
  if (store_ == nullptr) {
    throw std::invalid_argument("InProcessTransport needs a store");
  }
}

Version KvTransport::publish(
    const std::vector<std::pair<std::string, std::string>>& batch) {
  KvDelta delta;
  delta.upserts = batch;
  return publish_delta(delta);
}

void KvTransport::put(const std::string& key, std::string value) {
  KvDelta delta;
  delta.upserts.emplace_back(key, std::move(value));
  publish_delta(delta);
}

Version InProcessTransport::version() { return store_->version(); }

GetResult InProcessTransport::get(const std::string& key) {
  return store_->try_get(key);
}

MultiGetResult InProcessTransport::multi_get(
    const std::vector<std::string>& keys) {
  return store_->multi_get(keys);
}

Version InProcessTransport::publish_delta(const KvDelta& delta) {
  return store_->publish_delta(delta);
}

std::size_t InProcessTransport::num_shards() const {
  return store_->num_shards();
}

std::size_t InProcessTransport::shard_index(const std::string& key) const {
  return store_->shard_index(key);
}

void InProcessTransport::set_shard_up(std::size_t shard, bool up) {
  store_->set_shard_up(shard, up);
}

bool InProcessTransport::shard_up(std::size_t shard) const {
  return store_->shard_up(shard);
}

}  // namespace megate::ctrl
