#pragma once
// The MegaTE controller: turns a TE solution into per-instance path
// entries in the TE database (§3.2, Fig. 4b). There are no persistent
// connections to endpoints — publishing is one batched database write
// plus a version bump; endpoints pull asynchronously.
//
// Publishing is differential: the controller remembers the encoded table
// it last wrote per instance and publishes only the entries that changed
// (upserts) or disappeared (erases). The store's structural sharing then
// keeps the unchanged majority alive, so the write costs O(churn). The
// controller's own side is one pass over the assigned flows: one flat
// sort of (instance, destination, demand, flow) picks, each table encoded
// into a reused buffer and compared in place with the live copy — no
// per-publish maps or per-instance strings beyond the delta itself.

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "megate/ctrl/kvstore.h"
#include "megate/ctrl/transport.h"
#include "megate/te/types.h"

namespace megate::ctrl {

/// Key under which an instance's route table is stored.
std::string path_key(std::uint64_t instance_id);

/// Serialization of a hop list ("3,17,42"); empty vector <-> empty string.
std::string encode_hops(const std::vector<std::uint32_t>& hops);
std::vector<std::uint32_t> decode_hops(const std::string& text);

/// One TE route of an instance: the SR hop list towards one destination
/// site (dataplane::kAnyDstSite = wildcard).
struct RouteEntry {
  std::uint32_t dst_site = 0;
  std::vector<std::uint32_t> hops;

  bool operator==(const RouteEntry&) const = default;
};

/// Route-table serialization: "dst:h1,h2|dst:h3" ('*' for the wildcard).
std::string encode_routes(const std::vector<RouteEntry>& routes);
std::vector<RouteEntry> decode_routes(const std::string& text);

class Controller {
 public:
  /// Publishes through any transport — an InProcessTransport over a
  /// KvStore or a TCP shard client replicating deltas to megate_shardd
  /// processes. `db` must outlive the controller.
  explicit Controller(KvTransport* db) : db_(db) {}

  /// Publishes the per-source-instance route tables of `sol` as a delta
  /// against the previous publish: changed tables become upserts,
  /// instances that lost every assigned flow become erases (their agents
  /// fall back to hashing). Returns the new config version.
  Version publish_solution(const te::TeProblem& problem,
                           const te::TeSolution& sol);

  /// Entries written (upserted) across all publishes.
  std::uint64_t entries_published() const noexcept { return published_; }
  /// Upserts / erases / payload bytes of the most recent publish — what
  /// the delta actually wrote.
  std::uint64_t last_publish_upserts() const noexcept {
    return last_upserts_;
  }
  std::uint64_t last_publish_erases() const noexcept {
    return last_erases_;
  }
  std::uint64_t last_publish_bytes() const noexcept { return last_bytes_; }
  /// Payload bytes a non-differential full publish of the current table
  /// would have written (the delta-vs-full comparison baseline).
  std::uint64_t full_table_bytes() const noexcept;

 private:
  KvTransport* db_;
  std::uint64_t published_ = 0;
  std::uint64_t last_upserts_ = 0;
  std::uint64_t last_erases_ = 0;
  std::uint64_t last_bytes_ = 0;
  /// Encoded table last written per instance, stamped with the
  /// publish_solution that last carried it; the delta baseline. The
  /// controller assumes exclusive ownership of the path/<id> keyspace.
  struct Live {
    std::string encoded;
    std::uint64_t stamp = 0;
  };
  std::unordered_map<std::uint64_t, Live> live_;
  std::uint64_t stamp_ = 0;  ///< publish_solution calls so far
};

}  // namespace megate::ctrl
