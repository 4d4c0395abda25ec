#pragma once
// Link-failure injection for the robustness experiments (Fig. 12).

#include <cstdint>
#include <vector>

#include "megate/topo/graph.h"

namespace megate::topo {

/// A failed duplex link (both directed halves taken down together).
struct FailureEvent {
  EdgeId forward = kInvalidEdge;
  EdgeId reverse = kInvalidEdge;
};

/// Takes both halves of `link` down (`reverse` may be kInvalidEdge) and
/// keeps them down only if the link's two ends still reach each other
/// over up links; otherwise restores both. Returns whether the link
/// failed. The paper's failure scenarios assume TE reroutes rather than
/// partitions: on a connected duplex graph this is exactly "the graph
/// stays connected", and on a partitioned one links inside an island can
/// still fail.
bool try_fail_link(Graph& g, const FailureEvent& link);

/// Fails `count` distinct duplex links chosen uniformly at random among
/// those try_fail_link takes down. Returns the failed links (fewer
/// than `count` when no more qualify); the graph is modified in place.
/// Deterministic in `seed`.
std::vector<FailureEvent> inject_link_failures(Graph& g, std::uint32_t count,
                                               std::uint64_t seed);

/// Restores the given failures.
void restore_failures(Graph& g, const std::vector<FailureEvent>& events);

}  // namespace megate::topo
