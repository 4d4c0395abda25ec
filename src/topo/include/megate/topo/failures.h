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

/// Fails `count` distinct duplex links chosen uniformly at random among
/// links whose two ends still reach each other after the removal (the
/// paper's failure scenarios assume the WAN stays connected and TE
/// reroutes). On a connected duplex graph that is exactly "the graph
/// stays connected"; on a partitioned one, links inside an island can
/// still fail. Returns the failed links (fewer than `count` when no more
/// qualify); the graph is modified in place. Deterministic in `seed`.
std::vector<FailureEvent> inject_link_failures(Graph& g, std::uint32_t count,
                                               std::uint64_t seed);

/// Restores the given failures.
void restore_failures(Graph& g, const std::vector<FailureEvent>& events);

}  // namespace megate::topo
