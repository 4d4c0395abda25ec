#pragma once
// Deterministic topology generators for the paper's four networks
// (Table 2): B4*, Deltacom*, Cogentco* and a TWAN-like production WAN.
//
// The Topology Zoo GML files and the Tencent production topology are not
// redistributable, so each generator synthesizes a graph with the published
// site count, a realistic ISP-like sparse structure (geometric spanning
// tree + shortcut chords for the Zoo networks, dense mesh for TWAN) and
// distance-derived latencies. See DESIGN.md §2 for the substitution note.

#include <cstdint>
#include <string>

#include "megate/topo/graph.h"

namespace megate::topo {

enum class TopologyKind {
  kB4,        ///< 12 sites, 19 duplex links (Jain et al., SIGCOMM'13 scale)
  kDeltacom,  ///< 113 sites, 161 duplex links (Topology Zoo scale)
  kCogentco,  ///< 197 sites, 245 duplex links (Topology Zoo scale)
  kTwan,      ///< O(100) sites, highly meshed production WAN
};

const char* to_string(TopologyKind k) noexcept;

struct GeneratorOptions {
  std::uint64_t seed = 42;
  /// TWAN only: number of sites (paper: O(100)).
  std::uint32_t twan_sites = 100;
};

/// Builds the requested topology. Deterministic in (kind, options.seed).
Graph make_topology(TopologyKind kind, const GeneratorOptions& options = {});

/// Generic ISP-like generator: `nodes` sites placed uniformly in a
/// `width_ms`-by-`height_ms` latency plane, connected by a greedy geometric
/// spanning tree plus shortcut chords up to `duplex_links` total.
Graph make_isp_like(std::uint32_t nodes, std::uint32_t duplex_links,
                    const GeneratorOptions& options, double width_ms = 30.0,
                    double height_ms = 18.0, std::string name_prefix = "s");

}  // namespace megate::topo
