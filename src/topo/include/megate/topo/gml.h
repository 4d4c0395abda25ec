#pragma once
// Reader for the GML subset used by the Internet Topology Zoo [1], so the
// evaluation can run on the *real* Deltacom/Cogentco graphs when the user
// supplies the files (they are not redistributable with this repo; the
// built-in generators match their published node/edge counts instead).
//
//   graph [
//     node [ id 0 label "New York" Longitude -74.0 Latitude 40.7 ]
//     edge [ source 0 target 1 LinkSpeedRaw 1E9 ]
//   ]
//
// Unknown keys are skipped. Node coordinates (when present) become plane
// positions in propagation-milliseconds; link latency is derived from the
// great-circle-ish distance, and LinkSpeedRaw (bits/s) becomes capacity
// (100 Gbps when an edge has neither LinkSpeedRaw nor LinkSpeed).
//
// [1] http://www.topology-zoo.org/

#include <iosfwd>
#include <string>

#include "megate/topo/format.h"
#include "megate/topo/graph.h"

namespace megate::topo {

/// Parses a GML graph; throws FormatError on malformed input.
/// Duplicate edges collapse to one duplex link; self-loops are skipped.
Graph read_gml(std::istream& is);

/// File convenience wrapper.
Graph load_gml(const std::string& path);

}  // namespace megate::topo
