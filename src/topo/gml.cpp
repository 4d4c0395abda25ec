#include "megate/topo/gml.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <vector>

namespace megate::topo {
namespace {

/// Capacity used when an edge has no LinkSpeedRaw/LinkSpeed attribute.
constexpr double kDefaultCapacityGbps = 100.0;
/// Latency floor for co-located or coordinate-less nodes.
constexpr double kMinLatencyMs = 0.1;
/// Propagation milliseconds per degree of geographic distance
/// (~111 km/degree at ~200 km/ms in fiber).
constexpr double kMsPerDegree = 0.55;

/// Minimal GML tokenizer: keys, numbers, quoted strings, brackets.
struct Tokenizer {
  explicit Tokenizer(std::istream& is) : is_(is) {}

  /// Next token, or nullopt at EOF. Quoted strings come back unquoted.
  std::optional<std::string> next() {
    char c;
    while (is_.get(c)) {
      if (std::isspace(static_cast<unsigned char>(c))) continue;
      if (c == '[' || c == ']') return std::string(1, c);
      if (c == '"') {
        std::string s;
        while (is_.get(c) && c != '"') s.push_back(c);
        return s;
      }
      std::string s(1, c);
      while (is_.get(c)) {
        if (std::isspace(static_cast<unsigned char>(c)) || c == '[' ||
            c == ']' || c == '"') {
          is_.unget();
          break;
        }
        s.push_back(c);
      }
      return s;
    }
    return std::nullopt;
  }

 private:
  std::istream& is_;
};

struct RawNode {
  long id = -1;
  std::string label;
  double lon = 0.0, lat = 0.0;
  bool has_coords = false;
};

struct RawEdge {
  long source = -1, target = -1;
  double speed_bps = 0.0;
};

/// Consumes a `[ key value ... ]` block into a key->value map (nested
/// blocks are skipped). The opening '[' must already be consumed.
std::map<std::string, std::string> read_block(Tokenizer& tok) {
  std::map<std::string, std::string> kv;
  for (;;) {
    auto key = tok.next();
    if (!key) throw FormatError("GML: unterminated block");
    if (*key == "]") return kv;
    auto value = tok.next();
    if (!value) throw FormatError("GML: key without value: " + *key);
    if (*value == "[") {
      // Nested block (e.g. graphics): skip it.
      int depth = 1;
      while (depth > 0) {
        auto t = tok.next();
        if (!t) throw FormatError("GML: unterminated nested block");
        if (*t == "[") ++depth;
        if (*t == "]") --depth;
      }
      continue;
    }
    kv[*key] = *value;
  }
}

double to_double(const std::string& s, double fallback) {
  try {
    return std::stod(s);
  } catch (...) {
    return fallback;
  }
}

long to_long(const std::string& s) {
  try {
    return std::stol(s);
  } catch (...) {
    return -1;
  }
}

}  // namespace

Graph read_gml(std::istream& is) {
  Tokenizer tok(is);
  std::vector<RawNode> nodes;
  std::vector<RawEdge> edges;
  bool graph_seen = false;

  for (;;) {
    auto t = tok.next();
    if (!t) break;
    if (*t == "graph") {
      graph_seen = true;
      continue;
    }
    if (*t == "node") {
      auto open = tok.next();
      if (!open || *open != "[") throw FormatError("GML: node without [");
      auto kv = read_block(tok);
      RawNode n;
      if (auto it = kv.find("id"); it != kv.end()) n.id = to_long(it->second);
      if (auto it = kv.find("label"); it != kv.end()) n.label = it->second;
      if (kv.contains("Longitude") && kv.contains("Latitude")) {
        n.lon = to_double(kv.at("Longitude"), 0.0);
        n.lat = to_double(kv.at("Latitude"), 0.0);
        n.has_coords = true;
      }
      if (n.id < 0) throw FormatError("GML: node without id");
      nodes.push_back(std::move(n));
      continue;
    }
    if (*t == "edge") {
      auto open = tok.next();
      if (!open || *open != "[") throw FormatError("GML: edge without [");
      auto kv = read_block(tok);
      RawEdge e;
      if (auto it = kv.find("source"); it != kv.end()) {
        e.source = to_long(it->second);
      }
      if (auto it = kv.find("target"); it != kv.end()) {
        e.target = to_long(it->second);
      }
      if (auto it = kv.find("LinkSpeedRaw"); it != kv.end()) {
        e.speed_bps = to_double(it->second, 0.0);
      }
      if (e.source < 0 || e.target < 0) {
        throw FormatError("GML: edge without source/target");
      }
      edges.push_back(e);
      continue;
    }
    // Any other top-level token (directed 0, version strings, brackets of
    // the outer graph block, ...) is skipped.
  }
  if (!graph_seen) throw FormatError("GML: missing 'graph' keyword");
  if (nodes.empty()) throw FormatError("GML: no nodes");

  Graph g;
  std::map<long, NodeId> by_id;
  std::set<std::string> used_names;
  for (const RawNode& n : nodes) {
    std::string name = n.label.empty() ? "n" + std::to_string(n.id) : n.label;
    // Topology Zoo labels can repeat or contain spaces; sanitize + dedup.
    for (char& c : name) {
      if (std::isspace(static_cast<unsigned char>(c))) c = '_';
    }
    std::string unique = name;
    int suffix = 1;
    while (!used_names.insert(unique).second) {
      unique = name + "#" + std::to_string(suffix++);
    }
    // Position in propagation-ms units (longitude shrinks with latitude
    // on real maps; a flat scaling is enough for latency modeling).
    NodePos pos{n.lon * kMsPerDegree, n.lat * kMsPerDegree};
    by_id[n.id] = g.add_node(unique, pos);
  }

  std::set<std::pair<NodeId, NodeId>> seen;
  for (const RawEdge& e : edges) {
    auto s = by_id.find(e.source);
    auto t = by_id.find(e.target);
    if (s == by_id.end() || t == by_id.end()) {
      throw FormatError("GML: edge references unknown node id");
    }
    if (s->second == t->second) continue;  // self-loop: skip
    const std::pair<NodeId, NodeId> key = std::minmax(s->second, t->second);
    if (!seen.insert(key).second) continue;  // duplicate edge
    const NodePos& a = g.node_pos(s->second);
    const NodePos& b = g.node_pos(t->second);
    const double dx = a.x - b.x, dy = a.y - b.y;
    const double latency =
        std::max(kMinLatencyMs, std::sqrt(dx * dx + dy * dy));
    const double cap = e.speed_bps > 0.0 ? e.speed_bps / 1e9
                                         : kDefaultCapacityGbps;
    g.add_duplex_link(s->second, t->second, cap, latency);
  }
  return g;
}

Graph load_gml(const std::string& path) {
  std::ifstream is(path);
  if (!is) throw std::runtime_error("cannot open for read: " + path);
  return read_gml(is);
}

}  // namespace megate::topo
