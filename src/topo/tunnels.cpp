#include "megate/topo/tunnels.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstddef>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>

#include "megate/obs/metrics.h"
#include "megate/obs/span.h"
#include "megate/util/rng.h"
#include "megate/util/thread_pool.h"

namespace megate::topo {

bool Tunnel::alive(const Graph& g) const {
  for (EdgeId e : links) {
    if (!g.link(e).up) return false;
  }
  return true;
}

const std::vector<Tunnel>& TunnelSet::tunnels(NodeId src, NodeId dst) const {
  auto it = map_.find(SitePair{src, dst});
  return it == map_.end() ? empty_ : it->second;
}

namespace {

using util::mix64;

/// One pair's share of TunnelSet::fingerprint(), a word per step. Each
/// step is a bijection of the running hash for a fixed word, so changing
/// any one link id or weight always moves the result.
std::uint64_t pair_fingerprint(SitePair pair, const std::vector<Tunnel>& ts) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto step = [&h](std::uint64_t word) {
    h = (h ^ mix64(word)) * 0x100000001B3ULL;
  };
  step((static_cast<std::uint64_t>(pair.src) << 32) | pair.dst);
  step(ts.size());
  for (const Tunnel& t : ts) {
    step(t.links.size());
    for (EdgeId e : t.links) step(e);
    step(std::bit_cast<std::uint64_t>(t.weight));
  }
  return h;
}

}  // namespace

void TunnelSet::set_tunnels(NodeId src, NodeId dst,
                            std::vector<Tunnel> tunnels) {
  if (max_sr_hops_ > 0) {
    for (const Tunnel& t : tunnels) {
      if (t.links.size() > max_sr_hops_) {
        throw std::invalid_argument(
            "tunnel of " + std::to_string(t.links.size()) +
            " links exceeds the set's max_sr_hops=" +
            std::to_string(max_sr_hops_));
      }
    }
  }
  const SitePair pair{src, dst};
  auto [it, inserted] = map_.try_emplace(pair);
  if (!inserted) fingerprint_ ^= pair_fingerprint(pair, it->second);
  it->second = std::move(tunnels);
  fingerprint_ ^= pair_fingerprint(pair, it->second);
}

std::size_t TunnelSet::total_tunnels() const noexcept {
  std::size_t n = 0;
  for (const auto& [pair, ts] : map_) n += ts.size();
  return n;
}

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A goal-directed search keeps popping until the smallest key exceeds
/// dst's label by this fraction of (label + 1): far above any rounding in
/// a sum of link latencies, far below any real latency gap.
constexpr double kStopMargin = 1e-9;

struct QueueItem {
  double key;  ///< label, plus the node's potential in a goal-directed search
  NodeId node;
  // Ties broken on node id so pop order never depends on heap internals.
  bool operator>(const QueueItem& o) const noexcept {
    if (key != o.key) return key > o.key;
    return node > o.node;
  }
};

/// Epoch-stamped membership over a dense id range: an id is marked iff
/// its stamp equals the current epoch, so clear() is one increment
/// instead of a pass over the array (or a hash-set rebuild).
class Marks {
 public:
  explicit Marks(std::size_t n) : stamp_(n, 0) {}

  void clear() {
    if (++epoch_ == 0) {  // wrapped: stale stamps could alias, reset them
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }
  void mark(std::uint32_t id) { stamp_[id] = epoch_; }
  bool marked(std::uint32_t id) const { return stamp_[id] == epoch_; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 1;
};

/// Distances and canonical parent edges left by one Dijkstra run.
struct SearchTree {
  std::vector<double> dist;
  std::vector<EdgeId> parent;

  bool reaches(NodeId v) const { return dist[v] != kInf; }

  /// Appends the links of the reached `dst`'s path from the search source
  /// `src` to `out`; returns its searched distance.
  double append_path(const Graph& g, NodeId src, NodeId dst,
                     std::vector<EdgeId>& out) const {
    const std::size_t base = out.size();
    for (NodeId v = dst; v != src;) {
      const EdgeId e = parent[v];
      out.push_back(e);
      v = g.link(e).src;
    }
    std::reverse(out.begin() + static_cast<std::ptrdiff_t>(base), out.end());
    return dist[dst];
  }
};

/// Per-task search state reused across every search the task runs: flat
/// dist/parent arrays, one heap vector, and epoch-stamped node/link bans.
/// search() is shortest_path's rule set — relax on <, smallest parent edge
/// on equal distance (only from a strictly smaller label, so zero-latency
/// links cannot close a parent cycle), (key, node) pop order — so its
/// paths and latencies are bitwise those of shortest_path under the same
/// bans. Without a potential the key is the label (Dijkstra); with dst ==
/// kInvalidNode it runs to completion and leaves the canonical full tree.
///
/// With a potential row to_dst (every node's exact latency distance to dst
/// over the up links, bans ignored) the search is A*: the key is label +
/// to_dst[v], and a node with to_dst = +inf is never entered. On a graph
/// that passes potentials_exact() it returns Dijkstra's path (DESIGN.md
/// §13 has the argument):
///   - bans only remove links, so every node that can set the label or
///     the canonical parent of a node on the path has a key of at most
///     dst's label D; the search pops on after dst until the keys exceed
///     D by kStopMargin·(D + 1), so it expands such nodes even when their
///     key ties D (a larger node id) or exceeds it by rounding;
///   - to_dst, a sum taken in the reverse order, can miss consistency by
///     an ulp; a node whose label drops after its expansion is pushed
///     and expanded again (an entry is live iff key == label + to_dst).
class Workspace {
 public:
  explicit Workspace(const Graph& g)
      : banned_nodes(g.num_nodes()), banned_links(g.num_links()), g_(g) {
    for (SearchTree* t : {&last_, &source_}) {
      t->dist.resize(g.num_nodes());
      t->parent.resize(g.num_nodes());
    }
  }

  Marks banned_nodes;  ///< never entered (the search source exempt)
  Marks banned_links;  ///< never traversed

  /// Lifts every ban.
  void clear_bans() {
    banned_nodes.clear();
    banned_links.clear();
  }

  /// Searches from src over up, unbanned links into last(), goal-directed
  /// by `to_dst` when it is given (see the class comment). `hop_metric`
  /// weighs every link 1.0 instead of its latency. Returns whether dst
  /// was reached.
  bool search(NodeId src, NodeId dst, const double* to_dst = nullptr,
              bool hop_metric = false) {
    ++searches_;
    std::vector<double>& dist = last_.dist;
    std::vector<EdgeId>& parent = last_.parent;
    std::fill(dist.begin(), dist.end(), kInf);
    std::fill(parent.begin(), parent.end(), kInvalidEdge);
    heap_.clear();
    const auto h = [to_dst](NodeId v) {
      return to_dst == nullptr ? 0.0 : to_dst[v];
    };
    const auto push = [this](double key, NodeId v) {
      heap_.push_back({key, v});
      std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
    };
    dist[src] = 0.0;
    push(h(src), src);
    double last_key = kInf;  // dst's label plus the margin, once dst pops
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
      const auto [key, v] = heap_.back();
      heap_.pop_back();
      if (key > last_key) break;
      const double d = dist[v];
      if (key != d + h(v)) continue;  // stale entry
      if (v == dst) {
        // dst is on no other node's path to dst; keep popping the nodes
        // that may still set a path node's canonical parent.
        last_key = d + kStopMargin * (d + 1.0);
        continue;
      }
      for (EdgeId e : g_.out_edges(v)) {
        const Link& l = g_.link(e);
        if (!l.up || banned_links.marked(e)) continue;
        if (l.dst != dst && banned_nodes.marked(l.dst)) continue;
        if (h(l.dst) == kInf) continue;  // cannot reach dst at all
        const double nd = d + (hop_metric ? 1.0 : l.latency_ms);
        if (nd < dist[l.dst]) {
          dist[l.dst] = nd;
          parent[l.dst] = e;
          push(nd + h(l.dst), l.dst);
        } else if (nd == dist[l.dst] && d < dist[l.dst] &&
                   e < parent[l.dst]) {
          // Equal distance: canonical (smallest) parent edge. The d < dist
          // guard (false only for zero-latency links) keeps parent chains
          // strictly decreasing, i.e. acyclic.
          parent[l.dst] = e;
        }
      }
    }
    return dst == kInvalidNode || last_.reaches(dst);
  }

  /// Result of the latest search().
  const SearchTree& last() const noexcept { return last_; }

  /// Full unbanned latency tree from `src`, kept in source() across
  /// later searches: Yen's first path for every pair of `src`.
  void seed_source(NodeId src) {
    clear_bans();
    search(src, kInvalidNode);
    std::swap(last_, source_);
  }
  const SearchTree& source() const noexcept { return source_; }

  const Graph& graph() const noexcept { return g_; }
  /// Searches run so far (the topo.tunnels.dijkstra_calls unit).
  std::uint64_t searches() const noexcept { return searches_; }

 private:
  const Graph& g_;
  SearchTree last_;
  SearchTree source_;
  std::vector<QueueItem> heap_;
  std::uint64_t searches_ = 0;
};

/// Deterministic total order on candidate paths: latency first (Yen's
/// correctness needs ascending latency), then hop count, then the link-id
/// sequence. The two tie levels make candidate order — and therefore
/// tunnel choice — independent of set/heap internals when different
/// generators produce floating-point-equal latencies.
bool path_less(const Path& a, const Path& b) {
  if (a.latency_ms != b.latency_ms) return a.latency_ms < b.latency_ms;
  if (a.links.size() != b.links.size()) {
    return a.links.size() < b.links.size();
  }
  return a.links < b.links;
}

bool fits_budget(const Path& p, std::uint32_t max_hops) {
  return max_hops == 0 || p.links.size() <= max_hops;
}

/// Yen's core on the task's workspace, whose source() must be seeded
/// for `src`; `to_dst` is dst's potential row (see DistancesTo), which
/// goal-directs every spur search. `filtered_out` receives the number of
/// generated loopless paths that were discarded by the hop budget.
std::vector<Path> yen_paths(Workspace& ws, NodeId src, NodeId dst,
                            const double* to_dst, std::uint32_t k,
                            std::uint32_t max_candidates,
                            std::uint32_t max_hops,
                            std::size_t* filtered_out) {
  std::vector<Path> admissible;
  const Graph& g = ws.graph();
  if (k == 0 || src == dst || !ws.source().reaches(dst)) return admissible;

  // `generated` is Yen's A-list (every accepted loopless path, ascending
  // latency); `admissible` is the subset within the hop budget. Spurs
  // must come off *generated* paths even when they are over budget —
  // admissible alternatives often branch off inadmissible prefixes.
  std::vector<Path> generated(1);
  generated.front().latency_ms =
      ws.source().append_path(g, src, dst, generated.front().links);
  if (fits_budget(generated.front(), max_hops)) {
    admissible.push_back(generated.front());
  }

  // Candidate pool ordered by (latency, hops, links); dedup on the link
  // sequence happens when pulling.
  std::set<Path, decltype(&path_less)> candidates(&path_less);

  // Under a hop budget the search may need to generate more paths than
  // it emits; bound the generation by the candidate-pool size so a pair
  // with no admissible alternative terminates.
  const std::size_t gen_cap =
      std::max<std::size_t>(k, max_candidates);

  while (admissible.size() < k && generated.size() < gen_cap) {
    const Path& prev = generated.back();
    // Spur from every node of the previous path; root nodes stay banned
    // for the rest of this spur sweep (loopless requirement).
    ws.banned_nodes.clear();
    NodeId spur_node = src;
    double root_latency = 0.0;  // prev's prefix up to the spur node
    for (std::size_t i = 0; i < prev.links.size(); ++i) {
      // Ban the i-th link of every accepted path sharing this root.
      ws.banned_links.clear();
      for (const Path& p : generated) {
        if (p.links.size() > i &&
            std::equal(p.links.begin(), p.links.begin() + i,
                       prev.links.begin())) {
          ws.banned_links.mark(p.links[i]);
        }
      }
      if (ws.search(spur_node, dst, to_dst) &&
          candidates.size() < max_candidates) {
        Path total;
        total.links.assign(prev.links.begin(), prev.links.begin() + i);
        total.latency_ms =
            root_latency +
            ws.last().append_path(g, spur_node, dst, total.links);
        candidates.insert(std::move(total));
      }
      ws.banned_nodes.mark(spur_node);
      const Link& l = g.link(prev.links[i]);
      root_latency += l.latency_ms;
      spur_node = l.dst;
    }
    // Pull the best unseen candidate.
    bool advanced = false;
    while (!candidates.empty()) {
      Path best = std::move(candidates.extract(candidates.begin()).value());
      const bool duplicate =
          std::any_of(generated.begin(), generated.end(),
                      [&](const Path& p) { return p.links == best.links; });
      if (!duplicate) {
        const bool fits = fits_budget(best, max_hops);
        generated.push_back(std::move(best));
        if (fits) admissible.push_back(generated.back());
        advanced = true;
        break;
      }
    }
    if (!advanced) break;  // exhausted
  }
  *filtered_out += generated.size() - admissible.size();
  return admissible;
}

/// Reconstructs src -> dst from src's parent tree, or an empty path if
/// unreachable. Latency is re-summed in link order so equal paths always
/// carry bitwise-equal latency regardless of how they were found.
Path tree_path(const Graph& g, const std::vector<EdgeId>& parent,
               NodeId src, NodeId dst) {
  Path p;
  if (src == dst) return p;
  NodeId v = dst;
  while (v != src) {
    const EdgeId e = parent[v];
    if (e == kInvalidEdge) return Path{};  // unreachable
    p.links.push_back(e);
    v = g.link(e).src;
  }
  std::reverse(p.links.begin(), p.links.end());
  for (EdgeId e : p.links) p.latency_ms += g.link(e).latency_ms;
  return p;
}

/// The fewest-hops path from src to dst by the canonical search rules
/// (empty if unreachable), with its latency summed in link order.
Path hop_shortest_path(Workspace& ws, NodeId src, NodeId dst) {
  ws.clear_bans();
  ws.search(src, dst, nullptr, /*hop_metric=*/true);
  return tree_path(ws.graph(), ws.last().parent, src, dst);
}

std::vector<Tunnel> paths_to_tunnels(const std::vector<Path>& paths) {
  std::vector<Tunnel> tunnels;
  tunnels.reserve(paths.size());
  if (paths.empty()) return tunnels;
  const double base = paths.front().latency_ms;
  for (const Path& p : paths) {
    Tunnel t;
    t.links = p.links;
    t.latency_ms = p.latency_ms;
    // w_t = latency normalized by the pair's best latency; >= 1, ascending
    // order == preference order. A zero-latency pair degenerates to hops.
    t.weight = base > 0.0 ? p.latency_ms / base
                          : static_cast<double>(p.hops());
    tunnels.push_back(std::move(t));
  }
  // Deterministic order even when weights tie (equal-latency parallel
  // paths): latency, then hops, then the link-id sequence. std::sort is
  // unstable, so the comparator itself must be a total order.
  std::sort(tunnels.begin(), tunnels.end(),
            [](const Tunnel& a, const Tunnel& b) {
              if (a.weight != b.weight) return a.weight < b.weight;
              if (a.latency_ms != b.latency_ms) {
                return a.latency_ms < b.latency_ms;
              }
              if (a.links.size() != b.links.size()) {
                return a.links.size() < b.links.size();
              }
              return a.links < b.links;
            });
  return tunnels;
}

/// Runs task(ws, i) for every i in [0, n), each on a workspace owned by
/// the thread running it. Tasks are claimed in chunks (~8 per worker)
/// from a shared cursor by a transient pool of hardware-concurrency
/// workers; a single chunk (or a single core) runs the same loop inline.
/// Tasks must write only their own output slots, so results never depend
/// on the schedule.
template <typename Task>
void for_each_task(const Graph& g, std::size_t n, const Task& task) {
  const std::size_t workers =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  const std::size_t chunk = std::max<std::size_t>(1, n / (workers * 8));
  const std::size_t chunks = (n + chunk - 1) / chunk;
  std::atomic<std::size_t> cursor{0};
  const auto drain = [&] {
    Workspace ws(g);
    for (std::size_t c = cursor.fetch_add(1); c < chunks;
         c = cursor.fetch_add(1)) {
      const std::size_t end = std::min(n, (c + 1) * chunk);
      for (std::size_t i = c * chunk; i < end; ++i) task(ws, i);
    }
  };
  if (chunks <= 1 || workers == 1) {
    drain();
    return;
  }
  util::ThreadPool pool(std::min(workers, chunks));
  pool.parallel_for(pool.size(), [&](std::size_t) { drain(); });
}

/// Whether A* spur searches on `g` return Dijkstra's paths: every up link
/// must strictly lengthen any label it extends. Labels are sums of simple
/// paths, at most the total up latency, so a link of at least 2^-50 of
/// that total always moves a label by an ulp or more. A zero-latency link
/// (or one lost in rounding) leaves its head at its tail's label, and
/// Dijkstra then takes the first such parent in its (label, node) pop
/// order — an order a potential changes.
bool potentials_exact(const Graph& g) {
  double total = 0.0;
  double shortest = kInf;
  for (const Link& l : g.links()) {
    if (!l.up) continue;
    total += l.latency_ms;
    shortest = std::min(shortest, l.latency_ms);
  }
  return shortest > total * 0x1p-50;
}

/// Every node's exact latency distance to each destination of a pair list
/// over the up links: one reverse tree per distinct destination, fanned
/// out like the pairs. Row d is the A* potential of every spur search
/// toward d (+inf where d is unreachable). On a graph where potentials
/// are not exact no row is taken, and row() is null: the spur searches
/// run as Dijkstra.
class DistancesTo {
 public:
  DistancesTo(const Graph& g, const std::vector<SitePair>& pairs) {
    if (!potentials_exact(g)) return;
    rows_.resize(g.num_nodes());
    std::vector<NodeId> dsts;
    dsts.reserve(pairs.size());
    for (const SitePair& p : pairs) dsts.push_back(p.dst);
    std::sort(dsts.begin(), dsts.end());
    dsts.erase(std::unique(dsts.begin(), dsts.end()), dsts.end());
    const Graph reversed = g.reversed();
    for_each_task(reversed, dsts.size(), [&](Workspace& ws, std::size_t i) {
      ws.search(dsts[i], kInvalidNode);
      rows_[dsts[i]] = ws.last().dist;
    });
  }

  const double* row(NodeId dst) const {
    return rows_.empty() ? nullptr : rows_[dst].data();
  }

 private:
  std::vector<std::vector<double>> rows_;
};

std::uint32_t auto_middlepoint_count(std::size_t sites) {
  const auto root = static_cast<std::uint32_t>(
      std::ceil(std::sqrt(static_cast<double>(sites))));
  return std::min<std::uint32_t>(static_cast<std::uint32_t>(sites),
                                 std::max<std::uint32_t>(4, root));
}

/// Shared context for the centrality backend: per source, one
/// latency-shortest tree (the preference metric) and one hop-shortest
/// tree (the budget metric — under a hop budget the admissible path of a
/// pair is often hop-minimal but not latency-minimal, and without the hop
/// trees the backend would wrongly classify such pairs as
/// budget-excluded), plus the selected middlepoint group.
struct CentralityContext {
  std::vector<std::vector<EdgeId>> trees;      ///< latency parent trees
  std::vector<std::vector<EdgeId>> hop_trees;  ///< hop-count parent trees
  std::vector<NodeId> middlepoints;
};

/// Canonical latency parent trees (and, with `hop_trees`, hop-count
/// trees: the minimum possible SR hop count per destination) from every
/// source over up links, fanned out over sources. Parent edge per node,
/// kInvalidEdge = unreachable / the source; at equal distance the
/// smallest parent edge id wins.
std::vector<std::vector<EdgeId>> all_source_trees(
    const Graph& g, std::vector<std::vector<EdgeId>>* hop_trees = nullptr) {
  const std::size_t n = g.num_nodes();
  std::vector<std::vector<EdgeId>> trees(n);
  if (hop_trees != nullptr) hop_trees->assign(n, {});
  for_each_task(g, n, [&](Workspace& ws, std::size_t s) {
    const auto src = static_cast<NodeId>(s);
    ws.clear_bans();
    ws.search(src, kInvalidNode);
    trees[s] = ws.last().parent;
    if (hop_trees != nullptr) {
      ws.search(src, kInvalidNode, nullptr, /*hop_metric=*/true);
      (*hop_trees)[s] = ws.last().parent;
    }
  });
  return trees;
}

/// Greedy group-betweenness selection over the latency trees: repeatedly
/// picks the site covering the most not-yet-covered (src, dst) shortest
/// paths as an intermediate node, up to the auto size (~sqrt(sites), min
/// 4, capped at the site count). Deterministic (ties on node id).
std::vector<NodeId> pick_middlepoints(
    const Graph& g, const std::vector<std::vector<EdgeId>>& trees) {
  const std::size_t n = g.num_nodes();
  if (n == 0) return {};
  const std::uint32_t target = auto_middlepoint_count(n);

  // Inverted index: node -> shortest paths (pair ids) it sits on as an
  // intermediate hop. Group betweenness of a set == covered pair count.
  std::vector<std::vector<std::uint32_t>> covers(n);
  std::uint32_t pairs = 0;
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s == d) continue;
      NodeId v = d;
      bool reachable = true;
      std::vector<NodeId> interior;
      while (v != s) {
        const EdgeId e = trees[s][v];
        if (e == kInvalidEdge) {
          reachable = false;
          break;
        }
        const NodeId pred = g.link(e).src;
        if (pred != s) interior.push_back(pred);
        v = pred;
      }
      if (!reachable) continue;
      const std::uint32_t pid = pairs++;
      for (NodeId m : interior) covers[m].push_back(pid);
    }
  }

  std::vector<char> covered(pairs, 0);
  std::vector<char> picked(n, 0);
  std::vector<NodeId> group;
  group.reserve(target);
  for (std::uint32_t round = 0; round < target; ++round) {
    NodeId best = kInvalidNode;
    std::size_t best_gain = 0;
    for (NodeId m = 0; m < n; ++m) {
      if (picked[m]) continue;
      std::size_t gain = 0;
      for (std::uint32_t pid : covers[m]) {
        if (!covered[pid]) ++gain;
      }
      if (gain > best_gain) {  // ties keep the lowest node id
        best_gain = gain;
        best = m;
      }
    }
    if (best == kInvalidNode || best_gain == 0) break;  // nothing left
    picked[best] = 1;
    group.push_back(best);
    for (std::uint32_t pid : covers[best]) covered[pid] = 1;
  }
  return group;
}

CentralityContext make_centrality_context(const Graph& g) {
  CentralityContext ctx;
  ctx.trees = all_source_trees(g, &ctx.hop_trees);
  // Middlepoints are selected on the latency trees: group betweenness of
  // the preference metric, matching the paper's centrality definition.
  ctx.middlepoints = pick_middlepoints(g, ctx.trees);
  return ctx;
}

/// Concatenates two tree paths src->m->dst into one loop-free path, or an
/// empty path when a segment is missing or the node sequence repeats.
/// Visited nodes are tracked in the workspace's node marks.
Path compose_segments(Workspace& ws, NodeId src, const Path& seg1,
                      const Path& seg2) {
  if (seg1.empty() || seg2.empty()) return Path{};
  const Graph& g = ws.graph();
  Path total;
  total.links.reserve(seg1.links.size() + seg2.links.size());
  Marks& seen = ws.banned_nodes;
  seen.clear();
  seen.mark(src);
  for (const Path* seg : {&seg1, &seg2}) {
    for (EdgeId e : seg->links) {
      const NodeId v = g.link(e).dst;
      if (seen.marked(v)) return Path{};
      seen.mark(v);
      total.links.push_back(e);
    }
  }
  for (EdgeId e : total.links) total.latency_ms += g.link(e).latency_ms;
  return total;
}

/// Candidate paths for one pair under the centrality backend: the direct
/// latency- and hop-shortest paths plus <= 2-segment compositions through
/// each selected middlepoint (on both tree metrics), loop-free, deduped,
/// budget-filtered, best `tunnels_per_pair` by (latency, hops, links).
/// Because the hop-shortest direct path has the minimum possible hop
/// count, a pair is budget-excluded here exactly when NO loop-free path
/// fits the budget — the same coverage kKsp's hop-shortest fallback
/// gives.
std::vector<Path> centrality_paths(Workspace& ws,
                                   const CentralityContext& ctx,
                                   NodeId src, NodeId dst,
                                   const TunnelOptions& options,
                                   bool* reachable,
                                   std::size_t* filtered_out) {
  const Graph& g = ws.graph();
  std::vector<Path> candidates;
  const auto consider = [&](Path p) {
    if (p.empty()) return;
    if (!fits_budget(p, options.max_sr_hops)) {
      if (filtered_out != nullptr) ++*filtered_out;
      return;
    }
    candidates.push_back(std::move(p));
  };

  Path direct = tree_path(g, ctx.trees[src], src, dst);
  *reachable = !direct.empty();
  if (!*reachable) return candidates;
  consider(std::move(direct));
  consider(tree_path(g, ctx.hop_trees[src], src, dst));

  for (NodeId m : ctx.middlepoints) {
    if (m == src || m == dst) continue;
    // Compose within one metric at a time: latency segments give the
    // low-latency alternates, hop segments the budget-tight ones.
    consider(compose_segments(ws, src,
                              tree_path(g, ctx.trees[src], src, m),
                              tree_path(g, ctx.trees[m], m, dst)));
    consider(compose_segments(ws, src,
                              tree_path(g, ctx.hop_trees[src], src, m),
                              tree_path(g, ctx.hop_trees[m], m, dst)));
  }

  std::sort(candidates.begin(), candidates.end(), path_less);
  candidates.erase(std::unique(candidates.begin(), candidates.end(),
                               [](const Path& a, const Path& b) {
                                 return a.links == b.links;
                               }),
                   candidates.end());
  if (candidates.size() > options.tunnels_per_pair) {
    candidates.resize(options.tunnels_per_pair);
  }
  return candidates;
}

/// One pair's output slot: written by exactly one task, merged serially.
/// It holds paths, not tunnels: the merge materializes the tunnels on the
/// calling thread, so the long-lived TunnelSet is allocated in (src, dst)
/// order in the caller's heap rather than scattered over worker arenas.
struct PairSlot {
  std::vector<Path> paths;
  TunnelBuildStats stats;  ///< this pair's delta
  /// Searches this pair ran; a source's first pair also carries the
  /// source tree its pairs share.
  std::uint64_t dijkstra_calls = 0;
};

/// Builds one pair with the configured backend into `slot`. Under kKsp
/// the workspace's source() must be seeded for `s`, and `to_dst` must
/// cover `d`.
void build_pair(Workspace& ws, NodeId s, NodeId d,
                const TunnelOptions& options, const CentralityContext& ctx,
                const std::optional<DistancesTo>& to_dst, PairSlot& slot) {
  TunnelBuildStats& stats = slot.stats;
  std::vector<Path>& paths = slot.paths;
  if (options.selection == TunnelSelection::kCentrality) {
    bool reachable = false;
    paths = centrality_paths(ws, ctx, s, d, options, &reachable,
                             &stats.paths_budget_filtered);
    if (paths.empty()) {
      if (reachable) {
        ++stats.pairs_budget_excluded;
      } else {
        ++stats.pairs_unreachable;
      }
    }
  } else {
    paths = yen_paths(ws, s, d, to_dst->row(d), options.tunnels_per_pair,
                      options.max_candidates, options.max_sr_hops,
                      &stats.paths_budget_filtered);
    if (paths.empty()) {
      // Attribute the emptiness: partitioned graph vs hop budget. Yen
      // gives up after max_candidates paths in latency order, so a pair
      // whose in-budget paths all rank lower gets none from it; the
      // hop-shortest path has the fewest hops any path has, so it becomes
      // the pair's one tunnel, or no path fits the budget.
      if (options.max_sr_hops == 0 || !ws.source().reaches(d)) {
        ++stats.pairs_unreachable;
      } else if (Path fewest = hop_shortest_path(ws, s, d);
                 options.tunnels_per_pair > 0 &&
                 fits_budget(fewest, options.max_sr_hops)) {
        paths.push_back(std::move(fewest));
      } else {
        ++stats.pairs_budget_excluded;
      }
    }
  }
  if (!paths.empty()) ++stats.pairs_built;
}

/// Builds `pairs` (sorted by source) into one slot each, fanning the
/// sources out over for_each_task, then sums the slots' stats and
/// Dijkstra counts in pair order. Under kKsp it first takes the
/// destinations' potential rows on `g` as it is (a repair's degraded
/// graph included); those reverse trees are not counted as searches.
std::vector<PairSlot> build_pairs(const Graph& g,
                                  const std::vector<SitePair>& pairs,
                                  const TunnelOptions& options,
                                  TunnelBuildStats& delta,
                                  std::uint64_t& dijkstra_calls) {
  CentralityContext ctx;
  std::optional<DistancesTo> to_dst;
  if (options.selection == TunnelSelection::kCentrality) {
    ctx = make_centrality_context(g);
    delta.middlepoints = ctx.middlepoints.size();
    dijkstra_calls += 2 * g.num_nodes();
  } else {
    to_dst.emplace(g, pairs);
  }
  // One task per source: [starts[t], starts[t + 1]) share pairs[].src.
  std::vector<std::size_t> starts;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (i == 0 || pairs[i].src != pairs[i - 1].src) starts.push_back(i);
  }
  starts.push_back(pairs.size());
  std::vector<PairSlot> slots(pairs.size());
  for_each_task(g, starts.size() - 1, [&](Workspace& ws, std::size_t t) {
    std::uint64_t searches = ws.searches();
    if (options.selection == TunnelSelection::kKsp) {
      ws.seed_source(pairs[starts[t]].src);
    }
    for (std::size_t i = starts[t]; i < starts[t + 1]; ++i) {
      build_pair(ws, pairs[i].src, pairs[i].dst, options, ctx, to_dst,
                 slots[i]);
      slots[i].dijkstra_calls = ws.searches() - searches;
      searches = ws.searches();
    }
  });
  for (const PairSlot& slot : slots) {
    delta.pairs_built += slot.stats.pairs_built;
    delta.pairs_unreachable += slot.stats.pairs_unreachable;
    delta.pairs_budget_excluded += slot.stats.pairs_budget_excluded;
    delta.paths_budget_filtered += slot.stats.paths_budget_filtered;
    dijkstra_calls += slot.dijkstra_calls;
  }
  return slots;
}

/// Publishes a build/repair delta to the optional registry. These are
/// plain cumulative counters — one per build/repair event class — so the
/// chaos loop's repeated repairs show up as growth, not resets.
void publish_stats_delta(obs::MetricsRegistry* metrics,
                         const TunnelBuildStats& delta,
                         std::uint64_t dijkstra_calls) {
  if (metrics == nullptr) return;
  metrics->counter("topo.tunnels.pairs_built").inc(delta.pairs_built);
  metrics->counter("topo.tunnels.pairs_unreachable")
      .inc(delta.pairs_unreachable);
  metrics->counter("topo.tunnels.pairs_budget_excluded")
      .inc(delta.pairs_budget_excluded);
  metrics->counter("topo.tunnels.paths_budget_filtered")
      .inc(delta.paths_budget_filtered);
  metrics->counter("topo.tunnels.dijkstra_calls").inc(dijkstra_calls);
}

void accumulate_stats(TunnelBuildStats& total, const TunnelBuildStats& d) {
  total.pairs_built += d.pairs_built;
  total.pairs_unreachable += d.pairs_unreachable;
  total.pairs_budget_excluded += d.pairs_budget_excluded;
  total.paths_budget_filtered += d.paths_budget_filtered;
  total.middlepoints = std::max(total.middlepoints, d.middlepoints);
}

}  // namespace

TunnelSet build_tunnels(const Graph& g, const TunnelOptions& options) {
  std::optional<obs::Span> span;
  if (options.metrics != nullptr) {
    span.emplace(*options.metrics, "topo.tunnels.build");
  }
  const auto n = static_cast<NodeId>(g.num_nodes());
  std::vector<SitePair> pairs;
  pairs.reserve(static_cast<std::size_t>(n) * (n > 0 ? n - 1 : 0));
  for (NodeId s = 0; s < n; ++s) {
    for (NodeId d = 0; d < n; ++d) {
      if (s != d) pairs.push_back(SitePair{s, d});
    }
  }
  TunnelBuildStats delta;
  std::uint64_t dijkstra_calls = 0;
  auto slots = build_pairs(g, pairs, options, delta, dijkstra_calls);
  TunnelSet set;
  set.max_sr_hops_ = options.max_sr_hops;
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    if (!slots[i].paths.empty()) {
      set.set_tunnels(pairs[i].src, pairs[i].dst,
                      paths_to_tunnels(slots[i].paths));
    }
  }
  accumulate_stats(set.mutable_stats(), delta);
  publish_stats_delta(options.metrics, delta, dijkstra_calls);
  return set;
}

void repair_tunnels(const Graph& g, TunnelSet& tunnels,
                    const TunnelOptions& options) {
  std::optional<obs::Span> span;
  if (options.metrics != nullptr) {
    span.emplace(*options.metrics, "topo.tunnels.repair");
  }
  std::vector<SitePair> to_fix;
  for (const auto& [pair, ts] : tunnels.all()) {
    const bool any_dead = std::any_of(
        ts.begin(), ts.end(), [&](const Tunnel& t) { return !t.alive(g); });
    if (any_dead) to_fix.push_back(pair);
  }
  if (to_fix.empty()) return;
  // Deterministic repair order (unordered_map iteration is not).
  std::sort(to_fix.begin(), to_fix.end(),
            [](const SitePair& a, const SitePair& b) {
              if (a.src != b.src) return a.src < b.src;
              return a.dst < b.dst;
            });
  // Under kCentrality, middlepoints are re-selected on the degraded graph
  // so repaired tunnels keep the backend's invariants. The search runs
  // under the set's budget, which set_tunnels enforces anyway.
  TunnelOptions under_budget = options;
  under_budget.max_sr_hops = tunnels.max_sr_hops();
  TunnelBuildStats delta;
  std::uint64_t dijkstra_calls = 0;
  auto slots = build_pairs(g, to_fix, under_budget, delta, dijkstra_calls);
  for (std::size_t i = 0; i < to_fix.size(); ++i) {
    tunnels.set_tunnels(to_fix[i].src, to_fix[i].dst,
                        paths_to_tunnels(slots[i].paths));
  }
  accumulate_stats(tunnels.mutable_stats(), delta);
  publish_stats_delta(options.metrics, delta, dijkstra_calls);
}

}  // namespace megate::topo
