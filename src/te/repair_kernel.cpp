#include "megate/te/repair_kernel.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

namespace megate::te {

void RepairKernel::reset(std::span<const double> capacity) {
  capacity_.assign(capacity.begin(), capacity.end());
  demands_.clear();
  x_.clear();
  tunnel_links_.clear();
  pair_tunnels_.assign(1, 0);
  usage_.assign(capacity_.size(), 0.0);
  scale_.assign(capacity_.size(), 0.0);
  residual_.assign(capacity_.size(), 0.0);
}

std::size_t RepairKernel::begin_pair(std::span<const double> flow_demands) {
  const std::size_t p = demands_.add_row();
  demands_.extend(flow_demands);
  return p;
}

void RepairKernel::add_tunnel(std::span<const topo::EdgeId> links) {
  tunnel_links_.add_row();
  tunnel_links_.extend(links);
}

void RepairKernel::finish_pair() {
  const std::size_t p = demands_.num_rows() - 1;
  const std::size_t tunnels = tunnel_links_.num_rows() - pair_tunnels_.back();
  if (tunnels == 0) {
    throw std::logic_error("RepairKernel pair closed with no tunnels");
  }
  pair_tunnels_.push_back(tunnel_links_.num_rows());
  x_.add_row();
  x_.extend_fill(demands_.row_size(p) * tunnels, 0.0);
}

void RepairKernel::accumulate_usage() {
  std::fill(usage_.begin(), usage_.end(), 0.0);
  for (std::size_t p = 0; p < num_pairs(); ++p) {
    const std::size_t t0 = pair_tunnels_[p];
    const std::size_t nt = pair_tunnels_[p + 1] - t0;
    const std::size_t nf = demands_.row_size(p);
    const std::span<const double> xp = x_.row(p);
    double* sums = tunnel_sums_.data() + t0;
    std::fill(sums, sums + nt, 0.0);
    // Flow-major accumulation, matching the original TealSolver loop — the
    // bit-identity contract pins this summation order.
    for (std::size_t i = 0; i < nf; ++i) {
      for (std::size_t a = 0; a < nt; ++a) {
        sums[a] += xp[i * nt + a];
      }
    }
    for (std::size_t a = 0; a < nt; ++a) {
      for (topo::EdgeId e : tunnel_links_.row(t0 + a)) usage_[e] += sums[a];
    }
  }
}

RepairStats RepairKernel::run(std::size_t iterations) {
  if (iterations == 0) {
    throw std::invalid_argument("RepairKernel::run needs >= 1 iteration");
  }
  const std::size_t num_links = capacity_.size();
  const std::size_t pairs = num_pairs();
  tunnel_sums_.assign(tunnel_links_.num_rows(), 0.0);

  for (std::size_t iter = 0; iter < iterations; ++iter) {
    accumulate_usage();
    // Per-link multiplicative projection factor — soft (damped) on early
    // iterations, hard on the last for feasibility.
    const bool last = iter + 1 == iterations;
    for (std::size_t e = 0; e < num_links; ++e) {
      const double cap = capacity_[e];
      if (cap <= 0.0) {
        scale_[e] = usage_[e] > 0.0 ? 0.0 : 1.0;
        continue;
      }
      if (usage_[e] > cap) {
        const double hard = cap / usage_[e];
        scale_[e] = last ? hard : 0.5 * (1.0 + hard);  // damped step
      } else {
        scale_[e] = 1.0;
      }
    }
    // Scale each tunnel column by its min link factor.
    for (std::size_t p = 0; p < pairs; ++p) {
      const std::size_t t0 = pair_tunnels_[p];
      const std::size_t nt = pair_tunnels_[p + 1] - t0;
      const std::size_t nf = demands_.row_size(p);
      const std::span<double> xp = x_.row(p);
      for (std::size_t a = 0; a < nt; ++a) {
        double factor = 1.0;
        for (topo::EdgeId e : tunnel_links_.row(t0 + a)) {
          factor = std::min(factor, scale_[e]);
        }
        if (factor >= 1.0) continue;
        for (std::size_t i = 0; i < nf; ++i) xp[i * nt + a] *= factor;
      }
    }

    if (last) break;
    // --- refill step (non-final iterations) ----------------------------
    // The projection frees capacity other pairs could use; redistribute
    // each pair's unallocated remainder against the global residual,
    // ascending tunnel order, pro-rata across the pair's flows. The
    // original refill sums tunnels tunnel-major (i inner), unlike
    // accumulate_usage — preserved exactly.
    std::fill(usage_.begin(), usage_.end(), 0.0);
    for (std::size_t p = 0; p < pairs; ++p) {
      const std::size_t t0 = pair_tunnels_[p];
      const std::size_t nt = pair_tunnels_[p + 1] - t0;
      const std::size_t nf = demands_.row_size(p);
      const std::span<const double> xp = x_.row(p);
      for (std::size_t a = 0; a < nt; ++a) {
        double tunnel_sum = 0.0;
        for (std::size_t i = 0; i < nf; ++i) tunnel_sum += xp[i * nt + a];
        for (topo::EdgeId e : tunnel_links_.row(t0 + a)) {
          usage_[e] += tunnel_sum;
        }
      }
    }
    for (std::size_t e = 0; e < num_links; ++e) {
      residual_[e] = capacity_[e] - usage_[e];
    }
    // The residual walk, in pair order: each pair's per-flow shortfall is
    // granted onto its tunnels as the residual allows.
    for (std::size_t p = 0; p < pairs; ++p) {
      const std::size_t t0 = pair_tunnels_[p];
      const std::size_t nt = pair_tunnels_[p + 1] - t0;
      const std::size_t nf = demands_.row_size(p);
      const std::span<double> xp = x_.row(p);
      const std::span<const double> dem = demands_.row(p);
      per_flow_.resize(nf);
      double unallocated = 0.0;
      for (std::size_t i = 0; i < nf; ++i) {
        double got = 0.0;
        for (std::size_t a = 0; a < nt; ++a) got += xp[i * nt + a];
        per_flow_[i] = std::max(0.0, dem[i] - got);
        unallocated += per_flow_[i];
      }
      if (unallocated <= 1e-12) continue;
      for (std::size_t a = 0; a < nt && unallocated > 1e-12; ++a) {
        double room = std::numeric_limits<double>::infinity();
        for (topo::EdgeId e : tunnel_links_.row(t0 + a)) {
          room = std::min(room, residual_[e]);
        }
        if (room <= 1e-12) continue;
        const double grant = std::min(room, unallocated);
        const double frac = grant / unallocated;
        for (std::size_t i = 0; i < nf; ++i) {
          const double add = per_flow_[i] * frac;
          xp[i * nt + a] += add;
          per_flow_[i] -= add;
        }
        for (topo::EdgeId e : tunnel_links_.row(t0 + a)) {
          residual_[e] -= grant;
        }
        unallocated -= grant;
      }
    }
  }

  // Final audit: recompute usage from the repaired tensor and report
  // headline stats.
  accumulate_usage();
  RepairStats stats;
  for (const double s : tunnel_sums_) stats.allocated_gbps += s;
  stats.feasible = true;
  for (std::size_t e = 0; e < num_links; ++e) {
    const double cap = capacity_[e];
    if (cap > 0.0) {
      stats.max_utilization = std::max(stats.max_utilization, usage_[e] / cap);
    }
    if (usage_[e] > cap * (1.0 + 1e-9) + 1e-12) stats.feasible = false;
  }
  return stats;
}

}  // namespace megate::te
