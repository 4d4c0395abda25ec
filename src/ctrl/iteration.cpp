#include "megate/ctrl/iteration.h"

#include <algorithm>
#include <optional>

#include "megate/obs/span.h"
#include "megate/util/stopwatch.h"

namespace megate::ctrl {
namespace {

/// Runs `layer` under span `name` (none for a null name or registry) and
/// returns its wall seconds.
template <typename Layer>
double timed(obs::MetricsRegistry* reg, const char* name, Layer&& layer) {
  std::optional<obs::Span> span;
  if (reg != nullptr && name != nullptr) span.emplace(*reg, name);
  const util::Stopwatch sw;
  layer();
  return sw.elapsed_seconds();
}

}  // namespace

ControlIteration::ControlIteration(KvTransport* db, te::MegaTeSolver& solver,
                                   const topo::TunnelOptions& repair,
                                   te::OnlineAllocator* allocator)
    : controller_(db),
      solver_(solver),
      repair_(repair),
      allocator_(allocator) {}

IterationResult ControlIteration::run(const te::TeProblem& problem,
                                      topo::TunnelSet& tunnels,
                                      const te::SolveContext& ctx,
                                      const te::CheckOptions& copt) {
  obs::MetricsRegistry* reg = solver_.options().metrics;
  IterationResult r;
  r.wall_s = timed(reg, "ctrl.iteration", [&] {
    r.repair_s = timed(reg, "topo.repair_tunnels", [&] {
      topo::repair_tunnels(*problem.graph, tunnels, repair_);
    });
    r.solve_s = timed(reg, nullptr, [&] {  // the solver opens te.solve
      r.report = solver_.solve(problem, ctx);
    });
    r.check_s = timed(reg, "te.check_solution", [&] {
      r.check = te::check_solution(problem, r.report.solution, copt);
    });
    if (!r.check.ok) return;
    r.publish_s = timed(reg, nullptr, [&] {  // publish opens its span
      r.delta = publish(problem, r.report.solution);
    });
    if (allocator_ == nullptr) return;
    r.rebase_s = timed(reg, "te.online.rebase", [&] {
      allocator_->rebase(problem, r.report.solution);
    });
  });
  if (reg != nullptr) {
    const double layers =
        r.repair_s + r.solve_s + r.check_s + r.publish_s + r.rebase_s;
    reg->histogram("ctrl.iteration.unattributed_s")
        .observe(std::max(0.0, r.wall_s - layers));
  }
  return r;
}

PublishResult ControlIteration::publish(const te::TeProblem& problem,
                                        const te::TeSolution& plan) {
  PublishResult p;
  timed(solver_.options().metrics, "ctrl.publish_solution", [&] {
    p.version = controller_.publish_solution(problem, plan);
  });
  p.upserts = controller_.last_publish_upserts();
  p.erases = controller_.last_publish_erases();
  p.bytes = controller_.last_publish_bytes();
  return p;
}

}  // namespace megate::ctrl
