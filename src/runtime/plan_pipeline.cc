#include "runtime/plan_pipeline.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"
#include "sim/engine.h"

namespace dapple::runtime {

namespace {

/// The latency options with the planner cap and kAll folded in (as Evaluate).
planner::LatencyOptions SearchLatencyOptions(const planner::PlannerOptions& options) {
  planner::LatencyOptions latency = options.latency;
  if (options.memory_cap > 0) latency.memory_cap = options.memory_cap;
  if (options.recompute == planner::RecomputePolicy::kAll) latency.recompute = true;
  return latency;
}

}  // namespace

BuildOptions RunOptionsFor(const planner::PlannerOptions& options) {
  const planner::LatencyOptions latency = SearchLatencyOptions(options);
  return {.global_batch_size = options.global_batch_size,
          .schedule = {.kind = latency.schedule_kind,
                       .recompute = latency.recompute,
                       .recompute_overhead = latency.recompute_overhead},
          .memory_cap = latency.memory_cap,
          .overlap_allreduce = latency.overlap_allreduce};
}

planner::PlanResult PlanPipeline(const model::ModelProfile& model, const topo::Cluster& cluster,
                                 planner::PlannerOptions options, const BuildOptions& run) {
  planner::PlanResult result;
  try {
    result = planner::DapplePlanner(model, cluster, options).Plan();
  } catch (const Error&) {
    // Nothing fits without recomputation: retry in the paper's Table VIII
    // mode. kAuto already ran its own per-stage fallback; kAll recomputed.
    if (options.latency.recompute || options.recompute != planner::RecomputePolicy::kOff) {
      throw;
    }
    options.latency.recompute = true;  // also for the refine's estimator
    result = planner::DapplePlanner(model, cluster, options).Plan();
    // The flags ride the plans, so a later build (dapple run, LoadPlan)
    // stashes checkpoints too instead of OOMing at the cap the retry met.
    for (planner::StagePlan& stage : result.plan.stages) stage.recompute = true;
    for (auto& alternative : result.alternatives) {
      for (planner::StagePlan& stage : alternative.first.stages) stage.recompute = true;
    }
    result.stats.recompute_stages = static_cast<int>(result.plan.stages.size());
  }

  BuildOptions build = run;
  build.global_batch_size = options.global_batch_size;
  auto simulate = [&](const planner::ParallelPlan& plan) -> TimeSec {
    const BuiltPipeline built = GraphBuilder(model, cluster, plan, build).Build();
    const sim::SimResult sim = sim::Engine::Run(built.graph, built.engine_options);
    return sim.AnyOom() ? std::numeric_limits<TimeSec>::infinity() : sim.makespan;
  };

  // Formula 1 ignores internal bubbles and can misorder plans within a few
  // percent of each other; one simulated iteration per candidate settles it.
  TimeSec best = std::numeric_limits<TimeSec>::infinity();
  if (result.alternatives.size() > 1) {
    std::vector<TimeSec> simulated(result.alternatives.size());
    ThreadPool::Shared().ParallelFor(result.alternatives.size(), [&](std::size_t i) {
      simulated[i] = simulate(result.alternatives[i].first);
    });
    // The first fastest wins ties, keeping the DP's analytic order.
    const auto i = static_cast<std::size_t>(
        std::min_element(simulated.begin(), simulated.end()) - simulated.begin());
    best = simulated[i];
    result.plan = result.alternatives[i].first;
    result.estimate = result.alternatives[i].second;
  } else {
    best = simulate(result.plan);
  }

  // The DP memoizes on (boundary, allocation), collapsing near-identical
  // splits, so the exact optimum (e.g. GNMT's 9:7 vs 10:6) may be a
  // one-layer shift away.
  if (result.plan.num_stages() > 1 && std::isfinite(best)) {
    const planner::LatencyEstimator estimator(model, cluster, SearchLatencyOptions(options));
    bool improved = true;
    for (int round = 0; improved && round < 8; ++round) {
      improved = false;
      for (std::size_t b = 0; !improved && b + 1 < result.plan.stages.size(); ++b) {
        for (int delta : {-1, +1}) {
          planner::ParallelPlan candidate = result.plan;
          planner::StagePlan& lhs = candidate.stages[b];
          planner::StagePlan& rhs = candidate.stages[b + 1];
          const int boundary = lhs.layer_end + delta;
          if (boundary <= lhs.layer_begin || boundary >= rhs.layer_end) continue;
          lhs.layer_end = boundary;
          rhs.layer_begin = boundary;
          const TimeSec simulated = simulate(candidate);
          if (simulated >= best) continue;
          best = simulated;
          result.estimate = estimator.Estimate(candidate, options.global_batch_size);
          result.plan = std::move(candidate);
          improved = true;
          break;
        }
      }
    }
  }
  result.simulated_latency = best;
  return result;
}

}  // namespace dapple::runtime
