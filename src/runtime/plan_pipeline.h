// The one planning pipeline every caller (Session, serve, CLI, elastic
// replans, co-scheduler) runs: the DAPPLE DP (§IV), then a simulator re-rank
// of its alternatives and a boundary refine, each candidate simulated under
// the build it will run with — a GPipe, 2BP or V-shape plan is ranked as
// itself, not as 1F1B.
#pragma once

#include "model/profile.h"
#include "planner/dp_planner.h"
#include "runtime/graph_builder.h"
#include "topo/cluster.h"

namespace dapple::runtime {

/// The only mapping from a plan request to the build its plans run with:
/// global batch, schedule family, recompute everywhere (latency.recompute
/// or RecomputePolicy::kAll; per-stage flags ride the plan), recompute
/// overhead, AllReduce overlap and the effective memory cap (memory_cap,
/// else latency.memory_cap).
BuildOptions RunOptionsFor(const planner::PlannerOptions& options);

/// Runs the DP (under kOff, retried with recompute stamped on every stage
/// when nothing fits), simulates each alternative in parallel on
/// ThreadPool::Shared() (so never call it from that pool's workers), keeps
/// the fastest, then moves stage boundaries one layer while that helps (at
/// most 8 rounds). Simulations build with `run` at the request's batch; an
/// OOM counts as +inf. Sets simulated_latency; throws when nothing fits.
planner::PlanResult PlanPipeline(const model::ModelProfile& model, const topo::Cluster& cluster,
                                 planner::PlannerOptions options, const BuildOptions& run);

}  // namespace dapple::runtime
