// Shared helpers for the per-table/per-figure benchmark binaries. Each
// binary regenerates one table or figure from the paper's evaluation
// (SVI); these helpers wrap the plan-then-simulate loop and the paper-vs-
// measured presentation.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "dapple/dapple.h"

namespace dapple::bench {

/// One evaluated configuration: the planner's choice plus the simulated
/// iteration and both DP baselines.
struct EvalRow {
  std::string model;
  std::string config;
  long global_batch_size = 0;
  planner::PlanResult planned;
  runtime::IterationReport hybrid;
  obs::IterationReport report;  // full observability report of the hybrid run
  planner::DataParallelEstimate dp_no_overlap;
  planner::DataParallelEstimate dp_overlap;
};

/// Plans and simulates `model` on `cluster`, with DP baselines.
EvalRow Evaluate(const model::ModelProfile& model, const topo::Cluster& cluster,
                 long global_batch_size);

/// One configuration for EvaluateBatch; model and cluster are borrowed and
/// must outlive the call.
struct EvalSpec {
  const model::ModelProfile* model = nullptr;
  const topo::Cluster* cluster = nullptr;
  long global_batch_size = 0;
};

/// Evaluates every spec across a sim::BatchRunner (`sim_threads`: 1 =
/// inline serial, 0 = hardware concurrency). Returned rows match `specs`
/// by index and are recorded into the bench JSON in that order regardless
/// of scheduling, so the archived trajectory stays byte-stable at every
/// thread count.
std::vector<EvalRow> EvaluateBatch(const std::vector<EvalSpec>& specs, int sim_threads = 1);

/// The cluster the paper uses for a config letter with 16 devices total
/// ('A' = 2x8, 'B'/'C' = 16x1).
topo::Cluster SixteenDeviceConfig(char config);

/// Prints the standard header naming the experiment and its paper anchor.
void PrintHeader(const std::string& title, const std::string& paper_anchor);

/// Prints a paper-vs-measured comparison line.
void PrintComparison(const std::string& metric, const std::string& paper,
                     const std::string& measured);

/// Per-pass wall seconds over several timed regions of one workload.
struct RegionTiming {
  double best = 0.0;   // fastest region's seconds per pass
  double worst = 0.0;  // slowest region's seconds per pass

  /// (worst - best) / best: how far the regions disagreed.
  double Spread() const { return best > 0.0 ? (worst - best) / best : 0.0; }
};

/// Times `trials` rounds of regions, one region per pass in `passes`. One
/// untimed warmup of each pass first fills thread-local arenas and
/// allocator caches; each region then repeats its pass until at least
/// `min_region_s` seconds have elapsed, long enough that timer resolution
/// and a short scheduler hiccup cannot decide a comparison.
/// Each round times the passes back to back, so a slow phase of the host
/// lands on every row of a comparison alike. Ratio gates use `best`, the
/// standard low-noise estimator for deterministic CPU-bound work, and
/// print the spread next to it. Result i belongs to passes[i].
std::vector<RegionTiming> TimeRegions(int trials, double min_region_s,
                                      const std::vector<std::function<void()>>& passes);

// Every PrintHeader / PrintComparison / Evaluate call is also recorded; when
// DAPPLE_BENCH_JSON_DIR is set, the process writes the accumulated record to
// $DAPPLE_BENCH_JSON_DIR/BENCH_<binary>.json at exit — the machine-readable
// counterpart of the stdout tables, with the full iteration report embedded
// per evaluated row.

}  // namespace dapple::bench
