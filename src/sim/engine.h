// Deterministic discrete-event engine. Executes a TaskGraph over a set of
// serial resources (device compute engines, network channels):
//
//  - a task becomes ready when all its predecessors have completed;
//  - each resource runs at most one task at a time;
//  - among ready tasks queued on one resource, the engine picks the lowest
//    (priority, id) pair;
//  - simultaneous completions drain in (time, priority, id) order — the
//    completing task's priority, then its id as the final key. The key is
//    part of the engine's contract (pinned by sim_engine_test and the
//    determinism sweep), not an artifact of container iteration order:
//    which completion is processed first decides which successors reach
//    their resource's ready queue before the next dispatch.
//  - task memory effects are applied to per-device pools at start/end.
//
// Together the two explicit keys make every simulation exactly
// reproducible — byte-identical traces, reports and memory high-water
// marks on every host and at every sim::BatchRunner thread count.
//
// Two implementations honor the contract: Engine, the one production
// engine every caller runs, and RunReferenceEngine, a plain-container
// oracle kept only to check Engine against.
//
// This is the substitute for the paper's GPU testbed: schedule shape,
// bubbles, overlap and peak memory all emerge from the same dependency
// structure the real runtime has.
#pragma once

#include <vector>

#include "sim/graph.h"
#include "sim/memory.h"

namespace dapple::sim {

/// Execution interval of one task.
struct TaskRecord {
  TaskId id = kInvalidTask;
  TimeSec start = 0.0;
  TimeSec end = 0.0;
  bool executed = false;
  /// True once the task occupied its resource; a started-but-not-executed
  /// task was pinned by a zero-speed window (fail-stop fault) forever.
  bool started = false;
};

/// One breakpoint of a piecewise-constant resource speed function: the
/// resource runs at `speed` from `start` until the next segment (or
/// forever). Speed 0 models a fail-stop crash: work in flight makes no
/// further progress.
struct SpeedSegment {
  TimeSec start = 0.0;
  double speed = 1.0;
};

/// Time-varying speed of one resource. Before the first segment the
/// resource runs at 1.0 — task durations are "work" at unit speed, so a
/// fault-free profile reproduces the fixed-duration engine exactly.
struct ResourceSpeedProfile {
  ResourceId resource = 0;
  std::vector<SpeedSegment> segments;  // sorted by start, strictly increasing
};

/// Wall-clock completion time of `work` units started at `start` under the
/// profile: integrates speed over time segment by segment, so a task
/// spanning a fault-window boundary is re-costed piecewise. Returns
/// +infinity when a trailing zero-speed segment pins the remaining work
/// forever.
TimeSec FinishTime(const ResourceSpeedProfile& profile, TimeSec start, TimeSec work);

/// Aggregate occupancy of one resource.
struct ResourceUsage {
  TimeSec busy = 0.0;           // sum of task durations
  TimeSec compute_busy = 0.0;   // busy time of compute-kind tasks only
  TimeSec first_start = 0.0;
  TimeSec last_end = 0.0;
  int tasks_executed = 0;
};

struct SimResult {
  TimeSec makespan = 0.0;
  std::vector<TaskRecord> records;      // indexed by TaskId
  std::vector<ResourceUsage> resources; // indexed by ResourceId
  std::vector<MemoryPool> pools;        // indexed by PoolId

  /// False when the run stalled: some tasks could never finish (a
  /// zero-speed resource pinned them, or their predecessors were pinned).
  /// Only possible with EngineOptions::allow_incomplete.
  bool completed = true;
  /// Number of tasks that never completed (0 when completed).
  int tasks_unfinished = 0;

  /// Fraction of the makespan a resource spent executing tasks.
  double Utilization(ResourceId r) const;

  /// Fraction of the makespan spent on compute kinds (FW/BW/RC/Apply);
  /// 1 - ComputeUtilization is the bubble-plus-comm fraction.
  double ComputeUtilization(ResourceId r) const;

  /// Largest peak across pools.
  Bytes MaxPeakMemory() const;

  /// True if any pool exceeded its capacity.
  bool AnyOom() const;
};

struct EngineOptions {
  /// Pool capacities (0 = unlimited), indexed by PoolId. Missing entries
  /// default to unlimited.
  std::vector<Bytes> pool_capacities;
  /// Always-resident bytes per pool (weights + optimizer state).
  std::vector<Bytes> pool_baselines;
  /// Piecewise-constant speed multipliers per resource (fault windows,
  /// degraded links). Resources without a profile run at 1.0 and keep the
  /// fixed-duration fast path bit-for-bit.
  std::vector<ResourceSpeedProfile> resource_speeds;
  /// Return a partial SimResult (completed = false) instead of throwing
  /// when some tasks can never finish — the fail-stop fault case, where a
  /// crashed device pins its tasks while independent work drains normally.
  bool allow_incomplete = false;
};

/// The production engine. Run flattens the graph into a structure-of-arrays
/// layout — contiguous per-field arrays indexed by TaskId, CSR successor
/// spans, and (priority, id) ready keys packed into one uint64 so heap
/// sifts compare a single integer — then drives the event loop over those
/// arrays instead of the ~100-byte Task records. The flatten buffers, the
/// ready heaps (one per resource), the completion heap and every
/// bookkeeping vector live in a thread-local arena that keeps its capacity
/// across runs, so each thread — each sim::BatchRunner worker in particular
/// — pays one linear copy and no per-event allocation once warmed, and
/// concurrent runs never share mutable state. (The returned SimResult still
/// allocates its records/pools — per run, not per event.)
class Engine {
 public:
  Engine() = delete;

  /// Runs the graph to completion. Throws dapple::Error on dependency
  /// cycles (some tasks can never become ready) unless
  /// options.allow_incomplete is set. Counts sim.runs.
  static SimResult Run(const TaskGraph& graph, EngineOptions options = {});
};

/// The differential oracle: ordered-set ready queues and a
/// std::priority_queue of completions, read straight off the TaskGraph.
/// Same (time, priority, id) completion contract as Engine; the
/// determinism sweep, the trace goldens and bench_sim_engine require the
/// two to be byte-identical. Allocation-heavy, so use Engine everywhere
/// else. Counts sim.reference_runs, not sim.runs.
SimResult RunReferenceEngine(const TaskGraph& graph, const EngineOptions& options = {});

}  // namespace dapple::sim
