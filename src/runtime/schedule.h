// Micro-batch scheduling (paper §III, §V-C, plus two families from the
// follow-up literature). Five schedules:
//
//   GPipe      — inject all M micro-batches' forwards, then run backwards;
//                activation memory grows O(M).
//   DAPPLE     — early backward scheduling (1F1B): inject K_i forwards at
//                stage i, then strictly interleave one-forward-one-backward
//                so each micro-batch's activations are freed as soon as
//                possible; peak memory is O(K_i), independent of M.
//   DAPPLE-2BP — 1F1B with the 2BP backward split: backward is emitted as a
//                backward-input half (propagates the gradient upstream) and
//                a deferred backward-weight half (accumulates the weight
//                gradient, gating the stage's AllReduce). The input half is
//                all downstream stages wait on, so the drain cascade runs on
//                half-backwards and the weight halves fill the slack.
//   V-Min      — V-shape building-block schedule (Qi et al., "Pipeline
//   V-Half       Parallelism with Controllable Memory"): the S pipeline
//                chunks fold onto ceil(S/2) device groups, group g hosting
//                chunk g (descending leg) and chunk S-1-g (ascending leg).
//                Per-chunk in-flight caps bound peak activation memory to
//                ~1/3 (V-Min) or ~1/2 (V-Half) of 1F1B's at equal devices.
//
// Warmup depth policies (§V-C): PA: K_i = min(S-i, D);
// PB: K_i = min(2(S-i)-1, D), where D is the memory-supported in-flight
// count. Every schedule is expressed as a per-device total order of
// FW/BW(/BWW) tasks, realized in the task graph with control edges — the
// same mechanism (TF control dependencies) the paper's runtime uses.
#pragma once

#include <string_view>
#include <vector>

namespace dapple::runtime {

enum class ScheduleKind {
  kDapple,
  kGPipe,
  kDappleSplitBw,  // 1F1B + 2BP backward-input/backward-weight split
  kVMin,           // V-shape, ~1/3 of 1F1B activation memory
  kVHalf,          // V-shape, ~1/2 of 1F1B activation memory
};
enum class WarmupPolicy { kPA, kPB };

const char* ToString(ScheduleKind kind);
const char* ToString(WarmupPolicy policy);

/// Every ScheduleKind, in enum order — for fuzzers, benches, and the
/// ToString/Parse fixed-point test, so adding a kind extends them all.
const std::vector<ScheduleKind>& AllScheduleKinds();

/// Case-insensitive parse accepting each kind's ToString name plus the
/// CLI-friendly aliases ("dapple", "gpipe", "dapple-2bp"/"2bp"/"split-bw",
/// "v-min"/"vmin", "v-half"/"vhalf"). Returns false on unknown names,
/// leaving *kind untouched; ToString(Parse(s)) is a fixed point for every
/// name ToString emits.
bool ParseScheduleKind(std::string_view name, ScheduleKind* kind);

/// True for the V-shape families, whose chunks fold onto device groups.
bool IsVShape(ScheduleKind kind);

/// The device group hosting pipeline chunk `stage`: min(stage, S-1-stage)
/// for the V shapes (group g runs chunks g and S-1-g), identity otherwise.
int HostStage(ScheduleKind kind, int stage, int num_stages);

/// Number of device groups a schedule actually occupies: ceil(S/2) for the
/// V shapes, S otherwise.
int NumGroups(ScheduleKind kind, int num_stages);

/// Per-chunk in-flight stash cap of a V schedule (before clamping by M):
/// ceil((S-c)/2) for V-Half, ceil((S-c)/3) for V-Min, both at least 1.
/// Group g's two caps sum to ~S/2+1 (V-Half) or ~S/3+1 (V-Min) on every
/// group, which is what bounds peak activation relative to 1F1B's S.
int VStashCap(ScheduleKind kind, int stage, int num_stages);

/// Default extra backward cost of re-computation, as a fraction of
/// *forward* time (the replayed forward pass). The paper's §II-A figure —
/// "recomputation brings ~20% extra backward overhead" — translates to 0.4
/// because the zoo's profiles (and the paper's workloads) have backward ≈ 2x
/// forward: 0.4 x F = 0.2 x B. Both the simulator's graph builder
/// (ScheduleOptions) and the analytic estimator (planner::LatencyOptions)
/// default to it, so capped plans tuned by one simulate alike under the
/// other (tests/memory_cap_test.cc).
inline constexpr double kRecomputeOverhead = 0.4;

struct ScheduleOptions {
  ScheduleKind kind = ScheduleKind::kDapple;
  WarmupPolicy warmup = WarmupPolicy::kPA;
  /// Re-computation on every stage: stash only stage-boundary activations,
  /// replay the forward inside backward. Per-stage recomputation rides
  /// planner::StagePlan::recompute; a stage recomputes when either is set.
  bool recompute = false;
  /// Extra backward cost as a fraction of *forward* time when recomputing
  /// (the replayed forward); see kRecomputeOverhead.
  double recompute_overhead = kRecomputeOverhead;
  /// Ablation hook: force the warmup depth K for every stage (still
  /// clamped by M and the memory limit). 0 = use the policy formulas.
  int warmup_override = 0;
};

/// One step of a device's execution order.
struct ScheduleStep {
  bool is_backward = false;
  int microbatch = 0;
  /// kDappleSplitBw only: true on the deferred backward-weight half
  /// (is_backward is also true there); false on backward-input steps and on
  /// every step of every other kind.
  bool weight_grad = false;
};

/// One step of a V-schedule device group's order: a chunk-tagged step
/// (the group interleaves two chunks, so each step names its chunk).
struct GroupStep {
  int stage = 0;
  bool is_backward = false;
  int microbatch = 0;
};

/// The deterministic V execution order plus the per-chunk in-flight depths
/// it realizes (the V analogue of BuiltPipeline::warmup_depths).
struct VSchedule {
  /// [group g][step]: the merged order of chunks g and S-1-g on group g.
  std::vector<std::vector<GroupStep>> group_orders;
  /// [chunk]: max micro-batches the order keeps stashed for that chunk.
  std::vector<int> in_flight;
};

/// Builds the V order as a unit-time greedy list schedule over chunk
/// states: a forward is ready when its upstream chunk has produced the
/// micro-batch and the chunk's stash is below its cap; a backward is ready
/// when its own forward and the downstream backward are done. Each tick,
/// every group issues at most one ready step, preferring backwards (frees a
/// stash) and the later-hosted chunk (unblocks the upstream backward chain
/// soonest); readiness is judged at tick start. The caps are non-increasing
/// in the chunk index, which makes the greedy order deadlock-free: the
/// oldest incomplete micro-batch always has a ready frontier step.
/// Deterministic in (kind, S, M); shared by the graph builder and the
/// validator so both sides derive the same expectation.
VSchedule BuildVSchedule(ScheduleKind kind, int num_stages, int num_micro_batches);

/// Warmup depth K_i for stage i of S stages (paper policies PA/PB),
/// clamped by the memory-supported in-flight count `memory_limit`
/// (0 = unlimited) and by M. GPipe's "warmup" is all of M; the V shapes
/// report min(cap, M) (their realized depths come from BuildVSchedule).
int WarmupDepth(const ScheduleOptions& options, int stage_index, int num_stages,
                int num_micro_batches, int memory_limit);

/// The per-device total order of forward/backward steps for stage i.
/// DAPPLE: F0..F_{K-1}, B0, F_K, B1, F_{K+1}, ..., trailing backwards.
/// DAPPLE-2BP: as DAPPLE, with each backward split into BI_m, F_{m+K},
/// BWW_m — the weight half yields to the next forward, filling the slot the
/// full backward would have blocked.
/// GPipe:  F0..F_{M-1}, B_{M-1}..B0 (reverse-order backward, LIFO in
/// activation stack order, per Fig. 3(a)).
/// V shapes: the projection of BuildVSchedule's group order onto chunk i
/// (useful for per-chunk inspection; devices follow the merged group order).
std::vector<ScheduleStep> StageOrder(const ScheduleOptions& options, int stage_index,
                                     int num_stages, int num_micro_batches,
                                     int memory_limit);

}  // namespace dapple::runtime
