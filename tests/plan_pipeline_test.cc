// The one planning pipeline (runtime::PlanPipeline) and its one options
// mapping (runtime::RunOptionsFor): every caller ranks plans under the
// build they will run with, so a non-1F1B family is re-ranked as itself and
// an elastic replan lands on the plan `dapple plan` would choose for the
// same degraded cluster.
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "dapple/dapple.h"

namespace dapple::runtime {
namespace {

TimeSec SimulatedMakespan(const model::ModelProfile& model, const topo::Cluster& cluster,
                          const planner::ParallelPlan& plan, const BuildOptions& run) {
  const BuiltPipeline built = GraphBuilder(model, cluster, plan, run).Build();
  const sim::SimResult result = sim::Engine::Run(built.graph, built.engine_options);
  return result.AnyOom() ? std::numeric_limits<TimeSec>::infinity() : result.makespan;
}

TEST(RunOptionsFor, CarriesEveryRunAffectingField) {
  planner::PlannerOptions options;
  options.global_batch_size = 96;
  options.latency.schedule_kind = ScheduleKind::kVMin;
  options.latency.recompute_overhead = 0.25;
  options.latency.overlap_allreduce = false;
  options.latency.memory_cap = 3_GiB;
  BuildOptions run = RunOptionsFor(options);
  EXPECT_EQ(run.global_batch_size, 96);
  EXPECT_EQ(run.schedule.kind, ScheduleKind::kVMin);
  EXPECT_FALSE(run.schedule.recompute);
  EXPECT_EQ(run.schedule.recompute_overhead, 0.25);
  EXPECT_FALSE(run.overlap_allreduce);
  EXPECT_EQ(run.memory_cap, 3_GiB);

  // The planner-level cap overrides the estimator's, as in the search.
  options.memory_cap = 2_GiB;
  EXPECT_EQ(RunOptionsFor(options).memory_cap, 2_GiB);

  // Recompute everywhere: the global latency flag or the kAll policy. kAuto
  // decides per stage, and those flags ride the plan instead.
  options.recompute = planner::RecomputePolicy::kAuto;
  EXPECT_FALSE(RunOptionsFor(options).schedule.recompute);
  options.recompute = planner::RecomputePolicy::kAll;
  EXPECT_TRUE(RunOptionsFor(options).schedule.recompute);
  options.recompute = planner::RecomputePolicy::kOff;
  options.latency.recompute = true;
  EXPECT_TRUE(RunOptionsFor(options).schedule.recompute);

  // Defaults map to the default build.
  const BuildOptions defaults = RunOptionsFor(planner::PlannerOptions{});
  const BuildOptions plain;
  EXPECT_EQ(defaults.schedule.kind, plain.schedule.kind);
  EXPECT_EQ(defaults.schedule.recompute, plain.schedule.recompute);
  EXPECT_EQ(defaults.schedule.recompute_overhead, plain.schedule.recompute_overhead);
  EXPECT_EQ(defaults.overlap_allreduce, plain.overlap_allreduce);
  EXPECT_EQ(defaults.memory_cap, plain.memory_cap);
}

TEST(PlanPipeline, VHalfPlansAreRankedUnderVHalf) {
  const model::ModelProfile model = model::MakeGnmt16();
  const topo::Cluster cluster = topo::MakeConfigA(2);
  constexpr long kGbs = 128;
  planner::PlannerOptions options;
  options.latency.schedule_kind = ScheduleKind::kVHalf;
  const planner::PlanResult planned = Session(model, cluster).Plan(kGbs, options);

  options.global_batch_size = kGbs;
  const BuildOptions run = RunOptionsFor(options);
  ASSERT_EQ(run.schedule.kind, ScheduleKind::kVHalf);
  const TimeSec winner = SimulatedMakespan(model, cluster, planned.plan, run);
  ASSERT_TRUE(std::isfinite(winner));
  EXPECT_EQ(planned.simulated_latency, winner);
  ASSERT_GT(planned.alternatives.size(), 1u);
  for (const auto& [alternative, estimate] : planned.alternatives) {
    EXPECT_LE(planned.simulated_latency, SimulatedMakespan(model, cluster, alternative, run))
        << "alternative " << alternative.ToString() << " (split "
        << alternative.SplitString() << ") beats the winner "
        << planned.plan.ToString() << " under V-Half";
  }
}

TEST(PlanPipeline, ElasticReplanMatchesSessionPlanOnTheDrainedCluster) {
  // On the drained cluster the DP's analytic winner for this job differs
  // from the simulator-refined plan, so an unchecked replan would not match.
  const model::ModelProfile model = model::MakeAmoebaNet36();
  const topo::Cluster cluster = topo::MakeConfigA(2);
  constexpr long kGbs = 256;
  // Any healthy starting plan will do; the replan is what is compared.
  planner::ParallelPlan initial;
  initial.model = model.name();
  const int half = model.num_layers() / 2;
  initial.stages.push_back({0, half, topo::DeviceSet::Range(0, 8)});
  initial.stages.push_back({half, model.num_layers(), topo::DeviceSet::Range(8, 8)});

  // Device 12 lives on server 1; its crash drains the whole server.
  const fault::FaultScript script = fault::ParseFaultScript("crash device=12 at=1\n");
  fault::FaultOptions options;
  options.build.global_batch_size = kGbs;
  const fault::FaultReport report = fault::RunFaultExperiment(
      model, cluster, initial, script, fault::RecoveryPolicy::kElasticReplan, options);
  ASSERT_EQ(report.replans, 1);

  const fault::DegradedCluster drained =
      fault::MakeDegradedCluster(cluster, fault::StateAt(script, cluster, 2.0));
  ASSERT_TRUE(drained.feasible);
  ASSERT_EQ(drained.cluster.num_servers(), 1);
  const planner::ParallelPlan session_plan =
      Session(model, drained.cluster).Plan(kGbs, options.planner).plan;
  EXPECT_EQ(report.final_plan, session_plan.ToString());
}

}  // namespace
}  // namespace dapple::runtime
