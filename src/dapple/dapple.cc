#include "dapple/dapple.h"

#include <utility>

namespace dapple {

Session::Session(model::ModelProfile model, topo::Cluster cluster)
    : model_(std::move(model)), cluster_(std::move(cluster)) {}

model::ProfileReport Session::Profile() const {
  model::Profiler profiler(cluster_.device());
  return profiler.Report(model_);
}

planner::PlanResult Session::Plan(long global_batch_size,
                                  planner::PlannerOptions options) const {
  options.global_batch_size = global_batch_size;
  return runtime::PlanPipeline(model_, cluster_, options, runtime::RunOptionsFor(options));
}

runtime::IterationReport Session::Run(const planner::ParallelPlan& plan,
                                      long global_batch_size,
                                      runtime::BuildOptions options) const {
  options.global_batch_size = global_batch_size;
  runtime::PipelineExecutor executor(model_, cluster_, plan, options);
  return executor.Run();
}

runtime::IterationReport Session::PlanAndRun(long global_batch_size) const {
  const planner::PlanResult planned = Plan(global_batch_size);
  return Run(planned.plan, global_batch_size);
}

}  // namespace dapple
