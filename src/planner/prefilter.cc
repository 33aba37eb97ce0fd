#include "planner/prefilter.h"

#include <limits>

#include "sim/batch.h"

namespace dapple::planner {

RankingResult RankCandidates(const LatencyEstimator& estimator,
                             const std::vector<RankingCandidate>& candidates,
                             const std::function<double(int)>& simulate,
                             const sim::PrefilterOptions& options) {
  RankingResult result;
  {
    sim::BatchRunner scorer({.threads = options.threads});
    result.scores = scorer.Map<double>(
        static_cast<int>(candidates.size()), [&](int i) {
          const RankingCandidate& c = candidates[static_cast<std::size_t>(i)];
          const PlanEstimate e = estimator.Estimate(c.plan, c.global_batch_size);
          return e.feasible ? e.latency : std::numeric_limits<double>::infinity();
        });
  }

  result.sim = sim::PrefilterBatch(result.scores, simulate, options);
  result.best = result.sim.best;
  return result;
}

}  // namespace dapple::planner
