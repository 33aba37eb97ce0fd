#include "sim/prefilter.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace dapple::sim {

namespace {

/// Finite-scored indices sorted by (score, index) ascending.
std::vector<int> SortedFinite(const std::vector<double>& scores) {
  std::vector<int> order;
  order.reserve(scores.size());
  for (int i = 0; i < static_cast<int>(scores.size()); ++i) {
    if (std::isfinite(scores[i])) order.push_back(i);
  }
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (scores[static_cast<std::size_t>(a)] != scores[static_cast<std::size_t>(b)]) {
      return scores[static_cast<std::size_t>(a)] < scores[static_cast<std::size_t>(b)];
    }
    return a < b;
  });
  return order;
}

}  // namespace

std::vector<int> SelectWithinBand(const std::vector<double>& scores, double band,
                                  int min_keep) {
  const std::vector<int> order = SortedFinite(scores);
  std::vector<int> selected;
  if (order.empty()) return selected;

  const double cut = band * scores[static_cast<std::size_t>(order.front())];
  for (const int i : order) {
    if (scores[static_cast<std::size_t>(i)] <= cut ||
        static_cast<int>(selected.size()) < min_keep) {
      selected.push_back(i);
    } else {
      break;  // sorted: everything after is above the cut too
    }
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

PrefilterResult PrefilterBatch(const std::vector<double>& scores,
                               const std::function<double(int)>& simulate,
                               const PrefilterOptions& options) {
  PrefilterResult result;
  result.num_candidates = static_cast<int>(scores.size());
  const std::vector<int> order = SortedFinite(scores);

  BatchRunner runner({.threads = options.threads});
  // (index, value) pairs in simulation order; sorted by index at the end.
  std::vector<std::pair<int, double>> ran;

  auto run_span = [&](std::size_t begin, std::size_t end) {
    const int count = static_cast<int>(end - begin);
    const std::vector<double> values = runner.Map<double>(count, [&](int slot) {
      return simulate(order[begin + static_cast<std::size_t>(slot)]);
    });
    for (int slot = 0; slot < count; ++slot) {
      ran.emplace_back(order[begin + static_cast<std::size_t>(slot)],
                       values[static_cast<std::size_t>(slot)]);
    }
  };

  if (!options.enabled) {
    run_span(0, order.size());
  } else {
    // Phase 1: probe the best-scored candidates to anchor the cut.
    const std::size_t probe =
        std::min(order.size(), static_cast<std::size_t>(std::max(options.probe, 1)));
    run_span(0, probe);
    double best_sim = std::numeric_limits<double>::infinity();
    for (const auto& [idx, value] : ran) best_sim = std::min(best_sim, value);

    // Phase 2: everything that could still beat the probe's best. The
    // order is score-ascending, so the survivors are a prefix.
    result.cutoff = kAnalyticOverSimCommTolerance * best_sim;
    std::size_t keep_end = probe;
    while (keep_end < order.size() &&
           scores[static_cast<std::size_t>(order[keep_end])] <= result.cutoff) {
      ++keep_end;
    }
    run_span(probe, keep_end);
  }

  std::sort(ran.begin(), ran.end());
  result.simulated.reserve(ran.size());
  result.values.reserve(ran.size());
  for (const auto& [idx, value] : ran) {
    result.simulated.push_back(idx);
    result.values.push_back(value);
    if (value < result.best_value) {
      result.best_value = value;
      result.best = idx;
    }
  }
  result.num_skipped = result.num_candidates - static_cast<int>(ran.size());

  auto& metrics = obs::MetricsRegistry::Global();
  metrics.counter("prefilter.sweeps").Increment();
  metrics.counter("prefilter.candidates").Increment(result.num_candidates);
  metrics.counter("prefilter.simulated").Increment(static_cast<int>(ran.size()));
  metrics.counter("prefilter.skipped").Increment(result.num_skipped);
  return result;
}

}  // namespace dapple::sim
