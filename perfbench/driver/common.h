// Shared pieces of the benchmark driver: run options, the seeded input
// generator's RNG, the per-workload result every workload fills in, and
// small helpers over the library's public metrics registry.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/fingerprint.h"
#include "obs/metrics.h"
#include "trace.h"

namespace perfbench {

/// Taken during static initialization: the first set-up repetition is
/// timed from process start.
extern const Clock::time_point g_process_start;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 15;
  bool trace = false;
  int nproc = 1;
};

/// splitmix64: the generator's only source of randomness, seeded from
/// --seed, so the same seed always yields the same inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t Next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform integer in [lo, hi].
  int Uniform(int lo, int hi) {
    return lo + static_cast<int>(Next() % static_cast<std::uint64_t>(hi - lo + 1));
  }
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(Next() % i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// One per-layer metric of a traced run. `measured` is false where the
/// workload does not exercise the layer (the value is then 0) or where the
/// number cannot be read from outside the library; `how` says which.
struct LayerMetric {
  std::string name;
  std::string unit;
  double value = 0.0;
  bool measured = true;
  std::string how;
};

inline double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

inline double Sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

/// Latency samples of the timed ops. The timed phase runs one op list
/// several times ("rounds"). The hosts this benchmark runs on have
/// contention phases that slow a core by up to 2x for seconds at a time, so
/// the samples are reduced to one value per op or per round before any
/// metric is taken (see Reduction).
class Samples {
 public:
  void BeginRound() {
    round_ = static_cast<int>(round_s_.size());
    round_t0_ = Clock::now();
  }
  void EndRound() {
    round_s_.push_back(SecondsSince(round_t0_));
    round_ = -1;
  }
  /// `op` is the op's identity: every run of the same op shares it.
  void Add(int op, double seconds) {
    ops_.push_back(Sample{op, round_, seconds});
  }

  std::size_t size() const { return ops_.size(); }
  const std::vector<double>& round_seconds() const { return round_s_; }
  /// Ops in one round (the first).
  int round_ops() const { return static_cast<int>(Round(0).size()); }

  /// For rounds of distinct ops: one value per op of a round, sorted. Each
  /// is the op's fastest run, or with `median` its median run.
  std::vector<double> PerOp(bool median) const {
    std::map<int, std::vector<double>> runs;
    for (const Sample& s : ops_) runs[s.op].push_back(s.seconds);
    std::vector<double> out;
    for (const Sample& s : ops_) {
      if (s.round != 0) continue;
      const std::vector<double>& v = runs[s.op];
      out.push_back(median ? Median(v) : *std::min_element(v.begin(), v.end()));
    }
    std::sort(out.begin(), out.end());
    return out;
  }

  /// Round r's raw latencies, sorted.
  std::vector<double> Round(int r) const {
    std::vector<double> out;
    for (const Sample& s : ops_) {
      if (s.round == r) out.push_back(s.seconds);
    }
    std::sort(out.begin(), out.end());
    return out;
  }
  /// The raw latencies of the fastest rounds (by summed op latency),
  /// pooled until there are at least `min_samples`; sorted.
  std::vector<double> FastestRounds(std::size_t min_samples) const {
    std::vector<std::pair<double, int>> by_sum;
    for (int r = 0; r < static_cast<int>(round_s_.size()); ++r) {
      by_sum.push_back({Sum(Round(r)), r});
    }
    std::sort(by_sum.begin(), by_sum.end());
    std::vector<double> pool;
    for (const auto& [sum, r] : by_sum) {
      if (pool.size() >= min_samples) break;
      const std::vector<double> raw = Round(r);
      pool.insert(pool.end(), raw.begin(), raw.end());
    }
    std::sort(pool.begin(), pool.end());
    return pool;
  }

 private:
  struct Sample {
    int op;
    int round;  // -1 outside the rounds
    double seconds;
  };
  std::vector<Sample> ops_;
  std::vector<double> round_s_;
  int round_ = -1;
  Clock::time_point round_t0_;
};

/// How a workload's samples become its latency and throughput metrics.
enum class Reduction {
  /// Every op of a round is a distinct instance of deterministic work:
  /// each op counts at its fastest run, and throughput is one round's ops
  /// over the sum of those.
  kFastestRunPerOp,
  /// As above, but each op counts at its median run: serve-burst, where
  /// the race between a key's two requests is part of what is measured,
  /// and the fastest run would keep only the rounds the race went well.
  kMedianRunPerOp,
  /// Every round asks the same ops, and an op repeats many times in a run
  /// (serve-warm's (key, kind) pairs): the raw latencies of the fastest
  /// rounds are pooled, enough of them for the tail, and p50, tail and
  /// throughput are taken over the pool.
  kFastestRounds,
};

struct WorkloadResult {
  long attempted = 0;
  long failed = 0;
  /// Output-check failures; any entry makes the run incorrect.
  std::vector<std::string> failures;

  /// Wall time of each set-up repetition; setup_s is the fastest. The
  /// first runs before the timed phase and is timed from process start; the
  /// others run after it, so the fastest comes from either end of the run.
  std::vector<double> setup_s;
  Samples timed;
  Reduction reduction = Reduction::kFastestRunPerOp;
  /// Mean simulated training throughput (samples/s) of the plans the
  /// workload produced; mean episode goodput on scenario-churn.
  double plan_sim_throughput = 0.0;

  /// Digest and one-line shape of the generated inputs.
  std::string inputs_digest;
  std::string inputs_shape;
  /// Thread counts and other context printed beside the metrics.
  std::map<std::string, std::string> info;
  /// Output digests and deterministic counts: identical for identical
  /// (source, workload, seed, seconds), checked across runs by the ledger.
  std::map<std::string, std::string> ledger;

  // --- traced runs only ---
  std::vector<LayerMetric> layers;
  /// The same ops run again with spans on; their reduced op time over the
  /// untraced one is the tracing overhead.
  Samples traced;
  std::map<std::string, Tracer::Totals> spans;
};

inline std::string Hex(std::uint64_t v) { return dapple::FingerprintToString(v); }

inline std::string Digest(const std::string& text) {
  return Hex(dapple::Fingerprint64().Mix(text).digest());
}

inline std::int64_t CounterValue(const char* name) {
  return dapple::obs::MetricsRegistry::Global().counter(name).value();
}

inline double HistogramSum(const char* name) {
  return dapple::obs::MetricsRegistry::Global().histogram(name).sum();
}

inline std::int64_t HistogramCount(const char* name) {
  return dapple::obs::MetricsRegistry::Global().histogram(name).count();
}

inline double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Per-call mean in milliseconds of a span, 0 when it never ran.
inline double MeanMs(const std::map<std::string, Tracer::Totals>& spans, const char* name,
                     bool self = false) {
  const auto it = spans.find(name);
  if (it == spans.end() || it->second.calls == 0) return 0.0;
  return 1e3 * (self ? it->second.self_s : it->second.total_s) /
         static_cast<double>(it->second.calls);
}

WorkloadResult RunPlanCold(const Options& options);
WorkloadResult RunServeWarm(const Options& options);
WorkloadResult RunServeBurst(const Options& options);
WorkloadResult RunScenarioChurn(const Options& options);

/// The traced run's model/topo metrics, shared by every workload: per-call
/// means of the ModelByName and MakeConfig spans.
void AddModelTopoLayers(WorkloadResult& result);

}  // namespace perfbench
