// Benchmark driver: runs one workload in-process against the library's
// public API and prints its metrics as the last line of stdout.
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                    [--state-dir DIR] [--source-id ID]
//
// --trace 0 prints the end-to-end metrics of an untraced run. --trace 1
// runs the same ops untraced and then traced, prints the per-layer metrics
// and writes the traced-run report to DIR/trace_report.json (one entry per
// workload, merged across runs). With --source-id, output digests and
// deterministic counts are kept in DIR/ledger and a later run of the same
// source, workload, seed and length must reproduce them exactly.
//
// Any failed op or output check makes the run incorrect: the last line then
// carries "correct": false and no metrics, and the exit code is 1.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "obs/json.h"

namespace perfbench {

const Clock::time_point g_process_start = Clock::now();

namespace {

struct Workload {
  const char* name;
  WorkloadResult (*run)(const Options&);
};

const Workload kWorkloads[] = {
    {"plan-cold", RunPlanCold},
    {"serve-warm", RunServeWarm},
    {"serve-burst", RunServeBurst},
    {"scenario-churn", RunScenarioChurn},
};

/// Every per-layer metric, in report order. A workload that does not
/// exercise a layer reports it as 0 with measured = false.
const std::pair<const char*, const char*> kLayerCatalog[] = {
    {"planner.search_ms", "ms"},
    {"planner.enumerate_ms", "ms"},
    {"planner.evaluate_ms", "ms"},
    {"planner.merge_ms", "ms"},
    {"planner.subproblems", "count"},
    {"planner.candidates_evaluated", "count"},
    {"planner.candidates_pruned", "count"},
    {"planner.stage_cache_hit_ratio", "ratio"},
    {"dapple.rerank_refine_ms", "ms"},
    {"dapple.alternatives_simulated", "count"},
    {"runtime.graph_build_ms", "ms"},
    {"runtime.tasks_per_graph", "count"},
    {"sim.engine_ms", "ms"},
    {"sim.events_per_host_s", "1/s"},
    {"obs.report_ms", "ms"},
    {"obs.json_encode_ms", "ms"},
    {"obs.json_bytes", "bytes"},
    {"serve.parse_ms", "ms"},
    {"serve.handle_self_ms", "ms"},
    {"serve.cache_hit_ratio", "ratio"},
    {"serve.plans_per_unique_key", "ratio"},
    {"serve.batch_ms", "ms"},
    {"fault.replans_per_episode", "count"},
    {"fault.replan_ms", "ms"},
    {"fault.sim_ms", "ms"},
    {"scenario.stream_ms", "ms"},
    {"scenario.episode_ms", "ms"},
    {"model.profile_ms", "ms"},
    {"topo.cluster_ms", "ms"},
    {"trace.overhead_ratio", "ratio"},
};

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench_driver: %s\n"
               "usage: perfbench_driver --workload <plan-cold|serve-warm|serve-burst|"
               "scenario-churn> --seed N --seconds S --trace 0|1 [--state-dir DIR] "
               "[--source-id ID]\n",
               message);
  std::exit(2);
}

/// Nearest-rank value at quantile q of sorted samples.
double Quantile(const std::vector<double>& sorted, double q) {
  const std::size_t n = sorted.size();
  const std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return sorted[std::min(n, std::max<std::size_t>(rank, 1)) - 1];
}

struct Tail {
  double value = 0.0;
  double percentile = 0.0;
  long beyond = 0;
};

/// The highest percentile that still has at least ten samples beyond it,
/// capped at p99.9: past that the value is the host's scheduler, not the
/// program. Falls back to the maximum below 11 samples.
Tail TailLatency(std::vector<double> samples) {
  std::sort(samples.begin(), samples.end());
  const long n = static_cast<long>(samples.size());
  Tail tail;
  if (n < 11) {
    tail.value = samples.back();
    tail.percentile = 100.0;
    return tail;
  }
  double q = static_cast<double>(n - 10) / static_cast<double>(n);
  q = std::min(0.999, std::floor(q * 1000.0) / 1000.0);
  tail.value = Quantile(samples, q);
  tail.percentile = 100.0 * q;
  tail.beyond = n - static_cast<long>(std::ceil(q * static_cast<double>(n)));
  return tail;
}

/// Raw latencies pooled under Reduction::kFastestRounds: enough for a
/// p99.3 tail with ten samples beyond it.
constexpr std::size_t kPooledSamples = 1500;

/// The timed phase's latency and throughput metrics, reduced as the
/// workload asks (see Reduction), and a line saying how.
struct Timed {
  double ops_per_s = 0.0;
  double p50_s = 0.0;
  Tail tail;
  std::string how;
};

Timed Reduce(const Samples& samples, Reduction reduction) {
  Timed t;
  char how[256];
  const int rounds = static_cast<int>(samples.round_seconds().size());
  if (reduction != Reduction::kFastestRounds) {
    const bool median = reduction == Reduction::kMedianRunPerOp;
    const std::vector<double> per_op = samples.PerOp(median);
    t.ops_per_s = static_cast<double>(per_op.size()) / Sum(per_op);
    t.p50_s = Median(per_op);
    t.tail = TailLatency(per_op);
    std::snprintf(how, sizeof(how),
                  "%zu distinct ops, each at its %s of %d runs; tail is p%g with %ld ops "
                  "beyond it",
                  per_op.size(), median ? "median" : "fastest", rounds, t.tail.percentile,
                  t.tail.beyond);
  } else {
    const std::vector<double> pool = samples.FastestRounds(kPooledSamples);
    t.ops_per_s = static_cast<double>(pool.size()) / Sum(pool);
    t.p50_s = Median(pool);
    t.tail = TailLatency(pool);
    std::snprintf(how, sizeof(how),
                  "%zu raw op latencies pooled from the fastest %zu of %d rounds of %d ops; tail "
                  "is p%g with %ld samples beyond it",
                  pool.size(), pool.size() / static_cast<std::size_t>(samples.round_ops()),
                  rounds, samples.round_ops(), t.tail.percentile, t.tail.beyond);
  }
  t.how = how;
  return t;
}

/// The summed op time the tracing overhead compares, reduced as the
/// metrics are.
double TimedSeconds(const Samples& samples, Reduction reduction) {
  return reduction == Reduction::kFastestRounds
             ? Sum(samples.FastestRounds(kPooledSamples))
             : Sum(samples.PerOp(reduction == Reduction::kMedianRunPerOp));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResultLine(bool correct, const WorkloadResult& r, const std::vector<Metric>& metrics) {
  std::string line = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(std::max(1L, r.attempted)) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + Number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

/// Compares this run's ledger with the one a previous run of the same
/// source/workload/seed/length left, or records it. Returns mismatches.
std::vector<std::string> CheckLedger(const std::filesystem::path& path,
                                     const std::map<std::string, std::string>& ledger) {
  std::vector<std::string> mismatches;
  std::ifstream in(path);
  if (in) {
    std::map<std::string, std::string> previous;
    std::string key, value;
    while (in >> key >> value) previous[key] = value;
    for (const auto& [k, v] : ledger) {
      const auto it = previous.find(k);
      if (it != previous.end() && it->second != v) {
        mismatches.push_back(k + " = " + v + " but an earlier run of the same inputs gave " +
                             it->second);
      }
    }
    return mismatches;
  }
  std::filesystem::create_directories(path.parent_path());
  const std::filesystem::path tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp);
    for (const auto& [k, v] : ledger) out << k << ' ' << v << '\n';
  }
  std::filesystem::rename(tmp, path);
  return mismatches;
}

/// Writes this workload's traced-run entry to DIR/trace/<workload>.json and
/// rebuilds DIR/trace_report.json from every workload's latest entry.
void WriteTraceReport(const std::filesystem::path& dir, const Options& options,
                      const WorkloadResult& r, const std::vector<LayerMetric>& layers,
                      double overhead) {
  double self_total = 0.0;
  for (const auto& [name, t] : r.spans) self_total += t.self_s;
  dapple::obs::JsonWriter w(dapple::obs::JsonWriter::Layout::kCompact);
  w.BeginObject();
  w.Field("seed", static_cast<std::int64_t>(options.seed));
  w.Field("seconds", options.seconds);
  w.Field("nproc", options.nproc);
  w.Field("build_type", PERFBENCH_BUILD_TYPE);
  w.Field("inputs_digest", r.inputs_digest);
  w.Field("inputs", r.inputs_shape);
  w.Key("threads").BeginObject();
  for (const auto& [k, v] : r.info) w.Field(k, v);
  w.EndObject();
  w.Field("untraced_op_s", TimedSeconds(r.timed, r.reduction));
  w.Field("traced_op_s", TimedSeconds(r.traced, r.reduction));
  w.Field("tracing_overhead_ratio", overhead);
  w.Key("spans").BeginObject();
  for (const auto& [name, t] : r.spans) {
    w.Key(name).BeginObject();
    w.Field("calls", static_cast<std::int64_t>(t.calls));
    w.Field("total_ms", 1e3 * t.total_s);
    w.Field("self_ms", 1e3 * t.self_s);
    w.Field("self_share", Ratio(t.self_s, self_total));
    w.EndObject();
  }
  w.EndObject();
  w.Key("layers").BeginObject();
  for (const LayerMetric& m : layers) {
    w.Key(m.name).BeginObject();
    w.Field("value", m.value);
    w.Field("unit", m.unit);
    w.Field("measured", m.measured);
    w.Field("how", m.how);
    w.EndObject();
  }
  w.EndObject();
  w.Key("counts").BeginObject();
  for (const auto& [k, v] : r.ledger) w.Field(k, v);
  w.EndObject();
  w.EndObject();
  std::filesystem::create_directories(dir / "trace");
  std::ofstream(dir / "trace" / (options.workload + ".json")) << w.str();

  std::vector<std::filesystem::path> entries;
  for (const auto& e : std::filesystem::directory_iterator(dir / "trace")) {
    if (e.path().extension() == ".json") entries.push_back(e.path());
  }
  std::sort(entries.begin(), entries.end());
  const std::filesystem::path tmp = dir / "trace_report.json.tmp";
  {
    std::ofstream out(tmp);
    out << "{\"workloads\": {";
    for (std::size_t i = 0; i < entries.size(); ++i) {
      std::ifstream in(entries[i]);
      out << (i ? "," : "") << "\n  \"" << entries[i].stem().string() << "\": " << in.rdbuf();
    }
    out << "\n}}\n";
  }
  std::filesystem::rename(tmp, dir / "trace_report.json");
}

}  // namespace

void AddModelTopoLayers(WorkloadResult& result) {
  const bool model = result.spans.count("model.ModelByName") > 0;
  const bool topo = result.spans.count("topo.MakeConfig") > 0;
  result.layers.push_back({"model.profile_ms", "ms", MeanMs(result.spans, "model.ModelByName"),
                           model, model ? "ModelByName per call" : "not called from outside"});
  result.layers.push_back({"topo.cluster_ms", "ms", MeanMs(result.spans, "topo.MakeConfig"), topo,
                           topo ? "MakeConfig per call" : "not called from outside"});
}

int Main(int argc, char** argv) {
  Options options;
  std::string state_dir = ".bench_build/perfbench";
  std::string source_id;
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("flag " + flag + " requires a value").c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stoi(value);
        have_seconds = options.seconds > 0;
      } else if (flag == "--trace") {
        options.trace = std::stoi(value) != 0;
        have_trace = true;
      } else if (flag == "--state-dir") {
        state_dir = value;
      } else if (flag == "--source-id") {
        source_id = value;
      } else {
        Usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      Usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    Usage("--workload, --seed, --seconds (> 0) and --trace are required");
  }
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (options.workload == w.name) workload = &w;
  }
  if (workload == nullptr) Usage(("unknown workload " + options.workload).c_str());
  options.nproc = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));

  WorkloadResult r;
  try {
    r = workload->run(options);
  } catch (const std::exception& e) {
    r.failures.push_back(std::string("workload aborted: ") + e.what());
  }

  std::printf("workload %s seed %llu seconds %d trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("inputs %s: %s\n", r.inputs_digest.c_str(), r.inputs_shape.c_str());
  std::printf("host nproc %d, build %s", options.nproc, PERFBENCH_BUILD_TYPE);
  for (const auto& [k, v] : r.info) std::printf(", %s %s", k.c_str(), v.c_str());
  std::printf("\n");

  if (!source_id.empty() && r.failures.empty()) {
    const std::filesystem::path path =
        std::filesystem::path(state_dir) / "ledger" /
        (options.workload + "-seed" + std::to_string(options.seed) + "-sec" +
         std::to_string(options.seconds) + "-" + source_id + ".txt");
    for (const std::string& m : CheckLedger(path, r.ledger)) r.failures.push_back(m);
  }
  for (const auto& [k, v] : r.ledger) std::printf("output %s %s\n", k.c_str(), v.c_str());

  const bool correct = r.failures.empty() && r.failed == 0 && !r.timed.round_seconds().empty() &&
                       !r.setup_s.empty();
  if (!correct) {
    for (const std::string& f : r.failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
    if (r.timed.round_seconds().empty()) std::fprintf(stderr, "CHECK FAILED: no round completed\n");
    PrintResultLine(false, r, {});
    return 1;
  }

  std::vector<Metric> metrics;
  if (!options.trace) {
    const Timed timed = Reduce(r.timed, r.reduction);
    const std::vector<double>& rounds = r.timed.round_seconds();
    metrics = {
        {"setup_s", *std::min_element(r.setup_s.begin(), r.setup_s.end()), "s"},
        {"ops_per_s", timed.ops_per_s, "1/s"},
        {"op_latency_p50_ms", 1e3 * timed.p50_s, "ms"},
        {"op_latency_tail_ms", 1e3 * timed.tail.value, "ms"},
        {"peak_rss_mb", PeakRssMb(), "MB"},
        {"plan_sim_throughput", r.plan_sim_throughput, "samples/s"},
    };
    std::printf("setup repetitions (setup_s is the fastest):");
    for (double s : r.setup_s) std::printf(" %.4f", s);
    std::printf(" s\nrounds of %d ops:", r.timed.round_ops());
    for (double s : rounds) std::printf(" %.3f", s);
    std::printf(" s\n%zu timed runs; %s\n", r.timed.size(), timed.how.c_str());
    for (const Metric& m : metrics) {
      std::printf("%-22s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
  } else {
    const double overhead =
        Ratio(TimedSeconds(r.traced, r.reduction), TimedSeconds(r.timed, r.reduction));
    std::vector<LayerMetric> layers;
    for (const auto& [name, unit] : kLayerCatalog) {
      const auto it = std::find_if(r.layers.begin(), r.layers.end(),
                                   [&](const LayerMetric& m) { return m.name == name; });
      if (std::strcmp(name, "trace.overhead_ratio") == 0) {
        layers.push_back({name, unit, overhead, true,
                          "traced / untraced summed op time, reduced as the end-to-end metrics"});
      } else if (it != r.layers.end()) {
        layers.push_back(*it);
      } else {
        layers.push_back({name, unit, 0.0, false, "not exercised by this workload"});
      }
    }
    for (const LayerMetric& m : layers) {
      metrics.push_back({m.name, m.value, m.unit});
      std::printf("%-32s %16.6f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                  m.measured ? m.how.c_str() : ("(" + m.how + ")").c_str());
    }
    WriteTraceReport(state_dir, options, r, layers, overhead);
    std::printf("traced-run report: %s/trace_report.json\n", state_dir.c_str());
  }
  PrintResultLine(true, r, metrics);
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
