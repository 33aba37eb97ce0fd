// The two serve workloads, both driven through serve::Server by one caller.
//
// serve-warm: HandleLine (workers = 1) over a seeded stream of
// plan/simulate/report requests whose keys come from a working set planned
// during set-up, so the planner does no work in the timed phase and graph
// build, simulation and report/JSON encoding carry the cost.
//
// serve-burst: fixed-size batches through HandleBatch with workers = nproc.
// Every key in a batch is new and appears twice (once as plan, once as
// simulate), so concurrent cache misses and the planner's nested re-rank
// fan-out happen here and nowhere else.
#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common.h"
#include "common/thread_pool.h"
#include "dapple/dapple.h"
#include "obs/report.h"
#include "planner/plan_io.h"
#include "serve/json.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace perfbench {

namespace {

using namespace dapple;

const char* const kFamilies[] = {"DAPPLE", "GPipe", "DAPPLE-2BP", "V-Min", "V-Half"};

struct Key {
  std::string model;
  char config = 'B';
  int servers = 8;
  long gbs = 128;
  std::string schedule = "DAPPLE";

  std::string Line(const char* kind, const std::string& id = "") const {
    std::string line = std::string("{\"kind\":\"") + kind + "\"";
    if (!id.empty()) line += ",\"id\":\"" + id + "\"";
    return line + ",\"model\":\"" + model + "\",\"config\":\"" + std::string(1, config) +
           "\",\"servers\":" + std::to_string(servers) + ",\"gbs\":" + std::to_string(gbs) +
           ",\"schedule\":\"" + schedule + "\"}";
  }
  std::string Tuple() const { return Line("key"); }
};

bool Ok(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}

double SimulatedThroughput(const std::string& simulate_response) {
  return serve::ParseJson(simulate_response).Get("throughput").AsDouble();
}

// ---------------------------------------------------------------- warm --

// The working set: a fixed catalog of every schedule family on three
// models, Config B at 8-16 servers, global batch 128-512. It is the same for
// every seed (the seed draws the request stream over it): when the seed drew
// the catalog's servers and batches, p50 and the tail moved by up to 30%
// between seeds, which would hide the changes this workload exists to show.
struct WarmSlot {
  const char* model;
  int servers[5];  // per family, in kFamilies order
  long gbs[5];
};
const WarmSlot kWarmSlots[] = {
    {"GNMT-16", {8, 10, 12, 14, 16}, {256, 512, 128, 384, 256}},
    {"XLNet-36", {10, 8, 9, 10, 8}, {128, 256, 384, 256, 512}},
    {"ResNet-50", {16, 12, 8, 14, 10}, {384, 128, 256, 512, 256}},
};
// Each key is asked once as plan, simulate and report per stream cycle, in
// a shuffled order. No caller in the repository sends a measured mix, so
// the share is an even one per kind: a cached plan lookup, a graph build +
// simulation, and a build + simulation + report encoding.
// A round is kWarmCyclesPerRound cycles (225 requests, about 80 ms on a
// 4-core host), so every round asks the same requests and rounds compare
// like for like. The round count gives about --seconds of timed phase.
constexpr int kWarmCyclesPerRound = 5;
constexpr double kWarmRoundsPerSecond = 12.0;
// The cache fill is one-shot planner work, so a single set-up swings with
// host contention; setup_s is the fastest of several.
constexpr int kWarmSetupRepetitions = 3;

struct WarmOp {
  int key = 0;
  int kind = 0;  // 0 plan, 1 simulate, 2 report
  int id() const { return key * 3 + kind; }
};

struct WarmInputs {
  std::vector<Key> keys;
  std::vector<std::vector<WarmOp>> rounds;  // each the same cycles, reshuffled
};

const char* KindName(int kind) { return kind == 0 ? "plan" : kind == 1 ? "simulate" : "report"; }

WarmInputs GenerateWarm(std::uint64_t seed, int seconds) {
  Rng rng(seed);
  WarmInputs in;
  for (const WarmSlot& slot : kWarmSlots) {
    for (std::size_t f = 0; f < std::size(kFamilies); ++f) {
      Key k;
      k.model = slot.model;
      k.servers = slot.servers[f];
      k.gbs = slot.gbs[f];
      k.schedule = kFamilies[f];
      in.keys.push_back(k);
    }
  }
  const int rounds = std::max(2, static_cast<int>(kWarmRoundsPerSecond * seconds));
  for (int r = 0; r < rounds; ++r) {
    std::vector<WarmOp> ops;
    for (int c = 0; c < kWarmCyclesPerRound; ++c) {
      std::vector<WarmOp> cycle;
      for (int k = 0; k < static_cast<int>(in.keys.size()); ++k) {
        for (int kind = 0; kind < 3; ++kind) cycle.push_back(WarmOp{k, kind});
      }
      rng.Shuffle(cycle);
      ops.insert(ops.end(), cycle.begin(), cycle.end());
    }
    in.rounds.push_back(std::move(ops));
  }
  return in;
}

/// Every round through HandleLine. With `first` set, checks each response
/// and that every (key, kind) always gets the same bytes back.
void WarmPass(serve::Server& server, const WarmInputs& in, Tracer* tracer, Samples& samples,
              std::vector<std::string>* first, WorkloadResult& result) {
  std::vector<std::string> lines(in.keys.size() * 3);
  for (std::size_t k = 0; k < in.keys.size(); ++k) {
    for (int kind = 0; kind < 3; ++kind) lines[k * 3 + kind] = in.keys[k].Line(KindName(kind));
  }
  long op_index = 0;
  for (const std::vector<WarmOp>& round : in.rounds) {
    samples.BeginRound();
    for (const WarmOp& op : round) {
      if (tracer) tracer->set_op(op_index++);
      std::string response;
      const auto t0 = Clock::now();
      {
        Span span(tracer, "serve.HandleLine");
        response = server.HandleLine(lines[static_cast<std::size_t>(op.id())]);
      }
      samples.Add(op.id(), SecondsSince(t0));
      if (first == nullptr) continue;
      ++result.attempted;
      if (!Ok(response)) {
        ++result.failed;
        if (result.failures.size() < 5) {
          result.failures.push_back("serve-warm response not ok: " + response.substr(0, 200));
        }
        continue;
      }
      std::string& expected = (*first)[static_cast<std::size_t>(op.id())];
      if (expected.empty()) {
        expected = std::move(response);
      } else if (expected != response && result.failures.size() < 5) {
        result.failures.push_back("serve-warm response changed for " +
                                  lines[static_cast<std::size_t>(op.id())]);
      }
    }
    samples.EndRound();
  }
}

// The attribution replays this many rounds (4500 requests, over a second).
constexpr int kAttributionRounds = 20;

struct Attribution {
  long ops = 0;
  /// HandleLine's own time on the same ops, each call made just before the
  /// op's replay, so both see the same phases of the host.
  double handle_s = 0.0;
  long long tasks = 0, events = 0, json_bytes = 0;
  long graphs = 0, reports = 0;
};

/// Replays the first kAttributionRounds rounds' ops stage by stage through
/// the public functions the handler calls, one span each, to attribute
/// HandleLine's time to layers.
Attribution WarmAttribution(serve::Server& server, const WarmInputs& in,
                            const std::map<std::string, planner::ParallelPlan>& plans,
                            Tracer& tracer) {
  std::vector<WarmOp> ops;
  for (std::size_t r = 0; r < std::min<std::size_t>(kAttributionRounds, in.rounds.size()); ++r) {
    ops.insert(ops.end(), in.rounds[r].begin(), in.rounds[r].end());
  }
  Attribution a;
  for (const WarmOp& op : ops) {
    tracer.set_op(a.ops++);
    const Key& key = in.keys[static_cast<std::size_t>(op.key)];
    const std::string line = key.Line(KindName(op.kind));
    const auto t0 = Clock::now();
    server.HandleLine(line);
    a.handle_s += SecondsSince(t0);
    serve::ServeRequest request;
    {
      Span span(&tracer, "serve.ParseRequest");
      request = serve::ParseRequest(line);
    }
    // The handler resolves the model and cluster once to fingerprint the
    // request and, for simulate/report, once more to execute it.
    const bool executes = request.kind != serve::RequestKind::kPlan;
    for (int pass = 0; pass < (executes ? 2 : 1); ++pass) {
      model::ModelProfile model = [&] {
        Span span(&tracer, "model.ModelByName");
        return model::ModelByName(request.model);
      }();
      topo::Cluster cluster = [&] {
        Span span(&tracer, "topo.MakeConfig");
        return topo::MakeConfig(request.config, request.servers);
      }();
      if (pass == 0) continue;
      const planner::ParallelPlan& plan = plans.at(key.Tuple());
      runtime::BuildOptions options;
      options.global_batch_size = request.gbs;
      options.schedule.kind = request.schedule;
      runtime::BuiltPipeline built;
      {
        Span span(&tracer, "runtime.GraphBuilder::Build");
        built = runtime::GraphBuilder(model, cluster, plan, options).Build();
      }
      sim::SimResult sim;
      {
        Span span(&tracer, "sim.Engine::Run");
        sim = sim::Engine::Run(built.graph, built.engine_options);
      }
      ++a.graphs;
      a.tasks += static_cast<long long>(built.graph.num_tasks());
      for (const sim::TaskRecord& r : sim.records) a.events += r.executed ? 1 : 0;
      if (request.kind != serve::RequestKind::kReport) continue;
      obs::IterationReport report;
      {
        Span span(&tracer, "obs.BuildIterationReport");
        report = obs::BuildIterationReport(built, sim);
      }
      std::string json;
      {
        Span span(&tracer, "obs.ToJson");
        json = obs::ToJson(report);
      }
      ++a.reports;
      a.json_bytes += static_cast<long long>(json.size());
    }
  }
  return a;
}

// --------------------------------------------------------------- burst --

// Small (<= 8 device) instances whose plans take 10-100 ms. Batches
// alternate between the two halves of the strata, one key per stratum.
// Over a run, each stratum gets every cluster, batch size and family in
// fixed proportion, so the key mix costs about the same on every seed; the
// seed deals the values out (never GPipe for AmoebaNet-36, whose GPipe
// stash exceeds device memory on 8 devices, so no request is refused).
// Four keys a batch (eight requests) is an assumption, not a measured
// size: no caller in the repository sends batches of a known size. It gives
// each of four workers one cold key, and each key's second request can race
// its own miss.
const char* const kBurstStrata[2][4] = {{"GNMT-16", "XLNet-36", "BERT-Large", "ResNet-50"},
                                        {"VGG-19", "AmoebaNet-36", "GNMT-16", "BERT-Large"}};
struct BurstCluster {
  char config;
  int servers;
};
const BurstCluster kBurstClusters[] = {{'A', 1}, {'B', 6}, {'B', 7}, {'B', 8},
                                       {'C', 6}, {'C', 7}, {'C', 8}};
constexpr int kBurstBatchSizes = 7;  // global batch 128, 192, ..., 512
// A round sends kBurstBatches batches to a fresh server (about 4 s on 4
// cores); the round count gives about --seconds of timed phase.
constexpr int kBurstBatches = 40;
constexpr double kBurstRoundsPerSecond = 0.3;
// Set-up is about 60 ms and racing duplicate misses make its length vary;
// it is repeated often and setup_s is the fastest.
constexpr int kBurstSetupRepetitions = 25;

struct BurstInputs {
  /// batches[0] is the set-up's warm-up batch; its keys are never timed.
  std::vector<std::vector<std::string>> batches;
  int rounds = 2;
  long unique_keys = 0;  // over the timed batches
};

bool Refused(const Key& k) { return k.model == "AmoebaNet-36" && k.schedule == "GPipe"; }

/// One stratum's attribute values over the run, as indices, one per batch
/// of its half.
struct Deal {
  std::vector<int> cluster, gbs, family;
  Key At(const char* model, std::size_t i) const {
    Key k;
    k.model = model;
    k.config = kBurstClusters[cluster[i]].config;
    k.servers = kBurstClusters[cluster[i]].servers;
    k.gbs = 64L * (2 + gbs[i]);
    k.schedule = kFamilies[family[i]];
    return k;
  }
};

BurstInputs GenerateBurst(std::uint64_t seed, int seconds) {
  BurstInputs in;
  std::vector<std::vector<Key>> keys(kBurstBatches + 1);
  // The warm-up batch is the same on every seed, so set-up costs the same.
  Rng warmup_rng(0xb0b5ull);
  for (const char* model : kBurstStrata[0]) {
    Key k;
    do {
      const BurstCluster& c = kBurstClusters[warmup_rng.Next() % std::size(kBurstClusters)];
      k.model = model;
      k.config = c.config;
      k.servers = c.servers;
      k.gbs = 64L * warmup_rng.Uniform(2, 8);
      k.schedule = kFamilies[warmup_rng.Next() % std::size(kFamilies)];
    } while (Refused(k));
    keys[0].push_back(k);
  }

  // The timed batches: deal each stratum's values, then swap batch sizes
  // within a stratum until no key repeats.
  Rng rng(seed ^ 0xb0b5ull);
  const int per_half = kBurstBatches / 2;
  Deal deals[2][4];
  for (int h = 0; h < 2; ++h) {
    for (int j = 0; j < 4; ++j) {
      Deal& d = deals[h][j];
      std::vector<int> families;
      for (int f = 0; f < static_cast<int>(std::size(kFamilies)); ++f) {
        Key probe;
        probe.model = kBurstStrata[h][j];
        probe.schedule = kFamilies[f];
        if (!Refused(probe)) families.push_back(f);
      }
      for (int i = 0; i < per_half; ++i) {
        d.cluster.push_back(i % static_cast<int>(std::size(kBurstClusters)));
        d.gbs.push_back(i % kBurstBatchSizes);
        d.family.push_back(families[static_cast<std::size_t>(i) % families.size()]);
      }
      rng.Shuffle(d.cluster);
      rng.Shuffle(d.gbs);
      rng.Shuffle(d.family);
    }
  }
  for (bool clash = true; clash;) {
    clash = false;
    std::set<std::string> seen;
    for (int h = 0; h < 2; ++h) {
      for (int j = 0; j < 4; ++j) {
        Deal& d = deals[h][j];
        for (std::size_t i = 0; i < d.gbs.size(); ++i) {
          if (!seen.insert(d.At(kBurstStrata[h][j], i).Tuple()).second) {
            std::swap(d.gbs[i], d.gbs[rng.Next() % d.gbs.size()]);
            clash = true;
          }
        }
      }
    }
  }
  for (int b = 1; b <= kBurstBatches; ++b) {
    const std::size_t i = static_cast<std::size_t>((b - 1) / 2);
    for (int j = 0; j < 4; ++j) keys[b].push_back(deals[b % 2][j].At(kBurstStrata[b % 2][j], i));
    in.unique_keys += 4;
  }

  for (int b = 0; b <= kBurstBatches; ++b) {
    std::vector<std::string> lines;
    for (std::size_t j = 0; j < keys[b].size(); ++j) {
      const std::string id = std::to_string(b) + "k" + std::to_string(j);
      lines.push_back(keys[b][j].Line("plan", "b" + id + "p"));
      lines.push_back(keys[b][j].Line("simulate", "b" + id + "s"));
    }
    (b == 0 ? warmup_rng : rng).Shuffle(lines);
    in.batches.push_back(std::move(lines));
  }
  in.rounds = std::max(2, static_cast<int>(kBurstRoundsPerSecond * seconds));
  return in;
}

struct RegistrySnapshot {
  std::int64_t hits, misses, subproblems, evaluated, pruned, stage_hits, stage_misses, sims,
      searches;
  double search_s;
  static RegistrySnapshot Take() {
    return {CounterValue("serve.cache.hits"),
            CounterValue("serve.cache.misses"),
            CounterValue("planner.parallel.subproblems"),
            CounterValue("planner.candidates_evaluated"),
            CounterValue("planner.candidates_pruned"),
            CounterValue("planner.cache.hits"),
            CounterValue("planner.cache.misses"),
            CounterValue("sim.runs"),
            HistogramCount("planner.parallel.wall_seconds"),
            HistogramSum("planner.parallel.wall_seconds")};
  }
  RegistrySnapshot Since(const RegistrySnapshot& before) const {
    return {hits - before.hits,
            misses - before.misses,
            subproblems - before.subproblems,
            evaluated - before.evaluated,
            pruned - before.pruned,
            stage_hits - before.stage_hits,
            stage_misses - before.stage_misses,
            sims - before.sims,
            searches - before.searches,
            search_s - before.search_s};
  }
};

/// One round: the timed batches, in order, on a fresh server.
std::vector<std::vector<std::string>> BurstRound(const BurstInputs& in,
                                                 const serve::ServerOptions& options,
                                                 Tracer* tracer, Samples* samples) {
  serve::Server server(options);
  std::vector<std::vector<std::string>> responses;
  if (samples) samples->BeginRound();
  for (int b = 1; b <= kBurstBatches; ++b) {
    if (tracer) tracer->set_op(b);
    const auto t0 = Clock::now();
    {
      Span span(tracer, "serve.HandleBatch");
      responses.push_back(server.HandleBatch(in.batches[static_cast<std::size_t>(b)]));
    }
    if (samples) samples->Add(b, SecondsSince(t0));
  }
  if (samples) samples->EndRound();
  return responses;
}

}  // namespace

WorkloadResult RunServeWarm(const Options& options) {
  WorkloadResult result;
  const WarmInputs in = GenerateWarm(options.seed, options.seconds);
  {
    dapple::Fingerprint64 fp;
    for (const Key& k : in.keys) fp.Mix(k.Tuple());
    for (const auto& round : in.rounds) {
      for (const WarmOp& op : round) fp.Mix(op.id());
    }
    result.inputs_digest = Hex(fp.digest());
    result.inputs_shape = std::to_string(in.keys.size()) + " keys (5 families x " +
                          std::to_string(std::size(kWarmSlots)) + " models, Config B), " +
                          std::to_string(in.rounds.size()) + " rounds of " +
                          std::to_string(in.rounds.front().size()) +
                          " ops (plan:simulate:report 1:1:1)";
  }
  result.info["serve_workers"] = "1";
  result.info["planner_threads"] = "1";
  result.reduction = Reduction::kFastestRounds;

  // Set-up: a fresh server, the working set planned into its cache, then
  // one untimed op. Every repetition must fill the same plans.
  std::vector<std::string> fill;
  auto set_up = [&](Clock::time_point t0) {
    auto server = std::make_unique<serve::Server>(serve::ServerOptions{});
    std::vector<std::string> responses;
    for (const Key& k : in.keys) responses.push_back(server->HandleLine(k.Line("plan")));
    server->HandleLine(in.keys.front().Line("report"));
    result.setup_s.push_back(SecondsSince(t0));
    if (fill.empty()) {
      fill = std::move(responses);
    } else if (responses != fill) {
      result.failures.push_back("serve-warm set-up repetitions filled different plans");
    }
    return server;
  };
  const std::unique_ptr<serve::Server> server = set_up(g_process_start);
  std::map<std::string, planner::ParallelPlan> plans;
  for (std::size_t k = 0; k < in.keys.size(); ++k) {
    if (!Ok(fill[k])) {
      result.failures.push_back("serve-warm set-up plan failed: " + fill[k].substr(0, 200));
      return result;
    }
    plans[in.keys[k].Tuple()] =
        planner::ParsePlan(serve::ParseJson(fill[k]).Get("plan_text").AsString());
  }

  // Timed phase: the planner must do no work.
  std::vector<std::string> first(in.keys.size() * 3);
  const RegistrySnapshot before = RegistrySnapshot::Take();
  const std::int64_t tasks0 = CounterValue("sim.tasks_executed");
  WarmPass(*server, in, nullptr, result.timed, &first, result);
  const RegistrySnapshot timed = RegistrySnapshot::Take().Since(before);
  const std::int64_t timed_tasks = CounterValue("sim.tasks_executed") - tasks0;
  for (int rep = 1; rep < kWarmSetupRepetitions; ++rep) set_up(Clock::now());
  if (timed.misses != 0) {
    result.failures.push_back("serve-warm planned " + std::to_string(timed.misses) +
                              " times after set-up; the working set must stay cached");
  }

  double throughput = 0.0;
  long simulated = 0;
  dapple::Fingerprint64 fp;
  for (std::size_t k = 0; k < in.keys.size(); ++k) {
    for (int kind = 0; kind < 3; ++kind) fp.Mix(first[k * 3 + static_cast<std::size_t>(kind)]);
    if (!first[k * 3 + 1].empty()) {
      throughput += SimulatedThroughput(first[k * 3 + 1]);
      ++simulated;
    }
  }
  result.plan_sim_throughput = Ratio(throughput, static_cast<double>(simulated));
  result.ledger["responses"] = Hex(fp.digest());
  result.ledger["sim.tasks_executed"] = std::to_string(timed_tasks);
  result.ledger["sim.runs"] = std::to_string(timed.sims);

  if (!options.trace) return result;

  // Traced pass over the same rounds on the same warm server.
  Tracer tracer(true);
  const std::int64_t traced_tasks0 = CounterValue("sim.tasks_executed");
  WarmPass(*server, in, &tracer, result.traced, nullptr, result);
  if (CounterValue("sim.tasks_executed") - traced_tasks0 != timed_tasks) {
    result.failures.push_back("sim task counts differ between the untraced and traced pass");
  }
  // Attribution: the first rounds' ops, stage by stage.
  Tracer attribution(true);
  const Attribution a = WarmAttribution(*server, in, plans, attribution);
  result.spans = tracer.Summarize();
  double attributed_s = 0.0;
  for (const auto& [name, totals] : attribution.Summarize()) {
    result.spans[name] = totals;
    attributed_s += totals.total_s;
  }
  const Tracer::Totals& engine = result.spans["sim.Engine::Run"];
  result.layers = {
      {"runtime.graph_build_ms", "ms", MeanMs(result.spans, "runtime.GraphBuilder::Build"), true,
       "GraphBuilder::Build per simulate/report op (attribution replay)"},
      {"runtime.tasks_per_graph", "count", Ratio(static_cast<double>(a.tasks), a.graphs), true,
       "attribution replay"},
      {"sim.engine_ms", "ms", MeanMs(result.spans, "sim.Engine::Run"), true,
       "sim::Engine::Run per simulate/report op (attribution replay)"},
      {"sim.events_per_host_s", "1/s", Ratio(static_cast<double>(a.events), engine.total_s), true,
       "executed tasks / engine wall time"},
      {"obs.report_ms", "ms", MeanMs(result.spans, "obs.BuildIterationReport"), true,
       "BuildIterationReport per report op"},
      {"obs.json_encode_ms", "ms", MeanMs(result.spans, "obs.ToJson"), true,
       "obs::ToJson of the iteration report per report op"},
      {"obs.json_bytes", "bytes", Ratio(static_cast<double>(a.json_bytes), a.reports), true,
       "iteration-report JSON per report op"},
      {"serve.parse_ms", "ms", MeanMs(result.spans, "serve.ParseRequest"), true,
       "ParseRequest per op"},
      {"serve.handle_self_ms", "ms", 1e3 * Ratio(a.handle_s - attributed_s, a.ops), true,
       "HandleLine per op minus the parse/model/topo/build/sim/report/json time its stages "
       "take when called directly, both on the attribution replay's ops"},
      {"serve.cache_hit_ratio", "ratio",
       Ratio(static_cast<double>(timed.hits), static_cast<double>(timed.hits + timed.misses)),
       true, "plan-cache hits / lookups in the timed phase"},
  };
  AddModelTopoLayers(result);
  return result;
}

WorkloadResult RunServeBurst(const Options& options) {
  WorkloadResult result;
  const BurstInputs in = GenerateBurst(options.seed, options.seconds);
  const int workers = options.nproc;
  {
    dapple::Fingerprint64 fp;
    for (const auto& batch : in.batches) {
      for (const std::string& line : batch) fp.Mix(line);
    }
    result.inputs_digest = Hex(fp.digest());
    result.inputs_shape = std::to_string(kBurstBatches) + " batches of " +
                          std::to_string(in.batches[0].size()) + " requests (" +
                          std::to_string(std::size(kBurstStrata[0])) +
                          " new <=8-device keys, each as plan + simulate), " +
                          std::to_string(in.rounds) + " rounds on fresh servers";
  }
  result.info["serve_workers"] = std::to_string(workers);
  result.reduction = Reduction::kMedianRunPerOp;
  result.info["planner_threads"] = "1";
  result.info["rerank_pool_threads"] = std::to_string(ThreadPool::Shared().num_threads());

  // Set-up: a fresh server and one untimed burst of the warm-up batch
  // (cold on every fresh server).
  serve::ServerOptions server_options;
  server_options.workers = workers;
  auto set_up = [&](Clock::time_point t0) {
    serve::Server server(server_options);
    server.HandleBatch(in.batches[0]);
    result.setup_s.push_back(SecondsSince(t0));
  };
  set_up(g_process_start);

  // Timed phase: every round must answer byte-identically.
  std::vector<std::vector<std::string>> responses;
  const RegistrySnapshot before = RegistrySnapshot::Take();
  for (int r = 0; r < in.rounds; ++r) {
    std::vector<std::vector<std::string>> round =
        BurstRound(in, server_options, nullptr, &result.timed);
    if (r == 0) {
      responses = std::move(round);
    } else if (round != responses) {
      result.failures.push_back("serve-burst round " + std::to_string(r) +
                                " answered differently from round 0");
    }
  }
  const RegistrySnapshot timed = RegistrySnapshot::Take().Since(before);
  for (int rep = 1; rep < kBurstSetupRepetitions; ++rep) set_up(Clock::now());

  double throughput = 0.0;
  long simulated = 0;
  for (const auto& batch : responses) {
    result.attempted += in.rounds;
    bool ok = true;
    for (const std::string& r : batch) {
      if (!Ok(r)) {
        ok = false;
        if (result.failures.size() < 5) {
          result.failures.push_back("serve-burst response not ok: " + r.substr(0, 200));
        }
      } else if (r.find("\"kind\":\"simulate\"") != std::string::npos) {
        throughput += SimulatedThroughput(r);
        ++simulated;
      }
    }
    if (!ok) result.failed += in.rounds;
  }
  result.plan_sim_throughput = Ratio(throughput, static_cast<double>(simulated));

  // The serve contract: a workers=1 replay of the same batches answers
  // byte-identically. Its counts are deterministic.
  const RegistrySnapshot replay_before = RegistrySnapshot::Take();
  const auto replay_t0 = Clock::now();
  if (BurstRound(in, serve::ServerOptions{}, nullptr, nullptr) != responses) {
    result.failures.push_back("serve-burst responses differ from their workers=1 replay");
  }
  const double replay_s = SecondsSince(replay_t0);
  const RegistrySnapshot replay = RegistrySnapshot::Take().Since(replay_before);
  if (replay.misses != in.unique_keys) {
    result.failures.push_back("workers=1 replay planned " + std::to_string(replay.misses) +
                              " times for " + std::to_string(in.unique_keys) + " unique keys");
  }
  dapple::Fingerprint64 fp;
  for (const auto& batch : responses) {
    for (const std::string& r : batch) fp.Mix(r);
  }
  result.ledger["responses"] = Hex(fp.digest());
  result.ledger["serve.misses_workers1"] = std::to_string(replay.misses);
  result.ledger["planner.subproblems"] = std::to_string(replay.subproblems);
  result.ledger["planner.candidates_evaluated"] = std::to_string(replay.evaluated);
  result.ledger["planner.stage_cache_hits"] = std::to_string(replay.stage_hits);
  result.ledger["sim.runs"] = std::to_string(replay.sims);
  result.info["plans_per_unique_key"] = std::to_string(
      Ratio(static_cast<double>(timed.misses),
            static_cast<double>(in.unique_keys) * static_cast<double>(in.rounds)));

  if (!options.trace) return result;

  // Traced pass: the same rounds at the same workers.
  Tracer tracer(true);
  const RegistrySnapshot traced_before = RegistrySnapshot::Take();
  for (int r = 0; r < in.rounds; ++r) BurstRound(in, server_options, &tracer, &result.traced);
  const RegistrySnapshot traced = RegistrySnapshot::Take().Since(traced_before);
  for (int b = 1; b <= kBurstBatches; ++b) {
    for (const std::string& line : in.batches[static_cast<std::size_t>(b)]) {
      Span span(&tracer, "serve.ParseRequest");
      serve::ParseRequest(line);
    }
  }
  result.spans = tracer.Summarize();

  const double plans = static_cast<double>(replay.searches);
  const double lookups = static_cast<double>(traced.hits + traced.misses);
  result.layers = {
      {"planner.search_ms", "ms", Ratio(1e3 * replay.search_s, plans), true,
       "registry planner.parallel.wall_seconds per search, workers=1 replay"},
      {"planner.subproblems", "count", static_cast<double>(replay.subproblems), true,
       "registry delta, workers=1 replay"},
      {"planner.candidates_evaluated", "count", static_cast<double>(replay.evaluated), true,
       "registry delta, workers=1 replay"},
      {"planner.candidates_pruned", "count", static_cast<double>(replay.pruned), true,
       "registry delta, workers=1 replay"},
      {"planner.stage_cache_hit_ratio", "ratio",
       Ratio(static_cast<double>(replay.stage_hits),
             static_cast<double>(replay.stage_hits + replay.stage_misses)),
       true, "registry delta, workers=1 replay"},
      {"dapple.rerank_refine_ms", "ms", Ratio(1e3 * (replay_s - replay.search_s), plans), true,
       "workers=1 replay wall minus planner search, per plan (includes serve dispatch and "
       "the simulate requests' own runs)"},
      {"dapple.alternatives_simulated", "count",
       static_cast<double>(replay.sims - in.unique_keys), true,
       "registry sim.runs delta minus simulate requests, workers=1 replay"},
      {"serve.parse_ms", "ms", MeanMs(result.spans, "serve.ParseRequest"), true,
       "ParseRequest per request line"},
      {"serve.cache_hit_ratio", "ratio", Ratio(static_cast<double>(traced.hits), lookups), true,
       "traced pass at workers=nproc (racy, reported not asserted)"},
      {"serve.plans_per_unique_key", "ratio",
       Ratio(static_cast<double>(traced.misses),
             static_cast<double>(in.unique_keys) * static_cast<double>(in.rounds)),
       true, "plans run / unique keys, traced pass at workers=nproc (1.0 = no wasted plans)"},
      {"serve.batch_ms", "ms", MeanMs(result.spans, "serve.HandleBatch"), true,
       "HandleBatch per batch, traced pass"},
  };
  AddModelTopoLayers(result);
  return result;
}

}  // namespace perfbench
