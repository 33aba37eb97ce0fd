// plan-cold: one caller runs Session::Plan (PlannerOptions::num_threads =
// 1) over a seeded list of distinct zoo instances at 8-24 devices, mixing
// Config A (8-GPU servers) and Config B (1-GPU servers). The DP search is
// nearly all of each op, so this is where planner search changes show.
//
// Inputs: one heavy instance, BERT-48 on two Config-A servers, whose search
// holds over 100 MB (it sets peak_rss_mb), then a fixed list of light
// (model, config, servers) slots run in rounds. The seed draws each round's
// order and the global batch of three mid-cost Config-B slots from
// {128, 192, 256}. The other slots keep 128: Config-A search cost moves
// several-fold with the batch, and on the cheapest slots the batch-sized
// re-rank simulations are a large share of the op.
//
// The heavy instance is the set-up's untimed op of the workload's own kind:
// about 9 s of search, too long to run in every round, so its time is
// setup_s (the faster of two set-ups, one before the rounds and one after)
// and the rounds time the light slots.
//
// Checks: every plan has the SerializePlan digest recorded at its first run
// (both set-ups' heavy plans included), and every distinct plan's built
// pipeline passes check::ScheduleValidator. Plan digests go to the ledger.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "check/validator.h"
#include "common.h"
#include "common/thread_pool.h"
#include "dapple/dapple.h"
#include "obs/report.h"
#include "planner/plan_io.h"

namespace perfbench {

namespace {

using namespace dapple;

struct Slot {
  const char* model;
  char config;
  int servers;
  /// Whether the seed draws this slot's global batch.
  bool draw_batch = false;
};

const Slot kHeavy = {"BERT-48", 'A', 2};

// Light slots, ordered by op cost on a 4-core host (about 2.5 s a round).
// Forty of them, so the tail (ten ops beyond it) is p75; rounds short
// enough that each op runs seven times at --seconds 15.
const Slot kSlots[] = {
    {"GNMT-16", 'B', 20, true},   {"ResNet-50", 'B', 20, true},   {"BERT-48", 'A', 1},
    {"BERT-Large", 'B', 12, true}, {"AmoebaNet-36", 'B', 8},      {"ResNet-50", 'B', 16},
    {"GNMT-16", 'B', 16},         {"AmoebaNet-36", 'A', 1},       {"XLNet-36", 'B', 8},
    {"XLNet-36", 'B', 9},         {"VGG-19", 'A', 3},             {"ResNet-50", 'B', 14},
    {"GNMT-16", 'B', 18},         {"ResNet-50", 'B', 18},         {"GNMT-16", 'B', 14},
    {"VGG-19", 'A', 2},           {"XLNet-36", 'A', 1},           {"ResNet-50", 'A', 2},
    {"BERT-Large", 'B', 8},       {"BERT-Large", 'B', 10},        {"ResNet-50", 'B', 12},
    {"VGG-19", 'B', 24},          {"VGG-19", 'B', 20},            {"GNMT-16", 'B', 12},
    {"BERT-Large", 'A', 1},       {"ResNet-50", 'B', 10},         {"GNMT-16", 'A', 2},
    {"GNMT-16", 'B', 10},         {"VGG-19", 'B', 18},            {"VGG-19", 'B', 16},
    {"VGG-19", 'B', 14},          {"VGG-19", 'B', 12},            {"VGG-19", 'B', 10},
    {"ResNet-50", 'B', 8},        {"GNMT-16", 'B', 8},            {"VGG-19", 'A', 1},
    {"VGG-19", 'B', 8},           {"ResNet-50", 'A', 1},          {"GNMT-16", 'A', 1},
    {"BERT-Large", 'B', 9},
};
// Round count: --seconds of light rounds.
constexpr double kRoundSeconds = 2.0;
// Set-up plans the heavy instance; two of them, setup_s is the faster.
constexpr int kSetupRepetitions = 2;

struct Instance {
  Slot slot;
  long gbs = 128;
  std::string Name() const {
    return std::string(slot.model) + " " + slot.config + "x" + std::to_string(slot.servers) +
           " gbs=" + std::to_string(gbs);
  }
};

/// Op identities: 0 is the heavy instance, 1 + i is light slot i.
struct Inputs {
  std::vector<Instance> ops;
  std::vector<std::vector<int>> rounds;  // each a permutation of 1..light
};

Inputs Generate(std::uint64_t seed, int seconds) {
  Rng rng(seed);
  Inputs in;
  in.ops.push_back(Instance{kHeavy, 128});
  for (const Slot& s : kSlots) {
    Instance inst{s, 128};
    if (s.draw_batch) inst.gbs = 64L * rng.Uniform(2, 4);
    in.ops.push_back(inst);
  }
  const int rounds = std::max(2, static_cast<int>(seconds / kRoundSeconds));
  for (int r = 0; r < rounds; ++r) {
    std::vector<int> order;
    for (int i = 1; i < static_cast<int>(in.ops.size()); ++i) order.push_back(i);
    rng.Shuffle(order);
    in.rounds.push_back(std::move(order));
  }
  return in;
}

class Zoo {
 public:
  Zoo(const std::vector<Instance>& ops, Tracer* tracer) {
    for (const Instance& inst : ops) {
      if (models_.find(inst.slot.model) == models_.end()) {
        Span span(tracer, "model.ModelByName");
        models_.emplace(inst.slot.model, model::ModelByName(inst.slot.model));
      }
      if (clusters_.find(ClusterKey(inst)) == clusters_.end()) {
        Span span(tracer, "topo.MakeConfig");
        clusters_.emplace(ClusterKey(inst), topo::MakeConfig(inst.slot.config, inst.slot.servers));
      }
    }
  }
  const model::ModelProfile& Model(const Instance& inst) const {
    return models_.at(inst.slot.model);
  }
  const topo::Cluster& Cluster(const Instance& inst) const {
    return clusters_.at(ClusterKey(inst));
  }

 private:
  static std::string ClusterKey(const Instance& inst) {
    return std::string(1, inst.slot.config) + std::to_string(inst.slot.servers);
  }
  std::map<std::string, model::ModelProfile> models_;
  std::map<std::string, topo::Cluster> clusters_;
};

struct Planned {
  planner::PlanResult result;
  double seconds = -1.0;  // < 0: the plan failed
  std::int64_t sims = 0;  // sim.runs during the call: re-rank + refine
};

Planned PlanOne(const Zoo& zoo, const Instance& inst, Tracer* tracer) {
  planner::PlannerOptions options;
  options.num_threads = 1;
  Planned out;
  const std::int64_t sims0 = CounterValue("sim.runs");
  const auto t0 = Clock::now();
  {
    Span span(tracer, "dapple.Session::Plan");
    Session session(zoo.Model(inst), zoo.Cluster(inst));
    out.result = session.Plan(inst.gbs, options);
  }
  out.seconds = SecondsSince(t0);
  out.sims = CounterValue("sim.runs") - sims0;
  return out;
}

/// Search counts and times summed over every plan of a pass.
struct Tally {
  long long plans = 0, subproblems = 0, evaluated = 0, pruned = 0, hits = 0, misses = 0,
            sims = 0;
  double search_s = 0, enumerate_s = 0, evaluate_s = 0, merge_s = 0, plan_s = 0;

  void Add(const Planned& p) {
    const planner::PlannerSearchStats& s = p.result.stats;
    ++plans;
    subproblems += s.subproblems;
    evaluated += s.candidates_evaluated;
    pruned += s.candidates_pruned;
    hits += s.cache_hits;
    misses += s.cache_misses;
    sims += p.sims;
    search_s += s.wall_seconds;
    enumerate_s += s.enumerate_seconds;
    evaluate_s += s.evaluate_seconds;
    merge_s += s.merge_seconds;
    plan_s += p.seconds;
  }
};

/// Plans op `op`, checks its digest against the recorded one (recording it
/// at its first run) and keeps the op's first plan in `first`. Returns the
/// op's latency, or a negative number when the plan failed.
double RunOp(const Zoo& zoo, const Inputs& in, int op, Tracer* tracer,
             std::map<int, std::string>& digests, std::vector<Planned>& first, Tally& tally,
             WorkloadResult& result) {
  if (tracer) tracer->set_op(op);
  const Instance& inst = in.ops[static_cast<std::size_t>(op)];
  ++result.attempted;
  Planned p;
  try {
    p = PlanOne(zoo, inst, tracer);
  } catch (const std::exception& e) {
    ++result.failed;
    result.failures.push_back("plan failed for " + inst.Name() + ": " + e.what());
    return -1.0;
  }
  tally.Add(p);
  const std::string digest = Digest(planner::SerializePlan(p.result.plan));
  auto [it, fresh] = digests.emplace(op, digest);
  if (!fresh && it->second != digest) {
    result.failures.push_back("plan of " + inst.Name() + " differs from its recorded digest");
  }
  const double seconds = p.seconds;
  if (first[static_cast<std::size_t>(op)].seconds < 0.0) {
    first[static_cast<std::size_t>(op)] = std::move(p);
  }
  return seconds;
}

/// Every round of light ops, timed into `samples`.
void Rounds(const Zoo& zoo, const Inputs& in, Tracer* tracer, std::map<int, std::string>& digests,
            std::vector<Planned>& first, Samples& samples, Tally& tally, WorkloadResult& result) {
  for (const std::vector<int>& round : in.rounds) {
    samples.BeginRound();
    for (int op : round) {
      const double seconds = RunOp(zoo, in, op, tracer, digests, first, tally, result);
      if (seconds >= 0.0) samples.Add(op, seconds);
    }
    samples.EndRound();
  }
}

}  // namespace

WorkloadResult RunPlanCold(const Options& options) {
  WorkloadResult result;
  const Inputs in = Generate(options.seed, options.seconds);
  {
    dapple::Fingerprint64 fp;
    for (const Instance& inst : in.ops) fp.Mix(inst.Name());
    for (const auto& round : in.rounds) {
      for (int op : round) fp.Mix(op);
    }
    result.inputs_digest = Hex(fp.digest());
    int a = 0;
    for (const Instance& inst : in.ops) a += inst.slot.config == 'A';
    result.inputs_shape = std::to_string(in.ops.size()) + " instances (" + std::to_string(a) +
                          " Config-A, " + std::to_string(in.ops.size() - a) +
                          " Config-B, 8-24 devices): BERT-48 Ax2 in set-up, then " +
                          std::to_string(in.rounds.size()) + " rounds of the other " +
                          std::to_string(in.ops.size() - 1);
  }
  result.info["planner_threads"] = "1";
  result.info["rerank_pool_threads"] = std::to_string(ThreadPool::Shared().num_threads());

  // Set-up: load every model profile and cluster, then plan the heavy
  // instance (op 0), whose digest every repetition must reproduce. The
  // heavy plan's counts join the tally once.
  std::map<int, std::string> digests;
  std::vector<Planned> planned(in.ops.size());
  Tally tally;
  auto set_up = [&](Clock::time_point t0, Tally& counts) {
    auto zoo = std::make_unique<Zoo>(in.ops, nullptr);
    RunOp(*zoo, in, 0, nullptr, digests, planned, counts, result);
    result.setup_s.push_back(SecondsSince(t0));
    return zoo;
  };
  const std::unique_ptr<Zoo> zoo = set_up(g_process_start, tally);
  Rounds(*zoo, in, nullptr, digests, planned, result.timed, tally, result);
  for (int rep = 1; rep < kSetupRepetitions; ++rep) {
    Tally discarded;
    set_up(Clock::now(), discarded);
  }

  // Output checks on every distinct plan: validator and simulated throughput.
  Tracer check_tracer(options.trace);
  dapple::Fingerprint64 plans_fp;
  double throughput_sum = 0.0;
  long long tasks = 0, events = 0, json_bytes = 0, checked = 0;
  for (std::size_t op = 0; op < in.ops.size(); ++op) {
    if (planned[op].seconds < 0.0) continue;
    const Instance& inst = in.ops[op];
    const planner::ParallelPlan& plan = planned[op].result.plan;
    plans_fp.Mix(digests[static_cast<int>(op)]);
    runtime::BuildOptions build;
    build.global_batch_size = inst.gbs;
    runtime::BuiltPipeline built;
    {
      Span span(&check_tracer, "runtime.GraphBuilder::Build");
      built = runtime::GraphBuilder(zoo->Model(inst), zoo->Cluster(inst), plan, build).Build();
    }
    sim::SimResult sim;
    {
      Span span(&check_tracer, "sim.Engine::Run");
      sim = sim::Engine::Run(built.graph, built.engine_options);
    }
    ++checked;
    tasks += built.graph.num_tasks();
    for (const sim::TaskRecord& r : sim.records) events += r.executed ? 1 : 0;
    const check::ValidationReport report =
        check::ScheduleValidator(plan, built.options).Validate(built, sim);
    if (!report.ok()) {
      result.failures.push_back("schedule validator rejected the plan of " + inst.Name() +
                                ": " + report.ToString());
    }
    throughput_sum += static_cast<double>(built.micro_batch_size) * built.num_micro_batches /
                      sim.makespan;
    if (options.trace) {
      obs::IterationReport iteration;
      {
        Span span(&check_tracer, "obs.BuildIterationReport");
        iteration = obs::BuildIterationReport(built, sim);
      }
      Span span(&check_tracer, "obs.ToJson");
      json_bytes += static_cast<long long>(obs::ToJson(iteration).size());
    }
  }
  result.plan_sim_throughput = Ratio(throughput_sum, static_cast<double>(checked));
  result.ledger["plans"] = Hex(plans_fp.digest());
  result.ledger["planner.subproblems"] = std::to_string(tally.subproblems);
  result.ledger["planner.candidates_evaluated"] = std::to_string(tally.evaluated);
  result.ledger["planner.candidates_pruned"] = std::to_string(tally.pruned);
  result.ledger["planner.stage_cache_hits"] = std::to_string(tally.hits);
  result.ledger["dapple.alternatives_simulated"] = std::to_string(tally.sims);
  result.ledger["runtime.tasks"] = std::to_string(tasks);
  result.ledger["sim.events"] = std::to_string(events);

  if (!options.trace) return result;

  // Traced pass over the same ops, the heavy one included; its counts must
  // repeat exactly.
  Tracer tracer(true);
  Tally traced;
  {
    const Zoo traced_zoo(in.ops, &tracer);
    WorkloadResult discarded;
    std::vector<Planned> unused(in.ops.size());
    RunOp(traced_zoo, in, 0, &tracer, digests, unused, traced, discarded);
    Rounds(traced_zoo, in, &tracer, digests, unused, result.traced, traced, discarded);
    for (const std::string& f : discarded.failures) result.failures.push_back(f);
  }
  if (traced.subproblems != tally.subproblems || traced.hits != tally.hits ||
      traced.sims != tally.sims) {
    result.failures.push_back("planner counts differ between the untraced and traced pass");
  }
  result.spans = tracer.Summarize();
  for (const auto& [name, totals] : check_tracer.Summarize()) result.spans[name] = totals;

  const double n = static_cast<double>(traced.plans);
  auto ms = [&](double s) { return 1e3 * s / n; };
  const Tracer::Totals& engine = result.spans["sim.Engine::Run"];
  const std::string check_phase = "check phase, once per distinct plan";
  result.layers = {
      {"planner.search_ms", "ms", ms(traced.search_s), true,
       "PlanResult.stats.wall_seconds per plan"},
      {"planner.enumerate_ms", "ms", ms(traced.enumerate_s), true,
       "stats.enumerate_seconds per plan"},
      {"planner.evaluate_ms", "ms", ms(traced.evaluate_s), true,
       "stats.evaluate_seconds per plan"},
      {"planner.merge_ms", "ms", ms(traced.merge_s), true, "stats.merge_seconds per plan"},
      {"planner.subproblems", "count", static_cast<double>(traced.subproblems), true,
       "sum over the pass's plans"},
      {"planner.candidates_evaluated", "count", static_cast<double>(traced.evaluated), true,
       "sum over the pass's plans"},
      {"planner.candidates_pruned", "count", static_cast<double>(traced.pruned), true,
       "sum over the pass's plans"},
      {"planner.stage_cache_hit_ratio", "ratio",
       Ratio(static_cast<double>(traced.hits), static_cast<double>(traced.hits + traced.misses)),
       true, "stage-cost cache hits / lookups"},
      {"dapple.rerank_refine_ms", "ms", ms(traced.plan_s - traced.search_s), true,
       "Session::Plan minus planner search, per plan"},
      {"dapple.alternatives_simulated", "count", static_cast<double>(traced.sims), true,
       "sim.runs registry delta inside Session::Plan (re-rank + refine), sum over the pass"},
      {"runtime.graph_build_ms", "ms", MeanMs(result.spans, "runtime.GraphBuilder::Build"), true,
       "GraphBuilder::Build, " + check_phase},
      {"runtime.tasks_per_graph", "count", Ratio(static_cast<double>(tasks), checked), true,
       check_phase},
      {"sim.engine_ms", "ms", MeanMs(result.spans, "sim.Engine::Run"), true,
       "sim::Engine::Run, " + check_phase},
      {"sim.events_per_host_s", "1/s", Ratio(static_cast<double>(events), engine.total_s), true,
       "executed tasks / engine wall time, " + check_phase},
      {"obs.report_ms", "ms", MeanMs(result.spans, "obs.BuildIterationReport"), true,
       check_phase},
      {"obs.json_encode_ms", "ms", MeanMs(result.spans, "obs.ToJson"), true, check_phase},
      {"obs.json_bytes", "bytes", Ratio(static_cast<double>(json_bytes), checked), true,
       "iteration-report JSON, " + check_phase},
  };
  AddModelTopoLayers(result);
  return result;
}

}  // namespace perfbench
