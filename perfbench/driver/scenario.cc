// scenario-churn: one caller runs scenario::RunEpisode under elastic-up
// over seeded spot-churn episodes of a 16-device Config-A job (GNMT-16 on
// two 8-GPU servers) planned in set-up. Replanning onto degraded and
// regrown clusters is most of each episode, so planner changes that help
// homogeneous clusters only, or make replans dearer, show here.
//
// Checks: every run of an episode (the set-up's untimed one included) must
// reproduce the JSON digest recorded at its first run, and the timed
// episodes' digests go to the ledger, so they must not change between runs
// either.
#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "dapple/dapple.h"
#include "scenario/episode.h"
#include "scenario/report.h"
#include "scenario/stream.h"

namespace perfbench {

namespace {

using namespace dapple;

constexpr long kGlobalBatch = 64;
// Set-up is about 40 ms here, so one can fall wholly inside a slow moment
// of the host; it is repeated often and setup_s is the fastest.
constexpr int kSetupRepetitions = 25;
// Episodes per second of --seconds, run as rounds of the same
// kEpisodesPerRound episodes: 10 rounds at --seconds 15, about 25 s of wall
// on 4 cores. Each episode is 20-40 ms, so its fastest run needs many
// runs spread over the run to reach a fast phase of the host.
constexpr double kEpisodesPerSecond = 40.0;
constexpr int kEpisodesPerRound = 60;

scenario::EpisodeOptions Episode(std::uint64_t seed) {
  scenario::EpisodeOptions o;
  o.seed = seed;
  o.churn = scenario::ChurnModel::kSpotChurn;
  o.policy = fault::RecoveryPolicy::kElasticUp;
  o.churn_options.horizon = 30.0;
  // 1.2 preemptions per horizon on average: about two thirds of the
  // episodes hold one crash and its rejoin, a fifth hold two. With the
  // stratified quotas below, the median falls inside the one-crash cost
  // mode and the tail (p83 of 60 episodes) inside the two-crash mode, never
  // on the edge between two modes.
  o.churn_options.preempt_rate = 0.04;
  o.churn_options.min_outage = 3.0;
  o.churn_options.max_outage = 6.0;
  o.churn_options.rejoin_probability = 1.0;
  o.fault.build.global_batch_size = kGlobalBatch;
  o.fault.planner.keep_alternatives = 0;
  o.fault.planner.num_threads = 1;
  o.fault.checkpoint_period = 10;
  o.fault.checkpoint_cost = 0.02;
  o.fault.restore_cost = 0.25;
  o.fault.detect_latency = 0.1;
  o.fault.replan_cost = 0.25;
  return o;
}

/// An episode's stratum: the crash and rejoin counts of its churn script.
int Stratum(const fault::FaultScript& script) {
  int crashes = 0, rejoins = 0;
  for (const fault::FaultEvent& e : script.events) {
    crashes += e.kind == fault::FaultKind::kDeviceCrash;
    rejoins += e.kind == fault::FaultKind::kDeviceRejoin;
  }
  return std::min(crashes, 7) * 8 + std::min(rejoins, 7);
}

struct EpisodeList {
  std::vector<std::uint64_t> seeds;
  /// The set-up's untimed episode: the reference pool's first episode of
  /// the most common stratum, the same on every seed.
  std::uint64_t warmup = 0;
};

/// Draws `count` episode seeds from the run seed, stratified so that every
/// run seed yields the same histogram of (crashes, rejoins): the quotas
/// come from a fixed reference pool of episodes, scaled to `count`.
EpisodeList EpisodeSeeds(std::uint64_t seed, int count, const topo::Cluster& cluster) {
  constexpr int kReferencePool = 4096;
  auto stratum_of = [&](std::uint64_t s) {
    const scenario::EpisodeOptions o = Episode(s);
    return Stratum(scenario::GenerateChurnScript(s, cluster, o.churn, o.churn_options));
  };
  std::map<int, long> reference;
  std::map<int, std::uint64_t> first_of;
  Rng reference_rng(0x7e7e7e7eull);
  for (int i = 0; i < kReferencePool; ++i) {
    const std::uint64_t s = reference_rng.Next();
    const int stratum = stratum_of(s);
    ++reference[stratum];
    first_of.emplace(stratum, s);
  }

  // Largest-remainder apportionment of `count` over the reference strata.
  std::map<int, int> quota;
  std::vector<std::pair<long, int>> remainders;
  int assigned = 0;
  for (const auto& [stratum, n] : reference) {
    quota[stratum] = static_cast<int>(n * count / kReferencePool);
    assigned += quota[stratum];
    remainders.push_back({-(n * count % kReferencePool), stratum});
  }
  std::sort(remainders.begin(), remainders.end());
  for (std::size_t i = 0; assigned < count; ++i, ++assigned) ++quota[remainders[i].second];
  const int modal = std::max_element(reference.begin(), reference.end(), [](auto& a, auto& b) {
                      return a.second < b.second;
                    })->first;

  EpisodeList list;
  list.warmup = first_of[modal];
  Rng rng(seed ^ 0x5ce7a110ull);
  while (static_cast<int>(list.seeds.size()) < count) {
    const std::uint64_t s = rng.Next();
    auto it = quota.find(stratum_of(s));
    if (it == quota.end() || it->second == 0) continue;
    --it->second;
    list.seeds.push_back(s);
  }
  rng.Shuffle(list.seeds);
  return list;
}

struct Job {
  model::ModelProfile model;
  topo::Cluster cluster;
  planner::ParallelPlan plan;
};

Job SetUpJob(Tracer* tracer) {
  model::ModelProfile model = [&] {
    Span span(tracer, "model.ModelByName");
    return model::ModelByName("GNMT-16");
  }();
  topo::Cluster cluster = [&] {
    Span span(tracer, "topo.MakeConfig");
    return topo::MakeConfig('A', 2);
  }();
  planner::PlannerOptions options;
  options.num_threads = 1;
  planner::ParallelPlan plan = Session(model, cluster).Plan(kGlobalBatch, options).plan;
  return Job{std::move(model), std::move(cluster), std::move(plan)};
}

/// Runs one episode; its JSON digest must match the one recorded at its
/// first run. Returns false when the episode failed.
bool RunOne(const Job& job, std::uint64_t seed, int op, Tracer* tracer,
            std::map<int, std::string>& digests, Samples* samples,
            scenario::EpisodeReport& report, WorkloadResult& result) {
  if (tracer) tracer->set_op(op);
  const scenario::EpisodeOptions options = Episode(seed);
  if (tracer) {
    // RunEpisode derives the same script internally; this call times it.
    Span span(tracer, "scenario.GenerateChurnScript");
    scenario::GenerateChurnScript(options.seed, job.cluster, options.churn,
                                  options.churn_options);
  }
  if (samples) ++result.attempted;
  const auto t0 = Clock::now();
  try {
    Span span(tracer, "scenario.RunEpisode");
    report = scenario::RunEpisode(job.model, job.cluster, job.plan, options);
  } catch (const std::exception& e) {
    ++result.failed;
    result.failures.push_back("episode " + std::to_string(op) + " failed: " + e.what());
    return false;
  }
  if (samples) samples->Add(op, SecondsSince(t0));
  const std::string digest = Digest(scenario::ToJson(report));
  auto [it, fresh] = digests.emplace(op, digest);
  if (!fresh && it->second != digest) {
    result.failures.push_back("episode " + std::to_string(op) +
                              " JSON differs from its recorded digest");
  }
  return true;
}

/// Every round of the timed phase.
struct PassTotals {
  double goodput_sum = 0.0;
  long replans = 0;
  long episodes = 0;
};

PassTotals RunRounds(const Job& job, const EpisodeList& list,
                     const std::vector<std::vector<int>>& rounds, Tracer* tracer,
                     std::map<int, std::string>& digests, Samples& samples,
                     WorkloadResult& result) {
  PassTotals totals;
  for (const std::vector<int>& round : rounds) {
    samples.BeginRound();
    for (int op : round) {
      scenario::EpisodeReport report;
      if (!RunOne(job, list.seeds[static_cast<std::size_t>(op)], op, tracer, digests, &samples,
                  report, result)) {
        continue;
      }
      totals.goodput_sum += report.fault.goodput;
      totals.replans += report.fault.replans;
      ++totals.episodes;
    }
    samples.EndRound();
  }
  return totals;
}

}  // namespace

WorkloadResult RunScenarioChurn(const Options& options) {
  WorkloadResult result;
  const EpisodeList list =
      EpisodeSeeds(options.seed, kEpisodesPerRound, topo::MakeConfig('A', 2));
  const int num_rounds = std::max(
      2, static_cast<int>(kEpisodesPerSecond * options.seconds / kEpisodesPerRound));
  std::vector<std::vector<int>> rounds;
  {
    Rng rng(options.seed ^ 0x0de5ull);
    dapple::Fingerprint64 fp;
    for (std::uint64_t s : list.seeds) fp.Mix(s);
    for (int r = 0; r < num_rounds; ++r) {
      std::vector<int> order;
      for (int i = 0; i < kEpisodesPerRound; ++i) order.push_back(i);
      rng.Shuffle(order);
      for (int op : order) fp.Mix(op);
      rounds.push_back(std::move(order));
    }
    result.inputs_digest = Hex(fp.digest());
    result.inputs_shape = std::to_string(kEpisodesPerRound) +
                          " spot-churn episodes stratified by crash/rejoin count "
                          "(elastic-up, GNMT-16 on Config-A x2, horizon 30 s), " +
                          std::to_string(num_rounds) + " rounds";
  }
  result.info["planner_threads"] = "1";
  result.info["sim_threads"] = "1";

  // Set-up: model, cluster, the job's initial plan and one untimed
  // episode, whose digest every repetition must reproduce.
  std::optional<Job> job;
  std::map<int, std::string> digests;
  auto set_up = [&](Clock::time_point t0) {
    job.emplace(SetUpJob(nullptr));
    scenario::EpisodeReport report;
    RunOne(*job, list.warmup, -1, nullptr, digests, nullptr, report, result);
    result.setup_s.push_back(SecondsSince(t0));
  };
  set_up(g_process_start);

  const std::int64_t replans0 = CounterValue("fault.replan.runs");
  const PassTotals timed = RunRounds(*job, list, rounds, nullptr, digests, result.timed, result);
  const std::int64_t replans = CounterValue("fault.replan.runs") - replans0;
  for (int rep = 1; rep < kSetupRepetitions; ++rep) set_up(Clock::now());

  result.plan_sim_throughput = Ratio(timed.goodput_sum, static_cast<double>(timed.episodes));
  dapple::Fingerprint64 fp;
  for (const auto& [op, digest] : digests) {
    if (op >= 0) fp.Mix(digest);
  }
  result.ledger["episodes"] = Hex(fp.digest());
  result.ledger["fault.replans"] = std::to_string(timed.replans);
  result.ledger["fault.replan_runs"] = std::to_string(replans);

  if (!options.trace) return result;

  // Traced pass over the same rounds; digests and counts must repeat.
  Tracer tracer(true);
  const std::int64_t traced_replans0 = CounterValue("fault.replan.runs");
  const std::int64_t subproblems0 = CounterValue("fault.replan.subproblems");
  const std::int64_t searches0 = HistogramCount("planner.parallel.wall_seconds");
  const double search_s0 = HistogramSum("planner.parallel.wall_seconds");
  const std::int64_t tasks0 = CounterValue("sim.tasks_executed");
  const double replan_s0 = HistogramSum("fault.replan.wall_seconds");
  const Job traced_job = SetUpJob(&tracer);
  WorkloadResult discarded;
  const PassTotals traced =
      RunRounds(traced_job, list, rounds, &tracer, digests, result.traced, discarded);
  for (const std::string& f : discarded.failures) result.failures.push_back(f);
  const double replan_s = HistogramSum("fault.replan.wall_seconds") - replan_s0;
  const std::int64_t traced_replans = CounterValue("fault.replan.runs") - traced_replans0;
  if (traced.replans != timed.replans || traced_replans != replans) {
    result.failures.push_back("replan counts differ between the untraced and traced pass");
  }
  result.spans = tracer.Summarize();

  const double n = static_cast<double>(traced.episodes);
  const double episode_s = result.spans["scenario.RunEpisode"].total_s;
  result.layers = {
      {"planner.search_ms", "ms",
       Ratio(1e3 * (HistogramSum("planner.parallel.wall_seconds") - search_s0),
             static_cast<double>(HistogramCount("planner.parallel.wall_seconds") - searches0)),
       true, "registry planner.parallel.wall_seconds per search (set-up plan + replans)"},
      {"planner.subproblems", "count",
       static_cast<double>(CounterValue("fault.replan.subproblems") - subproblems0), true,
       "registry fault.replan.subproblems delta (elastic replans)"},
      {"fault.replans_per_episode", "count", Ratio(static_cast<double>(traced_replans), n), true,
       "registry fault.replan.runs per episode"},
      {"fault.replan_ms", "ms", Ratio(1e3 * replan_s, static_cast<double>(traced_replans)), true,
       "registry fault.replan.wall_seconds per replan"},
      {"fault.sim_ms", "ms", 1e3 * (episode_s - replan_s) / n, true,
       "RunEpisode span minus replan wall, per episode"},
      {"sim.events_per_host_s", "1/s",
       Ratio(static_cast<double>(CounterValue("sim.tasks_executed") - tasks0),
             episode_s - replan_s),
       true, "registry sim.tasks_executed / (episode - replan) wall"},
      {"scenario.stream_ms", "ms", MeanMs(result.spans, "scenario.GenerateChurnScript"), true,
       "GenerateChurnScript per episode"},
      {"scenario.episode_ms", "ms", MeanMs(result.spans, "scenario.RunEpisode"), true,
       "RunEpisode per episode"},
  };
  AddModelTopoLayers(result);
  return result;
}

}  // namespace perfbench
