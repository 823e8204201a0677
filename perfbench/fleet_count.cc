// fleet-count: §6 cache fleets, closed loop, one client, solver threads =
// nproc.
//
// Operations rotate through CheckConsistency, BaseConfidences,
// AnswerCompositional("Ans(x) <- Object(x)") and AnswerMonteCarlo (same
// query, fixed sample count) on QuerySystems built at set-up. Counting
// the solutions of the Γ system dominates; per-world evaluation is nearly
// absent, and every multi-threaded call builds its own thread pool.

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "psc/algebra/plan_compiler.h"
#include "psc/core/query_system.h"
#include "psc/counting/identity_instance.h"
#include "psc/counting/world_sampler.h"
#include "psc/exec/thread_pool.h"
#include "psc/obs/metrics.h"
#include "psc/parser/parser.h"
#include "psc/util/random.h"
#include "psc/util/string_util.h"
#include "psc/workload/cache_workload.h"
#include "spans.h"

namespace perfbench {

namespace {

constexpr char kQuery[] = "Ans(x) <- Object(x)";

/// kFleets fleets, evenly sized from kMinObjects to kMaxObjects objects,
/// each with kCaches caches at MakeCacheWorkload's default coverage and
/// staleness, taken as drawn.
constexpr int64_t kMinObjects = 48;
constexpr int64_t kMaxObjects = 62;
constexpr int64_t kFleets = 45;
constexpr int64_t kCaches = 4;
/// Monte-Carlo samples per operation, and the failure probability of the
/// Hoeffding bound its estimates are checked against.
constexpr uint64_t kMcSamples = 1024;
constexpr double kHoeffdingDelta = 1e-6;
/// An nproc-thread calibration slice's median time on the reference host
/// (4 threads; see RATIONALE.md).
constexpr double kPoolReferenceSliceUs = 1050;

/// Per-layer metrics of layers this workload does not reach.
constexpr const char* kNotExercised[] = {
    "parser.collection_us",       "algebra.compile_us",
    "algebra.tuples_per_world",   "counting.enumerate_ms",
    "counting.worlds_per_op",     "core.accumulate_ms",
    "delta.answer_hit_ratio",     "delta.answer_miss_us",
    "delta.apply_us",             "delta.revalidations_per_delta",
    "delta.e2e_tail_us",          "serve.submit_us",
    "serve.queue_wait_us",        "serve.delta_unaccounted_us",
    "serve.batch_size_mean",      "serve.dedup_ratio",
    "loadgen.lag_tail_us",        "serve.open_answer_p50_us",
    "serve.open_answer_tail_us"};

enum class Kind { kCheck, kBase, kCompositional, kMonteCarlo };
constexpr Kind kKinds[] = {Kind::kCheck, Kind::kBase, Kind::kCompositional,
                           Kind::kMonteCarlo};

const char* KindSpan(Kind kind) {
  switch (kind) {
    case Kind::kCheck:
      return "consistency.check";
    case Kind::kBase:
      return "core.base_confidences";
    case Kind::kCompositional:
      return "core.answer_compositional";
    case Kind::kMonteCarlo:
      return "core.answer_monte_carlo";
  }
  return "";
}

struct Fleet {
  std::optional<psc::QuerySystem> system;
  /// The verdict of the consistency check run when the fleet was loaded.
  psc::Result<psc::ConsistencyReport> load_check =
      psc::Status::Internal("not loaded");
  std::vector<psc::Value> domain;
  /// Exact base-fact confidences from a 1-thread call, the reference for
  /// every multi-threaded answer (results are bit-identical across thread
  /// counts).
  psc::ConfidenceTable reference;
};

struct Setup {
  std::vector<Fleet> fleets;
  psc::AlgebraExprPtr plan;
};

/// Layer times of one traced operation, from its re-drive.
struct LayerSample {
  Kind kind = Kind::kCheck;
  double op_us = 0, instance_us = 0, pool_us = 0, base_us = 0,
         eval_confidence_us = 0, sampler_us = 0, sample_us = 0,
         eval_us = 0;
  uint64_t samples = 0;
};

psc::QuerySystem::Options SystemOptions(size_t threads) {
  psc::QuerySystem::Options options;
  options.threads = threads;
  return options;
}

/// A drawn fleet with its exact base-fact confidences.
struct Drawn {
  /// The configuration, with the seed, MakeCacheWorkload draws it from.
  psc::CacheConfig config;
  std::vector<psc::Value> domain;
  psc::ConfidenceTable reference;
};

/// Draws the fleets and computes their reference confidences with a
/// 1-thread call. The counting cost of a fleet is bimodal across draws
/// (at 56 objects about 30k-60k or about 80k count vectors), so a run
/// averages over kFleets fleets taken as drawn; the reference is oracle
/// work, not part of the timed set-up.
std::vector<Drawn> DrawFleets(uint64_t seed, RunRecord* record) {
  std::vector<Drawn> drawn;
  for (int64_t i = 0; i < kFleets; ++i) {
    Drawn fleet;
    fleet.config.num_objects =
        kFleets > 1
            ? kMinObjects + (kMaxObjects - kMinObjects) * i / (kFleets - 1)
            : kMinObjects;
    fleet.config.num_caches = kCaches;
    fleet.config.seed = psc::MixSeed(seed, static_cast<uint64_t>(i));
    auto workload = psc::MakeCacheWorkload(fleet.config);
    auto system = workload.ok() ? psc::QuerySystem::Create(
                                      workload->collection, SystemOptions(1))
                                : psc::Result<psc::QuerySystem>(
                                      workload.status());
    if (!system.ok()) {
      record->Fail("fleet-count draw: " + system.status().ToString(), false);
      continue;
    }
    fleet.domain = workload->collection.MentionedConstants();
    auto reference = system->BaseConfidences(fleet.domain);
    if (!reference.ok()) {
      record->Fail("fleet-count reference: " + reference.status().ToString(),
                   false);
      continue;
    }
    fleet.reference = std::move(*reference);
    drawn.push_back(std::move(fleet));
  }
  return drawn;
}

/// The timed set-up: generates the fleets and loads each into a
/// QuerySystem at `threads` solver threads, checking its consistency as
/// the resident engine does on load.
Setup BuildSetup(const std::vector<Drawn>& drawn, size_t threads,
                 RunRecord* record) {
  Setup setup;
  auto query = psc::ParseQuery(kQuery);
  auto plan = query.ok() ? psc::CompileQuery(*query)
                         : psc::Result<psc::AlgebraExprPtr>(query.status());
  if (!plan.ok()) {
    record->Fail("fleet-count: " + plan.status().ToString(), false);
    return setup;
  }
  setup.plan = *plan;
  for (const Drawn& candidate : drawn) {
    auto workload = psc::MakeCacheWorkload(candidate.config);
    auto system = workload.ok()
                      ? psc::QuerySystem::Create(
                            std::move(workload->collection),
                            SystemOptions(threads))
                      : psc::Result<psc::QuerySystem>(workload.status());
    if (!system.ok()) {
      record->Fail("fleet-count set-up: " + system.status().ToString(),
                   false);
      continue;
    }
    Fleet fleet;
    fleet.domain = candidate.domain;
    fleet.reference = candidate.reference;
    fleet.system = std::move(*system);
    fleet.load_check = fleet.system->CheckConsistency();
    setup.fleets.push_back(std::move(fleet));
  }
  return setup;
}

/// Checks a confidence map against the reference table: exactly equal
/// (up to 1e-12) when `epsilon` is 0, else within ±epsilon per tuple.
std::string CompareConfidences(const std::map<psc::Tuple, double>& got,
                               const psc::ConfidenceTable& reference,
                               double epsilon) {
  const double tolerance = epsilon > 0 ? epsilon : 1e-12;
  size_t matched = 0;
  for (const psc::TupleConfidence& entry : reference.entries) {
    const auto it = got.find(entry.tuple);
    const double value = it == got.end() ? 0.0 : it->second;
    if (it != got.end()) ++matched;
    if (std::fabs(value - entry.confidence) > tolerance) {
      return psc::StrCat("confidence of ", psc::TupleToString(entry.tuple),
                         " is ", value, ", exact ", entry.confidence);
    }
  }
  if (matched != got.size()) return "answer has tuples outside the universe";
  return "";
}

/// Hoeffding: with `samples` draws, every one of `tuples` estimates lies
/// within the returned ε of its exact confidence with probability ≥ 1−δ
/// (union bound).
double HoeffdingEpsilon(uint64_t samples, size_t tuples, double delta) {
  return std::sqrt(std::log(2.0 * static_cast<double>(tuples) / delta) /
                   (2.0 * static_cast<double>(samples)));
}

/// Runs one operation and checks it; returns "" or what went wrong.
/// `mismatch` tells an oracle disagreement from an error status.
std::string RunOperation(const Setup& setup, const Fleet& fleet, Kind kind,
                         uint64_t samples, uint64_t op_seed, double delta,
                         bool* mismatch) {
  *mismatch = false;
  const psc::QuerySystem& system = *fleet.system;
  switch (kind) {
    case Kind::kCheck: {
      auto report = system.CheckConsistency();
      if (!report.ok()) return report.status().ToString();
      *mismatch = report->verdict != psc::ConsistencyVerdict::kConsistent;
      return *mismatch ? "verdict is not consistent, but the live objects "
                         "are a possible world"
                       : "";
    }
    case Kind::kBase: {
      auto table = system.BaseConfidences(fleet.domain);
      if (!table.ok()) return table.status().ToString();
      std::map<psc::Tuple, double> got;
      for (const psc::TupleConfidence& entry : table->entries) {
        got[entry.tuple] = entry.confidence;
      }
      const std::string diff = CompareConfidences(got, fleet.reference, 0);
      *mismatch = !diff.empty();
      return diff;
    }
    case Kind::kCompositional: {
      auto answer = system.AnswerCompositional(setup.plan, fleet.domain);
      if (!answer.ok()) return answer.status().ToString();
      const std::string diff =
          CompareConfidences(answer->confidences.entries(), fleet.reference, 0);
      *mismatch = !diff.empty();
      return diff;
    }
    case Kind::kMonteCarlo: {
      auto answer = system.AnswerMonteCarlo(setup.plan, fleet.domain, samples,
                                            op_seed);
      if (!answer.ok()) return answer.status().ToString();
      const double epsilon = HoeffdingEpsilon(
          samples, fleet.reference.entries.size(), delta);
      const std::string diff = CompareConfidences(
          answer->confidences.entries(), fleet.reference, epsilon);
      *mismatch = !diff.empty();
      return diff;
    }
  }
  return "unknown operation";
}

/// The traced run's re-drive of one operation through the layers' public
/// functions, timing each. Returns "" when its result agrees.
std::string Redrive(const Setup& setup, const Fleet& fleet, Kind kind,
                    size_t threads, uint64_t samples, uint64_t op_seed,
                    SpanLog* spans, uint64_t request, LayerSample* sample) {
  if (kind == Kind::kCheck) return "";
  ScopedSpan redrive_span(spans, "bench.redrive", request);
  const psc::SourceCollection& collection = fleet.system->collection();
  Clock::time_point mark = Clock::now();
  const auto lap = [&mark](double* into) {
    const Clock::time_point now = Clock::now();
    *into += MicrosBetween(mark, now);
    mark = now;
  };
  std::optional<psc::IdentityInstance> instance;
  {
    ScopedSpan span(spans, "counting.instance_create");
    auto created = psc::IdentityInstance::Create(collection, fleet.domain);
    if (!created.ok()) return created.status().ToString();
    instance = std::move(*created);
  }
  lap(&sample->instance_us);
  if (kind == Kind::kMonteCarlo) {
    std::optional<psc::WorldSampler> sampler;
    {
      ScopedSpan span(spans, "counting.sampler_create");
      auto created = psc::WorldSampler::Create(&*instance);
      if (!created.ok()) return created.status().ToString();
      sampler = std::move(*created);
    }
    lap(&sample->sampler_us);
    // Sequential re-drive of the draws: per-sample costs, not wall time.
    psc::Rng rng(op_seed);
    const uint64_t start_us = psc::obs::TraceNowMicros();
    double draw_us = 0, eval_us = 0;
    for (uint64_t i = 0; i < samples; ++i) {
      const Clock::time_point begin = Clock::now();
      const psc::Database world = sampler->Sample(&rng);
      const Clock::time_point drawn = Clock::now();
      auto answer = setup.plan->EvalInWorld(world);
      eval_us += MicrosBetween(drawn, Clock::now());
      draw_us += MicrosBetween(begin, drawn);
      if (!answer.ok()) return answer.status().ToString();
    }
    spans->AddCoalesced("counting.sample", start_us, draw_us, samples);
    spans->AddCoalesced("algebra.eval_in_world", start_us, eval_us, samples);
    sample->sample_us = draw_us;
    sample->eval_us = eval_us;
    sample->samples = samples;
    return "";
  }
  std::optional<psc::exec::ThreadPool> pool;
  if (threads > 1) {
    ScopedSpan span(spans, "exec.pool_create");
    pool.emplace(threads);
  }
  lap(&sample->pool_us);
  std::optional<psc::ConfidenceTable> table;
  {
    ScopedSpan span(spans, "counting.base_confidences");
    auto computed = psc::ComputeBaseFactConfidences(
        *instance, uint64_t{1} << 26, pool ? &*pool : nullptr);
    if (!computed.ok()) return computed.status().ToString();
    table = std::move(*computed);
  }
  lap(&sample->base_us);
  pool.reset();
  lap(&sample->pool_us);
  if (kind == Kind::kBase) return "";
  psc::ProbRelation base_relation(instance->arity());
  for (const psc::TupleConfidence& entry : table->entries) {
    const psc::Status inserted =
        base_relation.Insert(entry.tuple, entry.confidence);
    if (!inserted.ok()) return inserted.ToString();
  }
  std::map<std::string, psc::ProbRelation> base;
  base.emplace(instance->relation(), std::move(base_relation));
  lap(&sample->instance_us);
  ScopedSpan span(spans, "algebra.eval_confidence");
  auto confidences = setup.plan->EvalConfidence(base);
  lap(&sample->eval_confidence_us);
  if (!confidences.ok()) return confidences.status().ToString();
  return CompareConfidences(confidences->entries(), fleet.reference, 0);
}

struct Counters {
  static constexpr const char* kNames[] = {
      "consistency.nodes_expanded", "counting.shapes_visited",
      "counting.feasible_shapes",   "exec.pools_created",
      "exec.tasks_executed",        "exec.steals",
      "eval.probes",                "eval.plan_cache.hits",
      "eval.plan_cache.misses"};
  std::map<std::string, uint64_t> values;
  static Counters Read() {
    Counters counters;
    for (const char* name : kNames) counters.values[name] = CounterValue(name);
    return counters;
  }
  double Since(const Counters& before, const std::string& name) const {
    return static_cast<double>(values.at(name) - before.values.at(name));
  }
};

/// Complete rounds over every (fleet, kind) pair, shuffled per round,
/// until `seconds` of operation time, logging each operation.
void RunRounds(const Params& params, const Setup& setup, size_t threads,
               double seconds, uint64_t round_stream, SpanLog* spans,
               RoundLog* log, std::vector<LayerSample>* samples,
               RunRecord* record) {
  const uint64_t mc_samples = kMcSamples;
  const double delta = kHoeffdingDelta;
  std::vector<std::pair<size_t, Kind>> jobs;
  for (size_t f = 0; f < setup.fleets.size(); ++f) {
    for (const Kind kind : kKinds) jobs.emplace_back(f, kind);
  }
  uint64_t request = round_stream * 1000000;
  // The wall-clock stop only matters when operations keep failing.
  const Clock::time_point stop =
      Clock::now() + std::chrono::microseconds(
                         static_cast<int64_t>(seconds * 3e6));
  for (uint64_t round = 0; log->busy_us() < seconds * 1e6 &&
                           Clock::now() < stop && !jobs.empty();
       ++round) {
    psc::Rng rng(psc::MixSeed(params.seed, round_stream + round));
    rng.Shuffle(&jobs);
    for (const auto& [f, kind] : jobs) {
      const Fleet& fleet = setup.fleets[f];
      const uint64_t op_seed = psc::MixSeed(params.seed, ++request);
      ++record->attempted;
      bool mismatch = false;
      std::string error;
      double latency = 0;
      {
        ScopedSpan op_span(spans, "bench.op", request);
        ScopedSpan call_span(spans, KindSpan(kind));
        const Clock::time_point start = Clock::now();
        error = RunOperation(setup, fleet, kind, mc_samples, op_seed, delta,
                             &mismatch);
        latency = MicrosBetween(start, Clock::now());
      }
      if (!error.empty()) {
        record->Fail("fleet-count: " + error, mismatch);
        continue;
      }
      log->Add(latency);
      if (samples != nullptr) {
        LayerSample sample;
        sample.kind = kind;
        sample.op_us = latency;
        const std::string diff = Redrive(setup, fleet, kind, threads,
                                         mc_samples, op_seed, spans, request,
                                         &sample);
        if (!diff.empty()) record->Fail("fleet-count re-drive: " + diff, true);
        spans->ImportLibrarySpans();
        samples->push_back(sample);
      }
    }
    log->EndRound();
  }
}

/// Mean of `field` over the samples of the given kinds.
double MeanOver(const std::vector<LayerSample>& samples,
                std::initializer_list<Kind> kinds,
                double LayerSample::*field) {
  double sum = 0;
  size_t n = 0;
  for (const LayerSample& sample : samples) {
    for (const Kind kind : kinds) {
      if (sample.kind == kind) {
        sum += sample.*field;
        ++n;
      }
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

}  // namespace

void RunFleetCount(const Params& params, RunRecord* record) {
  const size_t threads = OnlineProcessors();
  const Clock::time_point oracle_start = Clock::now();
  const std::vector<Drawn> drawn = DrawFleets(params.seed, record);
  record->Info("oracle_s", MicrosBetween(oracle_start, Clock::now()) / 1e6);
  Setup setup;
  RunRecord setup_record;
  const double setup_s = TimeSetup([&] {
    setup_record = RunRecord();
    setup = BuildSetup(drawn, threads, &setup_record);
  });
  record->Merge(setup_record);
  // The load checks' verdicts: the live objects are a possible world.
  for (const Fleet& fleet : setup.fleets) {
    ++record->attempted;
    if (!fleet.load_check.ok()) {
      record->Fail("fleet-count load: " + fleet.load_check.status().ToString(),
                   false);
    } else if (fleet.load_check->verdict !=
               psc::ConsistencyVerdict::kConsistent) {
      record->Fail("fleet-count load: verdict is not consistent", true);
    }
  }
  record->Info("solver_threads", static_cast<double>(threads));
  record->Info("fleets", static_cast<double>(setup.fleets.size()));
  record->Info("fleet_count.min_objects", kMinObjects);
  record->Info("fleet_count.max_objects", kMaxObjects);
  record->Info("fleet_count.fleets", kFleets);
  record->Info("fleet_count.caches", kCaches);
  record->Info("fleet_count.mc_samples", kMcSamples);
  record->Info("fleet_count.hoeffding_delta", kHoeffdingDelta);
  // Operations run on a pool of `threads` workers, so each calibration
  // slice starts that many threads too.
  if (!params.trace) {
    SpanLog spans(false);
    RoundLog log(1, kPoolReferenceSliceUs, threads);
    RunRounds(params, setup, threads, params.seconds, 0, &spans, &log,
              nullptr, record);
    ReportClosedLoop(params, log, setup_s, /*tail_per_round=*/false, record);
    return;
  }

  SpanLog untraced(false);
  RoundLog plain_log(1, kPoolReferenceSliceUs, threads);
  RunRounds(params, setup, threads, params.seconds / 2, 0, &untraced,
            &plain_log, nullptr, record);
  psc::obs::Options obs_options = psc::obs::GetOptions();
  obs_options.trace_enabled = true;
  psc::obs::SetOptions(obs_options);
  SpanLog spans(true);
  RoundLog traced_log(1, kPoolReferenceSliceUs, threads);
  std::vector<LayerSample> samples;
  const Counters before = Counters::Read();
  RunRounds(params, setup, threads, params.seconds / 2, 1000, &spans,
            &traced_log, &samples, record);
  const Counters after = Counters::Read();
  const double ops = std::max<double>(1.0, samples.size());
  const auto per_op = [&](const char* name) {
    return after.Since(before, name) / ops;
  };
  record->Add("consistency.check_us",
              MeanOver(samples, {Kind::kCheck}, &LayerSample::op_us), "us");
  record->Add("consistency.nodes_expanded",
              per_op("consistency.nodes_expanded"), "count");
  record->Add("algebra.eval_confidence_us",
              MeanOver(samples, {Kind::kCompositional},
                       &LayerSample::eval_confidence_us),
              "us");
  record->Add("algebra.eval_in_world_ms",
              MeanOver(samples, {Kind::kMonteCarlo}, &LayerSample::eval_us) /
                  1e3,
              "ms");
  record->Add("counting.base_confidences_ms",
              MeanOver(samples, {Kind::kBase, Kind::kCompositional},
                       &LayerSample::base_us) /
                  1e3,
              "ms");
  record->Add("counting.instance_create_us",
              MeanOver(samples, {Kind::kBase, Kind::kCompositional,
                                 Kind::kMonteCarlo},
                       &LayerSample::instance_us),
              "us");
  record->Add("counting.shapes_visited", per_op("counting.shapes_visited"),
              "count");
  record->Add("counting.feasible_shapes", per_op("counting.feasible_shapes"),
              "count");
  record->Add("counting.sampler_create_ms",
              MeanOver(samples, {Kind::kMonteCarlo},
                       &LayerSample::sampler_us) /
                  1e3,
              "ms");
  double draw_us = 0, draws = 0;
  for (const LayerSample& sample : samples) {
    draw_us += sample.sample_us;
    draws += static_cast<double>(sample.samples);
  }
  record->Add("counting.sample_us", draws == 0 ? 0.0 : draw_us / draws, "us");
  record->Add("exec.pools_per_op", per_op("exec.pools_created"), "count");
  record->Add("exec.pool_create_us",
              MeanOver(samples, {Kind::kBase, Kind::kCompositional},
                       &LayerSample::pool_us),
              "us");
  record->Add("exec.tasks_per_op", per_op("exec.tasks_executed"), "count");
  const double tasks = after.Since(before, "exec.tasks_executed");
  record->Add("exec.steal_ratio",
              tasks == 0 ? 0.0 : after.Since(before, "exec.steals") / tasks,
              "ratio");
  record->Info("exec.tasks", psc::StrCat(tasks));
  record->Add("eval.probes", per_op("eval.probes"), "count");
  const double plan_lookups = after.Since(before, "eval.plan_cache.hits") +
                              after.Since(before, "eval.plan_cache.misses");
  record->Add("eval.plan_cache_hit_ratio",
              plan_lookups == 0
                  ? 0.0
                  : after.Since(before, "eval.plan_cache.hits") / plan_lookups,
              "ratio");
  record->Info("eval.plan_cache_lookups", psc::StrCat(plan_lookups));
  record->Add("obs.trace_overhead_ratio",
              Median(traced_log.rates()) / Median(plain_log.rates()),
              "ratio");
  const double traced_us = traced_log.busy_us();
  const std::map<std::string, double> self = spans.SelfMicrosByName();
  const double glue = self.count("bench.op") ? self.at("bench.op") : 0.0;
  record->Add("trace.unaccounted_share",
              traced_us == 0 ? 0.0 : glue / traced_us, "ratio");
  record->Add("proc.peak_rss_mb", PeakRssMb(), "MB");
  ReportCalibration(plain_log, record);
  for (const char* name : kNotExercised) record->NotExercised(name);
  for (const auto& [name, micros] : self) {
    record->Info("self_us." + name, psc::StrCat(micros));
  }
  if (!params.trace_out.empty() && !spans.WriteChromeTrace(params.trace_out)) {
    record->Fail("cannot write " + params.trace_out, false);
  }
}

}  // namespace perfbench
