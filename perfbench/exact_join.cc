// exact-join: the one-shot `psc answer` lifecycle on mirror collections,
// closed loop, one client, solver threads 1.
//
// One operation is ParseCollection → QuerySystem::Create →
// CheckConsistency → ParseQuery → AnswerExact(cq, domain). Per-world
// evaluation (algebra) dominates, and its cost grows with the world count
// and the number of chain atoms, so instances are drawn at fixed world
// counts on a geometric ladder: the heavy tail is always present and two
// seeds cost the same.

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "mirrors.h"
#include "psc/algebra/plan_compiler.h"
#include "psc/core/query_system.h"
#include "psc/counting/identity_instance.h"
#include "psc/counting/world_enumerator.h"
#include "psc/obs/metrics.h"
#include "psc/parser/parser.h"
#include "psc/util/random.h"
#include "psc/util/string_util.h"
#include "spans.h"

namespace perfbench {

namespace {

/// The instance ladder: kLevels world counts on a geometric scale from
/// kMinWorlds to kMaxWorlds, kPerLevel instances at each.
constexpr double kMinWorlds = 32;
constexpr double kMaxWorlds = 2048;
constexpr int kLevels = 16;
constexpr int kPerLevel = 2;
/// Instance selection: of kDraws draws, the first kPickOf whose world
/// count is within kTolerance of the target; the median join work is kept.
constexpr double kTolerance = 0.1;
constexpr int kDraws = 150;
constexpr int kPickOf = 7;

/// Per-layer metrics of layers this workload does not reach.
constexpr const char* kNotExercised[] = {
    "algebra.eval_confidence_us", "counting.base_confidences_ms",
    "counting.sampler_create_ms", "counting.sample_us",
    "exec.pool_create_us",        "delta.answer_hit_ratio",
    "delta.answer_miss_us",       "delta.apply_us",
    "delta.revalidations_per_delta", "delta.e2e_tail_us",
    "serve.submit_us",            "serve.queue_wait_us",
    "serve.delta_unaccounted_us", "serve.batch_size_mean",
    "serve.dedup_ratio",          "loadgen.lag_tail_us",
    "serve.open_answer_p50_us",   "serve.open_answer_tail_us"};

/// The answer an oracle expects: certain, possible and exact confidences.
struct Expected {
  psc::Relation certain;
  psc::Relation possible;
  std::map<psc::Tuple, double> confidences;
  uint64_t worlds = 0;
};

struct Job {
  size_t instance = 0;
  int atoms = 1;
};

struct Setup {
  std::vector<std::string> texts;
  std::vector<Job> jobs;
  /// The warm-up operation's answer per instance (its 1-atom chain).
  std::vector<psc::Result<psc::QueryAnswer>> warm_up;
  /// jobs[i]'s expected answer.
  std::vector<Expected> expected;
};

/// Per-operation layer measurements of the traced run.
struct LayerSample {
  double parse_us = 0, check_us = 0, compile_us = 0, answer_us = 0;
  double instance_us = 0, eval_us = 0, enumerate_us = 0;
  uint64_t worlds = 0;
};

/// Recomputes a query's answer with the compiled conjunctive-query
/// evaluator (ConjunctiveQuery::Evaluate) over every enumerated world —
/// an evaluator independent of the algebra plans AnswerExact uses.
psc::Result<Expected> OracleAnswer(const std::string& text,
                                   const std::vector<psc::Value>& domain,
                                   const psc::ConjunctiveQuery& query) {
  PSC_ASSIGN_OR_RETURN(const psc::SourceCollection collection,
                       psc::ParseCollection(text));
  PSC_ASSIGN_OR_RETURN(const psc::IdentityInstance instance,
                       psc::IdentityInstance::Create(collection, domain));
  Expected expected;
  std::map<psc::Tuple, uint64_t> containment;
  psc::Status error;
  const psc::IdentityWorldEnumerator enumerator(&instance);
  PSC_ASSIGN_OR_RETURN(
      const bool completed,
      enumerator.ForEachWorld([&](const psc::Database& world) {
        auto answer = query.Evaluate(world);
        if (!answer.ok()) {
          error = answer.status();
          return false;
        }
        if (expected.worlds == 0) {
          expected.certain = *answer;
        } else {
          psc::Relation still;
          for (const psc::Tuple& tuple : expected.certain) {
            if (answer->count(tuple) > 0) still.insert(tuple);
          }
          expected.certain = std::move(still);
        }
        for (const psc::Tuple& tuple : *answer) {
          expected.possible.insert(tuple);
          ++containment[tuple];
        }
        ++expected.worlds;
        return true;
      }));
  if (!completed) return error;
  for (const auto& [tuple, count] : containment) {
    expected.confidences[tuple] = static_cast<double>(count) /
                                  static_cast<double>(expected.worlds);
  }
  return expected;
}

/// For the 1-atom (identity) query, answer confidences are the base-fact
/// confidences of Section 5.1.
psc::Status CheckAgainstBaseConfidences(const std::string& text,
                                        const std::vector<psc::Value>& domain,
                                        const Expected& expected) {
  PSC_ASSIGN_OR_RETURN(psc::SourceCollection collection,
                       psc::ParseCollection(text));
  psc::QuerySystem::Options options;
  options.threads = 1;
  PSC_ASSIGN_OR_RETURN(const psc::QuerySystem system,
                       psc::QuerySystem::Create(std::move(collection), options));
  PSC_ASSIGN_OR_RETURN(const psc::ConfidenceTable table,
                       system.BaseConfidences(domain));
  for (const psc::TupleConfidence& entry : table.entries) {
    const auto it = expected.confidences.find(entry.tuple);
    const double want = it == expected.confidences.end() ? 0.0 : it->second;
    if (std::fabs(want - entry.confidence) > 1e-12) {
      return psc::Status::Internal(psc::StrCat(
          "base confidence of ", psc::TupleToString(entry.tuple), " is ",
          entry.confidence, ", enumeration gives ", want));
    }
  }
  return psc::Status::OK();
}

/// Empty when `answer` equals `expected` exactly, else what differs.
std::string Compare(const psc::QueryAnswer& answer, const Expected& expected) {
  if (answer.worlds_used != expected.worlds) {
    return psc::StrCat("worlds ", answer.worlds_used, " vs ",
                       expected.worlds);
  }
  if (answer.certain != expected.certain) return "certain answers differ";
  if (answer.possible != expected.possible) return "possible answers differ";
  if (answer.confidences.entries() != expected.confidences) {
    return "confidences differ";
  }
  return "";
}

/// Draws the instances at the ladder's world counts. Selecting them
/// enumerates many candidates' worlds, so it is not part of the timed
/// set-up, which regenerates the kept instances from their seeds.
std::vector<MirrorCollection> SelectInstances(uint64_t seed) {
  const MirrorShape shape;
  std::vector<MirrorCollection> instances;
  for (int level = 0; level < kLevels; ++level) {
    const double share =
        kLevels > 1 ? static_cast<double>(level) / (kLevels - 1) : 0.0;
    const auto target = static_cast<uint64_t>(std::llround(
        kMinWorlds * std::pow(kMaxWorlds / kMinWorlds, share)));
    for (int copy = 0; copy < kPerLevel; ++copy) {
      instances.push_back(MirrorNearWorlds(
          shape, seed, static_cast<uint64_t>(level * kPerLevel + copy),
          target, kTolerance, kDraws, kPickOf, 0));
    }
  }
  return instances;
}

/// Oracle answers for every job; failures are counted against the run.
void ComputeExpected(const std::vector<psc::Value>& domain, Setup* setup,
                     RunRecord* record) {
  setup->expected.assign(setup->jobs.size(), Expected{});
  for (size_t j = 0; j < setup->jobs.size(); ++j) {
    const Job& job = setup->jobs[j];
    const std::string& text = setup->texts[job.instance];
    auto query = psc::ParseQuery(ChainQuery(job.atoms));
    auto expected = query.ok() ? OracleAnswer(text, domain, *query)
                               : psc::Result<Expected>(query.status());
    if (!expected.ok()) {
      record->Fail("oracle: " + expected.status().ToString(), true);
      continue;
    }
    if (job.atoms == 1) {
      const psc::Status base =
          CheckAgainstBaseConfidences(text, domain, *expected);
      if (!base.ok()) record->Fail("oracle: " + base.ToString(), true);
    }
    setup->expected[j] = std::move(*expected);
  }
}

/// One timed operation; returns the answer or the failing status.
psc::Result<psc::QueryAnswer> RunOperation(const std::string& text,
                                           const std::string& query_text,
                                           const std::vector<psc::Value>& domain,
                                           SpanLog* spans, uint64_t request,
                                           LayerSample* sample) {
  ScopedSpan op_span(spans, "bench.op", request);
  Clock::time_point mark = Clock::now();
  // Times each step since the previous one; steps no metric reports
  // pass null.
  const auto lap = [&mark](double* into) {
    const Clock::time_point now = Clock::now();
    if (into != nullptr) *into = MicrosBetween(mark, now);
    mark = now;
  };
  std::optional<ScopedSpan> span;
  span.emplace(spans, "parser.collection");
  auto collection = psc::ParseCollection(text);
  span.reset();
  lap(&sample->parse_us);
  if (!collection.ok()) return collection.status();

  psc::QuerySystem::Options options;
  options.threads = 1;
  span.emplace(spans, "core.create");
  auto system = psc::QuerySystem::Create(std::move(*collection), options);
  span.reset();
  lap(nullptr);
  if (!system.ok()) return system.status();

  span.emplace(spans, "consistency.check");
  auto report = system->CheckConsistency();
  span.reset();
  lap(&sample->check_us);
  if (!report.ok()) return report.status();
  if (report->verdict != psc::ConsistencyVerdict::kConsistent) {
    return psc::Status::Internal(
        psc::StrCat("verdict ",
                    psc::ConsistencyVerdictToString(report->verdict),
                    " on a collection the truth satisfies"));
  }

  span.emplace(spans, "parser.query");
  auto query = psc::ParseQuery(query_text);
  span.reset();
  lap(nullptr);
  if (!query.ok()) return query.status();

  // AnswerExact(cq, domain) compiles and answers; the two steps are
  // called separately so each gets its own span.
  span.emplace(spans, "algebra.compile");
  auto plan = psc::CompileQuery(*query);
  span.reset();
  lap(&sample->compile_us);
  if (!plan.ok()) return plan.status();

  span.emplace(spans, "core.answer_exact");
  auto answer = system->AnswerExact(*plan, domain);
  span.reset();
  lap(&sample->answer_us);
  return answer;
}

/// The timed set-up: generates the kept instances and runs one warm-up
/// operation (the 1-atom chain) on each. Its answers are checked after
/// the timing.
Setup BuildSetup(const std::vector<uint64_t>& seeds,
                 const std::vector<psc::Value>& domain) {
  const MirrorShape shape;
  Setup setup;
  SpanLog no_spans(false);
  for (const uint64_t seed : seeds) {
    setup.texts.push_back(MakeMirrorCollection(shape, seed).Text());
    LayerSample sample;
    setup.warm_up.push_back(RunOperation(setup.texts.back(), ChainQuery(1),
                                         domain, &no_spans, 0, &sample));
  }
  for (size_t i = 0; i < setup.texts.size(); ++i) {
    for (int atoms = 1; atoms <= 3; ++atoms) {
      setup.jobs.push_back(Job{i, atoms});
    }
  }
  return setup;
}

/// The traced run's re-drive of AnswerExact from outside: builds the
/// identity instance, enumerates its worlds and times EvalInWorld per
/// world. Returns what differs from `answer`, or "" when equal.
std::string Redrive(const std::string& text, const std::string& query_text,
                    const std::vector<psc::Value>& domain,
                    const psc::QueryAnswer& answer, SpanLog* spans,
                    uint64_t request, LayerSample* sample) {
  ScopedSpan redrive_span(spans, "bench.redrive", request);
  auto collection = psc::ParseCollection(text);
  auto query = psc::ParseQuery(query_text);
  if (!collection.ok() || !query.ok()) return "re-drive: parse failed";
  auto plan = psc::CompileQuery(*query);
  if (!plan.ok()) return "re-drive: " + plan.status().ToString();
  std::optional<psc::IdentityInstance> instance;
  {
    ScopedSpan span(spans, "counting.instance_create");
    const Clock::time_point begin = Clock::now();
    auto created = psc::IdentityInstance::Create(*collection, domain);
    sample->instance_us = MicrosBetween(begin, Clock::now());
    if (!created.ok()) return "re-drive: " + created.status().ToString();
    instance = std::move(*created);
  }
  Expected redriven;
  std::map<psc::Tuple, uint64_t> containment;
  double callback_us = 0;
  double eval_us = 0;
  psc::Status error;
  const psc::IdentityWorldEnumerator enumerator(&*instance);
  ScopedSpan enumerate_span(spans, "counting.for_each_world");
  const uint64_t enumerate_start = psc::obs::TraceNowMicros();
  const Clock::time_point start = Clock::now();
  auto completed = enumerator.ForEachWorld([&](const psc::Database& world) {
    const Clock::time_point begin = Clock::now();
    auto result = (*plan)->EvalInWorld(world);
    const Clock::time_point evaluated = Clock::now();
    eval_us += MicrosBetween(begin, evaluated);
    if (!result.ok()) {
      error = result.status();
      return false;
    }
    if (redriven.worlds == 0) {
      redriven.certain = *result;
    } else {
      psc::Relation still;
      for (const psc::Tuple& tuple : redriven.certain) {
        if (result->count(tuple) > 0) still.insert(tuple);
      }
      redriven.certain = std::move(still);
    }
    for (const psc::Tuple& tuple : *result) {
      redriven.possible.insert(tuple);
      ++containment[tuple];
    }
    ++redriven.worlds;
    callback_us += MicrosBetween(begin, Clock::now());
    return true;
  });
  const double total_us = MicrosBetween(start, Clock::now());
  // The per-world callbacks are one coalesced child span: their summed
  // time is the algebra layer's share of the enumeration.
  spans->AddCoalesced("algebra.eval_in_world", enumerate_start, eval_us,
                      redriven.worlds);
  spans->AddCoalesced("bench.accumulate", enumerate_start,
                      callback_us - eval_us, redriven.worlds);
  if (!completed.ok()) return "re-drive: " + completed.status().ToString();
  if (!error.ok()) return "re-drive: " + error.ToString();
  for (const auto& [tuple, count] : containment) {
    redriven.confidences[tuple] = static_cast<double>(count) /
                                  static_cast<double>(redriven.worlds);
  }
  sample->eval_us = eval_us;
  sample->enumerate_us = total_us - callback_us;
  sample->worlds = redriven.worlds;
  const std::string diff = Compare(answer, redriven);
  return diff.empty() ? "" : "re-drive: " + diff;
}

struct Counters {
  static constexpr const char* kNames[] = {
      "consistency.nodes_expanded", "algebra.tuples_produced",
      "counting.shapes_visited",    "counting.feasible_shapes",
      "eval.probes",                "eval.plan_cache.hits",
      "eval.plan_cache.misses",     "exec.pools_created",
      "exec.tasks_executed",        "exec.steals",
      "query.worlds_used"};
  std::map<std::string, uint64_t> values;

  static Counters Read() {
    Counters counters;
    for (const char* name : kNames) counters.values[name] = CounterValue(name);
    return counters;
  }
  uint64_t Since(const Counters& before, const std::string& name) const {
    return values.at(name) - before.values.at(name);
  }
};

/// Runs complete rounds over every job (shuffled per round) until
/// `seconds` have been spent in operations, logging each operation.
void RunRounds(const Params& params, const Setup& setup,
               const std::vector<psc::Value>& domain, double seconds,
               uint64_t round_stream, SpanLog* spans, RoundLog* log,
               std::vector<LayerSample>* samples, RunRecord* record) {
  uint64_t request = round_stream * 1000000;
  // The wall-clock stop only matters when operations keep failing.
  const Clock::time_point stop =
      Clock::now() + std::chrono::microseconds(
                         static_cast<int64_t>(seconds * 3e6));
  for (uint64_t round = 0;
       log->busy_us() < seconds * 1e6 && Clock::now() < stop; ++round) {
    std::vector<size_t> order(setup.jobs.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    psc::Rng rng(psc::MixSeed(params.seed, round_stream + round));
    rng.Shuffle(&order);
    for (const size_t j : order) {
      const Job& job = setup.jobs[j];
      const std::string query_text = ChainQuery(job.atoms);
      LayerSample sample;
      ++request;
      ++record->attempted;
      const Clock::time_point start = Clock::now();
      auto answer = RunOperation(setup.texts[job.instance], query_text,
                                 domain, spans, request, &sample);
      const double latency = MicrosBetween(start, Clock::now());
      if (!answer.ok()) {
        record->Fail("exact-join: " + answer.status().ToString(), false);
        continue;
      }
      log->Add(latency);
      const std::string diff = Compare(*answer, setup.expected[j]);
      if (!diff.empty()) {
        record->Fail("exact-join oracle: " + diff, true);
        continue;
      }
      if (samples != nullptr) {
        const std::string redrive_diff =
            Redrive(setup.texts[job.instance], query_text, domain, *answer,
                    spans, request, &sample);
        if (!redrive_diff.empty()) record->Fail(redrive_diff, true);
        spans->ImportLibrarySpans();
        samples->push_back(sample);
      }
    }
    log->EndRound();
  }
}

double Mean(const std::vector<LayerSample>& samples,
            double LayerSample::*field) {
  double sum = 0;
  for (const LayerSample& sample : samples) sum += sample.*field;
  return samples.empty() ? 0.0 : sum / static_cast<double>(samples.size());
}

}  // namespace

void RunExactJoin(const Params& params, RunRecord* record) {
  const MirrorShape shape;
  const std::vector<psc::Value> domain = MirrorDomain(shape);
  const std::vector<MirrorCollection> instances = SelectInstances(params.seed);
  std::vector<uint64_t> seeds;
  uint64_t min_worlds = UINT64_MAX, max_worlds = 0;
  for (const MirrorCollection& instance : instances) {
    seeds.push_back(instance.seed);
    min_worlds = std::min(min_worlds, instance.worlds);
    max_worlds = std::max(max_worlds, instance.worlds);
  }
  Setup setup;
  const double setup_s =
      TimeSetup([&] { setup = BuildSetup(seeds, domain); });
  // The oracle answers every operation is checked against, and the check
  // of the warm-up answers.
  const Clock::time_point oracle_start = Clock::now();
  ComputeExpected(domain, &setup, record);
  record->Info("oracle_s", MicrosBetween(oracle_start, Clock::now()) / 1e6);
  for (size_t j = 0; j < setup.jobs.size(); ++j) {
    if (setup.jobs[j].atoms != 1) continue;
    ++record->attempted;
    const auto& answer = setup.warm_up[setup.jobs[j].instance];
    const std::string diff =
        answer.ok() ? Compare(*answer, setup.expected[j]) : "";
    if (!answer.ok()) {
      record->Fail("exact-join warm-up: " + answer.status().ToString(), false);
    } else if (!diff.empty()) {
      record->Fail("exact-join warm-up oracle: " + diff, true);
    }
  }
  record->Info("instances", static_cast<double>(setup.texts.size()));
  record->Info("worlds_range", psc::StrCat(min_worlds, "-", max_worlds));
  record->Info("solver_threads", "1");
  record->Info("exact_join.min_worlds", kMinWorlds);
  record->Info("exact_join.max_worlds", kMaxWorlds);
  record->Info("exact_join.levels", kLevels);
  record->Info("exact_join.per_level", kPerLevel);
  record->Info("exact_join.tolerance", kTolerance);
  record->Info("exact_join.draws", kDraws);
  record->Info("exact_join.pick_of", kPickOf);

  if (!params.trace) {
    SpanLog spans(false);
    RoundLog log(1);
    RunRounds(params, setup, domain, params.seconds, 0, &spans, &log, nullptr,
              record);
    ReportClosedLoop(params, log, setup_s, /*tail_per_round=*/false, record);
    return;
  }

  // Traced run: an untraced half for the overhead ratio, then the traced
  // half with spans on (library spans included) and the re-drive.
  SpanLog untraced(false);
  RoundLog plain_log(1);
  RunRounds(params, setup, domain, params.seconds / 2, 0, &untraced,
            &plain_log, nullptr, record);
  psc::obs::Options obs_options = psc::obs::GetOptions();
  obs_options.trace_enabled = true;
  psc::obs::SetOptions(obs_options);
  SpanLog spans(true);
  RoundLog traced_log(1);
  std::vector<LayerSample> samples;
  const Counters before = Counters::Read();
  RunRounds(params, setup, domain, params.seconds / 2, 1000, &spans,
            &traced_log, &samples, record);
  const double traced_us = traced_log.busy_us();
  const Counters after = Counters::Read();
  const double ops = static_cast<double>(samples.size());
  const auto per_op = [&](const char* name) {
    return ops == 0 ? 0.0 : static_cast<double>(after.Since(before, name)) / ops;
  };
  record->Add("parser.collection_us", Mean(samples, &LayerSample::parse_us),
              "us");
  record->Add("consistency.check_us", Mean(samples, &LayerSample::check_us),
              "us");
  record->Add("consistency.nodes_expanded",
              per_op("consistency.nodes_expanded"), "count");
  record->Add("algebra.compile_us", Mean(samples, &LayerSample::compile_us),
              "us");
  record->Add("algebra.eval_in_world_ms",
              Mean(samples, &LayerSample::eval_us) / 1e3, "ms");
  const double worlds = static_cast<double>(after.Since(before,
                                                        "query.worlds_used"));
  record->Add("algebra.tuples_per_world",
              worlds == 0 ? 0.0
                          : static_cast<double>(after.Since(
                                before, "algebra.tuples_produced")) /
                                worlds,
              "count");
  record->Add("counting.instance_create_us",
              Mean(samples, &LayerSample::instance_us), "us");
  record->Add("counting.enumerate_ms",
              Mean(samples, &LayerSample::enumerate_us) / 1e3, "ms");
  record->Add("counting.worlds_per_op", worlds / std::max(ops, 1.0), "count");
  record->Add("counting.shapes_visited", per_op("counting.shapes_visited"),
              "count");
  record->Add("counting.feasible_shapes", per_op("counting.feasible_shapes"),
              "count");
  double accumulate_us = 0;
  for (const LayerSample& sample : samples) {
    accumulate_us += sample.answer_us - sample.enumerate_us - sample.eval_us;
  }
  record->Add("core.accumulate_ms",
              samples.empty() ? 0.0 : accumulate_us / samples.size() / 1e3,
              "ms");
  record->Add("eval.probes", per_op("eval.probes"), "count");
  const double plan_lookups =
      static_cast<double>(after.Since(before, "eval.plan_cache.hits") +
                          after.Since(before, "eval.plan_cache.misses"));
  record->Add("eval.plan_cache_hit_ratio",
              plan_lookups == 0
                  ? 0.0
                  : after.Since(before, "eval.plan_cache.hits") / plan_lookups,
              "ratio");
  record->Info("eval.plan_cache_lookups", psc::StrCat(plan_lookups));
  record->Add("exec.pools_per_op", per_op("exec.pools_created"), "count");
  record->Add("exec.tasks_per_op", per_op("exec.tasks_executed"), "count");
  const double tasks = static_cast<double>(
      after.Since(before, "exec.tasks_executed"));
  record->Add("exec.steal_ratio",
              tasks == 0 ? 0.0 : after.Since(before, "exec.steals") / tasks,
              "ratio");
  record->Info("exec.tasks", psc::StrCat(tasks));
  record->Add("obs.trace_overhead_ratio",
              Median(traced_log.rates()) / Median(plain_log.rates()),
              "ratio");
  // Every operation's wall time is covered by its layer spans; what the
  // spans miss is the benchmark's own glue between calls.
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
