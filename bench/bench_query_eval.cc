// Compiled conjunctive-query evaluation, two sweeps.
//
// 1. Chain-join sweep: chain joins of 1–4 atoms over random edge
//    relations, crossed with relation size and join selectivity (edge
//    fanout). Every configuration is timed on the compiled slot-based
//    plans with lazy hash indexes (relational/query_plan.h) and
//    cross-checked against the relational-algebra oracle (CompileQuery +
//    AlgebraExpr::EvalInWorld), so a planner or index bug shows up as
//    "!! MISMATCH" instead of a fast wrong answer. The oracle materializes
//    each intermediate Cartesian product before filtering it, so it only
//    runs where the full product |E|^atoms fits in kOracleProductCap
//    tuples; larger rows print "unchecked" (never "ok") and no oracle
//    time. The speedup column is oracle ms / compiled ms.
//
// 2. Per-world answer sweep: QuerySystem::AnswerExact on 1–3-atom chains
//    over identity collections of 2^10–2^14 possible worlds. AnswerExact
//    lowers the plan once and runs the compiled plans in every world; the
//    reference accumulator enumerates the same worlds and evaluates the
//    plan with EvalInWorld in each, and every row must match it exactly
//    (certain, possible, confidences, worlds). Rows whose reference work
//    worlds · |E|^atoms exceeds kReferenceWorkCap print "unchecked".
//
// `--smoke` runs a seconds-scale subset of both in which every row is
// checked (ctest bench_query_eval_smoke); the full sweeps plus the
// google-benchmark section are the default. The final line is the
// standard structured metrics record (bench_util.h), which carries the
// eval.* and query.* counters for tools/check_metrics_schema.py. Exits
// non-zero on any mismatch.

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "bench_util.h"
#include "benchmark/benchmark.h"
#include "psc/algebra/plan_compiler.h"
#include "psc/core/query_system.h"
#include "psc/counting/identity_instance.h"
#include "psc/counting/world_enumerator.h"
#include "psc/parser/parser.h"
#include "psc/relational/conjunctive_query.h"
#include "psc/relational/database.h"
#include "psc/relational/query_plan.h"
#include "psc/util/random.h"

namespace psc {
namespace {

/// A random edge relation E with `edges` tuples over a `domain`-node
/// universe: fanout edges/domain controls join selectivity.
Database MakeGraphDb(uint64_t seed, int64_t edges, int64_t domain) {
  Rng rng(seed);
  Database db;
  while (db.size() < static_cast<size_t>(edges)) {
    db.AddFact("E", {Value(rng.UniformInt(0, domain - 1)),
                     Value(rng.UniformInt(0, domain - 1))});
  }
  return db;
}

/// The k-atom chain join V(v0, vk) <- E(v0, v1), ..., E(v_{k-1}, v_k),
/// optionally guarded by a built-in on the endpoints.
ConjunctiveQuery ChainQuery(int atoms, bool with_builtin) {
  std::string text = "V(v0, v" + std::to_string(atoms) + ") <- ";
  for (int i = 0; i < atoms; ++i) {
    if (i > 0) text += ", ";
    text += "E(v" + std::to_string(i) + ", v" + std::to_string(i + 1) + ")";
  }
  if (with_builtin) text += ", Before(v0, v" + std::to_string(atoms) + ")";
  auto query = ParseQuery(text);
  if (!query.ok()) {
    std::fprintf(stderr, "bad bench query %s: %s\n", text.c_str(),
                 query.status().ToString().c_str());
    std::abort();
  }
  return std::move(query).ValueOrDie();
}

/// Largest |E|^atoms, in tuples, for which the oracle runs. It bounds
/// every product the oracle materializes as a std::set of tuples, and so
/// its memory (tens of MB).
constexpr double kOracleProductCap = 1 << 18;

/// Times `reps` calls of `evaluate`; returns per-call ms and stores the
/// last result for the cross-check.
template <typename Evaluate>
double TimeEvaluations(const Evaluate& evaluate, int reps, Relation* result) {
  bench_util::Stopwatch stopwatch;
  for (int r = 0; r < reps; ++r) {
    Result<Relation> evaluated = evaluate();
    if (!evaluated.ok()) {
      std::fprintf(stderr, "evaluate failed: %s\n",
                   evaluated.status().ToString().c_str());
      std::abort();
    }
    if (r + 1 == reps) *result = *std::move(evaluated);
  }
  return stopwatch.ElapsedMillis() / reps;
}

struct SweepConfig {
  int64_t edges;
  int64_t domain;  // fanout = edges / domain
};

int RunSweep(bool smoke) {
  const std::vector<int> atom_counts =
      smoke ? std::vector<int>{2, 3} : std::vector<int>{1, 2, 3, 4};
  const std::vector<SweepConfig> configs =
      smoke ? std::vector<SweepConfig>{{64, 32}}
            : std::vector<SweepConfig>{{100, 100},   // tiny, sparse
                                       {1000, 1000},  // fanout 1
                                       {1000, 250},   // fanout 4
                                       {4000, 2000}};
  const int compiled_reps = smoke ? 2 : 10;
  const int oracle_reps = smoke ? 1 : 2;

  std::printf("oracle product cap: %.0f tuples\n", kOracleProductCap);
  std::printf("%6s %7s %7s %9s | %12s %12s %9s | %8s %s\n", "atoms",
              "edges", "domain", "builtin", "oracle ms", "compiled ms",
              "speedup", "tuples", "check");
  int mismatches = 0;
  for (const SweepConfig& config : configs) {
    const Database db = MakeGraphDb(/*seed=*/17, config.edges, config.domain);
    for (const int atoms : atom_counts) {
      for (const bool with_builtin : {false, true}) {
        const ConjunctiveQuery query = ChainQuery(atoms, with_builtin);
        eval::ClearQueryPlanCache();
        Relation compiled_result;
        const double compiled_ms = TimeEvaluations(
            [&] { return query.Evaluate(db); }, compiled_reps,
            &compiled_result);
        std::printf("%6d %7lld %7lld %9s | ", atoms,
                    static_cast<long long>(config.edges),
                    static_cast<long long>(config.domain),
                    with_builtin ? "yes" : "no");
        if (std::pow(static_cast<double>(config.edges), atoms) >
            kOracleProductCap) {
          std::printf("%12s %12.3f %9s | %8zu unchecked\n", "-", compiled_ms,
                      "-", compiled_result.size());
          continue;
        }
        auto oracle = CompileQuery(query);
        if (!oracle.ok()) {
          std::fprintf(stderr, "oracle compile failed: %s\n",
                       oracle.status().ToString().c_str());
          std::abort();
        }
        Relation oracle_result;
        const double oracle_ms = TimeEvaluations(
            [&] { return (*oracle)->EvalInWorld(db); }, oracle_reps,
            &oracle_result);
        const bool match = compiled_result == oracle_result;
        mismatches += match ? 0 : 1;
        std::printf("%12.3f %12.3f %8.1fx | %8zu %s\n", oracle_ms,
                    compiled_ms, oracle_ms / std::max(compiled_ms, 1e-6),
                    compiled_result.size(), match ? "ok" : "!! MISMATCH");
      }
    }
  }
  return mismatches;
}

/// An identity collection over E/2 whose possible worlds are the subsets
/// of a random `edges`-edge extension holding at least half of it: one
/// source, completeness 1 (D ⊆ v) and soundness 1/2 (|D| ≥ |v|/2), so an
/// odd `edges` gives exactly 2^(edges-1) worlds. Nodes range over
/// 0..edges-1 (fanout about 1); `domain` receives them.
SourceCollection HalfSubsetCollection(uint64_t seed, int64_t edges,
                                      std::vector<Value>* domain) {
  Rng rng(seed);
  Relation extension;
  while (extension.size() < static_cast<size_t>(edges)) {
    extension.insert({Value(rng.UniformInt(0, edges - 1)),
                      Value(rng.UniformInt(0, edges - 1))});
  }
  domain->clear();
  for (int64_t node = 0; node < edges; ++node) domain->push_back(Value(node));
  auto source = SourceDescriptor::Create("S", ConjunctiveQuery::Identity("E", 2),
                                         std::move(extension), Rational::One(),
                                         Rational(1, 2));
  auto collection = source.ok() ? SourceCollection::Create({*source})
                                : Result<SourceCollection>(source.status());
  if (!collection.ok()) {
    std::fprintf(stderr, "bench collection: %s\n",
                 collection.status().ToString().c_str());
    std::abort();
  }
  return std::move(collection).ValueOrDie();
}

/// Reference answer: the same worlds AnswerExact enumerates, each
/// evaluated with EvalInWorld; certain = ⋂, possible = ⋃, counts per tuple.
struct ReferenceAnswer {
  Relation certain;
  Relation possible;
  std::map<Tuple, uint64_t> counts;
  uint64_t worlds = 0;
};

ReferenceAnswer ReferenceExact(const SourceCollection& collection,
                               const std::vector<Value>& domain,
                               const AlgebraExpr& plan) {
  auto instance = IdentityInstance::Create(collection, domain);
  if (!instance.ok()) {
    std::fprintf(stderr, "reference instance: %s\n",
                 instance.status().ToString().c_str());
    std::abort();
  }
  ReferenceAnswer reference;
  const IdentityWorldEnumerator enumerator(&*instance);
  auto completed = enumerator.ForEachWorld([&](const Database& world) {
    auto answer = plan.EvalInWorld(world);
    if (!answer.ok()) {
      std::fprintf(stderr, "reference eval: %s\n",
                   answer.status().ToString().c_str());
      std::abort();
    }
    if (reference.worlds == 0) {
      reference.certain = *answer;
    } else {
      Relation still_certain;
      for (const Tuple& tuple : reference.certain) {
        if (answer->count(tuple) > 0) still_certain.insert(tuple);
      }
      reference.certain = std::move(still_certain);
    }
    for (const Tuple& tuple : *answer) {
      reference.possible.insert(tuple);
      ++reference.counts[tuple];
    }
    ++reference.worlds;
    return true;
  });
  if (!completed.ok()) {
    std::fprintf(stderr, "reference enumeration: %s\n",
                 completed.status().ToString().c_str());
    std::abort();
  }
  return reference;
}

/// True iff `answer` is bit-identical to `reference`.
bool MatchesReference(const QueryAnswer& answer,
                      const ReferenceAnswer& reference) {
  if (answer.worlds_used != reference.worlds ||
      answer.certain != reference.certain ||
      answer.possible != reference.possible ||
      answer.confidences.size() != reference.counts.size()) {
    return false;
  }
  for (const auto& [tuple, count] : reference.counts) {
    const auto confidence = answer.confidences.ConfidenceOf(tuple);
    if (!confidence.ok() ||
        *confidence != static_cast<double>(count) /
                           static_cast<double>(reference.worlds)) {
      return false;
    }
  }
  return true;
}

/// Largest worlds · |E|^atoms for which the answer reference runs (its
/// per-world products dominate its time).
constexpr double kReferenceWorkCap = 1 << 25;

int RunAnswerSweep(bool smoke) {
  // Odd edge counts: 2^(edges-1) worlds.
  const std::vector<int64_t> edge_counts =
      smoke ? std::vector<int64_t>{11} : std::vector<int64_t>{11, 13, 15};
  const int reps = smoke ? 1 : 3;
  std::printf("\n=== per-world answer sweep: AnswerExact on chain queries ===\n");
  std::printf("reference work cap: %.0f world-tuples\n", kReferenceWorkCap);
  std::printf("%6s %7s %7s | %12s %12s %9s | %8s %8s %s\n", "atoms",
              "edges", "worlds", "reference ms", "answer ms", "speedup",
              "possible", "certain", "check");
  int mismatches = 0;
  for (const int64_t edges : edge_counts) {
    std::vector<Value> domain;
    const SourceCollection collection =
        HalfSubsetCollection(/*seed=*/29, edges, &domain);
    QuerySystem::Options options;
    options.threads = 1;
    auto system = QuerySystem::Create(collection, options);
    if (!system.ok()) std::abort();
    for (int atoms = 1; atoms <= 3; ++atoms) {
      const ConjunctiveQuery query = ChainQuery(atoms, /*with_builtin=*/false);
      bench_util::Stopwatch answer_watch;
      Result<QueryAnswer> answer = Status::Internal("not run");
      for (int r = 0; r < reps; ++r) answer = system->AnswerExact(query, domain);
      const double answer_ms = answer_watch.ElapsedMillis() / reps;
      if (!answer.ok()) {
        std::fprintf(stderr, "AnswerExact failed: %s\n",
                     answer.status().ToString().c_str());
        return mismatches + 1;
      }
      std::printf("%6d %7lld %7llu | ", atoms, static_cast<long long>(edges),
                  static_cast<unsigned long long>(answer->worlds_used));
      const double work = static_cast<double>(answer->worlds_used) *
                          std::pow(static_cast<double>(edges), atoms);
      if (work > kReferenceWorkCap) {
        std::printf("%12s %12.3f %9s | %8zu %8zu unchecked\n", "-",
                    answer_ms, "-", answer->possible.size(),
                    answer->certain.size());
        continue;
      }
      auto plan = CompileQuery(query);
      if (!plan.ok()) std::abort();
      bench_util::Stopwatch reference_watch;
      const ReferenceAnswer reference =
          ReferenceExact(collection, domain, **plan);
      const double reference_ms = reference_watch.ElapsedMillis();
      const bool match = MatchesReference(*answer, reference);
      mismatches += match ? 0 : 1;
      std::printf("%12.3f %12.3f %8.1fx | %8zu %8zu %s\n", reference_ms,
                  answer_ms, reference_ms / std::max(answer_ms, 1e-6),
                  answer->possible.size(), answer->certain.size(),
                  match ? "ok" : "!! MISMATCH");
    }
  }
  return mismatches;
}

void BM_ChainJoin(benchmark::State& state) {
  const int atoms = static_cast<int>(state.range(0));
  const Database db = MakeGraphDb(/*seed=*/17, /*edges=*/1000, /*domain=*/500);
  const ConjunctiveQuery query = ChainQuery(atoms, /*with_builtin=*/false);
  for (auto _ : state) {
    auto result = query.Evaluate(db);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_ChainJoin)->ArgNames({"atoms"})->Arg(2)->Arg(3);

}  // namespace
}  // namespace psc

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  std::printf("=== compiled query evaluation: chain-join sweep%s ===\n",
              smoke ? " (smoke)" : "");
  const int mismatches = psc::RunSweep(smoke) + psc::RunAnswerSweep(smoke);
  if (!smoke) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
  }
  psc::bench_util::EmitMetricsRecord("bench_query_eval");
  if (mismatches > 0) {
    std::fprintf(stderr, "%d oracle mismatches\n", mismatches);
    return 1;
  }
  return 0;
}
