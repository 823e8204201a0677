// Differential tests of QuerySystem's answer paths against the algebra
// oracle (eval_oracle.h). Exact and Monte-Carlo answering lower an algebra
// plan once per call to compiled conjunctive queries; the reference
// evaluates the plan itself with EvalInWorld over the same worlds. Random
// plans mix π (repeated columns), σ (all eight built-ins, constant and
// column operands, ground-false filters), ×, ⋈ and ∪ over int and string
// values; results must be bit-identical — certain and possible sets,
// confidences and worlds_used — at threads 1 and 4. Seeds are printed on
// failure for replay.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "psc/algebra/plan_compiler.h"
#include "psc/consistency/possible_worlds.h"
#include "psc/core/query_system.h"
#include "psc/counting/identity_instance.h"
#include "psc/counting/world_enumerator.h"
#include "psc/counting/world_sampler.h"
#include "psc/util/random.h"
#include "eval_oracle.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::Q;
using testing::ReferenceAccumulator;

constexpr const char* kBuiltins[] = {"Lt", "Le", "Gt", "Ge",
                                     "Eq", "Ne", "After", "Before"};
constexpr size_t kThreadCounts[] = {1, 4};

/// Mixed int/string domains: ordered comparisons cross kinds. Brute
/// force filters all 2^|universe| subsets, so its domain is smaller.
std::vector<Value> IdentityDomain() {
  return {Value(int64_t{0}), Value(int64_t{1}), Value(std::string("a"))};
}
std::vector<Value> BruteForceDomain() {
  return {Value(int64_t{0}), Value(std::string("a"))};
}
std::vector<Value> DomainOf(const SourceCollection& collection) {
  return collection.AllIdentityViews() ? IdentityDomain() : BruteForceDomain();
}

Rational RandomBound(Rng& rng) {
  static const char* kBounds[] = {"0", "1/4", "1/2", "3/4"};
  return *Rational::Parse(kBounds[rng.UniformInt(0, 3)]);
}

/// A random subset of `universe`, of size 1..max_size.
Relation RandomExtension(Rng& rng, const std::vector<Tuple>& universe,
                         int64_t max_size) {
  Relation extension;
  const int64_t size = rng.UniformInt(1, max_size);
  for (const int64_t i : rng.SampleWithoutReplacement(
           static_cast<int64_t>(universe.size()), size)) {
    extension.insert(universe[static_cast<size_t>(i)]);
  }
  return extension;
}

std::vector<Tuple> Tuples(const std::vector<Value>& domain, size_t arity) {
  std::vector<Tuple> tuples = {Tuple()};
  for (size_t pos = 0; pos < arity; ++pos) {
    std::vector<Tuple> longer;
    for (const Tuple& prefix : tuples) {
      for (const Value& value : domain) {
        Tuple tuple = prefix;
        tuple.push_back(value);
        longer.push_back(std::move(tuple));
      }
    }
    tuples = std::move(longer);
  }
  return tuples;
}

/// 2–3 identity sources over E/2: group enumeration and sampling.
SourceCollection RandomIdentityCollection(Rng& rng) {
  const std::vector<Tuple> universe = Tuples(IdentityDomain(), 2);
  std::vector<SourceDescriptor> sources;
  const int64_t count = rng.UniformInt(2, 3);
  for (int64_t i = 0; i < count; ++i) {
    auto source = SourceDescriptor::Create(
        "S" + std::to_string(i), ConjunctiveQuery::Identity("E", 2),
        RandomExtension(rng, universe, 4), RandomBound(rng), RandomBound(rng));
    EXPECT_TRUE(source.ok()) << source.status().ToString();
    sources.push_back(*std::move(source));
  }
  auto collection = SourceCollection::Create(std::move(sources));
  EXPECT_TRUE(collection.ok()) << collection.status().ToString();
  return *std::move(collection);
}

/// A join view over E/2 and N/1 plus an identity view on N: brute force.
SourceCollection RandomJoinCollection(Rng& rng) {
  const std::vector<Tuple> unary = Tuples(BruteForceDomain(), 1);
  auto join = SourceDescriptor::Create("J", Q("V(x) <- E(x, y), N(y)"),
                                       RandomExtension(rng, unary, 2),
                                       RandomBound(rng), RandomBound(rng));
  auto nodes = SourceDescriptor::Create(
      "K", ConjunctiveQuery::Identity("N", 1), RandomExtension(rng, unary, 2),
      RandomBound(rng), RandomBound(rng));
  EXPECT_TRUE(join.ok() && nodes.ok());
  auto collection = SourceCollection::Create({*join, *nodes});
  EXPECT_TRUE(collection.ok()) << collection.status().ToString();
  return *std::move(collection);
}

/// Random algebra plans over E/2 and N/1 (N is absent from identity
/// collections, so it also covers relations outside the schema).
class PlanGenerator {
 public:
  explicit PlanGenerator(Rng& rng) : rng_(rng) {}

  AlgebraExprPtr Generate(int depth) {
    if (depth == 0 || rng_.Bernoulli(0.2)) return RandomBase();
    switch (rng_.UniformInt(0, 4)) {
      case 0:
        return RandomProjection(Generate(depth - 1),
                                static_cast<size_t>(rng_.UniformInt(1, 3)));
      case 1:
        return RandomSelection(Generate(depth - 1));
      case 2:
        return Narrow(AlgebraExpr::Product(Generate(depth - 1),
                                           Generate(depth - 1)));
      case 3:
        return RandomJoin(Generate(depth - 1), Generate(depth - 1));
      default: {
        AlgebraExprPtr left = Generate(depth - 1);
        AlgebraExprPtr right =
            RandomProjection(Generate(depth - 1), left->OutputArity());
        return AlgebraExpr::Union(std::move(left), std::move(right));
      }
    }
  }

 private:
  AlgebraExprPtr RandomBase() {
    return rng_.Bernoulli(0.6) ? AlgebraExpr::Base("E", 2)
                               : AlgebraExpr::Base("N", 1);
  }

  size_t RandomColumn(const AlgebraExprPtr& plan) {
    return static_cast<size_t>(
        rng_.UniformInt(0, static_cast<int64_t>(plan->OutputArity()) - 1));
  }

  /// Constants: the domain plus values outside it.
  Value RandomConstant() {
    static const Value kConstants[] = {
        Value(int64_t{0}), Value(int64_t{1}), Value(std::string("a")),
        Value(int64_t{-3}), Value(std::string("zz"))};
    return kConstants[rng_.UniformInt(0, 4)];
  }

  /// π with `width` columns drawn with repetition.
  AlgebraExprPtr RandomProjection(AlgebraExprPtr child, size_t width) {
    std::vector<size_t> columns;
    for (size_t i = 0; i < width; ++i) columns.push_back(RandomColumn(child));
    return AlgebraExpr::Project(std::move(child), std::move(columns));
  }

  AlgebraExprPtr RandomSelection(AlgebraExprPtr child) {
    std::vector<Condition> conditions;
    const int64_t count = rng_.UniformInt(1, 3);
    for (int64_t i = 0; i < count; ++i) {
      const size_t column = RandomColumn(child);
      const std::string op = kBuiltins[rng_.UniformInt(0, 7)];
      if (rng_.Bernoulli(0.5)) {
        conditions.push_back(
            Condition::WithConstant(column, op, RandomConstant()));
      } else {
        conditions.push_back(
            Condition::WithColumn(column, op, RandomColumn(child)));
      }
    }
    if (rng_.Bernoulli(0.15)) {
      // Two different Eq constants on one column: ground-false once the
      // first is substituted.
      const size_t column = RandomColumn(child);
      conditions.push_back(
          Condition::WithConstant(column, "Eq", Value(int64_t{0})));
      conditions.push_back(
          Condition::WithConstant(column, "Eq", Value(std::string("a"))));
    }
    return AlgebraExpr::Select(std::move(child), std::move(conditions));
  }

  AlgebraExprPtr RandomJoin(AlgebraExprPtr left, AlgebraExprPtr right) {
    std::vector<std::pair<size_t, size_t>> pairs = {
        {RandomColumn(left), RandomColumn(right)}};
    if (right->OutputArity() > 1 && rng_.Bernoulli(0.3)) {
      const size_t other = RandomColumn(right);
      if (other != pairs[0].second) pairs.emplace_back(RandomColumn(left), other);
    }
    return Narrow(AlgebraExpr::Join(std::move(left), std::move(right),
                                    std::move(pairs)));
  }

  /// Keeps intermediate arities small so the oracle's products stay cheap.
  AlgebraExprPtr Narrow(AlgebraExprPtr plan) {
    if (plan->OutputArity() <= 3) return plan;
    return RandomProjection(std::move(plan),
                            static_cast<size_t>(rng_.UniformInt(1, 3)));
  }

  Rng& rng_;
};

QuerySystem MakeSystem(const SourceCollection& collection, size_t threads) {
  QuerySystem::Options options;
  options.threads = threads;
  return *QuerySystem::Create(collection, options);
}

/// The reference over every world AnswerExact enumerates: group
/// enumeration for identity collections, brute force otherwise.
ReferenceAccumulator ReferenceExact(const SourceCollection& collection,
                                    const AlgebraExprPtr& plan) {
  ReferenceAccumulator reference(plan);
  const auto add = [&](const Database& world) {
    reference.Add(world);
    return true;
  };
  if (collection.AllIdentityViews()) {
    auto instance = IdentityInstance::Create(collection, IdentityDomain());
    EXPECT_TRUE(instance.ok()) << instance.status().ToString();
    EXPECT_TRUE(IdentityWorldEnumerator(&*instance).ForEachWorld(add).ok());
  } else {
    BruteForceWorldEnumerator enumerator(&collection, BruteForceDomain());
    EXPECT_TRUE(enumerator.ForEachPossibleWorld(add).ok());
  }
  return reference;
}

/// The reference over the worlds AnswerMonteCarlo samples at every
/// thread count: blocks of 64 samples, block b drawn from
/// Rng(MixSeed(seed, b)) (see query_system.cc).
ReferenceAccumulator ReferenceMonteCarlo(const SourceCollection& collection,
                                         const AlgebraExprPtr& plan,
                                         uint64_t samples, uint64_t seed) {
  constexpr uint64_t kBlockSamples = 64;
  ReferenceAccumulator reference(plan);
  auto instance = IdentityInstance::Create(collection, IdentityDomain());
  EXPECT_TRUE(instance.ok()) << instance.status().ToString();
  auto sampler = WorldSampler::Create(&*instance);
  EXPECT_TRUE(sampler.ok()) << sampler.status().ToString();
  for (uint64_t block = 0; block * kBlockSamples < samples; ++block) {
    Rng rng(MixSeed(seed, block));
    const uint64_t end = std::min(samples, (block + 1) * kBlockSamples);
    for (uint64_t i = block * kBlockSamples; i < end; ++i) {
      reference.Add(sampler->Sample(&rng));
    }
  }
  return reference;
}

/// True iff poss(S) ≠ ∅ over the collection's test domain.
bool HasWorlds(const SourceCollection& collection) {
  return ReferenceExact(collection, AlgebraExpr::Base("N", 1)).worlds() > 0;
}

/// Checks AnswerExact (and, on identity collections, AnswerMonteCarlo)
/// for `plan` at every thread count against the reference.
void CheckPlan(const SourceCollection& collection, const AlgebraExprPtr& plan,
               uint64_t seed) {
  const ReferenceAccumulator exact = ReferenceExact(collection, plan);
  ASSERT_GT(exact.worlds(), 0u);
  for (const size_t threads : kThreadCounts) {
    const QuerySystem system = MakeSystem(collection, threads);
    const std::string context =
        plan->ToString() + " @threads " + std::to_string(threads);
    auto answer = system.AnswerExact(plan, DomainOf(collection));
    if (!answer.ok()) {
      ADD_FAILURE() << context << ": " << answer.status().ToString();
      continue;
    }
    EXPECT_EQ(answer->method, "exact-enumeration");
    exact.ExpectMatches(*answer, "exact " + context);

    if (!collection.AllIdentityViews()) continue;
    constexpr uint64_t kSamples = 150;  // two full blocks and a partial one
    auto sampled =
        system.AnswerMonteCarlo(plan, IdentityDomain(), kSamples, seed);
    if (!sampled.ok()) {
      ADD_FAILURE() << context << ": " << sampled.status().ToString();
      continue;
    }
    ReferenceMonteCarlo(collection, plan, kSamples, seed)
        .ExpectMatches(*sampled, "monte-carlo " + context);
  }
}

/// Draws collections with `make` until one is consistent.
template <typename Make>
SourceCollection ConsistentCollection(Rng& rng, const Make& make) {
  SourceCollection collection = make(rng);
  while (!HasWorlds(collection)) collection = make(rng);
  return collection;
}

TEST(AnswerDifferentialTest, IdentityCollectionsMatchOracle) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const SourceCollection collection =
        ConsistentCollection(rng, RandomIdentityCollection);
    PlanGenerator generator(rng);
    for (int i = 0; i < 12; ++i) CheckPlan(collection, generator.Generate(3), seed);
  }
}

TEST(AnswerDifferentialTest, BruteForceCollectionsMatchOracle) {
  for (uint64_t seed = 101; seed <= 110; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    const SourceCollection collection =
        ConsistentCollection(rng, RandomJoinCollection);
    PlanGenerator generator(rng);
    for (int i = 0; i < 12; ++i) CheckPlan(collection, generator.Generate(3), seed);
  }
}

TEST(AnswerDifferentialTest, ConjunctiveQueryOverloadsMatchOracle) {
  Rng rng(7);
  const SourceCollection collection =
      ConsistentCollection(rng, RandomIdentityCollection);
  for (const char* text :
       {"V(x, z) <- E(x, y), E(y, z)", "V(x) <- E(x, x)",
        "V(y, x, y) <- E(x, y), E(y, \"a\"), Lt(x, y)",
        "V(x) <- E(x, y), E(y, z), E(z, x), Ne(x, y)",
        "V(x) <- E(x, y), Gt(1, 2)"}) {
    const ConjunctiveQuery query = Q(text);
    auto plan = CompileQuery(query);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    const ReferenceAccumulator reference = ReferenceExact(collection, *plan);
    for (const size_t threads : kThreadCounts) {
      auto answer = MakeSystem(collection, threads)
                        .AnswerExact(query, IdentityDomain());
      ASSERT_TRUE(answer.ok()) << text << ": " << answer.status().ToString();
      reference.ExpectMatches(*answer, text);
    }
  }
}

TEST(AnswerDifferentialTest, LoweringRoundTripsConjunctiveQueries) {
  // CQ → algebra → CQ yields one query whose compiled plan has the same
  // join order as the original, so the round trip adds no join work.
  const ConjunctiveQuery query =
      Q("V(x, w) <- E(x, y), E(y, z), E(z, w), Before(x, w)");
  auto plan = CompileQuery(query);
  ASSERT_TRUE(plan.ok());
  Schema schema;
  ASSERT_TRUE(schema.AddRelation("E", 2).ok());
  auto lowered = LowerToQueries(**plan, schema);
  ASSERT_TRUE(lowered.ok()) << lowered.status().ToString();
  ASSERT_EQ(lowered->size(), 1u);
  const ConjunctiveQuery& round_trip = lowered->front();
  EXPECT_EQ(round_trip.relational_body().size(), 3u);
  EXPECT_EQ(round_trip.builtin_body().size(), 1u);
  EXPECT_EQ(round_trip.head().arity(), 2u);
  // A ground-false filter survives as a false ground built-in.
  auto never = LowerToQueries(
      *AlgebraExpr::Select(AlgebraExpr::Base("E", 2),
                           {Condition::WithConstant(0, "Eq", Value(int64_t{1})),
                            Condition::WithConstant(0, "Gt", Value(int64_t{4}))}),
      schema);
  ASSERT_TRUE(never.ok()) << never.status().ToString();
  ASSERT_EQ(never->size(), 1u);
  EXPECT_EQ(never->front().ToString(), "Ans(1, v1) <- E(1, v1), Gt(1, 4)");
}

}  // namespace
}  // namespace psc
