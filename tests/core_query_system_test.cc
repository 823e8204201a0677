#include "psc/core/query_system.h"

#include "gtest/gtest.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::IntDomain;
using testing::MakeUnaryCollection;
using testing::MakeUnarySource;
using testing::U;

QuerySystem Example51System() {
  auto system = QuerySystem::Create(
      MakeUnaryCollection({MakeUnarySource("S1", {0, 1}, "1/2", "1/2"),
                           MakeUnarySource("S2", {1, 2}, "1/2", "1/2")}));
  EXPECT_TRUE(system.ok());
  return std::move(system).ValueOrDie();
}

TEST(QuerySystemTest, CheckConsistencyDelegates) {
  const QuerySystem system = Example51System();
  auto report = system.CheckConsistency();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->verdict, ConsistencyVerdict::kConsistent);
}

TEST(QuerySystemTest, BaseConfidencesMatchExample51) {
  const QuerySystem system = Example51System();
  auto table = system.BaseConfidences(IntDomain(4));  // m = 1 → 7 worlds
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->world_count.ToUint64(), 7u);
  EXPECT_NEAR(*table->ConfidenceOf(U(1)), 6.0 / 7.0, 1e-12);
}

TEST(QuerySystemTest, ExactAnswerIdentityQuery) {
  const QuerySystem system = Example51System();
  auto query = AlgebraExpr::Base("R", 1);
  auto answer = system.AnswerExact(query, IntDomain(4));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->method, "exact-enumeration");
  EXPECT_EQ(answer->worlds_used, 7u);
  // No certain base fact (the empty-ish worlds drop each), possible = all
  // four facts.
  EXPECT_EQ(answer->possible.size(), 4u);
  EXPECT_NEAR(*answer->confidences.ConfidenceOf(U(1)), 6.0 / 7.0, 1e-12);
  EXPECT_NEAR(*answer->confidences.ConfidenceOf(U(0)), 4.0 / 7.0, 1e-12);
}

TEST(QuerySystemTest, ExactAnswerMatchesBaseConfidences) {
  const QuerySystem system = Example51System();
  const std::vector<Value> domain = IntDomain(5);
  auto table = system.BaseConfidences(domain);
  ASSERT_TRUE(table.ok());
  auto answer = system.AnswerExact(AlgebraExpr::Base("R", 1), domain);
  ASSERT_TRUE(answer.ok());
  for (const TupleConfidence& entry : table->entries) {
    EXPECT_NEAR(*answer->confidences.ConfidenceOf(entry.tuple),
                entry.confidence, 1e-12)
        << TupleToString(entry.tuple);
  }
}

TEST(QuerySystemTest, CertainAnswersAppearWithExactSource) {
  auto system = QuerySystem::Create(
      MakeUnaryCollection({MakeUnarySource("S1", {0}, "1/2", "1"),
                           MakeUnarySource("S2", {0, 1}, "0", "1/2")}));
  ASSERT_TRUE(system.ok());
  auto answer = system->AnswerExact(AlgebraExpr::Base("R", 1), IntDomain(3));
  ASSERT_TRUE(answer.ok());
  ASSERT_EQ(answer->certain.size(), 1u);
  EXPECT_EQ(*answer->certain.begin(), U(0));
  EXPECT_NEAR(*answer->confidences.ConfidenceOf(U(0)), 1.0, 1e-12);
}

TEST(QuerySystemTest, InconsistentCollectionErrors) {
  auto system = QuerySystem::Create(
      MakeUnaryCollection({MakeUnarySource("S1", {0}, "1", "1"),
                           MakeUnarySource("S2", {1}, "1", "1")}));
  ASSERT_TRUE(system.ok());
  EXPECT_EQ(system->AnswerExact(AlgebraExpr::Base("R", 1), IntDomain(2))
                .status()
                .code(),
            StatusCode::kInconsistent);
  EXPECT_EQ(system->AnswerCompositional(AlgebraExpr::Base("R", 1),
                                        IntDomain(2))
                .status()
                .code(),
            StatusCode::kInconsistent);
}

TEST(QuerySystemTest, CompositionalAgreesOnBaseQueries) {
  const QuerySystem system = Example51System();
  const std::vector<Value> domain = IntDomain(4);
  auto exact = system.AnswerExact(AlgebraExpr::Base("R", 1), domain);
  auto compositional =
      system.AnswerCompositional(AlgebraExpr::Base("R", 1), domain);
  ASSERT_TRUE(exact.ok() && compositional.ok());
  for (const auto& [tuple, confidence] : exact->confidences.entries()) {
    EXPECT_NEAR(*compositional->confidences.ConfidenceOf(tuple), confidence,
                1e-12);
  }
  EXPECT_EQ(compositional->method, "compositional");
}

TEST(QuerySystemTest, MonteCarloApproximatesExact) {
  const QuerySystem system = Example51System();
  const std::vector<Value> domain = IntDomain(4);
  auto plan = AlgebraExpr::Select(
      AlgebraExpr::Base("R", 1),
      {Condition::WithConstant(0, "Lt", Value(int64_t{2}))});
  auto exact = system.AnswerExact(plan, domain);
  ASSERT_TRUE(exact.ok());
  auto estimated = system.AnswerMonteCarlo(plan, domain, /*samples=*/20000,
                                           /*seed=*/99);
  ASSERT_TRUE(estimated.ok());
  EXPECT_EQ(estimated->method, "monte-carlo");
  EXPECT_EQ(estimated->worlds_used, 20000u);
  for (const auto& [tuple, confidence] : exact->confidences.entries()) {
    EXPECT_NEAR(*estimated->confidences.ConfidenceOf(tuple), confidence,
                0.02)
        << TupleToString(tuple);
  }
}

TEST(QuerySystemTest, NonIdentityCollectionFallsBackToBruteForce) {
  auto view = testing::Q("V(x) <- E(x, y), N(y)");
  auto source = SourceDescriptor::Create("J", view, {U(0)}, Rational::Zero(),
                                         Rational::One());
  ASSERT_TRUE(source.ok());
  auto collection = SourceCollection::Create({*source});
  ASSERT_TRUE(collection.ok());
  auto system = QuerySystem::Create(*collection);
  ASSERT_TRUE(system.ok());
  auto answer = system->AnswerExact(
      AlgebraExpr::Project(AlgebraExpr::Base("E", 2), {0}), IntDomain(2));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  // Every world contains some E(0, y) (the view must produce 0), so 0 is
  // a certain answer of π₀(E).
  EXPECT_EQ(answer->certain.count(U(0)), 1u);
  // Compositional and Monte-Carlo modes require identity views.
  EXPECT_EQ(system->AnswerCompositional(AlgebraExpr::Base("E", 2),
                                        IntDomain(2))
                .status()
                .code(),
            StatusCode::kUnimplemented);
  EXPECT_EQ(system->AnswerMonteCarlo(AlgebraExpr::Base("E", 2), IntDomain(2),
                                     10, 1)
                .status()
                .code(),
            StatusCode::kUnimplemented);
}

TEST(QuerySystemTest, NullQueryRejected) {
  const QuerySystem system = Example51System();
  EXPECT_FALSE(system.AnswerExact(nullptr, IntDomain(3)).ok());
  EXPECT_FALSE(system.AnswerCompositional(nullptr, IntDomain(3)).ok());
  EXPECT_FALSE(system.AnswerMonteCarlo(nullptr, IntDomain(3), 1, 1).ok());
  EXPECT_FALSE(
      system.AnswerMonteCarlo(AlgebraExpr::Base("R", 1), IntDomain(3), 0, 1)
          .ok());
}

// Malformed plans are rejected while the plan is lowered, before any
// world is enumerated: the verdict must not depend on whether some world
// holds a tuple that would expose the defect.
std::vector<std::pair<std::string, AlgebraExprPtr>> MalformedPlans() {
  return {
      {"base arity mismatch", AlgebraExpr::Base("R", 2)},
      {"projection column out of range",
       AlgebraExpr::Project(AlgebraExpr::Base("R", 1), {0, 1})},
      {"condition column out of range",
       AlgebraExpr::Select(AlgebraExpr::Base("R", 1),
                           {Condition::WithConstant(1, "Eq",
                                                    Value(int64_t{0}))})},
      {"condition rhs column out of range",
       AlgebraExpr::Select(AlgebraExpr::Base("R", 1),
                           {Condition::WithColumn(0, "Lt", 3)})},
      {"malformed branch under a product",
       AlgebraExpr::Product(AlgebraExpr::Base("R", 1),
                            AlgebraExpr::Base("R", 3))},
  };
}

void ExpectAllRejected(const QuerySystem& system,
                       const std::vector<Value>& domain) {
  for (const auto& [what, plan] : MalformedPlans()) {
    EXPECT_EQ(system.AnswerExact(plan, domain).status().code(),
              StatusCode::kInvalidArgument)
        << what;
    EXPECT_EQ(system.AnswerMonteCarlo(plan, domain, 16, 1).status().code(),
              StatusCode::kInvalidArgument)
        << what;
  }
}

TEST(QuerySystemTest, MalformedPlansRejectedUpFront) {
  ExpectAllRejected(Example51System(), IntDomain(4));
}

TEST(QuerySystemTest, MalformedPlansRejectedWhenEveryWorldIsEmpty) {
  // Completeness 1 with an empty extension forces φ(D) = ∅: the only
  // possible world is the empty database.
  auto system = QuerySystem::Create(
      MakeUnaryCollection({MakeUnarySource("S1", {}, "1", "1")}));
  ASSERT_TRUE(system.ok());
  auto answer = system->AnswerExact(AlgebraExpr::Base("R", 1), IntDomain(3));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->worlds_used, 1u);
  EXPECT_TRUE(answer->possible.empty());
  ExpectAllRejected(*system, IntDomain(3));
}

TEST(QuerySystemTest, MalformedPlansRejectedOnBruteForcePath) {
  auto view = testing::Q("V(x) <- E(x, y), N(y)");
  auto source = SourceDescriptor::Create("J", view, {U(0)}, Rational::Zero(),
                                         Rational::One());
  ASSERT_TRUE(source.ok());
  auto collection = SourceCollection::Create({*source});
  ASSERT_TRUE(collection.ok());
  auto system = QuerySystem::Create(*collection);
  ASSERT_TRUE(system.ok());
  for (const AlgebraExprPtr& plan :
       {AlgebraExpr::Base("E", 3),
        AlgebraExpr::Project(AlgebraExpr::Base("E", 2), {2}),
        AlgebraExpr::Join(AlgebraExpr::Base("E", 2), AlgebraExpr::Base("N", 1),
                          {{1, 1}})}) {
    EXPECT_EQ(system->AnswerExact(plan, IntDomain(2)).status().code(),
              StatusCode::kInvalidArgument)
        << plan->ToString();
  }
}

TEST(QuerySystemTest, RelationOutsideTheSchemaIsEmpty) {
  const QuerySystem system = Example51System();
  auto answer = system.AnswerExact(
      AlgebraExpr::Union(AlgebraExpr::Base("R", 1),
                         AlgebraExpr::Project(AlgebraExpr::Base("Nope", 3),
                                              {2})),
      IntDomain(4));
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->worlds_used, 7u);
  EXPECT_EQ(answer->possible.size(), 4u);
  auto none = system.AnswerExact(AlgebraExpr::Base("Nope", 2), IntDomain(4));
  ASSERT_TRUE(none.ok()) << none.status().ToString();
  EXPECT_EQ(none->worlds_used, 7u);
  EXPECT_TRUE(none->possible.empty());
  EXPECT_TRUE(none->certain.empty());
}

TEST(QuerySystemTest, CertainSubsetOfPossible) {
  const QuerySystem system = Example51System();
  auto answer = system.AnswerExact(AlgebraExpr::Base("R", 1), IntDomain(4));
  ASSERT_TRUE(answer.ok());
  for (const Tuple& tuple : answer->certain) {
    EXPECT_EQ(answer->possible.count(tuple), 1u);
  }
}

}  // namespace
}  // namespace psc
