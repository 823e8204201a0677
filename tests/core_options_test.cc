// Resource-budget behaviour of the facade: every cap must surface as a
// typed error, never as silent truncation or a wrong answer.

#include <string>

#include "gtest/gtest.h"
#include "psc/core/query_system.h"
#include "psc/obs/metrics.h"
#include "psc/serve/engine.h"
#include "test_util.h"

namespace psc {
namespace {

using testing::IntDomain;
using testing::MakeUnaryCollection;
using testing::MakeUnarySource;

TEST(QuerySystemOptionsTest, WorldCapSurfacesAsResourceExhausted) {
  QuerySystem::Options options;
  options.max_worlds = 3;  // far fewer than 2^6 unconstrained worlds
  auto system = QuerySystem::Create(
      MakeUnaryCollection({MakeUnarySource("S", {0}, "0", "0")}), options);
  ASSERT_TRUE(system.ok());
  EXPECT_EQ(system->AnswerExact(AlgebraExpr::Base("R", 1), IntDomain(6))
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(QuerySystemOptionsTest, ShapeCapSurfacesInBaseConfidences) {
  QuerySystem::Options options;
  options.max_shapes = 1;
  auto system = QuerySystem::Create(
      MakeUnaryCollection({MakeUnarySource("S", {0, 1}, "0", "0")}),
      options);
  ASSERT_TRUE(system.ok());
  EXPECT_EQ(system->BaseConfidences(IntDomain(4)).status().code(),
            StatusCode::kResourceExhausted);
}

TEST(QuerySystemOptionsTest, UniverseBitsCapOnBruteForceFallback) {
  // Non-identity collection with a domain whose fact universe exceeds the
  // configured bit budget.
  auto view = testing::Q("V(x) <- E(x, y)");
  auto source = SourceDescriptor::Create("J", view, {testing::U(0)},
                                         Rational::Zero(), Rational::One());
  ASSERT_TRUE(source.ok());
  auto collection = SourceCollection::Create({*source});
  ASSERT_TRUE(collection.ok());
  QuerySystem::Options options;
  options.max_universe_bits = 4;  // E over {0..2}² = 9 facts > 4
  auto system = QuerySystem::Create(*collection, options);
  ASSERT_TRUE(system.ok());
  EXPECT_EQ(system->AnswerExact(AlgebraExpr::Base("E", 2), IntDomain(3))
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

TEST(QuerySystemOptionsTest, GenerousBudgetsSucceedOnTheSameInputs) {
  auto system = QuerySystem::Create(
      MakeUnaryCollection({MakeUnarySource("S", {0}, "0", "0")}));
  ASSERT_TRUE(system.ok());
  auto answer = system->AnswerExact(AlgebraExpr::Base("R", 1), IntDomain(6));
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->worlds_used, 64u);  // 2^6
}

TEST(QuerySystemOptionsTest, DomainMustCoverExtensions) {
  auto system = QuerySystem::Create(
      MakeUnaryCollection({MakeUnarySource("S", {7}, "0", "0")}));
  ASSERT_TRUE(system.ok());
  // Domain {0,1} misses the claimed fact 7.
  EXPECT_EQ(system->BaseConfidences(IntDomain(2)).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_FALSE(
      system->AnswerExact(AlgebraExpr::Base("R", 1), IntDomain(2)).ok());
}

TEST(QuerySystemOptionsTest, MonteCarloSamplerRespectsShapeBudget) {
  QuerySystem::Options options;
  options.max_worlds = 1;  // doubles as the sampler's shape budget
  auto system = QuerySystem::Create(
      MakeUnaryCollection({MakeUnarySource("S", {0, 1}, "0", "0")}),
      options);
  ASSERT_TRUE(system.ok());
  EXPECT_EQ(system->AnswerMonteCarlo(AlgebraExpr::Base("R", 1), IntDomain(4),
                                     10, 1)
                .status()
                .code(),
            StatusCode::kResourceExhausted);
}

#if PSC_OBS_ENABLED

/// Answers two distinct queries in one batch, so the engine fans the
/// batch out on its pool.
void AnswerOneBatch(serve::Engine& engine) {
  const std::string loaded = engine.Call(
      0,
      "{\"verb\":\"load\",\"text\":\"source S { view: V(x) <- R(x) "
      "completeness: 0.5 soundness: 0.5 facts: V(1), V(2) }\"}");
  ASSERT_NE(loaded.find("\"ok\":true"), std::string::npos) << loaded;
  int answered = 0;
  const auto count = [&answered](const std::string& response) {
    EXPECT_NE(response.find("\"ok\":true"), std::string::npos) << response;
    ++answered;
  };
  engine.Submit(1, "{\"verb\":\"answer\",\"query\":\"A(x) <- R(x)\"}",
                count);
  engine.Submit(2, "{\"verb\":\"answer\",\"query\":\"B(x) <- R(x)\"}",
                count);
  while (engine.PumpOne()) {
  }
  EXPECT_EQ(answered, 2);
}

TEST(QuerySystemOptionsTest, CallsBorrowTheSharedPoolInsteadOfBuildingOne) {
  QuerySystem::Options options;
  options.threads = 4;
  PSC_ASSERT_OK_AND_ASSIGN(
      const QuerySystem identity,
      QuerySystem::Create(
          MakeUnaryCollection({MakeUnarySource("S", {0, 1, 2}, "1/2", "1/2")}),
          options));
  // A projection view: the consistency check runs the canonical-freeze
  // search rather than the identity counter.
  PSC_ASSERT_OK_AND_ASSIGN(
      const SourceDescriptor projected,
      SourceDescriptor::Create("P", testing::Q("V(x) <- E(x, y)"),
                               {testing::U(0), testing::U(1)},
                               Rational::One(), Rational(1, 2)));
  PSC_ASSERT_OK_AND_ASSIGN(const SourceCollection projection_collection,
                           SourceCollection::Create({projected}));
  PSC_ASSERT_OK_AND_ASSIGN(
      const QuerySystem projection,
      QuerySystem::Create(projection_collection, options));
  const AlgebraExprPtr plan = AlgebraExpr::Base("R", 1);
  const auto run_every_entry_point = [&] {
    auto report = projection.CheckConsistency();
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_EQ(report->method, "canonical-freeze");
    EXPECT_TRUE(identity.BaseConfidences(IntDomain(4)).ok());
    EXPECT_TRUE(identity.AnswerCompositional(plan, IntDomain(4)).ok());
    EXPECT_TRUE(identity.AnswerMonteCarlo(plan, IntDomain(4), 256, 1).ok());
  };
  serve::EngineOptions engine_options;
  engine_options.dispatch_threads = 0;

  // The first round may build the pools this process has not used yet.
  run_every_entry_point();
  {
    serve::Engine engine(engine_options);
    AnswerOneBatch(engine);
  }
  const obs::MetricsRegistry& metrics = obs::GlobalMetrics();
  const uint64_t created = metrics.CounterValue("exec.pools_created");
  for (int round = 0; round < 3; ++round) run_every_entry_point();
  EXPECT_EQ(metrics.CounterValue("exec.pools_created"), created);
  serve::Engine second(engine_options);
  EXPECT_EQ(metrics.CounterValue("exec.pools_created"), created);
  AnswerOneBatch(second);
  EXPECT_EQ(metrics.CounterValue("exec.pools_created"), created);
}

#endif  // PSC_OBS_ENABLED

}  // namespace
}  // namespace psc
