#ifndef PSC_TESTS_EVAL_ORACLE_H_
#define PSC_TESTS_EVAL_ORACLE_H_

/// \file
/// The differential oracle for compiled conjunctive-query evaluation
/// (relational/query_plan.h): the relational-algebra evaluator,
/// `CompileQuery` followed by `AlgebraExpr::EvalInWorld`. It is an
/// independent set-semantics implementation of φ(D) — π(σ(×)) over
/// materialized relations, no indexes, no join reordering — so a planner,
/// index or hoisting bug in the compiled plans shows up as a mismatch.
///
/// `ReferenceAccumulator` is the same oracle for the answer paths of
/// QuerySystem (exact and Monte-Carlo), which lower an algebra plan to
/// compiled conjunctive queries: it evaluates the plan itself with
/// `EvalInWorld` in every world it is given.

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "psc/algebra/plan_compiler.h"
#include "psc/core/query_system.h"
#include "psc/relational/conjunctive_query.h"
#include "psc/relational/database.h"

namespace psc::testing {

/// Oracle for `ConjunctiveQuery::ForEachValuation`: every valuation of the
/// body variables that embeds the body into `db`, satisfies the built-ins
/// and agrees with `initial`, with `initial` merged in (so bindings of
/// non-query variables pass through, as in the compiled engine).
///
/// Evaluates `Vals(all relational variables) <- body` with the algebra
/// evaluator, so each result row is one valuation.
inline std::set<Valuation> OracleValuations(const ConjunctiveQuery& query,
                                            const Database& db,
                                            const Valuation& initial) {
  // Create's safety checks make every query variable a relational one.
  const std::set<std::string> names = query.Variables();
  std::vector<Term> head_terms;
  for (const std::string& name : names) head_terms.push_back(Term::Var(name));
  std::set<Valuation> out;
  auto vals_query =
      ConjunctiveQuery::Create(Atom("Vals", head_terms), query.body());
  if (!vals_query.ok()) {
    ADD_FAILURE() << vals_query.status().ToString();
    return out;
  }
  auto plan = CompileQuery(*vals_query);
  if (!plan.ok()) {
    ADD_FAILURE() << plan.status().ToString();
    return out;
  }
  auto rows = (*plan)->EvalInWorld(db);
  if (!rows.ok()) {
    ADD_FAILURE() << rows.status().ToString();
    return out;
  }
  for (const Tuple& row : *rows) {
    Valuation valuation;
    size_t column = 0;
    for (const std::string& name : names) valuation[name] = row[column++];
    bool agrees = true;
    for (const auto& [name, value] : initial) {
      const auto it = valuation.find(name);
      if (it != valuation.end() && it->second != value) agrees = false;
    }
    if (!agrees) continue;
    valuation.insert(initial.begin(), initial.end());
    out.insert(std::move(valuation));
  }
  return out;
}

/// Oracle for `ConjunctiveQuery::Evaluate`: the head grounded over every
/// oracle valuation.
inline Relation OracleEvaluate(const ConjunctiveQuery& query,
                               const Database& db) {
  Relation result;
  for (const Valuation& valuation : OracleValuations(query, db, {})) {
    auto tuple = GroundTerms(query.head().terms(), valuation);
    if (!tuple.ok()) {
      ADD_FAILURE() << tuple.status().ToString();
      continue;
    }
    result.insert(std::move(*tuple));
  }
  return result;
}

/// Oracle for `ConjunctiveQuery::WitnessValuations`: the oracle valuations
/// extending the head unifier of `head_tuple`, in sorted order.
inline std::vector<Valuation> OracleWitnessValuations(
    const ConjunctiveQuery& query, const Database& db,
    const Tuple& head_tuple) {
  auto initial = query.UnifyHead(head_tuple);
  if (!initial.ok()) {
    ADD_FAILURE() << initial.status().ToString();
    return {};
  }
  if (!initial->has_value()) return {};
  const std::set<Valuation> valuations =
      OracleValuations(query, db, **initial);
  return {valuations.begin(), valuations.end()};
}

/// Oracle for QuerySystem's world accumulation: feed it the worlds an
/// answer call visits; per world it evaluates the plan with EvalInWorld
/// and keeps certain = ⋂ Q(D), possible = ⋃ Q(D) and, per tuple, the
/// exact number of worlds whose answer contains it.
class ReferenceAccumulator {
 public:
  explicit ReferenceAccumulator(AlgebraExprPtr plan)
      : plan_(std::move(plan)) {}

  /// Adds one world; a failed evaluation is a test failure.
  void Add(const Database& world) {
    auto answer = plan_->EvalInWorld(world);
    if (!answer.ok()) {
      ADD_FAILURE() << plan_->ToString() << ": "
                    << answer.status().ToString();
      return;
    }
    if (worlds_ == 0) {
      certain_ = *answer;
    } else {
      Relation still_certain;
      for (const Tuple& tuple : certain_) {
        if (answer->count(tuple) > 0) still_certain.insert(tuple);
      }
      certain_ = std::move(still_certain);
    }
    for (const Tuple& tuple : *answer) {
      possible_.insert(tuple);
      ++counts_[tuple];
    }
    ++worlds_;
  }

  uint64_t worlds() const { return worlds_; }

  /// Expects `answer` to be bit-identical to the reference: the same
  /// worlds, certain and possible sets, and every confidence exactly
  /// count / worlds.
  void ExpectMatches(const QueryAnswer& answer,
                     const std::string& context) const {
    EXPECT_EQ(answer.worlds_used, worlds_) << context;
    EXPECT_EQ(answer.certain, certain_) << context;
    EXPECT_EQ(answer.possible, possible_) << context;
    EXPECT_EQ(answer.confidences.arity(), plan_->OutputArity()) << context;
    EXPECT_EQ(answer.confidences.size(), counts_.size()) << context;
    for (const auto& [tuple, count] : counts_) {
      const auto confidence = answer.confidences.ConfidenceOf(tuple);
      if (!confidence.ok()) {
        ADD_FAILURE() << context << ": missing " << TupleToString(tuple);
        continue;
      }
      EXPECT_EQ(*confidence,
                static_cast<double>(count) / static_cast<double>(worlds_))
          << context << ": " << TupleToString(tuple);
    }
  }

 private:
  AlgebraExprPtr plan_;
  uint64_t worlds_ = 0;
  Relation certain_;
  Relation possible_;
  std::map<Tuple, uint64_t> counts_;
};

}  // namespace psc::testing

#endif  // PSC_TESTS_EVAL_ORACLE_H_
