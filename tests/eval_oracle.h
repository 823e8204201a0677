#ifndef PSC_TESTS_EVAL_ORACLE_H_
#define PSC_TESTS_EVAL_ORACLE_H_

/// \file
/// The differential oracle for compiled conjunctive-query evaluation
/// (relational/query_plan.h): the relational-algebra evaluator,
/// `CompileQuery` followed by `AlgebraExpr::EvalInWorld`. It is an
/// independent set-semantics implementation of φ(D) — π(σ(×)) over
/// materialized relations, no indexes, no join reordering — so a planner,
/// index or hoisting bug in the compiled plans shows up as a mismatch.

#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "psc/algebra/plan_compiler.h"
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

}  // namespace psc::testing

#endif  // PSC_TESTS_EVAL_ORACLE_H_
