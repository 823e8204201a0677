#ifndef PSC_ALGEBRA_PLAN_COMPILER_H_
#define PSC_ALGEBRA_PLAN_COMPILER_H_

#include <vector>

#include "psc/algebra/expression.h"
#include "psc/relational/conjunctive_query.h"
#include "psc/relational/schema.h"
#include "psc/util/result.h"

namespace psc {

/// \name Conjunctive queries ⇄ algebra plans
///
/// The paper writes queries in conjunctive-query notation (Section 5) but
/// defines confidence propagation over relational algebra
/// (Definition 5.1). The two functions below translate in both
/// directions:
///
///  * `CompileQuery` (CQ → algebra) feeds Definition 5.1 and the algebra
///    `Answer*` overloads of QuerySystem;
///  * `LowerToQueries` (algebra → CQs) feeds the compiled per-world
///    evaluator (relational/query_plan.h) that exact and Monte-Carlo
///    answering run in every possible world.
///
/// Round trip: for every safe query q and database D,
///
///   ∪_{q' ∈ LowerToQueries(*CompileQuery(q), schema)} q'.Evaluate(D)
///     == CompileQuery(q)->EvalInWorld(D) == q.Evaluate(D)
///
/// whenever D's relations have the arities `schema` declares (verified by
/// randomized differential tests against EvalInWorld).
/// @{

/// \brief Compiles a safe conjunctive query into a relational-algebra plan.
///
///   Ans(s, v) ← Temperature(s, y, m, v), Station(s, lat, lon, "Canada"),
///               After(y, 1900)
///
/// becomes π(σ(Temperature × Station)), with selections for head-to-body
/// bindings, repeated variables, embedded constants and built-ins.
///
/// Restrictions: the head must consist of variables (use a built-in Eq
/// filter for constant outputs), and at least one relational atom is
/// required. Violations are Unimplemented/InvalidArgument.
Result<AlgebraExprPtr> CompileQuery(const ConjunctiveQuery& query);

/// \brief Lowers an algebra plan to a union of conjunctive queries: the
/// plan's answer in a world D is the union of the queries' answers in D
/// (none = always ∅).
///
/// Rules: a base becomes one atom with fresh variables; × and ⋈
/// concatenate atoms (⋈ also unifies its column pairs); σ unifies on
/// column = column, substitutes on column = constant and keeps any other
/// condition as a built-in atom, deciding ground ones now (a false one
/// stays as a false ground built-in); π picks the head terms (repeats and
/// constants allowed); ∪ contributes one query per branch, distributed
/// through the operators above it. The output is deterministic, so
/// repeated calls hit the compiled-plan cache.
///
/// Validation happens here, before any world is evaluated: a base whose
/// arity differs from `schema`, a π/σ/⋈ column out of range, a repeated
/// ⋈ right column or an unknown σ operator is InvalidArgument. A base
/// absent from `schema` is an empty relation and contributes no query.
/// Unions nested under products multiply the query count; past 4096
/// queries lowering fails with ResourceExhausted.
Result<std::vector<ConjunctiveQuery>> LowerToQueries(const AlgebraExpr& plan,
                                                     const Schema& schema);
/// @}

}  // namespace psc

#endif  // PSC_ALGEBRA_PLAN_COMPILER_H_
