#ifndef PSC_ALGEBRA_EXPRESSION_H_
#define PSC_ALGEBRA_EXPRESSION_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "psc/algebra/operators.h"
#include "psc/algebra/prob_relation.h"
#include "psc/relational/database.h"
#include "psc/util/result.h"

namespace psc {

class AlgebraExpr;
using AlgebraExprPtr = std::shared_ptr<const AlgebraExpr>;

/// \brief A relational-algebra query plan over global relations.
///
/// Two evaluation modes:
///  * `EvalConfidence` — the Definition 5.1 compositional semantics over
///    confidence-annotated base relations (projection ⊕, selection
///    pass-through, product ·, plus the join/union extensions);
///  * `EvalInWorld` — plain set semantics inside one concrete possible
///    world, materializing every intermediate relation (π(σ(×)) builds
///    the full product before filtering). It is the reference evaluator:
///    the tests and benchmarks check the compiled answer path against it.
///    Exact and Monte-Carlo answering do not call it; they lower the plan
///    once per call into compiled conjunctive queries (`LowerToQueries`
///    in plan_compiler.h) and run those in every world.
class AlgebraExpr : public std::enable_shared_from_this<AlgebraExpr> {
 public:
  enum class Kind { kBase, kProject, kSelect, kProduct, kJoin, kUnion };

  /// Leaf: the global relation `name` with the given arity.
  static AlgebraExprPtr Base(std::string name, size_t arity);
  /// π_columns(child); columns may repeat or reorder.
  static AlgebraExprPtr Project(AlgebraExprPtr child,
                                std::vector<size_t> columns);
  /// σ_conditions(child), a conjunction.
  static AlgebraExprPtr Select(AlgebraExprPtr child,
                               std::vector<Condition> conditions);
  /// child_left × child_right.
  static AlgebraExprPtr Product(AlgebraExprPtr left, AlgebraExprPtr right);
  /// Equi-join (extension beyond Definition 5.1).
  static AlgebraExprPtr Join(
      AlgebraExprPtr left, AlgebraExprPtr right,
      std::vector<std::pair<size_t, size_t>> join_columns);
  /// Union (extension beyond Definition 5.1); arities must match.
  static AlgebraExprPtr Union(AlgebraExprPtr left, AlgebraExprPtr right);

  Kind kind() const { return kind_; }
  size_t OutputArity() const { return output_arity_; }
  const std::string& base_name() const { return base_name_; }

  /// \name Read-only structure (for plan rewriting, e.g. LowerToQueries)
  /// @{
  /// The operand of π/σ and the left operand of ×/⋈/∪; null for a base.
  const AlgebraExprPtr& left() const { return left_; }
  /// The right operand of ×/⋈/∪; null otherwise.
  const AlgebraExprPtr& right() const { return right_; }
  /// π's output columns (child column indexes).
  const std::vector<size_t>& columns() const { return columns_; }
  /// σ's conjunction.
  const std::vector<Condition>& conditions() const { return conditions_; }
  /// ⋈'s (left column, right column) equality pairs.
  const std::vector<std::pair<size_t, size_t>>& join_columns() const {
    return join_columns_;
  }
  /// @}

  /// Names of all base relations referenced by the plan.
  std::set<std::string> BaseRelations() const;

  /// \brief Definition 5.1 evaluation: `base` maps each base-relation name
  /// to its confidence-annotated extension. Missing names are errors.
  Result<ProbRelation> EvalConfidence(
      const std::map<std::string, ProbRelation>& base) const;

  /// Set-semantics evaluation inside one world (absent relations = empty).
  Result<Relation> EvalInWorld(const Database& db) const;

  /// \brief Certain-semantics evaluation over a *naive table*: a database
  /// whose values satisfying `is_null` are labeled nulls standing for
  /// unknown constants.
  ///
  /// Returns tuples that are in the plan's answer under *every*
  /// instantiation of the nulls (conditions touching nulls must hold
  /// universally; see EvalConditionCertain). Output tuples may still
  /// contain nulls — callers computing certain answers drop those.
  /// Sound for the monotone fragment (π, σ, ×, ⋈, ∪ — everything this
  /// class offers).
  Result<Relation> EvalCertainWithNulls(const Database& naive_table,
                                        const NullPredicate& is_null) const;

  /// "π{0,2}(σ{Eq($1, 3)}(R × S))".
  std::string ToString() const;

 private:
  AlgebraExpr() = default;

  Kind kind_ = Kind::kBase;
  size_t output_arity_ = 0;
  std::string base_name_;
  std::vector<size_t> columns_;
  std::vector<Condition> conditions_;
  std::vector<std::pair<size_t, size_t>> join_columns_;
  AlgebraExprPtr left_;
  AlgebraExprPtr right_;
};

}  // namespace psc

#endif  // PSC_ALGEBRA_EXPRESSION_H_
