#include "psc/algebra/plan_compiler.h"

#include <map>
#include <utility>

#include "psc/relational/builtin.h"
#include "psc/util/string_util.h"

namespace psc {

namespace {

/// Comparison with operands swapped: After(c, y) ≡ Before(y, c).
Result<std::string> SwapComparison(const std::string& op) {
  if (op == "After") return std::string("Before");
  if (op == "Before") return std::string("After");
  if (op == "Lt") return std::string("Gt");
  if (op == "Gt") return std::string("Lt");
  if (op == "Le") return std::string("Ge");
  if (op == "Ge") return std::string("Le");
  if (op == "Eq" || op == "Ne") return op;
  return Status::Unimplemented(StrCat("cannot swap built-in '", op, "'"));
}

/// Cap on the number of conjunctive queries one plan lowers to.
constexpr size_t kMaxLoweredQueries = 4096;

/// One conjunctive branch of a plan being lowered: its relational atoms,
/// its built-in filters and the term each output column carries.
struct Branch {
  std::vector<Atom> atoms;
  std::vector<Atom> builtins;
  std::vector<Term> columns;
};

/// Replaces the variable `var` by `term` throughout `branch`.
void Substitute(Branch* branch, const std::string& var, const Term& term) {
  const auto rewrite = [&](std::vector<Term> terms) {
    for (Term& t : terms) {
      if (t.is_variable() && t.var_name() == var) t = term;
    }
    return terms;
  };
  for (Atom& atom : branch->atoms) {
    atom = Atom(atom.predicate(), rewrite(atom.terms()));
  }
  for (Atom& atom : branch->builtins) {
    atom = Atom(atom.predicate(), rewrite(atom.terms()));
  }
  branch->columns = rewrite(std::move(branch->columns));
}

/// Conjoins `op(lhs, rhs)` to `branch`. A ground comparison is decided
/// now; a false one stays as a false ground built-in, so the branch's
/// query answers ∅ in every world. Otherwise Eq unifies (a variable is
/// substituted away) and any other comparison becomes a built-in atom.
Status Conjoin(Branch* branch, const std::string& op, Term lhs, Term rhs) {
  if (lhs.is_constant() && rhs.is_constant()) {
    PSC_ASSIGN_OR_RETURN(const bool holds,
                         EvalBuiltin(op, {lhs.constant(), rhs.constant()}));
    if (!holds) branch->builtins.emplace_back(op, std::vector<Term>{lhs, rhs});
    return Status::OK();
  }
  if (op == "Eq") {
    if (lhs.is_variable()) {
      Substitute(branch, lhs.var_name(), rhs);
    } else {
      Substitute(branch, rhs.var_name(), lhs);
    }
    return Status::OK();
  }
  branch->builtins.emplace_back(op, std::vector<Term>{std::move(lhs),
                                                      std::move(rhs)});
  return Status::OK();
}

Status CheckColumn(size_t column, size_t arity, const char* what,
                   const AlgebraExpr& expr) {
  if (column < arity) return Status::OK();
  return Status::InvalidArgument(StrCat(what, " column ", column,
                                        " out of range for arity ", arity,
                                        " in ", expr.ToString()));
}

Status CheckBranchCount(size_t count, const AlgebraExpr& expr) {
  if (count <= kMaxLoweredQueries) return Status::OK();
  return Status::ResourceExhausted(
      StrCat(expr.ToString(), " lowers to ", count,
             " conjunctive queries, over the cap of ", kMaxLoweredQueries));
}

/// Recursive algebra → branches translation with per-call fresh
/// variables v0, v1, …, numbered in plan order.
class Lowerer {
 public:
  explicit Lowerer(const Schema& schema) : schema_(schema) {}

  Result<std::vector<Branch>> Lower(const AlgebraExpr& expr) {
    switch (expr.kind()) {
      case AlgebraExpr::Kind::kBase:
        return LowerBase(expr);
      case AlgebraExpr::Kind::kProject:
        return LowerProject(expr);
      case AlgebraExpr::Kind::kSelect:
        return LowerSelect(expr);
      case AlgebraExpr::Kind::kProduct:
      case AlgebraExpr::Kind::kJoin:
        return LowerProductOrJoin(expr);
      case AlgebraExpr::Kind::kUnion: {
        PSC_ASSIGN_OR_RETURN(std::vector<Branch> branches,
                             Lower(*expr.left()));
        PSC_ASSIGN_OR_RETURN(std::vector<Branch> right, Lower(*expr.right()));
        PSC_RETURN_NOT_OK(
            CheckBranchCount(branches.size() + right.size(), expr));
        for (Branch& branch : right) branches.push_back(std::move(branch));
        return branches;
      }
    }
    return Status::Internal("unreachable algebra kind");
  }

 private:
  Result<std::vector<Branch>> LowerBase(const AlgebraExpr& expr) {
    // Worlds only hold schema relations, so an unknown base is empty.
    if (!schema_.HasRelation(expr.base_name())) return std::vector<Branch>();
    PSC_ASSIGN_OR_RETURN(const size_t arity, schema_.Arity(expr.base_name()));
    if (arity != expr.OutputArity()) {
      return Status::InvalidArgument(
          StrCat("base '", expr.base_name(), "' has arity ", arity,
                 " in the schema, plan expects ", expr.OutputArity()));
    }
    Branch branch;
    for (size_t i = 0; i < arity; ++i) {
      branch.columns.push_back(Term::Var(StrCat("v", next_var_++)));
    }
    branch.atoms.emplace_back(expr.base_name(), branch.columns);
    return std::vector<Branch>{std::move(branch)};
  }

  Result<std::vector<Branch>> LowerProject(const AlgebraExpr& expr) {
    for (const size_t column : expr.columns()) {
      PSC_RETURN_NOT_OK(CheckColumn(column, expr.left()->OutputArity(),
                                    "projection", expr));
    }
    PSC_ASSIGN_OR_RETURN(std::vector<Branch> branches, Lower(*expr.left()));
    for (Branch& branch : branches) {
      std::vector<Term> columns;
      columns.reserve(expr.columns().size());
      for (const size_t column : expr.columns()) {
        columns.push_back(branch.columns[column]);
      }
      branch.columns = std::move(columns);
    }
    return branches;
  }

  Result<std::vector<Branch>> LowerSelect(const AlgebraExpr& expr) {
    const size_t arity = expr.left()->OutputArity();
    for (const Condition& condition : expr.conditions()) {
      if (!IsBuiltinPredicate(condition.op)) {
        return Status::InvalidArgument(StrCat(
            "unknown selection operator '", condition.op, "' in ",
            expr.ToString()));
      }
      PSC_RETURN_NOT_OK(
          CheckColumn(condition.column, arity, "condition", expr));
      if (const size_t* other = std::get_if<size_t>(&condition.rhs)) {
        PSC_RETURN_NOT_OK(CheckColumn(*other, arity, "condition", expr));
      }
    }
    PSC_ASSIGN_OR_RETURN(std::vector<Branch> branches, Lower(*expr.left()));
    for (Branch& branch : branches) {
      for (const Condition& condition : expr.conditions()) {
        const Term rhs =
            std::holds_alternative<Value>(condition.rhs)
                ? Term::Const(std::get<Value>(condition.rhs))
                : branch.columns[std::get<size_t>(condition.rhs)];
        PSC_RETURN_NOT_OK(Conjoin(&branch, condition.op,
                                  branch.columns[condition.column], rhs));
      }
    }
    return branches;
  }

  Result<std::vector<Branch>> LowerProductOrJoin(const AlgebraExpr& expr) {
    const size_t left_arity = expr.left()->OutputArity();
    const size_t right_arity = expr.right()->OutputArity();
    // ⋈ keeps the left columns and the right columns outside its pairs.
    std::vector<bool> dropped(right_arity, false);
    for (const auto& [left_col, right_col] : expr.join_columns()) {
      PSC_RETURN_NOT_OK(CheckColumn(left_col, left_arity, "join", expr));
      PSC_RETURN_NOT_OK(CheckColumn(right_col, right_arity, "join", expr));
      if (dropped[right_col]) {
        return Status::InvalidArgument(StrCat(
            "join right column ", right_col, " repeated in ", expr.ToString()));
      }
      dropped[right_col] = true;
    }
    PSC_ASSIGN_OR_RETURN(const std::vector<Branch> lefts, Lower(*expr.left()));
    PSC_ASSIGN_OR_RETURN(const std::vector<Branch> rights,
                         Lower(*expr.right()));
    PSC_RETURN_NOT_OK(CheckBranchCount(lefts.size() * rights.size(), expr));
    std::vector<Branch> branches;
    for (const Branch& left : lefts) {
      for (const Branch& right : rights) {
        Branch branch = left;
        branch.atoms.insert(branch.atoms.end(), right.atoms.begin(),
                            right.atoms.end());
        branch.builtins.insert(branch.builtins.end(), right.builtins.begin(),
                               right.builtins.end());
        branch.columns.insert(branch.columns.end(), right.columns.begin(),
                              right.columns.end());
        for (const auto& [left_col, right_col] : expr.join_columns()) {
          PSC_RETURN_NOT_OK(Conjoin(&branch, "Eq", branch.columns[left_col],
                                    branch.columns[left_arity + right_col]));
        }
        std::vector<Term> columns(branch.columns.begin(),
                                  branch.columns.begin() + left_arity);
        for (size_t j = 0; j < right_arity; ++j) {
          if (!dropped[j]) columns.push_back(branch.columns[left_arity + j]);
        }
        branch.columns = std::move(columns);
        branches.push_back(std::move(branch));
      }
    }
    return branches;
  }

  const Schema& schema_;
  size_t next_var_ = 0;
};

}  // namespace

Result<AlgebraExprPtr> CompileQuery(const ConjunctiveQuery& query) {
  if (query.relational_body().empty()) {
    return Status::Unimplemented(
        "plan compilation requires at least one relational body atom");
  }

  // Accumulated plan and the first column bound to each variable.
  AlgebraExprPtr plan;
  std::map<std::string, size_t> column_of;
  size_t width = 0;

  for (const Atom& atom : query.relational_body()) {
    AlgebraExprPtr scan = AlgebraExpr::Base(atom.predicate(), atom.arity());
    // Atom-local conditions: embedded constants and repeated variables
    // within this atom.
    std::vector<Condition> local;
    std::map<std::string, size_t> local_column;
    for (size_t pos = 0; pos < atom.arity(); ++pos) {
      const Term& term = atom.terms()[pos];
      if (term.is_constant()) {
        local.push_back(Condition::WithConstant(pos, "Eq", term.constant()));
        continue;
      }
      auto [it, inserted] = local_column.emplace(term.var_name(), pos);
      if (!inserted) {
        local.push_back(Condition::WithColumn(pos, "Eq", it->second));
      }
    }
    if (!local.empty()) {
      scan = AlgebraExpr::Select(std::move(scan), std::move(local));
    }

    if (plan == nullptr) {
      plan = std::move(scan);
    } else {
      plan = AlgebraExpr::Product(std::move(plan), std::move(scan));
    }

    // Cross-atom join conditions, and first-binding registration.
    std::vector<Condition> joins;
    for (const auto& [var, local_pos] : local_column) {
      const size_t global_pos = width + local_pos;
      auto [it, inserted] = column_of.emplace(var, global_pos);
      if (!inserted) {
        joins.push_back(Condition::WithColumn(global_pos, "Eq", it->second));
      }
    }
    if (!joins.empty()) {
      plan = AlgebraExpr::Select(std::move(plan), std::move(joins));
    }
    width += atom.arity();
  }

  // Built-in filters.
  std::vector<Condition> filters;
  for (const Atom& builtin : query.builtin_body()) {
    const Term& lhs = builtin.terms()[0];
    const Term& rhs = builtin.terms()[1];
    if (lhs.is_variable()) {
      const size_t lhs_col = column_of.at(lhs.var_name());
      if (rhs.is_variable()) {
        filters.push_back(Condition::WithColumn(
            lhs_col, builtin.predicate(), column_of.at(rhs.var_name())));
      } else {
        filters.push_back(Condition::WithConstant(
            lhs_col, builtin.predicate(), rhs.constant()));
      }
    } else if (rhs.is_variable()) {
      PSC_ASSIGN_OR_RETURN(const std::string swapped,
                           SwapComparison(builtin.predicate()));
      filters.push_back(Condition::WithConstant(
          column_of.at(rhs.var_name()), swapped, lhs.constant()));
    } else {
      // Ground built-in: decide now; an always-false one empties the plan.
      PSC_ASSIGN_OR_RETURN(
          const bool holds,
          EvalBuiltin(builtin.predicate(),
                      {lhs.constant(), rhs.constant()}));
      if (!holds) {
        filters.push_back(Condition::WithColumn(0, "Ne", 0));
      }
    }
  }
  if (!filters.empty()) {
    plan = AlgebraExpr::Select(std::move(plan), std::move(filters));
  }

  // Head projection.
  std::vector<size_t> head_columns;
  for (const Term& term : query.head().terms()) {
    if (term.is_constant()) {
      return Status::Unimplemented(
          StrCat("head constant ", term.ToString(),
                 " not supported by plan compilation; bind it with an Eq "
                 "built-in instead"));
    }
    head_columns.push_back(column_of.at(term.var_name()));
  }
  return AlgebraExpr::Project(std::move(plan), std::move(head_columns));
}

Result<std::vector<ConjunctiveQuery>> LowerToQueries(const AlgebraExpr& plan,
                                                     const Schema& schema) {
  PSC_ASSIGN_OR_RETURN(std::vector<Branch> branches,
                       Lowerer(schema).Lower(plan));
  std::vector<ConjunctiveQuery> queries;
  queries.reserve(branches.size());
  for (Branch& branch : branches) {
    std::vector<Atom> body = std::move(branch.atoms);
    body.insert(body.end(), branch.builtins.begin(), branch.builtins.end());
    PSC_ASSIGN_OR_RETURN(
        ConjunctiveQuery query,
        ConjunctiveQuery::Create(Atom("Ans", std::move(branch.columns)),
                                 std::move(body)));
    queries.push_back(std::move(query));
  }
  return queries;
}

}  // namespace psc
