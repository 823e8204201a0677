#include "psc/core/query_system.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "psc/algebra/plan_compiler.h"
#include "psc/counting/identity_instance.h"
#include "psc/counting/world_enumerator.h"
#include "psc/counting/world_sampler.h"
#include "psc/consistency/possible_worlds.h"
#include "psc/exec/parallel.h"
#include "psc/exec/thread_pool.h"
#include "psc/obs/metrics.h"
#include "psc/obs/trace.h"
#include "psc/relational/query_plan.h"
#include "psc/util/random.h"
#include "psc/util/string_util.h"

namespace psc {

namespace {

/// Near-1 threshold for deriving certain answers from floating-point
/// confidences in the compositional path.
constexpr double kCertainEpsilon = 1e-9;

/// One compiled plan per conjunctive query of a lowered algebra plan; a
/// world's answer is the union of the plans' answers. Immutable, so the
/// Monte-Carlo workers share one instance.
using CompiledPlans = std::vector<std::shared_ptr<const eval::QueryPlan>>;

/// Lowers `query` once per answer call (LowerToQueries validates it
/// against `schema` first) and fetches each query's compiled plan.
Result<CompiledPlans> LowerPlan(const AlgebraExpr& query,
                                const Schema& schema) {
  PSC_OBS_SPAN("query.lower_plan");
  PSC_ASSIGN_OR_RETURN(const std::vector<ConjunctiveQuery> queries,
                       LowerToQueries(query, schema));
  CompiledPlans plans;
  plans.reserve(queries.size());
  for (const ConjunctiveQuery& cq : queries) {
    plans.push_back(eval::GetOrCompilePlan(cq, {}));
  }
  PSC_OBS_COUNTER_ADD("query.plans_lowered", plans.size());
  return plans;
}

/// Accumulates per-world query results into certain/possible sets and
/// containment counts. Default-constructed instances are empty shells for
/// container use; AddWorld requires a plan-bound instance. Accumulators
/// over disjoint world blocks merge with MergeFrom — intersection and
/// count addition are order-insensitive, so a block-parallel accumulation
/// finishes with exactly the sequential result.
class AnswerAccumulator {
 public:
  AnswerAccumulator() = default;
  AnswerAccumulator(const CompiledPlans* plans, size_t arity)
      : plans_(plans), arity_(arity) {}

  /// Evaluates the query in `world` and adds its answer.
  Status AddWorld(const Database& world) {
    Relation answer;
    for (const auto& plan : *plans_) {
      PSC_ASSIGN_OR_RETURN(Relation part, plan->Evaluate(world));
      if (answer.empty()) {
        answer = std::move(part);
      } else {
        answer.merge(part);
      }
    }
    Add(std::move(answer));
    return Status::OK();
  }

  /// Adds one world's answer.
  void Add(Relation answer) {
    for (const Tuple& tuple : answer) ++containment_[tuple];
    if (worlds_ == 0) {
      certain_ = std::move(answer);
    } else {
      std::erase_if(certain_, [&](const Tuple& tuple) {
        return answer.count(tuple) == 0;
      });
    }
    ++worlds_;
  }

  /// Folds another accumulator (over a disjoint set of worlds) into this
  /// one. Commutative and associative, so any merge order yields the
  /// sequential result.
  void MergeFrom(AnswerAccumulator other) {
    if (other.worlds_ == 0) return;
    if (worlds_ == 0) {
      *this = std::move(other);
      return;
    }
    std::erase_if(certain_, [&](const Tuple& tuple) {
      return other.certain_.count(tuple) == 0;
    });
    for (const auto& [tuple, count] : other.containment_) {
      containment_[tuple] += count;
    }
    worlds_ += other.worlds_;
  }

  Result<QueryAnswer> Finish(const std::string& method) const {
    if (worlds_ == 0) {
      return Status::Inconsistent(
          "poss(S) is empty: query answers are undefined");
    }
    QueryAnswer answer;
    answer.method = method;
    answer.worlds_used = worlds_;
    answer.certain = certain_;
    answer.confidences = ProbRelation(arity_);
    // Q*(S) is exactly the set of tuples contained in some world.
    for (const auto& [tuple, count] : containment_) {
      answer.possible.insert(answer.possible.end(), tuple);
      PSC_RETURN_NOT_OK(answer.confidences.Insert(
          tuple, static_cast<double>(count) / static_cast<double>(worlds_)));
    }
    return answer;
  }

  uint64_t worlds() const { return worlds_; }

 private:
  const CompiledPlans* plans_ = nullptr;
  size_t arity_ = 0;
  uint64_t worlds_ = 0;
  Relation certain_;
  std::map<Tuple, uint64_t> containment_;
};

/// Per-call budget from the system options; inactive (null state, zero
/// overhead, bit-identical results) when no limit is configured.
limits::Budget MakeBudget(const QuerySystem::Options& options) {
  if (options.deadline_ms <= 0 && options.node_budget == 0 &&
      !options.cancel.has_value() &&
      limits::AmbientCallLimits() == nullptr) {
    return limits::Budget();
  }
  limits::BudgetOptions budget_options;
  budget_options.deadline_ms = options.deadline_ms;
  budget_options.node_budget = options.node_budget;
  budget_options.cancel = options.cancel;
  return limits::Budget(budget_options);
}

}  // namespace

Result<QuerySystem> QuerySystem::Create(SourceCollection collection) {
  return Create(std::move(collection), Options());
}

Result<QuerySystem> QuerySystem::Create(SourceCollection collection,
                                        Options options) {
  return QuerySystem(std::move(collection), options);
}

Result<ConsistencyReport> QuerySystem::CheckConsistency() const {
  const obs::ScopeGuard scope_guard(options_.scope);
  PSC_OBS_SPAN("query.check_consistency");
  GeneralConsistencyChecker::Options options;
  options.max_shapes = options_.max_shapes;
  options.max_exhaustive_bits = options_.max_universe_bits;
  options.threads = options_.threads;
  options.budget = MakeBudget(options_);
  const GeneralConsistencyChecker checker(options);
  return checker.Check(collection_);
}

Result<ConfidenceTable> QuerySystem::BaseConfidences(
    const std::vector<Value>& domain) const {
  const obs::ScopeGuard scope_guard(options_.scope);
  PSC_OBS_SPAN("query.base_confidences");
  PSC_ASSIGN_OR_RETURN(const IdentityInstance instance,
                       IdentityInstance::Create(collection_, domain));
  return ComputeBaseFactConfidences(instance, options_.max_shapes,
                                    exec::SharedPool(options_.threads),
                                    MakeBudget(options_));
}

Result<QueryAnswer> QuerySystem::AnswerExact(
    const AlgebraExprPtr& query, const std::vector<Value>& domain) const {
  if (query == nullptr) return Status::InvalidArgument("null query plan");
  const obs::ScopeGuard scope_guard(options_.scope);
  PSC_OBS_SPAN("query.answer_exact");
  PSC_ASSIGN_OR_RETURN(const CompiledPlans plans,
                       LowerPlan(*query, collection_.schema()));
  AnswerAccumulator accumulator(&plans, query->OutputArity());
  Status world_error;
  const auto consume = [&](const Database& world) {
    world_error = accumulator.AddWorld(world);
    return world_error.ok();
  };

  const limits::Budget budget = MakeBudget(options_);
  if (collection_.AllIdentityViews()) {
    PSC_ASSIGN_OR_RETURN(const IdentityInstance instance,
                         IdentityInstance::Create(collection_, domain));
    IdentityWorldEnumerator enumerator(&instance);
    PSC_ASSIGN_OR_RETURN(
        const bool completed,
        enumerator.ForEachWorld(consume, options_.max_worlds,
                                options_.max_shapes, budget));
    if (!completed) return world_error;
    PSC_ASSIGN_OR_RETURN(QueryAnswer answer,
                         accumulator.Finish("exact-enumeration"));
    PSC_OBS_COUNTER_ADD("query.worlds_used", answer.worlds_used);
    return answer;
  }

  BruteForceWorldEnumerator::Options brute_options;
  brute_options.max_universe_bits = options_.max_universe_bits;
  brute_options.budget = budget;
  BruteForceWorldEnumerator enumerator(&collection_, domain, brute_options);
  PSC_ASSIGN_OR_RETURN(const bool completed,
                       enumerator.ForEachPossibleWorld(consume));
  if (!completed) return world_error;
  PSC_ASSIGN_OR_RETURN(QueryAnswer answer,
                       accumulator.Finish("exact-enumeration"));
  PSC_OBS_COUNTER_ADD("query.worlds_used", answer.worlds_used);
  return answer;
}

Result<QueryAnswer> QuerySystem::AnswerCompositional(
    const AlgebraExprPtr& query, const std::vector<Value>& domain) const {
  if (query == nullptr) return Status::InvalidArgument("null query plan");
  const obs::ScopeGuard scope_guard(options_.scope);
  PSC_OBS_SPAN("query.answer_compositional");
  if (!collection_.AllIdentityViews()) {
    return Status::Unimplemented(
        "compositional confidences require identity views (the Section 5.1 "
        "special case that defines base-fact confidences)");
  }
  PSC_ASSIGN_OR_RETURN(const IdentityInstance instance,
                       IdentityInstance::Create(collection_, domain));
  PSC_ASSIGN_OR_RETURN(
      const ConfidenceTable table,
      ComputeBaseFactConfidences(instance, options_.max_shapes,
                                 exec::SharedPool(options_.threads),
                                 MakeBudget(options_)));
  ProbRelation base_relation(instance.arity());
  for (const TupleConfidence& entry : table.entries) {
    PSC_RETURN_NOT_OK(base_relation.Insert(entry.tuple, entry.confidence));
  }
  std::map<std::string, ProbRelation> base;
  base.emplace(instance.relation(), std::move(base_relation));

  QueryAnswer answer;
  answer.method = "compositional";
  PSC_ASSIGN_OR_RETURN(answer.confidences, query->EvalConfidence(base));
  for (const auto& [tuple, confidence] : answer.confidences.entries()) {
    answer.possible.insert(tuple);
    if (confidence >= 1.0 - kCertainEpsilon) answer.certain.insert(tuple);
  }
  return answer;
}

Result<QueryAnswer> QuerySystem::AnswerMonteCarlo(
    const AlgebraExprPtr& query, const std::vector<Value>& domain,
    uint64_t samples, uint64_t seed) const {
  if (query == nullptr) return Status::InvalidArgument("null query plan");
  if (samples == 0) return Status::InvalidArgument("samples must be >= 1");
  const obs::ScopeGuard scope_guard(options_.scope);
  PSC_OBS_SPAN("query.answer_monte_carlo");
  PSC_ASSIGN_OR_RETURN(const CompiledPlans plans,
                       LowerPlan(*query, collection_.schema()));
  if (!collection_.AllIdentityViews()) {
    return Status::Unimplemented(
        "Monte-Carlo answering requires identity views (uniform world "
        "sampling uses the signature-group representation)");
  }
  PSC_ASSIGN_OR_RETURN(const IdentityInstance instance,
                       IdentityInstance::Create(collection_, domain));
  PSC_ASSIGN_OR_RETURN(const WorldSampler sampler,
                       WorldSampler::Create(&instance, options_.max_worlds));

  const limits::Budget budget = MakeBudget(options_);
  // Counter-based streams: block b always draws its (at most)
  // kBlockSamples worlds from Rng(MixSeed(seed, b)), no matter which
  // worker runs it or whether the blocks run inline — the sampled
  // multiset, and hence the estimate, is a pure function of (seed,
  // samples), identical for every thread count. The block size is fixed
  // (not derived from the worker count) for the same reason.
  constexpr uint64_t kBlockSamples = 64;
  const uint64_t num_blocks = (samples + kBlockSamples - 1) / kBlockSamples;
  struct BlockResult {
    AnswerAccumulator acc;
    Status error;
  };
  const limits::CancelToken cancel_token = budget.token();
  BlockResult merged = exec::ParallelReduce<BlockResult>(
      exec::SharedPool(options_.threads), static_cast<size_t>(num_blocks),
      BlockResult{},
      [&](size_t block) {
        BlockResult result;
        result.acc = AnswerAccumulator(&plans, query->OutputArity());
        Rng rng(MixSeed(seed, block));
        const uint64_t begin = block * kBlockSamples;
        const uint64_t end = std::min(samples, begin + kBlockSamples);
        for (uint64_t i = begin; i < end; ++i) {
          // On a trip this block returns its samples so far; the merged
          // partial answer is flagged truncated below.
          if (!budget.Charge()) break;
          result.error = result.acc.AddWorld(sampler.Sample(&rng));
          if (!result.error.ok()) break;
        }
        return result;
      },
      [](BlockResult& acc, BlockResult part) {
        if (!acc.error.ok()) return;
        if (!part.error.ok()) {
          acc.error = std::move(part.error);
          return;
        }
        acc.acc.MergeFrom(std::move(part.acc));
      },
      budget.active() ? &cancel_token : nullptr);
  PSC_RETURN_NOT_OK(merged.error);
  if (budget.reason() != limits::StopReason::kNone &&
      merged.acc.worlds() == 0) {
    return budget.ToStatus();
  }
  PSC_ASSIGN_OR_RETURN(QueryAnswer answer, merged.acc.Finish("monte-carlo"));
  if (budget.reason() != limits::StopReason::kNone) {
    answer.truncated = true;
    answer.truncation_reason = budget.ToStatus().message();
  }
  PSC_OBS_COUNTER_ADD("query.worlds_used", answer.worlds_used);
  return answer;
}

// The CQ overloads install the scope around compilation too, so the
// eval.plans_compiled counter (and friends) lands on the query; the
// algebra overloads re-install the same scope, which nests harmlessly.

Result<QueryAnswer> QuerySystem::AnswerExact(
    const ConjunctiveQuery& query, const std::vector<Value>& domain) const {
  const obs::ScopeGuard scope_guard(options_.scope);
  PSC_ASSIGN_OR_RETURN(const AlgebraExprPtr plan, CompileQuery(query));
  return AnswerExact(plan, domain);
}

Result<QueryAnswer> QuerySystem::AnswerCompositional(
    const ConjunctiveQuery& query, const std::vector<Value>& domain) const {
  const obs::ScopeGuard scope_guard(options_.scope);
  PSC_ASSIGN_OR_RETURN(const AlgebraExprPtr plan, CompileQuery(query));
  return AnswerCompositional(plan, domain);
}

Result<QueryAnswer> QuerySystem::AnswerMonteCarlo(
    const ConjunctiveQuery& query, const std::vector<Value>& domain,
    uint64_t samples, uint64_t seed) const {
  const obs::ScopeGuard scope_guard(options_.scope);
  PSC_ASSIGN_OR_RETURN(const AlgebraExprPtr plan, CompileQuery(query));
  return AnswerMonteCarlo(plan, domain, samples, seed);
}

}  // namespace psc
