#include "psc/consistency/general_consistency.h"

#include <algorithm>
#include <atomic>
#include <utility>
#include <vector>

#include "psc/consistency/identity_consistency.h"
#include "psc/consistency/possible_worlds.h"
#include "psc/exec/parallel.h"
#include "psc/exec/thread_pool.h"
#include "psc/obs/metrics.h"
#include "psc/obs/trace.h"
#include "psc/source/measures.h"
#include "psc/tableau/template_builder.h"
#include "psc/util/string_util.h"

namespace psc {

const char* ConsistencyVerdictToString(ConsistencyVerdict verdict) {
  switch (verdict) {
    case ConsistencyVerdict::kConsistent:
      return "CONSISTENT";
    case ConsistencyVerdict::kInconsistent:
      return "INCONSISTENT";
    case ConsistencyVerdict::kUnknown:
      return "UNKNOWN";
  }
  return "?";
}

Result<bool> WitnessSatisfiesSources(
    const SourceCollection& collection, const Database& witness,
    const std::vector<size_t>& source_indices) {
  for (const size_t index : source_indices) {
    if (index >= collection.size()) {
      return Status::InvalidArgument(
          StrCat("source index ", index, " out of range (collection has ",
                 collection.size(), " sources)"));
    }
    PSC_ASSIGN_OR_RETURN(const bool satisfied,
                         SatisfiesBounds(collection.source(index), witness));
    if (!satisfied) return false;
  }
  return true;
}

namespace {

/// Canonical-freeze pass: try every allowable combination's frozen tableau
/// as a concrete witness. Sound for acceptance only.
///
/// Combinations are enumerated in windows; one ParallelFor evaluates a
/// window, each combination into its own slot, and the search stops at
/// the window's minimal-index decided slot (a witness or an error) — the
/// very combination a one-by-one scan stops at, so the outcome is the
/// same for every worker count. `bound`, the best decided index so far,
/// lets later slots skip work that can no longer win. With a null pool a
/// window holds one combination, so the enumerator stays lazy and exactly
/// the combinations up to the decided one are tried and charged.
Result<std::optional<Database>> TryCanonicalFreeze(
    const SourceCollection& collection,
    const GeneralConsistencyChecker::Options& options, exec::ThreadPool* pool,
    ConsistencyReport* report, bool* hit_limits) {
  TemplateBuilder builder(&collection);
  struct Slot {
    Combination combination;
    bool tried = false;
    bool hit_limits = false;
    uint64_t candidates_checked = 0;
    Status error;
    std::optional<Database> witness;
  };
  constexpr size_t kShard = 16;
  const size_t window_size = pool == nullptr ? 1 : 4 * kShard * pool->size();
  std::vector<Slot> window;
  window.reserve(window_size);
  constexpr size_t kNoIndex = ~size_t{0};
  std::atomic<size_t> bound{kNoIndex};

  // Evaluates window[i]: build, freeze both candidates in order, verify.
  const auto evaluate = [&](size_t i) {
    if (i >= bound.load(std::memory_order_acquire)) return;
    Slot& slot = window[i];
    // One budget node per evaluated combination; on a trip the caller
    // reads the reason off the shared budget and degrades to kUnknown.
    if (!options.budget.Charge()) {
      slot.hit_limits = true;
      return;
    }
    slot.tried = true;
    PSC_OBS_COUNTER_INC("consistency.combinations_tried");
    auto built = builder.BuildTableau(slot.combination);
    if (!built.ok()) {
      if (built.status().code() == StatusCode::kUnimplemented) {
        // A built-in constrains an existential variable; this
        // combination cannot be frozen faithfully.
        slot.hit_limits = true;
        return;
      }
      slot.error = built.status();
    } else if (built->has_value()) {  // else rep(𝒯^U) = ∅
      // Two candidates: merged freezing reuses constants already forced
      // by other sources (needed under exact catalogs), fresh freezing
      // keeps existential witnesses distinct. Acceptance is verified, so
      // trying both is sound.
      Database candidates[2] = {FreezeTableauWithGroundMerge(**built),
                                FreezeTableau(**built)};
      const size_t tries = candidates[0] == candidates[1] ? 1 : 2;
      for (size_t t = 0; t < tries; ++t) {
        ++slot.candidates_checked;
        PSC_OBS_COUNTER_INC("consistency.candidates_checked");
        auto possible = collection.IsPossibleWorld(candidates[t]);
        if (!possible.ok()) {
          slot.error = possible.status();
          break;
        }
        if (*possible) {
          slot.witness = std::move(candidates[t]);
          break;
        }
      }
    }
    if (slot.error.ok() && !slot.witness.has_value()) return;
    size_t best = bound.load(std::memory_order_acquire);
    while (i < best && !bound.compare_exchange_weak(
                           best, i, std::memory_order_acq_rel)) {
    }
  };

  // Evaluates the window and folds its slots into the report; returns
  // false once the search is decided or the budget tripped.
  Status error;
  std::optional<Database> witness;
  const auto flush = [&] {
    exec::ParallelFor(pool, (window.size() + kShard - 1) / kShard,
                      [&](size_t shard) {
                        const size_t end =
                            std::min(window.size(), (shard + 1) * kShard);
                        for (size_t i = shard * kShard; i < end; ++i) {
                          evaluate(i);
                        }
                      });
    for (const Slot& slot : window) {
      report->combinations_tried += slot.tried ? 1 : 0;
      report->candidates_checked += slot.candidates_checked;
      if (slot.hit_limits) *hit_limits = true;
    }
    const size_t best = bound.load(std::memory_order_acquire);
    if (best != kNoIndex) {
      error = std::move(window[best].error);
      witness = std::move(window[best].witness);
      return false;
    }
    window.clear();
    return options.budget.reason() == limits::StopReason::kNone;
  };

  bool searching = true;
  uint64_t enumerated = 0;
  PSC_RETURN_NOT_OK(
      builder
          .ForEachAllowableCombination([&](const Combination& combination) {
            if (enumerated >= options.max_combinations) {
              *hit_limits = true;
              return false;
            }
            ++enumerated;
            window.emplace_back().combination = combination;  // reused ref
            if (window.size() < window_size) return true;
            searching = flush();
            return searching;
          })
          .status());
  if (searching && !window.empty()) flush();
  PSC_RETURN_NOT_OK(error);
  return witness;
}

}  // namespace

Result<ConsistencyReport> GeneralConsistencyChecker::Check(
    const SourceCollection& collection) const {
  PSC_OBS_SPAN("consistency.check");
  PSC_OBS_COUNTER_INC("consistency.checks");
  ConsistencyReport report;

  if (collection.size() == 0) {
    // No constraints: every database (e.g. the empty one) is possible.
    report.verdict = ConsistencyVerdict::kConsistent;
    report.witness = Database();
    report.method = "trivial";
    return report;
  }

  // Strategy 1: exact identity-view decision procedure.
  if (collection.AllIdentityViews()) {
    auto identity = CheckIdentityConsistency(collection, options_.max_shapes,
                                             options_.budget);
    if (identity.ok()) {
      report.method = "identity-counter";
      report.verdict = identity->consistent ? ConsistencyVerdict::kConsistent
                                            : ConsistencyVerdict::kInconsistent;
      report.witness = identity->witness;
      if (report.witness.has_value()) {
        PSC_OBS_GAUGE_SET("consistency.witness_facts",
                          report.witness->AllFacts().size());
      }
      return report;
    }
    if (identity.status().code() != StatusCode::kResourceExhausted &&
        identity.status().code() != StatusCode::kDeadlineExceeded) {
      return identity.status();
    }
    report.unknown_reason = identity.status().message();
    return report;
  }

  // Strategy 2: canonical freezing of Theorem 4.1 templates, on the
  // shared pool of `threads` workers. The outcome is deterministic
  // (minimal-index witness), so every thread count returns the same
  // verdict, witness and method.
  bool hit_limits = false;
  PSC_ASSIGN_OR_RETURN(
      std::optional<Database> witness,
      TryCanonicalFreeze(collection, options_,
                         exec::SharedPool(options_.threads), &report,
                         &hit_limits));
  if (witness.has_value()) {
    report.verdict = ConsistencyVerdict::kConsistent;
    report.witness = std::move(witness);
    report.method = "canonical-freeze";
    PSC_OBS_GAUGE_SET("consistency.witness_facts",
                      report.witness->AllFacts().size());
    return report;
  }

  // A tripped budget means the canonical-freeze pass was cut short; the
  // exhaustive fallback would only burn more wall clock, so degrade to
  // kUnknown right away with the trip message as the reason.
  if (options_.budget.reason() != limits::StopReason::kNone) {
    report.unknown_reason = options_.budget.ToStatus().message();
    return report;
  }

  // Strategy 3: exhaustive search over the canonical domain within the
  // Lemma 3.1 bound.
  if (options_.enable_exhaustive) {
    std::vector<Value> domain = collection.MentionedConstants();
    // The Theorem 3.2 NP procedure fixes m·p·k constants; we add fresh ones
    // up to the configured cap and remember whether we reached the bound.
    size_t max_body = 0;
    size_t max_arity = 1;
    for (const SourceDescriptor& source : collection.sources()) {
      max_body = std::max(max_body, source.view().RelationalBodySize());
    }
    for (const std::string& name : collection.schema().RelationNames()) {
      auto arity = collection.schema().Arity(name);
      if (arity.ok()) max_arity = std::max(max_arity, *arity);
    }
    const size_t constants_needed =
        max_body * collection.TotalExtensionSize() * max_arity;
    const size_t fresh_needed =
        constants_needed > domain.size() ? constants_needed - domain.size()
                                         : 0;
    const size_t fresh_added =
        std::min(fresh_needed, options_.max_fresh_constants);
    for (size_t i = 0; i < fresh_added; ++i) {
      domain.push_back(Value(StrCat("\xE2\x8A\xA5", i)));  // "⊥i"
    }
    const bool domain_complete = fresh_added == fresh_needed;

    BruteForceWorldEnumerator::Options brute_options;
    brute_options.max_universe_bits = options_.max_exhaustive_bits;
    brute_options.budget = options_.budget;
    BruteForceWorldEnumerator enumerator(&collection, domain, brute_options);
    std::optional<Database> found;
    auto completed = enumerator.ForEachPossibleWorld([&](const Database& db) {
      ++report.candidates_checked;
      found = db;
      return false;
    });
    if (completed.ok()) {
      if (found.has_value()) {
        report.verdict = ConsistencyVerdict::kConsistent;
        report.witness = std::move(found);
        report.method = "exhaustive";
        PSC_OBS_GAUGE_SET("consistency.witness_facts",
                          report.witness->AllFacts().size());
        return report;
      }
      if (domain_complete) {
        report.verdict = ConsistencyVerdict::kInconsistent;
        report.method = "exhaustive";
        return report;
      }
      report.unknown_reason = StrCat(
          "no witness over a truncated canonical domain (needed ",
          fresh_needed, " fresh constants, searched with ", fresh_added, ")");
      return report;
    }
    if (completed.status().code() != StatusCode::kResourceExhausted &&
        completed.status().code() != StatusCode::kDeadlineExceeded) {
      return completed.status();
    }
    report.unknown_reason = completed.status().message();
    return report;
  }

  report.unknown_reason =
      hit_limits ? "canonical-freeze pass hit resource limits"
                 : "canonical-freeze found no witness and the exhaustive "
                   "fallback is disabled";
  return report;
}

}  // namespace psc
