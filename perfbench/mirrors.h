#ifndef PERFBENCH_MIRRORS_H_
#define PERFBENCH_MIRRORS_H_

/// \file
/// Generated mirror collections: a hidden true binary relation R over a
/// few constants, and mirror sources that each keep part of it plus some
/// stale tuples and claim their *actual* soundness and completeness,
/// rounded down to quarters — so the truth is always a possible world.

#include <cstdint>
#include <string>
#include <vector>

#include "psc/relational/value.h"

namespace perfbench {

struct MirrorShape {
  int64_t constants = 4;
  int64_t truth_tuples = 8;
  int64_t mirrors = 3;
  double keep = 0.6;
  int64_t stale = 2;
};

struct MirrorSource {
  std::string name;
  std::vector<psc::Tuple> facts;
  /// Claimed bounds as quarter fractions ("3/4").
  std::string completeness;
  std::string soundness;
};

struct MirrorCollection {
  /// The seed MakeMirrorCollection drew it from.
  uint64_t seed = 0;
  std::vector<MirrorSource> sources;
  /// |poss(S)| over dom^2.
  uint64_t worlds = 0;
  /// Σ over the worlds D of |D|³ (0 until computed).
  double work = 0;

  /// The `.psc` source text.
  std::string Text() const;
};

/// The domain {1, …, constants}.
std::vector<psc::Value> MirrorDomain(const MirrorShape& shape);

/// One random mirror collection drawn from `seed`.
MirrorCollection MakeMirrorCollection(const MirrorShape& shape,
                                      uint64_t seed);

/// |poss(S)| of `collection` over `domain` (0 when inconsistent or on
/// error).
uint64_t CountWorlds(const MirrorCollection& collection,
                     const std::vector<psc::Value>& domain);

/// Makes `draws` collections from the seed stream (seed, stream, 0),
/// (seed, stream, 1), … and keeps the first `pick_of` whose world count is
/// within `tolerance` (a share) of `target`. Of those it returns the one
/// whose join work Σ_D |D|³ over its worlds — which sets the cost of a
/// 3-atom chain query — is closest to `work_target`, or the median one when
/// `work_target` is 0. Without a match, returns the draw closest to the
/// target world count. Deterministic in its arguments. Fixing the world
/// count and the work keeps per-operation cost comparable across seeds.
MirrorCollection MirrorNearWorlds(const MirrorShape& shape, uint64_t seed,
                                  uint64_t stream, uint64_t target,
                                  double tolerance, int draws, int pick_of,
                                  double work_target);

/// Chain query over R with `atoms` atoms: Ans(x0, xn) <- R(x0, x1), …
std::string ChainQuery(int atoms);

}  // namespace perfbench

#endif  // PERFBENCH_MIRRORS_H_
