#include "mirrors.h"

#include <algorithm>
#include <cmath>

#include "psc/counting/identity_instance.h"
#include "psc/counting/world_enumerator.h"
#include "psc/counting/world_sampler.h"
#include "psc/parser/parser.h"
#include "psc/util/random.h"
#include "psc/util/string_util.h"

namespace perfbench {

namespace {

/// floor(4 · num / den) / 4, as text.
std::string QuarterFloor(int64_t num, int64_t den) {
  const int64_t quarters = den == 0 ? 4 : (4 * num) / den;
  switch (quarters) {
    case 0:
      return "0";
    case 4:
      return "1";
    case 2:
      return "1/2";
    default:
      return psc::StrCat(quarters, "/4");
  }
}

}  // namespace

std::string MirrorCollection::Text() const {
  std::string text;
  for (const MirrorSource& source : sources) {
    const std::string view = "V" + source.name;
    text += psc::StrCat("source ", source.name, " {\n  view: ", view,
                        "(x, y) <- R(x, y)\n  completeness: ",
                        source.completeness,
                        "\n  soundness: ", source.soundness);
    if (!source.facts.empty()) {
      text += "\n  facts: ";
      for (size_t i = 0; i < source.facts.size(); ++i) {
        if (i > 0) text += ", ";
        text += view + psc::TupleToString(source.facts[i]);
      }
    }
    text += "\n}\n";
  }
  return text;
}

std::vector<psc::Value> MirrorDomain(const MirrorShape& shape) {
  std::vector<psc::Value> domain;
  for (int64_t c = 1; c <= shape.constants; ++c) {
    domain.push_back(psc::Value(c));
  }
  return domain;
}

MirrorCollection MakeMirrorCollection(const MirrorShape& shape,
                                      uint64_t seed) {
  psc::Rng rng(seed);
  const int64_t n = shape.constants;
  const auto tuple_of = [n](int64_t index) {
    return psc::Tuple{psc::Value(index / n + 1), psc::Value(index % n + 1)};
  };
  const std::vector<int64_t> truth =
      rng.SampleWithoutReplacement(n * n, shape.truth_tuples);
  std::vector<int64_t> outside;
  for (int64_t index = 0; index < n * n; ++index) {
    if (!std::binary_search(truth.begin(), truth.end(), index)) {
      outside.push_back(index);
    }
  }
  MirrorCollection collection;
  collection.seed = seed;
  for (int64_t m = 1; m <= shape.mirrors; ++m) {
    MirrorSource source;
    source.name = psc::StrCat("M", m);
    int64_t kept = 0;
    for (const int64_t index : truth) {
      if (rng.Bernoulli(shape.keep)) {
        source.facts.push_back(tuple_of(index));
        ++kept;
      }
    }
    const int64_t stale =
        std::min<int64_t>(shape.stale, static_cast<int64_t>(outside.size()));
    for (const int64_t pick :
         rng.SampleWithoutReplacement(static_cast<int64_t>(outside.size()),
                                      stale)) {
      source.facts.push_back(tuple_of(outside[pick]));
    }
    std::sort(source.facts.begin(), source.facts.end());
    source.completeness = QuarterFloor(kept, shape.truth_tuples);
    source.soundness = QuarterFloor(kept, kept + stale);
    collection.sources.push_back(std::move(source));
  }
  return collection;
}

uint64_t CountWorlds(const MirrorCollection& collection,
                     const std::vector<psc::Value>& domain) {
  auto parsed = psc::ParseCollection(collection.Text());
  if (!parsed.ok()) return 0;
  auto instance = psc::IdentityInstance::Create(*parsed, domain);
  if (!instance.ok()) return 0;
  auto sampler = psc::WorldSampler::Create(&*instance);
  if (!sampler.ok()) return 0;
  return sampler->world_count().ToUint64();
}

namespace {

/// Σ over the worlds D of |D|³.
double JoinWork(const MirrorCollection& collection,
                const std::vector<psc::Value>& domain) {
  auto parsed = psc::ParseCollection(collection.Text());
  if (!parsed.ok()) return 0;
  auto instance = psc::IdentityInstance::Create(*parsed, domain);
  if (!instance.ok()) return 0;
  double work = 0;
  const psc::IdentityWorldEnumerator enumerator(&*instance);
  auto done = enumerator.ForEachWorld([&work](const psc::Database& world) {
    const double size = static_cast<double>(world.size());
    work += size * size * size;
    return true;
  });
  return done.ok() ? work : 0;
}

}  // namespace

MirrorCollection MirrorNearWorlds(const MirrorShape& shape, uint64_t seed,
                                  uint64_t stream, uint64_t target,
                                  double tolerance, int draws,
                                  int pick_of, double work_target) {
  const std::vector<psc::Value> domain = MirrorDomain(shape);
  std::vector<MirrorCollection> matches;
  MirrorCollection closest;
  double closest_distance = INFINITY;
  // A fixed number of draws, so selection work does not depend on the seed.
  for (int draw = 0; draw < draws; ++draw) {
    MirrorCollection candidate = MakeMirrorCollection(
        shape, psc::MixSeed(psc::MixSeed(seed, stream), draw));
    candidate.worlds = CountWorlds(candidate, domain);
    if (candidate.worlds == 0) continue;
    const double ratio = static_cast<double>(candidate.worlds) /
                         static_cast<double>(target);
    if (std::fabs(ratio - 1.0) <= tolerance) {
      if (static_cast<int>(matches.size()) < pick_of) {
        matches.push_back(std::move(candidate));
      }
      continue;
    }
    const double distance = std::fabs(std::log(ratio));
    if (distance < closest_distance) {
      closest_distance = distance;
      closest = std::move(candidate);
    }
  }
  if (matches.empty()) return closest;
  std::vector<std::pair<double, size_t>> by_work;
  for (size_t i = 0; i < matches.size(); ++i) {
    matches[i].work = JoinWork(matches[i], domain);
    const double key =
        work_target > 0 ? std::fabs(std::log(matches[i].work / work_target))
                        : matches[i].work;
    by_work.emplace_back(key, i);
  }
  std::sort(by_work.begin(), by_work.end());
  return matches[by_work[work_target > 0 ? 0 : by_work.size() / 2].second];
}

std::string ChainQuery(int atoms) {
  std::string body;
  for (int i = 0; i < atoms; ++i) {
    if (i > 0) body += ", ";
    body += psc::StrCat("R(x", i, ", x", i + 1, ")");
  }
  return psc::StrCat("Ans(x0, x", atoms, ") <- ", body);
}

}  // namespace perfbench
