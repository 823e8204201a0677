// serve-mixed: in-process serve::Engines under answer traffic with a
// trickle of writes.
//
// The engines hold mirror collections, each with a fixed set of 1- to
// 3-atom queries. Collection popularity is Zipf-skewed, and
// every kDeltaEvery-th request is an `apply-delta` that toggles one fact
// of the next collection in a seeded round-robin order, so every
// collection alternates between two states and every answer must
// byte-match one of its two precomputed cold answers. Three phases run:
//  * inline: the calling thread drives a manual-dispatch engine in
//    bursts, one request per session; its calibrated rate and latencies
//    are the end-to-end metrics;
//  * open loop: a generator thread sends on a fixed schedule to an engine
//    with dispatcher threads, latency timed from each scheduled send;
//  * closed loop: nproc sessions call and wait, for the capacity.
// The threaded phases follow the host's thread wake-up latency, so they
// are reported beside the metrics and, traced, per layer.

#include <sys/prctl.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "bench.h"
#include "mirrors.h"
#include "psc/obs/json.h"
#include "psc/obs/metrics.h"
#include "psc/obs/trace.h"
#include "psc/serve/engine.h"
#include "psc/util/random.h"
#include "psc/util/string_util.h"
#include "spans.h"

namespace perfbench {

namespace {

/// The queries every collection serves: 1, 2 and 3 atoms, each as a
/// chain and as a projection or cycle.
const char* const kQueries[] = {
    "Ans(x, y) <- R(x, y)",
    "Ans(x) <- R(x, y)",
    "Ans(x, z) <- R(x, y), R(y, z)",
    "Ans(x) <- R(x, y), R(y, x)",
    "Ans(x, w) <- R(x, y), R(y, z), R(z, w)",
    "Ans(x) <- R(x, y), R(y, z), R(z, x)",
};
constexpr size_t kQueryCount = sizeof(kQueries) / sizeof(kQueries[0]);
constexpr uint64_t kDeltaSession = 0;

/// The collections: kCollections mirror collections drawn at kWorlds
/// worlds (within kTolerance); of the first kPickOf of kDraws draws the
/// one whose join work is closest to kWorkTarget is kept.
constexpr size_t kCollections = 8;
constexpr uint64_t kWorlds = 48;
constexpr double kTolerance = 0.1;
constexpr int kDraws = 600;
constexpr int kPickOf = 15;
constexpr double kWorkTarget = 27000;
/// The traffic, in every phase: collection popularity is Zipf with
/// exponent kZipfS, and one request in kDeltaEvery is an apply-delta.
/// Both are assumptions, not measured from pscd traffic (RATIONALE.md).
constexpr double kZipfS = 1.0;
constexpr uint64_t kDeltaEvery = 250;
/// Sessions: the inline phase's concurrent requests per burst and the
/// open loop's answer sessions.
constexpr size_t kSessions = 16;
/// The engines: dispatcher threads, largest answer batch, and the batch
/// pool's size (PSC_THREADS; 1 = no pool).
constexpr size_t kDispatchThreads = 1;
constexpr size_t kMaxBatch = 16;
constexpr size_t kBatchPoolThreads = 1;
/// The run's time split: the inline phase takes kInlineShare of it, the
/// closed loop kClosedShare of the rest, and the open loop the remainder.
constexpr double kInlineShare = 0.6;
constexpr double kClosedShare = 0.4;
/// The inline phase's rounds, and its calibration slice interval.
constexpr uint64_t kInlineRoundRequests = 4000;
constexpr int kInlineSliceEvery = 100;
/// Windows the open loop's and the closed loop's figures are split into.
constexpr double kWindowS = 1.0;
constexpr double kClosedWindowS = 0.5;

/// Per-layer metrics of layers this workload does not reach.
constexpr const char* kNotExercised[] = {
    "parser.collection_us",        "consistency.check_us",
    "consistency.nodes_expanded",  "algebra.compile_us",
    "algebra.eval_in_world_ms",    "algebra.tuples_per_world",
    "algebra.eval_confidence_us",  "counting.enumerate_ms",
    "counting.worlds_per_op",      "counting.base_confidences_ms",
    "counting.shapes_visited",     "counting.feasible_shapes",
    "counting.sampler_create_ms",  "counting.sample_us",
    "core.accumulate_ms",          "counting.instance_create_us",
    "exec.pool_create_us"};

struct Collection {
  std::string name;
  /// The seed of the base state's MirrorCollection.
  uint64_t seed = 0;
  /// |poss(S)| and join work Σ_D |D|³ of the base state.
  uint64_t worlds = 0;
  double work = 0;
  /// Source text of the base state and of the toggled state.
  std::string text[2];
  /// The delta script lines that move base → toggled and back.
  std::string to_toggled;
  std::string to_base;
  /// Request line per query, and the accepted responses per state (0 =
  /// base, 1 = toggled) and query: the state's cold answer, with
  /// from_cache false and true.
  std::string answer_line[kQueryCount];
  std::set<std::string> accepted[2][kQueryCount];
};

/// A loaded, warmed engine and the state of its collections.
struct Served {
  std::unique_ptr<psc::serve::Engine> engine;
  /// Whether each collection is in its toggled state.
  std::vector<bool> toggled;
  /// Deltas sent so far.
  size_t deltas = 0;
};

/// Which states an answer may come from.
enum class State { kBase = 0, kToggled = 1, kEither = 2 };

struct Setup {
  std::vector<Collection> collections;
  /// Zipf weights' cumulative distribution over the collections.
  std::vector<double> cumulative;
  /// Deltas visit the collections round-robin in this seeded order:
  /// every collection is equally likely to change, and each changes
  /// equally often within a run.
  std::vector<size_t> delta_order;
  /// The engine with dispatcher threads (open and closed loops) and the
  /// manual-dispatch engine the calling thread drives (inline phase).
  Served threaded;
  Served manual;
};

/// One open-loop request's timeline (trace-clock micros where noted).
struct Slot {
  bool is_delta = false;
  size_t collection = 0;
  size_t query = 0;
  Clock::time_point scheduled;
  Clock::time_point submit_start;
  Clock::time_point submit_end;
  Clock::time_point done;
  uint64_t done_lane = 0;
  uint64_t done_trace_us = 0;
  uint64_t submit_end_trace_us = 0;
  std::string response;
};

std::string AnswerLine(const std::string& collection, const char* query,
                       size_t constants) {
  std::string domain;
  for (size_t c = 1; c <= constants; ++c) {
    domain += psc::StrCat(c > 1 ? "," : "", c);
  }
  return psc::StrCat("{\"verb\":\"answer\",\"collection\":\"", collection,
                     "\",\"query\":\"", query, "\",\"domain\":[", domain,
                     "]}");
}

std::string LoadLine(const std::string& collection, const std::string& text) {
  return psc::StrCat("{\"verb\":\"load\",\"collection\":\"", collection,
                     "\",\"text\":\"", psc::obs::JsonEscape(text), "\"}");
}

std::string DeltaLine(const std::string& collection,
                      const std::string& script) {
  return psc::StrCat("{\"verb\":\"apply-delta\",\"collection\":\"",
                     collection, "\",\"script\":\"", script, "\"}");
}

bool ResponseOk(const std::string& response) {
  return response.find("\"ok\":true") != std::string::npos;
}

/// Cold answers of every query of `collection` in `text`, from `cold`
/// after a fresh load; empty strings for requests that failed.
std::vector<std::string> ColdAnswers(psc::serve::Engine* cold,
                                     const Collection& collection,
                                     const std::string& text) {
  std::vector<std::string> answers(kQueryCount);
  if (!ResponseOk(cold->Call(1, LoadLine(collection.name, text)))) {
    return answers;
  }
  for (size_t q = 0; q < kQueryCount; ++q) {
    const std::string response = cold->Call(1, collection.answer_line[q]);
    if (ResponseOk(response)) answers[q] = response;
  }
  return answers;
}

/// Toggles tried per collection, closest world count first.
constexpr size_t kToggleTries = 12;

/// Picks the toggle for `mirror` and sets `collection`'s two states, its
/// delta lines and its accepted answers. Candidates are the (source,
/// tuple) pairs whose flipped state is still consistent -- so no request
/// of the run can fail on an empty poss(S) -- in order of how close their
/// world count stays to the base state's, so both states cost about the
/// same to answer (ties in a seeded order). Of the first kToggleTries,
/// the one that changes the most cold answers is kept, so the oracle can
/// tell a stale answer from a fresh one. Returns the number of queries
/// whose two states still answer alike, or -1 when no toggle works.
int ChooseToggle(const MirrorShape& shape, uint64_t seed,
                 const MirrorCollection& mirror, psc::serve::Engine* cold,
                 Collection* collection) {
  const std::vector<psc::Value> domain = MirrorDomain(shape);
  std::vector<std::pair<size_t, int64_t>> pairs;
  for (size_t s = 0; s < mirror.sources.size(); ++s) {
    for (int64_t t = 0; t < shape.constants * shape.constants; ++t) {
      pairs.emplace_back(s, t);
    }
  }
  psc::Rng rng(seed);
  rng.Shuffle(&pairs);
  struct Candidate {
    double distance;
    size_t order;
    MirrorCollection toggled;
    std::string fact;
    bool present;
  };
  std::vector<Candidate> candidates;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const auto [s, t] = pairs[i];
    Candidate candidate{0, i, mirror, "", false};
    std::vector<psc::Tuple>& facts = candidate.toggled.sources[s].facts;
    const psc::Tuple tuple{psc::Value(t / shape.constants + 1),
                           psc::Value(t % shape.constants + 1)};
    const auto it = std::find(facts.begin(), facts.end(), tuple);
    candidate.present = it != facts.end();
    if (candidate.present) {
      facts.erase(it);
    } else {
      facts.push_back(tuple);
      std::sort(facts.begin(), facts.end());
    }
    const uint64_t worlds = CountWorlds(candidate.toggled, domain);
    if (worlds == 0) continue;
    candidate.distance = std::fabs(std::log(
        static_cast<double>(worlds) / static_cast<double>(mirror.worlds)));
    candidate.fact = candidate.toggled.sources[s].name +
                     psc::TupleToString(tuple);
    candidates.push_back(std::move(candidate));
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return std::tie(a.distance, a.order) <
                     std::tie(b.distance, b.order);
            });
  if (candidates.size() > kToggleTries) candidates.resize(kToggleTries);

  collection->text[0] = mirror.Text();
  const std::vector<std::string> base =
      ColdAnswers(cold, *collection, collection->text[0]);
  int fewest_alike = -1;
  std::vector<std::string> kept;
  for (const Candidate& candidate : candidates) {
    const std::string text = candidate.toggled.Text();
    std::vector<std::string> answers = ColdAnswers(cold, *collection, text);
    int alike = 0;
    for (size_t q = 0; q < kQueryCount; ++q) alike += answers[q] == base[q];
    if (fewest_alike >= 0 && alike >= fewest_alike) continue;
    fewest_alike = alike;
    kept = std::move(answers);
    collection->text[1] = text;
    collection->to_toggled = (candidate.present ? "- " : "+ ") + candidate.fact;
    collection->to_base = (candidate.present ? "+ " : "- ") + candidate.fact;
    if (alike == 0) break;
  }
  if (fewest_alike < 0) return -1;
  // Accepted: each state's cold answer, as computed and as served from the
  // answer cache.
  for (int state = 0; state < 2; ++state) {
    for (size_t q = 0; q < kQueryCount; ++q) {
      const std::string& response = state == 0 ? base[q] : kept[q];
      if (response.empty()) continue;
      collection->accepted[state][q].insert(response);
      std::string cached = response;
      const std::string cold_flag = "\"from_cache\":false";
      const size_t at = cached.find(cold_flag);
      if (at != std::string::npos) {
        cached.replace(at, cold_flag.size(), "\"from_cache\":true");
        collection->accepted[state][q].insert(cached);
      }
    }
  }
  return fewest_alike;
}

psc::serve::EngineOptions MakeEngineOptions(bool per_request_scopes) {
  psc::serve::EngineOptions options;
  options.solver_threads = 1;
  options.dispatch_threads = kDispatchThreads;
  options.max_queue = 0;  // open loop: measure the backlog, never refuse
  options.max_batch = kMaxBatch;
  options.per_request_scopes = per_request_scopes;
  return options;
}

/// An engine with every collection generated and loaded in its base
/// state and every answer computed once, so the answer caches are warm.
Served LoadServed(const psc::serve::EngineOptions& options,
                  const std::vector<Collection>& collections,
                  RunRecord* record) {
  const MirrorShape shape;
  Served served;
  served.engine = std::make_unique<psc::serve::Engine>(options);
  served.toggled.assign(collections.size(), false);
  for (const Collection& collection : collections) {
    const std::string text = MakeMirrorCollection(shape, collection.seed).Text();
    if (!ResponseOk(served.engine->Call(1, LoadLine(collection.name, text)))) {
      record->Fail("serve-mixed set-up: load failed", false);
    }
    for (size_t q = 0; q < kQueryCount; ++q) {
      served.engine->Call(1, collection.answer_line[q]);
    }
  }
  return served;
}

/// Draws the collections and their toggles, computes the accepted cold
/// answers with a fresh manual-dispatch engine, and fixes the popularity
/// and the delta order. None of this is the program's set-up, so it is
/// not timed.
Setup SelectCollections(uint64_t seed, RunRecord* record) {
  const MirrorShape shape;
  Setup setup;
  // Cold answers come from a fresh load per state, so nothing is served
  // warm.
  psc::serve::EngineOptions cold_options = MakeEngineOptions(false);
  cold_options.dispatch_threads = 0;
  psc::serve::Engine cold(cold_options);
  // (collection, query) pairs whose two states answer alike: for them the
  // oracle cannot tell a stale answer from a fresh one.
  int alike = 0;
  for (size_t c = 0; c < kCollections; ++c) {
    const MirrorCollection mirror =
        MirrorNearWorlds(shape, seed, 1000 + c, kWorlds, kTolerance, kDraws,
                         kPickOf, kWorkTarget);
    Collection collection;
    collection.name = psc::StrCat("c", c);
    collection.seed = mirror.seed;
    collection.worlds = mirror.worlds;
    collection.work = mirror.work;
    for (size_t q = 0; q < kQueryCount; ++q) {
      collection.answer_line[q] = AnswerLine(
          collection.name, kQueries[q], static_cast<size_t>(shape.constants));
    }
    const int collection_alike = ChooseToggle(
        shape, psc::MixSeed(seed, 2000 + c), mirror, &cold, &collection);
    if (collection_alike < 0) {
      record->Fail("serve-mixed set-up: no consistent toggle for " +
                       collection.name,
                   false);
      continue;
    }
    alike += collection_alike;
    for (size_t q = 0; q < kQueryCount; ++q) {
      for (int state = 0; state < 2; ++state) {
        if (collection.accepted[state][q].empty()) {
          record->Fail("serve-mixed set-up: no cold answer for " +
                           collection.answer_line[q],
                       false);
        }
      }
    }
    setup.collections.push_back(std::move(collection));
  }
  record->Info("serve_mixed.alike_answer_pairs",
               psc::StrCat(alike, " of ",
                           setup.collections.size() * kQueryCount));

  // Zipf popularity over a seeded ranking of the collections; within a
  // collection every query is equally popular, so each collection's
  // traffic has the same mix of 1-, 2- and 3-atom queries.
  std::vector<size_t> rank(setup.collections.size());
  for (size_t i = 0; i < rank.size(); ++i) rank[i] = i;
  psc::Rng rng(psc::MixSeed(seed, 3000));
  rng.Shuffle(&rank);
  double total = 0;
  for (const size_t r : rank) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
    setup.cumulative.push_back(total);
  }
  for (double& c : setup.cumulative) c /= total;
  for (size_t c = 0; c < setup.collections.size(); ++c) {
    setup.delta_order.push_back(c);
  }
  rng.Shuffle(&setup.delta_order);
  return setup;
}

/// The timed set-up: the threaded engine and the manual-dispatch engine,
/// each with every collection generated, loaded and warmed.
void LoadEngines(bool per_request_scopes, Setup* setup, RunRecord* record) {
  setup->threaded = Served();  // stops the previous engine first
  setup->manual = Served();
  psc::serve::EngineOptions manual_options =
      MakeEngineOptions(per_request_scopes);
  manual_options.dispatch_threads = 0;
  setup->threaded = LoadServed(MakeEngineOptions(per_request_scopes),
                               setup->collections, record);
  setup->manual = LoadServed(manual_options, setup->collections, record);
}

/// A Zipf-popular collection and a uniformly chosen query of it, as a
/// (collection, query) index pair.
std::pair<size_t, size_t> PickPair(const Setup& setup, psc::Rng* rng) {
  const double u = rng->UniformDouble();
  const auto it = std::lower_bound(setup.cumulative.begin(),
                                   setup.cumulative.end(), u);
  const size_t collection = std::min<size_t>(
      it - setup.cumulative.begin(), setup.cumulative.size() - 1);
  const auto query = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(kQueryCount) - 1));
  return {collection, query};
}

/// Checks an answer response against the accepted cold answers of
/// `state`.
void CheckAnswer(const Collection& collection, size_t query, State state,
                 const std::string& response, RunRecord* record) {
  const auto accepted = [&](State s) {
    return collection.accepted[static_cast<int>(s)][query].count(response) >
           0;
  };
  if (!ResponseOk(response)) {
    record->Fail("serve-mixed: " + response, false);
  } else if (state == State::kEither
                 ? !accepted(State::kBase) && !accepted(State::kToggled)
                 : !accepted(state)) {
    record->Fail(psc::StrCat("serve-mixed: answer does not match ",
                             state == State::kEither ? "either state"
                             : state == State::kBase ? "the base state"
                                                     : "the toggled state",
                             " of ", collection.name, ": ", response),
                 true);
  }
}

/// What the closed phase measured.
struct ClosedResult {
  /// Median over windows of completed requests per second.
  double capacity = 0;
  /// Answer latencies, split into the same windows.
  std::vector<std::vector<double>> latency_windows;
};

/// The next delta for `served` as an apply-delta line: the next
/// collection in the round-robin order, whose index goes to
/// `*collection`, moves to its other state.
std::string NextDelta(const Setup& setup, Served* served,
                      size_t* collection_index = nullptr) {
  const size_t collection =
      setup.delta_order[served->deltas++ % setup.delta_order.size()];
  if (collection_index != nullptr) *collection_index = collection;
  const Collection& target = setup.collections[collection];
  const bool to_toggled = !served->toggled[collection];
  served->toggled[collection] = to_toggled;
  return DeltaLine(target.name,
                   to_toggled ? target.to_toggled : target.to_base);
}

bool DeltaApplied(const std::string& response) {
  return ResponseOk(response) &&
         response.find("\"noops\":0") != std::string::npos;
}

/// Closed loop: `clients` sessions each wait for their answer before
/// sending the next, for `seconds`, while a writer applies one delta per
/// kDeltaEvery − 1 completed answers, so one request in kDeltaEvery is a
/// delta. Concurrent answers may see either state of a collection.
ClosedResult RunClosed(const Params& params, Setup* setup, size_t clients,
                       double seconds, uint64_t stream, RunRecord* record) {
  const auto window =
      std::chrono::microseconds(static_cast<int64_t>(kClosedWindowS * 1e6));
  std::vector<RunRecord> records(clients + 1);
  std::vector<std::vector<std::pair<Clock::time_point, double>>> latencies(
      clients);
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> answered{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      psc::Rng rng(psc::MixSeed(params.seed, stream + t));
      while (!stop.load(std::memory_order_relaxed)) {
        const auto [c, query] = PickPair(*setup, &rng);
        const Collection& collection = setup->collections[c];
        ++records[t].attempted;
        const Clock::time_point start = Clock::now();
        const std::string response =
            setup->threaded.engine->Call(100 + t,
                                         collection.answer_line[query]);
        latencies[t].emplace_back(start, MicrosBetween(start, Clock::now()));
        CheckAnswer(collection, query, State::kEither, response, &records[t]);
        answered.fetch_add(1, std::memory_order_relaxed);
        completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  // The writer: a delta after every kDeltaEvery − 1 answers, round-robin
  // over the collections.
  threads.emplace_back([&] {
    RunRecord& writer = records[clients];
    for (uint64_t i = 1;; ++i) {
      while (answered.load(std::memory_order_relaxed) < i * (kDeltaEvery - 1) &&
             !stop.load(std::memory_order_relaxed)) {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
      if (stop.load(std::memory_order_relaxed)) break;
      ++writer.attempted;
      const std::string response = setup->threaded.engine->Call(
          kDeltaSession, NextDelta(*setup, &setup->threaded));
      if (!DeltaApplied(response)) {
        writer.Fail("serve-mixed delta: " + response, false);
      }
      completed.fetch_add(1, std::memory_order_relaxed);
    }
  });
  std::vector<double> rates;
  const Clock::time_point origin = Clock::now();
  Clock::time_point window_start = origin;
  uint64_t window_count = completed.load(std::memory_order_relaxed);
  const Clock::time_point end =
      origin + std::chrono::microseconds(static_cast<int64_t>(seconds * 1e6));
  while (window_start + window <= end) {
    std::this_thread::sleep_until(window_start + window);
    const Clock::time_point now = Clock::now();
    const uint64_t count = completed.load(std::memory_order_relaxed);
    rates.push_back(static_cast<double>(count - window_count) /
                    (MicrosBetween(window_start, now) / 1e6));
    window_start = now;
    window_count = count;
  }
  stop.store(true);
  for (std::thread& thread : threads) thread.join();
  for (const RunRecord& part : records) record->Merge(part);
  ClosedResult result;
  result.capacity = Median(rates);
  result.latency_windows.resize(rates.size());
  for (const auto& client : latencies) {
    for (const auto& [start, latency] : client) {
      const auto w = static_cast<size_t>(
          MicrosBetween(origin, start) / static_cast<double>(window.count()));
      if (w < result.latency_windows.size()) {
        result.latency_windows[w].push_back(latency);
      }
    }
  }
  return result;
}

/// Inline phase: the calling thread drives the manual-dispatch engine.
/// Each burst submits one request per session -- kSessions closed-loop
/// clients with one request outstanding each -- then pumps the engine
/// until every response is delivered; every kDeltaEvery-th request is a
/// delta. A request's latency runs from the burst's start to its
/// response, so it includes the requests batched or queued before it.
/// Rounds of kInlineRoundRequests requests run until `seconds` of busy
/// time. An answer must come from its collection's current state, or
/// from either state when the collection changed in the answer's burst.
void RunInline(const Params& params, Setup* setup, double seconds,
               RoundLog* log, RunRecord* record) {
  psc::serve::Engine& engine = *setup->manual.engine;
  psc::Rng rng(psc::MixSeed(params.seed, 7000));
  struct Pending {
    bool is_delta = false;
    size_t collection = 0;
    size_t query = 0;
    Clock::time_point done;
    std::string response;
  };
  std::vector<Pending> burst(kSessions);
  std::vector<bool> changed(setup->collections.size());
  uint64_t sent = 0;
  const Clock::time_point stop =
      Clock::now() +
      std::chrono::microseconds(static_cast<int64_t>(seconds * 3e6));
  while (log->busy_us() < seconds * 1e6 && Clock::now() < stop) {
    for (uint64_t in_round = 0; in_round < kInlineRoundRequests;
         in_round += kSessions) {
      std::fill(changed.begin(), changed.end(), false);
      const Clock::time_point start = Clock::now();
      for (size_t s = 0; s < kSessions; ++s) {
        Pending& pending = burst[s];
        pending.is_delta = ++sent % kDeltaEvery == 0;
        std::string line;
        if (pending.is_delta) {
          line = NextDelta(*setup, &setup->manual, &pending.collection);
          changed[pending.collection] = true;
        } else {
          std::tie(pending.collection, pending.query) =
              PickPair(*setup, &rng);
          line = setup->collections[pending.collection]
                     .answer_line[pending.query];
        }
        engine.Submit(100 + s, line, [&pending](const std::string& response) {
          pending.done = Clock::now();
          pending.response = response;
        });
      }
      while (engine.PumpOne()) {
      }
      const double burst_us = MicrosBetween(start, Clock::now());
      for (Pending& pending : burst) {
        ++record->attempted;
        if (pending.is_delta) {
          if (!DeltaApplied(pending.response)) {
            record->Fail("serve-mixed delta: " + pending.response, false);
          }
        } else {
          const State state =
              changed[pending.collection] ? State::kEither
              : setup->manual.toggled[pending.collection] ? State::kToggled
                                                          : State::kBase;
          CheckAnswer(setup->collections[pending.collection], pending.query,
                      state, pending.response, record);
        }
        log->Add(MicrosBetween(start, pending.done),
                 burst_us / static_cast<double>(kSessions));
      }
    }
    log->EndRound();
  }
}

/// Open loop: `offered_rps` requests per second on a fixed schedule for
/// `seconds`, every kDeltaEvery-th of them a delta. Fills one slot per
/// request. Requests overlap, so answers may see either state.
std::vector<Slot> RunOpen(const Params& params, Setup* setup, double seconds,
                          RunRecord* record) {
  psc::Rng rng(psc::MixSeed(params.seed, 4000));
  // The schedule: offsets in microseconds.
  const auto requests =
      static_cast<size_t>(seconds * params.offered_rps);
  std::vector<double> offsets(requests);
  std::vector<Slot> slots(requests);
  for (size_t i = 0; i < requests; ++i) {
    offsets[i] = static_cast<double>(i) * 1e6 / params.offered_rps;
    Slot& slot = slots[i];
    slot.is_delta = (i + 1) % kDeltaEvery == 0;
    if (!slot.is_delta) {
      std::tie(slot.collection, slot.query) = PickPair(*setup, &rng);
    }
  }
  // The generator sleeps until each send time; the default 50 µs timer
  // slack would add that much lag to every request.
  prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0);
  std::atomic<size_t> outstanding{slots.size()};
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  for (size_t i = 0; i < slots.size(); ++i) {
    Slot& slot = slots[i];
    slot.scheduled =
        start + std::chrono::microseconds(static_cast<int64_t>(offsets[i]));
    std::this_thread::sleep_until(slot.scheduled);
    std::string line;
    uint64_t session = kDeltaSession;
    if (slot.is_delta) {
      line = NextDelta(*setup, &setup->threaded, &slot.collection);
    } else {
      line = setup->collections[slot.collection].answer_line[slot.query];
      session = 1 + i % kSessions;
    }
    ++record->attempted;
    slot.submit_start = Clock::now();
    setup->threaded.engine->Submit(session, line, [&slot, &outstanding](
                                             const std::string& response) {
      slot.done = Clock::now();
      slot.done_trace_us = psc::obs::TraceNowMicros();
      slot.done_lane = psc::obs::CurrentThreadLaneId();
      slot.response = response;
      outstanding.fetch_sub(1, std::memory_order_release);
    });
    slot.submit_end = Clock::now();
    slot.submit_end_trace_us = psc::obs::TraceNowMicros();
  }
  // Every accepted request is answered; wait for the backlog to drain.
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(60);
  while (outstanding.load(std::memory_order_acquire) > 0 &&
         Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (outstanding.load(std::memory_order_acquire) > 0) {
    record->Fail("serve-mixed: responses missing after the drain timeout",
                 false);
    setup->threaded.engine->Drain();
  }
  for (const Slot& slot : slots) {
    const Collection& collection = setup->collections[slot.collection];
    if (slot.is_delta) {
      if (!DeltaApplied(slot.response)) {
        record->Fail("serve-mixed delta: " + slot.response, false);
      }
    } else {
      CheckAnswer(collection, slot.query, State::kEither, slot.response,
                  record);
    }
  }
  return slots;
}

struct Latencies {
  std::vector<double> delta_us, submit_us;
  /// Answer latencies and generator lags, split into windows of scheduled
  /// send time.
  std::vector<std::vector<double>> answer_windows, lag_windows;
};

Latencies Collect(const std::vector<Slot>& slots) {
  const double window_s = kWindowS;
  Latencies out;
  if (slots.empty()) return out;
  const Clock::time_point origin = slots.front().scheduled;
  for (const Slot& slot : slots) {
    const double latency = MicrosBetween(slot.scheduled, slot.done);
    const double lag = MicrosBetween(slot.scheduled, slot.submit_start);
    const auto window = static_cast<size_t>(
        MicrosBetween(origin, slot.scheduled) / (window_s * 1e6));
    if (out.lag_windows.size() <= window) {
      out.lag_windows.resize(window + 1);
      out.answer_windows.resize(window + 1);
    }
    if (slot.is_delta) {
      out.delta_us.push_back(latency);
    } else {
      out.answer_windows[window].push_back(latency);
    }
    out.lag_windows[window].push_back(lag);
    out.submit_us.push_back(MicrosBetween(slot.submit_start, slot.submit_end));
  }
  return out;
}

/// Median over windows of a per-window statistic: one stalled window (the
/// host descheduling the generator or the engine) cannot move it.
template <typename Stat>
double MedianOverWindows(const std::vector<std::vector<double>>& windows,
                         Stat stat) {
  std::vector<double> values;
  for (const std::vector<double>& window : windows) {
    if (!window.empty()) values.push_back(stat(window));
  }
  return Median(std::move(values));
}

/// How late the generator ran: the median over windows of its lag p99.
double LagTail(const Latencies& latencies) {
  return MedianOverWindows(latencies.lag_windows,
                           [](const std::vector<double>& lags) {
                             return Percentile(lags, 99);
                           });
}

/// The open loop's validity: its latencies measure the engine only while
/// the generator keeps to its schedule. Returns "" when LagTail is within
/// the bound, else why not.
std::string OpenLoopInvalid(const Params& params, const Latencies& latencies,
                            RunRecord* record) {
  const double lag_tail = LagTail(latencies);
  const double bound = params.lag_bound_us;
  record->Info("loadgen.lag_p99_us", psc::StrCat(lag_tail));
  if (lag_tail <= bound) return "";
  return psc::StrCat("open-loop generator lag p99 ", lag_tail,
                     " us exceeds the ", bound, " us bound");
}

uint64_t HistogramCount(const char* name) {
  return psc::obs::GlobalMetrics().GetHistogram(name).Snapshot().count;
}
uint64_t HistogramSum(const char* name) {
  return psc::obs::GlobalMetrics().GetHistogram(name).Snapshot().sum;
}

/// Per-request spans of the traced open phase, built from the slot
/// timelines and the engine's spans (imported into `spans` already).
/// Answers: scheduled → submit (generator lag) → Submit call → queue wait
/// → batch (from the dispatcher's delta.check_consistency to delivery).
/// Deltas: scheduled → submit → Submit call → unaccounted (queue and
/// writer-lock wait) → delta.apply → delivery.
struct RequestSplit {
  double queue_wait_us = 0;
  size_t answers = 0;
  double delta_unaccounted_us = 0;
  size_t deltas = 0;
  double request_us = 0;
};

RequestSplit SplitRequests(const std::vector<Slot>& slots, SpanLog* spans) {
  // Engine spans by lane as (start, duration), in start order; copied,
  // since appending the request spans below moves the log's storage.
  using Interval = std::pair<uint64_t, double>;
  std::map<uint64_t, std::vector<Interval>> batches;
  std::map<uint64_t, std::vector<Interval>> applies;
  for (const Span& span : spans->spans()) {
    if (span.name == "delta.check_consistency" && span.parent < 0) {
      batches[span.tid].emplace_back(span.start_us, span.duration_us);
    } else if (span.name == "delta.apply") {
      applies[span.tid].emplace_back(span.start_us, span.duration_us);
    }
  }
  for (auto& [lane, list] : batches) std::sort(list.begin(), list.end());
  for (auto& [lane, list] : applies) std::sort(list.begin(), list.end());
  const auto last_before = [](const std::map<uint64_t, std::vector<Interval>>&
                                  by_lane,
                              uint64_t lane,
                              uint64_t time_us) -> const Interval* {
    const auto found = by_lane.find(lane);
    if (found == by_lane.end()) return nullptr;
    const std::vector<Interval>& list = found->second;
    const auto it = std::upper_bound(
        list.begin(), list.end(), time_us,
        [](uint64_t t, const Interval& interval) { return t < interval.first; });
    return it == list.begin() ? nullptr : &*(it - 1);
  };

  RequestSplit split;
  std::vector<Span> request_spans;
  for (size_t i = 0; i < slots.size(); ++i) {
    const Slot& slot = slots[i];
    const double total_us = MicrosBetween(slot.scheduled, slot.done);
    const double lag_us = MicrosBetween(slot.scheduled, slot.submit_start);
    const double submit_us = MicrosBetween(slot.submit_start, slot.submit_end);
    const uint64_t scheduled_trace =
        slot.submit_end_trace_us -
        static_cast<uint64_t>(std::llround(lag_us + submit_us));
    const uint64_t root = spans->Append(Span{
        0, -1, slot.is_delta ? "serve.delta_request" : "serve.answer_request",
        i + 1, scheduled_trace, total_us, 0, 0, 1});
    split.request_us += total_us;
    const auto child = [&](const char* name, uint64_t start_us,
                           double duration_us) {
      spans->Append(Span{0, static_cast<int64_t>(root), name, i + 1, start_us,
                         std::max(0.0, duration_us), 0, 0, 1});
    };
    child("loadgen.lag", scheduled_trace, lag_us);
    child("serve.submit", slot.submit_end_trace_us -
                              static_cast<uint64_t>(std::llround(submit_us)),
          submit_us);
    const double after_submit_us = MicrosBetween(slot.submit_end, slot.done);
    if (slot.is_delta) {
      const Interval* apply =
          last_before(applies, slot.done_lane, slot.done_trace_us);
      const double apply_us = apply == nullptr ? 0.0 : apply->second;
      child("serve.delta_unaccounted", slot.submit_end_trace_us,
            after_submit_us - apply_us);
      child("serve.delta_apply_call",
            slot.done_trace_us - static_cast<uint64_t>(apply_us), apply_us);
      split.delta_unaccounted_us += after_submit_us - apply_us;
      ++split.deltas;
      continue;
    }
    const Interval* batch =
        last_before(batches, slot.done_lane, slot.done_trace_us);
    const double wait_us =
        batch == nullptr || batch->first < slot.submit_end_trace_us
            ? 0.0
            : static_cast<double>(batch->first - slot.submit_end_trace_us);
    child("serve.queue_wait", slot.submit_end_trace_us, wait_us);
    child("serve.batch", slot.submit_end_trace_us + static_cast<uint64_t>(wait_us),
          after_submit_us - wait_us);
    split.queue_wait_us += wait_us;
    ++split.answers;
  }
  return split;
}

}  // namespace

void RunServeMixed(const Params& params, RunRecord* record) {
  const size_t nproc = OnlineProcessors();
  // The batch pool's size comes from PSC_THREADS; the generator, the
  // dispatchers and the pool together stay within the processors.
  if (1 + kDispatchThreads + (kBatchPoolThreads > 1 ? kBatchPoolThreads : 0) >
      nproc) {
    record->Info("warning", "generator, dispatchers and pool exceed nproc");
  }
  setenv("PSC_THREADS", std::to_string(kBatchPoolThreads).c_str(), 1);
  record->Info("dispatch_threads", static_cast<double>(kDispatchThreads));
  record->Info("batch_pool_threads", static_cast<double>(kBatchPoolThreads));
  record->Info("solver_threads", "1");
  record->Info("closed_clients", static_cast<double>(nproc));
  record->Info("serve_mixed.collections", static_cast<double>(kCollections));
  record->Info("serve_mixed.worlds", static_cast<double>(kWorlds));
  record->Info("serve_mixed.tolerance", kTolerance);
  record->Info("serve_mixed.draws", kDraws);
  record->Info("serve_mixed.pick_of", kPickOf);
  record->Info("serve_mixed.work_target", kWorkTarget);
  record->Info("serve_mixed.zipf_s", kZipfS);
  record->Info("serve_mixed.delta_every", static_cast<double>(kDeltaEvery));
  record->Info("serve_mixed.sessions", static_cast<double>(kSessions));
  record->Info("serve_mixed.max_batch", static_cast<double>(kMaxBatch));
  record->Info("serve_mixed.inline_share", kInlineShare);
  record->Info("serve_mixed.closed_share", kClosedShare);
  record->Info("serve_mixed.inline_round_requests",
               static_cast<double>(kInlineRoundRequests));
  record->Info("serve_mixed.inline_slice_every", kInlineSliceEvery);
  record->Info("serve_mixed.window_s", kWindowS);
  record->Info("serve_mixed.closed_window_s", kClosedWindowS);
  const Clock::time_point select_start = Clock::now();
  Setup setup = SelectCollections(params.seed, record);
  record->Info("selection_s", MicrosBetween(select_start, Clock::now()) / 1e6);
  std::string worlds, work;
  for (const Collection& collection : setup.collections) {
    worlds += psc::StrCat(worlds.empty() ? "" : ",", collection.worlds);
    work += psc::StrCat(work.empty() ? "" : ",", collection.work);
  }
  record->Info("worlds", worlds);
  record->Info("join_work", work);
  if (!params.trace) {
    RunRecord setup_record;
    const double setup_s = TimeSetup([&] {
      setup_record = RunRecord();
      LoadEngines(false, &setup, &setup_record);
    });
    record->Merge(setup_record);
    // End to end: the inline phase. It is single-threaded and calibrated,
    // so it is steady on a shared host; the threaded phases after it
    // depend on the host's thread wake-up latency, which drifts by tens
    // of percent from run to run, so their figures are reported beside
    // the metrics (and per layer), not as bounded metrics.
    RoundLog log(kInlineSliceEvery);
    const double inline_seconds = params.seconds * kInlineShare;
    RunInline(params, &setup, inline_seconds, &log, record);
    ReportClosedLoop(params, log, setup_s, /*tail_per_round=*/true, record);

    const double threaded_seconds = params.seconds - inline_seconds;
    const double closed_seconds = threaded_seconds * kClosedShare;
    const std::vector<Slot> slots = RunOpen(
        params, &setup, threaded_seconds - closed_seconds, record);
    const ClosedResult closed =
        RunClosed(params, &setup, nproc, closed_seconds, 5000, record);
    setup = Setup();
    const double tail = params.tail_percentile;
    const auto tail_of = [tail](const std::vector<double>& window) {
      return Percentile(window, tail);
    };
    const Latencies latencies = Collect(slots);
    record->Info("capacity_rps", closed.capacity);
    record->Info("closed.answer_p50_us",
                 MedianOverWindows(closed.latency_windows, Median));
    // The open loop is reported beside the metrics; when the generator
    // fell behind, it is reported invalid instead of as latencies.
    const std::string invalid = OpenLoopInvalid(params, latencies, record);
    if (!invalid.empty()) {
      record->Info("open.invalid", invalid);
      return;
    }
    record->Info("open.answer_p50_us",
                 MedianOverWindows(latencies.answer_windows, Median));
    record->Info("open.answer_tail_us",
                 MedianOverWindows(latencies.answer_windows, tail_of));
    record->Info("open.delta_tail_us", Percentile(latencies.delta_us, tail));
    return;
  }

  // Traced run. The tracing overhead compares the inline phase on an
  // engine without per-request scopes and tracing with the same phase on
  // a traced engine; the per-layer split comes from that engine's traced
  // open loop.
  const double inline_seconds = params.seconds * kInlineShare / 2;
  RoundLog plain_log(kInlineSliceEvery);
  LoadEngines(false, &setup, record);
  RunInline(params, &setup, inline_seconds, &plain_log, record);
  LoadEngines(true, &setup, record);
  psc::obs::GlobalTrace().Clear();
  psc::obs::GlobalTrace().SetCapacity(size_t{1} << 22);
  psc::obs::Options obs_options = psc::obs::GetOptions();
  obs_options.trace_enabled = true;
  psc::obs::SetOptions(obs_options);
  RoundLog traced_log(kInlineSliceEvery);
  RunInline(params, &setup, inline_seconds, &traced_log, record);
  psc::obs::GlobalTrace().Clear();
  const auto counter = [](const char* name) { return CounterValue(name); };
  const char* const kCounters[] = {
      "delta.answers.cache_hits", "delta.answers.computed",
      "delta.batches_applied",    "delta.consistency.revalidations",
      "serve.batch.dedup_hits",   "serve.requests.answer",
      "eval.probes",              "eval.plan_cache.hits",
      "eval.plan_cache.misses",   "exec.pools_created",
      "exec.tasks_executed",      "exec.steals"};
  std::map<std::string, uint64_t> before;
  for (const char* name : kCounters) before[name] = counter(name);
  const uint64_t batches_before = HistogramCount("serve.batch.size");
  const uint64_t batched_before = HistogramSum("serve.batch.size");

  const std::vector<Slot> slots =
      RunOpen(params, &setup, params.seconds - 2 * inline_seconds, record);
  std::map<std::string, double> delta;
  for (const char* name : kCounters) {
    delta[name] = static_cast<double>(counter(name) - before[name]);
  }
  const double batches =
      static_cast<double>(HistogramCount("serve.batch.size") - batches_before);
  const double batched =
      static_cast<double>(HistogramSum("serve.batch.size") - batched_before);
  SpanLog spans(true);
  spans.ImportLibrarySpans();
  setup = Setup();
  psc::obs::GlobalTrace().Clear();

  const Latencies latencies = Collect(slots);
  const std::string invalid = OpenLoopInvalid(params, latencies, record);
  if (!invalid.empty()) {
    // The per-layer split would report the generator, not the engine.
    record->valid = false;
    record->invalid_reason = invalid;
  }
  const RequestSplit split = SplitRequests(slots, &spans);
  const auto ratio = [](double num, double den) {
    return den == 0 ? 0.0 : num / den;
  };
  std::vector<double> miss_us, apply_us;
  {
    std::set<int64_t> miss_parents;
    for (const Span& span : spans.spans()) {
      if (span.name == "query.answer_exact") miss_parents.insert(span.parent);
    }
    for (const Span& span : spans.spans()) {
      if (span.name == "delta.answer_exact" &&
          miss_parents.count(static_cast<int64_t>(span.id)) > 0) {
        miss_us.push_back(span.duration_us);
      } else if (span.name == "delta.apply") {
        apply_us.push_back(span.duration_us);
      }
    }
  }
  const double hits = delta["delta.answers.cache_hits"];
  const double computed = delta["delta.answers.computed"];
  record->Add("delta.answer_hit_ratio", ratio(hits, hits + computed),
              "ratio");
  record->Info("delta.answer_lookups", psc::StrCat(hits + computed));
  record->Add("delta.answer_miss_us", Median(miss_us), "us");
  record->Add("delta.apply_us", Median(apply_us), "us");
  record->Add("delta.revalidations_per_delta",
              ratio(delta["delta.consistency.revalidations"],
                    delta["delta.batches_applied"]),
              "count");
  const double tail = params.tail_percentile;
  record->Add("delta.e2e_tail_us", Percentile(latencies.delta_us, tail),
              "us");
  record->Add("serve.open_answer_p50_us",
              MedianOverWindows(latencies.answer_windows, Median), "us");
  record->Add("serve.open_answer_tail_us",
              MedianOverWindows(latencies.answer_windows,
                                [tail](const std::vector<double>& window) {
                                  return Percentile(window, tail);
                                }),
              "us");
  record->Add("serve.submit_us", Median(latencies.submit_us), "us");
  record->Add("serve.queue_wait_us", ratio(split.queue_wait_us, split.answers),
              "us");
  record->Add("serve.delta_unaccounted_us",
              ratio(split.delta_unaccounted_us, split.deltas), "us");
  record->Add("serve.batch_size_mean", ratio(batched, batches), "count");
  record->Add("serve.dedup_ratio",
              ratio(delta["serve.batch.dedup_hits"],
                    delta["serve.requests.answer"]),
              "ratio");
  record->Info("serve.answers_executed",
               psc::StrCat(delta["serve.requests.answer"]));
  const double requests = static_cast<double>(slots.size());
  record->Add("eval.probes", ratio(delta["eval.probes"], requests), "count");
  const double lookups =
      delta["eval.plan_cache.hits"] + delta["eval.plan_cache.misses"];
  record->Add("eval.plan_cache_hit_ratio",
              ratio(delta["eval.plan_cache.hits"], lookups), "ratio");
  record->Info("eval.plan_cache_lookups", psc::StrCat(lookups));
  record->Add("exec.pools_per_op", ratio(delta["exec.pools_created"], requests),
              "count");
  record->Add("exec.tasks_per_op",
              ratio(delta["exec.tasks_executed"], requests), "count");
  record->Add("exec.steal_ratio",
              ratio(delta["exec.steals"], delta["exec.tasks_executed"]),
              "ratio");
  record->Info("exec.tasks", psc::StrCat(delta["exec.tasks_executed"]));
  record->Add("loadgen.lag_tail_us", LagTail(latencies), "us");
  record->Add("obs.trace_overhead_ratio",
              ratio(Median(traced_log.rates()), Median(plain_log.rates())),
              "ratio");
  const std::map<std::string, double> self = spans.SelfMicrosByName();
  double request_self = 0;
  for (const char* root : {"serve.answer_request", "serve.delta_request"}) {
    if (self.count(root) > 0) request_self += self.at(root);
  }
  record->Add("trace.unaccounted_share", ratio(request_self, split.request_us),
              "ratio");
  record->Add("proc.peak_rss_mb", PeakRssMb(), "MB");
  ReportCalibration(plain_log, record);
  for (const char* name : kNotExercised) record->NotExercised(name);
  for (const auto& [name, micros] : self) {
    record->Info("self_us." + name, psc::StrCat(micros));
  }
  if (!params.trace_out.empty() && !spans.WriteChromeTrace(params.trace_out)) {
    record->Fail("cannot write " + params.trace_out, false);
  }
}

}  // namespace perfbench
