#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

/// \file
/// Shared pieces of psc_perfbench: run parameters, the result
/// record every workload fills in, and small statistics helpers.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MicrosBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::micro>(end - begin).count();
}

/// Command-line parameters. run.py passes the settings config.json
/// records -- the tail percentile, the sample minimum beyond it and, for
/// serve-mixed, the offered rate and the open-loop lag bound -- as flags.
/// Every other setting is a named constant of its workload, printed with
/// the record.
struct Params {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Chrome-trace output path (trace mode only; empty = do not write).
  std::string trace_out;
  /// op_tail_ms is this percentile of the operation latencies ...
  double tail_percentile = 0;
  /// ... and a run is invalid with fewer samples beyond it.
  int64_t min_beyond = 0;
  /// serve-mixed: requests per second the open-loop generator sends.
  double offered_rps = 0;
  /// serve-mixed: largest valid open-loop generator lag p99.
  double lag_bound_us = 0;
};

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports back to main().
struct RunRecord {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False once any oracle disagreed with the program.
  bool correct = true;
  /// False when the run could not be measured validly (e.g. the open-loop
  /// generator fell behind its schedule); run.py then prints no
  /// latency figures.
  bool valid = true;
  std::string invalid_reason;
  std::vector<Metric> metrics;
  /// Extra provenance (threads, rates, instance sizes), key → value.
  std::vector<std::pair<std::string, std::string>> info;
  std::vector<std::string> not_exercised;
  /// The first few failure descriptions, for the log.
  std::vector<std::string> failures;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Info(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }
  void Info(const std::string& key, double value);
  /// Reports a per-layer metric of a layer the workload does not reach
  /// as 0, marked as not exercised.
  void NotExercised(const char* name) {
    Add(name, 0.0, "");
    not_exercised.push_back(name);
  }
  /// Counts one failed operation. `mismatch` marks an oracle
  /// disagreement (the output was wrong), as opposed to an error status.
  void Fail(const std::string& what, bool mismatch);
  /// Folds in the counts and failures of a record kept apart (a set-up
  /// repetition, a client thread).
  void Merge(const RunRecord& other);
};

/// Median of `values` (0 for an empty vector).
double Median(std::vector<double> values);

/// Nearest-rank percentile `p` in (0, 100] of `values` (0 when empty).
double Percentile(std::vector<double> values, double p);

/// Number of samples strictly above the nearest-rank percentile `p`.
size_t SamplesBeyond(const std::vector<double>& values, double p);

/// Adds the median and the `tail_percentile` of `values` × `scale` as
/// metrics `p50_name` and `tail_name`, and marks the run invalid when
/// fewer than `min_beyond` samples lie beyond the tail percentile.
void AddLatency(RunRecord* record, const std::vector<double>& values,
                double tail_percentile, size_t min_beyond,
                const std::string& p50_name, const std::string& tail_name,
                const std::string& unit, double scale);

/// Peak resident set size of this process so far, in MB.
double PeakRssMb();

/// Online processors (the `nproc` count).
size_t OnlineProcessors();

/// Reads an obs counter from the global registry.
uint64_t CounterValue(const char* name);

/// A single-thread slice's median time on the reference host (see
/// RATIONALE.md); calibrated figures are in that host's time.
constexpr double kReferenceSliceUs = 480;

/// Machine-speed calibration. The host's speed drifts by ±20% within
/// seconds (shared cores and caches), which would swamp the changes the
/// benchmark must resolve. A fixed slice of pointer-chasing, allocating
/// work -- the kind psc's solvers do -- is timed beside the measured
/// operations, and timings are rescaled to the speed at which a slice
/// takes a reference time: t × reference / median(slice). The slice
/// allocates only from an arena of its own, reused for every slice, so
/// the state psc leaves in the process heap cannot change its speed and
/// only the host's speed is factored out. Raw figures are kept too.
class Calibration {
 public:
  /// With `threads` > 1 a slice also starts threads - 1 helpers that each
  /// run the work, as a thread pool would, and the slice's time includes
  /// their wall time: for workloads whose operations run on a pool, thread
  /// start-up and contention for the cores drift too.
  explicit Calibration(double reference_us = kReferenceSliceUs,
                       size_t threads = 1);
  /// Runs one slice and records its wall time.
  void Slice();
  /// The reference / median slice time since the last Reset (1 when
  /// none); multiply a duration by it, divide a rate by it.
  double Factor() const;
  void Reset() { slices_.clear(); }

 private:
  double reference_us_;
  size_t threads_;
  /// One arena per slice thread, faulted in once.
  std::vector<std::vector<std::byte>> arenas_;
  std::vector<double> slices_;
};

/// A closed loop's operation latencies, kept round by round: after every
/// `slice_every` operations one calibration slice runs, and at the end of
/// a round its latencies and rate are rescaled by the round's
/// calibration factor.
class RoundLog {
 public:
  explicit RoundLog(int slice_every, double reference_us = kReferenceSliceUs,
                    size_t threads = 1)
      : calibration_(reference_us, threads), slice_every_(slice_every) {}

  /// Records one completed operation: its latency, and the wall time it
  /// kept the loop busy (its latency, unless operations overlap).
  void Add(double latency_us, double busy_us);
  void Add(double latency_us) { Add(latency_us, latency_us); }
  void EndRound();

  /// Wall time of the completed rounds' operations (raw).
  double busy_us() const { return busy_us_; }
  /// Calibrated latencies of every operation, and per-round rates in
  /// operations per second (calibrated and raw).
  const std::vector<double>& latencies() const { return latencies_; }
  const std::vector<double>& rates() const { return rates_; }
  const std::vector<double>& raw_rates() const { return raw_rates_; }
  const std::vector<double>& factors() const { return factors_; }
  /// Each round's calibrated latencies.
  const std::vector<std::vector<double>>& rounds() const { return rounds_; }

 private:
  Calibration calibration_;
  const int slice_every_;
  std::vector<double> round_;
  double round_busy_us_ = 0;
  std::vector<double> latencies_;
  std::vector<std::vector<double>> rounds_;
  std::vector<double> rates_;
  std::vector<double> raw_rates_;
  std::vector<double> factors_;
  double busy_us_ = 0;
};

/// Set-ups timed per run; setup_s is their median.
constexpr int kSetupRepetitions = 5;

/// Runs `setup` kSetupRepetitions times and returns the median calibrated
/// wall time in seconds (each repetition is rescaled by calibration
/// slices taken right before it); the state built by the last repetition
/// is the one kept. Only the program's set-up belongs in `setup`:
/// selecting inputs and computing oracle answers happen outside it.
template <typename Fn>
double TimeSetup(Fn&& setup) {
  constexpr int kSlicesPerRepetition = 20;
  std::vector<double> seconds;
  for (int i = 0; i < kSetupRepetitions; ++i) {
    Calibration calibration;
    for (int s = 0; s < kSlicesPerRepetition; ++s) calibration.Slice();
    const Clock::time_point start = Clock::now();
    setup();
    seconds.push_back(MicrosBetween(start, Clock::now()) / 1e6 *
                      calibration.Factor());
  }
  return Median(std::move(seconds));
}

/// Adds a closed loop's end-to-end metrics: ops_per_s (median calibrated
/// round rate), op_p50_ms and op_tail_ms (calibrated latencies) and
/// setup_s, with the raw figures and the peak RSS as provenance. With
/// `tail_per_round`, op_tail_ms is the median over rounds of each round's
/// tail percentile, so one round whose slow operations cluster cannot
/// move it; every round must then have `min_beyond` samples beyond it.
void ReportClosedLoop(const Params& params, const RoundLog& log,
                      double setup_s, bool tail_per_round, RunRecord* record);

/// Adds the untraced closed loop's raw rate and its calibration factor as
/// the per-layer metrics calibration.raw_ops_per_s and calibration.factor,
/// so a raw change can be told from a calibrated one.
void ReportCalibration(const RoundLog& log, RunRecord* record);

/// The three workloads.
void RunExactJoin(const Params& params, RunRecord* record);
void RunFleetCount(const Params& params, RunRecord* record);
void RunServeMixed(const Params& params, RunRecord* record);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
