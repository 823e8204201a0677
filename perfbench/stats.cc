#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory_resource>
#include <thread>

#include "bench.h"
#include "psc/obs/metrics.h"

namespace perfbench {

namespace {

constexpr size_t kMaxLoggedFailures = 8;

/// 1-based nearest rank of percentile `p` among `n` samples.
size_t NearestRank(size_t n, double p) {
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n));
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

void RunRecord::Info(const std::string& key, double value) {
  char text[32];
  std::snprintf(text, sizeof(text), "%.10g", value);
  Info(key, std::string(text));
}

void RunRecord::Fail(const std::string& what, bool mismatch) {
  ++failed;
  if (mismatch) correct = false;
  if (failures.size() < kMaxLoggedFailures) failures.push_back(what);
}

void RunRecord::Merge(const RunRecord& other) {
  attempted += other.attempted;
  failed += other.failed;
  correct = correct && other.correct;
  for (const std::string& failure : other.failures) {
    if (failures.size() < kMaxLoggedFailures) failures.push_back(failure);
  }
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[NearestRank(values.size(), p) - 1];
}

size_t SamplesBeyond(const std::vector<double>& values, double p) {
  if (values.empty()) return 0;
  return values.size() - NearestRank(values.size(), p);
}

void AddLatency(RunRecord* record, const std::vector<double>& values,
                double tail_percentile, size_t min_beyond,
                const std::string& p50_name, const std::string& tail_name,
                const std::string& unit, double scale) {
  record->Add(p50_name, Median(values) * scale, unit);
  record->Add(tail_name, Percentile(values, tail_percentile) * scale, unit);
  const size_t beyond = SamplesBeyond(values, tail_percentile);
  record->Info(tail_name + ".samples", std::to_string(values.size()));
  record->Info(tail_name + ".beyond", std::to_string(beyond));
  if (beyond < min_beyond && record->valid) {
    record->valid = false;
    record->invalid_reason = tail_name + ": only " + std::to_string(beyond) +
                             " samples beyond p" +
                             std::to_string(tail_percentile);
  }
}

namespace {

/// Bytes of arena per slice thread; one slice uses about 150 KiB.
constexpr size_t kArenaBytes = size_t{1} << 20;

/// The calibration work: allocation and pointer chasing, as in the
/// solvers, on `arena` only. Returns a checksum so the work cannot be
/// optimised away.
uint32_t CalibrationWork(std::vector<std::byte>* arena) {
  std::pmr::monotonic_buffer_resource memory(
      arena->data(), arena->size(), std::pmr::null_memory_resource());
  std::pmr::map<uint32_t, std::pmr::vector<uint32_t>> table(&memory);
  uint32_t sum = 0;
  for (uint32_t i = 0; i < 4000; ++i) {
    std::pmr::vector<uint32_t>& bucket = table[(i * 7919u) % 1009u];
    bucket.push_back(i);
    sum += bucket.front();
  }
  for (const auto& [key, bucket] : table) sum += key * bucket.back();
  return sum;
}

}  // namespace

Calibration::Calibration(double reference_us, size_t threads)
    : reference_us_(reference_us),
      threads_(threads),
      arenas_(threads, std::vector<std::byte>(kArenaBytes)) {}

void Calibration::Slice() {
  const Clock::time_point start = Clock::now();
  std::atomic<uint32_t> sum{CalibrationWork(&arenas_[0])};
  std::vector<std::thread> helpers;
  for (size_t t = 1; t < threads_; ++t) {
    helpers.emplace_back(
        [this, &sum, t] { sum += CalibrationWork(&arenas_[t]); });
  }
  for (std::thread& helper : helpers) helper.join();
  slices_.push_back(MicrosBetween(start, Clock::now()));
  if (sum.load() == 1) slices_.back() += 1e-9;
}

double Calibration::Factor() const {
  if (slices_.empty()) return 1.0;
  return reference_us_ / Median(slices_);
}

void RoundLog::Add(double latency_us, double busy_us) {
  round_.push_back(latency_us);
  round_busy_us_ += busy_us;
  if (round_.size() % slice_every_ == 0) calibration_.Slice();
}

void RoundLog::EndRound() {
  if (round_.empty()) return;
  const double factor = calibration_.Factor();
  calibration_.Reset();
  std::vector<double> calibrated;
  for (const double latency : round_) calibrated.push_back(latency * factor);
  latencies_.insert(latencies_.end(), calibrated.begin(), calibrated.end());
  rounds_.push_back(std::move(calibrated));
  const double ops = static_cast<double>(round_.size());
  raw_rates_.push_back(ops / (round_busy_us_ / 1e6));
  rates_.push_back(ops / (round_busy_us_ * factor / 1e6));
  factors_.push_back(factor);
  busy_us_ += round_busy_us_;
  round_busy_us_ = 0;
  round_.clear();
}

void ReportClosedLoop(const Params& params, const RoundLog& log,
                      double setup_s, bool tail_per_round,
                      RunRecord* record) {
  const double tail = params.tail_percentile;
  const auto min_beyond = static_cast<size_t>(params.min_beyond);
  record->Add("ops_per_s", Median(log.rates()), "1/s");
  if (!tail_per_round) {
    AddLatency(record, log.latencies(), tail, min_beyond, "op_p50_ms",
               "op_tail_ms", "ms", 1e-3);
  } else {
    record->Add("op_p50_ms", Median(log.latencies()) * 1e-3, "ms");
    std::vector<double> tails;
    size_t fewest_beyond = SIZE_MAX;
    for (const std::vector<double>& round : log.rounds()) {
      tails.push_back(Percentile(round, tail));
      fewest_beyond = std::min(fewest_beyond, SamplesBeyond(round, tail));
    }
    record->Add("op_tail_ms", Median(tails) * 1e-3, "ms");
    record->Info("op_tail_ms.fewest_beyond_per_round",
                 std::to_string(fewest_beyond));
    if (fewest_beyond < min_beyond && record->valid) {
      record->valid = false;
      record->invalid_reason = "op_tail_ms: a round has too few samples";
    }
  }
  record->Add("setup_s", setup_s, "s");
  record->Info("peak_rss_mb", PeakRssMb());
  record->Info("rounds", static_cast<double>(log.rates().size()));
  record->Info("raw_ops_per_s", Median(log.raw_rates()));
  record->Info("calibration_factor", Median(log.factors()));
}

void ReportCalibration(const RoundLog& log, RunRecord* record) {
  record->Add("calibration.raw_ops_per_s", Median(log.raw_rates()), "1/s");
  record->Add("calibration.factor", Median(log.factors()), "ratio");
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

size_t OnlineProcessors() {
  const long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<size_t>(n) : 1;
}

uint64_t CounterValue(const char* name) {
  return psc::obs::GlobalMetrics().GetCounter(name).value();
}

}  // namespace perfbench
