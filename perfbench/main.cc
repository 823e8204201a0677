// psc_perfbench: runs one benchmark workload and prints its record as
// one JSON line on stdout. run.py builds it, passes the settings recorded
// in config.json and turns the record into the benchmark's result line.
//
//   psc_perfbench --workload exact-join --seed 7 --seconds 20 --trace 0
//       --tail-percentile 90 --min-beyond 10 [--offered-rps R
//       --lag-bound-us B] [--trace-out trace.json]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.h"
#include "psc/obs/json.h"

namespace {

using perfbench::Params;
using perfbench::RunRecord;

[[noreturn]] void Usage(const char* message) {
  std::fprintf(stderr,
               "psc_perfbench: %s\nusage: psc_perfbench --workload "
               "<exact-join|fleet-count|serve-mixed> --seed N --seconds S "
               "--trace 0|1 --tail-percentile P --min-beyond N "
               "[--offered-rps R --lag-bound-us B] [--trace-out PATH]\n",
               message);
  std::exit(2);
}

Params ParseArgs(int argc, char** argv) {
  Params params;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      params.workload = value;
    } else if (flag == "--seed") {
      params.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      params.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      params.trace = value == "1";
    } else if (flag == "--trace-out") {
      params.trace_out = value;
    } else if (flag == "--tail-percentile") {
      params.tail_percentile = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--min-beyond") {
      params.min_beyond = std::strtoll(value.c_str(), nullptr, 10);
    } else if (flag == "--offered-rps") {
      params.offered_rps = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--lag-bound-us") {
      params.lag_bound_us = std::strtod(value.c_str(), nullptr);
    } else {
      Usage(("unknown flag " + flag).c_str());
    }
  }
  if (params.workload.empty()) Usage("--workload is required");
  if (params.seconds <= 0) Usage("--seconds must be positive");
  if (params.tail_percentile <= 0 || params.tail_percentile >= 100 ||
      params.min_beyond <= 0) {
    Usage("--tail-percentile in (0, 100) and --min-beyond > 0 are required");
  }
  if (params.workload == "serve-mixed" &&
      (params.offered_rps <= 0 || params.lag_bound_us <= 0)) {
    Usage("serve-mixed needs --offered-rps and --lag-bound-us");
  }
  return params;
}

std::string Quote(const std::string& text) {
  return "\"" + psc::obs::JsonEscape(text) + "\"";
}

std::string ToJson(const Params& params, const RunRecord& record) {
  std::string out = "{\"workload\":" + Quote(params.workload);
  out += ",\"valid\":" + std::string(record.valid ? "true" : "false");
  out += ",\"invalid_reason\":" + Quote(record.invalid_reason);
  out += ",\"correct\":" + std::string(record.correct ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(record.attempted);
  out += ",\"failed\":" + std::to_string(record.failed);
  out += ",\"metrics\":{";
  for (size_t i = 0; i < record.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", record.metrics[i].value);
    out += (i > 0 ? "," : "") + Quote(record.metrics[i].name) +
           ":{\"value\":" + value +
           ",\"unit\":" + Quote(record.metrics[i].unit) + "}";
  }
  out += "},\"info\":{";
  for (size_t i = 0; i < record.info.size(); ++i) {
    out += (i > 0 ? "," : "") + Quote(record.info[i].first) + ":" +
           Quote(record.info[i].second);
  }
  out += "},\"not_exercised\":[";
  for (size_t i = 0; i < record.not_exercised.size(); ++i) {
    out += (i > 0 ? "," : "") + Quote(record.not_exercised[i]);
  }
  out += "],\"failures\":[";
  for (size_t i = 0; i < record.failures.size(); ++i) {
    out += (i > 0 ? "," : "") + Quote(record.failures[i]);
  }
  return out + "]}";
}

}  // namespace

int main(int argc, char** argv) {
  const Params params = ParseArgs(argc, argv);
  RunRecord record;
  if (params.workload == "exact-join") {
    perfbench::RunExactJoin(params, &record);
  } else if (params.workload == "fleet-count") {
    perfbench::RunFleetCount(params, &record);
  } else if (params.workload == "serve-mixed") {
    perfbench::RunServeMixed(params, &record);
  } else {
    Usage(("unknown workload " + params.workload).c_str());
  }
  // A set-up step that failed counts as an attempted operation too.
  record.attempted = std::max(record.attempted, record.failed);
  if (record.attempted == 0) record.valid = false;
  std::printf("%s\n", ToJson(params, record).c_str());
  return 0;
}
