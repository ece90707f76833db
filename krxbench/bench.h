// Shared vocabulary of the krx_bench workloads: the run request, the result
// every workload fills, and the timing/statistics helpers they use.
#ifndef KRXBENCH_BENCH_H_
#define KRXBENCH_BENCH_H_

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "krxbench/spans.h"
#include "src/base/status.h"
#include "src/fleet/tenant.h"

namespace krxbench {

using Clock = std::chrono::steady_clock;

// Captured during static initialization, before main(): set-up time is
// measured from here (the process's start, as near as the program can see).
extern const Clock::time_point kProcessStart;

inline double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct WorkloadResult {
  // False once any output check failed; the messages say which.
  bool correct = true;
  std::vector<std::string> errors;
  // Operations the timed loop attempted, and how many of them failed
  // outright (a program error, as opposed to a wrong output).
  uint64_t attempted = 0;
  uint64_t failed = 0;
  // Every metric the workload measured, keyed by its BENCHMARK.json name.
  std::map<std::string, Metric> metrics;

  void CheckFailed(const std::string& what) {
    correct = false;
    if (errors.size() < 16) {
      errors.push_back(what);
    }
  }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

inline double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, p in (0, 100].
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(p / 100.0 * static_cast<double>(v.size()) + 0.999999);
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

inline double Mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) {
    sum += x;
  }
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

// Peak resident set of this process, in MB (getrusage ru_maxrss).
double PeakRssMb();

WorkloadResult RunBuildWorkload(const RunConfig& config, SpanRecorder& spans);
WorkloadResult RunExecWorkload(const RunConfig& config, SpanRecorder& spans);
WorkloadResult RunFleetWorkload(const RunConfig& config, SpanRecorder& spans);

// The protection configs the build and exec workloads sweep, vanilla first.
inline const std::vector<std::string>& SweepConfigs() {
  static const std::vector<std::string> kConfigs = {"vanilla", "sfi-o4", "mpx-o4",
                                                    "sfi+x",   "sfi+d",  "spec-mask"};
  return kConfigs;
}

// Build options of `config` under diversification seed `seed`, with
// post-link verification on (whatever KRX_POST_LINK_VERIFY says).
inline krx::BuildOptions VerifiedBuildOptions(const std::string& config, uint64_t seed) {
  krx::TenantSpec spec;
  spec.config_name = config;
  krx::Result<krx::BuildOptions> options = spec.ResolveBuildOptions(seed);
  KRX_CHECK(options.ok());
  options->verify = krx::BuildOptions::Verify::kOn;
  return *options;
}

// Corpus seed of the bench kernel source. Fixed, so that every --seed
// builds the same source tree; --seed varies the diversification seeds,
// buffer contents and request order instead.
inline constexpr uint64_t kCorpusSeed = 0xB0F;

}  // namespace krxbench

#endif  // KRXBENCH_BENCH_H_
