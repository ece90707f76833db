// krx_bench: the repository benchmark's binary (run.py builds and
// runs it; README.md documents the workloads and metrics).
//
//   krx_bench --workload build|exec|fleet --seed N --seconds S --trace 0|1
//             [--source-id ID]
//
// Prints a fingerprint line, human-readable notes, and as its last line one
// JSON object: {"correct", "attempted", "failed", "metrics"} with every
// metric the workload measured. With --trace 1 it also keeps a span per
// call into each program layer, writes them as a Chrome trace and prints
// the per-layer breakdown. Exit status: 0 when the run completed (the
// JSON's "correct" says whether the outputs checked out), 2 on bad usage.
#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "krxbench/bench.h"
#include "src/plugin/pipeline.h"
#include "src/telemetry/telemetry.h"

namespace krxbench {

const Clock::time_point kProcessStart = Clock::now();

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: krx_bench --workload build|exec|fleet --seed N --seconds S "
               "--trace 0|1 [--source-id ID]\n");
  return 2;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
    }
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out;
}

// The per-layer decompositions the traced run reports beside the span
// breakdown: each end-to-end quantity split into the layer calls the
// benchmark timed apart, with an explicit unaccounted remainder.
void PrintDecomposition(const WorkloadResult& res, const std::string& workload) {
  auto get = [&](const char* name) {
    auto it = res.metrics.find(name);
    return it == res.metrics.end() ? 0.0 : it->second.value;
  };
  if (workload == "build") {
    std::printf("build_ms %.2f = plugin.protect %.2f + mem.physmem %.2f + verify.image %.2f"
                " + unaccounted %.2f (medians; unaccounted = assemble, link, finalize)\n",
                get("build_ms"), get("plugin.protect_ms"), get("mem.physmem_ms"),
                get("verify.image_ms"), get("build.unaccounted_ms"));
  } else if (workload == "fleet") {
    std::printf("admit_ms %.2f = fleet.materialize %.2f + unaccounted %.2f"
                " (medians; mem.physmem %.2f of the re-link)\n",
                get("admit_ms"), get("fleet.materialize_ms"),
                get("fleet.admit_unaccounted_ms"), get("mem.physmem_ms"));
    std::printf("epoch_ms %.3f = quiesce_wait %.3f + verify %.3f + unaccounted %.3f"
                " (medians)\n",
                get("epoch_ms"), get("rerand.quiesce_wait_ms"), get("rerand.verify_ms"),
                get("rerand.unaccounted_ms"));
  } else if (workload == "exec") {
    std::printf("pass ms per engine: block cache %.2f, superblock %.2f, single-step %.2f"
                " (medians)\n",
                get("cpu.block_cache_pass_ms"), get("cpu.superblock_pass_ms"),
                get("cpu.single_step_pass_ms"));
  }
}

}  // namespace

int Main(int argc, char** argv) {
  RunConfig config;
  std::string source_id = "unknown";
  bool have_workload = false, have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != nullptr && *end == '\0' && config.seconds > 0;
    } else if (flag == "--trace") {
      config.trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--source-id") {
      source_id = value;
    } else {
      return Usage();
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed || !have_seconds || !have_trace ||
      (config.workload != "build" && config.workload != "exec" && config.workload != "fleet")) {
    return Usage();
  }

  // Pin the program's environment-dependent defaults, so that the caller's
  // shell cannot change what is measured: telemetry at its default mode
  // (metrics only; KRX_TELEMETRY would otherwise choose) and post-link
  // verification on (KRX_POST_LINK_VERIFY would otherwise choose; direct
  // builds also pass BuildOptions::Verify::kOn).
  krx::telemetry::SetMode(krx::telemetry::kModeMetrics);
  krx::SetPostLinkVerify(true);

#if defined(__clang__)
  const char* compiler = "clang " __clang_version__;
#else
  const char* compiler = "gcc " __VERSION__;
#endif
  std::printf(
      "fingerprint: {\"hardware_threads\": %u, \"build_type\": \"%s\", \"compiler\": \"%s\","
      " \"source\": \"%s\", \"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g,"
      " \"trace\": %d}\n",
      std::thread::hardware_concurrency(), KRXBENCH_BUILD_TYPE, compiler,
      JsonEscape(source_id).c_str(), config.workload.c_str(),
      static_cast<unsigned long long>(config.seed), config.seconds, config.trace ? 1 : 0);

  SpanRecorder spans(config.trace);
  WorkloadResult res;
  if (config.workload == "build") {
    res = RunBuildWorkload(config, spans);
  } else if (config.workload == "exec") {
    res = RunExecWorkload(config, spans);
  } else {
    res = RunFleetWorkload(config, spans);
  }
  res.Set("peak_rss_mb", PeakRssMb(), "MB");

  if (spans.enabled()) {
    const std::string trace_out =
        ".bench_out/" + config.workload + "-seed" + std::to_string(config.seed) + ".trace.json";
    std::error_code ec;
    std::filesystem::create_directories(".bench_out", ec);
    const krx::Status written = spans.WriteChromeTrace(trace_out);
    if (!written.ok()) {
      res.CheckFailed("trace: " + written.message());
    } else {
      std::printf("trace: %zu spans written to %s\n", spans.spans().size(), trace_out.c_str());
    }
    spans.PrintBreakdown(stdout, "setup");
    spans.PrintBreakdown(stdout, "run");
    PrintDecomposition(res, config.workload);
    // Tracing overhead: what the recorder itself added to the traced run.
    // The per-layer probe calls are extra work of the traced run as well;
    // they show as their own spans above.
    double run_ms = 0;
    for (double ms : spans.DurationsMs("run")) {
      run_ms += ms;
    }
    const double cost_us = SpanRecorder::CostPerSpanUs();
    const double overhead_ms = cost_us * static_cast<double>(spans.spans().size()) / 1000.0;
    std::printf("tracing overhead: %zu spans x %.3f us = %.2f ms (%.2f%% of the %.0f ms run)\n",
                spans.spans().size(), cost_us, overhead_ms,
                run_ms > 0 ? 100.0 * overhead_ms / run_ms : 0.0, run_ms);
  }

  for (const std::string& error : res.errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }
  for (const auto& [name, metric] : res.metrics) {
    std::printf("metric %-28s %14.6g %s\n", name.c_str(), metric.value, metric.unit.c_str());
  }
  std::string json = "{\"correct\": " + std::string(res.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(res.attempted) +
                     ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, metric] : res.metrics) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", metric.value);
    json += std::string(first ? "" : ", ") + "\"" + name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metric.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}

}  // namespace krxbench

int main(int argc, char** argv) { return krxbench::Main(argc, argv); }
