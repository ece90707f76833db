// `build`: one CompileKernel at a time over the bench kernel source, with
// post-link verification on. Build i takes the next config of the sweep and
// a fresh diversification seed drawn from --seed; a round is one build per
// config, and the run attempts whole rounds.
//
// The work falls in workload (the source), plugin (protection passes),
// kernel (assemble/link), mem (the image's physical memory) and verify;
// the engines only run a small fixed op set per build, outside the timed
// call. The traced run times each of those layers by calling it apart,
// around the timed build: the source factory, ApplyProtection on a copy of
// the source, constructing one image's PhysMem, VerifyImage on the built
// image. Whatever the build spends outside those is build.unaccounted_ms.
#include <cstdio>

#include "krxbench/bench.h"
#include "krxbench/checks.h"
#include "src/base/rng.h"
#include "src/bench_runner/bench_runner.h"
#include "src/kernel/layout.h"
#include "src/mem/phys_mem.h"
#include "src/plugin/pipeline.h"
#include "src/verify/verifier.h"
#include "src/workload/harness.h"

namespace krxbench {
namespace {

// Rounds that text_kb and overhead_pct average over. Each diversification
// seed and each round's buffer contents move them a little, so one round
// would leave them as wide as the spread between seeds.
constexpr int kStatRounds = 16;

// The fixed op set every build runs: each LMBench row's op, once, on a
// fresh Cpu and a buffer filled from `buffer_seed`.
const std::vector<krx::BenchTask>& OpSetRows() {
  static const std::vector<krx::BenchTask> kRows = [] {
    std::vector<krx::BenchTask> rows = ExecRows();
    std::erase_if(rows, [](const krx::BenchTask& row) {
      return row.spec.workload != krx::WorkloadKind::kLmbench;
    });
    return rows;
  }();
  return kRows;
}

std::vector<RowOutcome> RunOpSet(krx::CompiledKernel& kernel, uint64_t buffer_seed,
                                 std::string* error) {
  krx::CpuOptions copts;
  copts.mpx_enabled = kernel.config.mpx;
  krx::Cpu cpu(kernel.image.get(), krx::CostModel(), copts);
  auto buffers =
      krx::SetUpWorkloadBuffers(*kernel.image, krx::WorkloadKind::kLmbench, buffer_seed);
  if (!cpu.init_error().empty() || !buffers.ok()) {
    *error = "op-set setup failed";
    return {};
  }
  std::vector<RowOutcome> out;
  for (const krx::BenchTask& row : OpSetRows()) {
    out.push_back(RunRow(cpu, row.spec, *buffers, krx::RunOptions{}));
    if (!out.back().error.empty()) {
      *error = row.name + ": " + out.back().error;
    }
  }
  return out;
}

}  // namespace

WorkloadResult RunBuildWorkload(const RunConfig& config, SpanRecorder& spans) {
  WorkloadResult res;
  krx::Rng rng(config.seed ^ 0xB111DULL);
  const uint64_t buffer_seed = rng.Next();
  const std::vector<std::string>& configs = SweepConfigs();

  krx::KernelCache::SourceFactory factory = krx::MakeBenchSourceFactory(kCorpusSeed);
  krx::KernelSource source;
  std::vector<RowOutcome> vanilla_ops;
  // Function addresses of each diversified config's reference build.
  std::vector<std::vector<uint64_t>> reference_addrs(configs.size());
  {
    ScopedSpan setup(spans, "setup");
    {
      ScopedSpan s(spans, "workload.source");
      source = factory();
    }
    // One reference build per config, under set-up seeds. Every timed
    // build must return vanilla's op-set results, and must place at least
    // one function elsewhere than its config's reference (diversified
    // configs). A whole sweep, rather than one build, also makes setup_s
    // a reading over several builds, steadier against host jitter.
    for (size_t ci = 0; ci < configs.size(); ++ci) {
      ScopedSpan compile(spans, "kernel.compile");
      auto reference =
          krx::CompileKernel(source, VerifiedBuildOptions(configs[ci], rng.Next() | 1));
      compile.Close();
      if (!reference.ok()) {
        res.CheckFailed(configs[ci] + ": reference build failed: " +
                        reference.status().message());
        return res;
      }
      if (ci == 0) {
        std::string error;
        ScopedSpan s(spans, "cpu.op_set");
        vanilla_ops = RunOpSet(*reference, buffer_seed, &error);
        if (!error.empty()) {
          res.CheckFailed("vanilla reference op set failed: " + error);
          return res;
        }
      }
      if (reference->config.diversify) {
        reference_addrs[ci] = FunctionAddresses(*reference->image);
      }
    }
  }

  std::vector<double> build_ms;
  std::vector<double> protect_ms, physmem_ms, verify_ms, source_ms, unaccounted_ms;
  // Over the first kStatRounds rounds (text, overhead) or the first round
  // (pipeline statistics, one sweep): a fixed set of builds, so each is
  // deterministic per seed.
  std::vector<double> stat_text_kb;
  std::vector<double> stat_overhead_pct;
  krx::SfiStats round0_sfi;
  uint64_t verify_retries = 0;
  uint64_t op_insts = 0;
  double op_ms = 0;
  uint64_t vanilla_text = 0;
  double reserved_mb = 0;
  double frames_used_mb = 0;

  res.Set("setup_s", MsSince(kProcessStart) / 1000.0, "s");
  const auto t_start = Clock::now();
  ScopedSpan run(spans, "run");
  for (int round = 0; round < kStatRounds || MsSince(t_start) < config.seconds * 1000.0;
       ++round) {
    // The op sets of a round run on buffers filled from the round's own
    // seed: an op's simulated overhead depends on its buffer contents, so
    // overhead_pct averages over kStatRounds of them. The round's vanilla
    // build gives the reference the protected builds are compared with.
    const uint64_t round_seed = rng.Next();
    std::vector<RowOutcome> round_vanilla;
    for (size_t ci = 0; ci < configs.size(); ++ci) {
      const krx::BuildOptions options = VerifiedBuildOptions(configs[ci], rng.Next() | 1);
      if (spans.enabled()) {
        // Per-layer probes, each a separate call timed apart from the build.
        double t_source = 0;
        {
          const auto t0 = Clock::now();
          ScopedSpan s(spans, "workload.source");
          krx::KernelSource fresh = factory();
          t_source = MsSince(t0);
        }
        double t_protect = 0;
        {
          krx::KernelSource copy = source;
          krx::XkeyLayout xkeys;
          krx::PipelineStats stats;
          krx::ProtectionConfig pc = options.config;
          pc.seed = options.seed;
          krx::Rng prng(pc.seed);
          const auto t0 = Clock::now();
          ScopedSpan s(spans, "plugin.protect");
          const krx::Status st = krx::ApplyProtection(
              copy.functions, copy.symbols, pc,
              krx::ComputeEdata(krx::kDefaultPhantomGuardSize), &xkeys, &stats, prng);
          t_protect = MsSince(t0);
          if (!st.ok()) {
            res.CheckFailed("ApplyProtection probe failed: " + st.message());
          }
        }
        double t_physmem = 0;
        {
          const auto t0 = Clock::now();
          ScopedSpan s(spans, "mem.physmem");
          krx::PhysMem phys(source.phys_bytes);
          t_physmem = MsSince(t0);
        }
        source_ms.push_back(t_source);
        protect_ms.push_back(t_protect);
        physmem_ms.push_back(t_physmem);
      }

      krx::KernelSource copy = source;
      const auto t0 = Clock::now();
      ScopedSpan compile(spans, "kernel.compile");
      auto kernel = krx::CompileKernel(std::move(copy), options);
      compile.Close();
      const double ms = MsSince(t0);
      ++res.attempted;
      if (!kernel.ok()) {
        ++res.failed;
        res.CheckFailed(configs[ci] + ": build failed: " + kernel.status().message());
        continue;
      }
      build_ms.push_back(ms);
      // A build that succeeds was verified (verification is on). A first
      // attempt that failed verification, and was rebuilt with a rotated
      // seed, happens for rare seeds only; it is counted, not failed.
      verify_retries += kernel->stats.verify_retries;

      if (spans.enabled()) {
        const krx::VerifyOptions vopts = krx::VerifyOptions::ForConfig(kernel->config);
        double t_verify = 0;
        if (vopts.AnyChecks()) {
          const auto tv = Clock::now();
          ScopedSpan s(spans, "verify.image");
          const krx::VerifyReport report = krx::VerifyImage(*kernel->image, vopts);
          t_verify = MsSince(tv);
          if (!report.ok()) {
            res.CheckFailed(configs[ci] + ": VerifyImage probe reports violations");
          }
        }
        verify_ms.push_back(t_verify);
        unaccounted_ms.push_back(ms - protect_ms.back() - physmem_ms.back() - t_verify);
      }

      // Output checks.
      const uint64_t text = TextBytes(*kernel->image);
      if (ci == 0) {
        vanilla_text = text;
      } else if (text < vanilla_text) {
        res.CheckFailed(configs[ci] + ": .text smaller than vanilla's");
      }
      std::string error;
      const auto t_ops = Clock::now();
      std::vector<RowOutcome> ops;
      {
        ScopedSpan s(spans, "cpu.op_set");
        ops = RunOpSet(*kernel, round_seed, &error);
      }
      op_ms += MsSince(t_ops);
      // Vanilla builds are compared with the set-up reference, on its
      // buffers; protected builds with the round's vanilla build.
      const std::vector<RowOutcome>* expected = &round_vanilla;
      std::vector<RowOutcome> fixed_ops;
      if (ci == 0 && error.empty()) {
        round_vanilla = ops;
        ScopedSpan s(spans, "cpu.op_set");
        fixed_ops = RunOpSet(*kernel, buffer_seed, &error);
        expected = &vanilla_ops;
      }
      const std::vector<RowOutcome>& checked = ci == 0 ? fixed_ops : ops;
      if (!error.empty()) {
        res.CheckFailed(configs[ci] + ": op set: " + error);
      } else if (!expected->empty()) {  // empty: the round's vanilla build failed
        for (size_t r = 0; r < ops.size(); ++r) {
          op_insts += ops[r].instructions;
          if (checked[r].rax_fold != (*expected)[r].rax_fold) {
            res.CheckFailed(configs[ci] + ": " + OpSetRows()[r].name +
                            " returns differ from vanilla");
            break;
          }
        }
      }
      if (kernel->config.diversify &&
          FunctionAddresses(*kernel->image) == reference_addrs[ci]) {
        res.CheckFailed(configs[ci] + ": two seeds placed every function identically");
      }
      if (round == 0) {
        round0_sfi.Accumulate(kernel->stats.sfi);
      }
      if (round < kStatRounds) {
        stat_text_kb.push_back(static_cast<double>(text) / 1024.0);
        if (ci != 0 && error.empty() && !round_vanilla.empty()) {
          for (size_t r = 0; r < ops.size(); ++r) {
            const double v = static_cast<double>(round_vanilla[r].deci_cycles);
            stat_overhead_pct.push_back(
                100.0 * (static_cast<double>(ops[r].deci_cycles) - v) / v);
          }
        }
      }
      reserved_mb = static_cast<double>(kernel->image->phys().size()) / (1 << 20);
      frames_used_mb = static_cast<double>(kernel->image->phys().frames_allocated()
                                           << krx::kPageShift) /
                       (1 << 20);
    }
  }
  run.Close();

  res.Set("build_ms", Median(build_ms), "ms");
  res.Set("text_kb", Mean(stat_text_kb), "KiB");
  res.Set("overhead_pct", Mean(stat_overhead_pct), "%");
  res.Set("guest_mips", op_ms > 0 ? static_cast<double>(op_insts) / op_ms / 1000.0 : 0,
          "Minst/s");
  res.Set("workload.source_ms", Median(source_ms), "ms");
  res.Set("plugin.protect_ms", Median(protect_ms), "ms");
  res.Set("mem.physmem_ms", Median(physmem_ms), "ms");
  res.Set("verify.image_ms", Median(verify_ms), "ms");
  res.Set("build.unaccounted_ms", Median(unaccounted_ms), "ms");
  res.Set("plugin.checks_emitted", static_cast<double>(round0_sfi.checks_emitted), "count");
  res.Set("plugin.checks_elided", static_cast<double>(round0_sfi.checks_coalesced),
          "count");
  res.Set("plugin.checks_hoisted", static_cast<double>(round0_sfi.checks_hoisted), "count");
  res.Set("plugin.string_checks", static_cast<double>(round0_sfi.string_checks), "count");
  res.Set("plugin.verify_retries", static_cast<double>(verify_retries), "count");
  res.Set("mem.reserved_mb", reserved_mb, "MB");
  res.Set("mem.frames_used_mb", frames_used_mb, "MB");
  std::printf("build: %zu builds in %.2f s (%zu rounds of %zu configs)\n", build_ms.size(),
              MsSince(t_start) / 1000.0, build_ms.size() / configs.size(), configs.size());
  return res;
}

}  // namespace krxbench
