// `exec`: the full bench matrix, pass after pass, in a closed loop from one
// thread. A pass runs every matrix row (23 LMBench ops, the VFS walk, the
// IPC round, 11 Phoronix mixes) once on each of the sweep's six images; the
// run attempts whole passes.
//
// The kernels are built once, during set-up, and each image gets one Cpu on
// the default engine for the whole run. The benchmark never creates a Cpu
// per task (BenchRunner::Run does): a Cpu's kernel stack is never returned
// to the image, so a long run would exhaust its frames. Nearly all the time
// is in cpu and in mem translation.
//
// After the loop, outside the timing, overhead_pct takes further sample
// sets: fresh layouts of the diversified images and fresh buffers.
//
// The traced run interleaves one pass per engine (block cache, superblock,
// single-step), each engine on its own Cpu per image, and reads the
// per-pass counters of the Cpus, their MMUs and their caches.
#include <cstdio>
#include <memory>

#include "krxbench/bench.h"
#include "krxbench/checks.h"
#include "src/base/rng.h"
#include "src/bench_runner/bench_runner.h"
#include "src/cpu/superblock/superblock.h"
#include "src/plugin/pipeline.h"
#include "src/workload/harness.h"
#include "src/workload/vfs.h"

namespace krxbench {
namespace {

// The three engines, each on its own Cpu per image. The default engine (the
// block cache) is the only one the untraced run times.
enum Engine { kBlockCache, kSuperblock, kSingleStep, kEngines };
constexpr krx::ExecEngine kExecEngine[kEngines] = {
    krx::ExecEngine::kAuto, krx::ExecEngine::kSuperblock, krx::ExecEngine::kSingleStep};
constexpr const char* kPassSpan[kEngines] = {"cpu.block_cache_pass", "cpu.superblock_pass",
                                             "cpu.single_step_pass"};

struct Image {
  std::string config;
  std::unique_ptr<krx::CompiledKernel> kernel;
  krx::WorkloadBuffers buffers;  // every family's buffers on this image
  uint64_t check_buf = 0;        // one page for the VFS and IPC probes
  std::unique_ptr<krx::Cpu> cpus[kEngines];  // superblock, single-step: traced run
};

// Sample sets (layouts of the diversified configs, buffer contents) that
// overhead_pct averages over, all drawn from --seed.
constexpr int kOverheadSets = 8;

// Fresh buffers for every family on `image`, filled from `seed`.
bool SetUpBuffers(Image& image, uint64_t seed) {
  krx::KernelImage& ki = *image.kernel->image;
  auto op = krx::SetUpWorkloadBuffers(ki, krx::WorkloadKind::kLmbench, seed);
  auto vfs = krx::SetUpWorkloadBuffers(ki, krx::WorkloadKind::kVfs, seed);
  auto ipc = krx::SetUpWorkloadBuffers(ki, krx::WorkloadKind::kIpc, seed);
  if (!op.ok() || !vfs.ok() || !ipc.ok()) {
    return false;
  }
  image.buffers = *ipc;
  image.buffers.op_buffer = op->op_buffer;
  image.buffers.vfs_buf = vfs->vfs_buf;
  return true;
}

void MakeCpu(Image& image, Engine engine, std::string* error) {
  krx::CpuOptions copts;
  copts.mpx_enabled = image.kernel->config.mpx;
  image.cpus[engine] =
      std::make_unique<krx::Cpu>(image.kernel->image.get(), krx::CostModel(), copts);
  if (!image.cpus[engine]->init_error().empty()) {
    *error = image.config + ": cpu init failed: " + image.cpus[engine]->init_error();
  }
}

// One pass: every row on every image. outcomes[image][row].
std::vector<std::vector<RowOutcome>> RunPass(std::vector<Image>& images,
                                             const std::vector<krx::BenchTask>& rows, Engine engine,
                                             SpanRecorder& spans) {
  krx::RunOptions run;
  run.engine = kExecEngine[engine];
  std::vector<std::vector<RowOutcome>> out(images.size());
  for (size_t i = 0; i < images.size(); ++i) {
    ScopedSpan s(spans, "cpu.image_pass");
    krx::Cpu& cpu = *images[i].cpus[engine];
    out[i].reserve(rows.size());
    for (const krx::BenchTask& row : rows) {
      out[i].push_back(RunRow(cpu, row.spec, images[i].buffers, run));
    }
  }
  return out;
}

uint64_t PassInstructions(const std::vector<std::vector<RowOutcome>>& pass) {
  uint64_t n = 0;
  for (const auto& image : pass) {
    for (const RowOutcome& o : image) {
      n += o.instructions;
    }
  }
  return n;
}

}  // namespace

WorkloadResult RunExecWorkload(const RunConfig& config, SpanRecorder& spans) {
  WorkloadResult res;
  krx::Rng rng(config.seed ^ 0xE7EC5ULL);
  const uint64_t buffer_seed = rng.Next();
  const std::vector<krx::BenchTask> rows = ExecRows();
  std::vector<Image> images;
  std::vector<double> build_ms;
  double text_kb = 0;
  krx::SfiStats sfi;
  krx::KernelSource source;
  {
    ScopedSpan setup(spans, "setup");
    {
      ScopedSpan s(spans, "workload.source");
      source = krx::MakeBenchSourceFactory(kCorpusSeed)();
    }
    for (const std::string& name : SweepConfigs()) {
      const krx::BuildOptions options = VerifiedBuildOptions(name, rng.Next() | 1);
      const auto t0 = Clock::now();
      ScopedSpan compile(spans, "kernel.compile");
      auto kernel = krx::CompileKernel(source, options);
      compile.Close();
      build_ms.push_back(MsSince(t0));
      if (!kernel.ok()) {
        res.CheckFailed(name + ": build failed: " + kernel.status().message());
        return res;
      }
      Image image;
      image.config = name;
      image.kernel = std::make_unique<krx::CompiledKernel>(std::move(*kernel));
      text_kb += static_cast<double>(TextBytes(*image.kernel->image)) / 1024.0;
      sfi.Accumulate(image.kernel->stats.sfi);
      ScopedSpan buffers(spans, "workload.buffers");
      auto check = image.kernel->image->AllocDataPages(1);
      if (!SetUpBuffers(image, buffer_seed) || !check.ok()) {
        res.CheckFailed(name + ": buffer set-up failed");
        return res;
      }
      image.check_buf = *check;
      buffers.Close();
      ScopedSpan cpus(spans, "cpu.init");
      std::string error;
      MakeCpu(image, kBlockCache, &error);
      if (spans.enabled()) {
        MakeCpu(image, kSuperblock, &error);
        MakeCpu(image, kSingleStep, &error);
      }
      if (!error.empty()) {
        res.CheckFailed(error);
        return res;
      }
      images.push_back(std::move(image));
    }
  }
  text_kb /= static_cast<double>(images.size());

  // Output check of one pass: every protected config against vanilla (the
  // first image), row by row.
  auto check_pass = [&](const std::vector<std::vector<RowOutcome>>& pass) {
    for (size_t i = 0; i < images.size(); ++i) {
      for (size_t r = 0; r < rows.size(); ++r) {
        ++res.attempted;
        if (!pass[i][r].error.empty()) {
          ++res.failed;
        }
      }
      if (i == 0) {
        continue;
      }
      const std::string error = CompareWithVanilla(images[i].config, rows, pass[0], pass[i]);
      if (!error.empty()) {
        res.CheckFailed(error);
      }
    }
  };

  std::vector<std::vector<RowOutcome>> first_pass;
  std::vector<std::vector<RowOutcome>> last_pass;
  std::vector<double> pass_mips;
  std::vector<double> pass_ms[kEngines];
  std::vector<double> itlb, dtlb, insts, mcycles;
  auto timed_pass = [&](Engine engine) {
    const auto t0 = Clock::now();
    ScopedSpan s(spans, kPassSpan[engine]);
    std::vector<std::vector<RowOutcome>> out = RunPass(images, rows, engine, spans);
    s.Close();
    pass_ms[engine].push_back(MsSince(t0));
    check_pass(out);
    return out;
  };

  res.Set("setup_s", MsSince(kProcessStart) / 1000.0, "s");
  const auto t_start = Clock::now();
  ScopedSpan run(spans, "run");
  for (int pass = 0; pass == 0 || MsSince(t_start) < config.seconds * 1000.0; ++pass) {
    uint64_t itlb0 = 0, dtlb0 = 0;
    for (const Image& image : images) {
      itlb0 += image.cpus[kBlockCache]->mmu().stats().itlb_lookups;
      dtlb0 += image.cpus[kBlockCache]->mmu().stats().dtlb_lookups;
    }
    std::vector<std::vector<RowOutcome>> outcome = timed_pass(kBlockCache);
    const uint64_t pass_insts = PassInstructions(outcome);
    pass_mips.push_back(static_cast<double>(pass_insts) / pass_ms[kBlockCache].back() / 1000.0);
    if (spans.enabled()) {
      uint64_t itlb1 = 0, dtlb1 = 0;
      for (const Image& image : images) {
        itlb1 += image.cpus[kBlockCache]->mmu().stats().itlb_lookups;
        dtlb1 += image.cpus[kBlockCache]->mmu().stats().dtlb_lookups;
      }
      itlb.push_back(static_cast<double>(itlb1 - itlb0));
      dtlb.push_back(static_cast<double>(dtlb1 - dtlb0));
      uint64_t deci = 0;
      for (const auto& image : outcome) {
        for (const RowOutcome& o : image) {
          deci += o.deci_cycles;
        }
      }
      insts.push_back(static_cast<double>(pass_insts));
      mcycles.push_back(static_cast<double>(deci) / 10.0 / 1e6);

      // The other two engines, interleaved with the default one; each must
      // give the default engine's counters.
      for (Engine engine : {kSuperblock, kSingleStep}) {
        const std::vector<std::vector<RowOutcome>> other = timed_pass(engine);
        for (size_t i = 0; i < images.size(); ++i) {
          const std::string error =
              CompareEngines(images[i].config + " " + kPassSpan[engine], rows, outcome[i],
                             other[i]);
          if (!error.empty()) {
            res.CheckFailed(error);
          }
        }
      }
    }
    if (pass == 0) {
      first_pass = outcome;
    }
    last_pass = std::move(outcome);
  }
  run.Close();
  const double loop_s = MsSince(t_start) / 1000.0;

  // One single-step pass must give the default engine's counters.
  {
    std::string error;
    for (Image& image : images) {
      if (image.cpus[kSingleStep] == nullptr) {
        MakeCpu(image, kSingleStep, &error);
      }
    }
    if (!error.empty()) {
      res.CheckFailed(error);
    } else {
      const auto ss = RunPass(images, rows, kSingleStep, spans);
      for (size_t i = 0; i < images.size(); ++i) {
        const std::string diff =
            CompareEngines(images[i].config + " single-step", rows, last_pass[i], ss[i]);
        if (!diff.empty()) {
          res.CheckFailed(diff);
        }
      }
    }
  }
  // VFS reads and IPC payloads, against values computed apart from the
  // guest: the VFS image description and the bytes the host wrote.
  for (Image& image : images) {
    krx::Cpu& cpu = *image.cpus[kBlockCache];
    for (const krx::VfsFile& file : krx::DefaultVfsImage()) {
      std::string error;
      const std::vector<uint8_t> read =
          ReadVfsFile(cpu, image.check_buf, file.path, file.content.size(), &error);
      const std::string diff =
          error.empty() ? CheckVfsRead(file.path, file.content, read) : error;
      if (!diff.empty()) {
        res.CheckFailed(image.config + ": " + diff);
        break;
      }
    }
    std::string error;
    const std::vector<uint8_t> sent =
        PeekGuest(*image.kernel->image, image.buffers.ipc_src, 64 * 8, &error);
    const std::vector<uint8_t> piped =
        PipeRoundTrip(cpu, image.buffers.ipc_src, image.check_buf, 64, &error);
    std::string diff = error.empty() ? CheckPayload("pipe", sent, piped) : error;
    if (diff.empty()) {
      const std::vector<uint8_t> sock =
          SockRoundTrip(cpu, image.buffers.ipc_src, image.check_buf, 16, &error);
      const std::vector<uint8_t> sent16(sent.begin(), sent.begin() + 16 * 8);
      diff = error.empty() ? CheckPayload("socket", sent16, sock) : error;
    }
    if (!diff.empty()) {
      res.CheckFailed(image.config + ": " + diff);
    }
  }

  krx::BlockCacheStats bc;
  krx::SuperblockStats sb;
  uint64_t reserved = 0, frames = 0;
  for (const Image& image : images) {
    const krx::BlockCacheStats& c = image.cpus[kBlockCache]->block_cache().stats();
    bc.hits += c.hits;
    bc.misses += c.misses;
    bc.flushes += c.flushes;
    bc.decoded_insts += c.decoded_insts;
    if (image.cpus[kSuperblock] != nullptr) {
      const krx::SuperblockStats& s = image.cpus[kSuperblock]->superblock_cache().stats();
      sb.chains_built += s.chains_built;
      sb.entries += s.entries;
      sb.chain_breaks += s.chain_breaks;
      sb.executed_insts += s.executed_insts;
      sb.fastpath_insts += s.fastpath_insts;
      sb.tlb_hits += s.tlb_hits;
      sb.tlb_misses += s.tlb_misses;
    }
    reserved += image.kernel->image->phys().size();
    frames += image.kernel->image->phys().frames_allocated();
  }
  const double per_sb_pass =
      pass_ms[kSuperblock].empty() ? 0.0 : 1.0 / static_cast<double>(pass_ms[kSuperblock].size());

  // Table 1's average: simulated overhead over vanilla, rows x protected
  // configs x sample sets. A row's overhead depends on its buffer contents
  // and, for diversified configs, on the layout; so after the first set (the
  // timed passes' first pass) each further set rebuilds the diversified
  // images under fresh seeds, refills every buffer and runs one more
  // checked pass. Deterministic per seed; outside set-up and the timed loop.
  std::vector<double> overhead;
  for (int set = 0; set < kOverheadSets && !first_pass.empty(); ++set) {
    std::vector<std::vector<RowOutcome>> pass;
    if (set == 0) {
      pass = first_pass;
    } else {
      const uint64_t seed = rng.Next();
      for (Image& image : images) {
        std::string error;
        if (image.kernel->config.diversify) {
          for (auto& cpu : image.cpus) {
            cpu.reset();
          }
          image.kernel.reset();
          auto kernel =
              krx::CompileKernel(source, VerifiedBuildOptions(image.config, rng.Next() | 1));
          if (!kernel.ok()) {
            res.CheckFailed(image.config + ": rebuild failed: " + kernel.status().message());
            return res;
          }
          image.kernel = std::make_unique<krx::CompiledKernel>(std::move(*kernel));
          MakeCpu(image, kBlockCache, &error);
        }
        if (!error.empty() || !SetUpBuffers(image, seed)) {
          res.CheckFailed(image.config + ": sample set-up failed " + error);
          return res;
        }
      }
      pass = RunPass(images, rows, kBlockCache, spans);
      check_pass(pass);
    }
    for (size_t i = 1; i < images.size(); ++i) {
      for (size_t r = 0; r < rows.size(); ++r) {
        const double v = static_cast<double>(pass[0][r].deci_cycles);
        overhead.push_back(100.0 * (static_cast<double>(pass[i][r].deci_cycles) - v) / v);
      }
    }
  }

  res.Set("build_ms", Median(build_ms), "ms");
  res.Set("text_kb", text_kb, "KiB");
  res.Set("overhead_pct", Mean(overhead), "%");
  res.Set("guest_mips", Median(pass_mips), "Minst/s");
  res.Set("plugin.checks_emitted", static_cast<double>(sfi.checks_emitted), "count");
  res.Set("plugin.checks_elided", static_cast<double>(sfi.checks_coalesced), "count");
  res.Set("plugin.checks_hoisted", static_cast<double>(sfi.checks_hoisted), "count");
  res.Set("plugin.string_checks", static_cast<double>(sfi.string_checks), "count");
  res.Set("cpu.block_cache_pass_ms", Median(pass_ms[kBlockCache]), "ms");
  res.Set("cpu.superblock_pass_ms", Median(pass_ms[kSuperblock]), "ms");
  res.Set("cpu.single_step_pass_ms", Median(pass_ms[kSingleStep]), "ms");
  res.Set("cpu.guest_insts", Median(insts), "count");
  res.Set("cpu.modelled_mcycles", Median(mcycles), "Mcycles");
  res.Set("mem.itlb_lookups", Median(itlb), "count");
  res.Set("mem.dtlb_lookups", Median(dtlb), "count");
  res.Set("cpu.bc_hit_rate", bc.hit_rate(), "ratio");
  res.Set("cpu.bc_decoded_insts", static_cast<double>(bc.decoded_insts), "count");
  res.Set("cpu.bc_flushes", static_cast<double>(bc.flushes), "count");
  res.Set("cpu.sb_chains_built", static_cast<double>(sb.chains_built), "count");
  res.Set("cpu.sb_entries", static_cast<double>(sb.entries) * per_sb_pass, "count");
  res.Set("cpu.sb_chain_breaks", static_cast<double>(sb.chain_breaks) * per_sb_pass, "count");
  res.Set("cpu.sb_fastpath_share", sb.fastpath_share(), "ratio");
  res.Set("cpu.sb_tlb_hit_rate", sb.tlb_hit_rate(), "ratio");
  res.Set("mem.reserved_mb", static_cast<double>(reserved) / (1 << 20), "MB");
  res.Set("mem.frames_used_mb",
          static_cast<double>(frames << krx::kPageShift) / (1 << 20), "MB");
  std::printf("exec: %zu passes of %zu rows x %zu images in %.2f s\n", pass_mips.size(),
              rows.size(), images.size(), loop_s);
  return res;
}

}  // namespace krxbench
