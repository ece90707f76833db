// `fleet`: CoW tenants serving requests, with inline live re-randomization.
//
// Set-up admits one tenant per (config, workload family) through
// TenantFleet::Admit, over two diversified configs (sfi+x, x) and three
// families (the read/write LMBench op, the VFS walk, the IPC round):
// six tenants in two pristine groups, one 64 MiB image each. Then one
// client thread sends Serve requests round-robin in a closed loop; after
// every kRequestsPerEpoch requests it runs RerandEngine::RunEpoch on the
// next tenant in turn. A round is those requests plus the epoch, and the
// run attempts whole rounds.
//
// Single client thread: Serve can drive one Cpu from two threads at once,
// so a concurrent client mix waits until that race is mended. Inline
// epochs on a fixed request schedule: a timer-driven epoch lands at a
// different point of the loop on every run.
//
// Each epoch rewrites the tenant's text and flushes its block cache, so
// the requests after it decode again; this loads the engines differently
// from `exec`.
#include <cstdio>
#include <memory>
#include <set>

#include "krxbench/bench.h"
#include "krxbench/checks.h"
#include "src/base/rng.h"
#include "src/bench_runner/bench_runner.h"
#include "src/fleet/fleet.h"
#include "src/fleet/kernel_cache.h"
#include "src/mem/phys_mem.h"
#include "src/rerand/engine.h"
#include "src/verify/verifier.h"
#include "src/workload/harness.h"

namespace krxbench {
namespace {

// Requests between two epochs. The target is the longest timer period of
// bench/rerand_epoch: each tenant re-randomized about every 100 ms of the
// loop. With 6 tenants taking epochs in turn, a tenant's period is
// 6 x (K x request + epoch); at the medians this mix measured with K = 216
// (a 41 us request, a 3.2 ms epoch), K = (100 / 6 - 3.2) ms / 41 us = 328,
// rounded to 330, a multiple of the tenant count, so that every tenant gets
// the same requests per round. README.md gives the resulting loop split.
constexpr int kRequestsPerEpoch = 330;
// The LMBench family's op. Fixed rather than drawn from --seed: ops differ
// several-fold in protection overhead, so a drawn op would make
// overhead_pct a property of the seed.
constexpr const char* kLmbenchOp = "sys_read_write";

// Buffer seeds overhead_pct averages over per tenant: the tenant's own (its
// served requests) and kOverheadSeeds - 1 more drawn from --seed. A
// request's simulated cost depends on its buffer contents, not on the
// layout, so one seed per tenant would leave overhead_pct as wide as the
// spread between seeds.
constexpr int kOverheadSeeds = 8;

// A private control for `tenant`: built from the tenant's config without
// diversification (or from vanilla, for `vanilla`) and run once per buffer
// seed in `seeds`, the first being the tenant's. Its rax folds are what the
// tenant must return on the same buffers.
std::vector<RowOutcome> RunControl(const krx::TenantFleet::Tenant& tenant, bool vanilla,
                                   const krx::KernelSource& source,
                                   const std::vector<uint64_t>& seeds,
                                   std::vector<double>* build_ms, std::string* error) {
  const std::string config = vanilla ? "vanilla" : tenant.spec.config_name;
  krx::BuildOptions options = VerifiedBuildOptions(config, tenant.effective_seed);
  options.config.diversify = false;
  const auto t0 = Clock::now();
  auto kernel = krx::CompileKernel(source, options);
  build_ms->push_back(MsSince(t0));
  if (!kernel.ok()) {
    *error = config + " control build failed: " + kernel.status().message();
    return {};
  }
  krx::CpuOptions copts;
  copts.mpx_enabled = kernel->config.mpx;
  krx::Cpu cpu(kernel->image.get(), krx::CostModel(), copts);
  std::vector<RowOutcome> out;
  for (uint64_t seed : seeds) {
    auto buffers = krx::SetUpWorkloadBuffers(*kernel->image, tenant.spec.workload, seed);
    if (!cpu.init_error().empty() || !buffers.ok()) {
      *error = config + " control set-up failed";
      return {};
    }
    out.push_back(RunRow(cpu, tenant.spec, *buffers, krx::RunOptions{}));
    if (!out.back().error.empty()) {
      *error = config + " control: " + out.back().error;
    }
  }
  return out;
}

// One request of `tenant` on its own worker Cpu, but on fresh buffers
// filled from `seed` (outside Serve, which always uses the tenant's own).
RowOutcome RunOnTenant(const krx::TenantFleet::Tenant& tenant, uint64_t seed) {
  auto buffers = krx::SetUpWorkloadBuffers(*tenant.kernel->image, tenant.spec.workload, seed);
  if (!buffers.ok()) {
    RowOutcome out;
    out.error = "buffer set-up failed";
    return out;
  }
  return RunRow(*tenant.workers[0].cpu, tenant.spec, *buffers, krx::RunOptions{});
}

}  // namespace

WorkloadResult RunFleetWorkload(const RunConfig& config, SpanRecorder& spans) {
  WorkloadResult res;
  krx::Rng rng(config.seed ^ 0xF1EE7ULL);
  const std::vector<std::string> configs = {"sfi+x", "x"};
  const std::vector<krx::WorkloadKind> families = {
      krx::WorkloadKind::kLmbench, krx::WorkloadKind::kVfs, krx::WorkloadKind::kIpc};

  krx::KernelCache cache(krx::MakeBenchSourceFactory(kCorpusSeed));
  krx::FleetOptions fopts;
  fopts.base_seed = kCorpusSeed;
  fopts.workers_per_tenant = 1;
  krx::TenantFleet fleet(&cache, fopts);

  std::vector<double> build_ms, base_build_ms, admit_ms, materialize_ms, admit_unaccounted_ms;
  std::vector<double> physmem_ms;
  std::vector<std::shared_ptr<krx::CompiledKernel>> bases;
  std::vector<const krx::TenantFleet::Tenant*> tenants;
  std::vector<std::unique_ptr<krx::RerandEngine>> engines;
  {
    ScopedSpan setup(spans, "setup");
    // One pristine base build per config, through the fleet's cache, so that
    // every admission below times the same work.
    for (const std::string& name : configs) {
      krx::TenantSpec base_spec;
      base_spec.config_name = name;
      auto options = base_spec.ResolveBuildOptions(fopts.base_seed);
      const auto t0 = Clock::now();
      ScopedSpan s(spans, "fleet.base_build");
      auto base = cache.Acquire(*options, krx::Sharing::kShared);
      s.Close();
      base_build_ms.push_back(MsSince(t0));
      if (!base.ok()) {
        res.CheckFailed(name + ": base build failed: " + base.status().message());
        return res;
      }
      bases.push_back(*base);
    }
    build_ms = base_build_ms;
    for (krx::WorkloadKind family : families) {
      for (size_t c = 0; c < configs.size(); ++c) {
        krx::TenantSpec spec;
        spec.tenant_id = static_cast<int>(tenants.size());
        spec.config_name = configs[c];
        spec.seed = rng.Next() | 1;
        spec.workload = family;
        if (family == krx::WorkloadKind::kLmbench) {
          spec.op_symbol = kLmbenchOp;
        }
        const auto t0 = Clock::now();
        ScopedSpan admit(spans, "fleet.admit");
        auto tenant = fleet.Admit(spec);
        admit.Close();
        admit_ms.push_back(MsSince(t0));
        if (!tenant.ok()) {
          res.CheckFailed("admission failed: " + tenant.status().message());
          return res;
        }
        tenants.push_back(*tenant);
        if (spans.enabled()) {
          // The CoW re-link an admission makes, called apart.
          auto options = spec.ResolveBuildOptions(fopts.base_seed);
          const auto tm = Clock::now();
          ScopedSpan s(spans, "fleet.materialize");
          auto materialized = krx::MaterializeTenant(*bases[c], *options, fopts.phys_bytes);
          s.Close();
          materialize_ms.push_back(MsSince(tm));
          admit_unaccounted_ms.push_back(admit_ms.back() - materialize_ms.back());
          // The image's physical memory alone, which the re-link allocates.
          const auto tp = Clock::now();
          ScopedSpan p(spans, "mem.physmem");
          krx::PhysMem phys(bases[c]->image->phys().size());
          p.Close();
          physmem_ms.push_back(MsSince(tp));
          if (!materialized.ok()) {
            res.CheckFailed("MaterializeTenant probe failed: " +
                            materialized.status().message());
          }
        }
        krx::RerandOptions ropts;
        ropts.seed = rng.Next();
        ropts.verify_after = true;
        auto engine = std::make_unique<krx::RerandEngine>((*tenant)->kernel.get(), ropts);
        engine->RegisterCpu((*tenant)->workers[0].cpu.get());
        engines.push_back(std::move(engine));
      }
    }
  }
  const int n = static_cast<int>(tenants.size());

  std::vector<double> request_us, stw_ms, quiesce_ms, epoch_verify_ms, epoch_unaccounted_ms;
  std::vector<double> moved, keys, stack_words, ptr_sites;
  std::vector<uint64_t> first_fold(tenants.size(), 0);
  std::vector<uint64_t> first_cycles(tenants.size(), 0);
  std::vector<bool> seen(tenants.size(), false);
  uint64_t served_insts = 0;
  double serve_ms = 0;
  double epoch_host_ms = 0;

  res.Set("setup_s", MsSince(kProcessStart) / 1000.0, "s");
  const auto t_start = Clock::now();
  ScopedSpan run(spans, "run");
  for (int round = 0; round < n || MsSince(t_start) < config.seconds * 1000.0; ++round) {
    for (int q = 0; q < kRequestsPerEpoch; ++q) {
      const int t = q % n;
      const auto t0 = Clock::now();
      ScopedSpan serve(spans, "fleet.serve");
      auto counters = fleet.Serve(t, 0);
      serve.Close();
      const double ms = MsSince(t0);
      ++res.attempted;
      if (!counters.ok()) {
        ++res.failed;
        continue;
      }
      request_us.push_back(ms * 1000.0);
      serve_ms += ms;
      served_insts += counters->instructions;
      if (!seen[t]) {
        seen[t] = true;
        first_fold[t] = counters->rax_checksum;
        first_cycles[t] = counters->deci_cycles;
      } else if (counters->rax_checksum != first_fold[t]) {
        res.CheckFailed("tenant " + std::to_string(t) + ": a request's rax fold changed");
      }
    }
    // The epoch, on the next tenant in turn.
    const int t = round % n;
    ++res.attempted;
    const auto te = Clock::now();
    ScopedSpan epoch(spans, "rerand.epoch");
    auto report = engines[static_cast<size_t>(t)]->RunEpoch(krx::RerandTrigger::kManual);
    epoch.Close();
    epoch_host_ms += MsSince(te);
    if (!report.ok()) {
      ++res.failed;
      continue;
    }
    if (report->functions_moved == 0) {
      res.CheckFailed("tenant " + std::to_string(t) + ": an epoch moved no function");
    }
    if (!report->verified) {
      res.CheckFailed("tenant " + std::to_string(t) + ": an epoch was not verified");
    }
    stw_ms.push_back(report->stw_ms);
    quiesce_ms.push_back(report->quiesce_wait_ms);
    moved.push_back(static_cast<double>(report->functions_moved));
    keys.push_back(static_cast<double>(report->keys_rotated));
    stack_words.push_back(static_cast<double>(report->stack_words_rewritten));
    ptr_sites.push_back(static_cast<double>(report->ptr_sites_patched));
    if (spans.enabled()) {
      const krx::TenantFleet::Tenant& tenant = *tenants[static_cast<size_t>(t)];
      const auto tv = Clock::now();
      ScopedSpan s(spans, "verify.image");
      const krx::VerifyReport vr = krx::VerifyImage(
          *tenant.kernel->image, krx::VerifyOptions::ForConfig(tenant.kernel->config));
      s.Close();
      epoch_verify_ms.push_back(MsSince(tv));
      epoch_unaccounted_ms.push_back(report->stw_ms - report->quiesce_wait_ms -
                                     epoch_verify_ms.back());
      if (!vr.ok()) {
        res.CheckFailed("tenant " + std::to_string(t) + ": post-epoch image fails VerifyImage");
      }
    }
  }
  run.Close();
  const double loop_s = MsSince(t_start) / 1000.0;

  // The fleet's own accounting, against what the benchmark admitted.
  const krx::TenantFleet::MemoryReport mem = fleet.MemoryUsage();
  std::set<std::string> distinct_configs;
  for (const krx::TenantFleet::Tenant* tenant : tenants) {
    distinct_configs.insert(tenant->spec.config_name);
  }
  if (mem.pristine_groups != static_cast<int>(distinct_configs.size())) {
    res.CheckFailed("fleet formed " + std::to_string(mem.pristine_groups) +
                    " pristine groups for " + std::to_string(distinct_configs.size()) +
                    " configs");
  }
  const krx::KernelCache::Stats cache_stats = cache.stats();

  // Controls, after the timed loop: every request must have returned the
  // fold of an undiversified and of a vanilla control on the same buffers,
  // before and after epochs. overhead_pct is the tenant's simulated cost
  // over vanilla's, on its own buffers and on kOverheadSeeds - 1 more.
  std::vector<double> overhead;
  {
    const krx::KernelSource source = krx::MakeBenchSourceFactory(kCorpusSeed)();
    for (size_t t = 0; t < tenants.size(); ++t) {
      const krx::TenantFleet::Tenant& tenant = *tenants[t];
      std::vector<uint64_t> seeds = {tenant.effective_seed};
      while (seeds.size() < static_cast<size_t>(kOverheadSeeds)) {
        seeds.push_back(rng.Next());
      }
      std::string error;
      const std::vector<RowOutcome> control =
          RunControl(tenant, false, source, seeds, &build_ms, &error);
      const std::vector<RowOutcome> vanilla =
          RunControl(tenant, true, source, seeds, &build_ms, &error);
      std::vector<RowOutcome> own;
      for (size_t k = 1; k < seeds.size() && error.empty(); ++k) {
        own.push_back(RunOnTenant(tenant, seeds[k]));
        error = own.back().error;
      }
      const std::string who = "tenant " + std::to_string(t) + " (" + tenant.spec.config_name +
                              "/" + krx::WorkloadKindName(tenant.spec.workload) + ")";
      if (!error.empty()) {
        res.CheckFailed(who + ": " + error);
        continue;
      }
      if (!seen[t]) {
        res.CheckFailed(who + ": served no request");
        continue;
      }
      for (size_t k = 0; k < seeds.size(); ++k) {
        const uint64_t fold = k == 0 ? first_fold[t] : own[k - 1].rax_fold;
        const double cycles = static_cast<double>(k == 0 ? first_cycles[t]
                                                         : own[k - 1].deci_cycles);
        if (control[k].rax_fold != fold || vanilla[k].rax_fold != fold) {
          res.CheckFailed(who + ": request fold differs from the private control's");
          break;
        }
        const double v = static_cast<double>(vanilla[k].deci_cycles);
        overhead.push_back(100.0 * (cycles - v) / v);
      }
    }
  }

  krx::BlockCacheStats bc;
  uint64_t reserved = 0, frames = 0;
  double text_kb = 0;
  for (const krx::TenantFleet::Tenant* tenant : tenants) {
    const krx::BlockCacheStats& c = tenant->workers[0].cpu->block_cache().stats();
    bc.hits += c.hits;
    bc.misses += c.misses;
    bc.flushes += c.flushes;
    bc.decoded_insts += c.decoded_insts;
    reserved += tenant->kernel->image->phys().size();
    frames += tenant->kernel->image->phys().frames_allocated();
    text_kb += static_cast<double>(TextBytes(*tenant->kernel->image)) / 1024.0 / n;
  }
  for (const auto& base : bases) {
    reserved += base->image->phys().size();
    frames += base->image->phys().frames_allocated();
  }

  res.Set("build_ms", Median(build_ms), "ms");
  res.Set("text_kb", text_kb, "KiB");
  res.Set("overhead_pct", Mean(overhead), "%");
  res.Set("guest_mips", serve_ms > 0 ? static_cast<double>(served_insts) / serve_ms / 1000.0 : 0,
          "Minst/s");
  res.Set("admit_ms", Median(admit_ms), "ms");
  res.Set("epoch_ms", Median(stw_ms), "ms");
  res.Set("request_us_p50", Percentile(request_us, 50), "us");
  res.Set("request_us_p99", Percentile(request_us, 99), "us");
  res.Set("fleet.base_build_ms", Median(base_build_ms), "ms");
  res.Set("fleet.cache_compiles", static_cast<double>(cache_stats.shared_mode.compiles), "count");
  res.Set("fleet.cache_hits", static_cast<double>(cache_stats.shared_mode.hits), "count");
  res.Set("fleet.materialize_ms", Median(materialize_ms), "ms");
  res.Set("fleet.admit_unaccounted_ms", Median(admit_unaccounted_ms), "ms");
  res.Set("mem.physmem_ms", Median(physmem_ms), "ms");
  res.Set("fleet.modelled_mb", static_cast<double>(mem.cow_total_bytes) / (1 << 20), "MB");
  res.Set("rerand.quiesce_wait_ms", Median(quiesce_ms), "ms");
  res.Set("rerand.verify_ms", Median(epoch_verify_ms), "ms");
  res.Set("rerand.unaccounted_ms", Median(epoch_unaccounted_ms), "ms");
  res.Set("rerand.functions_moved", Median(moved), "count");
  res.Set("rerand.keys_rotated", Median(keys), "count");
  res.Set("rerand.stack_words_rewritten", Median(stack_words), "count");
  res.Set("rerand.ptr_sites_patched", Median(ptr_sites), "count");
  res.Set("cpu.bc_hit_rate", bc.hit_rate(), "ratio");
  res.Set("cpu.bc_decoded_insts", static_cast<double>(bc.decoded_insts), "count");
  res.Set("cpu.bc_flushes", static_cast<double>(bc.flushes), "count");
  res.Set("mem.reserved_mb", static_cast<double>(reserved) / (1 << 20), "MB");
  res.Set("mem.frames_used_mb", static_cast<double>(frames << krx::kPageShift) / (1 << 20),
          "MB");
  std::printf("fleet: %d tenants, %zu requests (Serve %.2f s) and %zu epochs (RunEpoch %.2f s)"
              " in %.2f s\n",
              n, request_us.size(), serve_ms / 1000.0, stw_ms.size(), epoch_host_ms / 1000.0,
              loop_s);
  return res;
}

}  // namespace krxbench
