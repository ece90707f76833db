// Return-address encryption (X) and decoys (D): structure, runtime
// correctness, and the security properties of §5.2.2 / §5.3.
#include <gtest/gtest.h>

#include <set>

#include "src/attack/experiments.h"
#include "src/bench_runner/bench_runner.h"
#include "src/cpu/cpu.h"
#include "src/ir/builder.h"
#include "src/plugin/pipeline.h"
#include "src/workload/corpus.h"
#include "src/workload/harness.h"

namespace krx {
namespace {

// ---- Structural checks. ----

TEST(RaEncrypt, PrologueAndEpilogueCrypt) {
  FunctionBuilder b("f");
  b.Emit(Instruction::MovRI(Reg::kRax, 1));
  b.Emit(Instruction::Ret());
  Function fn = b.Build();
  SymbolTable symbols;
  XkeyLayout xkeys;
  ASSERT_TRUE(ApplyRaEncryptPass(fn, symbols, &xkeys).ok());
  ASSERT_EQ(xkeys.symbol_offsets.size(), 1u);
  EXPECT_GE(symbols.Find("xkey$f"), 0);
  const auto& insts = fn.blocks()[0].insts;
  // mov xkey(%rip),%r11; xor %r11,(%rsp); ...; mov; xor; ret
  ASSERT_GE(insts.size(), 6u);
  EXPECT_EQ(insts[0].op, Opcode::kLoad);
  EXPECT_TRUE(insts[0].mem.rip_relative);
  EXPECT_EQ(insts[1].op, Opcode::kXorMR);
  EXPECT_TRUE(insts[1].mem.IsPlainRspAccess());
  EXPECT_EQ(insts[insts.size() - 1].op, Opcode::kRet);
  EXPECT_EQ(insts[insts.size() - 2].op, Opcode::kXorMR);
  EXPECT_EQ(insts[insts.size() - 3].op, Opcode::kLoad);
}

TEST(RaEncrypt, ReturnSitesZapped) {
  FunctionBuilder b("f");
  b.Emit(Instruction::SubRI(Reg::kRsp, 8));
  b.Emit(Instruction::CallSym(0));
  b.Emit(Instruction::AddRI(Reg::kRsp, 8));
  b.Emit(Instruction::Ret());
  Function fn = b.Build();
  SymbolTable symbols;
  XkeyLayout xkeys;
  ASSERT_TRUE(ApplyRaEncryptPass(fn, symbols, &xkeys).ok());
  bool zap_after_call = false;
  const auto& insts = fn.blocks()[0].insts;
  for (size_t i = 0; i + 1 < insts.size(); ++i) {
    if (insts[i].IsCall() && insts[i + 1].op == Opcode::kStoreImm &&
        insts[i + 1].mem.base == Reg::kRsp && insts[i + 1].mem.disp == -8) {
      zap_after_call = true;
    }
  }
  EXPECT_TRUE(zap_after_call);
}

TEST(RaDecoy, EveryCallSitePairedWithTripwire) {
  FunctionBuilder b("f");
  b.Emit(Instruction::SubRI(Reg::kRsp, 8));
  b.Emit(Instruction::CallSym(0));
  b.Emit(Instruction::CallSym(1));
  b.Emit(Instruction::AddRI(Reg::kRsp, 8));
  b.Emit(Instruction::Ret());
  Function fn = b.Build();
  Rng rng(3);
  DecoyStats stats;
  ASSERT_TRUE(ApplyRaDecoyPass(fn, rng, &stats).ok());
  EXPECT_EQ(stats.call_sites, 2u);
  EXPECT_EQ(stats.phantom_insts, 2u);
  // Each call is immediately preceded by the tripwire lea into %r11.
  for (const BasicBlock& blk : fn.blocks()) {
    for (size_t i = 0; i < blk.insts.size(); ++i) {
      if (blk.insts[i].IsCall()) {
        ASSERT_GT(i, 0u);
        EXPECT_EQ(blk.insts[i - 1].op, Opcode::kLea);
        EXPECT_EQ(blk.insts[i - 1].r1, Reg::kR11);
        EXPECT_GE(blk.insts[i - 1].mem_label, 0);
      }
    }
  }
}

TEST(RaDecoy, BothVariantsAppearAcrossSeeds) {
  DecoyStats stats;
  for (uint64_t seed = 0; seed < 16; ++seed) {
    FunctionBuilder b("f");
    b.Emit(Instruction::MovRI(Reg::kRax, 1));
    b.Emit(Instruction::Ret());
    Function fn = b.Build();
    Rng rng(seed);
    ASSERT_TRUE(ApplyRaDecoyPass(fn, rng, &stats).ok());
  }
  EXPECT_GT(stats.variant_a_functions, 0u);
  EXPECT_GT(stats.variant_b_functions, 0u);
}

// ---- Runtime properties over the full kernel. ----

struct RaKernel {
  CompiledKernel kernel;
  std::unique_ptr<Cpu> cpu;
};

RaKernel Build(RaScheme scheme, uint64_t seed) {
  KernelSource src = MakeBaseSource();
  auto kernel = CompileKernel(std::move(src), {ProtectionConfig::DiversifyOnly(scheme, seed), LayoutKind::kKrx});
  KRX_CHECK(kernel.ok());
  RaKernel rk{std::move(*kernel), nullptr};
  rk.cpu = std::make_unique<Cpu>(rk.kernel.image.get());
  return rk;
}

TEST(RaEncrypt, DeepCallChainReturnsCorrectly) {
  RaKernel rk = Build(RaScheme::kEncrypt, 21);
  RunResult r = rk.cpu->CallFunction("sys_deep_call", {0});
  EXPECT_EQ(r.reason, StopReason::kReturned);
}

TEST(RaDecoy, DeepCallChainReturnsCorrectly) {
  for (uint64_t seed : {1u, 2u, 3u, 4u}) {  // cover both prologue variants
    RaKernel rk = Build(RaScheme::kDecoy, seed);
    RunResult r = rk.cpu->CallFunction("sys_deep_call", {0});
    EXPECT_EQ(r.reason, StopReason::kReturned) << "seed " << seed;
  }
}

TEST(RaEncrypt, NoCleartextReturnAddressRemnantsOnStack) {
  RaKernel rk = Build(RaScheme::kEncrypt, 33);
  rk.cpu->CallFunction("sys_deep_call", {0});
  ExploitLab lab(&rk.kernel);
  std::vector<uint64_t> sites_vec = lab.CollectReturnSites();
  std::set<uint64_t> sites(sites_vec.begin(), sites_vec.end());
  // Scan the CPU's stack memory for cleartext return sites. Only encrypted
  // values (or the harness sentinel) may remain.
  for (uint64_t a = rk.cpu->stack_base(); a + 8 <= rk.cpu->stack_top(); a += 8) {
    auto v = rk.kernel.image->Peek64(a);
    ASSERT_TRUE(v.ok());
    EXPECT_EQ(sites.count(*v), 0u) << "cleartext return address at 0x" << std::hex << a;
  }
}

TEST(RaDecoy, StackHoldsRealAndDecoyPairs) {
  RaKernel rk = Build(RaScheme::kDecoy, 44);
  rk.cpu->CallFunction("sys_deep_call", {0});
  ExploitLab lab(&rk.kernel);
  std::vector<uint64_t> sites_vec = lab.CollectReturnSites();
  std::set<uint64_t> sites(sites_vec.begin(), sites_vec.end());
  size_t pairs = 0;
  uint64_t prev = 0;
  for (uint64_t a = rk.cpu->stack_base(); a + 8 <= rk.cpu->stack_top(); a += 8) {
    auto v = rk.kernel.image->Peek64(a);
    ASSERT_TRUE(v.ok());
    bool prev_site = sites.count(prev) > 0;
    bool prev_code = prev >= kKrxCodeBase;
    bool cur_site = sites.count(*v) > 0;
    bool cur_code = *v >= kKrxCodeBase;
    // A pair: one real return site adjacent to one non-site code pointer.
    if ((prev_site && cur_code && !cur_site) || (cur_site && prev_code && !prev_site)) {
      ++pairs;
    }
    prev = *v;
  }
  EXPECT_GE(pairs, 5u);  // a 10-deep chain leaves plenty of pairs
}

TEST(RaEncrypt, SubstitutionAttackAlgebraHolds) {
  // §5.3: two activations of f from different call sites of g are encrypted
  // with the same xkey, so c1 ^ c2 == RS1 ^ RS2 — the key cancels and
  // ciphertext substitution among same-callee return sites is possible,
  // even though neither plaintext nor key is recoverable individually.
  //
  // f observes its own (encrypted) return address through a plain (%rsp)
  // read — the §5.3 race-hazard window made explicit.
  KernelSource src = MakeBaseSource();
  {
    FunctionBuilder f("subst_f");
    f.Emit(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRsp, 0)));
    f.Emit(Instruction::Ret());
    src.functions.push_back(f.Build());
    src.symbols.Intern("subst_f");

    FunctionBuilder g("subst_g");
    g.Emit(Instruction::SubRI(Reg::kRsp, 16));
    g.Emit(Instruction::CallSym(src.symbols.Intern("subst_f")));  // rax = c1
    g.Emit(Instruction::Store(MemOperand::Base(Reg::kRsp, 8), Reg::kRax));
    g.Emit(Instruction::CallSym(src.symbols.Intern("subst_f")));  // rax = c2
    g.Emit(Instruction::Load(Reg::kRcx, MemOperand::Base(Reg::kRsp, 8)));
    g.Emit(Instruction::XorRR(Reg::kRax, Reg::kRcx));  // c1 ^ c2
    g.Emit(Instruction::AddRI(Reg::kRsp, 16));
    g.Emit(Instruction::Ret());
    src.functions.push_back(g.Build());
    src.symbols.Intern("subst_g");
  }
  auto kernel = CompileKernel(std::move(src), {ProtectionConfig::DiversifyOnly(RaScheme::kEncrypt, 55), LayoutKind::kKrx});
  ASSERT_TRUE(kernel.ok());
  Cpu cpu(kernel->image.get());
  RunResult r = cpu.CallFunction("subst_g", {});
  ASSERT_EQ(r.reason, StopReason::kReturned);
  const uint64_t c1_xor_c2 = r.rax;

  // Ground truth: the two return sites inside g.
  ExploitLab lab(&*kernel);
  int32_t g_sym = kernel->image->symbols().Find("subst_g");
  ASSERT_GE(g_sym, 0);
  const Symbol& g = kernel->image->symbols().at(g_sym);
  std::vector<uint64_t> g_sites;
  for (uint64_t site : lab.CollectReturnSites()) {
    if (site > g.address && site <= g.address + g.size) {
      g_sites.push_back(site);
    }
  }
  ASSERT_EQ(g_sites.size(), 2u);
  // The xkey cancels: c1 ^ c2 equals RS1 ^ RS2.
  EXPECT_EQ(c1_xor_c2, g_sites[0] ^ g_sites[1]);
  // And the ciphertexts themselves are not plaintext return sites.
  EXPECT_NE(c1_xor_c2, 0u);
}

TEST(RaEncrypt, RaceWindowIsOneToThreeInstructions) {
  // §5.3: the encryption scheme leaves the pushed return address in
  // cleartext only between the callq and the callee's xor (and briefly at
  // decryption) — "1-3 kR^X instructions". Probe the stack after every
  // retired instruction and measure the longest exposure streak.
  RaKernel rk = Build(RaScheme::kEncrypt, 77);
  ExploitLab lab(&rk.kernel);
  std::vector<uint64_t> sites_vec = lab.CollectReturnSites();
  std::set<uint64_t> sites(sites_vec.begin(), sites_vec.end());

  uint64_t streak = 0, longest = 0, exposed = 0, total = 0;
  rk.cpu->set_step_observer([&](const Cpu& c) {
    ++total;
    bool hit = false;
    uint64_t rsp = c.reg(Reg::kRsp);
    for (uint64_t a = rsp; a + 8 <= c.stack_top() && a < rsp + 512; a += 8) {
      auto v = rk.kernel.image->Peek64(a);
      if (v.ok() && sites.count(*v) > 0) {
        hit = true;
        break;
      }
    }
    if (hit) {
      ++exposed;
      streak = streak + 1;
      longest = std::max(longest, streak);
    } else {
      streak = 0;
    }
  });
  RunResult r = rk.cpu->CallFunction("sys_deep_call", {0});
  ASSERT_EQ(r.reason, StopReason::kReturned);
  EXPECT_GT(total, 100u);
  EXPECT_LE(longest, 3u);                 // the paper's window
  EXPECT_LT(exposed, total / 2);          // most of the run is protected
}

TEST(RaSchemes, WholeFunctionReuseStillWorks) {
  // §7.3: RA protection does not prevent whole-function reuse — calling
  // commit_creds by its entry point works under both schemes (the defense
  // restricts attackers to data-only/arity attacks on function pointers).
  for (RaScheme scheme : {RaScheme::kEncrypt, RaScheme::kDecoy}) {
    RaKernel rk = Build(scheme, 66);
    ExploitLab lab(&rk.kernel);
    auto commit = rk.kernel.image->symbols().AddressOf(kCommitCredsName);
    ASSERT_TRUE(commit.ok());
    lab.ResetCreds();
    std::vector<uint64_t> chain = {*commit, Cpu::kReturnSentinel};
    lab.cpu().set_reg(Reg::kRdi, kRootCred);
    lab.RunRopChain(chain);
    EXPECT_TRUE(lab.IsRoot());
  }
}

TEST(RaDecoy, TailCallSupport) {
  KernelSource src = MakeBaseSource();
  OpProfile p;
  p.name = "tailcall_op";
  p.loop_iters = 1;
  p.coalescible_reads = 2;
  p.calls = 1;
  p.leaf_depth = 2;
  p.tail_call_leaf = true;
  EmitKernelOp(&src, p);
  for (RaScheme scheme : {RaScheme::kDecoy, RaScheme::kEncrypt}) {
    for (uint64_t seed : {1u, 2u, 3u}) {
      auto kernel = CompileKernel(src, {ProtectionConfig::DiversifyOnly(scheme, seed), LayoutKind::kKrx});
      ASSERT_TRUE(kernel.ok());
      Cpu cpu(kernel->image.get());
      auto buf = SetUpOpBuffer(*kernel->image, 1);
      ASSERT_TRUE(buf.ok());
      RunResult r = cpu.CallFunction("sys_tailcall_op", {*buf});
      EXPECT_EQ(r.reason, StopReason::kReturned)
          << "scheme " << static_cast<int>(scheme) << " seed " << seed;
    }
  }
}

// ---- Decoy placement never splits an SFI range check. ----

// A phantom `mov $imm,%r11` placed between a range check's cmp and its ja
// left a string read the verifier could not tie to its check; this seed did
// that in sys_fork_execve. It must now verify on the first attempt.
TEST(RaDecoy, SfiPlusDecoysVerifiesOnFirstAttempt) {
  constexpr uint64_t kSeed = 0x52462fa81af587b1ULL;
  BuildOptions options;
  ASSERT_TRUE(ParseConfigName("sfi+d", kSeed, &options.config, &options.layout));
  options.seed = kSeed;
  options.verify = BuildOptions::Verify::kOn;
  options.max_verify_retries = 0;
  auto kernel = CompileKernel(MakeBenchSourceFactory(0xB0F)(), options);
  ASSERT_TRUE(kernel.ok()) << kernel.status().ToString();
  EXPECT_EQ(kernel->stats.verify_retries, 0u);
}

TEST(RaDecoy, NoPhantomFollowsARangeCheck) {
  const KernelSource source = MakeBenchSourceFactory(0xB0F)();
  uint64_t phantoms = 0;
  for (uint64_t seed = 1; seed <= 200; ++seed) {
    ProtectionConfig config;
    LayoutKind layout;
    ASSERT_TRUE(ParseConfigName("sfi+d", seed, &config, &layout));
    KernelSource copy = source;
    XkeyLayout xkeys;
    PipelineStats stats;
    Rng rng(config.seed);
    ASSERT_TRUE(ApplyProtection(copy.functions, copy.symbols, config,
                                ComputeEdata(kDefaultPhantomGuardSize), &xkeys, &stats, rng)
                    .ok());
    for (const Function& fn : copy.functions) {
      for (const BasicBlock& b : fn.blocks()) {
        for (size_t i = 1; i < b.insts.size(); ++i) {
          if (b.insts[i].origin != InstOrigin::kPhantomInst) {
            continue;
          }
          ++phantoms;
          EXPECT_FALSE(b.insts[i - 1].IsRangeCheck())
              << "seed " << seed << ": phantom after a range check in " << fn.name();
        }
      }
    }
  }
  EXPECT_GT(phantoms, 0u);
}

}  // namespace
}  // namespace krx
