// Sparse guest physical memory: lazily zeroed frames, frame refunds, the
// physmap as one direct-map rule, and resident-only checkpoints.
//
//   - Frames read zero whether untouched or recycled, and the free list
//     stays consistent under concurrent AllocFrames/FreeFrames.
//   - Cpu stacks and unloaded module sections return their frames, so
//     constructing Cpus or cycling modules forever never exhausts an image.
//   - The physmap costs one rule, not one entry per frame, yet code
//     synonyms still miss, in-place flag flips stick, and W^X audits see
//     the rule's pages.
//   - A checkpoint holds only resident frames and still restores the whole
//     physical space bit for bit.
#include <algorithm>
#include <cstdio>
#include <optional>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/cpu/cpu.h"
#include "src/ir/builder.h"
#include "src/kernel/module_loader.h"
#include "src/plugin/pipeline.h"
#include "src/supervise/checkpoint.h"
#include "src/workload/corpus.h"
#include "src/workload/harness.h"

namespace krx {
namespace {

CompiledKernel Build(const std::string& config_name, uint64_t seed = 0xB0F) {
  ProtectionConfig config;
  LayoutKind layout;
  KRX_CHECK(ParseConfigName(config_name, seed, &config, &layout));
  auto kernel = CompileKernel(MakeBenchSource(0xB0F), {config, layout});
  KRX_CHECK(kernel.ok());
  return std::move(*kernel);
}

bool FrameIsZero(const PhysMem& phys, uint64_t frame) {
  for (uint64_t off = 0; off < kPageSize; off += 8) {
    if (phys.Read64((frame << kPageShift) + off) != 0) {
      return false;
    }
  }
  return true;
}

// FNV-1a over every 8-byte word of the physical space.
uint64_t HashPhys(const PhysMem& phys) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint64_t p = 0; p < phys.size(); p += 8) {
    h = (h ^ phys.Read64(p)) * 0x100000001B3ULL;
  }
  return h;
}

// ---- PhysMem. ----

TEST(PhysMem, UntouchedAndRecycledFramesReadZero) {
  PhysMem phys(64 * kPageSize);
  EXPECT_EQ(phys.ResidentBytes(), 0u);
  for (uint64_t f = 0; f < phys.num_frames(); ++f) {
    ASSERT_TRUE(FrameIsZero(phys, f)) << "untouched frame " << f;
  }

  auto a = phys.AllocFrames(4);
  ASSERT_TRUE(a.ok());
  phys.Fill(*a << kPageShift, 0xCC, 4 * kPageSize);
  auto b = phys.AllocFrames(2);
  ASSERT_TRUE(b.ok());
  phys.Fill(*b << kPageShift, 0xDD, 2 * kPageSize);
  EXPECT_GE(phys.ResidentBytes(), 6 * kPageSize);
  phys.FreeFrames(*a, 4);
  // Freed bytes stay visible until the frames are handed out again.
  EXPECT_EQ(phys.Read8(*a << kPageShift), 0xCC);

  auto again = phys.AllocFrames(3);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *a);  // first fit reuses the freed extent
  for (uint64_t f = *again; f < *again + 3; ++f) {
    EXPECT_TRUE(FrameIsZero(phys, f)) << "recycled frame " << f;
  }
  EXPECT_EQ(phys.frames_allocated(), 5u);
}

TEST(PhysMem, FreeListCoalescesBackToOneExtent) {
  PhysMem phys(16 * kPageSize);
  std::vector<uint64_t> firsts;
  for (int i = 0; i < 8; ++i) {
    auto f = phys.AllocFrames(2);
    ASSERT_TRUE(f.ok());
    firsts.push_back(*f);
  }
  EXPECT_FALSE(phys.AllocFrames(1).ok());
  // Free out of order: every other extent, then the rest.
  for (size_t i = 0; i < firsts.size(); i += 2) {
    phys.FreeFrames(firsts[i], 2);
  }
  EXPECT_FALSE(phys.AllocFrames(3).ok()) << "no 3-frame hole exists yet";
  for (size_t i = 1; i < firsts.size(); i += 2) {
    phys.FreeFrames(firsts[i], 2);
  }
  EXPECT_EQ(phys.frames_allocated(), 0u);
  auto all = phys.AllocFrames(16);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(*all, 0u);
}

TEST(PhysMem, GuestWritesAboveTheHighWaterMarkDoNotLeakIntoAllocations) {
  PhysMem phys(8 * kPageSize);
  phys.Write64(5 << kPageShift, 0x1234);  // e.g. a store through the physmap
  auto f = phys.AllocFrames(8);
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(FrameIsZero(phys, 5));
}

TEST(PhysMem, ConcurrentAllocFreeStaysConsistent) {
  PhysMem phys(256 * kPageSize);
  constexpr int kThreads = 4;
  constexpr int kIters = 2000;
  std::vector<int> errors(kThreads, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&phys, &errors, t] {
      Rng rng(0x5EED + static_cast<uint64_t>(t));
      std::vector<std::pair<uint64_t, uint64_t>> held;  // (first, count)
      const uint8_t tag = static_cast<uint8_t>(0xA0 + t);
      for (int i = 0; i < kIters; ++i) {
        if (held.size() < 4 && rng.NextBool(0.6)) {
          const uint64_t count = 1 + rng.Next() % 8;
          auto first = phys.AllocFrames(count);
          if (!first.ok()) {
            ++errors[t];
            continue;
          }
          for (uint64_t f = *first; f < *first + count; ++f) {
            if (phys.Read64(f << kPageShift) != 0) {
              ++errors[t];  // handed out dirty
            }
            phys.Fill(f << kPageShift, tag, kPageSize);
          }
          held.emplace_back(*first, count);
        } else if (!held.empty()) {
          const auto [first, count] = held.back();
          held.pop_back();
          for (uint64_t f = first; f < first + count; ++f) {
            if (phys.Read8((f << kPageShift) + kPageSize - 1) != tag) {
              ++errors[t];  // another thread was handed our frame
            }
          }
          phys.FreeFrames(first, count);
        }
      }
      for (const auto& [first, count] : held) {
        phys.FreeFrames(first, count);
      }
    });
  }
  for (std::thread& th : threads) {
    th.join();
  }
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[t], 0) << "thread " << t;
  }
  EXPECT_EQ(phys.frames_allocated(), 0u);
  EXPECT_TRUE(phys.AllocFrames(phys.num_frames()).ok()) << "free list did not coalesce";
}

// ---- Frame refunds. ----

TEST(FrameReclamation, ThousandsOfCpusOnOneImageAllGetAStack) {
  CompiledKernel kernel = Build("sfi-o4");
  KernelImage& image = *kernel.image;
  const uint64_t start = image.phys().frames_allocated();
  // More Cpus than the image has frames for stacks (16384 frames / 4):
  // without refunds the 4094th would fail.
  constexpr int kCpus = 5000;
  uint64_t first_stack = 0;
  for (int i = 0; i < kCpus; ++i) {
    Cpu cpu(&image);
    ASSERT_TRUE(cpu.init_error().empty()) << "cpu " << i << ": " << cpu.init_error();
    if (i == 0) {
      first_stack = cpu.stack_base();
    }
    ASSERT_EQ(cpu.stack_base(), first_stack) << "cpu " << i << " did not reuse the stack";
  }
  EXPECT_EQ(image.phys().frames_allocated(), start);

  // The recycled stack still works.
  Cpu cpu(&image);
  auto buf = SetUpOpBuffer(image, 1);
  ASSERT_TRUE(buf.ok());
  RunResult r = cpu.CallFunction("sys_read_write", {*buf});
  EXPECT_EQ(r.reason, StopReason::kReturned);
}

Result<ModuleObject> MakeModule(CompiledKernel& kernel) {
  SymbolTable& symbols = kernel.image->symbols();
  FunctionBuilder b("cycle_fn");
  b.Emit(Instruction::MovRI(Reg::kRax, 42));
  b.Emit(Instruction::Ret());
  std::vector<Function> fns;
  fns.push_back(b.Build());
  symbols.Intern("cycle_fn");
  DataObject state;
  state.name = "cycle_state";
  state.kind = SectionKind::kData;
  state.bytes.assign(64, 0x5a);
  std::vector<DataObject> data;
  data.push_back(std::move(state));
  return CompileModule("cycle", std::move(fns), std::move(data), symbols, kernel.config);
}

TEST(FrameReclamation, ModuleLoadUnloadCyclesLeaveFramesUnchanged) {
  CompiledKernel kernel = Build("sfi+x");
  KernelImage& image = *kernel.image;
  auto mod = MakeModule(kernel);
  ASSERT_TRUE(mod.ok()) << mod.status().ToString();
  ModuleLoader loader(&image);
  Cpu cpu(&image);
  const uint64_t start = image.phys().frames_allocated();
  const size_t pages_start = image.page_table().MappedPageCount();

  for (int i = 0; i < 1000; ++i) {
    auto handle = loader.Load(*mod);
    ASSERT_TRUE(handle.ok()) << "cycle " << i << ": " << handle.status().ToString();
    if (i % 250 == 0) {
      RunResult r = cpu.CallFunction("cycle_fn", {});
      ASSERT_EQ(r.reason, StopReason::kReturned) << "cycle " << i;
      EXPECT_EQ(r.rax, 42u);
    }
    ASSERT_TRUE(loader.Unload(*handle).ok()) << "cycle " << i;
  }
  EXPECT_EQ(image.phys().frames_allocated(), start);
  EXPECT_EQ(image.page_table().MappedPageCount(), pages_start);

  // A refunded text frame comes back as a data page at its physmap address:
  // its synonym is mapped again, writable, and the page reads zero.
  auto handle = loader.Load(*mod);
  ASSERT_TRUE(handle.ok());
  const LoadedModule lm = loader.module(*handle);
  const uint64_t synonym = image.PhysmapVaddr(lm.text_first_frame);
  EXPECT_FALSE(image.page_table().Lookup(synonym).has_value()) << "code synonym still mapped";
  ASSERT_TRUE(loader.Unload(*handle).ok());
  EXPECT_TRUE(image.page_table().Lookup(synonym).has_value()) << "synonym not restored";

  auto page = image.AllocDataPages(lm.text_pages);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(*page, synonym);
  auto v = image.mmu().Read64(*page);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v, 0u);
  EXPECT_TRUE(image.mmu().Write64(*page, 0xDA7A).ok());
  EXPECT_EQ(*image.Peek64(*page), 0xDA7Au);
  EXPECT_FALSE(image.VaddrAliasesCode(*page)) << "a data page still counts as code";
}

// ---- The physmap as a direct-map rule. ----

TEST(PhysmapRule, FreshImageHasNoEntryPerFrame) {
  CompiledKernel kernel = Build("sfi-o4");
  const KernelImage& image = *kernel.image;
  const PageTable& pt = image.page_table();
  uint64_t section_pages = 0;
  for (const PlacedSection& s : image.sections()) {
    section_pages += s.mapped_size >> kPageShift;
  }
  EXPECT_EQ(pt.MappedPageCount(), section_pages);
  EXPECT_LT(pt.MappedPageCount(), kernel.image->phys().num_frames());
}

TEST(PhysmapRule, CodeSynonymsMissAndDataSynonymsHit) {
  for (const char* config : {"sfi-o4", "vanilla"}) {
    CompiledKernel kernel = Build(config);
    const KernelImage& image = *kernel.image;
    const bool krx = image.layout() == LayoutKind::kKrx;
    for (const PlacedSection& s : image.sections()) {
      const std::optional<Pte> pte = image.page_table().Lookup(image.PhysmapVaddr(s.first_frame));
      if (krx && SectionKindIsCodeRegion(s.kind)) {
        EXPECT_FALSE(pte.has_value()) << config << " " << s.name;
      } else {
        ASSERT_TRUE(pte.has_value()) << config << " " << s.name;
        EXPECT_EQ(pte->frame, s.first_frame);
        EXPECT_TRUE(pte->flags.writable);
        EXPECT_TRUE(pte->flags.nx);
      }
    }
    EXPECT_TRUE(image.page_table().FindWxViolations().empty()) << config;
  }
}

TEST(PhysmapRule, LookupMutableFlipSticksAndBumpsGeneration) {
  CompiledKernel kernel = Build("sfi-o4");
  KernelImage& image = *kernel.image;
  PageTable& pt = image.page_table();
  auto buf = image.AllocDataPages(1);
  ASSERT_TRUE(buf.ok());
  const size_t mapped = pt.MappedPageCount();

  const uint64_t gen = pt.generation();
  Pte* pte = pt.LookupMutable(*buf);
  ASSERT_NE(pte, nullptr);
  pte->flags.writable = false;
  EXPECT_GT(pt.generation(), gen);
  EXPECT_EQ(pt.MappedPageCount(), mapped + 1) << "the flip needs an explicit entry";
  ASSERT_TRUE(pt.Lookup(*buf).has_value());
  EXPECT_FALSE(pt.Lookup(*buf)->flags.writable);
  EXPECT_FALSE(image.mmu().Write64(*buf, 1).ok());
  EXPECT_EQ(image.mmu().last_fault().kind, FaultKind::kWriteProtect);
  // Neighbouring pages still follow the rule.
  EXPECT_TRUE(image.mmu().Write64(*buf + kPageSize, 1).ok());

  // Freeing the page drops the override with it.
  image.FreeDataPages(*buf, 1);
  EXPECT_EQ(pt.MappedPageCount(), mapped);
  auto again = image.AllocDataPages(1);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, *buf);
  EXPECT_TRUE(image.mmu().Write64(*again, 1).ok());
}

TEST(PhysmapRule, WxAuditCoversTheRule) {
  PageTable pt;
  PteFlags rwx;
  rwx.writable = true;
  rwx.nx = false;
  pt.MapDirect(0x100000, 4, rwx);
  pt.Unmap(0x100000);                               // hole
  pt.Map(0x101000, 1, PteFlags{true, true, true});  // NX override
  pt.Map(0x200000, 9, rwx);                         // explicit W+X
  std::vector<uint64_t> wx = pt.FindWxViolations();
  std::sort(wx.begin(), wx.end());
  EXPECT_EQ(wx, (std::vector<uint64_t>{0x102000, 0x103000, 0x200000}));
  EXPECT_FALSE(pt.Lookup(0x100000).has_value());
  EXPECT_EQ(pt.Lookup(0x103000)->frame, 3u);
  EXPECT_FALSE(pt.Lookup(0x104000).has_value()) << "past the rule";

  const uint64_t gen = pt.generation();
  pt.ResetToDirect(0x100000, 2);
  EXPECT_GT(pt.generation(), gen);
  EXPECT_EQ(pt.Lookup(0x100000)->frame, 0u);
  EXPECT_EQ(pt.FindWxViolations().size(), 5u);
}

// ---- Resident-only checkpoints. ----

TEST(SparseCheckpoint, RestoreZeroesNeverAllocatedFramesAndStaysSmall) {
  CompiledKernel kernel = Build("sfi-o4");
  KernelImage& image = *kernel.image;
  Cpu cpu(&image);
  auto buf = SetUpOpBuffer(image, 7);
  ASSERT_TRUE(buf.ok());
  ASSERT_EQ(cpu.CallFunction("sys_read_write", {*buf}).reason, StopReason::kReturned);

  CheckpointManager ckpt(&image);
  ckpt.TrackCpu(&cpu);
  // Measured before anything reads the whole space: a read of an untouched
  // frame maps the host's zero page, which mincore reports as resident.
  const uint64_t resident = image.phys().ResidentBytes();
  ASSERT_TRUE(ckpt.Capture().ok());
  const uint64_t before = HashPhys(image.phys());
  std::printf("snapshot_bytes %llu (resident %llu, physical space %llu)\n",
              static_cast<unsigned long long>(ckpt.snapshot_bytes()),
              static_cast<unsigned long long>(resident),
              static_cast<unsigned long long>(image.phys().size()));
  EXPECT_LE(ckpt.snapshot_bytes(), resident + (64u << 10));
  EXPECT_LT(ckpt.snapshot_bytes(), image.phys().size() / 64);

  // A guest store through the physmap to a frame nobody allocated.
  const uint64_t stray = image.PhysmapVaddr(image.phys().num_frames() - 1);
  ASSERT_TRUE(image.mmu().Write64(stray, 0xBAD).ok());
  ASSERT_EQ(cpu.CallFunction("sys_read_write", {*buf}).reason, StopReason::kReturned);

  ASSERT_TRUE(ckpt.Restore().ok());
  EXPECT_EQ(*image.Peek64(stray), 0u);
  EXPECT_EQ(HashPhys(image.phys()), before) << "restore is not bit-identical";
}

}  // namespace
}  // namespace krx
