// Superblock engine: chain construction, the chained dispatch loop, and the
// specialized per-opcode handlers (Cpu::SbOps).
//
// Bit-identicality discipline: every fast handler is a line-for-line replica
// of the matching ExecuteInst case — same accounting prologue (instruction
// count, mix bucket, deci-cycle cost), same fault ordering (e.g. the push
// %rsp decrement persists when the store faults), same retirement epilogue
// (stopped check, %rip update, profiler/heartbeat slot stores). The step
// observer is never consulted: installing one makes the run ineligible for
// this engine, exactly as for the block cache. Anything without a fast
// handler retires through Generic, which delegates wholesale to ExecuteInst
// (which does its own accounting — the dispatcher accounts nothing).
#include "src/cpu/cpu.h"

namespace krx {

// Specialized handlers. A nested struct (not a namespace) so the handlers
// see Cpu's private state without widening its public surface.
struct Cpu::SbOps {
  // Accounting prologue shared by the fast handlers: the mix bucket is a
  // compile-time member pointer (the opcode is known per handler) and the
  // deci-cycle cost was precomputed at build time (including the
  // rip-relative-load special case).
  template <uint64_t InstMix::*Bucket>
  static void Account(Cpu& c, const SbInst& si) {
    ++c.pending_.instructions;
    ++(c.pending_.mix.*Bucket);
    c.pending_.deci_cycles += si.cost;
  }

  // Retirement epilogue, identical to the tail of ExecuteInst (minus the
  // step observer, which forces single-step and is null here).
  static bool Retire(Cpu& c, uint64_t next) {
    if (c.stopped_) {
      return false;
    }
    c.rip_ = next;
    if (c.sample_pc_slot_ != nullptr) {
      c.sample_pc_slot_->store(next, std::memory_order_relaxed);
    }
    if (c.heartbeat_slot_ != nullptr) {
      c.heartbeat_slot_->store(c.pending_.instructions, std::memory_order_relaxed);
    }
    return true;
  }

  // goto_target's sentinel arm: control transferred to the harness sentinel.
  static bool ReturnToHost(Cpu& c) {
    c.pending_.reason = StopReason::kReturned;
    c.pending_.rax = c.regs_[RegIndex(Reg::kRax)];
    c.stopped_ = true;
    return false;
  }

  // Fills a direct-mapped TLB slot for the page containing `vaddr`.
  // `gen` must have been read from the page table *before* the Lookup: a
  // concurrent remap between the two then leaves the entry conservatively
  // stale (it revalidates against the newer generation and misses) instead
  // of dangerously fresh. User pages are never cached — the canonical path
  // owns SMAP fault semantics.
  static bool FillTlb(Cpu& c, SbTlbEntry& e, uint64_t vaddr, uint64_t gen) {
    const std::optional<Pte> pte = c.image_->page_table().Lookup(vaddr);
    if (!pte || !pte->flags.present || pte->flags.user) {
      return false;
    }
    const uint64_t frame = pte->has_data_frame ? pte->data_frame : pte->frame;
    e.vpage = vaddr >> kPageShift;
    e.page_gen = gen;
    e.paddr_base = frame << kPageShift;
    e.writable = pte->flags.writable;
    // Page-granular and exact for in-page accesses: vaddr and vaddr+7 share
    // the page, so DataWrite64's VaddrAliasesCode(vaddr) answer is a
    // property of the page alone.
    e.aliases_code = c.image_->VaddrAliasesCode(PageFloor(vaddr), 1);
    return true;
  }

  // 8-byte data read through the inline TLB. Page-crossing accesses and
  // uncacheable/unmapped pages take Cpu::DataRead64, which owns the exact
  // fault semantics (and the XnR/destructive hooks, both disabled under
  // superblock eligibility).
  static bool ReadMem(Cpu& c, uint64_t vaddr, uint64_t* value) {
    if (PageOffset(vaddr) + 8 <= kPageSize) {
      SbTlbEntry& e = c.sb_current_->tlb.EntryFor(vaddr);
      const uint64_t gen = c.image_->page_table().generation();
      const bool valid = e.vpage == (vaddr >> kPageShift) && e.page_gen == gen;
      if (valid || FillTlb(c, e, vaddr, gen)) {
        ++(valid ? c.sb_cache_.stats().tlb_hits : c.sb_cache_.stats().tlb_misses);
        *value = c.image_->phys().Read64(e.paddr_base | PageOffset(vaddr));
        return true;
      }
    }
    ++c.sb_cache_.stats().tlb_misses;
    return c.DataRead64(vaddr, value);
  }

  // 8-byte data write through the inline TLB. A hit on a read-only page
  // falls back so the write-protect #PF surfaces exactly as uncached; a hit
  // on a code-aliasing page bumps the text generation, exactly like
  // Cpu::DataWrite64 (the SMC hook the dispatcher's mid-chain generation
  // re-check depends on).
  static bool WriteMem(Cpu& c, uint64_t vaddr, uint64_t value) {
    if (PageOffset(vaddr) + 8 <= kPageSize) {
      SbTlbEntry& e = c.sb_current_->tlb.EntryFor(vaddr);
      const uint64_t gen = c.image_->page_table().generation();
      const bool valid = e.vpage == (vaddr >> kPageShift) && e.page_gen == gen;
      if ((valid || FillTlb(c, e, vaddr, gen)) && e.writable) {
        ++(valid ? c.sb_cache_.stats().tlb_hits : c.sb_cache_.stats().tlb_misses);
        c.image_->phys().Write64(e.paddr_base | PageOffset(vaddr), value);
        if (e.aliases_code) {
          c.image_->BumpTextGeneration();
        }
        return true;
      }
    }
    ++c.sb_cache_.stats().tlb_misses;
    return c.DataWrite64(vaddr, value);
  }

  static uint64_t& R(Cpu& c, Reg r) { return c.regs_[RegIndex(r)]; }

  // --- Fast handlers (hottest ops by bench instruction mix) ---

  static bool Nop(Cpu& c, const SbInst& si) {
    Account<&InstMix::other>(c, si);
    return Retire(c, si.rip_next);
  }

  static bool MovRR(Cpu& c, const SbInst& si) {
    Account<&InstMix::alu>(c, si);
    R(c, si.inst.r1) = R(c, si.inst.r2);
    return Retire(c, si.rip_next);
  }

  static bool MovRI(Cpu& c, const SbInst& si) {
    Account<&InstMix::alu>(c, si);
    R(c, si.inst.r1) = static_cast<uint64_t>(si.inst.imm);
    return Retire(c, si.rip_next);
  }

  static bool Lea(Cpu& c, const SbInst& si) {
    Account<&InstMix::lea>(c, si);
    R(c, si.inst.r1) = c.EffectiveAddress(si.inst.mem, si.rip_next);
    return Retire(c, si.rip_next);
  }

  static bool Load(Cpu& c, const SbInst& si) {
    Account<&InstMix::loads>(c, si);
    uint64_t v;
    if (ReadMem(c, c.EffectiveAddress(si.inst.mem, si.rip_next), &v)) {
      R(c, si.inst.r1) = v;
    }
    return Retire(c, si.rip_next);
  }

  static bool Store(Cpu& c, const SbInst& si) {
    Account<&InstMix::stores>(c, si);
    WriteMem(c, c.EffectiveAddress(si.inst.mem, si.rip_next), R(c, si.inst.r1));
    return Retire(c, si.rip_next);
  }

  static bool StoreImm(Cpu& c, const SbInst& si) {
    Account<&InstMix::stores>(c, si);
    WriteMem(c, c.EffectiveAddress(si.inst.mem, si.rip_next),
             static_cast<uint64_t>(si.inst.imm));
    return Retire(c, si.rip_next);
  }

  static bool PushR(Cpu& c, const SbInst& si) {
    Account<&InstMix::pushpop>(c, si);
    // The %rsp decrement persists when the store faults (ExecuteInst order).
    R(c, Reg::kRsp) -= 8;
    WriteMem(c, R(c, Reg::kRsp), R(c, si.inst.r1));
    return Retire(c, si.rip_next);
  }

  static bool PopR(Cpu& c, const SbInst& si) {
    Account<&InstMix::pushpop>(c, si);
    uint64_t v;
    if (ReadMem(c, R(c, Reg::kRsp), &v)) {
      R(c, si.inst.r1) = v;
      R(c, Reg::kRsp) += 8;
    }
    return Retire(c, si.rip_next);
  }

  static bool AddRR(Cpu& c, const SbInst& si) {
    Account<&InstMix::alu>(c, si);
    c.SetFlagsAdd(R(c, si.inst.r1), R(c, si.inst.r2));
    R(c, si.inst.r1) += R(c, si.inst.r2);
    return Retire(c, si.rip_next);
  }

  static bool AddRI(Cpu& c, const SbInst& si) {
    Account<&InstMix::alu>(c, si);
    c.SetFlagsAdd(R(c, si.inst.r1), static_cast<uint64_t>(si.inst.imm));
    R(c, si.inst.r1) += static_cast<uint64_t>(si.inst.imm);
    return Retire(c, si.rip_next);
  }

  static bool SubRR(Cpu& c, const SbInst& si) {
    Account<&InstMix::alu>(c, si);
    c.SetFlagsSub(R(c, si.inst.r1), R(c, si.inst.r2));
    R(c, si.inst.r1) -= R(c, si.inst.r2);
    return Retire(c, si.rip_next);
  }

  static bool SubRI(Cpu& c, const SbInst& si) {
    Account<&InstMix::alu>(c, si);
    c.SetFlagsSub(R(c, si.inst.r1), static_cast<uint64_t>(si.inst.imm));
    R(c, si.inst.r1) -= static_cast<uint64_t>(si.inst.imm);
    return Retire(c, si.rip_next);
  }

  static bool CmpRR(Cpu& c, const SbInst& si) {
    Account<&InstMix::alu>(c, si);
    c.SetFlagsSub(R(c, si.inst.r1), R(c, si.inst.r2));
    return Retire(c, si.rip_next);
  }

  // The SFI range-check compare (cmp %reg, $_krx_edata).
  static bool CmpRI(Cpu& c, const SbInst& si) {
    Account<&InstMix::alu>(c, si);
    c.SetFlagsSub(R(c, si.inst.r1), static_cast<uint64_t>(si.inst.imm));
    return Retire(c, si.rip_next);
  }

  static bool TestRR(Cpu& c, const SbInst& si) {
    Account<&InstMix::alu>(c, si);
    c.SetFlagsLogic(R(c, si.inst.r1) & R(c, si.inst.r2));
    return Retire(c, si.rip_next);
  }

  // The O2/O3 SFI address-mask clamp.
  static bool MaskRI(Cpu& c, const SbInst& si) {
    Account<&InstMix::alu>(c, si);
    const uint64_t v = R(c, si.inst.r1);
    R(c, si.inst.r1) = v > static_cast<uint64_t>(si.inst.imm) ? 0 : v;
    return Retire(c, si.rip_next);
  }

  // The MPX bounds check.
  static bool Bndcu(Cpu& c, const SbInst& si) {
    Account<&InstMix::bndcu>(c, si);
    const uint64_t ea = c.EffectiveAddress(si.inst.mem, si.rip_next);
    if (ea > c.bnd0_ub_) {
      c.RaiseException(ExceptionKind::kBoundRange, ea);
    }
    return Retire(c, si.rip_next);
  }

  // The SFI check's ja-to-handler (and every other conditional branch).
  // Spec-window interplay needs no replica: speculation forces single-step.
  static bool Jcc(Cpu& c, const SbInst& si) {
    Account<&InstMix::branches>(c, si);
    uint64_t next = si.rip_next;
    if (c.EvalCond(si.inst.cond)) {
      const uint64_t target = si.rip_next + static_cast<uint64_t>(si.inst.imm);
      if (target == kReturnSentinel) {
        return ReturnToHost(c);
      }
      next = target;
    }
    return Retire(c, next);
  }

  static bool JmpRel(Cpu& c, const SbInst& si) {
    Account<&InstMix::jumps>(c, si);
    const uint64_t target = si.rip_next + static_cast<uint64_t>(si.inst.imm);
    if (target == kReturnSentinel) {
      return ReturnToHost(c);
    }
    return Retire(c, target);
  }

  static bool CallRel(Cpu& c, const SbInst& si) {
    Account<&InstMix::calls>(c, si);
    R(c, Reg::kRsp) -= 8;
    if (!WriteMem(c, R(c, Reg::kRsp), si.rip_next)) {
      return Retire(c, si.rip_next);  // stopped_: surfaces the fault
    }
    const uint64_t target = si.rip_next + static_cast<uint64_t>(si.inst.imm);
    if (target == kReturnSentinel) {
      return ReturnToHost(c);
    }
    return Retire(c, target);
  }

  // Return — including the xkey-decoded variety: under -fret-xkey the
  // decode is a separate kXorMR on (%rsp) retired just before this.
  static bool Ret(Cpu& c, const SbInst& si) {
    Account<&InstMix::rets>(c, si);
    uint64_t v;
    if (!ReadMem(c, R(c, Reg::kRsp), &v)) {
      return Retire(c, si.rip_next);  // stopped_: surfaces the fault
    }
    R(c, Reg::kRsp) += 8;
    if (v == kReturnSentinel) {
      return ReturnToHost(c);
    }
    return Retire(c, v);
  }

  // The xkey return-address encode/decode (xor %key, (%rsp)): a
  // read-modify-write, so it accounts a load and a store.
  static bool XorMR(Cpu& c, const SbInst& si) {
    ++c.pending_.instructions;
    ++c.pending_.mix.loads;
    ++c.pending_.mix.stores;
    c.pending_.deci_cycles += si.cost;
    const uint64_t ea = c.EffectiveAddress(si.inst.mem, si.rip_next);
    uint64_t v;
    if (ReadMem(c, ea, &v)) {
      v ^= R(c, si.inst.r1);
      c.SetFlagsLogic(v);
      WriteMem(c, ea, v);
    }
    return Retire(c, si.rip_next);
  }

  // Everything else: delegate to the canonical decoded-execute path, which
  // does its own accounting and retirement (the dispatcher adds nothing).
  static bool Generic(Cpu& c, const SbInst& si) {
    return c.ExecuteInst(si.inst, si.size);
  }

  static SbHandler HandlerFor(Opcode op) {
    switch (op) {
      case Opcode::kNop: return &Nop;
      case Opcode::kMovRR: return &MovRR;
      case Opcode::kMovRI: return &MovRI;
      case Opcode::kLea: return &Lea;
      case Opcode::kLoad: return &Load;
      case Opcode::kStore: return &Store;
      case Opcode::kStoreImm: return &StoreImm;
      case Opcode::kPushR: return &PushR;
      case Opcode::kPopR: return &PopR;
      case Opcode::kAddRR: return &AddRR;
      case Opcode::kAddRI: return &AddRI;
      case Opcode::kSubRR: return &SubRR;
      case Opcode::kSubRI: return &SubRI;
      case Opcode::kCmpRR: return &CmpRR;
      case Opcode::kCmpRI: return &CmpRI;
      case Opcode::kTestRR: return &TestRR;
      case Opcode::kMaskRI: return &MaskRI;
      case Opcode::kBndcu: return &Bndcu;
      case Opcode::kJcc: return &Jcc;
      case Opcode::kJmpRel: return &JmpRel;
      case Opcode::kCallRel: return &CallRel;
      case Opcode::kRet: return &Ret;
      case Opcode::kXorMR: return &XorMR;
      default: return &Generic;
    }
  }
};

// Chains predecoded basic blocks starting at `entry`. Chain continuation:
//  - jmp/call rel32: always, to the exact static target;
//  - jcc: the BTFN-predicted direction (backward displacement => taken) —
//    the static heuristic that makes loop back-edges chain;
//  - a block split by the predecode length cap: its fall-through;
//  - indirect transfers, ret, traps: never (the chain exits).
// A predicted edge landing on an already-chained block start becomes an
// internal loop edge (the superblock's whole point); anything else appends
// the target block, within the block/instruction budgets.
Superblock Cpu::BuildSuperblock(uint64_t entry) {
  Superblock sb;
  sb.entry = entry;
  // Block start rip -> index of its first SbInst, for closing loop edges.
  std::unordered_map<uint64_t, int32_t> starts;
  uint64_t rip = entry;
  while (sb.blocks < kMaxSuperblockBlocks) {
    DecodedBlock block = BuildBlock(rip);
    if (block.insts.empty() ||
        sb.insts.size() + block.insts.size() > kMaxSuperblockInsts) {
      break;
    }
    starts.emplace(rip, static_cast<int32_t>(sb.insts.size()));
    ++sb.blocks;
    uint64_t r = rip;
    for (const PredecodedInst& pi : block.insts) {
      SbInst si;
      si.inst = pi.inst;
      si.size = pi.size;
      si.rip = r;
      si.rip_next = r + pi.size;
      si.cost = (pi.inst.op == Opcode::kLoad && pi.inst.mem.rip_relative)
                    ? cost_.load_riprel
                    : cost_.CostOf(pi.inst.op);
      si.handler = SbOps::HandlerFor(pi.inst.op);
      si.fast = si.handler != &SbOps::Generic;
      si.next = static_cast<int32_t>(sb.insts.size()) + 1;  // straight-line
      sb.insts.push_back(si);
      r = si.rip_next;
    }
    SbInst& last = sb.insts.back();
    last.end_of_block = true;
    const Instruction& in = last.inst;
    uint64_t target = 0;
    bool chain = false;
    if (in.op == Opcode::kJmpRel || in.op == Opcode::kCallRel) {
      target = last.rip_next + static_cast<uint64_t>(in.imm);
      chain = true;
    } else if (in.op == Opcode::kJcc) {
      target = in.imm < 0 ? last.rip_next + static_cast<uint64_t>(in.imm)
                          : last.rip_next;
      chain = true;
    } else if (!EndsBlock(in.op)) {
      target = last.rip_next;  // length-split block: chain its fall-through
      chain = true;
    }
    if (!chain || target == kReturnSentinel) {
      last.next = kSbExit;
      break;
    }
    last.expected_next = target;
    if (auto it = starts.find(target); it != starts.end()) {
      last.next = it->second;  // internal loop edge
      break;
    }
    last.next = static_cast<int32_t>(sb.insts.size());  // appended next
    rip = target;
  }
  // A budget-terminated construction leaves the final transfer pointing one
  // past the end; it exits the chain instead.
  if (!sb.insts.empty()) {
    SbInst& last = sb.insts.back();
    if (last.next == static_cast<int32_t>(sb.insts.size())) {
      last.next = kSbExit;
    }
    last.end_of_block = true;
  }
  return sb;
}

// The chained dispatch loop. Contracts mirrored from RunCached:
//  - krx_handler extent checked at every instruction's %rip (violation
//    latching must not depend on the engine);
//  - step budget counted per retired instruction (rep iterations are
//    bounded inside ExecuteInst, as everywhere);
//  - preempt/deadline sampled at the top (superblock entry) and at every
//    chain continuation — at least once per chained block;
//  - the image text generation is re-checked after every retired
//    instruction; a mid-chain bump (guest SMC, a module load triggered by
//    the run) abandons the stale predecode and re-looks-up, which flushes;
//  - unfetchable/undecodable bytes at %rip take one canonical Step() so the
//    fault surfaces exactly as single-stepped.
RunResult Cpu::RunSuperblocked() {
  SuperblockStats& st = sb_cache_.stats();
  uint64_t steps = 0;
  while (steps < max_steps_) {
    if (PreemptDue(0)) {
      pending_.reason = StopReason::kDeadlineExceeded;
      return pending_;
    }
    const uint64_t generation = image_->text_generation();
    Superblock* sb = sb_cache_.Lookup(rip_, generation);
    if (sb == nullptr) {
      Superblock built = BuildSuperblock(rip_);
      if (built.insts.empty()) {
        if (!Step()) {
          return pending_;
        }
        ++steps;
        continue;
      }
      sb = sb_cache_.Insert(std::move(built));
    }
    ++st.entries;
    ++sb->entered;
    sb_current_ = sb;
    int32_t i = 0;
    bool stop = false;
    while (steps < max_steps_) {
      const SbInst& si = sb->insts[static_cast<size_t>(i)];
      if (krx_handler_lo_ != 0 && rip_ >= krx_handler_lo_ && rip_ < krx_handler_hi_) {
        pending_.krx_violation = true;
      }
      ++steps;
      ++st.executed_insts;
      ++sb->total_insts;
      if (si.fast) {
        ++st.fastpath_insts;
        ++sb->fast_insts;
      }
      if (!si.handler(*this, si)) {
        stop = true;
        break;
      }
      if (image_->text_generation() != generation) {
        break;  // predecode went stale mid-chain; re-lookup flushes
      }
      if (!si.end_of_block) {
        ++i;
        continue;
      }
      if (si.next == kSbExit) {
        break;
      }
      if (rip_ != si.expected_next) {
        ++st.chain_breaks;  // guard mispredict: leave the chain
        break;
      }
      if (PreemptDue(0)) {  // chain continuation: block-boundary cadence
        pending_.reason = StopReason::kDeadlineExceeded;
        sb_current_ = nullptr;
        return pending_;
      }
      i = si.next;
    }
    sb_current_ = nullptr;
    if (stop) {
      return pending_;
    }
  }
  pending_.reason = StopReason::kStepLimit;
  return pending_;
}

}  // namespace krx
