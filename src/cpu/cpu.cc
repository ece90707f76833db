#include "src/cpu/cpu.h"

#include <chrono>
#include <unordered_map>

#include "src/isa/encoding.h"
#include "src/kernel/baseline_defenses.h"
#include "src/rerand/quiesce.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"

namespace krx {

namespace {
// Cap on predecoded-block length. Straight-line runs longer than this are
// split into consecutive blocks; correctness is unaffected.
constexpr size_t kMaxBlockInsts = 64;
}  // namespace

void InstMix::Count(Opcode op) {
  switch (op) {
    case Opcode::kLoad:
    case Opcode::kAddRM:
    case Opcode::kCmpRM:
    case Opcode::kCmpMI:
      ++loads;
      break;
    case Opcode::kXorMR:
      ++loads;  // read-modify-write: counts as a load and a store
      ++stores;
      break;
    case Opcode::kStore:
    case Opcode::kStoreImm:
      ++stores;
      break;
    case Opcode::kLea:
      ++lea;
      break;
    case Opcode::kJcc:
      ++branches;
      break;
    case Opcode::kJmpRel:
    case Opcode::kJmpR:
    case Opcode::kJmpM:
      ++jumps;
      break;
    case Opcode::kCallRel:
    case Opcode::kCallR:
    case Opcode::kCallM:
      ++calls;
      break;
    case Opcode::kRet:
      ++rets;
      break;
    case Opcode::kPushR:
    case Opcode::kPopR:
      ++pushpop;
      break;
    case Opcode::kPushfq:
      ++pushfq;
      break;
    case Opcode::kPopfq:
      ++popfq;
      break;
    case Opcode::kBndcu:
      ++bndcu;
      break;
    case Opcode::kMovsq:
    case Opcode::kLodsq:
    case Opcode::kStosq:
    case Opcode::kCmpsq:
    case Opcode::kScasq:
      ++string_ops;
      break;
    case Opcode::kMovRR:
    case Opcode::kMovRI:
    case Opcode::kAddRR:
    case Opcode::kAddRI:
    case Opcode::kSubRR:
    case Opcode::kSubRI:
    case Opcode::kAndRR:
    case Opcode::kAndRI:
    case Opcode::kOrRR:
    case Opcode::kOrRI:
    case Opcode::kXorRR:
    case Opcode::kXorRI:
    case Opcode::kShlRI:
    case Opcode::kShrRI:
    case Opcode::kImulRR:
    case Opcode::kCmpRR:
    case Opcode::kCmpRI:
    case Opcode::kTestRR:
    case Opcode::kMaskRI:
      ++alu;
      break;
    default:
      ++other;
      break;
  }
}

const char* StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kReturned: return "returned";
    case StopReason::kHalted: return "halted";
    case StopReason::kException: return "exception";
    case StopReason::kStepLimit: return "step-limit";
    case StopReason::kHostError: return "host-error";
    case StopReason::kDeadlineExceeded: return "deadline-exceeded";
  }
  return "??";
}

const char* ExceptionKindName(ExceptionKind kind) {
  switch (kind) {
    case ExceptionKind::kNone: return "none";
    case ExceptionKind::kPageFault: return "#PF";
    case ExceptionKind::kBoundRange: return "#BR";
    case ExceptionKind::kBreakpoint: return "#BP(int3)";
    case ExceptionKind::kInvalidOpcode: return "#UD";
    case ExceptionKind::kGeneralProtection: return "#GP";
  }
  return "??";
}

Cpu::Cpu(KernelImage* image, CostModel cost, CpuOptions options)
    : image_(image),
      mmu_(&image->phys(), &image->page_table()),
      cost_(cost),
      options_(options) {
  // Inherit the image's hardening switches; from here on this CPU's private
  // MMU view is authoritative for this CPU (per-run fault record and TLB
  // counters must not be shared between concurrently executing CPUs).
  mmu_.set_smep(image_->mmu().smep());
  mmu_.set_smap(image_->mmu().smap());

  auto stack = image_->AllocDataPages(options_.stack_pages);
  if (!stack.ok()) {
    // Degrade instead of aborting the host: the failure surfaces as a
    // kHostError result on the first CallFunction.
    init_error_ = "kernel stack allocation failed: " + stack.status().ToString();
  } else {
    stack_base_ = *stack;
    stack_top_ = stack_base_ + options_.stack_pages * kPageSize;
  }

  RefreshKrxHandlerRange();
}

Cpu::~Cpu() {
  if (stack_base_ != 0) {
    image_->FreeDataPages(stack_base_, options_.stack_pages);
  }
}

void Cpu::RefreshKrxHandlerRange() {
  int32_t h = image_->symbols().Find(kKrxHandlerName);
  if (h >= 0 && image_->symbols().at(h).defined) {
    krx_handler_lo_ = image_->symbols().at(h).address;
    krx_handler_hi_ = krx_handler_lo_ + std::max<uint64_t>(image_->symbols().at(h).size, 1);
  }
}

uint64_t Cpu::EffectiveAddress(const MemOperand& mem, uint64_t rip_next) const {
  if (mem.rip_relative) {
    return rip_next + static_cast<uint64_t>(mem.disp);
  }
  uint64_t ea = static_cast<uint64_t>(mem.disp);
  if (mem.has_base()) {
    ea += regs_[RegIndex(mem.base)];
  }
  if (mem.has_index()) {
    ea += regs_[RegIndex(mem.index)] * mem.scale;
  }
  return ea;
}

bool Cpu::DataRead64(uint64_t vaddr, uint64_t* value) {
  auto v = mmu_.Read64(vaddr);
  if (v.ok() && image_->destructive_code_reads()) {
    // Heisenbyte baseline (§8): a successful data read of executable bytes
    // destroys them in place, so disclosed gadgets crash when reused.
    for (int i = 0; i < 8; ++i) {
      const std::optional<Pte> pte =
          image_->page_table().Lookup(vaddr + static_cast<uint64_t>(i));
      if (pte && pte->flags.present && !pte->flags.nx) {
        image_->phys().Write8((pte->frame << kPageShift) |
                                  PageOffset(vaddr + static_cast<uint64_t>(i)),
                              0xD7);
      }
    }
  }
  if (!v.ok()) {
    // XnR baseline: a data access faulting on a protected code page is a
    // detected disclosure attempt — the #PF handler terminates.
    if (image_->xnr() != nullptr && image_->xnr()->IsDisclosureAttempt(vaddr)) {
      pending_.xnr_violation = true;
    }
    RaiseException(ExceptionKind::kPageFault, vaddr);
    return false;
  }
  *value = *v;
  return true;
}

bool Cpu::DataWrite64(uint64_t vaddr, uint64_t value) {
  Status s = mmu_.Write64(vaddr, value);
  if (!s.ok()) {
    RaiseException(ExceptionKind::kPageFault, vaddr);
    return false;
  }
  // Self-modifying code: a guest store that lands on a frame backing
  // executable pages (e.g. through a writable physmap synonym under the
  // vanilla layout) invalidates any predecode of those bytes — in this CPU
  // and in every other CPU sharing the image.
  if (image_->VaddrAliasesCode(vaddr)) {
    image_->BumpTextGeneration();
  }
  return true;
}

void Cpu::SetFlagsSub(uint64_t a, uint64_t b) {
  uint64_t res = a - b;
  rflags_.zf = res == 0;
  rflags_.sf = (res >> 63) != 0;
  rflags_.cf = a < b;
  rflags_.of = (((a ^ b) & (a ^ res)) >> 63) != 0;
}

void Cpu::SetFlagsAdd(uint64_t a, uint64_t b) {
  uint64_t res = a + b;
  rflags_.zf = res == 0;
  rflags_.sf = (res >> 63) != 0;
  rflags_.cf = res < a;
  rflags_.of = ((~(a ^ b) & (a ^ res)) >> 63) != 0;
}

void Cpu::SetFlagsLogic(uint64_t result) {
  rflags_.zf = result == 0;
  rflags_.sf = (result >> 63) != 0;
  rflags_.cf = false;
  rflags_.of = false;
}

bool Cpu::EvalCond(Cond c) const {
  switch (c) {
    case Cond::kE: return rflags_.zf;
    case Cond::kNe: return !rflags_.zf;
    case Cond::kA: return !rflags_.cf && !rflags_.zf;
    case Cond::kAe: return !rflags_.cf;
    case Cond::kB: return rflags_.cf;
    case Cond::kBe: return rflags_.cf || rflags_.zf;
    case Cond::kG: return !rflags_.zf && rflags_.sf == rflags_.of;
    case Cond::kGe: return rflags_.sf == rflags_.of;
    case Cond::kL: return rflags_.sf != rflags_.of;
    case Cond::kLe: return rflags_.zf || rflags_.sf != rflags_.of;
    case Cond::kS: return rflags_.sf;
    case Cond::kNs: return !rflags_.sf;
  }
  return false;
}

void Cpu::RaiseException(ExceptionKind kind, uint64_t addr) {
  pending_.reason = StopReason::kException;
  pending_.exception = kind;
  pending_.fault_addr = addr;
  stopped_ = true;
}

bool Cpu::FetchDecode(Instruction* inst, uint8_t* inst_size) {
  // Fetch + decode, servicing XnR instruction-fetch faults: both for the
  // page at %rip and for the next page when an instruction straddles the
  // boundary (a partial fetch that truncates the decode).
  uint8_t buf[16];
  for (int attempt = 0;; ++attempt) {
    if (attempt > 2) {
      RaiseException(ExceptionKind::kPageFault, rip_);
      return false;
    }
    auto fetched = mmu_.FetchCode(rip_, buf, sizeof(buf));
    if (!fetched.ok()) {
      if (image_->xnr() != nullptr && image_->xnr()->HandleFetchFault(rip_)) {
        continue;  // serviced; retry
      }
      RaiseException(ExceptionKind::kPageFault, rip_);
      return false;
    }
    auto dec = DecodeInstruction(buf, *fetched, 0);
    if (!dec.ok()) {
      if (dec.status().code() == StatusCode::kOutOfRange && *fetched < sizeof(buf)) {
        // Truncated by an unmapped boundary: the fetch of the *next* page
        // is what faults.
        uint64_t next_page = rip_ + *fetched;
        if (image_->xnr() != nullptr && image_->xnr()->HandleFetchFault(next_page)) {
          continue;
        }
        RaiseException(ExceptionKind::kPageFault, next_page);
        return false;
      }
      RaiseException(ExceptionKind::kInvalidOpcode, rip_);
      return false;
    }
    *inst = dec->inst;
    *inst_size = dec->size;
    return true;
  }
}

bool Cpu::ExecuteInst(const Instruction& in, uint8_t inst_size) {
  const uint64_t rip_next = rip_ + inst_size;
  uint64_t next = rip_next;

  ++pending_.instructions;
  pending_.mix.Count(in.op);
  if (in.op == Opcode::kLoad && in.mem.rip_relative) {
    pending_.deci_cycles += cost_.load_riprel;
  } else {
    pending_.deci_cycles += cost_.CostOf(in.op);
  }

  auto reg = [&](Reg r) -> uint64_t& { return regs_[RegIndex(r)]; };
  auto goto_target = [&](uint64_t target) {
    if (target == kReturnSentinel) {
      pending_.reason = StopReason::kReturned;
      pending_.rax = reg(Reg::kRax);
      stopped_ = true;
      return;
    }
    next = target;
  };

  switch (in.op) {
    case Opcode::kNop:
    case Opcode::kWrmsr:
    case Opcode::kSyscall:
    case Opcode::kSysret:
      break;
    case Opcode::kHlt:
      pending_.reason = StopReason::kHalted;
      stopped_ = true;
      break;
    case Opcode::kInt3:
      RaiseException(ExceptionKind::kBreakpoint, rip_);
      break;
    case Opcode::kUd2:
      RaiseException(ExceptionKind::kInvalidOpcode, rip_);
      break;

    case Opcode::kMovRR:
      reg(in.r1) = reg(in.r2);
      break;
    case Opcode::kMovRI:
      reg(in.r1) = static_cast<uint64_t>(in.imm);
      break;
    case Opcode::kLoad: {
      uint64_t v;
      if (!DataRead64(EffectiveAddress(in.mem, rip_next), &v)) {
        break;
      }
      reg(in.r1) = v;
      break;
    }
    case Opcode::kStore:
      DataWrite64(EffectiveAddress(in.mem, rip_next), reg(in.r1));
      break;
    case Opcode::kStoreImm:
      DataWrite64(EffectiveAddress(in.mem, rip_next), static_cast<uint64_t>(in.imm));
      break;
    case Opcode::kLea:
      reg(in.r1) = EffectiveAddress(in.mem, rip_next);
      break;
    case Opcode::kPushR:
      reg(Reg::kRsp) -= 8;
      DataWrite64(reg(Reg::kRsp), reg(in.r1));
      break;
    case Opcode::kPopR: {
      uint64_t v;
      if (!DataRead64(reg(Reg::kRsp), &v)) {
        break;
      }
      reg(in.r1) = v;
      reg(Reg::kRsp) += 8;
      break;
    }
    case Opcode::kPushfq:
      reg(Reg::kRsp) -= 8;
      DataWrite64(reg(Reg::kRsp), rflags_.ToBits());
      break;
    case Opcode::kPopfq: {
      uint64_t v;
      if (!DataRead64(reg(Reg::kRsp), &v)) {
        break;
      }
      rflags_.FromBits(v);
      reg(Reg::kRsp) += 8;
      break;
    }

    case Opcode::kAddRR:
      SetFlagsAdd(reg(in.r1), reg(in.r2));
      reg(in.r1) += reg(in.r2);
      break;
    case Opcode::kAddRI:
      SetFlagsAdd(reg(in.r1), static_cast<uint64_t>(in.imm));
      reg(in.r1) += static_cast<uint64_t>(in.imm);
      break;
    case Opcode::kSubRR:
      SetFlagsSub(reg(in.r1), reg(in.r2));
      reg(in.r1) -= reg(in.r2);
      break;
    case Opcode::kSubRI:
      SetFlagsSub(reg(in.r1), static_cast<uint64_t>(in.imm));
      reg(in.r1) -= static_cast<uint64_t>(in.imm);
      break;
    case Opcode::kAndRR:
      reg(in.r1) &= reg(in.r2);
      SetFlagsLogic(reg(in.r1));
      break;
    case Opcode::kAndRI:
      reg(in.r1) &= static_cast<uint64_t>(in.imm);
      SetFlagsLogic(reg(in.r1));
      break;
    case Opcode::kOrRR:
      reg(in.r1) |= reg(in.r2);
      SetFlagsLogic(reg(in.r1));
      break;
    case Opcode::kOrRI:
      reg(in.r1) |= static_cast<uint64_t>(in.imm);
      SetFlagsLogic(reg(in.r1));
      break;
    case Opcode::kXorRR:
      reg(in.r1) ^= reg(in.r2);
      SetFlagsLogic(reg(in.r1));
      break;
    case Opcode::kXorRI:
      reg(in.r1) ^= static_cast<uint64_t>(in.imm);
      SetFlagsLogic(reg(in.r1));
      break;
    case Opcode::kShlRI: {
      uint64_t k = static_cast<uint64_t>(in.imm) & 63;
      uint64_t v = reg(in.r1);
      rflags_.cf = k > 0 && ((v >> (64 - k)) & 1) != 0;
      v <<= k;
      reg(in.r1) = v;
      rflags_.zf = v == 0;
      rflags_.sf = (v >> 63) != 0;
      rflags_.of = false;
      break;
    }
    case Opcode::kShrRI: {
      uint64_t k = static_cast<uint64_t>(in.imm) & 63;
      uint64_t v = reg(in.r1);
      rflags_.cf = k > 0 && ((v >> (k - 1)) & 1) != 0;
      v >>= k;
      reg(in.r1) = v;
      rflags_.zf = v == 0;
      rflags_.sf = false;
      rflags_.of = false;
      break;
    }
    case Opcode::kImulRR: {
      uint64_t v = reg(in.r1) * reg(in.r2);
      reg(in.r1) = v;
      SetFlagsLogic(v);
      break;
    }
    case Opcode::kCmpRR:
      SetFlagsSub(reg(in.r1), reg(in.r2));
      break;
    case Opcode::kCmpRI:
      SetFlagsSub(reg(in.r1), static_cast<uint64_t>(in.imm));
      break;
    case Opcode::kTestRR:
      SetFlagsLogic(reg(in.r1) & reg(in.r2));
      break;

    case Opcode::kAddRM: {
      uint64_t v;
      if (!DataRead64(EffectiveAddress(in.mem, rip_next), &v)) {
        break;
      }
      SetFlagsAdd(reg(in.r1), v);
      reg(in.r1) += v;
      break;
    }
    case Opcode::kCmpRM: {
      uint64_t v;
      if (!DataRead64(EffectiveAddress(in.mem, rip_next), &v)) {
        break;
      }
      SetFlagsSub(reg(in.r1), v);
      break;
    }
    case Opcode::kCmpMI: {
      uint64_t v;
      if (!DataRead64(EffectiveAddress(in.mem, rip_next), &v)) {
        break;
      }
      SetFlagsSub(v, static_cast<uint64_t>(in.imm));
      break;
    }
    case Opcode::kXorMR: {
      uint64_t ea = EffectiveAddress(in.mem, rip_next);
      uint64_t v;
      if (!DataRead64(ea, &v)) {
        break;
      }
      v ^= reg(in.r1);
      SetFlagsLogic(v);
      DataWrite64(ea, v);
      break;
    }

    case Opcode::kJmpRel:
      goto_target(rip_next + static_cast<uint64_t>(in.imm));
      break;
    case Opcode::kJcc: {
      const bool taken = EvalCond(in.cond);
      if (options_.spec.enabled) {
        ++spec_stats_.predictions;
        const bool predicted = predictor_.PredictTaken(rip_);
        if (predicted != taken) {
          // Misprediction: the frontend already steered down the wrong path.
          // Simulate it against shadow state up to the window depth, then
          // discard everything but the cache footprint.
          ++spec_stats_.mispredictions;
          SpeculateWrongPath(predicted ? rip_next + static_cast<uint64_t>(in.imm)
                                       : rip_next);
        }
        predictor_.Update(rip_, taken);
      }
      if (taken) {
        goto_target(rip_next + static_cast<uint64_t>(in.imm));
      }
      break;
    }
    case Opcode::kJmpR:
      goto_target(reg(in.r1));
      break;
    case Opcode::kJmpM: {
      uint64_t v;
      if (!DataRead64(EffectiveAddress(in.mem, rip_next), &v)) {
        break;
      }
      goto_target(v);
      break;
    }
    case Opcode::kCallRel:
      reg(Reg::kRsp) -= 8;
      if (!DataWrite64(reg(Reg::kRsp), rip_next)) {
        break;
      }
      goto_target(rip_next + static_cast<uint64_t>(in.imm));
      break;
    case Opcode::kCallR:
      reg(Reg::kRsp) -= 8;
      if (!DataWrite64(reg(Reg::kRsp), rip_next)) {
        break;
      }
      goto_target(reg(in.r1));
      break;
    case Opcode::kCallM: {
      uint64_t v;
      if (!DataRead64(EffectiveAddress(in.mem, rip_next), &v)) {
        break;
      }
      reg(Reg::kRsp) -= 8;
      if (!DataWrite64(reg(Reg::kRsp), rip_next)) {
        break;
      }
      goto_target(v);
      break;
    }
    case Opcode::kRet: {
      uint64_t v;
      if (!DataRead64(reg(Reg::kRsp), &v)) {
        break;
      }
      reg(Reg::kRsp) += 8;
      goto_target(v);
      break;
    }

    case Opcode::kMovsq:
    case Opcode::kLodsq:
    case Opcode::kStosq:
    case Opcode::kCmpsq:
    case Opcode::kScasq: {
      const int64_t step = rflags_.df ? -8 : 8;
      auto one = [&]() -> bool {
        uint64_t v;
        switch (in.op) {
          case Opcode::kMovsq:
            if (!DataRead64(reg(Reg::kRsi), &v) || !DataWrite64(reg(Reg::kRdi), v)) {
              return false;
            }
            reg(Reg::kRsi) += static_cast<uint64_t>(step);
            reg(Reg::kRdi) += static_cast<uint64_t>(step);
            return true;
          case Opcode::kLodsq:
            if (!DataRead64(reg(Reg::kRsi), &v)) {
              return false;
            }
            reg(Reg::kRax) = v;
            reg(Reg::kRsi) += static_cast<uint64_t>(step);
            return true;
          case Opcode::kStosq:
            if (!DataWrite64(reg(Reg::kRdi), reg(Reg::kRax))) {
              return false;
            }
            reg(Reg::kRdi) += static_cast<uint64_t>(step);
            return true;
          case Opcode::kCmpsq: {
            uint64_t w;
            if (!DataRead64(reg(Reg::kRsi), &v) || !DataRead64(reg(Reg::kRdi), &w)) {
              return false;
            }
            SetFlagsSub(v, w);
            reg(Reg::kRsi) += static_cast<uint64_t>(step);
            reg(Reg::kRdi) += static_cast<uint64_t>(step);
            return true;
          }
          case Opcode::kScasq:
            if (!DataRead64(reg(Reg::kRdi), &v)) {
              return false;
            }
            SetFlagsSub(reg(Reg::kRax), v);
            reg(Reg::kRdi) += static_cast<uint64_t>(step);
            return true;
          default:
            return false;
        }
      };
      if (!in.rep) {
        pending_.deci_cycles += cost_.string_per_iter;
        one();
      } else {
        const bool conditional = in.op == Opcode::kCmpsq || in.op == Opcode::kScasq;
        // A corrupted or hostile image can enter a rep with an enormous
        // %rcx; bound the host-side loop by the run's step budget so the
        // interpreter always terminates (the run ends as kStepLimit).
        uint64_t iterations = 0;
        while (reg(Reg::kRcx) != 0 && !stopped_) {
          if (++iterations > max_steps_) {
            pending_.reason = StopReason::kStepLimit;
            stopped_ = true;
            break;
          }
          pending_.deci_cycles += cost_.string_per_iter;
          if (!one()) {
            break;
          }
          reg(Reg::kRcx) -= 1;
          if (conditional && !rflags_.zf) {  // repe semantics
            break;
          }
        }
      }
      break;
    }

    case Opcode::kBndcu: {
      uint64_t ea = EffectiveAddress(in.mem, rip_next);
      if (ea > bnd0_ub_) {
        RaiseException(ExceptionKind::kBoundRange, ea);
      }
      break;
    }
    case Opcode::kLoadBnd0:
      bnd0_ub_ = static_cast<uint64_t>(in.imm);
      break;

    case Opcode::kSpecFence:
      // Architecturally a serializing nop; the window-kill semantics live in
      // SpeculateWrongPath.
      break;
    case Opcode::kMaskRI: {
      uint64_t v = reg(in.r1);
      reg(in.r1) = v > static_cast<uint64_t>(in.imm) ? 0 : v;
      break;
    }

    case Opcode::kNumOpcodes:
      RaiseException(ExceptionKind::kInvalidOpcode, rip_);
      break;
  }

  if (stopped_) {
    return false;
  }
  rip_ = next;
  if (sample_pc_slot_ != nullptr) {
    sample_pc_slot_->store(next, std::memory_order_relaxed);
  }
  if (heartbeat_slot_ != nullptr) {
    // Watchdog heartbeat: pending_.instructions is never zero here (it was
    // incremented when this instruction retired), so a nonzero-and-frozen
    // slot across ticks distinguishes "wedged" from "idle" (slot == 0).
    heartbeat_slot_->store(pending_.instructions, std::memory_order_relaxed);
  }
  if (step_observer_) {
    step_observer_(*this);
  }
  return true;
}

// Simulates the wrong path of a mispredicted conditional branch. Everything
// runs against copies (registers, flags, %bnd0) and a store overlay; the
// only effects that survive are the SideChannelObserver's cache-line
// records and the spec.* counters. Accounting deliberately never touches
// pending_: a run with the window enabled must produce a RunResult
// bit-identical to the same run with it disabled (the fuzz-differential
// spec axis pins this down).
//
// Transient semantics that differ from the architectural path:
//  - kSpecFence kills the window (that IS the spec-barrier mitigation);
//  - a failing kBndcu defers its #BR past the window instead of trapping —
//    the dependent load still issues (the MPX transient bypass);
//  - nested kJcc follows the predictor (the machine is already speculating,
//    so it speculates again) and consumes window depth without rollback;
//  - faults (unmapped/forbidden translations, undecodable bytes) and
//    serializing/privileged/microcoded ops (hlt, int3, ud2, syscall,
//    sysret, wrmsr, bndmov, string ops) end the window silently.
void Cpu::SpeculateWrongPath(uint64_t wrong_rip) {
  ++spec_stats_.windows_opened;

  // Shadow state: wrong-path execution sees the architectural state at the
  // branch, plus its own stores (via the overlay, a model of the store
  // buffer — never drained to memory).
  uint64_t regs[kNumGpRegs];
  for (int i = 0; i < kNumGpRegs; ++i) regs[i] = regs_[i];
  RFlags fl = rflags_;
  uint64_t bnd0 = bnd0_ub_;
  uint64_t rip = wrong_rip;
  std::unordered_map<uint64_t, uint64_t> overlay;

  const PageTable& pt = image_->page_table();
  const PhysMem& phys = image_->phys();
  const bool smap = mmu_.smap();
  const bool smep = mmu_.smep();

  // Side-effect-free data translation: straight page-table walk + physical
  // read, bypassing Mmu::Read64 (no TLB counters, no fault record, no
  // destructive-code-read byte-smashing, no XnR disclosure handling).
  auto data_paddr = [&](uint64_t vaddr, uint64_t* paddr) -> bool {
    const std::optional<Pte> pte = pt.Lookup(vaddr);
    if (!pte || !pte->flags.present) return false;
    if (smap && pte->flags.user) return false;
    const uint64_t frame = pte->has_data_frame ? pte->data_frame : pte->frame;
    *paddr = (frame << kPageShift) | PageOffset(vaddr);
    return true;
  };
  auto touch = [&](uint64_t paddr) {
    if (side_channel_ != nullptr) {
      side_channel_->Touch(paddr);
    }
    ++spec_stats_.lines_touched;
  };
  auto shadow_read = [&](uint64_t vaddr, uint64_t* value) -> bool {
    uint64_t p_lo, p_hi;
    if (!data_paddr(vaddr, &p_lo) || !data_paddr(vaddr + 7, &p_hi)) {
      return false;
    }
    touch(p_lo);
    touch(p_hi);
    auto it = overlay.find(vaddr);
    if (it != overlay.end()) {
      *value = it->second;
      return true;
    }
    if (PageOffset(vaddr) <= kPageSize - 8) {
      *value = phys.Read64(p_lo);
    } else {
      uint64_t v = 0;
      for (uint64_t i = 0; i < 8; ++i) {
        uint64_t p;
        if (!data_paddr(vaddr + i, &p)) return false;
        v |= static_cast<uint64_t>(phys.Read8(p)) << (8 * i);
      }
      *value = v;
    }
    return true;
  };
  auto shadow_write = [&](uint64_t vaddr, uint64_t value) -> bool {
    uint64_t p;
    if (!data_paddr(vaddr, &p)) return false;
    touch(p);
    overlay[vaddr] = value;
    return true;
  };
  // Wrong-path instruction fetch: present, executable, SMEP-permitted
  // pages only; fetches always use the instruction frame (not the XnR data
  // frame) and leave no I-cache record — the observer models the D-side
  // channel only.
  auto shadow_fetch = [&](uint64_t vaddr, uint8_t* buf) -> size_t {
    size_t n = 0;
    for (; n < 16; ++n) {
      const std::optional<Pte> pte = pt.Lookup(vaddr + n);
      if (!pte || !pte->flags.present || pte->flags.nx) break;
      if (smep && pte->flags.user) break;
      buf[n] = phys.Read8((pte->frame << kPageShift) | PageOffset(vaddr + n));
    }
    return n;
  };

  auto flags_sub = [&](uint64_t a, uint64_t b) {
    const uint64_t res = a - b;
    fl.zf = res == 0;
    fl.sf = (res >> 63) != 0;
    fl.cf = a < b;
    fl.of = (((a ^ b) & (a ^ res)) >> 63) != 0;
  };
  auto flags_add = [&](uint64_t a, uint64_t b) {
    const uint64_t res = a + b;
    fl.zf = res == 0;
    fl.sf = (res >> 63) != 0;
    fl.cf = res < a;
    fl.of = ((~(a ^ b) & (a ^ res)) >> 63) != 0;
  };
  auto flags_logic = [&](uint64_t result) {
    fl.zf = result == 0;
    fl.sf = (result >> 63) != 0;
    fl.cf = false;
    fl.of = false;
  };

  auto r = [&](Reg rg) -> uint64_t& { return regs[RegIndex(rg)]; };
  auto ea_of = [&](const MemOperand& mem, uint64_t rip_next) -> uint64_t {
    if (mem.rip_relative) {
      return rip_next + static_cast<uint64_t>(mem.disp);
    }
    uint64_t ea = static_cast<uint64_t>(mem.disp);
    if (mem.has_base()) ea += regs[RegIndex(mem.base)];
    if (mem.has_index()) ea += regs[RegIndex(mem.index)] * mem.scale;
    return ea;
  };

  for (uint32_t depth = 0; depth < options_.spec.window_depth; ++depth) {
    if (rip == kReturnSentinel) {
      break;  // the wrong path speculated out of the kernel
    }
    uint8_t buf[16];
    const size_t fetched = shadow_fetch(rip, buf);
    if (fetched == 0) {
      ++spec_stats_.transient_faults;
      break;
    }
    auto dec = DecodeInstruction(buf, fetched, 0);
    if (!dec.ok()) {
      ++spec_stats_.transient_faults;
      break;
    }
    const Instruction& in = dec->inst;
    const uint64_t rip_next = rip + dec->size;
    uint64_t next = rip_next;
    ++spec_stats_.wrong_path_insts;

    bool kill = false;
    auto mem_fault = [&]() {
      ++spec_stats_.transient_faults;
      kill = true;
    };
    switch (in.op) {
      case Opcode::kNop:
        break;
      case Opcode::kSpecFence:
        ++spec_stats_.fence_kills;
        kill = true;
        break;
      case Opcode::kHlt:
      case Opcode::kInt3:
      case Opcode::kUd2:
      case Opcode::kSyscall:
      case Opcode::kSysret:
      case Opcode::kWrmsr:
      case Opcode::kLoadBnd0:
      case Opcode::kMovsq:
      case Opcode::kLodsq:
      case Opcode::kStosq:
      case Opcode::kCmpsq:
      case Opcode::kScasq:
        kill = true;
        break;

      case Opcode::kMovRR:
        r(in.r1) = r(in.r2);
        break;
      case Opcode::kMovRI:
        r(in.r1) = static_cast<uint64_t>(in.imm);
        break;
      case Opcode::kLoad: {
        uint64_t v;
        if (!shadow_read(ea_of(in.mem, rip_next), &v)) {
          mem_fault();
          break;
        }
        r(in.r1) = v;
        break;
      }
      case Opcode::kStore:
        if (!shadow_write(ea_of(in.mem, rip_next), r(in.r1))) mem_fault();
        break;
      case Opcode::kStoreImm:
        if (!shadow_write(ea_of(in.mem, rip_next), static_cast<uint64_t>(in.imm))) {
          mem_fault();
        }
        break;
      case Opcode::kLea:
        r(in.r1) = ea_of(in.mem, rip_next);
        break;
      case Opcode::kPushR:
        r(Reg::kRsp) -= 8;
        if (!shadow_write(r(Reg::kRsp), r(in.r1))) mem_fault();
        break;
      case Opcode::kPopR: {
        uint64_t v;
        if (!shadow_read(r(Reg::kRsp), &v)) {
          mem_fault();
          break;
        }
        r(in.r1) = v;
        r(Reg::kRsp) += 8;
        break;
      }
      case Opcode::kPushfq:
        r(Reg::kRsp) -= 8;
        if (!shadow_write(r(Reg::kRsp), fl.ToBits())) mem_fault();
        break;
      case Opcode::kPopfq: {
        uint64_t v;
        if (!shadow_read(r(Reg::kRsp), &v)) {
          mem_fault();
          break;
        }
        fl.FromBits(v);
        r(Reg::kRsp) += 8;
        break;
      }

      case Opcode::kAddRR:
        flags_add(r(in.r1), r(in.r2));
        r(in.r1) += r(in.r2);
        break;
      case Opcode::kAddRI:
        flags_add(r(in.r1), static_cast<uint64_t>(in.imm));
        r(in.r1) += static_cast<uint64_t>(in.imm);
        break;
      case Opcode::kSubRR:
        flags_sub(r(in.r1), r(in.r2));
        r(in.r1) -= r(in.r2);
        break;
      case Opcode::kSubRI:
        flags_sub(r(in.r1), static_cast<uint64_t>(in.imm));
        r(in.r1) -= static_cast<uint64_t>(in.imm);
        break;
      case Opcode::kAndRR:
        r(in.r1) &= r(in.r2);
        flags_logic(r(in.r1));
        break;
      case Opcode::kAndRI:
        r(in.r1) &= static_cast<uint64_t>(in.imm);
        flags_logic(r(in.r1));
        break;
      case Opcode::kOrRR:
        r(in.r1) |= r(in.r2);
        flags_logic(r(in.r1));
        break;
      case Opcode::kOrRI:
        r(in.r1) |= static_cast<uint64_t>(in.imm);
        flags_logic(r(in.r1));
        break;
      case Opcode::kXorRR:
        r(in.r1) ^= r(in.r2);
        flags_logic(r(in.r1));
        break;
      case Opcode::kXorRI:
        r(in.r1) ^= static_cast<uint64_t>(in.imm);
        flags_logic(r(in.r1));
        break;
      case Opcode::kShlRI: {
        const uint64_t k = static_cast<uint64_t>(in.imm) & 63;
        uint64_t v = r(in.r1);
        fl.cf = k > 0 && ((v >> (64 - k)) & 1) != 0;
        v <<= k;
        r(in.r1) = v;
        fl.zf = v == 0;
        fl.sf = (v >> 63) != 0;
        fl.of = false;
        break;
      }
      case Opcode::kShrRI: {
        const uint64_t k = static_cast<uint64_t>(in.imm) & 63;
        uint64_t v = r(in.r1);
        fl.cf = k > 0 && ((v >> (k - 1)) & 1) != 0;
        v >>= k;
        r(in.r1) = v;
        fl.zf = v == 0;
        fl.sf = false;
        fl.of = false;
        break;
      }
      case Opcode::kImulRR: {
        const uint64_t v = r(in.r1) * r(in.r2);
        r(in.r1) = v;
        flags_logic(v);
        break;
      }
      case Opcode::kCmpRR:
        flags_sub(r(in.r1), r(in.r2));
        break;
      case Opcode::kCmpRI:
        flags_sub(r(in.r1), static_cast<uint64_t>(in.imm));
        break;
      case Opcode::kTestRR:
        flags_logic(r(in.r1) & r(in.r2));
        break;
      case Opcode::kMaskRI: {
        const uint64_t v = r(in.r1);
        r(in.r1) = v > static_cast<uint64_t>(in.imm) ? 0 : v;
        break;
      }

      case Opcode::kAddRM: {
        uint64_t v;
        if (!shadow_read(ea_of(in.mem, rip_next), &v)) {
          mem_fault();
          break;
        }
        flags_add(r(in.r1), v);
        r(in.r1) += v;
        break;
      }
      case Opcode::kCmpRM: {
        uint64_t v;
        if (!shadow_read(ea_of(in.mem, rip_next), &v)) {
          mem_fault();
          break;
        }
        flags_sub(r(in.r1), v);
        break;
      }
      case Opcode::kCmpMI: {
        uint64_t v;
        if (!shadow_read(ea_of(in.mem, rip_next), &v)) {
          mem_fault();
          break;
        }
        flags_sub(v, static_cast<uint64_t>(in.imm));
        break;
      }
      case Opcode::kXorMR: {
        const uint64_t ea = ea_of(in.mem, rip_next);
        uint64_t v;
        if (!shadow_read(ea, &v)) {
          mem_fault();
          break;
        }
        v ^= r(in.r1);
        flags_logic(v);
        if (!shadow_write(ea, v)) mem_fault();
        break;
      }

      case Opcode::kJmpRel:
        next = rip_next + static_cast<uint64_t>(in.imm);
        break;
      case Opcode::kJcc:
        // Nested speculation: follow the predictor (not the shadow flags)
        // and consume window depth; the bounded window never unwinds
        // nested levels individually.
        ++spec_stats_.nested_branches;
        if (predictor_.PredictTaken(rip)) {
          next = rip_next + static_cast<uint64_t>(in.imm);
        }
        break;
      case Opcode::kJmpR:
        next = r(in.r1);
        break;
      case Opcode::kJmpM: {
        uint64_t v;
        if (!shadow_read(ea_of(in.mem, rip_next), &v)) {
          mem_fault();
          break;
        }
        next = v;
        break;
      }
      case Opcode::kCallRel:
        r(Reg::kRsp) -= 8;
        if (!shadow_write(r(Reg::kRsp), rip_next)) {
          mem_fault();
          break;
        }
        next = rip_next + static_cast<uint64_t>(in.imm);
        break;
      case Opcode::kCallR:
        r(Reg::kRsp) -= 8;
        if (!shadow_write(r(Reg::kRsp), rip_next)) {
          mem_fault();
          break;
        }
        next = r(in.r1);
        break;
      case Opcode::kCallM: {
        uint64_t v;
        if (!shadow_read(ea_of(in.mem, rip_next), &v)) {
          mem_fault();
          break;
        }
        r(Reg::kRsp) -= 8;
        if (!shadow_write(r(Reg::kRsp), rip_next)) {
          mem_fault();
          break;
        }
        next = v;
        break;
      }
      case Opcode::kRet: {
        uint64_t v;
        if (!shadow_read(r(Reg::kRsp), &v)) {
          mem_fault();
          break;
        }
        r(Reg::kRsp) += 8;
        next = v;
        break;
      }

      case Opcode::kBndcu: {
        const uint64_t ea = ea_of(in.mem, rip_next);
        if (ea > bnd0) {
          // The #BR is deferred to retirement — which never comes for a
          // wrong-path instruction. The dependent load still issues: this
          // is the MPX transient bypass.
          ++spec_stats_.transient_br_deferred;
        }
        break;
      }

      case Opcode::kNumOpcodes:
        kill = true;
        break;
    }
    if (kill) {
      break;
    }
    rip = next;
  }
  // Rollback: shadow registers, flags, and the store overlay are simply
  // dropped. Only the observer's line records (and these counters) remain.
}

bool Cpu::Step() {
  if (krx_handler_lo_ != 0 && rip_ >= krx_handler_lo_ && rip_ < krx_handler_hi_) {
    pending_.krx_violation = true;
  }
  Instruction in;
  uint8_t inst_size = 0;
  if (!FetchDecode(&in, &inst_size)) {
    return false;
  }
  return ExecuteInst(in, inst_size);
}

DecodedBlock Cpu::BuildBlock(uint64_t start) {
  DecodedBlock block;
  block.start = start;
  uint64_t rip = start;
  uint8_t buf[16];
  while (block.insts.size() < kMaxBlockInsts) {
    auto fetched = mmu_.FetchCode(rip, buf, sizeof(buf));
    if (!fetched.ok()) {
      break;
    }
    auto dec = DecodeInstruction(buf, *fetched, 0);
    if (!dec.ok()) {
      // Undecodable (or truncated-at-unmapped-boundary) bytes terminate the
      // block; execution reaching this %rip falls back to the canonical
      // single-step path, which raises the identical exception.
      break;
    }
    block.insts.push_back(PredecodedInst{dec->inst, dec->size});
    if (EndsBlock(dec->inst.op)) {
      break;
    }
    rip += dec->size;
  }
  return block;
}

bool Cpu::PreemptDue(uint64_t step) {
  if (preempt_.load(std::memory_order_acquire)) {
    return true;
  }
  return deadline_armed_ && (step & 1023) == 0 &&
         std::chrono::steady_clock::now() >= deadline_;
}

RunResult Cpu::RunCached() {
  uint64_t steps = 0;
  while (steps < max_steps_) {
    if (PreemptDue(0)) {  // block boundary: preempt + deadline check
      pending_.reason = StopReason::kDeadlineExceeded;
      return pending_;
    }
    const uint64_t generation = image_->text_generation();
    const DecodedBlock* block = cache_.Lookup(rip_, generation);
    const bool replaying = block != nullptr;
    if (block == nullptr) {
      DecodedBlock built = BuildBlock(rip_);
      if (built.insts.empty()) {
        // Unfetchable or undecodable bytes at %rip: take the canonical
        // single-step path so the fault surfaces exactly as uncached.
        if (!Step()) {
          return pending_;
        }
        ++steps;
        continue;
      }
      block = cache_.Insert(std::move(built));
    }
    uint64_t executed = 0;
    bool stop = false;
    for (const PredecodedInst& pi : block->insts) {
      if (steps >= max_steps_) {
        break;
      }
      if (krx_handler_lo_ != 0 && rip_ >= krx_handler_lo_ && rip_ < krx_handler_hi_) {
        pending_.krx_violation = true;
      }
      ++steps;
      ++executed;
      if (!ExecuteInst(pi.inst, pi.size)) {
        stop = true;
        break;
      }
      // A store into the code region (self-modifying code through a synonym,
      // a module load triggered by the run, ...) bumped the image's text
      // generation: the rest of this predecode is stale, re-decode at %rip.
      if (image_->text_generation() != generation) {
        break;
      }
    }
    if (replaying) {
      cache_.CountReplayed(executed);
    }
    if (stop) {
      return pending_;
    }
  }
  pending_.reason = StopReason::kStepLimit;
  return pending_;
}

RunResult Cpu::Run(const RunOptions& options, bool entered_via_call) {
  KRX_TRACE_SPAN_SCOPED("cpu.run");
  RunResult result = RunInner(options, entered_via_call);
  if (sample_pc_slot_ != nullptr) {
    // Idle marker: between runs the profiler must not re-attribute the last
    // guest %rip of a finished run.
    sample_pc_slot_->store(0, std::memory_order_relaxed);
  }
  if (heartbeat_slot_ != nullptr) {
    // Idle marker: the watchdog must not report a lockup between runs.
    heartbeat_slot_->store(0, std::memory_order_relaxed);
  }
  PublishRunTelemetry(result);
  return result;
}

void Cpu::PublishRunTelemetry(const RunResult& result) {
#if defined(KRX_TELEMETRY_DISABLED)
  (void)result;
#else
  // Per-run speculation deltas (stats are cumulative per Cpu, like the
  // block-cache counters). Computed up front: both the metrics and trace
  // branches consume them.
  const uint64_t spec_windows_delta =
      spec_stats_.windows_opened - published_spec_stats_.windows_opened;
  const uint64_t spec_wrong_delta =
      spec_stats_.wrong_path_insts - published_spec_stats_.wrong_path_insts;
  if (telemetry::MetricsEnabled()) {
    KRX_COUNTER_ADD("cpu.runs", 1);
    KRX_COUNTER_ADD("cpu.instructions", result.instructions);
    KRX_COUNTER_ADD("cpu.checks.bndcu", result.mix.bndcu);
    if (result.reason == StopReason::kException) {
      telemetry::MetricsRegistry::Global()
          .GetCounter(std::string("cpu.trap.") + ExceptionKindName(result.exception))
          .Increment();
    }
    if (result.krx_violation) {
      KRX_COUNTER_ADD("cpu.krx_violations", 1);
    }
    if (result.xnr_violation) {
      KRX_COUNTER_ADD("cpu.xnr_violations", 1);
    }
    if (result.reason == StopReason::kDeadlineExceeded) {
      KRX_COUNTER_ADD("cpu.deadline_exceeded", 1);
    }
    const BlockCacheStats& s = cache_.stats();
    KRX_COUNTER_ADD("cpu.block_cache.hits", s.hits - published_cache_stats_.hits);
    KRX_COUNTER_ADD("cpu.block_cache.misses", s.misses - published_cache_stats_.misses);
    KRX_COUNTER_ADD("cpu.block_cache.flushes", s.flushes - published_cache_stats_.flushes);
    KRX_COUNTER_ADD("cpu.block_cache.decoded_insts",
                    s.decoded_insts - published_cache_stats_.decoded_insts);
    KRX_COUNTER_ADD("cpu.block_cache.replayed_insts",
                    s.replayed_insts - published_cache_stats_.replayed_insts);
    published_cache_stats_ = s;
    const SuperblockStats& sb = sb_cache_.stats();
    KRX_COUNTER_ADD("sb.chains_built", sb.chains_built - published_sb_stats_.chains_built);
    KRX_COUNTER_ADD("sb.blocks_chained",
                    sb.blocks_chained - published_sb_stats_.blocks_chained);
    KRX_COUNTER_ADD("sb.predecoded_insts",
                    sb.predecoded_insts - published_sb_stats_.predecoded_insts);
    KRX_COUNTER_ADD("sb.entries", sb.entries - published_sb_stats_.entries);
    KRX_COUNTER_ADD("sb.chain_breaks", sb.chain_breaks - published_sb_stats_.chain_breaks);
    KRX_COUNTER_ADD("sb.flushes", sb.flushes - published_sb_stats_.flushes);
    KRX_COUNTER_ADD("sb.executed_insts",
                    sb.executed_insts - published_sb_stats_.executed_insts);
    KRX_COUNTER_ADD("sb.fastpath_insts",
                    sb.fastpath_insts - published_sb_stats_.fastpath_insts);
    KRX_COUNTER_ADD("sb.tlb_hits", sb.tlb_hits - published_sb_stats_.tlb_hits);
    KRX_COUNTER_ADD("sb.tlb_misses", sb.tlb_misses - published_sb_stats_.tlb_misses);
    published_sb_stats_ = sb;
    if (options_.spec.enabled) {
      const SpecStats& sp = spec_stats_;
      KRX_COUNTER_ADD("spec.predictions",
                      sp.predictions - published_spec_stats_.predictions);
      KRX_COUNTER_ADD("spec.mispredictions",
                      sp.mispredictions - published_spec_stats_.mispredictions);
      KRX_COUNTER_ADD("spec.windows", spec_windows_delta);
      KRX_COUNTER_ADD("spec.wrong_path_insts", spec_wrong_delta);
      KRX_COUNTER_ADD("spec.nested_branches",
                      sp.nested_branches - published_spec_stats_.nested_branches);
      KRX_COUNTER_ADD("spec.fence_kills",
                      sp.fence_kills - published_spec_stats_.fence_kills);
      KRX_COUNTER_ADD("spec.transient_br_deferred",
                      sp.transient_br_deferred - published_spec_stats_.transient_br_deferred);
      KRX_COUNTER_ADD("spec.transient_faults",
                      sp.transient_faults - published_spec_stats_.transient_faults);
      KRX_COUNTER_ADD("spec.lines_touched",
                      sp.lines_touched - published_spec_stats_.lines_touched);
      published_spec_stats_ = sp;
    }
  }
  if (telemetry::TraceEnabled()) {
    if (options_.spec.enabled && spec_windows_delta > 0) {
      // One aggregated misspeculation span per run — the per-instruction
      // discipline (DESIGN.md §11) rules out per-window events.
      telemetry::EmitEvent(telemetry::TraceEventType::kSpecWindow, "spec_windows",
                           spec_windows_delta, spec_wrong_delta);
    }
    if (result.reason == StopReason::kException) {
      telemetry::EmitEvent(telemetry::TraceEventType::kCpuTrap,
                           ExceptionKindName(result.exception),
                           static_cast<uint64_t>(result.exception), result.fault_addr);
    }
    if (result.krx_violation) {
      telemetry::EmitEvent(telemetry::TraceEventType::kKrxViolation, "krx_violation",
                           result.fault_addr, 0);
    }
    telemetry::EmitEvent(telemetry::TraceEventType::kCheckOutcome, "run_checks",
                         result.mix.bndcu, result.mix.loads);
  }
#endif
}

RunResult Cpu::RunInner(const RunOptions& options, bool entered_via_call) {
  pending_ = RunResult();
  stopped_ = false;
  max_steps_ = options.max_steps;
  // A preempt request targets the in-flight run; one landing between runs
  // must not kill the next run before it starts.
  preempt_.store(false, std::memory_order_release);
  deadline_armed_ = options.deadline_us > 0;
  if (deadline_armed_) {
    deadline_ = std::chrono::steady_clock::now() + std::chrono::microseconds(options.deadline_us);
  }
  const bool charge = options.mode_switch == RunOptions::ModeSwitch::kAuto
                          ? entered_via_call
                          : options.mode_switch == RunOptions::ModeSwitch::kCharge;
  if (charge) {
    pending_.deci_cycles += cost_.mode_switch;
    if (options_.mpx_enabled) {
      pending_.deci_cycles += cost_.mpx_mode_switch_extra;
    }
  }
  // The step observer must fire at every single-stepped instruction
  // boundary; XnR turns fetch faults into the defense mechanism itself;
  // destructive code reads mutate text bytes without a paging event; and
  // the speculation window must observe every conditional branch as it
  // retires. All four force the canonical fetch-decode-execute path,
  // whichever engine the run asked for.
  const bool cacheable = step_observer_ == nullptr && image_->xnr() == nullptr &&
                         !image_->destructive_code_reads() && !options_.spec.enabled;
  ExecEngine engine = options.engine;
  if (engine == ExecEngine::kAuto) {
    engine = options.use_block_cache ? ExecEngine::kBlockCache : ExecEngine::kSingleStep;
  }
  if (!cacheable) {
    engine = ExecEngine::kSingleStep;
  }
  if (engine == ExecEngine::kSuperblock) {
    return RunSuperblocked();
  }
  if (engine == ExecEngine::kBlockCache) {
    return RunCached();
  }
  for (uint64_t i = 0; i < max_steps_; ++i) {
    if (PreemptDue(i)) {
      pending_.reason = StopReason::kDeadlineExceeded;
      return pending_;
    }
    if (!Step()) {
      return pending_;
    }
  }
  pending_.reason = StopReason::kStepLimit;
  return pending_;
}

RunResult Cpu::CallFunctionImpl(uint64_t entry, const std::vector<uint64_t>& args,
                                const RunOptions& options) {
  static constexpr Reg kArgRegs[6] = {Reg::kRdi, Reg::kRsi, Reg::kRdx,
                                      Reg::kRcx, Reg::kR8,  Reg::kR9};
  auto host_error = [](std::string message) {
    RunResult r;
    r.reason = StopReason::kHostError;
    r.host_error = std::move(message);
    return r;
  };
  if (!init_error_.empty()) {
    return host_error(init_error_);
  }
  if (args.size() > 6) {
    return host_error("CallFunction supports at most 6 register arguments, got " +
                      std::to_string(args.size()));
  }
  for (size_t i = 0; i < args.size(); ++i) {
    set_reg(kArgRegs[i], args[i]);
  }
  // Kernel entry: fresh stack top, sentinel return address. %r11 carries a
  // harness pseudo-tripwire so decoy-instrumented callees have a value to
  // store (the real syscall entry stub is itself instrumented).
  set_reg(Reg::kRsp, stack_top_ - 24);
  Status sentinel = mmu_.Write64(reg(Reg::kRsp), kReturnSentinel);
  if (!sentinel.ok()) {
    return host_error("sentinel push failed: " + sentinel.ToString());
  }
  set_reg(Reg::kR11, kReturnSentinel);
  bnd0_ub_ = options_.mpx_enabled ? image_->krx_edata() : ~0ULL;
  rip_ = entry;
  return Run(options, /*entered_via_call=*/true);
}

// The public entry points below are the quiescence safe points: each one
// holds the gate for the whole run and acquires it exactly once (nested
// acquisition would deadlock against a waiting epoch, which has writer
// priority). Symbol resolution happens inside the gated scope so a name
// resolves against the layout the run will actually execute — resolving
// before the gate could race a concurrent epoch and hand back a stale
// address.

RunResult Cpu::CallFunction(uint64_t entry, const std::vector<uint64_t>& args,
                            const RunOptions& options) {
  QuiesceRunScope scope(quiesce_gate_);
  return CallFunctionImpl(entry, args, options);
}

RunResult Cpu::CallFunction(const std::string& symbol, const std::vector<uint64_t>& args,
                            const RunOptions& options) {
  QuiesceRunScope scope(quiesce_gate_);
  auto addr = image_->symbols().AddressOf(symbol);
  if (!addr.ok()) {
    RunResult r;
    r.reason = StopReason::kHostError;
    r.host_error = "unresolvable entry symbol '" + symbol + "': " + addr.status().ToString();
    return r;
  }
  return CallFunctionImpl(*addr, args, options);
}

RunResult Cpu::RunAt(uint64_t rip, const RunOptions& options) {
  QuiesceRunScope scope(quiesce_gate_);
  rip_ = rip;
  return Run(options, /*entered_via_call=*/false);
}

}  // namespace krx
