#include "src/plugin/ra_decoy_pass.h"

#include <cstddef>

#include "src/ir/liveness.h"
#include "src/isa/opcode.h"

namespace krx {
namespace {

Instruction Tagged(Instruction inst) {
  inst.origin = InstOrigin::kRaProtection;
  return inst;
}

// A NOP-like instruction whose immediate embeds an int3 opcode byte at
// kTripwireByteOffset. Executing it only clobbers %r11 (dead at every
// insertion point the pass picks); jumping *into* it raises #BP.
Instruction MakePhantomInstruction(Rng& rng, int32_t label) {
  uint64_t imm = (rng.Next() & ~0xFFULL) | static_cast<uint64_t>(Opcode::kInt3);
  Instruction phantom = Instruction::MovRI(kRangeCheckScratch, static_cast<int64_t>(imm));
  phantom.origin = InstOrigin::kPhantomInst;
  phantom.inst_label = label;
  return phantom;
}

// lea tripwire(%rip), %r11 — passes the decoy address to the callee.
Instruction MakeTripwireLea(int32_t label) {
  Instruction lea = Instruction::Lea(kRangeCheckScratch, MemOperand::RipRel(0));
  lea.mem_label = label;
  lea.mem_label_byte_off = kTripwireByteOffset;
  lea.origin = InstOrigin::kRaProtection;
  return lea;
}

// Legal phantom-instruction insertion points: any position with an in-block
// predecessor that (i) is not pass-inserted instrumentation and (ii) does
// not produce a live %r11, and that is not past a block terminator.
bool PositionIsLegal(const BasicBlock& b, size_t idx) {
  if (idx == 0 || idx > b.insts.size()) {
    return false;
  }
  const Instruction& prev = b.insts[idx - 1];
  if (prev.IsTerminator()) {
    return false;
  }
  // SFI range checks (cmp/ja, with their flag save/restore) stay adjacent:
  // the verifier proves a read confined only by its check's exact shape.
  if (prev.IsRangeCheck()) {
    return false;
  }
  // Inserting directly before a tripwire lea is always safe: the lea
  // redefines %r11 anyway. (This keeps pure-trampoline functions, whose
  // only original instruction is a tail jmp, instrumentable.)
  if (idx < b.insts.size() && b.insts[idx].mem_label >= 0) {
    return true;
  }
  if (prev.origin == InstOrigin::kRaProtection || prev.origin == InstOrigin::kPhantomInst) {
    return false;  // don't split prologue/epilogue sequences
  }
  if (InstructionWritesReg(prev, kRangeCheckScratch)) {
    return false;  // would split a producer/consumer pair (RC lea, call-site lea)
  }
  return true;
}

}  // namespace

Status ApplyRaDecoyPass(Function& fn, Rng& rng, DecoyStats* stats) {
  // "The exact ordering is decided randomly at compile time" (§5.2.2).
  const bool decoy_on_top = rng.NextBool(0.5);  // variant (a)

  DecoyStats local;
  if (decoy_on_top) {
    ++local.variant_a_functions;
  } else {
    ++local.variant_b_functions;
  }

  std::vector<int32_t> pending_phantom_labels;

  bool first_block = true;
  for (BasicBlock& b : fn.blocks()) {
    std::vector<Instruction> out;
    out.reserve(b.insts.size() + 6);
    if (first_block) {
      // Prologue (Figure 3): store {real, decoy} in the chosen order.
      if (decoy_on_top) {
        out.push_back(Tagged(Instruction::PushR(kRangeCheckScratch)));
      } else {
        out.push_back(Tagged(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRsp, 0))));
        out.push_back(Tagged(Instruction::Store(MemOperand::Base(Reg::kRsp, 0),
                                                kRangeCheckScratch)));
        out.push_back(Tagged(Instruction::PushR(Reg::kRax)));
      }
      first_block = false;
    }
    for (const Instruction& inst : b.insts) {
      if (inst.IsCall()) {
        // Pair the return site with a fresh tripwire, passed via %r11.
        int32_t label = fn.AllocateLabel();
        pending_phantom_labels.push_back(label);
        out.push_back(MakeTripwireLea(label));
        out.push_back(inst);
        ++local.call_sites;
        continue;
      }
      if (inst.op == Opcode::kRet) {
        // Epilogue: consume the {real, decoy} pair, return through the
        // real address.
        if (decoy_on_top) {
          out.push_back(Tagged(Instruction::AddRI(Reg::kRsp, 8)));
          out.push_back(inst);
        } else {
          out.push_back(Tagged(Instruction::PopR(kRangeCheckScratch)));
          out.push_back(Tagged(Instruction::AddRI(Reg::kRsp, 8)));
          Instruction jmp = Tagged(Instruction::JmpR(kRangeCheckScratch));
          jmp.origin = InstOrigin::kRaProtection;
          out.push_back(jmp);
        }
        continue;
      }
      if (inst.op == Opcode::kJmpRel && inst.target_symbol >= 0) {
        // Tail call: drop this frame's decoy slot, then pass a fresh
        // tripwire for the new callee.
        if (decoy_on_top) {
          out.push_back(Tagged(Instruction::AddRI(Reg::kRsp, 8)));
        } else {
          out.push_back(Tagged(Instruction::PopR(kDecoyScratch)));
          out.push_back(Tagged(Instruction::AddRI(Reg::kRsp, 8)));
          out.push_back(Tagged(Instruction::PushR(kDecoyScratch)));
        }
        int32_t label = fn.AllocateLabel();
        pending_phantom_labels.push_back(label);
        out.push_back(MakeTripwireLea(label));
        out.push_back(inst);
        ++local.call_sites;
        continue;
      }
      out.push_back(inst);
    }
    b.insts = std::move(out);
  }

  // Randomly place one phantom instruction per call site in the routine's
  // code stream. Code-block permutation (which runs after this pass) then
  // dissociates tripwires from their return sites.
  for (int32_t label : pending_phantom_labels) {
    std::vector<std::pair<size_t, size_t>> legal;  // (layout idx, inst idx)
    for (size_t bi = 0; bi < fn.blocks().size(); ++bi) {
      const BasicBlock& b = fn.blocks()[bi];
      for (size_t j = 1; j <= b.insts.size(); ++j) {
        if (PositionIsLegal(b, j)) {
          legal.emplace_back(bi, j);
        }
      }
    }
    KRX_CHECK(!legal.empty());
    auto [bi, j] = legal[rng.NextBelow(legal.size())];
    BasicBlock& b = fn.blocks()[bi];
    b.insts.insert(b.insts.begin() + static_cast<ptrdiff_t>(j),
                   MakePhantomInstruction(rng, label));
    ++local.phantom_insts;
  }

  if (stats != nullptr) {
    stats->call_sites += local.call_sites;
    stats->phantom_insts += local.phantom_insts;
    stats->variant_a_functions += local.variant_a_functions;
    stats->variant_b_functions += local.variant_b_functions;
  }
  return fn.Validate();
}

}  // namespace krx
