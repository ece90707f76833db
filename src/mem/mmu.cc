#include "src/mem/mmu.h"

namespace krx {

void PageTable::Override(uint64_t vpage) {
  const uint64_t i = DirectIndex(vpage);
  if (i < direct_.pages) {
    overridden_[i >> 6] |= 1ULL << (i & 63);
  }
}

void PageTable::Map(uint64_t vaddr, uint64_t frame, PteFlags flags) {
  const uint64_t vpage = vaddr >> kPageShift;
  entries_[vpage] = Pte{frame, flags};
  Override(vpage);
  BumpGeneration();
}

void PageTable::Unmap(uint64_t vaddr) {
  const uint64_t vpage = vaddr >> kPageShift;
  entries_.erase(vpage);
  Override(vpage);
  BumpGeneration();
}

std::optional<Pte> PageTable::Lookup(uint64_t vaddr) const {
  const uint64_t vpage = vaddr >> kPageShift;
  const uint64_t i = DirectIndex(vpage);
  if (i < direct_.pages && !Overridden(i)) {
    return Pte{i, direct_.flags};
  }
  auto it = entries_.find(vpage);
  if (it == entries_.end()) {
    return std::nullopt;
  }
  return it->second;
}

Pte* PageTable::LookupMutable(uint64_t vaddr) {
  const uint64_t vpage = vaddr >> kPageShift;
  const uint64_t i = DirectIndex(vpage);
  if (i < direct_.pages && !Overridden(i)) {
    Map(vaddr, i, direct_.flags);  // an explicit entry, so the edit sticks
  }
  auto it = entries_.find(vpage);
  if (it == entries_.end()) {
    return nullptr;
  }
  BumpGeneration();
  return &it->second;
}

void PageTable::MapRange(uint64_t vaddr, uint64_t first_frame, uint64_t num_pages,
                         PteFlags flags) {
  KRX_CHECK(PageOffset(vaddr) == 0);
  for (uint64_t i = 0; i < num_pages; ++i) {
    Map(vaddr + i * kPageSize, first_frame + i, flags);
  }
}

void PageTable::UnmapRange(uint64_t vaddr, uint64_t num_pages) {
  KRX_CHECK(PageOffset(vaddr) == 0);
  for (uint64_t i = 0; i < num_pages; ++i) {
    Unmap(vaddr + i * kPageSize);
  }
}

void PageTable::MapDirect(uint64_t vaddr, uint64_t num_frames, PteFlags flags) {
  KRX_CHECK(PageOffset(vaddr) == 0);
  KRX_CHECK(direct_.pages == 0);
  direct_ = DirectRule{vaddr >> kPageShift, num_frames, flags};
  overridden_.assign((num_frames + 63) / 64, 0);
  BumpGeneration();
}

void PageTable::ResetToDirect(uint64_t vaddr, uint64_t num_pages) {
  KRX_CHECK(PageOffset(vaddr) == 0);
  // Pages that already follow the rule are only read: a Cpu returning its
  // stack must not write table state other Cpus are translating through.
  bool changed = false;
  for (uint64_t p = 0; p < num_pages; ++p) {
    const uint64_t vpage = (vaddr >> kPageShift) + p;
    const uint64_t i = DirectIndex(vpage);
    KRX_CHECK(i < direct_.pages);
    if (Overridden(i)) {
      entries_.erase(vpage);
      overridden_[i >> 6] &= ~(1ULL << (i & 63));
      changed = true;
    }
  }
  if (changed) {
    BumpGeneration();
  }
}

std::vector<uint64_t> PageTable::FindWxViolations() const {
  auto is_wx = [](const PteFlags& f) { return f.present && f.writable && !f.nx; };
  std::vector<uint64_t> out;
  for (const auto& [vpage, pte] : entries_) {
    if (is_wx(pte.flags)) {
      out.push_back(vpage << kPageShift);
    }
  }
  if (is_wx(direct_.flags)) {
    for (uint64_t i = 0; i < direct_.pages; ++i) {
      if (!Overridden(i)) {
        out.push_back((direct_.first_vpage + i) << kPageShift);
      }
    }
  }
  return out;
}

Result<uint64_t> Mmu::Translate(uint64_t vaddr, Access access) {
  if (access == Access::kExec) {
    ++stats_.itlb_lookups;
  } else {
    ++stats_.dtlb_lookups;
  }
  const std::optional<Pte> pte = pt_->Lookup(vaddr);
  if (!pte || !pte->flags.present) {
    ++stats_.faults;
    last_fault_ = PageFault{FaultKind::kNotPresent, vaddr, access};
    return PermissionDeniedError("#PF: not present");
  }
  switch (access) {
    case Access::kRead:
      // x86: present implies readable — even for code pages. Execute-only
      // is not expressible here; this is the premise of the paper.
      if (smap_ && pte->flags.user) {
        ++stats_.faults;
        last_fault_ = PageFault{FaultKind::kSmapViolation, vaddr, access};
        return PermissionDeniedError("#PF: SMAP");
      }
      break;
    case Access::kWrite:
      if (!pte->flags.writable) {
        ++stats_.faults;
        last_fault_ = PageFault{FaultKind::kWriteProtect, vaddr, access};
        return PermissionDeniedError("#PF: write-protected");
      }
      if (smap_ && pte->flags.user) {
        ++stats_.faults;
        last_fault_ = PageFault{FaultKind::kSmapViolation, vaddr, access};
        return PermissionDeniedError("#PF: SMAP");
      }
      break;
    case Access::kExec:
      if (pte->flags.nx) {
        ++stats_.faults;
        last_fault_ = PageFault{FaultKind::kNxViolation, vaddr, access};
        return PermissionDeniedError("#PF: NX");
      }
      // SMEP: supervisor-mode fetch from a user page — the ret2usr killer.
      if (smep_ && pte->flags.user) {
        ++stats_.faults;
        last_fault_ = PageFault{FaultKind::kSmepViolation, vaddr, access};
        return PermissionDeniedError("#PF: SMEP");
      }
      break;
  }
  // Split ITLB/DTLB view (HideM baseline): data accesses may be steered to
  // a shadow frame.
  if (pte->has_data_frame && access != Access::kExec) {
    return (pte->data_frame << kPageShift) | PageOffset(vaddr);
  }
  return (pte->frame << kPageShift) | PageOffset(vaddr);
}

Result<uint64_t> Mmu::Read64(uint64_t vaddr) {
  // Handle potential page-boundary crossing bytewise when unaligned.
  if (PageOffset(vaddr) + 8 <= kPageSize) {
    auto pa = Translate(vaddr, Access::kRead);
    if (!pa.ok()) {
      return pa.status();
    }
    return phys_->Read64(*pa);
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    auto b = Read8(vaddr + static_cast<uint64_t>(i));
    if (!b.ok()) {
      return b.status();
    }
    v |= static_cast<uint64_t>(*b) << (8 * i);
  }
  return v;
}

Status Mmu::Write64(uint64_t vaddr, uint64_t value) {
  if (PageOffset(vaddr) + 8 <= kPageSize) {
    auto pa = Translate(vaddr, Access::kWrite);
    if (!pa.ok()) {
      return pa.status();
    }
    phys_->Write64(*pa, value);
    return Status::Ok();
  }
  for (int i = 0; i < 8; ++i) {
    KRX_RETURN_IF_ERROR(Write8(vaddr + static_cast<uint64_t>(i),
                               static_cast<uint8_t>(value >> (8 * i))));
  }
  return Status::Ok();
}

Result<uint8_t> Mmu::Read8(uint64_t vaddr) {
  auto pa = Translate(vaddr, Access::kRead);
  if (!pa.ok()) {
    return pa.status();
  }
  return phys_->Read8(*pa);
}

Status Mmu::Write8(uint64_t vaddr, uint8_t value) {
  auto pa = Translate(vaddr, Access::kWrite);
  if (!pa.ok()) {
    return pa.status();
  }
  phys_->Write8(*pa, value);
  return Status::Ok();
}

Result<uint64_t> Mmu::FetchCode(uint64_t vaddr, uint8_t* buf, uint64_t len) {
  uint64_t copied = 0;
  while (copied < len) {
    auto pa = Translate(vaddr + copied, Access::kExec);
    if (!pa.ok()) {
      if (copied == 0) {
        return pa.status();
      }
      break;  // Partial fetch up to the unmapped boundary.
    }
    uint64_t in_page = kPageSize - PageOffset(vaddr + copied);
    uint64_t n = std::min(in_page, len - copied);
    phys_->ReadBytes(*pa, buf + copied, n);
    copied += n;
  }
  return copied;
}

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kNotPresent: return "not-present";
    case FaultKind::kWriteProtect: return "write-protect";
    case FaultKind::kNxViolation: return "nx-violation";
    case FaultKind::kSmepViolation: return "smep-violation";
    case FaultKind::kSmapViolation: return "smap-violation";
  }
  return "??";
}

}  // namespace krx
