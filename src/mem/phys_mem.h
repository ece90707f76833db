// Simulated physical memory: a sparse frame space with a coalescing free
// list.
//
// The frames live in one lazily zeroed anonymous host mapping, so a frame
// costs host memory only once something writes to it: untouched frames read
// as zero through the host's shared zero page, and the `phys_bytes` budget
// is a ceiling, not a zero-fill. Read*/Write* index the mapping directly,
// with no per-access indirection.
#ifndef KRX_SRC_MEM_PHYS_MEM_H_
#define KRX_SRC_MEM_PHYS_MEM_H_

#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <vector>

#include "src/base/status.h"

namespace krx {

inline constexpr uint64_t kPageSize = 4096;
inline constexpr uint64_t kPageShift = 12;

inline uint64_t PageFloor(uint64_t addr) { return addr & ~(kPageSize - 1); }
inline uint64_t PageOffset(uint64_t addr) { return addr & (kPageSize - 1); }

class PhysMem {
 public:
  explicit PhysMem(uint64_t size_bytes);
  ~PhysMem();
  PhysMem(const PhysMem&) = delete;
  PhysMem& operator=(const PhysMem&) = delete;

  uint64_t size() const { return size_; }
  uint64_t num_frames() const { return size() >> kPageShift; }

  // Allocates `count` contiguous frames; returns the first frame number.
  // The frames always read zero, whether fresh or recycled. First fit over
  // the free list, else the never-allocated tail. Thread-safe: the parallel
  // bench driver sets up per-thread CPU stacks and scratch buffers on a
  // shared image concurrently.
  Result<uint64_t> AllocFrames(uint64_t count);

  // Returns frames to the free list (coalescing with their neighbours). The
  // bytes stay as they are until the frames are handed out again, so a
  // caller's zap of freed code stays observable. Thread-safe.
  void FreeFrames(uint64_t first, uint64_t count);

  // Frames currently in use (allocated and not freed). The fleet memory
  // accounting reads this as an image's *used* footprint, as opposed to
  // size(), the reserved capacity. Thread-safe.
  uint64_t frames_allocated() const {
    std::lock_guard<std::mutex> lock(alloc_mu_);
    return frames_in_use_;
  }

  // Frames whose host pages are resident, in ascending order (mincore). A
  // frame that was only read counts too: the read mapped the host's zero
  // page, which mincore reports as resident.
  std::vector<uint64_t> ResidentFrames() const;
  uint64_t ResidentBytes() const { return ResidentFrames().size() << kPageShift; }

  // Drops every frame's contents: all frames read zero and cost no host
  // memory afterwards. Allocation state is unchanged.
  void DropAll();

  uint8_t Read8(uint64_t paddr) const {
    KRX_CHECK(paddr < size());
    return base_[paddr];
  }
  void Write8(uint64_t paddr, uint8_t v) {
    KRX_CHECK(paddr < size());
    base_[paddr] = v;
  }

  uint64_t Read64(uint64_t paddr) const {
    KRX_CHECK(paddr + 8 <= size());
    uint64_t v;
    std::memcpy(&v, base_ + paddr, 8);
    return v;
  }
  void Write64(uint64_t paddr, uint64_t v) {
    KRX_CHECK(paddr + 8 <= size());
    std::memcpy(base_ + paddr, &v, 8);
  }

  void WriteBytes(uint64_t paddr, const uint8_t* src, uint64_t len) {
    KRX_CHECK(paddr + len <= size());
    std::memcpy(base_ + paddr, src, len);
  }
  void ReadBytes(uint64_t paddr, uint8_t* dst, uint64_t len) const {
    KRX_CHECK(paddr + len <= size());
    std::memcpy(dst, base_ + paddr, len);
  }
  void Fill(uint64_t paddr, uint8_t value, uint64_t len) {
    KRX_CHECK(paddr + len <= size());
    std::memset(base_ + paddr, value, len);
  }

  const uint8_t* raw(uint64_t paddr) const { return base_ + paddr; }

 private:
  // Returns [first, first + count) to the all-zero, non-resident state.
  void ZeroFrames(uint64_t first, uint64_t count);

  uint8_t* base_ = nullptr;
  uint64_t size_ = 0;
  mutable std::mutex alloc_mu_;
  // Frames at and above the high-water mark were never handed out (or were
  // all freed back down to it). Extents below it are in use or in free_.
  uint64_t high_water_ = 0;
  std::map<uint64_t, uint64_t> free_;  // first frame -> count, coalesced
  uint64_t frames_in_use_ = 0;
};

}  // namespace krx

#endif  // KRX_SRC_MEM_PHYS_MEM_H_
