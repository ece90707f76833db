#include "src/mem/phys_mem.h"

#include <sys/mman.h>
#include <unistd.h>

#include <iterator>

namespace krx {
namespace {

uint64_t HostPageSize() {
  static const uint64_t size = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  return size;
}

}  // namespace

PhysMem::PhysMem(uint64_t size_bytes) : size_(size_bytes) {
  KRX_CHECK(size_bytes % kPageSize == 0);
  if (size_ == 0) {
    return;
  }
  // Private anonymous memory is zero-filled on first touch; NORESERVE keeps
  // the budget from being charged against the host's commit limit up front.
  void* p = mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  KRX_CHECK(p != MAP_FAILED);
  base_ = static_cast<uint8_t*>(p);
  // One written byte must cost one frame, not a 2 MiB huge page, or the
  // resident figure would no longer track the frames in use.
  (void)madvise(base_, size_, MADV_NOHUGEPAGE);
}

PhysMem::~PhysMem() {
  if (base_ != nullptr) {
    munmap(base_, size_);
  }
}

void PhysMem::ZeroFrames(uint64_t first, uint64_t count) {
  uint8_t* start = base_ + (first << kPageShift);
  const uint64_t len = count << kPageShift;
  // Dropping the pages both zeroes them and returns their host memory; it
  // needs host pages no larger than a frame, or it would zero neighbours.
  if (HostPageSize() == kPageSize && madvise(start, len, MADV_DONTNEED) == 0) {
    return;
  }
  std::memset(start, 0, len);
}

Result<uint64_t> PhysMem::AllocFrames(uint64_t count) {
  std::lock_guard<std::mutex> lock(alloc_mu_);
  uint64_t first = 0;
  auto fit = free_.begin();
  while (fit != free_.end() && fit->second < count) {
    ++fit;
  }
  if (fit != free_.end()) {
    first = fit->first;
    const uint64_t left = fit->second - count;
    free_.erase(fit);
    if (left > 0) {
      free_.emplace(first + count, left);
    }
  } else {
    if (count > num_frames() - high_water_) {
      return ResourceExhaustedError("out of physical frames");
    }
    first = high_water_;
    high_water_ += count;
  }
  frames_in_use_ += count;
  // Recycled frames hold their last owner's bytes; frames above the
  // high-water mark may hold guest writes made through the direct map.
  ZeroFrames(first, count);
  return first;
}

void PhysMem::FreeFrames(uint64_t first, uint64_t count) {
  if (count == 0) {
    return;
  }
  std::lock_guard<std::mutex> lock(alloc_mu_);
  KRX_CHECK(first + count <= high_water_);
  KRX_CHECK(count <= frames_in_use_);
  uint64_t end = first + count;
  auto next = free_.lower_bound(first);
  KRX_CHECK(next == free_.end() || next->first >= end);  // no double free
  if (next != free_.begin()) {
    auto prev = std::prev(next);
    KRX_CHECK(prev->first + prev->second <= first);
    if (prev->first + prev->second == first) {
      first = prev->first;
      free_.erase(prev);
    }
  }
  if (next != free_.end() && next->first == end) {
    end += next->second;
    free_.erase(next);
  }
  frames_in_use_ -= count;
  if (end == high_water_) {
    high_water_ = first;  // the tail is never-allocated space again
  } else {
    free_.emplace(first, end - first);
  }
}

std::vector<uint64_t> PhysMem::ResidentFrames() const {
  std::vector<uint64_t> frames;
  if (base_ == nullptr) {
    return frames;
  }
  const uint64_t host_page = HostPageSize();
  std::vector<unsigned char> vec((size_ + host_page - 1) / host_page);
  KRX_CHECK(mincore(base_, size_, vec.data()) == 0);
  for (uint64_t f = 0; f < num_frames(); ++f) {
    if (vec[(f << kPageShift) / host_page] & 1) {
      frames.push_back(f);
    }
  }
  return frames;
}

void PhysMem::DropAll() {
  if (base_ != nullptr) {
    ZeroFrames(0, num_frames());
  }
}

}  // namespace krx
