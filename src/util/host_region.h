// Demand-zero host memory for a simulated address region.
#ifndef SRC_UTIL_HOST_REGION_H_
#define SRC_UTIL_HOST_REGION_H_

#include <sys/mman.h>
#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace prestore {

// One private anonymous mapping that backs a simulated region or a cache's
// set blocks. The kernel supplies zeroed pages on first touch, so
// constructing a region costs no fill and its resident size tracks what
// the workload touches, not what it reserved (a KV machine reserves 576 MB
// and touches ~50 MB). MAP_NORESERVE keeps untouched pages out of the
// commit charge.
//
// Both uses are large and randomly indexed: striding through tens of
// megabytes on 4 KiB pages makes nearly every access a dTLB miss whose
// page walk serializes with the data fetch, while 2 MiB pages cover the
// same footprint with a handful of TLB entries. So the mapping is
// over-reserved by one huge page, trimmed to a 2 MiB-aligned start (mmap
// only promises page alignment), and advised MADV_HUGEPAGE before anything
// touches it: every full 2 MiB then faults in as one huge page directly
// instead of waiting for khugepaged. The advice is host-side only; a
// kernel without THP ignores it and no simulated result depends on it.
// Move-only; the destructor unmaps.
class HostRegion {
 public:
  static constexpr size_t kHugePage = size_t{2} << 20;

  HostRegion() = default;

  // Maps `bytes` of zeroed memory; throws std::bad_alloc if the kernel
  // refuses the mapping.
  explicit HostRegion(size_t bytes) {
    if (bytes == 0) {
      return;
    }
    const size_t page = PageBytes();
    const size_t len = (bytes + page - 1) & ~(page - 1);
    if (len < bytes || len + kHugePage < len) {
      throw std::bad_alloc();
    }
    void* map = mmap(nullptr, len + kHugePage, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    if (map == MAP_FAILED) {
      throw std::bad_alloc();
    }
    const auto base = reinterpret_cast<uintptr_t>(map);
    const uintptr_t start = (base + kHugePage - 1) & ~(kHugePage - 1);
    const uintptr_t end = base + len + kHugePage;
    if (start > base) {
      munmap(map, start - base);
    }
    if (end > start + len) {
      munmap(reinterpret_cast<void*>(start + len), end - (start + len));
    }
    data_ = reinterpret_cast<uint8_t*>(start);
    size_ = bytes;
    mapped_ = len;
#if defined(MADV_HUGEPAGE)
    (void)madvise(data_, mapped_, MADV_HUGEPAGE);  // best effort
#endif
  }

  ~HostRegion() {
    if (data_ != nullptr) {
      munmap(data_, mapped_);
    }
  }

  HostRegion(HostRegion&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)),
        mapped_(std::exchange(other.mapped_, 0)) {}
  HostRegion& operator=(HostRegion&& other) noexcept {
    HostRegion(std::move(other)).swap(*this);
    return *this;
  }
  HostRegion(const HostRegion&) = delete;
  HostRegion& operator=(const HostRegion&) = delete;

  uint8_t* data() const { return data_; }
  size_t size() const { return size_; }

 private:
  static size_t PageBytes() {
    const long page = sysconf(_SC_PAGESIZE);
    return page > 0 ? static_cast<size_t>(page) : 4096;
  }

  void swap(HostRegion& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(mapped_, other.mapped_);
  }

  uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t mapped_ = 0;  // page-rounded length of the mapping at data_
};

}  // namespace prestore

#endif  // SRC_UTIL_HOST_REGION_H_
