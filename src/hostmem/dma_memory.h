// Simulated host DRAM.
//
// Everything the device can DMA — SQ/CQ rings, PRP data pages, PRP list
// pages, SGL segments — lives in one DmaMemory instance addressed by 64-bit
// "host physical" addresses. Pages are materialized lazily on first touch so
// a sparse multi-gigabyte address space costs only what is used.
//
// Thread safety: a two-level directory of atomic page pointers maps page
// numbers to pages, so reads and writes of pages that already exist take
// no lock. Allocation, release and a page's first touch take the mutex;
// the first touch zeroes the page before it publishes the pointer with a
// release store, which every lookup loads with acquire. The bytes
// themselves are plain copies: the host and the device order their
// accesses through release/acquire publication points — SQ doorbells
// (pcie::BarSpace) for SQ slots and PRP/SGL data, the CQE phase dword
// (load_acquire/store_release here) for everything the device writes.
//
// DmaBuffer is the RAII handle for page-aligned allocations; it returns its
// pages to the free list on destruction, mirroring the kernel DMA pool the
// real driver draws PRP pages from.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"

namespace bx {

inline constexpr std::uint64_t kHostPageSize = 4096;

class DmaMemory;

/// RAII page-aligned host-memory allocation.
class DmaBuffer {
 public:
  DmaBuffer() noexcept = default;
  DmaBuffer(DmaMemory* memory, std::uint64_t addr,
            std::uint64_t size) noexcept
      : memory_(memory), addr_(addr), size_(size) {}
  DmaBuffer(DmaBuffer&& other) noexcept { *this = std::move(other); }
  DmaBuffer& operator=(DmaBuffer&& other) noexcept;
  DmaBuffer(const DmaBuffer&) = delete;
  DmaBuffer& operator=(const DmaBuffer&) = delete;
  ~DmaBuffer();

  [[nodiscard]] std::uint64_t addr() const noexcept { return addr_; }
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] bool valid() const noexcept { return memory_ != nullptr; }

  /// Copies `data` into the buffer at `offset`.
  void write(std::uint64_t offset, ConstByteSpan data) noexcept;
  /// Copies bytes out of the buffer.
  void read(std::uint64_t offset, ByteSpan out) const noexcept;

 private:
  DmaMemory* memory_ = nullptr;
  std::uint64_t addr_ = 0;
  std::uint64_t size_ = 0;
};

class DmaMemory {
 public:
  DmaMemory() = default;
  DmaMemory(const DmaMemory&) = delete;
  DmaMemory& operator=(const DmaMemory&) = delete;

  /// Allocates `pages` contiguous 4 KB pages; returns the RAII handle.
  [[nodiscard]] DmaBuffer allocate_pages(std::uint64_t pages);

  /// Allocates the smallest page-aligned buffer holding `bytes`.
  [[nodiscard]] DmaBuffer allocate(std::uint64_t bytes) {
    return allocate_pages(div_ceil(bytes == 0 ? 1 : bytes, kHostPageSize));
  }

  /// Raw physical access, any alignment, may cross page boundaries.
  void write(std::uint64_t addr, ConstByteSpan data) noexcept;
  void read(std::uint64_t addr, ByteSpan out) noexcept;

  /// The 32-bit word at `addr` (4-byte aligned), loaded with acquire or
  /// stored with release ordering: the publication point of an entry
  /// whose other bytes are plain copies. The controller stores a CQE's
  /// phase dword last and the host loads it first (nvme::post_cqe,
  /// nvme::CqRing::peek).
  [[nodiscard]] std::uint32_t load_acquire(std::uint64_t addr) noexcept;
  void store_release(std::uint64_t addr, std::uint32_t value) noexcept;

  /// Typed helpers for ring entries and registers.
  template <typename T>
  void write_object(std::uint64_t addr, const T& object) noexcept {
    static_assert(std::is_trivially_copyable_v<T>);
    write(addr, {reinterpret_cast<const Byte*>(&object), sizeof(T)});
  }
  template <typename T>
  [[nodiscard]] T read_object(std::uint64_t addr) noexcept {
    static_assert(std::is_trivially_copyable_v<T>);
    T object{};
    read(addr, {reinterpret_cast<Byte*>(&object), sizeof(T)});
    return object;
  }

  /// Pages currently materialized (for footprint assertions in tests).
  [[nodiscard]] std::size_t resident_pages() const noexcept;

  /// Pages handed out and not yet freed.
  [[nodiscard]] std::uint64_t allocated_pages() const noexcept;

 private:
  friend class DmaBuffer;
  void free_pages(std::uint64_t addr, std::uint64_t pages) noexcept;

  /// The page holding `addr`: a lock-free directory lookup, or
  /// materialize() on the page's first touch.
  Byte* page_for(std::uint64_t addr) noexcept;
  Byte* materialize(std::uint64_t page_no) noexcept;

  // The directory maps page numbers below kLeafPages * kLeaves (16 GiB of
  // address space; allocation hands out the lowest free page numbers) in
  // 32 KiB plus 8 KiB per 4 MiB touched. Pages beyond it, reachable only
  // through a stray DMA address, are found in pages_ under the mutex.
  static constexpr std::uint64_t kLeafPages = 1024;
  static constexpr std::uint64_t kLeaves = 4096;
  using Leaf = std::array<std::atomic<Byte*>, kLeafPages>;
  std::unique_ptr<std::atomic<Leaf*>[]> directory_ =
      std::make_unique<std::atomic<Leaf*>[]>(kLeaves);

  mutable std::mutex mutex_;
  // Owners of the pages and leaves the directory points to.
  std::unordered_map<std::uint64_t, std::unique_ptr<Byte[]>> pages_;
  std::vector<std::unique_ptr<Leaf>> leaves_;
  // Free list of {first_page_no, page_count} runs, kept coalesced enough for
  // this workload by best-effort front reuse.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> free_runs_;
  std::uint64_t next_page_no_ = 1;  // page 0 reserved: address 0 stays invalid
  std::uint64_t allocated_pages_ = 0;
};

}  // namespace bx
