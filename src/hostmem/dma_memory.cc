#include "hostmem/dma_memory.h"

#include <atomic>
#include <cstring>

namespace bx {

DmaBuffer& DmaBuffer::operator=(DmaBuffer&& other) noexcept {
  if (this != &other) {
    if (memory_ != nullptr) {
      memory_->free_pages(addr_, size_ / kHostPageSize);
    }
    memory_ = other.memory_;
    addr_ = other.addr_;
    size_ = other.size_;
    other.memory_ = nullptr;
    other.addr_ = 0;
    other.size_ = 0;
  }
  return *this;
}

DmaBuffer::~DmaBuffer() {
  if (memory_ != nullptr) {
    memory_->free_pages(addr_, size_ / kHostPageSize);
  }
}

void DmaBuffer::write(std::uint64_t offset, ConstByteSpan data) noexcept {
  BX_ASSERT(valid());
  BX_ASSERT(offset + data.size() <= size_);
  memory_->write(addr_ + offset, data);
}

void DmaBuffer::read(std::uint64_t offset, ByteSpan out) const noexcept {
  BX_ASSERT(valid());
  BX_ASSERT(offset + out.size() <= size_);
  memory_->read(addr_ + offset, out);
}

DmaBuffer DmaMemory::allocate_pages(std::uint64_t pages) {
  BX_ASSERT(pages > 0);
  std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t first_page = 0;
  // First-fit over the free list; exact or split.
  for (std::size_t i = 0; i < free_runs_.size(); ++i) {
    auto& [run_start, run_len] = free_runs_[i];
    if (run_len >= pages) {
      first_page = run_start;
      run_start += pages;
      run_len -= pages;
      if (run_len == 0) {
        free_runs_.erase(free_runs_.begin() + static_cast<std::ptrdiff_t>(i));
      }
      break;
    }
  }
  if (first_page == 0) {
    first_page = next_page_no_;
    next_page_no_ += pages;
  }
  allocated_pages_ += pages;
  return {this, first_page * kHostPageSize, pages * kHostPageSize};
}

void DmaMemory::free_pages(std::uint64_t addr, std::uint64_t pages) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  BX_ASSERT(is_aligned(addr, kHostPageSize));
  BX_ASSERT(allocated_pages_ >= pages);
  allocated_pages_ -= pages;
  free_runs_.emplace_back(addr / kHostPageSize, pages);
}

Byte* DmaMemory::page_for(std::uint64_t addr) noexcept {
  const std::uint64_t page_no = addr / kHostPageSize;
  if (page_no < kLeafPages * kLeaves) {
    const Leaf* leaf =
        directory_[page_no / kLeafPages].load(std::memory_order_acquire);
    if (leaf != nullptr) {
      Byte* page =
          (*leaf)[page_no % kLeafPages].load(std::memory_order_acquire);
      if (page != nullptr) return page;
    }
  }
  return materialize(page_no);
}

Byte* DmaMemory::materialize(std::uint64_t page_no) noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  auto [it, inserted] = pages_.try_emplace(page_no);
  if (inserted) it->second = std::make_unique<Byte[]>(kHostPageSize);
  Byte* page = it->second.get();
  if (page_no < kLeafPages * kLeaves) {
    std::atomic<Leaf*>& slot = directory_[page_no / kLeafPages];
    Leaf* leaf = slot.load(std::memory_order_relaxed);
    if (leaf == nullptr) {
      leaf = leaves_.emplace_back(std::make_unique<Leaf>()).get();
      slot.store(leaf, std::memory_order_release);
    }
    (*leaf)[page_no % kLeafPages].store(page, std::memory_order_release);
  }
  return page;
}

void DmaMemory::write(std::uint64_t addr, ConstByteSpan data) noexcept {
  BX_ASSERT_MSG(addr != 0 || data.empty(), "write to null DMA address");
  std::size_t done = 0;
  while (done < data.size()) {
    const std::uint64_t current = addr + done;
    const std::uint64_t in_page = current % kHostPageSize;
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kHostPageSize - in_page, data.size() - done));
    std::memcpy(page_for(current) + in_page, data.data() + done, chunk);
    done += chunk;
  }
}

void DmaMemory::read(std::uint64_t addr, ByteSpan out) noexcept {
  BX_ASSERT_MSG(addr != 0 || out.empty(), "read from null DMA address");
  std::size_t done = 0;
  while (done < out.size()) {
    const std::uint64_t current = addr + done;
    const std::uint64_t in_page = current % kHostPageSize;
    const std::size_t chunk = static_cast<std::size_t>(
        std::min<std::uint64_t>(kHostPageSize - in_page, out.size() - done));
    std::memcpy(out.data() + done, page_for(current) + in_page, chunk);
    done += chunk;
  }
}

std::uint32_t DmaMemory::load_acquire(std::uint64_t addr) noexcept {
  BX_ASSERT(addr != 0 && is_aligned(addr, sizeof(std::uint32_t)));
  auto* word = reinterpret_cast<std::uint32_t*>(page_for(addr) +
                                                addr % kHostPageSize);
  return std::atomic_ref<std::uint32_t>(*word).load(
      std::memory_order_acquire);
}

void DmaMemory::store_release(std::uint64_t addr,
                              std::uint32_t value) noexcept {
  BX_ASSERT(addr != 0 && is_aligned(addr, sizeof(std::uint32_t)));
  auto* word = reinterpret_cast<std::uint32_t*>(page_for(addr) +
                                                addr % kHostPageSize);
  std::atomic_ref<std::uint32_t>(*word).store(value,
                                              std::memory_order_release);
}

std::size_t DmaMemory::resident_pages() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return pages_.size();
}

std::uint64_t DmaMemory::allocated_pages() const noexcept {
  std::lock_guard<std::mutex> lock(mutex_);
  return allocated_pages_;
}

}  // namespace bx
