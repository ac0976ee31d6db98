// Unit tests for simulated host DRAM: allocation, RAII release and reuse,
// cross-page access, lazy page materialization, and lock-free access to
// existing pages while other threads allocate and first-touch pages.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "hostmem/dma_memory.h"

namespace bx {
namespace {

TEST(DmaMemoryTest, AllocationsArePageAlignedAndDistinct) {
  DmaMemory memory;
  DmaBuffer a = memory.allocate_pages(1);
  DmaBuffer b = memory.allocate_pages(2);
  EXPECT_TRUE(is_aligned(a.addr(), kHostPageSize));
  EXPECT_TRUE(is_aligned(b.addr(), kHostPageSize));
  EXPECT_NE(a.addr(), 0u);  // address 0 stays invalid (null PRP detection)
  EXPECT_TRUE(a.addr() + a.size() <= b.addr() ||
              b.addr() + b.size() <= a.addr());
  EXPECT_EQ(a.size(), kHostPageSize);
  EXPECT_EQ(b.size(), 2 * kHostPageSize);
}

TEST(DmaMemoryTest, AllocateBytesRoundsUp) {
  DmaMemory memory;
  EXPECT_EQ(memory.allocate(1).size(), kHostPageSize);
  EXPECT_EQ(memory.allocate(4096).size(), kHostPageSize);
  EXPECT_EQ(memory.allocate(4097).size(), 2 * kHostPageSize);
  EXPECT_EQ(memory.allocate(0).size(), kHostPageSize);
}

TEST(DmaMemoryTest, WriteReadRoundTrip) {
  DmaMemory memory;
  DmaBuffer buffer = memory.allocate_pages(2);
  ByteVec data(5000);
  fill_pattern(data, 1);
  buffer.write(100, data);
  ByteVec read(5000);
  buffer.read(100, read);
  EXPECT_EQ(read, data);
}

TEST(DmaMemoryTest, CrossPageRawAccess) {
  DmaMemory memory;
  DmaBuffer buffer = memory.allocate_pages(3);
  // Write a span that straddles two page boundaries.
  ByteVec data(2 * kHostPageSize);
  fill_pattern(data, 2);
  memory.write(buffer.addr() + kHostPageSize / 2, data);
  ByteVec read(2 * kHostPageSize);
  memory.read(buffer.addr() + kHostPageSize / 2, read);
  EXPECT_EQ(read, data);
}

TEST(DmaMemoryTest, UnwrittenMemoryReadsZero) {
  DmaMemory memory;
  DmaBuffer buffer = memory.allocate_pages(1);
  ByteVec read(64, 0xff);
  buffer.read(0, read);
  for (const Byte b : read) EXPECT_EQ(b, 0);
}

TEST(DmaMemoryTest, TypedObjectRoundTrip) {
  DmaMemory memory;
  DmaBuffer buffer = memory.allocate_pages(1);
  struct Record {
    std::uint32_t a;
    std::uint64_t b;
  };
  memory.write_object(buffer.addr() + 8, Record{7, 9});
  const auto record = memory.read_object<Record>(buffer.addr() + 8);
  EXPECT_EQ(record.a, 7u);
  EXPECT_EQ(record.b, 9u);
}

TEST(DmaMemoryTest, FreedPagesAreReused) {
  DmaMemory memory;
  std::uint64_t addr;
  {
    DmaBuffer buffer = memory.allocate_pages(4);
    addr = buffer.addr();
    EXPECT_EQ(memory.allocated_pages(), 4u);
  }
  EXPECT_EQ(memory.allocated_pages(), 0u);
  DmaBuffer again = memory.allocate_pages(4);
  EXPECT_EQ(again.addr(), addr);
}

TEST(DmaMemoryTest, MoveTransfersOwnership) {
  DmaMemory memory;
  DmaBuffer a = memory.allocate_pages(1);
  const std::uint64_t addr = a.addr();
  DmaBuffer b = std::move(a);
  EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(b.valid());
  EXPECT_EQ(b.addr(), addr);
  EXPECT_EQ(memory.allocated_pages(), 1u);
}

TEST(DmaMemoryTest, MoveAssignReleasesPrevious) {
  DmaMemory memory;
  DmaBuffer a = memory.allocate_pages(1);
  DmaBuffer b = memory.allocate_pages(1);
  EXPECT_EQ(memory.allocated_pages(), 2u);
  a = std::move(b);
  EXPECT_EQ(memory.allocated_pages(), 1u);
}

TEST(DmaMemoryTest, LazyMaterialization) {
  DmaMemory memory;
  DmaBuffer big = memory.allocate_pages(1024);  // 4 MiB address space
  EXPECT_EQ(memory.resident_pages(), 0u);       // nothing touched yet
  ByteVec byte(1, 0xaa);
  big.write(0, byte);
  big.write(big.size() - 1, byte);
  EXPECT_EQ(memory.resident_pages(), 2u);  // only the touched pages exist
}

TEST(DmaMemoryTest, ConcurrentAllocateFree) {
  DmaMemory memory;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&memory] {
      for (int i = 0; i < 200; ++i) {
        DmaBuffer buffer = memory.allocate_pages(1 + i % 3);
        ByteVec data(64);
        fill_pattern(data, i);
        buffer.write(0, data);
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(memory.allocated_pages(), 0u);
}

// Four threads write and read back their own pages, across page
// boundaries, while a fifth allocates fresh pages and touches each first.
// Lookups of existing pages take no lock; the first touch zeroes a page
// before it publishes the page, so the toucher reads zeros past what it
// wrote and every worker reads back exactly its own bytes (and TSan, via
// the tsan label, sees no race on the directory or the pages).
TEST(DmaMemoryTest, ExistingPagesStayReadableWhileOthersMaterialize) {
  constexpr int kWorkers = 4;
  constexpr std::uint64_t kPagesEach = 4;
  DmaMemory memory;
  std::vector<DmaBuffer> own;
  for (int t = 0; t < kWorkers; ++t) {
    own.push_back(memory.allocate_pages(kPagesEach));
  }
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&memory, &mismatches] {
    std::vector<DmaBuffer> fresh;
    for (int i = 0; i < 512; ++i) {
      fresh.push_back(memory.allocate_pages(1 + i % 2));
      ByteVec data(96);
      fill_pattern(data, 1000 + i);
      fresh.back().write(8, data);
      ByteVec back(128, Byte{0xff});
      fresh.back().read(0, back);
      const bool zeros_around =
          std::all_of(back.begin(), back.begin() + 8,
                      [](Byte b) { return b == 0; }) &&
          std::all_of(back.begin() + 104, back.end(),
                      [](Byte b) { return b == 0; });
      if (!zeros_around ||
          !std::equal(data.begin(), data.end(), back.begin() + 8)) {
        ++mismatches;
      }
    }
  });
  for (int t = 0; t < kWorkers; ++t) {
    threads.emplace_back([&buffer = own[t], &mismatches, t] {
      ByteVec data(2 * kHostPageSize + 100);
      ByteVec back(data.size());
      for (int round = 0; round < 200; ++round) {
        fill_pattern(data, t * 1000 + round);
        const std::uint64_t offset = (round * 64) % kHostPageSize;
        buffer.write(offset, data);
        buffer.read(offset, back);
        if (back != data) ++mismatches;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(memory.allocated_pages(), kWorkers * kPagesEach);
}

// The publication point the controller and the host share: a writer
// thread fills an entry's first bytes with plain stores and then
// store_release()s its last dword; a reader that load_acquire()s the
// dword and sees the new value reads the whole entry.
TEST(DmaMemoryTest, ReleasedDwordPublishesTheBytesBeforeIt) {
  DmaMemory memory;
  DmaBuffer buffer = memory.allocate_pages(1);
  const std::uint64_t flag = buffer.addr() + 60;
  constexpr std::uint32_t kRounds = 2000;
  std::atomic<std::uint32_t> consumed{0};
  std::thread writer([&] {
    for (std::uint32_t round = 1; round <= kRounds; ++round) {
      while (consumed.load(std::memory_order_acquire) != round - 1) {
      }
      ByteVec body(60, static_cast<Byte>(round));
      memory.write(buffer.addr(), body);
      memory.store_release(flag, round);
    }
  });
  int mismatches = 0;
  for (std::uint32_t round = 1; round <= kRounds; ++round) {
    while (memory.load_acquire(flag) != round) {
    }
    ByteVec body(60);
    memory.read(buffer.addr(), body);
    for (const Byte b : body) {
      if (b != static_cast<Byte>(round)) ++mismatches;
    }
    consumed.store(round, std::memory_order_release);
  }
  writer.join();
  EXPECT_EQ(mismatches, 0);
}

}  // namespace
}  // namespace bx
