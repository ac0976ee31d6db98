// SQ/CQ ring mechanics: wraparound, the one-slot-gap full rule, phase-tag
// tracking across CQ laps — the machinery ByteExpress's in-queue payload
// depends on — and the CQE's phase dword as the publication point between
// a posting thread and a reaping one.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>

#include "hostmem/dma_memory.h"
#include "nvme/queue.h"

namespace bx::nvme {
namespace {

SqSlot make_slot(std::uint8_t tag) {
  SqSlot slot;
  for (auto& byte : slot.raw) byte = tag;
  return slot;
}

TEST(SqRingTest, StartsEmptyWithFullCapacityMinusOne) {
  DmaMemory memory;
  SqRing sq(memory, 1, 8);
  EXPECT_EQ(sq.tail(), 0u);
  EXPECT_EQ(sq.free_slots(), 7u);  // one-slot gap rule
}

TEST(SqRingTest, PushAdvancesTailAndWritesMemory) {
  DmaMemory memory;
  SqRing sq(memory, 1, 8);
  const SqSlot slot = make_slot(0x5A);
  sq.push_slot({slot.raw, sizeof(slot.raw)});
  EXPECT_EQ(sq.tail(), 1u);
  ByteVec stored(kSqeSize);
  memory.read(sq.slot_addr(0), stored);
  EXPECT_EQ(stored[0], 0x5A);
  EXPECT_EQ(stored[63], 0x5A);
}

TEST(SqRingTest, WrapsAround) {
  DmaMemory memory;
  SqRing sq(memory, 1, 4);
  for (int lap = 0; lap < 3; ++lap) {
    for (int i = 0; i < 3; ++i) {
      sq.push_slot({make_slot(std::uint8_t(i)).raw, kSqeSize});
    }
    // Device consumed everything: host learns via CQE.sq_head.
    sq.note_head(sq.tail());
    EXPECT_EQ(sq.free_slots(), 3u);
  }
  EXPECT_EQ(sq.tail(), 1u);  // 9 pushes mod 4
}

TEST(SqRingTest, PushChunksSplitsAtTheWrapAndZeroPadsTheLastSlot) {
  DmaMemory memory;
  SqRing sq(memory, 1, 8);
  // Stale bytes in slots 0-5, then the device drains them: a 3.5-slot
  // run from slot 6 wraps after two whole slots, and its padded last
  // slot lands on stale slot 1.
  for (int i = 0; i < 6; ++i) sq.push_slot({make_slot(0xEE).raw, kSqeSize});
  sq.note_head(sq.tail());

  ByteVec payload(3 * kSqeSize + 32);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<Byte>(i + 1);
  }
  const std::uint64_t pushed = sq.slots_pushed();
  sq.push_chunks(payload);
  EXPECT_EQ(sq.tail(), 2u);  // slots 6, 7, 0 and the padded slot 1
  EXPECT_EQ(sq.slots_pushed(), pushed + 4);

  ByteVec stored(kSqeSize);
  for (std::uint32_t chunk = 0; chunk < 4; ++chunk) {
    memory.read(sq.slot_addr((6 + chunk) % 8), stored);
    for (std::size_t i = 0; i < kSqeSize; ++i) {
      const std::size_t at = std::size_t{chunk} * kSqeSize + i;
      const Byte want = at < payload.size() ? payload[at] : Byte{0};
      ASSERT_EQ(stored[i], want) << "chunk " << chunk << " byte " << i;
    }
  }
}

TEST(SqRingTest, FreeSlotsTracksHeadProgress) {
  DmaMemory memory;
  SqRing sq(memory, 1, 8);
  for (int i = 0; i < 5; ++i) {
    sq.push_slot({make_slot(1).raw, kSqeSize});
  }
  EXPECT_EQ(sq.free_slots(), 2u);
  sq.note_head(3);  // device consumed three entries
  EXPECT_EQ(sq.free_slots(), 5u);
}

TEST(SqRingTest, SlotAddressesAreContiguous) {
  DmaMemory memory;
  SqRing sq(memory, 2, 16);
  for (std::uint32_t i = 0; i + 1 < sq.depth(); ++i) {
    EXPECT_EQ(sq.slot_addr(i + 1) - sq.slot_addr(i), kSqeSize);
  }
  EXPECT_EQ(sq.slot_addr(0), sq.base_addr());
}

TEST(CqRingTest, EmptyPeeksFalse) {
  DmaMemory memory;
  CqRing cq(memory, 1, 8);
  CompletionQueueEntry cqe;
  EXPECT_FALSE(cq.peek(cqe));
}

TEST(CqRingTest, DeviceStylePostThenHostPop) {
  DmaMemory memory;
  CqRing cq(memory, 1, 8);

  CompletionQueueEntry posted;
  posted.cid = 7;
  posted.set_phase(true);  // device's first lap uses phase 1
  memory.write_object(cq.slot_addr(0), posted);

  CompletionQueueEntry seen;
  ASSERT_TRUE(cq.peek(seen));
  EXPECT_EQ(seen.cid, 7);
  const CompletionQueueEntry popped = cq.pop();
  EXPECT_EQ(popped.cid, 7);
  EXPECT_EQ(cq.head(), 1u);
  EXPECT_FALSE(cq.peek(seen));  // next slot still has phase 0
}

TEST(CqRingTest, PhaseFlipsAcrossLaps) {
  DmaMemory memory;
  const std::uint32_t depth = 4;
  CqRing cq(memory, 1, depth);

  bool device_phase = true;
  std::uint32_t device_tail = 0;
  auto device_post = [&](std::uint16_t cid) {
    CompletionQueueEntry cqe;
    cqe.cid = cid;
    cqe.set_phase(device_phase);
    memory.write_object(cq.slot_addr(device_tail), cqe);
    device_tail = (device_tail + 1) % depth;
    if (device_tail == 0) device_phase = !device_phase;
  };

  // Two full laps: the host must track the phase flip.
  for (std::uint16_t cid = 0; cid < 2 * depth; ++cid) {
    device_post(cid);
    CompletionQueueEntry seen;
    ASSERT_TRUE(cq.peek(seen)) << "cid " << cid;
    EXPECT_EQ(cq.pop().cid, cid);
  }
  CompletionQueueEntry seen;
  EXPECT_FALSE(cq.peek(seen));
}

TEST(CqRingTest, StaleEntryFromPreviousLapIsNotVisible) {
  DmaMemory memory;
  CqRing cq(memory, 1, 2);
  // Post with phase 0 (what a stale/unwritten slot looks like on lap 1).
  CompletionQueueEntry stale;
  stale.cid = 9;
  stale.set_phase(false);
  memory.write_object(cq.slot_addr(0), stale);
  CompletionQueueEntry seen;
  EXPECT_FALSE(cq.peek(seen));
}

// A device thread posts CQEs with post_cqe() while the host thread peeks
// and pops them, over several phase laps of a small ring. The host sees
// each entry whole (dw0 and sq_head match its cid) the moment its phase
// dword flips; under TSan (the tsan label) the acquire load in peek()
// orders the plain read of the first 12 bytes after the device's writes.
TEST(CqRingTest, PostedEntriesArriveWholeAcrossThreads) {
  DmaMemory memory;
  constexpr std::uint32_t kDepth = 4;
  constexpr std::uint16_t kEntries = 4000;
  CqRing cq(memory, 1, kDepth);
  std::atomic<std::uint32_t> popped{0};
  std::thread device([&] {
    bool phase = true;
    std::uint32_t tail = 0;
    for (std::uint16_t cid = 0; cid < kEntries; ++cid) {
      // Never overrun the host: at most depth - 1 entries outstanding.
      while (cid - popped.load(std::memory_order_acquire) >= kDepth - 1) {
      }
      CompletionQueueEntry cqe;
      cqe.dw0 = 0x1000u + cid;
      cqe.sq_head = static_cast<std::uint16_t>(cid * 3);
      cqe.cid = cid;
      cqe.set_phase(phase);
      post_cqe(memory, cq.slot_addr(tail), cqe);
      tail = (tail + 1) % kDepth;
      if (tail == 0) phase = !phase;
    }
  });
  int torn = 0;
  for (std::uint16_t cid = 0; cid < kEntries; ++cid) {
    CompletionQueueEntry seen;
    while (!cq.peek(seen)) {
    }
    const CompletionQueueEntry entry = cq.pop();
    if (seen.cid != cid || seen.dw0 != 0x1000u + cid ||
        seen.sq_head != static_cast<std::uint16_t>(cid * 3) ||
        entry.dw0 != seen.dw0) {
      ++torn;
    }
    popped.store(cid + 1u, std::memory_order_release);
  }
  device.join();
  EXPECT_EQ(torn, 0);
}

}  // namespace
}  // namespace bx::nvme
