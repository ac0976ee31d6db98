// Submission / completion queue rings.
//
// The rings live in simulated host DRAM (the device DMAs entries out of /
// into them). SqRing also carries the host-side cursors and — critically
// for ByteExpress §3.3.2 — the per-SQ spinlock: the driver inserts the
// command *and* its payload chunks while holding this lock, which is what
// guarantees the chunks land contiguously after the SQE.
#pragma once

#include <atomic>
#include <cstdint>
#include <mutex>

#include "common/status.h"
#include "hostmem/dma_memory.h"
#include "nvme/spec.h"

namespace bx::nvme {

class SqRing {
 public:
  SqRing(DmaMemory& memory, std::uint16_t qid, std::uint32_t depth);

  [[nodiscard]] std::uint16_t qid() const noexcept { return qid_; }
  [[nodiscard]] std::uint32_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::uint64_t base_addr() const noexcept {
    return ring_.addr();
  }
  [[nodiscard]] std::uint64_t slot_addr(std::uint32_t index) const noexcept {
    BX_ASSERT(index < depth_);
    return ring_.addr() + std::uint64_t{index} * kSqeSize;
  }

  // --- host-side cursor management (call with the lock held, except
  // note_head()) ---

  [[nodiscard]] std::uint32_t tail() const noexcept { return tail_; }

  /// Slots available before the ring is full, honoring the "one slot gap"
  /// full/empty disambiguation rule.
  [[nodiscard]] std::uint32_t free_slots() const noexcept;

  /// Occupied slots from the host's view: pushed entries the device has
  /// not yet consumed per the cached head (SQEs + inline chunks).
  [[nodiscard]] std::uint32_t occupancy() const noexcept {
    return (tail_ + depth_ - head_cache()) % depth_;
  }

  /// Writes one 64-byte slot at the tail and advances it.
  void push_slot(ConstByteSpan slot64) noexcept;

  /// Writes `payload` as queue-local raw chunks (ByteExpress §3.3) at the
  /// tail: the whole 64-byte slots in at most two spans, split at the
  /// ring wrap, then a zero-padded last slot for any remainder. Advances
  /// the tail by raw_chunks_for(payload.size()) slots.
  void push_chunks(ConstByteSpan payload) noexcept;

  /// Host learns the device's SQ head from CQE.sq_head; returns how many
  /// slots the head advanced. The reaping thread calls it without the
  /// lock (one reaper at a time), so the cached head is an atomic: a
  /// release store here, acquire loads by the submitters that reuse the
  /// freed slots.
  std::uint32_t note_head(std::uint32_t head) noexcept {
    const std::uint32_t old = head_cache_.load(std::memory_order_relaxed);
    head_cache_.store(head, std::memory_order_release);
    return (head + depth_ - old) % depth_;
  }
  [[nodiscard]] std::uint32_t head_cache() const noexcept {
    return head_cache_.load(std::memory_order_acquire);
  }

  /// Lifetime count of slots pushed (SQEs + inline chunks); the trace
  /// invariant tests reconcile this against doorbell-published entries.
  [[nodiscard]] std::uint64_t slots_pushed() const noexcept {
    return slots_pushed_;
  }

  /// The per-SQ driver spinlock (std::mutex here; the kernel uses a
  /// spinlock, but the mutual-exclusion semantics are what matters).
  [[nodiscard]] std::mutex& lock() noexcept { return mutex_; }

 private:
  DmaMemory& memory_;
  std::uint16_t qid_;
  std::uint32_t depth_;
  DmaBuffer ring_;
  std::mutex mutex_;
  std::uint32_t tail_ = 0;  // host writes here
  std::atomic<std::uint32_t> head_cache_{0};  // last head the device reported
  std::uint64_t slots_pushed_ = 0;
};

/// Writes `cqe` at `addr` the way the controller posts it: the first 12
/// bytes as a plain copy, then the dword holding the CID, status and
/// phase tag with a release store, so a host that loads that dword with
/// acquire (CqRing::peek) and sees the new phase reads the whole entry.
void post_cqe(DmaMemory& memory, std::uint64_t addr,
              const CompletionQueueEntry& cqe) noexcept;

class CqRing {
 public:
  CqRing(DmaMemory& memory, std::uint16_t qid, std::uint32_t depth);

  [[nodiscard]] std::uint16_t qid() const noexcept { return qid_; }
  [[nodiscard]] std::uint32_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::uint64_t base_addr() const noexcept {
    return ring_.addr();
  }
  [[nodiscard]] std::uint64_t slot_addr(std::uint32_t index) const noexcept {
    BX_ASSERT(index < depth_);
    return ring_.addr() + std::uint64_t{index} * kCqeSize;
  }

  // --- host-side consumption ---

  /// Non-destructively checks whether a new CQE is available at the head
  /// (phase tag matches the expected phase). The phase dword is loaded
  /// with acquire before the rest of the entry is read (post_cqe).
  [[nodiscard]] bool peek(CompletionQueueEntry& out) noexcept;

  /// Consumes the CQE at the head; caller must have seen peek() == true.
  CompletionQueueEntry pop() noexcept;

  [[nodiscard]] std::uint32_t head() const noexcept { return head_; }

  /// Lifetime count of CQEs consumed; reconciled against kCqDoorbell
  /// trace events by the invariant tests.
  [[nodiscard]] std::uint64_t cqes_popped() const noexcept {
    return cqes_popped_;
  }

 private:
  DmaMemory& memory_;
  std::uint16_t qid_;
  std::uint32_t depth_;
  DmaBuffer ring_;
  std::uint32_t head_ = 0;
  bool expected_phase_ = true;  // device starts writing with phase=1
  std::uint64_t cqes_popped_ = 0;
};

}  // namespace bx::nvme
