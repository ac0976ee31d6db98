#include "nvme/queue.h"

#include <algorithm>
#include <cstring>

namespace bx::nvme {

SqRing::SqRing(DmaMemory& memory, std::uint16_t qid, std::uint32_t depth)
    : memory_(memory),
      qid_(qid),
      depth_(depth),
      ring_(memory.allocate(std::uint64_t{depth} * kSqeSize)) {
  BX_ASSERT_MSG(depth >= 2, "SQ depth must be at least 2");
}

std::uint32_t SqRing::free_slots() const noexcept {
  // Ring with one reserved gap: when tail is just behind head, it is full.
  const std::uint32_t used = (tail_ + depth_ - head_cache_) % depth_;
  return depth_ - 1 - used;
}

void SqRing::push_slot(ConstByteSpan slot64) noexcept {
  BX_ASSERT(slot64.size() == kSqeSize);
  BX_ASSERT_MSG(free_slots() > 0, "SQ overflow");
  memory_.write(slot_addr(tail_), slot64);
  tail_ = (tail_ + 1) % depth_;
  ++slots_pushed_;
}

void SqRing::push_chunks(ConstByteSpan payload) noexcept {
  const std::uint32_t whole =
      static_cast<std::uint32_t>(payload.size() / kSqeSize);
  BX_ASSERT_MSG(free_slots() >= div_ceil(payload.size(), kSqeSize),
                "SQ overflow");
  const std::size_t whole_bytes = std::size_t{whole} * kSqeSize;
  const std::size_t before_wrap = std::min<std::size_t>(
      whole_bytes, std::size_t{depth_ - tail_} * kSqeSize);
  if (before_wrap > 0) {
    memory_.write(slot_addr(tail_), payload.first(before_wrap));
  }
  if (whole_bytes > before_wrap) {
    memory_.write(ring_.addr(), payload.subspan(before_wrap,
                                                whole_bytes - before_wrap));
  }
  tail_ = (tail_ + whole) % depth_;
  slots_pushed_ += whole;
  if (whole_bytes < payload.size()) {
    SqSlot last;
    std::memcpy(last.raw, payload.data() + whole_bytes,
                payload.size() - whole_bytes);
    push_slot({last.raw, sizeof(last.raw)});
  }
}

CqRing::CqRing(DmaMemory& memory, std::uint16_t qid, std::uint32_t depth)
    : memory_(memory),
      qid_(qid),
      depth_(depth),
      ring_(memory.allocate(std::uint64_t{depth} * kCqeSize)) {
  BX_ASSERT_MSG(depth >= 2, "CQ depth must be at least 2");
}

bool CqRing::peek(CompletionQueueEntry& out) noexcept {
  const auto cqe =
      memory_.read_object<CompletionQueueEntry>(slot_addr(head_));
  if (cqe.phase() != expected_phase_) return false;
  out = cqe;
  return true;
}

CompletionQueueEntry CqRing::pop() noexcept {
  const auto cqe =
      memory_.read_object<CompletionQueueEntry>(slot_addr(head_));
  BX_ASSERT_MSG(cqe.phase() == expected_phase_, "pop without available CQE");
  head_ = (head_ + 1) % depth_;
  if (head_ == 0) expected_phase_ = !expected_phase_;
  ++cqes_popped_;
  return cqe;
}

}  // namespace bx::nvme
