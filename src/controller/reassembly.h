// Identifier-based out-of-order chunk reassembly — the §3.3.2 future-work
// mechanism, implemented.
//
// When chunk fetching is not confined to a single SQ (multi-queue striping),
// chunks arrive in arbitrary order. Each chunk is self-describing
// (payload ID, chunk number, total count, CRC — see nvme/inline_wire.h), so
// the engine can place data directly at the right offset in its device-DRAM
// staging area. Matching the paper's SRAM-budget argument, the per-payload
// tracking state is only the ID, counters and a receive *bitmap*; the number
// of simultaneously tracked payloads is bounded (`slots`), and arrivals
// beyond that are rejected with a retryable error.
#pragma once

#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "nvme/inline_read_wire.h"
#include "nvme/inline_wire.h"

namespace bx::controller {

class ReassemblyEngine {
 public:
  struct Config {
    /// Maximum payloads tracked at once (SRAM budget).
    std::uint32_t slots = 64;
    /// Maximum chunks per payload the bitmap covers.
    std::uint32_t max_chunks = 1024;
    /// Sim-time a slot may sit without a new chunk before evict_expired()
    /// reclaims it. Must stay below the driver's command timeout so the
    /// device gives up (and frees the slot) before the host aborts. A
    /// value of 0 disables TTL eviction.
    Nanoseconds ttl_ns = 1'000'000;  // 1 ms
  };

  explicit ReassemblyEngine(Config config);

  /// Accepts one chunk. Returns kResourceExhausted when all slots are busy
  /// with other payloads, kDataLoss on CRC mismatch, kInvalidArgument on a
  /// malformed header, kAlreadyExists for a duplicate chunk (idempotently
  /// ignored — duplicates can occur after retries). `now` stamps the slot
  /// for TTL eviction; callers without a clock may pass 0.
  Status accept(const nvme::inline_chunk::OooChunkHeader& header,
                ConstByteSpan data, Nanoseconds now = 0);

  /// Reclaims every slot whose last chunk arrived more than ttl_ns before
  /// `now` — the fix for the slot leak where one lost chunk pinned a slot
  /// forever. Complete-but-untaken payloads expire too (their command was
  /// itself lost or aborted). Returns the evicted payload ids so the
  /// caller can fail any commands still waiting on them.
  std::vector<std::uint32_t> evict_expired(Nanoseconds now);

  /// True once every chunk of `payload_id` has arrived.
  [[nodiscard]] bool complete(std::uint32_t payload_id) const noexcept;

  /// Removes the payload and returns its first `length` bytes. Fails if the
  /// payload is unknown or incomplete.
  StatusOr<ByteVec> take(std::uint32_t payload_id, std::uint64_t length);

  /// Drops a payload's state (command aborted).
  void drop(std::uint32_t payload_id) noexcept;

  /// Payloads tracked now: kept at slot take and release, so a read
  /// costs no scan.
  [[nodiscard]] std::uint32_t in_flight() const noexcept {
    return in_flight_;
  }

  /// Approximate SRAM bytes used by tracking state (not the DRAM staging):
  /// the quantity §3.3.2 argues stays small.
  [[nodiscard]] std::size_t tracking_sram_bytes() const noexcept;

 private:
  struct Slot {
    bool in_use = false;
    std::uint32_t payload_id = 0;
    std::uint16_t total_chunks = 0;
    std::uint16_t received = 0;
    Nanoseconds last_update_ns = 0;     // sim-time of the newest chunk
    std::vector<std::uint64_t> bitmap;  // 1 bit per chunk
    ByteVec staging;                    // device DRAM, not SRAM
  };

  Slot* find(std::uint32_t payload_id) noexcept;
  const Slot* find(std::uint32_t payload_id) const noexcept;
  Slot* acquire(std::uint32_t payload_id,
                std::uint16_t total_chunks) noexcept;
  /// Frees an in-use slot.
  void release(Slot& slot) noexcept;

  Config config_;
  std::vector<Slot> slots_;
  std::uint32_t in_flight_ = 0;
};

/// Driver-side counterpart of ReassemblyEngine for ByteExpress-R inline
/// read completions: validates and reassembles the chunk sequence the
/// controller wrote into one queue's host completion ring for a single
/// command. One instance covers one command (the ring is per-queue and
/// the CQE names the slot range, so no cross-command multiplexing is
/// needed); the bitmap still guards against duplicates and the header
/// checks catch every framing violation a stale or misdirected slot can
/// produce — including the CQE-arriving-before-the-last-chunk case, where
/// the slot still holds an old magic/cid/chunk_no.
class ReadReassembler {
 public:
  ReadReassembler(std::uint16_t qid, std::uint16_t cid,
                  std::uint32_t declared_length);

  /// Validates one ring slot and places its data. Returns
  /// kInvalidArgument on any framing violation (bad magic, wrong
  /// qid/cid, inconsistent totals, bad lengths), kDataLoss on CRC
  /// mismatch, kAlreadyExists for a duplicate chunk number.
  Status accept(const nvme::SqSlot& slot);

  [[nodiscard]] bool complete() const noexcept {
    return received_ == total_chunks_;
  }
  [[nodiscard]] std::uint16_t total_chunks() const noexcept {
    return total_chunks_;
  }
  [[nodiscard]] std::uint16_t received() const noexcept { return received_; }

  /// Returns the reassembled payload (exactly declared_length bytes).
  /// Fails with kFailedPrecondition while chunks are missing.
  StatusOr<ByteVec> take();

 private:
  std::uint16_t qid_ = 0;
  std::uint16_t cid_ = 0;
  std::uint32_t declared_length_ = 0;
  std::uint16_t total_chunks_ = 0;
  std::uint16_t received_ = 0;
  std::vector<std::uint64_t> bitmap_;
  ByteVec staging_;
};

}  // namespace bx::controller
