#include "controller/reassembly.h"

#include <algorithm>
#include <cstring>

#include "common/crc32c.h"

namespace bx::controller {

namespace inw = nvme::inline_chunk;

ReassemblyEngine::ReassemblyEngine(Config config)
    : config_(config), slots_(config.slots) {
  BX_ASSERT(config.slots > 0);
  BX_ASSERT(config.max_chunks > 0);
}

ReassemblyEngine::Slot* ReassemblyEngine::find(
    std::uint32_t payload_id) noexcept {
  for (auto& slot : slots_) {
    if (slot.in_use && slot.payload_id == payload_id) return &slot;
  }
  return nullptr;
}

const ReassemblyEngine::Slot* ReassemblyEngine::find(
    std::uint32_t payload_id) const noexcept {
  for (const auto& slot : slots_) {
    if (slot.in_use && slot.payload_id == payload_id) return &slot;
  }
  return nullptr;
}

ReassemblyEngine::Slot* ReassemblyEngine::acquire(
    std::uint32_t payload_id, std::uint16_t total_chunks) noexcept {
  for (auto& slot : slots_) {
    if (!slot.in_use) {
      slot.in_use = true;
      slot.payload_id = payload_id;
      slot.total_chunks = total_chunks;
      slot.received = 0;
      slot.bitmap.assign((total_chunks + 63) / 64, 0);
      slot.staging.assign(
          std::size_t{total_chunks} * inw::kOooChunkCapacity, 0);
      ++in_flight_;
      return &slot;
    }
  }
  return nullptr;
}

Status ReassemblyEngine::accept(const inw::OooChunkHeader& header,
                                ConstByteSpan data, Nanoseconds now) {
  if (header.magic != inw::kOooChunkMagic) {
    return invalid_argument("bad chunk magic");
  }
  if (header.total_chunks == 0 || header.total_chunks > config_.max_chunks) {
    return invalid_argument("bad total chunk count");
  }
  if (header.chunk_no >= header.total_chunks) {
    return invalid_argument("chunk number out of range");
  }
  if (data.size() != header.data_len ||
      header.data_len > inw::kOooChunkCapacity) {
    return invalid_argument("chunk data length mismatch");
  }
  if (crc32c(data) != header.crc) {
    return data_loss("chunk CRC mismatch");
  }

  Slot* slot = find(header.payload_id);
  if (slot == nullptr) {
    slot = acquire(header.payload_id, header.total_chunks);
    if (slot == nullptr) {
      return resource_exhausted("all reassembly slots busy");
    }
  }
  if (slot->total_chunks != header.total_chunks) {
    return invalid_argument("inconsistent total chunk count for payload");
  }

  const std::size_t word = header.chunk_no / 64;
  const std::uint64_t bit = std::uint64_t{1} << (header.chunk_no % 64);
  if ((slot->bitmap[word] & bit) != 0) {
    return already_exists("duplicate chunk");
  }
  slot->bitmap[word] |= bit;
  ++slot->received;
  slot->last_update_ns = now;
  // Direct placement at the chunk's DRAM offset (§3.3.2) — no buffering of
  // out-of-order arrivals is needed.
  std::memcpy(slot->staging.data() +
                  std::size_t{header.chunk_no} * inw::kOooChunkCapacity,
              data.data(), data.size());
  return Status::ok();
}

bool ReassemblyEngine::complete(std::uint32_t payload_id) const noexcept {
  const Slot* slot = find(payload_id);
  return slot != nullptr && slot->received == slot->total_chunks;
}

StatusOr<ByteVec> ReassemblyEngine::take(std::uint32_t payload_id,
                                         std::uint64_t length) {
  Slot* slot = find(payload_id);
  if (slot == nullptr) return not_found("unknown payload id");
  if (slot->received != slot->total_chunks) {
    return failed_precondition("payload incomplete");
  }
  if (length > slot->staging.size()) {
    return invalid_argument("declared length exceeds received data");
  }
  ByteVec out(slot->staging.begin(),
              slot->staging.begin() + static_cast<std::ptrdiff_t>(length));
  release(*slot);
  return out;
}

std::vector<std::uint32_t> ReassemblyEngine::evict_expired(Nanoseconds now) {
  std::vector<std::uint32_t> evicted;
  if (config_.ttl_ns == 0) return evicted;
  for (auto& slot : slots_) {
    if (slot.in_use && now > slot.last_update_ns &&
        now - slot.last_update_ns > config_.ttl_ns) {
      evicted.push_back(slot.payload_id);
      release(slot);
    }
  }
  return evicted;
}

void ReassemblyEngine::drop(std::uint32_t payload_id) noexcept {
  Slot* slot = find(payload_id);
  if (slot != nullptr) release(*slot);
}

void ReassemblyEngine::release(Slot& slot) noexcept {
  slot.in_use = false;
  slot.staging.clear();
  slot.bitmap.clear();
  --in_flight_;
}

std::size_t ReassemblyEngine::tracking_sram_bytes() const noexcept {
  // Per slot: payload id (4) + counters (4) + bitmap words.
  std::size_t bytes = 0;
  for (const auto& slot : slots_) {
    bytes += 8 + slot.bitmap.size() * sizeof(std::uint64_t);
  }
  return bytes;
}

// -------------------------------------------------------- ReadReassembler

namespace inr = nvme::inline_read;

ReadReassembler::ReadReassembler(std::uint16_t qid, std::uint16_t cid,
                                 std::uint32_t declared_length)
    : qid_(qid), cid_(cid), declared_length_(declared_length) {
  BX_ASSERT(declared_length > 0);
  total_chunks_ =
      static_cast<std::uint16_t>(inr::read_chunks_for(declared_length));
  bitmap_.assign((total_chunks_ + 63u) / 64u, 0);
  staging_.assign(declared_length, 0);
}

Status ReadReassembler::accept(const nvme::SqSlot& slot) {
  if (!inr::is_read_chunk(slot)) {
    return invalid_argument("not a read chunk (stale or foreign slot)");
  }
  const inr::ReadChunkHeader header = inr::decode_read_header(slot);
  if (header.version != 1) {
    return invalid_argument("unknown read chunk version");
  }
  if (header.qid != qid_ || header.cid != cid_) {
    return invalid_argument("read chunk addressed to another command");
  }
  if (header.total_chunks != total_chunks_) {
    return invalid_argument("inconsistent total chunk count");
  }
  if (header.chunk_no >= total_chunks_) {
    return invalid_argument("chunk number out of range");
  }
  const std::uint32_t offset =
      std::uint32_t{header.chunk_no} * inr::kReadChunkCapacity;
  const std::uint32_t expected_len =
      std::min(inr::kReadChunkCapacity, declared_length_ - offset);
  if (header.data_len != expected_len) {
    return invalid_argument("chunk data length mismatch");
  }
  const ConstByteSpan data = inr::read_chunk_data(slot, header);
  if (crc32c(data) != header.crc) {
    return data_loss("read chunk CRC mismatch");
  }
  const std::size_t word = header.chunk_no / 64;
  const std::uint64_t bit = std::uint64_t{1} << (header.chunk_no % 64);
  if ((bitmap_[word] & bit) != 0) {
    return already_exists("duplicate read chunk");
  }
  bitmap_[word] |= bit;
  ++received_;
  std::memcpy(staging_.data() + offset, data.data(), data.size());
  return Status::ok();
}

StatusOr<ByteVec> ReadReassembler::take() {
  if (!complete()) {
    return failed_precondition("inline read payload incomplete");
  }
  return std::move(staging_);
}

}  // namespace bx::controller
