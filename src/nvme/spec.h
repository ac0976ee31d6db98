// NVMe on-the-wire structures (subset of NVMe 1.4 + vendor extensions).
//
// The layouts are bit-exact where the paper's mechanism depends on them:
//   * SubmissionQueueEntry is exactly 64 bytes — one SQ slot, which is also
//     the ByteExpress chunk granularity,
//   * CompletionQueueEntry is exactly 16 bytes,
//   * ByteExpress re-purposes CDW2 (reserved for the NVM command set) to
//     carry the inline payload length, exactly as §3.3.1 describes
//     ("repurposes a reserved field within the CMD to store the payload
//     length again").
#pragma once

#include <cstdint>
#include <cstring>
#include <string_view>

#include "common/bytes.h"

namespace bx::nvme {

inline constexpr std::uint32_t kSqeSize = 64;
inline constexpr std::uint32_t kCqeSize = 16;
/// ByteExpress chunk granularity == SQ entry size.
inline constexpr std::uint32_t kChunkSize = kSqeSize;

// ---------------------------------------------------------------- opcodes

enum class AdminOpcode : std::uint8_t {
  kDeleteIoSq = 0x00,
  kCreateIoSq = 0x01,
  kGetLogPage = 0x02,
  kDeleteIoCq = 0x04,
  kCreateIoCq = 0x05,
  kIdentify = 0x06,
  /// CDW10 = SQID | (CID << 16); completion DW0 bit 0 clear = aborted.
  kAbort = 0x08,
  kSetFeatures = 0x09,
  kGetFeatures = 0x0a,
  /// Vendor: advertise a host-side inline-read completion ring for one
  /// I/O queue (ByteExpress-R). CDW10 = QID | (slot count << 16); DPTR1 =
  /// ring base address. Rejected with Invalid Field when the controller
  /// has inline reads disabled — the driver then falls back to PRP reads.
  kVendorReadRing = 0xc1,
};

/// Identify CNS values (CDW10 bits 7:0).
enum class IdentifyCns : std::uint8_t {
  kNamespace = 0x00,
  kController = 0x01,
};

/// Log page identifiers (CDW10 bits 7:0 of Get Log Page).
enum class LogPageId : std::uint8_t {
  kErrorInfo = 0x01,
  kSmart = 0x02,
  /// Vendor log: transfer-path statistics (ByteExpress instrumentation).
  kVendorTransferStats = 0xc0,
  /// Vendor log: per-stage firmware timing statistics (observability).
  kVendorStageStats = 0xc1,
};

/// Layout of the vendor transfer-stats log page (LID 0xC0) — the
/// device-side counters behind the paper's traffic/overhead analysis.
struct TransferStatsLog {
  std::uint64_t commands_processed = 0;
  std::uint64_t inline_chunks_fetched = 0;
  std::uint64_t bandslim_fragments = 0;
  std::uint64_t prp_transactions = 0;
  std::uint64_t sgl_transactions = 0;
  std::uint64_t completions_posted = 0;
  std::uint64_t ooo_payloads_reassembled = 0;
  /// The 0xC1 ledger's sqe_fetch + chunk_fetch ns.
  std::uint64_t fetch_stage_total_ns = 0;
};
static_assert(sizeof(TransferStatsLog) == 64);

/// Layout of the vendor stage-stats log page (LID 0xC1): cumulative
/// {count, total_ns} per device-side pipeline stage for I/O queues
/// (admin-queue work is excluded). Accumulated always-on in firmware,
/// independently of the host-side trace recorder.
struct StageStatsLog {
  struct Entry {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
  };
  Entry sqe_fetch;
  Entry chunk_fetch;
  Entry prp_dma;
  Entry sgl_dma;
  Entry exec;
  Entry completion;
  /// ByteExpress-R: device->host inline read-chunk emission.
  Entry read_chunk;
  std::uint64_t reserved[2] = {};
};
static_assert(sizeof(StageStatsLog) == 128);

enum class IoOpcode : std::uint8_t {
  kFlush = 0x00,
  kWrite = 0x01,
  kRead = 0x02,

  // Vendor-specific opcodes, delivered via NVMe passthrough (§2.1).
  kVendorKvStore = 0x81,
  kVendorKvRetrieve = 0x82,
  kVendorKvDelete = 0x83,
  kVendorKvExist = 0x84,
  kVendorKvIterate = 0x85,
  kVendorCsdFilter = 0x91,       // SQL predicate pushdown task
  kVendorBandSlimFragment = 0x95,  // BandSlim payload fragment carrier
  kVendorRawWrite = 0x96,  // microbenchmark write into device buffer
  kVendorRawRead = 0x97,
  /// Sub-block update: patch `cdw12` payload bytes into block `cdw10/11`
  /// at byte offset `cdw13[31:8]` — the device performs the
  /// read-modify-write in its NAND page buffer (§3.3.1's "NAND page
  /// buffer entry of normal block SSDs"). With ByteExpress the host ships
  /// only the changed bytes instead of the whole 4 KB block.
  kVendorPartialWrite = 0x98,
};

std::string_view io_opcode_name(IoOpcode op) noexcept;

/// True for opcodes whose data travels host -> device (the host hands the
/// driver a payload: the inline, PRP and SGL write paths).
[[nodiscard]] constexpr bool is_write_direction(IoOpcode op) noexcept {
  switch (op) {
    case IoOpcode::kWrite:
    case IoOpcode::kVendorRawWrite:
    case IoOpcode::kVendorKvStore:
    case IoOpcode::kVendorCsdFilter:
    case IoOpcode::kVendorPartialWrite:
      return true;
    default:
      return false;
  }
}

/// True for opcodes whose data travels device -> host (PRP/SGL scatter or
/// the inline-read completion ring).
[[nodiscard]] constexpr bool is_read_direction(IoOpcode op) noexcept {
  switch (op) {
    case IoOpcode::kRead:
    case IoOpcode::kVendorRawRead:
    case IoOpcode::kVendorKvRetrieve:
    case IoOpcode::kVendorKvIterate:
      return true;
    default:
      return false;
  }
}

// ------------------------------------------------------------ status codes

enum class StatusCodeType : std::uint8_t {
  kGeneric = 0x0,
  kCommandSpecific = 0x1,
  kMediaError = 0x2,
  kVendor = 0x7,
};

enum class GenericStatus : std::uint8_t {
  kSuccess = 0x00,
  kInvalidOpcode = 0x01,
  kInvalidField = 0x02,
  kDataTransferError = 0x04,
  kInternalError = 0x06,
  /// The command was cancelled by a host Abort (retryable: the host
  /// itself asked for the cancellation, usually after a timeout).
  kAbortRequested = 0x07,
  kInvalidNamespace = 0x0b,
  kLbaOutOfRange = 0x80,
  kCapacityExceeded = 0x81,
  /// Transient device-side condition; the host should retry (the NVMe
  /// "Namespace Not Ready, retry possible" semantics).
  kNamespaceNotReady = 0x82,
};

enum class VendorStatus : std::uint8_t {
  kKvKeyNotFound = 0x01,
  kKvKeyTooLarge = 0x02,
  kKvValueTooLarge = 0x03,
  kKvStoreFull = 0x04,
  kCsdParseError = 0x10,
  kCsdUnknownTable = 0x11,
  kCsdTypeMismatch = 0x12,
  kFragmentProtocolError = 0x20,
  kInlineLengthMismatch = 0x21,
};

/// The 15-bit status field of a CQE (phase bit excluded).
struct StatusField {
  StatusCodeType type = StatusCodeType::kGeneric;
  std::uint8_t code = 0;

  [[nodiscard]] bool is_success() const noexcept {
    return type == StatusCodeType::kGeneric &&
           code == static_cast<std::uint8_t>(GenericStatus::kSuccess);
  }
  [[nodiscard]] std::uint16_t encode() const noexcept {
    return static_cast<std::uint16_t>(
        (static_cast<std::uint16_t>(type) << 9) |
        (static_cast<std::uint16_t>(code) << 1));
  }
  static StatusField decode(std::uint16_t raw) noexcept {
    StatusField f;
    f.type = static_cast<StatusCodeType>((raw >> 9) & 0x7);
    f.code = static_cast<std::uint8_t>((raw >> 1) & 0xff);
    return f;
  }
  static StatusField success() noexcept { return {}; }
  static StatusField generic(GenericStatus code) noexcept {
    return {StatusCodeType::kGeneric, static_cast<std::uint8_t>(code)};
  }
  static StatusField vendor(VendorStatus code) noexcept {
    return {StatusCodeType::kVendor, static_cast<std::uint8_t>(code)};
  }
};

// -------------------------------------------------------------------- SQE

/// PRP or SGL selection, SQE bits 15:14 of DWORD0 (PSDT) in the spec.
enum class DataTransferMode : std::uint8_t {
  kPrp = 0b00,
  kSglData = 0b01,
};

/// One 64-byte submission queue entry.
struct SubmissionQueueEntry {
  std::uint8_t opcode = 0;       // DW0 [7:0]
  std::uint8_t flags = 0;        // DW0 [15:8]: FUSE + PSDT
  std::uint16_t cid = 0;         // DW0 [31:16] command identifier
  std::uint32_t nsid = 0;        // DW1
  std::uint32_t cdw2 = 0;        // DW2  (reserved in NVM set: ByteExpress len)
  std::uint32_t cdw3 = 0;        // DW3  (reserved)
  std::uint64_t mptr = 0;        // DW4-5 metadata pointer
  std::uint64_t dptr1 = 0;       // DW6-7  PRP1 / SGL descriptor low half
  std::uint64_t dptr2 = 0;       // DW8-9  PRP2 / SGL descriptor high half
  std::uint32_t cdw10 = 0;
  std::uint32_t cdw11 = 0;
  std::uint32_t cdw12 = 0;
  std::uint32_t cdw13 = 0;
  std::uint32_t cdw14 = 0;
  std::uint32_t cdw15 = 0;

  [[nodiscard]] DataTransferMode transfer_mode() const noexcept {
    return static_cast<DataTransferMode>((flags >> 6) & 0x3);
  }
  void set_transfer_mode(DataTransferMode mode) noexcept {
    flags = static_cast<std::uint8_t>(
        (flags & 0x3f) | (static_cast<std::uint8_t>(mode) << 6));
  }

  /// ByteExpress: inline payload length lives in the reserved CDW2. Zero
  /// means "not a ByteExpress command" — the controller's fetch engine
  /// branches on exactly this (§3.3.1).
  [[nodiscard]] std::uint32_t inline_length() const noexcept { return cdw2; }
  void set_inline_length(std::uint32_t bytes) noexcept { cdw2 = bytes; }

  [[nodiscard]] IoOpcode io_opcode() const noexcept {
    return static_cast<IoOpcode>(opcode);
  }
};
static_assert(sizeof(SubmissionQueueEntry) == kSqeSize,
              "SQE must be exactly 64 bytes");

/// A raw 64-byte SQ slot holding payload bytes instead of a command — what
/// the ByteExpress driver appends after the SQE.
struct SqSlot {
  Byte raw[kSqeSize] = {};
};
static_assert(sizeof(SqSlot) == kSqeSize);

// -------------------------------------------------------------------- CQE

struct CompletionQueueEntry {
  std::uint32_t dw0 = 0;      // command-specific result
  std::uint32_t dw1 = 0;
  std::uint16_t sq_head = 0;  // SQ head pointer after this command
  std::uint16_t sq_id = 0;
  std::uint16_t cid = 0;
  std::uint16_t status_phase = 0;  // [15:1] status, [0] phase tag

  [[nodiscard]] bool phase() const noexcept {
    return (status_phase & 1) != 0;
  }
  void set_phase(bool p) noexcept {
    status_phase = static_cast<std::uint16_t>((status_phase & ~1u) |
                                              (p ? 1u : 0u));
  }
  [[nodiscard]] StatusField status() const noexcept {
    return StatusField::decode(status_phase);
  }
  void set_status(StatusField status) noexcept {
    status_phase = static_cast<std::uint16_t>(status.encode() |
                                              (status_phase & 1u));
  }
};
static_assert(sizeof(CompletionQueueEntry) == kCqeSize,
              "CQE must be exactly 16 bytes");

// ----------------------------------------------------- command field views

/// Block I/O commands: starting LBA in CDW10-11, block count in CDW12[15:0]
/// (0's based), per the NVM command set.
struct BlockIoFields {
  std::uint64_t slba = 0;
  std::uint32_t block_count = 0;  // actual count, not 0's based

  static BlockIoFields from(const SubmissionQueueEntry& sqe) noexcept {
    BlockIoFields f;
    f.slba = (static_cast<std::uint64_t>(sqe.cdw11) << 32) | sqe.cdw10;
    f.block_count = (sqe.cdw12 & 0xffff) + 1;
    return f;
  }
  void apply(SubmissionQueueEntry& sqe) const noexcept {
    sqe.cdw10 = static_cast<std::uint32_t>(slba);
    sqe.cdw11 = static_cast<std::uint32_t>(slba >> 32);
    sqe.cdw12 = (sqe.cdw12 & 0xffff0000) | ((block_count - 1) & 0xffff);
  }
};

/// Vendor data commands (KV/CSD/raw): the host-buffer byte length travels in
/// CDW12, and an opcode-specific sub-field in CDW13.
struct VendorFields {
  std::uint32_t data_length = 0;  // bytes
  std::uint32_t aux = 0;

  static VendorFields from(const SubmissionQueueEntry& sqe) noexcept {
    return {sqe.cdw12, sqe.cdw13};
  }
  void apply(SubmissionQueueEntry& sqe) const noexcept {
    sqe.cdw12 = data_length;
    sqe.cdw13 = aux;
  }
};

/// KV command-set key placement, NVMe-KV style: the key (up to 16 bytes)
/// rides inside the SQE itself — CDW10, CDW11, CDW14, CDW15 — and its
/// length occupies the low byte of CDW13. This deliberately avoids CDW2/3
/// (ByteExpress length / OOO id), MPTR/DPTR (PRP or BandSlim inline head)
/// and CDW12 (value length), so every transfer method composes with KV
/// commands.
struct KvKeyFields {
  static constexpr std::size_t kMaxKeyBytes = 16;

  Byte key[kMaxKeyBytes] = {};
  std::uint8_t key_len = 0;

  static KvKeyFields from(const SubmissionQueueEntry& sqe) noexcept {
    KvKeyFields f;
    f.key_len = static_cast<std::uint8_t>(sqe.cdw13 & 0xff);
    std::memcpy(f.key + 0, &sqe.cdw10, 4);
    std::memcpy(f.key + 4, &sqe.cdw11, 4);
    std::memcpy(f.key + 8, &sqe.cdw14, 4);
    std::memcpy(f.key + 12, &sqe.cdw15, 4);
    return f;
  }
  void apply(SubmissionQueueEntry& sqe) const noexcept {
    sqe.cdw13 = (sqe.cdw13 & ~0xffu) | key_len;
    std::memcpy(&sqe.cdw10, key + 0, 4);
    std::memcpy(&sqe.cdw11, key + 4, 4);
    std::memcpy(&sqe.cdw14, key + 8, 4);
    std::memcpy(&sqe.cdw15, key + 12, 4);
  }
  [[nodiscard]] ConstByteSpan view() const noexcept {
    return {key, key_len};
  }
};

}  // namespace bx::nvme
