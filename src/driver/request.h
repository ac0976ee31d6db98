// I/O request and completion types of the host driver's public API
// (the passthrough-facing surface, §2.1).
#pragma once

#include <cstdint>
#include <string_view>

#include "common/bytes.h"
#include "common/sim_clock.h"
#include "nvme/spec.h"
#include "obs/attribution.h"

namespace bx::driver {

/// How the payload crosses PCIe. kPrp/kSgl are the NVMe-native mechanisms;
/// kBandSlim is the CMD-based prior work; kByteExpress is the paper's
/// queue-local inline transfer; kByteExpressOoo is the §3.3.2 future-work
/// identifier-based variant; kHybrid switches ByteExpress<->PRP at a
/// static threshold (§4.2's suggested optimization); kAuto delegates the
/// choice per command to the attached driver::MethodPolicy (live
/// congestion signals + overload backpressure, docs/POLICY.md) and
/// behaves like kHybrid when no policy is attached. kHybrid and kAuto
/// always resolve to a concrete method before submission.
enum class TransferMethod : std::uint8_t {
  kPrp,
  kSgl,
  kByteExpress,
  kByteExpressOoo,
  kBandSlim,
  kHybrid,
  kAuto,
};

std::string_view transfer_method_name(TransferMethod method) noexcept;

struct IoRequest {
  nvme::IoOpcode opcode = nvme::IoOpcode::kVendorRawWrite;
  std::uint32_t nsid = 1;

  // Block I/O commands (kWrite / kRead).
  std::uint64_t slba = 0;
  std::uint32_t block_count = 0;

  // Host-to-device payload (writes, KV store values, CSD tasks).
  ConstByteSpan write_data{};
  // Device-to-host destination (reads, KV retrieve).
  ByteSpan read_buffer{};

  // Vendor command auxiliary field (CDW13 bits 31:8).
  std::uint32_t aux = 0;

  /// Read-direction commands with kSgl only: describe the destination as a
  /// bit-bucket descriptor, so the command completes without the data ever
  /// crossing the link (§5: "bitbucket descriptors can act as placeholders
  /// for unused segments"). CQE DW0 still reports the data size.
  bool discard_read_data = false;

  // KV commands: key rides inside the SQE (<= 16 bytes).
  nvme::KvKeyFields key{};

  TransferMethod method = TransferMethod::kPrp;

  /// Owning tenant (0 = untenanted). Tags trace events, routes the
  /// request through the driver's SubmissionGate (admission control and
  /// rate limiting), and attributes completions in per-tenant telemetry.
  std::uint16_t tenant = 0;

  /// Sim-time the request arrived, if it waited in a backlog before
  /// reaching the driver (0 = arrives at driver entry). An open-loop
  /// caller stamps its arrival instant here; the driver then backdates
  /// the command's latency window to it, so the backlog is measured and
  /// attributed as obs::WaitSegment::kRingWait instead of silently
  /// vanishing. An origin after driver entry is ignored.
  Nanoseconds origin_ns = 0;
};

struct Completion {
  nvme::StatusField status{};
  std::uint32_t dw0 = 0;
  /// Bytes copied into read_buffer (read-direction commands).
  std::uint32_t bytes_returned = 0;
  /// Simulated submit-to-reap latency of the whole command. For a
  /// request with a backdated IoRequest::origin_ns this starts at the
  /// origin, so the arrival backlog is part of the measured window.
  Nanoseconds latency_ns = 0;
  /// Wait/service decomposition of latency_ns, valid at any queue depth:
  /// the segments sum EXACTLY to latency_ns for every completed command
  /// (obs::check_breakdown_additivity; the retry tail reports the final
  /// attempt, matching latency_ns).
  obs::LatencyBreakdown breakdown{};

  [[nodiscard]] bool ok() const noexcept { return status.is_success(); }
};

/// How the driver resolved one submission's transfer method.
struct ResolvedMethod {
  TransferMethod method = TransferMethod::kPrp;
  /// The inline request could not go inline (read direction, too large,
  /// ring too shallow) and fell back to PRP.
  bool feasibility_fallback = false;
  /// The queue is in degraded mode, so the inline request went PRP.
  bool degraded = false;
  /// ByteExpress-R: the read returns inline through the queue's
  /// completion ring (no PRP/SGL staging; `method` is what the read
  /// would fall back to). Cleared at submit time when the ring-slot
  /// reservation fails (ring full -> PRP fallback).
  bool inline_read = false;
  /// The method was chosen by the attached MethodPolicy (the request
  /// came in as kAuto) — sets kFlagAutoPolicy on the kSubmit event.
  bool auto_decided = false;
};

/// Handle for an in-flight asynchronous command.
struct Submitted {
  std::uint16_t qid = 0;
  std::uint16_t cid = 0;
  Nanoseconds submit_time_ns = 0;
  /// The method this attempt was submitted with; the retry tail
  /// (NvmeDriver::wait_resolved) classifies the attempt by it.
  ResolvedMethod resolved{};
};

}  // namespace bx::driver
