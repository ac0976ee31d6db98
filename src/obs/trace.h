// Structured command tracing for the simulated NVMe pipeline.
//
// Every instrumented layer (driver, controller, SSD executor) appends
// TraceEvents to one TraceRecorder owned by the Testbed. An event is an
// *interval* [start, end] of simulated time attributed to one pipeline
// stage of one command, keyed by (qid, cid). The "primary" stages tile a
// command's end-to-end latency with no gaps or overlaps, so summing the
// primary durations of a QD1 command reproduces Completion::latency_ns
// exactly (tests/trace_latency_accounting_test.cc asserts this).
// kDoorbell and kNandIo are nested annotation events: they overlap a
// primary interval and are excluded from latency accounting.
//
// At depth > 1 stage intervals alone cannot attribute a command's latency
// (most of it is waiting, not service). The recorder therefore also keeps
// a per-command attribution table — begin_command/finish_command bracket
// each I/O command, record() accumulates its device-stage service and
// completion times into a DeviceReport — from which the driver builds the
// obs::LatencyBreakdown carried on every Completion (obs/attribution.h).
//
// Thread safety: the recorder is one ordered log under one leaf mutex.
// A record numbers its events, adds their service to the open command's
// report and appends them in one critical section, so the log is in seq
// order as written and the multi-submitter path stays clean under TSan.
// Device-side layers that do not know (qid, cid) — the SSD executor —
// read them from the recorder's device context, which the controller
// sets around executor dispatch; all device-side code runs under the
// Testbed firmware mutex, so the context needs no atomics.
//
// Determinism: events carry only simulated time and the seq counter, so
// two runs of the same seeded scenario produce byte-identical dump()
// output (tests/trace_golden_test.cc asserts this).
//
// Cost when disabled: every instrumentation site is
// `if (tracer && tracer->enabled())`, one relaxed load. Memory: at most
// kCapacity events are kept; later ones are dropped and counted.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/histogram.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "obs/attribution.h"

namespace bx::obs {

enum class TraceStage : std::uint8_t {
  kSubmit = 0,   // host: build + insert + doorbell, one per driver-level op
  kDoorbell,     // host: one SQ tail doorbell MMIO (annotation, in kSubmit)
  kSqeFetch,     // device: 64 B SQE DMA fetch + fetch firmware cost
  kChunkFetch,   // device: one inline-chunk slot fetch (+ copy/track cost)
  kPrpDma,       // device: PRP gather/scatter incl. list fetches + setup
  kSglDma,       // device: SGL gather/scatter incl. setup
  kNandIo,       // device: FTL/NAND or write-cache work (annotation, in kExec)
  kExec,         // device: executor dispatch + run (and BandSlim stream fw)
  kReadChunkWrite,  // device: inline read-chunk MWr emission (ByteExpress-R)
  kCompletion,   // device: CQE post firmware + CQE write + MSI-X
  kCqDoorbell,   // host: completion handling + CQ head doorbell MMIO
  kCount_,
};

inline constexpr std::size_t kStageCount =
    static_cast<std::size_t>(TraceStage::kCount_);

[[nodiscard]] std::string_view stage_name(TraceStage stage) noexcept;

/// Stages whose intervals partition a command's latency window. kDoorbell
/// and kNandIo are annotations nested inside primary intervals.
[[nodiscard]] constexpr bool is_primary_stage(TraceStage stage) noexcept {
  return stage != TraceStage::kDoorbell && stage != TraceStage::kNandIo;
}

// TraceEvent::flags bits.
/// Auxiliary command: a BandSlim fragment (cid is the protocol's 0, not a
/// real command id) or BandSlim stream-setup firmware work. Auxiliary
/// kSubmit/kSqeFetch events never open a completion obligation.
inline constexpr std::uint8_t kFlagAuxCommand = 1u << 0;
/// The command is an OOO-marked inline command (chunks are self-describing
/// and need not be queue-local).
inline constexpr std::uint8_t kFlagOooCommand = 1u << 1;
/// The chunk is a self-describing OOO chunk (carries payload_id, no cid).
inline constexpr std::uint8_t kFlagOooChunk = 1u << 2;
/// The submission's transfer method was changed by the driver (inline
/// request routed through PRP: feasibility fallback or a degraded queue) —
/// set on kSubmit so traffic accounting can explain the extra PRP bytes.
inline constexpr std::uint8_t kFlagMethodFallback = 1u << 3;
/// The submission's transfer method was chosen by the adaptive policy
/// (TransferMethod::kAuto resolved through driver::MethodPolicy) — set on
/// kSubmit so traces distinguish policy decisions from caller-pinned
/// methods (docs/POLICY.md).
inline constexpr std::uint8_t kFlagAutoPolicy = 1u << 4;

/// One interval of simulated time attributed to a pipeline stage. Field
/// meaning per stage (unused fields are zero):
///   kSubmit:     bytes=payload, aux=TransferMethod as int
///   kDoorbell:   slot=new tail value, aux=ring entries published
///   kSqeFetch:   slot=ring index, aux=expected queue-local chunk count,
///                bytes=inline length
///   kChunkFetch: slot=ring index, aux=chunk index within command,
///                bytes=chunk payload bytes
///   kPrpDma/kSglDma: bytes=payload length, aux=0 gather / 1 scatter
///   kNandIo:     bytes=bytes moved, aux=0 write / 1 read
///   kExec:       bytes=payload length
///   kCompletion: (none)
///   kCqDoorbell: slot=new CQ head value
struct TraceEvent {
  std::uint64_t seq = 0;    // global record order (filled by the recorder)
  Nanoseconds start = 0;    // sim-clock interval start
  Nanoseconds end = 0;      // sim-clock interval end (>= start)
  TraceStage stage = TraceStage::kSubmit;
  std::uint8_t flags = 0;
  std::uint16_t qid = 0;
  std::uint16_t cid = 0;
  /// Owning tenant of the command (0 = untenanted). Host-side events
  /// carry it from IoRequest::tenant; it survives into the Perfetto
  /// export as a slice arg (tests/exporters_test.cc).
  std::uint16_t tenant = 0;
  std::uint32_t slot = 0;
  std::uint64_t aux = 0;
  std::uint64_t bytes = 0;
};

/// Device-side residency of one in-flight command, accumulated passively
/// by the recorder from the stage events the controller/SSD layers already
/// record, and consumed exactly once by the driver when the command
/// completes. This is what lets the wait/service decomposition stay exact
/// at depth without threading state through the firmware: the recorder
/// sees every device event anyway.
struct DeviceReport {
  /// At least one device-stage event was observed for the command.
  bool valid = false;
  /// End of the kCompletion event (CQE host-visible); 0 when the device
  /// never posted one (dropped completion, abort).
  Nanoseconds cqe_end = 0;
  /// Sum of device primary-stage event durations (fetch, chunk fetch,
  /// DMA, exec, read-chunk emission, completion post).
  std::uint64_t service_ns = 0;
  /// Reassembly/defer wait the controller noted explicitly
  /// (note_command_wait) — deferred-OOO chunks in flight, BandSlim
  /// fragment assembly.
  std::uint64_t wait_ns = 0;
};

/// Per-stage latency distribution of the recorded events — the
/// "per-stage p50/p99" the benches export.
struct StageBreakdown {
  struct StageStats {
    std::uint64_t count = 0;
    std::uint64_t total_ns = 0;
    LatencyHistogram durations;
  };
  std::array<StageStats, kStageCount> stages{};

  [[nodiscard]] const StageStats& of(TraceStage stage) const noexcept {
    return stages[static_cast<std::size_t>(stage)];
  }
};

class TraceRecorder {
 public:
  /// Events kept before new ones are dropped (memory bound for very long
  /// benchmark runs); dropped events are counted, never silently lost.
  static constexpr std::uint64_t kCapacity = std::uint64_t{1} << 20;

  TraceRecorder() = default;
  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  /// All instrumentation sites guard on this.
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }

  /// Appends `event` (seq is assigned here). Safe from any thread.
  void record(TraceEvent event) { record_run({&event, 1}); }

  /// Appends `events`, which must all belong to one (qid, cid), in order
  /// and under consecutive seqs (assigned here, into the span): one lock
  /// and one attribution-table lookup for the run. The controller records
  /// a chunk run's per-chunk events this way; the result is the same as
  /// recording them one by one.
  void record_run(std::span<TraceEvent> events);

  /// Appends `event` with (qid, cid) filled from the device context — for
  /// device-side layers below the controller (e.g. the SSD executor).
  void record_in_device_context(TraceEvent event);

  /// The (qid, cid) the device firmware is currently executing. Set by the
  /// controller around executor dispatch; only touched under the firmware
  /// mutex, so plain fields suffice.
  void set_device_context(std::uint16_t qid, std::uint16_t cid) noexcept {
    device_qid_ = qid;
    device_cid_ = cid;
    device_context_valid_ = true;
  }
  void clear_device_context() noexcept { device_context_valid_ = false; }

  // ---- per-command attribution --------------------------------------
  // The driver brackets every I/O command's life with begin_command /
  // finish_command; in between, record() transparently accumulates the
  // command's device-stage service into its table entry.

  void begin_command(std::uint16_t qid, std::uint16_t cid);
  /// Controller-noted wait (deferred-OOO reassembly, fragment assembly)
  /// attributed to WaitSegment::kReassembly. No-op for unknown commands.
  void note_command_wait(std::uint16_t qid, std::uint16_t cid,
                         std::uint64_t wait_ns);
  /// Closes the command's table entry and returns its accumulated device
  /// report. Unknown commands return {valid = false}.
  DeviceReport finish_command(std::uint16_t qid, std::uint16_t cid);

  /// All events kept so far, in seq order.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Per-stage counts and duration distributions of the events kept so
  /// far, read in place.
  [[nodiscard]] StageBreakdown stage_breakdown() const;

  /// Drops all recorded events and open attribution entries (seq keeps
  /// counting upward).
  void clear();

  [[nodiscard]] std::uint64_t events_recorded() const noexcept {
    return next_seq_.load(std::memory_order_relaxed);
  }

  /// Deterministic multi-line text rendering of a snapshot — what the
  /// golden tests diff byte-for-byte.
  [[nodiscard]] static std::string dump(const std::vector<TraceEvent>& events);

 private:
  static constexpr std::uint32_t command_key(std::uint16_t qid,
                                             std::uint16_t cid) noexcept {
    return (std::uint32_t{qid} << 16) | cid;
  }

  std::atomic<bool> enabled_{true};
  // Written under mutex_; atomic so the getters read them without it.
  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> dropped_{0};

  // One leaf lock over the log (in seq order, at most kCapacity events)
  // and the attribution table: each open command's report, keyed
  // (qid << 16) | cid.
  mutable std::mutex mutex_;
  std::vector<TraceEvent> events_;
  std::unordered_map<std::uint32_t, DeviceReport> open_;

  std::uint16_t device_qid_ = 0;
  std::uint16_t device_cid_ = 0;
  bool device_context_valid_ = false;
};

/// JSON object keyed by stage name with count/total/p50/p99 per stage.
[[nodiscard]] std::string to_json(const StageBreakdown& breakdown);

}  // namespace bx::obs
