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
// The same table drives tail-based sampling (SamplingConfig): buffer each
// command's events and keep only the interesting tails, with exact
// kept + sampled_out == seen accounting.
//
// Thread safety: the recorder is sharded by qid (shard mutex + vector),
// with a global atomic sequence number, so the PR-1 multi-submitter path
// stays clean under TSan. snapshot() merges shards in seq order. Device
// -side layers that do not know (qid, cid) — the SSD executor — read them
// from the recorder's device context, which the controller sets around
// executor dispatch; all device-side code runs under the Testbed firmware
// mutex, so the context needs no atomics.
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

/// Tail-based sampling policy for per-command event retention. Attribution
/// (begin/finish, DeviceReport) is always on; when `enabled` is set the
/// recorder additionally BUFFERS each open command's events and keeps them
/// only if the finished command is interesting: latency at or above
/// `keep_threshold_ns`, in the running top-k of its window, or picked by
/// the deterministic 1-in-`sample_every` residual sampler. Everything else
/// is discarded with exact accounting: commands_kept + commands_sampled_out
/// == commands_seen, always. Events of commands the recorder never saw
/// begin_command for (admin queue, aux commands) pass through unsampled.
struct SamplingConfig {
  bool enabled = false;
  /// Keep every command whose latency_ns >= this (0 disables the rule).
  Nanoseconds keep_threshold_ns = 0;
  /// Keep any command in the running top-k latencies of its window
  /// (0 disables the rule). "Running": membership is decided online at
  /// completion time against the commands finished so far in the window,
  /// so the kept set is a superset of the true top-k.
  std::uint32_t top_k = 0;
  /// Window length for the top-k rule.
  Nanoseconds window_ns = 1'000'000;
  /// Of the commands no rule kept, keep every Nth (0 keeps none).
  std::uint32_t sample_every = 0;
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
  /// and under consecutive seqs (assigned here, into the span): one seq
  /// range, one attribution-table lookup and one shard lock for the run.
  /// The controller records a chunk run's per-chunk events this way; the
  /// result is the same as recording them one by one.
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

  // ---- per-command attribution + tail-based sampling ----------------
  // The driver brackets every I/O command's life with begin_command /
  // finish_command; in between, record() transparently accumulates the
  // command's device-stage service into its table entry (and buffers the
  // events when sampling is enabled). finish_command returns the device
  // report and applies the keep/sample decision.

  void begin_command(std::uint16_t qid, std::uint16_t cid,
                     std::uint16_t tenant);
  /// Controller-noted wait (deferred-OOO reassembly, fragment assembly)
  /// attributed to WaitSegment::kReassembly. No-op for unknown commands.
  void note_command_wait(std::uint16_t qid, std::uint16_t cid,
                         std::uint64_t wait_ns);
  /// Closes the command's table entry, decides keep/sample using
  /// `latency_ns` against the sampling policy (`now` anchors the top-k
  /// window), flushes or discards its buffered events, and returns the
  /// accumulated device report. Unknown commands return {valid = false}
  /// and count as kept.
  DeviceReport finish_command(std::uint16_t qid, std::uint16_t cid,
                              Nanoseconds now, Nanoseconds latency_ns);

  void configure_sampling(const SamplingConfig& config);
  [[nodiscard]] SamplingConfig sampling_config() const;

  /// Exact sampling accounting: kept + sampled_out == seen, always.
  [[nodiscard]] std::uint64_t commands_seen() const noexcept {
    return commands_seen_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t commands_kept() const noexcept {
    return commands_kept_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t commands_sampled_out() const noexcept {
    return commands_sampled_out_.load(std::memory_order_relaxed);
  }
  /// Buffered events discarded with their sampled-out commands (distinct
  /// from dropped(): those hit the capacity bound).
  [[nodiscard]] std::uint64_t events_sampled_out() const noexcept {
    return events_sampled_out_.load(std::memory_order_relaxed);
  }

  /// All events so far, merged across shards in seq order.
  [[nodiscard]] std::vector<TraceEvent> snapshot() const;

  /// Drops all recorded events, open attribution entries and sampling
  /// accounting (seq keeps counting upward).
  void clear();

  [[nodiscard]] std::uint64_t events_recorded() const noexcept {
    return next_seq_.load(std::memory_order_relaxed);
  }

  /// Deterministic multi-line text rendering of a snapshot — what the
  /// golden tests diff byte-for-byte.
  [[nodiscard]] static std::string dump(const std::vector<TraceEvent>& events);

 private:
  static constexpr std::size_t kShards = 16;
  struct Shard {
    mutable std::mutex mutex;
    std::vector<TraceEvent> events;
  };
  /// One open command in the attribution table, keyed (qid << 16) | cid.
  struct OpenCommand {
    std::uint16_t tenant = 0;
    bool buffering = false;
    DeviceReport report;
    std::vector<TraceEvent> buffered;
  };

  static constexpr std::uint32_t command_key(std::uint16_t qid,
                                             std::uint16_t cid) noexcept {
    return (std::uint32_t{qid} << 16) | cid;
  }

  /// Capacity-checked push of events of one qid into its shard (seqs
  /// already assigned); events past the capacity are dropped and counted.
  void store_events(std::span<const TraceEvent> events);

  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> next_seq_{0};
  std::atomic<std::uint64_t> stored_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::array<Shard, kShards> shards_;

  // Attribution table + sampling state. table_mutex_ is taken before a
  // shard mutex (flush path) and never the other way around.
  mutable std::mutex table_mutex_;
  std::unordered_map<std::uint32_t, OpenCommand> open_;
  SamplingConfig sampling_;
  std::uint64_t topk_window_index_ = 0;
  std::vector<Nanoseconds> topk_heap_;  // min-heap of kept window latencies
  std::uint64_t residual_counter_ = 0;
  std::atomic<std::uint64_t> commands_seen_{0};
  std::atomic<std::uint64_t> commands_kept_{0};
  std::atomic<std::uint64_t> commands_sampled_out_{0};
  std::atomic<std::uint64_t> events_sampled_out_{0};

  std::uint16_t device_qid_ = 0;
  std::uint16_t device_cid_ = 0;
  bool device_context_valid_ = false;
};

/// Per-stage latency distribution derived from a trace snapshot — the
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

[[nodiscard]] StageBreakdown stage_breakdown(
    const std::vector<TraceEvent>& events);

/// JSON object keyed by stage name with count/total/p50/p99 per stage.
[[nodiscard]] std::string to_json(const StageBreakdown& breakdown);

}  // namespace bx::obs
