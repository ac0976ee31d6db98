// Host-side NVMe driver model.
//
// This is the analog of the Linux kernel PCIe NVMe driver the paper patched:
// queue management, the nvme_queue_rq() submission path with its per-SQ
// lock, PRP/SGL construction, and the passthrough execute() entry point.
//
// Every I/O submission runs two private steps. prepare() resolves the
// transfer method, validates, builds the SQE, reserves inline-read ring
// slots or stages PRP/SGL data, admits through the gate and registers the
// CID. publish() lays prepared commands on the SQ in runs: one SQ-lock hold
// pushes each SQE with its 64-byte inline chunks right behind it (the
// payload length re-encoded into the reserved CDW2, push_command_locked())
// and rings ONE doorbell for the run before the lock drops — the
// ByteExpress host change of §3.3. submit() publishes a batch of one;
// submit_batch() prepares every request, then publishes once, so a batch
// coalesces under one doorbell (RDMAbox-style merging) and is the one
// batching path. execute() and execute_batch() wait through the same retry
// tail, wait_resolved().
//
// The driver is transport only — it never interprets vendor command
// semantics; that is the device's job.
//
// Thread safety (see docs/CONCURRENCY.md for the full model): after
// init_io_queues() returns, any number of submitter threads may call
// submit()/wait()/execute()/poll_completions()/execute_ooo_striped()
// concurrently, on the same or different queues. Three locks exist per
// queue pair and are acquired in this order, never the reverse:
//
//   cq_mutex  ->  SqRing::lock()  ->  pending_mutex
//
// (Most paths hold only one of them at a time; poll_completions() is the
// one path that nests all three.) execute_ooo_striped() is the only path
// holding several queues' SQ locks at once; it acquires them in ascending
// qid order. Doorbells are rung while the ring lock is held, so BAR tail
// values never regress when two submitters race.
// Command/stream/payload identifiers come from atomic allocators.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "driver/method_policy.h"
#include "driver/request.h"
#include "driver/submission_gate.h"
#include "hostmem/dma_memory.h"
#include "nvme/prp.h"
#include "nvme/queue.h"
#include "nvme/spec.h"
#include "nvme/timing.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "pcie/bar.h"
#include "pcie/link.h"

namespace bx::driver {

class NvmeDriver {
 public:
  /// Admin SQ/CQ depth.
  static constexpr std::uint32_t kAdminQueueDepth = 32;
  /// Writes above this many bytes (or too large for the ring) cannot go
  /// inline and fall back to PRP.
  static constexpr std::uint32_t kMaxInlineBytes = 8192;
  /// Reads at or below this many bytes return inline when completion-ring
  /// slots are available; larger reads use the native PRP/SGL return.
  static constexpr std::uint32_t kMaxInlineReadBytes = 4096;

  struct Config {
    std::uint16_t io_queue_count = 1;
    std::uint32_t io_queue_depth = 256;
    nvme::HostTimingModel timing{};
    /// kHybrid: payloads at or below this go inline, above go PRP (§4.2).
    std::uint32_t hybrid_threshold_bytes = 256;

    // ---- ByteExpress-R inline read completions (docs/READPATH.md) ----

    /// Master switch: allocate a per-queue host completion ring next to
    /// the CQ, advertise it via kVendorReadRing at queue creation, and
    /// request inline return for reads up to kMaxInlineReadBytes. If the
    /// controller rejects the advertisement (firmware support off), inline
    /// reads are disabled for the session and every read goes PRP/SGL.
    bool inline_read_enabled = true;
    /// Completion-ring slots per I/O queue (64 B each). Bounds the
    /// inline-read data in flight per queue; reservation failure falls
    /// back to PRP. Capped at 2^15 by the CQE DW1 slot encoding.
    std::uint32_t read_ring_slots = 256;

    // ---- error recovery (see docs/FAULTS.md) ----

    /// Sim-time an I/O command may stay in flight before wait() declares
    /// it timed out, sends an Abort, and synthesizes an Abort Requested
    /// completion. 0 disables timeouts (pre-recovery behaviour). Keep it
    /// above Controller::Config::deferred_ttl_ns and the reassembly TTL
    /// so the device fails a stuck command before the host abandons it.
    Nanoseconds command_timeout_ns = 50'000'000;  // 50 ms
    /// Sim-time wait() advances the clock per idle poll iteration while a
    /// deadline is armed — the simulation's stand-in for host wall-clock
    /// passing while the device is silent. Healthy commands complete
    /// without ever hitting an idle iteration, so this never perturbs
    /// fault-free timing.
    Nanoseconds poll_idle_advance_ns = 1'000;  // 1 µs
    /// Retries execute() performs on a retryable error completion
    /// (Data Transfer Error, Namespace Not Ready, Abort Requested).
    std::uint32_t max_retries = 4;
    /// Exponential backoff before each retry: base << attempt, capped.
    /// Advanced on the sim clock, so retry schedules are deterministic.
    Nanoseconds retry_backoff_base_ns = 20'000;  // 20 µs
    Nanoseconds retry_backoff_cap_ns = 1'000'000;  // 1 ms
    /// Graceful degradation: after this many consecutive failed inline
    /// attempts on a queue, route that queue's inline requests through
    /// PRP until degrade_reprobe_ns of sim-time passes, then re-probe
    /// inline. 0 disables degradation.
    std::uint32_t degrade_threshold = 8;
    Nanoseconds degrade_reprobe_ns = 10'000'000;  // 10 ms
  };

  /// Advances the device model; returns true if it made progress. The
  /// driver pumps this while waiting for completions (the simulation's
  /// stand-in for the device running concurrently). Called from any
  /// submitter thread — the owner of the device model must serialize
  /// internally (the Testbed wraps it in the firmware mutex).
  using Pump = std::function<bool()>;

  struct QueueInfo {
    std::uint16_t qid = 0;
    std::uint64_t sq_addr = 0;
    std::uint32_t sq_depth = 0;
    std::uint64_t cq_addr = 0;
    std::uint32_t cq_depth = 0;
  };

  NvmeDriver(DmaMemory& memory, pcie::PcieLink& link, pcie::BarSpace& bar,
             Config config);
  ~NvmeDriver();
  NvmeDriver(const NvmeDriver&) = delete;
  NvmeDriver& operator=(const NvmeDriver&) = delete;

  void set_pump(Pump pump) { pump_ = std::move(pump); }

  /// Admin queue ring addresses, for controller registration at attach.
  [[nodiscard]] QueueInfo admin_queue_info() const;

  /// Creates the configured I/O queues via CreateIoCq/CreateIoSq admin
  /// commands (the controller must already be attached and pumping).
  /// NOT thread-safe: must complete before concurrent submissions start.
  Status init_io_queues();

  // ---- admin command helpers ----

  struct IdentifyControllerData {
    std::string serial;
    std::string model;
    std::string firmware;
    std::uint32_t namespace_count = 0;
    bool sgl_supported = false;
  };
  struct IdentifyNamespaceData {
    std::uint64_t size_blocks = 0;
    std::uint64_t capacity_blocks = 0;
  };

  StatusOr<IdentifyControllerData> identify_controller();
  StatusOr<IdentifyNamespaceData> identify_namespace(std::uint32_t nsid = 1);
  /// Vendor log page 0xC0: the device's transfer-path statistics.
  StatusOr<nvme::TransferStatsLog> get_transfer_stats();
  /// Vendor log page 0xC1: the device's always-on per-stage timing.
  StatusOr<nvme::StageStatsLog> get_stage_stats();
  /// Set Features 0x07 (number of queues); returns granted (sq, cq).
  StatusOr<std::pair<std::uint16_t, std::uint16_t>> set_queue_count(
      std::uint16_t sqs, std::uint16_t cqs);

  [[nodiscard]] std::uint16_t io_queue_count() const noexcept {
    return static_cast<std::uint16_t>(io_queues_.size());
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

  /// Synchronous passthrough: submit, pump the device, reap, return the
  /// completion with its simulated end-to-end latency.
  StatusOr<Completion> execute(const IoRequest& request,
                               std::uint16_t qid = 1);

  /// Asynchronous submission (a batch of one); pair with wait().
  StatusOr<Submitted> submit(const IoRequest& request, std::uint16_t qid);
  StatusOr<Completion> wait(const Submitted& handle);

  /// Waits for `handle` and then runs the same retry/degradation tail as
  /// execute() — fault classification included — so async callers that
  /// stack many submissions before reaping (the tenant virtual queues)
  /// keep the faults.injected == recovered + degraded + failed equality
  /// exact. `request` must be the request passed to submit(), with its
  /// payload spans still valid (retries resubmit it; each resubmission
  /// is re-admitted through the submission gate). The first attempt is
  /// classified by the method recorded in `handle`; each retry resolves
  /// its method afresh when it is submitted.
  StatusOr<Completion> wait_resolved(const IoRequest& request,
                                     const Submitted& handle);

  // ---- batched submission (doorbell coalescing) ----

  struct BatchResult {
    /// One handle per request, in request order; pair each with wait().
    std::vector<Submitted> handles;
    /// SQ doorbell MWr writes this batch rang. 1 when the whole batch
    /// coalesced under one bell; more when ring backpressure split it or
    /// a BandSlim request forced its serialized per-command path.
    std::uint64_t doorbells = 0;
    /// Ring slots published in coalesced runs (SQEs + inline chunks).
    std::uint64_t entries = 0;
  };

  /// Prepares every request (method resolution, PRP/SGL staging, CID
  /// registration) outside the ring lock, then publishes them all: SQEs
  /// plus their inline chunk runs go contiguously under one SQ lock hold
  /// with a single doorbell covering the run. Preparation is
  /// all-or-nothing: a request that fails validation fails the batch
  /// before anything is pushed. BandSlim requests cannot coalesce (their
  /// fragments are serialized commands by construction); they flush the
  /// current run and ring their own doorbells.
  StatusOr<BatchResult> submit_batch(std::span<const IoRequest> requests,
                                     std::uint16_t qid);

  /// Synchronous batch: submit_batch(), then wait for each command and
  /// run the same retry/degradation tail as execute() — a fault on
  /// command k of the batch recovers (or degrades, or fails) per the
  /// fault-accounting invariant without disturbing the other commands.
  StatusOr<std::vector<Completion>> execute_batch(
      std::span<const IoRequest> requests, std::uint16_t qid);

  /// Reaps any ready completions on `qid`; returns how many were reaped.
  std::size_t poll_completions(std::uint16_t qid);

  /// §3.3.2 OOO extension: the command goes to `qids.front()` and the
  /// self-describing chunks are striped round-robin across all of `qids`.
  /// Fails with kResourceExhausted when a stripe queue lacks ring space.
  StatusOr<Completion> execute_ooo_striped(
      const IoRequest& request, const std::vector<std::uint16_t>& qids);

  /// Cost of the most recent SQ-submit section (Table 1, driver column):
  /// time spent inserting the SQE plus any inline chunks, lock held.
  /// Under concurrent submitters this is "a recent" submit cost — the
  /// single-threaded benchmarks that consume it stay exact.
  [[nodiscard]] Nanoseconds last_submit_cost() const noexcept {
    return last_submit_cost_ns_.load(std::memory_order_relaxed);
  }

  /// Attaches the trace recorder; host-side stage events (kSubmit,
  /// kDoorbell, kCqDoorbell) flow into it.
  void set_tracer(obs::TraceRecorder* tracer) noexcept { tracer_ = tracer; }

  /// Attaches the admission gate (null detaches). Every I/O submission
  /// path then consults it once per command before claiming ring slots
  /// and pairs each successful admit() with one release() when the
  /// command resolves (see driver/submission_gate.h for the contract).
  /// Assembly-time only: must not change while commands are in flight.
  void set_submission_gate(SubmissionGate* gate) noexcept { gate_ = gate; }

  /// Attaches the transfer-method policy (null detaches). Requests
  /// submitted with TransferMethod::kAuto are then resolved by the policy
  /// in resolve_method() — including the overload-shedding decision — and
  /// completed commands are fed back through MethodPolicy::on_outcome().
  /// Attach BEFORE init_io_queues() so the policy receives every queue's
  /// register_queue() call. Assembly-time only, like the gate.
  void set_method_policy(MethodPolicy* policy) noexcept { policy_ = policy; }

  /// Publishes the driver's counters into `metrics` as `driver.*`. The
  /// registry is remembered so init_io_queues() can expose per-queue
  /// occupancy gauges as they are created.
  void bind_metrics(obs::MetricsRegistry& metrics);

  /// Attaches the telemetry sampler: registers the payload and wait
  /// counters now, and each queue pair's gauges and doorbell counters in
  /// init_io_queues(); kAuto resolution rolls its windows. Assembly-time
  /// only, before init_io_queues().
  void set_telemetry(obs::Telemetry* telemetry);

  /// I/O commands whose wait breakdown was attributed, and the sum of
  /// their breakdowns (segments sum to their total latency, exactly), since
  /// construction or the last reset_waits(). Kept with telemetry off too.
  [[nodiscard]] std::uint64_t waits() const noexcept {
    return waits_.value();
  }
  [[nodiscard]] obs::LatencyBreakdown wait_ns() const noexcept {
    obs::LatencyBreakdown sum;
    for (std::size_t s = 0; s < obs::kWaitSegmentCount; ++s) {
      sum.ns[s] = wait_ns_[s].value();
    }
    return sum;
  }
  /// Zeroes waits() and wait_ns(). Telemetry taps these counters, so
  /// re-base it right after (Testbed::reset_counters() does both).
  void reset_waits() noexcept {
    waits_.reset();
    for (obs::Counter& counter : wait_ns_) counter.reset();
  }

  /// Inline-chunk slots a command of `method` occupies beyond its SQE —
  /// what the submission gate charges against the inline budget.
  static std::uint32_t inline_slots_for(TransferMethod method,
                                        std::uint64_t payload_len) noexcept;

  /// Direct ring access for white-box tests (ordering invariants).
  [[nodiscard]] nvme::SqRing& sq_for_test(std::uint16_t qid);
  /// Direct CQ access for trace-reconciliation tests.
  [[nodiscard]] nvme::CqRing& cq_for_test(std::uint16_t qid);
  /// Direct completion-ring access for white-box read-path tests
  /// (ordering-violation injection pokes stale bytes into slots).
  [[nodiscard]] DmaBuffer& read_ring_for_test(std::uint16_t qid);
  /// Whether the controller accepted the ring advertisements (false when
  /// firmware support is off or inline reads are disabled by config).
  [[nodiscard]] bool inline_read_supported() const noexcept {
    return inline_read_supported_;
  }

  // ---- concurrency test hooks ----

  /// In-flight (submitted, not yet reaped-and-waited) commands on `qid`.
  [[nodiscard]] std::size_t pending_count_for_test(std::uint16_t qid);
  /// The atomic BandSlim stream-id allocator, exposed so regression tests
  /// can hammer it from many threads and assert uniqueness.
  [[nodiscard]] std::uint16_t allocate_stream_id_for_test() {
    return allocate_stream_id();
  }
  /// The atomic OOO payload-id allocator (same purpose).
  [[nodiscard]] std::uint32_t allocate_payload_id_for_test() {
    return allocate_payload_id();
  }

 private:
  /// Sim-time marks publish() measures per command: ring backpressure
  /// (accumulated across a BandSlim command's fragments), the instant the
  /// SQE and its chunk run were fully pushed, and the instant its
  /// doorbell rang.
  struct SubmitMarks {
    std::uint64_t slot_wait_ns = 0;
    Nanoseconds push_end_ns = 0;
    Nanoseconds bell_end_ns = 0;
  };

  struct Pending {
    bool done = false;
    nvme::CompletionQueueEntry cqe{};
    Nanoseconds submit_time_ns = 0;
    /// Sim-time after which wait() times the command out (0 = never; the
    /// admin queue and timeout-disabled configs).
    Nanoseconds deadline_ns = 0;
    // Keep the DMA buffer and PRP list pages alive until completion.
    DmaBuffer data;
    nvme::PrpChain chain;
    ByteSpan read_target{};
    std::uint32_t read_length = 0;
    /// Gate bookkeeping: set when the submission gate admitted this
    /// command; the driver then owes exactly one release(tenant,
    /// gated_slots) when the pending resolves (completion, timeout, or
    /// abandoned submission).
    bool gated = false;
    std::uint16_t tenant = 0;
    std::uint32_t gated_slots = 0;
    /// ByteExpress-R bookkeeping: the command was submitted as an inline
    /// read holding `read_slots_reserved` completion-ring slots, released
    /// exactly once when the pending resolves (after the payload is
    /// copied out of the ring, or on any failure path).
    bool inline_read = false;
    std::uint32_t read_slots_reserved = 0;
    /// Latency-attribution marks (obs/attribution.h). The resolved
    /// transfer method keys the per-method wait histograms; the wait
    /// durations are measured by prepare()/publish() and the bell mark
    /// anchors the host->device handoff (0 = never rung).
    TransferMethod method = TransferMethod::kPrp;
    std::uint64_t gate_wait_ns = 0;
    std::uint64_t ring_wait_ns = 0;
    SubmitMarks marks;
  };

  /// One command between prepare() and publish(): its SQE (cid set), the
  /// inline chunk run that follows it, and what publish() measured.
  struct Prepared {
    /// Null for commands that are not I/O requests (admin commands and
    /// BandSlim fragments): they count in no driver.* counter.
    const IoRequest* request = nullptr;
    ResolvedMethod resolved{};
    nvme::SubmissionQueueEntry sqe{};
    ConstByteSpan inline_payload{};
    /// Ring slots (SQE + inline chunks); 0 marks a BandSlim request,
    /// which cannot coalesce and goes through its serialized path.
    std::uint32_t slots = 1;
    /// kSubmit flags; the OOO/auxiliary bits also go on the doorbell.
    std::uint8_t submit_flags = 0;
    Nanoseconds submit_time = 0;
    SubmitMarks marks{};
  };

  struct QueuePair {
    std::unique_ptr<nvme::SqRing> sq;
    std::unique_ptr<nvme::CqRing> cq;
    /// CID allocator. Atomic so the counter itself never races; the
    /// allocation loop still checks uniqueness against `pending` under
    /// pending_mutex (CIDs recycle once a command is reaped).
    std::atomic<std::uint16_t> next_cid{0};
    /// Serializes CQ consumption (peek/pop/head doorbell) across the many
    /// threads that may poll the same queue while waiting.
    std::mutex cq_mutex;
    /// Guards `pending` (and the CID-uniqueness check).
    std::mutex pending_mutex;
    std::unordered_map<std::uint16_t, Pending> pending;
    /// Component-owned occupancy gauges, published via expose_gauge() and
    /// sampled by Telemetry at window close. sq_occupancy mirrors
    /// SqRing::occupancy() (updated under the SQ lock); inflight mirrors
    /// pending.size() (updated under pending_mutex).
    obs::Gauge sq_occupancy;
    obs::Gauge inflight;
    /// Consecutive failed inline attempts on this queue (graceful
    /// degradation bookkeeping; reset by any inline success).
    std::atomic<std::uint32_t> inline_failures{0};
    /// Sim-time until which inline requests on this queue are routed
    /// through PRP (0 = healthy).
    std::atomic<Nanoseconds> degraded_until{0};
    /// ByteExpress-R: the host completion ring adjacent to the CQ
    /// (read_ring_slots x 64 B), its slot count, and the outstanding
    /// slot reservation. Reservations are claimed by CAS at submit and
    /// released after copy-out, so the sum of in-flight reservations
    /// never exceeds the ring — which (with the per-queue FIFO
    /// completion order) keeps the controller's cursor from overwriting
    /// unconsumed slots; see docs/READPATH.md.
    DmaBuffer read_ring;
    std::uint32_t read_ring_slots = 0;
    std::atomic<std::uint32_t> read_ring_reserved{0};
    /// Mirror of read_ring_reserved published as the
    /// driver.q<id>.read_ring_occupancy gauge (bxmon's inline-read
    /// section and telemetry sample it; the atomic itself stays the
    /// source of truth for the CAS reservation protocol).
    obs::Gauge read_ring_occupancy;
    /// Read-path degradation mirrors the write-inline trio above.
    std::atomic<std::uint32_t> read_inline_failures{0};
    std::atomic<Nanoseconds> read_degraded_until{0};
    /// Per-queue doorbell accounting (the SQ trio exposed as driver.qN.*
    /// by init_io_queues; all three sampled by the telemetry windows).
    /// sq_doorbells counts BAR MWr writes — one per ring, NOT one per
    /// command, so coalesced batches keep sq_entries / sq_doorbells > 1
    /// and doorbells/op = sq_doorbells / commands < 1.
    obs::Counter sq_doorbells;
    obs::Counter sq_entries;
    obs::Counter commands;
    obs::Counter cq_doorbells;
  };

  [[nodiscard]] QueuePair& queue(std::uint16_t qid);
  /// Resolves hybrid switching, inline-feasibility fallbacks and queue
  /// degradation (all reported in the result); fails only when the
  /// attached policy sheds a kAuto request.
  [[nodiscard]] StatusOr<ResolvedMethod> resolve_method(
      const IoRequest& request, std::uint16_t qid) const;
  /// True for statuses the NVMe "do not retry" logic treats as transient:
  /// Data Transfer Error, Namespace Not Ready, Abort Requested.
  static bool is_retryable(nvme::StatusField status) noexcept;
  static bool is_inline_method(TransferMethod method) noexcept;

  /// Builds the opcode/nsid/cdw fields common to every method.
  nvme::SubmissionQueueEntry build_base_sqe(const IoRequest& request) const;

  Status attach_data_prp(nvme::SubmissionQueueEntry& sqe, Pending& pending,
                         const IoRequest& request);
  Status attach_data_sgl(nvme::SubmissionQueueEntry& sqe, Pending& pending,
                         const IoRequest& request);

  /// Atomically allocates a CID unique among `qp`'s in-flight commands and
  /// registers `pending` under it — one pending_mutex hold, so two racing
  /// submitters can never be handed the same CID.
  std::uint16_t register_pending(QueuePair& qp, Pending pending);
  /// Records the kDoorbell point event *before* the BAR write (so trace
  /// order matches device-visible publish order) and rings the SQ tail.
  /// `entries` is how many ring slots this doorbell publishes. Call with
  /// the SQ lock held, like a bare ring_sq_tail().
  void ring_sq_traced(std::uint16_t qid, std::uint32_t tail,
                      std::uint64_t entries, std::uint16_t cid,
                      std::uint8_t flags);

  /// Atomic BandSlim stream-id allocation (never returns 0).
  std::uint16_t allocate_stream_id() noexcept;
  /// Atomic OOO payload-id allocation (returns 1..0x7fffffff).
  std::uint32_t allocate_payload_id() noexcept;

  /// Pushes one SQE and (when `inline_payload` is non-empty) its inline
  /// chunk run at the tail; returns slots pushed. Requires the SQ lock
  /// and prior free_slots() headroom.
  std::uint32_t push_command_locked(QueuePair& qp,
                                    const nvme::SubmissionQueueEntry& sqe,
                                    ConstByteSpan inline_payload);

  /// Step 1 of every I/O submission: resolves the method (or takes
  /// `forced`), validates, builds the SQE, reserves inline-read ring slots
  /// or stages PRP/SGL data, admits through the gate and registers the
  /// CID. Nothing is on the ring yet; a failure leaves nothing behind.
  StatusOr<Prepared> prepare(const IoRequest& request, std::uint16_t qid,
                             const ResolvedMethod* forced = nullptr);
  /// Step 2: lays `commands` on `qp` in doorbell runs (push_run), sends
  /// BandSlim through its serialized path, and drains the device while the
  /// next command does not fit. After each run's bell it records the
  /// marks, counters and kSubmit of the commands that bell published.
  /// `batched` adds the driver.batches/batch_size/batched_commands books.
  /// On failure the unpublished commands are abandoned.
  Status publish(QueuePair& qp, std::span<Prepared> commands, bool batched);
  /// One run: under one SQ lock hold, pushes the longest prefix of
  /// `commands` that fits the ring (stopping at BandSlim) and rings one
  /// doorbell for it. Returns how many commands it published (0 = the
  /// first does not fit yet); slot waits are measured from `since`.
  std::size_t push_run(QueuePair& qp, std::span<Prepared> commands,
                       Nanoseconds since);
  /// Publishes `command` alone in its own run, draining until it fits.
  Status push_one(QueuePair& qp, Prepared& command);
  /// Ring-full backpressure: reaps `qp` and pumps the device once. False
  /// once the device has made no progress for 10000 consecutive calls.
  bool drain(QueuePair& qp, int& idle_spins);
  /// BandSlim: header command + serialized fragment commands, each in its
  /// own run; the final fragment's marks close the command.
  Status publish_bandslim(QueuePair& qp, Prepared& command);
  /// After a command's doorbell: publishes its marks into the pending and
  /// records its kSubmit event, payload bytes and submission counters.
  void note_published(QueuePair& qp, std::span<const Prepared> commands);
  /// Undoes prepare() for commands that never (fully) reached the ring:
  /// pays back gate admissions and inline-read slots, erases the pendings.
  void abandon(QueuePair& qp, std::span<const Prepared> commands);

  /// ByteExpress-R: read length a request declares (read_buffer size, or
  /// the block length for LBA reads).
  static std::uint64_t read_length_of(const IoRequest& request) noexcept;
  /// Claims `slots` completion-ring slots on `qp` (CAS loop); false when
  /// the ring lacks space.
  static bool reserve_read_slots(QueuePair& qp, std::uint32_t slots) noexcept;
  /// Pays back `pending`'s completion-ring reservation, if any. Idempotent:
  /// clears read_slots_reserved so every resolution path can call it.
  static void release_read_slots(QueuePair& qp, Pending& pending) noexcept;
  /// Copies an inline-read payload out of the ring and validates framing
  /// + CRC via ReadReassembler. On any violation rewrites the pending's
  /// completion status to a retryable Data Transfer Error. Call with
  /// pending_mutex held (ring reads are plain host-DRAM loads).
  void consume_inline_read_locked(QueuePair& qp, Pending& pending);

  /// Runs one admin command synchronously.
  StatusOr<Completion> execute_admin(nvme::SubmissionQueueEntry sqe);

  void reap_one(QueuePair& qp, const nvme::CompletionQueueEntry& cqe);
  bool pump_once();

  /// Builds the Completion for a done Pending and erases it. Call with
  /// qp.pending_mutex held; `it` must be valid and done.
  Completion finish_pending_locked(
      QueuePair& qp, std::unordered_map<std::uint16_t, Pending>::iterator it);

  /// Closes the command's attribution entry (device report), builds the
  /// exact wait/service breakdown for `completion` (segments sum to
  /// latency_ns by construction) and publishes it to the per-method /
  /// per-tenant wait histograms and the wait counters. Called once on
  /// every resolution path — reaped completions and synthesized timeouts
  /// alike.
  void attribute_completion(std::uint16_t qid, std::uint16_t cid,
                            const Pending& pending, Completion& completion);

  /// Timeout path of wait(): sends an Abort admin command for the stuck
  /// (qid, cid), reaps any completion that raced the abort, and otherwise
  /// synthesizes a retryable Abort Requested completion.
  StatusOr<Completion> recover_timed_out(QueuePair& qp,
                                         const Submitted& handle);

  DmaMemory& memory_;
  pcie::PcieLink& link_;
  pcie::BarSpace& bar_;
  pcie::DoorbellWriter doorbell_;
  Config config_;
  Pump pump_;

  QueuePair admin_;
  /// Index 0 == qid 1. Written only by init_io_queues(); immutable while
  /// submitter threads run.
  std::vector<std::unique_ptr<QueuePair>> io_queues_;

  std::atomic<std::uint16_t> next_stream_id_{1};   // BandSlim stream ids
  std::atomic<std::uint32_t> next_payload_id_{1};  // OOO payload ids
  std::atomic<Nanoseconds> last_submit_cost_ns_{0};

  /// Consults the gate (when attached) for one command about to claim
  /// ring slots; fills `pending`'s gate bookkeeping on admission. Inline
  /// reads are charged their completion-ring slot count against the same
  /// per-tenant inline budget as write chunks (docs/TENANCY.md).
  Status gate_admit(const IoRequest& request, std::uint16_t qid,
                    const ResolvedMethod& resolved, Pending& pending);
  /// Pays the release owed by `pending`'s admission, if any (idempotent:
  /// clears the gated flag).
  void gate_release(Pending& pending, bool completed) noexcept;

  obs::TraceRecorder* tracer_ = nullptr;
  obs::Telemetry* telemetry_ = nullptr;
  SubmissionGate* gate_ = nullptr;
  MethodPolicy* policy_ = nullptr;
  /// Set by init_io_queues() once every queue's kVendorReadRing
  /// advertisement succeeded; immutable while submitters run.
  bool inline_read_supported_ = false;
  /// Kept from bind_metrics() so init_io_queues() can expose the
  /// per-queue gauges (queue pairs do not exist yet at bind time).
  obs::MetricsRegistry* metrics_ = nullptr;
  // Registry-owned metrics, cached by bind_metrics(); null when unbound.
  obs::Counter* submissions_metric_ = nullptr;
  obs::Histogram* submit_cost_metric_ = nullptr;

  // Component-owned recovery counters (always live; exposed as driver.*
  // and faults.* by bind_metrics). The faults_* trio classifies every
  // failed attempt of an execute() command at resolution:
  //   recovered — the command eventually succeeded with its own method,
  //   degraded  — the command succeeded only after degrading to PRP,
  //   failed    — the command's final status is an error.
  // Under the one-fault-per-command injection scheme this makes
  //   faults.injected == faults.recovered + faults.degraded + faults.failed
  // an exact invariant (asserted by the fault-sweep tests).
  obs::Counter timeouts_;
  obs::Counter aborts_sent_;
  obs::Counter retries_;
  obs::Counter inline_fallbacks_;
  obs::Counter degradations_;
  obs::Counter faults_recovered_;
  obs::Counter faults_degraded_;
  obs::Counter faults_failed_;

  // ByteExpress-R read-path counters (exposed as driver.inline_read.*).
  obs::Counter inline_read_attempts_;
  obs::Counter inline_read_completions_;
  obs::Counter inline_read_chunks_;
  obs::Counter inline_read_bytes_;
  obs::Counter inline_read_crc_errors_;
  obs::Counter inline_read_fallbacks_;
  obs::Counter inline_read_degradations_;

  // Batched-submission accounting (exposed as driver.* by bind_metrics).
  // total_sq_doorbells_/total_commands_ cover the I/O queues only, so
  // doorbells_per_kop_ = 1000 * doorbells / commands is the I/O-path
  // coalescing figure (1000 = one bell per command; < 1000 = coalesced;
  // > 1000 = BandSlim-style serialized fragments).
  obs::Counter batches_;
  obs::Counter batched_commands_;
  obs::Counter total_sq_doorbells_;
  obs::Counter total_commands_;
  obs::Gauge doorbells_per_kop_;
  obs::Histogram* batch_size_metric_ = nullptr;  // registry-owned

  // Sampled by the telemetry windows (set_telemetry): write-direction
  // payload bytes at publish, and the I/O commands whose wait breakdown
  // attribute_completion() reported, with the per-segment sums.
  obs::Counter payload_bytes_;
  obs::Counter waits_;
  obs::WaitCounters wait_ns_;

  /// Per-method x per-segment wait-breakdown histograms
  /// ("driver.wait.<method>.<segment>", registry-owned, cached by
  /// bind_metrics; null when unbound). Indexed [TransferMethod][segment];
  /// kHybrid and kAuto resolve before submission so their rows stay
  /// empty (commands land in their resolved method's row).
  std::array<std::array<obs::Histogram*, obs::kWaitSegmentCount>, 7>
      wait_hists_{};
};

}  // namespace bx::driver
