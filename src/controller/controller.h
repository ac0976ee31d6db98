// NVMe controller (device firmware) model — the get_nvme_cmd() side.
//
// Mirrors the Cosmos+ OpenSSD firmware structure the paper modified:
//   * SQ tail doorbells are polled in round-robin (weighted per queue
//     for tenants, see set_queue_arbitration),
//   * each command is fetched with a 64-byte DMA read,
//   * the ByteExpress change sits in the fetch path: when a fetched command
//     carries a non-zero inline length (reserved CDW2), the controller
//     computes the chunk count and keeps fetching entries *from the same
//     SQ* until the payload is complete, never switching queues
//     mid-transaction (§3.3.2's queue-local ordering rule),
//   * PRP data DMA is page-granular (whole 4 KB pages cross the link no
//     matter the payload size — the amplification of Figures 1(b)/(c)),
//   * SGL data DMA is exact-sized (§5),
//   * BandSlim fragment commands are reassembled per stream,
//   * the §3.3.2 out-of-order identifier-based reassembly is implemented.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "fault/fault.h"
#include "common/sim_clock.h"
#include "common/status.h"
#include "controller/executor.h"
#include "controller/reassembly.h"
#include "hostmem/dma_memory.h"
#include "nvme/queue.h"
#include "nvme/spec.h"
#include "nvme/timing.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "pcie/bar.h"
#include "pcie/link.h"

namespace bx::controller {

class Controller {
 public:
  /// Queue IDs the firmware supports, the admin queue (qid 0) included.
  static constexpr std::uint16_t kMaxQueues = 64;

  struct Config {
    nvme::DeviceTimingModel timing{};
    /// ByteExpress-R firmware support switch: with inline reads disabled
    /// the controller rejects kVendorReadRing advertisements (Invalid
    /// Field) and ignores the SQE inline-read marker, so the driver falls
    /// back to PRP/SGL reads (forward-compatibility tests).
    bool enable_inline_read = true;
    ReassemblyEngine::Config reassembly{};
    /// SQ entries fetched per chunk DMA read (1 = the paper's
    /// entry-at-a-time OpenSSD implementation; >1 is the batched-fetch
    /// ablation).
    std::uint32_t chunk_fetch_batch = 1;
    /// PRP data-transfer granularity in bytes. The Cosmos+ platform moves
    /// whole 4 KB pages (the paper's amplification); §5 notes some
    /// configurations support finer units (e.g. 512 B) — this knob models
    /// them for the page-granularity ablation. Must divide 4096.
    std::uint32_t prp_transfer_unit = 4096;
    /// Sim-time a deferred OOO command may wait for missing chunks before
    /// the firmware gives up and posts a retryable Data Transfer Error.
    /// Must stay below the driver's command timeout so the device fails
    /// the command before the host aborts it. Active only under fault
    /// injection — without an injector chunks are never lost. 0 disables.
    Nanoseconds deferred_ttl_ns = 1'000'000;  // 1 ms
  };

  /// Consecutive urgent-class grants allowed while a normal-class queue
  /// is backlogged before one normal grant is forced (the
  /// urgent-preemption starvation bound).
  static constexpr std::uint32_t kUrgentBurstLimit = 8;

  Controller(DmaMemory& memory, pcie::PcieLink& link, pcie::BarSpace& bar,
             CommandExecutor& executor, Config config);

  /// Registers the admin queue pair (set by the host before enabling the
  /// controller, modeling the AQA/ASQ/ACQ registers).
  void set_admin_queue(std::uint64_t sq_addr, std::uint32_t sq_depth,
                       std::uint64_t cq_addr, std::uint32_t cq_depth);

  /// Size of namespace 1 in 4 KB blocks, reported by Identify Namespace.
  void set_namespace_blocks(std::uint64_t blocks) noexcept {
    namespace_blocks_ = blocks;
  }

  /// One firmware scheduling round: arbitrates among the SQs with pending
  /// doorbells (see set_queue_arbitration) and processes at most one
  /// command (with all of its chunks/fragments). Returns true if any work
  /// was done.
  bool poll_once();

  /// Drains all pending work.
  void run_until_idle();

  [[nodiscard]] const ReassemblyEngine& reassembly() const noexcept {
    return reassembly_;
  }

  /// Commands processed since construction.
  [[nodiscard]] std::uint64_t commands_processed() const noexcept {
    return commands_processed_.value();
  }
  /// Payload chunks fetched inline since construction (the stage
  /// ledger's kChunkFetch count: one event per chunk).
  [[nodiscard]] std::uint64_t chunks_fetched() const noexcept {
    return stage_count_[std::size_t(obs::TraceStage::kChunkFetch)].value();
  }
  /// The vendor transfer-stats log (also served via Get Log Page 0xC0).
  /// Its fetch-stage total is the stage ledger's SQE + chunk fetch time.
  [[nodiscard]] nvme::TransferStatsLog transfer_stats() const noexcept;

  /// The vendor stage-stats log (also served via Get Log Page 0xC1):
  /// always-on per-stage firmware timing for I/O queues, built on read
  /// from the stage ledger. A delta of it around a command is that
  /// command's stage cost (Table 1's controller column).
  [[nodiscard]] nvme::StageStatsLog stage_stats() const noexcept;

  /// Attaches the trace recorder; device-side stage events flow into it.
  void set_tracer(obs::TraceRecorder* tracer) noexcept { tracer_ = tracer; }

  /// Registers the stage ledger and the inline-chunk backlog gauge with
  /// the windowed sampler. Assembly-time only.
  void bind_telemetry(obs::Telemetry& telemetry) const;

  /// Publishes the controller's counters into `metrics` as `ctrl.*`.
  void bind_metrics(obs::MetricsRegistry& metrics) const;

  /// Attaches the command-fault injector (pass nullptr to detach). With an
  /// injector attached the firmware also runs its recovery housekeeping
  /// (deferred-OOO TTL, reassembly TTL, delayed-completion release) at the
  /// top of every poll_once().
  void set_fault_injector(fault::FaultInjector* injector) noexcept {
    injector_ = injector;
  }

  // ---- QoS arbitration (docs/TENANCY.md) ----
  //
  // Each poll_once() grants one queue: the admin queue first, then the
  // urgent class (bounded by kUrgentBurstLimit while a normal queue
  // waits), then deficit round robin within the class. The queue holding
  // the class's turn keeps it for up to `weight` consecutive grants while
  // it stays backlogged; then the class cursor moves to the next
  // backlogged queue in qid order. At the default unit weights this is
  // the plain round-robin doorbell poll of the OpenSSD firmware.

  /// Sets queue `qid`'s arbitration class: DRR weight (>= 1) and the
  /// urgent flag. Survives CreateIoSq re-creation (keyed by qid, not by
  /// queue state). Call under the firmware mutex, like poll_once().
  void set_queue_arbitration(std::uint16_t qid, std::uint32_t weight,
                             bool urgent = false);

  /// Scheduling grants the poll loop has given queue `qid` (one per
  /// poll_once() that picked it; a grant may process a whole inline
  /// transaction). The WRR conformance tests measure long-run shares
  /// from these.
  [[nodiscard]] std::uint64_t grants(std::uint16_t qid) const noexcept {
    return qid < grants_.size() ? grants_[qid] : 0;
  }

 private:
  struct SqState {
    bool valid = false;
    std::uint64_t base = 0;
    std::uint32_t depth = 0;
    std::uint16_t cqid = 0;
    std::uint32_t head = 0;
  };
  struct CqState {
    bool valid = false;
    std::uint64_t base = 0;
    std::uint32_t depth = 0;
    std::uint32_t tail = 0;
    bool phase = true;
  };
  /// BandSlim per-stream assembly state.
  struct FragmentStream {
    nvme::SubmissionQueueEntry header{};
    std::uint16_t qid = 0;
    ByteVec buffer;
    std::uint32_t received = 0;
    std::uint32_t expected = 0;
  };
  /// An OOO inline command whose chunks have not all arrived yet.
  struct DeferredInline {
    nvme::SubmissionQueueEntry sqe{};
    std::uint16_t qid = 0;
    /// Sim-time after which the firmware stops waiting for chunks and
    /// posts a retryable error (0 = no deadline; set when an injector is
    /// attached).
    Nanoseconds deadline_ns = 0;
    /// Fault drawn for this command at fetch, applied when it completes.
    fault::FaultKind fault = fault::FaultKind::kNone;
    /// Sim-time the command entered the deferred list; the time until it
    /// leaves (reassembled or evicted) is reported to the TraceRecorder as
    /// the command's kReassembly wait (obs/attribution.h).
    Nanoseconds defer_start_ns = 0;
  };
  /// A completion the injector delayed; posted once sim-time passes
  /// release_ns (unless the host Aborts the command first).
  struct DelayedCompletion {
    std::uint16_t qid = 0;
    nvme::SubmissionQueueEntry sqe{};
    nvme::StatusField status{};
    std::uint32_t dw0 = 0;
    std::uint32_t dw1 = 0;
    Nanoseconds release_ns = 0;
  };
  /// ByteExpress-R: one queue's host-side inline-read completion ring, as
  /// advertised by the driver via kVendorReadRing. The cursor is the next
  /// slot the firmware will write; the driver's slot-reservation gate
  /// guarantees at most `slots` chunks are outstanding, so the firmware
  /// never overwrites a slot the host has not consumed.
  struct ReadRing {
    bool valid = false;
    std::uint64_t base = 0;
    std::uint32_t slots = 0;
    std::uint32_t cursor = 0;
  };
  /// A completion the injector dropped; remembered so a host Abort can
  /// confirm the command existed.
  struct LostCompletion {
    std::uint16_t qid = 0;
    std::uint16_t cid = 0;
  };

  /// Per-queue arbitration class, indexed by qid. Deliberately separate
  /// from SqState so a CreateIoSq re-creating a queue does not reset the
  /// tenant's configured class.
  struct QueueArb {
    std::uint32_t weight = 1;
    bool urgent = false;
  };
  /// One class's DRR turn: the queue holding it and the grants it has
  /// taken in this turn. qid 0 means no turn yet: the admin queue is
  /// never a candidate here, so the first scan starts at queue 1.
  struct ClassTurn {
    std::uint16_t qid = 0;
    std::uint32_t used = 0;
  };

  [[nodiscard]] std::uint32_t available(std::uint16_t qid) const noexcept;

  /// The arbiter: admin first, then the class the urgent burst bound
  /// allows, DRR within it. Returns -1 when no queue is backlogged.
  [[nodiscard]] int pick();
  /// Serves one grant on `qid`: process_one + grant accounting + backlog
  /// gauge.
  void serve(std::uint16_t qid);

  /// Copies `out.size()` bytes, at most `entries` SQ entries, from the
  /// queue's head out of host memory — in at most two spans, split at the
  /// ring wrap — and advances the head past `entries` entries. The DMA
  /// itself is charged by the caller (process_one, fetch_chunk_run).
  void take_entries(std::uint16_t qid, std::uint32_t entries, ByteSpan out);
  /// take_entries() of the one SQ entry at the head.
  nvme::SqSlot take_slot(std::uint16_t qid);
  /// Fetches the queue-local chunk run (§3.3) behind command `cid` into
  /// `payload` (its inline length): one copy out of the ring, then per
  /// run step one link read_n(), one clock advance for the firmware and
  /// copy time between its reads, and the kChunkFetch ledger; the
  /// per-chunk trace events go to the tracer in one record_run().
  void fetch_chunk_run(std::uint16_t qid, std::uint16_t cid,
                       ByteSpan payload);

  /// Fetches the SQE at the head and builds its kSqeFetch event, which
  /// each command path records once.
  void process_one(std::uint16_t qid);
  void handle_admin(const nvme::SubmissionQueueEntry& sqe);
  /// `fetch` is the command's kSqeFetch event; handle_io adds the
  /// announced chunks, the OOO flag and the inline length, then records it.
  void handle_io(std::uint16_t qid, const nvme::SubmissionQueueEntry& sqe,
                 obs::TraceEvent fetch);
  void handle_ooo_chunk(const nvme::SqSlot& slot, std::uint16_t qid,
                        std::uint32_t ring_slot, Nanoseconds fetch_start);
  void handle_fragment(std::uint16_t qid,
                       const nvme::SubmissionQueueEntry& sqe);

  /// The completion point of an I/O command that reached it: counts the
  /// command, draws its fault and completes it (complete_with_fault).
  /// `inline_path` selects the injector's `inline_only` scope.
  void finish(std::uint16_t qid, const nvme::SubmissionQueueEntry& sqe,
              ConstByteSpan payload, bool inline_path);
  /// Fails an I/O command before execution: posts `status` and counts it.
  void reject(std::uint16_t qid, const nvme::SubmissionQueueEntry& sqe,
              nvme::StatusField status);
  /// Completes an OOO command whose chunks have all arrived, with the
  /// fault drawn at its fetch: takes the reassembled payload, then
  /// rejects a length mismatch or counts and completes it.
  void finish_ooo(std::uint16_t qid, const nvme::SubmissionQueueEntry& sqe,
                  fault::FaultKind fault);

  /// Runs the executor and sends the completion (including read-direction
  /// data return through the command's data pointer). A drop or delay
  /// `fault` diverts the completion; kChunkCorrupt corrupts an inline-read
  /// return.
  void execute_and_complete(std::uint16_t qid,
                            const nvme::SubmissionQueueEntry& sqe,
                            ConstByteSpan payload, fault::FaultKind fault);

  /// Gathers write-direction PRP/SGL data from host memory (charging DMA
  /// traffic); returns the payload bytes.
  StatusOr<ByteVec> gather_host_data(std::uint16_t qid,
                                     const nvme::SubmissionQueueEntry& sqe,
                                     std::uint64_t length);
  /// Returns read-direction data to the host through PRP/SGL.
  Status scatter_host_data(std::uint16_t qid,
                           const nvme::SubmissionQueueEntry& sqe,
                           ConstByteSpan data,
                           std::uint64_t declared_length);

  /// ByteExpress-R: true when this command asks for its read payload
  /// inline and the queue has an advertised completion ring.
  [[nodiscard]] bool reads_inline(
      std::uint16_t qid, const nvme::SubmissionQueueEntry& sqe) const noexcept;
  /// Emits `data` as CRC-framed chunk MWr TLPs into the queue's completion
  /// ring and returns the CQE DW1 encoding (flag | first slot | chunks).
  /// `corrupt` flips one payload byte of the first chunk after its CRC is
  /// computed (an injected kChunkCorrupt).
  std::uint32_t emit_inline_read(std::uint16_t qid,
                                 const nvme::SubmissionQueueEntry& sqe,
                                 ConstByteSpan data, bool corrupt);

  /// Bytes a PRP data transaction moves for `length` payload bytes across
  /// `page_count` pages, honoring the configured transfer unit.
  [[nodiscard]] std::uint64_t prp_transfer_bytes(
      std::uint64_t length, std::size_t page_count) const noexcept;

  /// Builds and posts the CQE. A kCompletionDrop `fault` loses it (a host
  /// Abort later finds it in lost_); a kCompletionDelay holds it in
  /// delayed_ until the injector's delay passes.
  void post_completion(
      std::uint16_t qid, const nvme::SubmissionQueueEntry& sqe,
      nvme::StatusField status, std::uint32_t dw0, std::uint32_t dw1 = 0,
      fault::FaultKind fault = fault::FaultKind::kNone);

  /// Applies the fault drawn for a command at its completion point. The
  /// error kinds, and kChunkCorrupt on a command that does not read
  /// inline, post their NVMe error status instead of executing; every
  /// other fault executes and travels on to execute_and_complete.
  void complete_with_fault(std::uint16_t qid,
                           const nvme::SubmissionQueueEntry& sqe,
                           ConstByteSpan payload, fault::FaultKind fault);

  /// Recovery housekeeping (runs when an injector is attached): releases
  /// due delayed completions, expires deferred OOO commands past their
  /// TTL, and reclaims stale reassembly slots. Returns true if any work
  /// was done.
  bool service_fault_recovery();

  /// Removes all firmware-side state of (sqid, cid) — lost or delayed
  /// completions and deferred OOO commands. Returns true when the command
  /// was found (Abort completion DW0 bit 0 clear).
  bool abort_command(std::uint16_t sqid, std::uint16_t cid);

  /// Accumulates a device-side stage interval into the stage ledger
  /// (I/O queues only) and forwards it to the tracer when enabled.
  void record_stage(const obs::TraceEvent& event);

  /// Executes any deferred OOO commands whose payloads completed.
  void drain_deferred();

  static std::uint64_t io_data_length(const nvme::SubmissionQueueEntry& sqe);

  DmaMemory& memory_;
  pcie::PcieLink& link_;
  pcie::BarSpace& bar_;
  CommandExecutor& executor_;
  Config config_;

  std::vector<SqState> sqs_;
  std::vector<CqState> cqs_;
  std::vector<QueueArb> arb_;
  /// DRR turn per class, indexed by the urgent flag.
  ClassTurn turn_[2];
  /// Queues set urgent; while 0 a pick is one scan of the normal class.
  std::uint32_t urgent_queues_ = 0;
  std::vector<std::uint64_t> grants_;
  /// Consecutive urgent grants taken while a normal candidate waited.
  std::uint32_t urgent_run_ = 0;
  std::uint64_t namespace_blocks_ = 0;

  std::unordered_map<std::uint16_t, FragmentStream> streams_;
  std::unordered_map<std::uint8_t, std::uint32_t> features_;
  ReassemblyEngine reassembly_;
  std::vector<DeferredInline> deferred_;
  /// Per-qid inline-read completion rings (ByteExpress-R).
  std::vector<ReadRing> read_rings_;

  // obs::Counter so bind_metrics() can expose the live counters without a
  // second source of truth; single-writer under the firmware mutex.
  obs::Counter commands_processed_;
  obs::Counter bandslim_fragments_;
  obs::Counter prp_transactions_;
  obs::Counter sgl_transactions_;
  obs::Counter completions_posted_;
  obs::Counter ooo_reassembled_;
  obs::Counter completions_dropped_;
  obs::Counter completions_delayed_;
  obs::Counter deferred_evictions_;
  obs::Counter reassembly_evictions_;
  obs::Counter commands_aborted_;
  obs::Counter inline_read_chunks_;

  // The stage ledger: per-stage event counts and summed durations for
  // I/O queues, TraceStage-indexed. It serves Get Log Page 0xC1, 0xC0's
  // fetch-stage total, the telemetry stage columns, ctrl.chunks_fetched
  // (kChunkFetch) and ctrl.inline_read_completions (kReadChunkWrite).
  obs::StageCounters stage_count_;
  obs::StageCounters stage_ns_;
  // Inline transfer work the firmware is still holding: open BandSlim
  // streams + deferred OOO commands + reassembly payloads in flight.
  // Updated by poll_once(); sampled by the telemetry windows.
  obs::Gauge inline_backlog_;
  obs::TraceRecorder* tracer_ = nullptr;
  /// fetch_chunk_run()'s per-chunk trace events, reused across commands.
  std::vector<obs::TraceEvent> run_events_;

  fault::FaultInjector* injector_ = nullptr;
  std::vector<DelayedCompletion> delayed_;
  std::vector<LostCompletion> lost_;
  /// Payload ids whose next arriving OOO chunk gets one byte flipped
  /// (kChunkCorrupt drawn while the payload was still incomplete).
  std::unordered_set<std::uint32_t> corrupt_payloads_;
};

}  // namespace bx::controller
