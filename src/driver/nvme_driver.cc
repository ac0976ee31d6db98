#include "driver/nvme_driver.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "controller/reassembly.h"
#include "nvme/bandslim_wire.h"
#include "nvme/inline_read_wire.h"
#include "nvme/inline_wire.h"
#include "nvme/sgl.h"

namespace bx::driver {

namespace inr = nvme::inline_read;

namespace {

constexpr std::uint32_t kBlockSize = 4096;  // device LBA format (Cosmos+)

ConstByteSpan sqe_bytes(const nvme::SubmissionQueueEntry& sqe) {
  return {reinterpret_cast<const Byte*>(&sqe), sizeof(sqe)};
}

}  // namespace

NvmeDriver::NvmeDriver(DmaMemory& memory, pcie::PcieLink& link,
                       pcie::BarSpace& bar, Config config)
    : memory_(memory),
      link_(link),
      bar_(bar),
      doorbell_(bar, link),
      config_(config) {
  BX_ASSERT(config_.io_queue_count >= 1);
  BX_ASSERT(config_.io_queue_count < bar.max_queues());
  admin_.sq = std::make_unique<nvme::SqRing>(memory_, 0, kAdminQueueDepth);
  admin_.cq = std::make_unique<nvme::CqRing>(memory_, 0, kAdminQueueDepth);
}

NvmeDriver::~NvmeDriver() = default;

NvmeDriver::QueueInfo NvmeDriver::admin_queue_info() const {
  QueueInfo info;
  info.qid = 0;
  info.sq_addr = admin_.sq->base_addr();
  info.sq_depth = admin_.sq->depth();
  info.cq_addr = admin_.cq->base_addr();
  info.cq_depth = admin_.cq->depth();
  return info;
}

Status NvmeDriver::init_io_queues() {
  if (!pump_) return failed_precondition("no device attached (pump unset)");
  io_queues_.clear();
  inline_read_supported_ = false;
  // Flips false at the first rejected ring advertisement: a controller
  // without inline-read firmware support downgrades the whole session to
  // PRP/SGL reads instead of failing initialization.
  bool read_rings_accepted = config_.inline_read_enabled &&
                             config_.read_ring_slots >= 2 &&
                             config_.read_ring_slots <= (1u << 15);
  for (std::uint16_t i = 1; i <= config_.io_queue_count; ++i) {
    auto qp = std::make_unique<QueuePair>();
    qp->sq = std::make_unique<nvme::SqRing>(memory_, i,
                                            config_.io_queue_depth);
    qp->cq = std::make_unique<nvme::CqRing>(memory_, i,
                                            config_.io_queue_depth);

    // Create the completion queue first, as the spec requires.
    nvme::SubmissionQueueEntry create_cq;
    create_cq.opcode = static_cast<std::uint8_t>(
        nvme::AdminOpcode::kCreateIoCq);
    create_cq.dptr1 = qp->cq->base_addr();
    create_cq.cdw10 = (std::uint32_t{qp->cq->depth() - 1} << 16) | i;
    create_cq.cdw11 = 0x3;  // physically contiguous + interrupts enabled
    auto cq_done = execute_admin(create_cq);
    BX_RETURN_IF_ERROR(cq_done.status());
    if (!cq_done->ok()) {
      return internal_error("CreateIoCq failed for qid " + std::to_string(i));
    }

    nvme::SubmissionQueueEntry create_sq;
    create_sq.opcode = static_cast<std::uint8_t>(
        nvme::AdminOpcode::kCreateIoSq);
    create_sq.dptr1 = qp->sq->base_addr();
    create_sq.cdw10 = (std::uint32_t{qp->sq->depth() - 1} << 16) | i;
    create_sq.cdw11 = (std::uint32_t{i} << 16) | 0x1;  // cqid | contiguous
    auto sq_done = execute_admin(create_sq);
    BX_RETURN_IF_ERROR(sq_done.status());
    if (!sq_done->ok()) {
      return internal_error("CreateIoSq failed for qid " + std::to_string(i));
    }

    io_queues_.push_back(std::move(qp));

    // ByteExpress-R: allocate the host completion ring adjacent to the CQ
    // and advertise it so the controller can return small read payloads
    // inline (docs/READPATH.md). Advertised after CreateIoSq — the
    // controller validates the target SQ exists.
    if (read_rings_accepted) {
      QueuePair& ring_owner = *io_queues_.back();
      ring_owner.read_ring = memory_.allocate(
          std::uint64_t{config_.read_ring_slots} * nvme::kChunkSize);
      ring_owner.read_ring_slots = config_.read_ring_slots;
      nvme::SubmissionQueueEntry advertise;
      advertise.opcode =
          static_cast<std::uint8_t>(nvme::AdminOpcode::kVendorReadRing);
      advertise.dptr1 = ring_owner.read_ring.addr();
      advertise.cdw10 = std::uint32_t{i} | (config_.read_ring_slots << 16);
      auto advertised = execute_admin(advertise);
      BX_RETURN_IF_ERROR(advertised.status());
      if (!advertised->ok()) {
        read_rings_accepted = false;
        ring_owner.read_ring = DmaBuffer();
        ring_owner.read_ring_slots = 0;
      }
    }

    // Publish the queue's occupancy gauges now that the pair exists (the
    // registry/telemetry pointers were stored by bind_metrics() /
    // set_telemetry() during testbed assembly, which precedes this call).
    QueuePair& created = *io_queues_.back();
    if (metrics_ != nullptr) {
      const std::string prefix = "driver.q" + std::to_string(i);
      metrics_->expose_gauge(prefix + ".sq_occupancy",
                             &created.sq_occupancy);
      metrics_->expose_gauge(prefix + ".inflight", &created.inflight);
      metrics_->expose_counter(prefix + ".sq_doorbells",
                               &created.sq_doorbells);
      metrics_->expose_counter(prefix + ".sq_entries", &created.sq_entries);
      metrics_->expose_counter(prefix + ".commands", &created.commands);
      metrics_->expose_gauge(prefix + ".read_ring_occupancy",
                             &created.read_ring_occupancy);
    }
    if (telemetry_ != nullptr) {
      telemetry_->register_queue(i, &created.sq_occupancy, &created.inflight,
                                 &created.sq_doorbells, &created.sq_entries);
    }
    if (policy_ != nullptr) {
      policy_->register_queue(i, config_.io_queue_depth,
                              &created.sq_occupancy, &created.inflight);
    }
  }
  inline_read_supported_ = read_rings_accepted;
  return Status::ok();
}

NvmeDriver::QueuePair& NvmeDriver::queue(std::uint16_t qid) {
  if (qid == 0) return admin_;
  BX_ASSERT_MSG(qid <= io_queues_.size(), "bad qid");
  return *io_queues_[qid - 1];
}

nvme::SqRing& NvmeDriver::sq_for_test(std::uint16_t qid) {
  return *queue(qid).sq;
}

nvme::CqRing& NvmeDriver::cq_for_test(std::uint16_t qid) {
  return *queue(qid).cq;
}

DmaBuffer& NvmeDriver::read_ring_for_test(std::uint16_t qid) {
  return queue(qid).read_ring;
}

void NvmeDriver::bind_metrics(obs::MetricsRegistry& metrics) {
  metrics_ = &metrics;
  submissions_metric_ = &metrics.counter("driver.submissions");
  submit_cost_metric_ = &metrics.histogram("driver.submit_cost_ns");
  metrics.expose_counter("driver.timeouts", &timeouts_);
  metrics.expose_counter("driver.aborts_sent", &aborts_sent_);
  metrics.expose_counter("driver.retries", &retries_);
  metrics.expose_counter("driver.inline_fallback_prp", &inline_fallbacks_);
  metrics.expose_counter("driver.degradations", &degradations_);
  metrics.expose_counter("driver.inline_read.attempts",
                         &inline_read_attempts_);
  metrics.expose_counter("driver.inline_read.completions",
                         &inline_read_completions_);
  metrics.expose_counter("driver.inline_read.chunks", &inline_read_chunks_);
  metrics.expose_counter("driver.inline_read.bytes", &inline_read_bytes_);
  metrics.expose_counter("driver.inline_read.crc_errors",
                         &inline_read_crc_errors_);
  metrics.expose_counter("driver.inline_read.fallback_prp",
                         &inline_read_fallbacks_);
  metrics.expose_counter("driver.inline_read.degradations",
                         &inline_read_degradations_);
  metrics.expose_counter("faults.recovered", &faults_recovered_);
  metrics.expose_counter("faults.degraded", &faults_degraded_);
  metrics.expose_counter("faults.failed", &faults_failed_);
  metrics.expose_counter("driver.batches", &batches_);
  metrics.expose_counter("driver.batched_commands", &batched_commands_);
  metrics.expose_counter("driver.sq_doorbells", &total_sq_doorbells_);
  metrics.expose_counter("driver.commands", &total_commands_);
  metrics.expose_gauge("driver.doorbells_per_kop", &doorbells_per_kop_);
  batch_size_metric_ = &metrics.histogram("driver.batch_size");
  // Per-method wait-breakdown histograms, "driver.wait.<method>.<segment>".
  // kHybrid and kAuto resolve before submission so their rows stay
  // unbound — completed commands land in their resolved method's row.
  for (std::size_t m = 0; m < wait_hists_.size(); ++m) {
    const auto method = static_cast<TransferMethod>(m);
    if (method == TransferMethod::kHybrid ||
        method == TransferMethod::kAuto) {
      continue;
    }
    const std::string prefix =
        "driver.wait." + std::string(transfer_method_name(method)) + ".";
    for (std::size_t s = 0; s < obs::kWaitSegmentCount; ++s) {
      wait_hists_[m][s] = &metrics.histogram(
          prefix + std::string(obs::wait_segment_name(
                       static_cast<obs::WaitSegment>(s))));
    }
  }
}

void NvmeDriver::set_telemetry(obs::Telemetry* telemetry) {
  telemetry_ = telemetry;
  if (telemetry != nullptr) {
    telemetry->register_driver(&payload_bytes_, &waits_, wait_ns_);
  }
}

void NvmeDriver::ring_sq_traced(std::uint16_t qid, std::uint32_t tail,
                                std::uint64_t entries, std::uint16_t cid,
                                std::uint8_t flags) {
  if (tracer_ != nullptr && tracer_->enabled()) {
    // Recorded *before* the BAR write: once the device can see the tail,
    // the publish event is already in the trace, so a fetch recorded by
    // the firmware always carries a later seq than the doorbell that
    // published the entry (the invariant checker relies on this under
    // OS-thread schedules).
    obs::TraceEvent event;
    event.stage = obs::TraceStage::kDoorbell;
    event.start = event.end = link_.clock().now();
    event.flags = flags;
    event.qid = qid;
    event.cid = cid;
    event.slot = tail;
    event.aux = entries;
    tracer_->record(event);
  }
  doorbell_.ring_sq_tail(qid, tail);
  // Doorbell accounting counts BAR writes, not commands: a coalesced
  // batch bumps sq_doorbells once while sq_entries advances by the whole
  // run (the PR 1 counters assumed one ring per submit; batching broke
  // that assumption, so the books are kept here, at the single place
  // every SQ ring goes through).
  QueuePair& qp = queue(qid);
  qp.sq_doorbells.increment();
  qp.sq_entries.add(entries);
  if (qid != 0) {
    total_sq_doorbells_.increment();
    const std::uint64_t commands = total_commands_.value();
    if (commands > 0) {
      doorbells_per_kop_.set(static_cast<std::int64_t>(
          total_sq_doorbells_.value() * 1000 / commands));
    }
  }
}

std::size_t NvmeDriver::pending_count_for_test(std::uint16_t qid) {
  QueuePair& qp = queue(qid);
  std::lock_guard<std::mutex> lock(qp.pending_mutex);
  return qp.pending.size();
}

bool NvmeDriver::is_retryable(nvme::StatusField status) noexcept {
  if (status.type != nvme::StatusCodeType::kGeneric) return false;
  switch (static_cast<nvme::GenericStatus>(status.code)) {
    case nvme::GenericStatus::kDataTransferError:
    case nvme::GenericStatus::kNamespaceNotReady:
    case nvme::GenericStatus::kAbortRequested:
      return true;
    default:
      return false;
  }
}

bool NvmeDriver::is_inline_method(TransferMethod method) noexcept {
  return method == TransferMethod::kByteExpress ||
         method == TransferMethod::kByteExpressOoo ||
         method == TransferMethod::kBandSlim;
}

std::uint32_t NvmeDriver::inline_slots_for(
    TransferMethod method, std::uint64_t payload_len) noexcept {
  switch (method) {
    case TransferMethod::kByteExpress:
      return nvme::inline_chunk::raw_chunks_for(payload_len);
    case TransferMethod::kByteExpressOoo:
      return nvme::inline_chunk::ooo_chunks_for(payload_len);
    default:
      // PRP/SGL carry no chunks; BandSlim fragments recycle slot by slot
      // and never hold a run of the ring.
      return 0;
  }
}

std::uint64_t NvmeDriver::read_length_of(const IoRequest& request) noexcept {
  if (request.opcode == nvme::IoOpcode::kRead) {
    return std::uint64_t{request.block_count} * kBlockSize;
  }
  return request.read_buffer.size();
}

bool NvmeDriver::reserve_read_slots(QueuePair& qp,
                                    std::uint32_t slots) noexcept {
  std::uint32_t reserved =
      qp.read_ring_reserved.load(std::memory_order_relaxed);
  for (;;) {
    if (reserved + slots > qp.read_ring_slots) return false;
    if (qp.read_ring_reserved.compare_exchange_weak(
            reserved, reserved + slots, std::memory_order_acq_rel,
            std::memory_order_relaxed)) {
      qp.read_ring_occupancy.set(
          static_cast<std::int64_t>(reserved + slots));
      return true;
    }
  }
}

void NvmeDriver::release_read_slots(QueuePair& qp,
                                    Pending& pending) noexcept {
  if (pending.read_slots_reserved == 0) return;
  const std::uint32_t before = qp.read_ring_reserved.fetch_sub(
      pending.read_slots_reserved, std::memory_order_acq_rel);
  qp.read_ring_occupancy.set(
      static_cast<std::int64_t>(before - pending.read_slots_reserved));
  pending.read_slots_reserved = 0;
}

Status NvmeDriver::gate_admit(const IoRequest& request, std::uint16_t qid,
                              const ResolvedMethod& resolved,
                              Pending& pending) {
  if (gate_ == nullptr) return Status::ok();
  std::uint32_t slots =
      inline_slots_for(resolved.method, request.write_data.size());
  // An inline read claims completion-ring slots instead of SQ chunk
  // slots; both draw on the same per-tenant inline budget.
  if (resolved.inline_read) {
    slots += inr::read_chunks_for(read_length_of(request));
  }
  BX_RETURN_IF_ERROR(gate_->admit(request, qid, slots, link_.clock().now()));
  pending.gated = true;
  pending.tenant = request.tenant;
  pending.gated_slots = slots;
  return Status::ok();
}

void NvmeDriver::gate_release(Pending& pending, bool completed) noexcept {
  if (!pending.gated) return;
  pending.gated = false;
  if (gate_ != nullptr) {
    gate_->release(pending.tenant, pending.gated_slots, completed);
  }
}

StatusOr<ResolvedMethod> NvmeDriver::resolve_method(
    const IoRequest& request, std::uint16_t qid) const {
  ResolvedMethod resolved;
  TransferMethod method = request.method;
  const std::uint64_t len = request.write_data.size();

  // The largest payload that can actually go inline on this queue: the
  // inline cap AND the ring-capacity bound (command + chunks must fit the
  // depth - 1 usable slots).
  const std::uint64_t inline_cap = std::min<std::uint64_t>(
      kMaxInlineBytes,
      std::uint64_t{config_.io_queue_depth - 2} * nvme::kChunkSize);

  if (method == TransferMethod::kAuto) {
    if (policy_ != nullptr) {
      // Keep the policy's window-driven signals fresh at decision time:
      // close any telemetry windows the clock has moved past (one relaxed
      // load when still inside the current window).
      const Nanoseconds now = link_.clock().now();
      if (telemetry_ != nullptr) telemetry_->advance_to(now);
      const PolicyDecision decision = policy_->decide(request, qid, now);
      if (decision.shed) {
        return resource_exhausted(
            "adaptive policy sheds load on qid " + std::to_string(qid) +
            " (overload watermark crossed; retry after drain)");
      }
      method = decision.method;
      resolved.auto_decided = true;
    } else {
      // No policy attached: kAuto degrades to the static hybrid rule.
      method = TransferMethod::kHybrid;
    }
  }

  if (method == TransferMethod::kHybrid) {
    // Clamp the hybrid cut to what can actually go inline: a threshold
    // configured above kMaxInlineBytes (or the ring bound) must classify
    // oversized payloads as PRP outright, not as ByteExpress commands
    // that immediately take the feasibility-fallback branch and inflate
    // driver.inline_fallback_prp.
    const std::uint64_t cut =
        std::min<std::uint64_t>(config_.hybrid_threshold_bytes, inline_cap);
    method =
        (nvme::is_write_direction(request.opcode) && len > 0 && len <= cut)
            ? TransferMethod::kByteExpress
            : TransferMethod::kPrp;
  }

  bool inline_like = is_inline_method(method);
  if (inline_like) {
    // Inline transfer only exists host->device; reads and zero-length
    // commands use the native path. A payload whose command + chunks can
    // never fit the ring (depth - 1 usable slots) must also fall back —
    // waiting would deadlock.
    const std::uint32_t max_ring_payload =
        method == TransferMethod::kBandSlim
            ? UINT32_MAX  // BandSlim commands recycle slot by slot
            : (config_.io_queue_depth - 2) * nvme::kChunkSize;
    if (!nvme::is_write_direction(request.opcode) || len == 0 ||
        len > kMaxInlineBytes || len > max_ring_payload) {
      method = TransferMethod::kPrp;
      resolved.feasibility_fallback = true;
      inline_like = false;
    }
  }

  // Graceful degradation: a queue that keeps failing inline commands
  // routes them through PRP until its re-probe time passes.
  if (inline_like && config_.degrade_threshold > 0 && qid >= 1 &&
      qid <= io_queues_.size()) {
    const QueuePair& qp = *io_queues_[qid - 1];
    if (link_.clock().now() <
        qp.degraded_until.load(std::memory_order_relaxed)) {
      method = TransferMethod::kPrp;
      resolved.degraded = true;
    }
  }

  // ByteExpress-R: a small read additionally requests inline return
  // through the queue's completion ring. `method` keeps the PRP/SGL
  // resolution it would otherwise use — that is the fallback if the
  // ring-slot reservation fails at submit time, and the return path if
  // the queue's read side is degraded.
  if (config_.inline_read_enabled && inline_read_supported_ &&
      nvme::is_read_direction(request.opcode) && !request.discard_read_data &&
      qid >= 1 && qid <= io_queues_.size()) {
    const std::uint64_t read_len = read_length_of(request);
    const QueuePair& qp = *io_queues_[qid - 1];
    if (read_len > 0 && read_len <= kMaxInlineReadBytes &&
        inr::read_chunks_for(read_len) <= qp.read_ring_slots) {
      if (config_.degrade_threshold > 0 &&
          link_.clock().now() <
              qp.read_degraded_until.load(std::memory_order_relaxed)) {
        resolved.degraded = true;
      } else {
        resolved.inline_read = true;
      }
    }
  }

  resolved.method = method;
  return resolved;
}

nvme::SubmissionQueueEntry NvmeDriver::build_base_sqe(
    const IoRequest& request) const {
  nvme::SubmissionQueueEntry sqe;
  sqe.opcode = static_cast<std::uint8_t>(request.opcode);
  sqe.nsid = request.nsid;
  if (request.opcode == nvme::IoOpcode::kWrite ||
      request.opcode == nvme::IoOpcode::kRead) {
    nvme::BlockIoFields fields;
    fields.slba = request.slba;
    fields.block_count = request.block_count;
    fields.apply(sqe);
  } else {
    nvme::VendorFields fields;
    fields.data_length = static_cast<std::uint32_t>(
        nvme::is_read_direction(request.opcode) ? request.read_buffer.size()
                                                : request.write_data.size());
    fields.aux = request.aux << 8;
    fields.apply(sqe);
    if (request.key.key_len > 0) request.key.apply(sqe);
    if (request.opcode == nvme::IoOpcode::kVendorPartialWrite) {
      // Target block address rides in CDW10/11 (aux carries the byte
      // offset within the block).
      sqe.cdw10 = static_cast<std::uint32_t>(request.slba);
      sqe.cdw11 = static_cast<std::uint32_t>(request.slba >> 32);
    }
  }
  return sqe;
}

Status NvmeDriver::attach_data_prp(nvme::SubmissionQueueEntry& sqe,
                                   Pending& pending,
                                   const IoRequest& request) {
  const bool read_dir = nvme::is_read_direction(request.opcode);
  const std::uint64_t len =
      read_dir ? request.read_buffer.size() : request.write_data.size();
  if (len == 0) return Status::ok();  // e.g. flush, delete, exist

  pending.data = memory_.allocate(len);
  if (!read_dir) pending.data.write(0, request.write_data);
  auto chain = nvme::build_prp_chain(memory_, pending.data.addr(), len);
  BX_RETURN_IF_ERROR(chain.status());
  pending.chain = std::move(chain).value();
  sqe.dptr1 = pending.chain.prp1;
  sqe.dptr2 = pending.chain.prp2;
  sqe.set_transfer_mode(nvme::DataTransferMode::kPrp);
  link_.clock().advance(config_.timing.prp_build_ns);
  if (read_dir) {
    pending.read_target = request.read_buffer;
    pending.read_length = static_cast<std::uint32_t>(len);
  }
  return Status::ok();
}

Status NvmeDriver::attach_data_sgl(nvme::SubmissionQueueEntry& sqe,
                                   Pending& pending,
                                   const IoRequest& request) {
  const bool read_dir = nvme::is_read_direction(request.opcode);

  if (read_dir && request.discard_read_data) {
    // §5: a bit bucket absorbs the read data on the device side; no host
    // buffer, no data transfer, the CQE alone reports the outcome.
    const auto bucket_len = static_cast<std::uint32_t>(
        request.read_buffer.empty() ? UINT32_MAX
                                    : request.read_buffer.size());
    const auto [low, high] = nvme::make_bit_bucket(bucket_len).pack();
    sqe.dptr1 = low;
    sqe.dptr2 = high;
    sqe.set_transfer_mode(nvme::DataTransferMode::kSglData);
    // The data length field still declares what the host asked about.
    if (sqe.cdw12 == 0) sqe.cdw12 = bucket_len;
    link_.clock().advance(config_.timing.sgl_build_ns);
    return Status::ok();
  }

  const std::uint64_t len =
      read_dir ? request.read_buffer.size() : request.write_data.size();
  if (len == 0) return Status::ok();

  pending.data = memory_.allocate(len);
  if (!read_dir) pending.data.write(0, request.write_data);
  auto descriptor = nvme::build_sgl_data_block(pending.data.addr(), len);
  BX_RETURN_IF_ERROR(descriptor.status());
  const auto [low, high] = descriptor->pack();
  sqe.dptr1 = low;
  sqe.dptr2 = high;
  sqe.set_transfer_mode(nvme::DataTransferMode::kSglData);
  link_.clock().advance(config_.timing.sgl_build_ns);
  if (read_dir) {
    pending.read_target = request.read_buffer;
    pending.read_length = static_cast<std::uint32_t>(len);
  }
  return Status::ok();
}

std::uint16_t NvmeDriver::register_pending(QueuePair& qp, Pending pending) {
  std::lock_guard<std::mutex> lock(qp.pending_mutex);
  std::uint16_t cid;
  do {
    cid = qp.next_cid.fetch_add(1, std::memory_order_relaxed);
  } while (qp.pending.count(cid) != 0);
  qp.pending.emplace(cid, std::move(pending));
  qp.inflight.set(static_cast<std::int64_t>(qp.pending.size()));
  return cid;
}

std::uint16_t NvmeDriver::allocate_stream_id() noexcept {
  // Stream id 0 is reserved (fragment commands carry cid 0); skip it when
  // the 16-bit counter wraps.
  for (;;) {
    const std::uint16_t id =
        next_stream_id_.fetch_add(1, std::memory_order_relaxed);
    if (id != 0) return id;
  }
}

std::uint32_t NvmeDriver::allocate_payload_id() noexcept {
  // Payload ids live in the low 31 bits of the OOO marker; masking the
  // monotone counter keeps the value in range across wraparound without a
  // read-modify-write race window.
  for (;;) {
    const std::uint32_t id =
        next_payload_id_.fetch_add(1, std::memory_order_relaxed) & 0x7fffffffu;
    if (id != 0) return id;
  }
}

std::uint32_t NvmeDriver::push_command_locked(
    QueuePair& qp, const nvme::SubmissionQueueEntry& sqe,
    ConstByteSpan inline_payload) {
  link_.clock().advance(config_.timing.sqe_insert_ns);
  qp.sq->push_slot(sqe_bytes(sqe));
  if (inline_payload.empty()) return 1;
  if (!nvme::inline_chunk::sqe_is_ooo(sqe)) {
    // Queue-local raw chunks: one clock advance and one ring write for
    // the whole run.
    const std::uint32_t chunks =
        nvme::inline_chunk::raw_chunks_for(inline_payload.size());
    link_.clock().advance(std::uint64_t{chunks} *
                          config_.timing.chunk_insert_ns);
    qp.sq->push_chunks(inline_payload);
    return 1 + chunks;
  }
  const std::uint32_t chunks =
      nvme::inline_chunk::ooo_chunks_for(inline_payload.size());
  std::size_t offset = 0;
  for (std::uint32_t i = 0; i < chunks; ++i) {
    link_.clock().advance(config_.timing.chunk_insert_ns);
    const std::size_t take =
        std::min<std::size_t>(nvme::inline_chunk::kOooChunkCapacity,
                              inline_payload.size() - offset);
    const auto slot = nvme::inline_chunk::encode_ooo_chunk(
        nvme::inline_chunk::sqe_ooo_payload_id(sqe),
        static_cast<std::uint16_t>(i), static_cast<std::uint16_t>(chunks),
        inline_payload.subspan(offset, take));
    qp.sq->push_slot({slot.raw, sizeof(slot.raw)});
    offset += take;
  }
  return 1 + chunks;
}

StatusOr<NvmeDriver::Prepared> NvmeDriver::prepare(
    const IoRequest& request, std::uint16_t qid,
    const ResolvedMethod* forced) {
  QueuePair& qp = queue(qid);
  Prepared command;
  command.request = &request;
  if (forced != nullptr) {
    command.resolved = *forced;
  } else {
    auto resolved = resolve_method(request, qid);
    BX_RETURN_IF_ERROR(resolved.status());
    command.resolved = *resolved;
    if (resolved->feasibility_fallback) inline_fallbacks_.increment();
  }
  ResolvedMethod& resolved = command.resolved;
  if (resolved.feasibility_fallback || resolved.degraded) {
    command.submit_flags = obs::kFlagMethodFallback;
  }
  if (resolved.auto_decided) command.submit_flags |= obs::kFlagAutoPolicy;

  // Validate block I/O geometry up front.
  if (request.opcode == nvme::IoOpcode::kWrite &&
      request.write_data.size() !=
          std::uint64_t{request.block_count} * kBlockSize) {
    return invalid_argument("write_data must be block_count * 4096 bytes");
  }
  if (request.opcode == nvme::IoOpcode::kRead &&
      request.read_buffer.size() !=
          std::uint64_t{request.block_count} * kBlockSize) {
    return invalid_argument("read_buffer must be block_count * 4096 bytes");
  }

  nvme::SubmissionQueueEntry& sqe = command.sqe;
  sqe = build_base_sqe(request);
  Pending pending;
  const Nanoseconds entry_time = link_.clock().now();
  // A request that waited in a backlog backdates the latency window to its
  // arrival (IoRequest::origin_ns), so the backlog is measured and
  // attributed as kRingWait instead of silently vanishing. The timeout
  // deadline still runs from driver entry: queueing ahead of the driver
  // must not consume the command's execution budget.
  command.submit_time =
      request.origin_ns != 0 && request.origin_ns <= entry_time
          ? request.origin_ns
          : entry_time;
  pending.submit_time_ns = command.submit_time;
  pending.ring_wait_ns =
      static_cast<std::uint64_t>(entry_time - command.submit_time);
  pending.method = resolved.method;
  pending.tenant = request.tenant;
  if (config_.command_timeout_ns > 0) {
    pending.deadline_ns = entry_time + config_.command_timeout_ns;
  }

  // ByteExpress-R: claim the completion-ring slots before staging. A
  // full ring is not an error — the read falls back to the PRP/SGL
  // method resolve_method() kept as the fallback.
  if (resolved.inline_read) {
    const std::uint32_t chunks =
        inr::read_chunks_for(read_length_of(request));
    if (reserve_read_slots(qp, chunks)) {
      pending.inline_read = true;
      pending.read_slots_reserved = chunks;
      inline_read_attempts_.increment();
      // No PRP/SGL staging: the payload arrives through the completion
      // ring, so the command crosses the link bare.
      inr::mark_sqe_inline_read(sqe);
      pending.read_target = request.read_buffer;
      pending.read_length =
          static_cast<std::uint32_t>(read_length_of(request));
    } else {
      resolved.inline_read = false;
      inline_read_fallbacks_.increment();
      command.submit_flags |= obs::kFlagMethodFallback;
    }
  }

  if (!pending.inline_read) {
    switch (resolved.method) {
      case TransferMethod::kPrp:
        BX_RETURN_IF_ERROR(attach_data_prp(sqe, pending, request));
        break;
      case TransferMethod::kSgl:
        BX_RETURN_IF_ERROR(attach_data_sgl(sqe, pending, request));
        break;
      case TransferMethod::kByteExpress:
      case TransferMethod::kByteExpressOoo:
        sqe.set_inline_length(
            static_cast<std::uint32_t>(request.write_data.size()));
        if (resolved.method == TransferMethod::kByteExpressOoo) {
          nvme::inline_chunk::mark_sqe_ooo(sqe, allocate_payload_id());
          command.submit_flags |= obs::kFlagOooCommand;
        }
        command.inline_payload = request.write_data;
        command.slots = 1 + inline_slots_for(resolved.method,
                                             request.write_data.size());
        break;
      case TransferMethod::kBandSlim:
        command.slots = 0;
        break;
      case TransferMethod::kHybrid:
      case TransferMethod::kAuto:
        return internal_error("hybrid/auto must be resolved before submission");
    }
  }

  // One admission decision per command, taken before any ring slot is
  // claimed; a rejection surfaces the gate's status unchanged (staging is
  // undone by Pending's RAII — nothing was published).
  const Nanoseconds gate_start = link_.clock().now();
  const Status admitted = gate_admit(request, qid, resolved, pending);
  if (!admitted.is_ok()) {
    release_read_slots(qp, pending);
    return admitted;
  }
  pending.gate_wait_ns =
      static_cast<std::uint64_t>(link_.clock().now() - gate_start);
  sqe.cid = register_pending(qp, std::move(pending));
  return command;
}

std::size_t NvmeDriver::push_run(QueuePair& qp, std::span<Prepared> commands,
                                 Nanoseconds since) {
  std::lock_guard<std::mutex> lock(qp.sq->lock());
  const Nanoseconds start = link_.clock().now();
  std::size_t pushed = 0;
  std::uint64_t entries = 0;
  std::uint8_t bell_flags = 0;
  while (pushed < commands.size() && commands[pushed].slots > 0 &&
         qp.sq->free_slots() >= commands[pushed].slots) {
    Prepared& command = commands[pushed++];
    push_command_locked(qp, command.sqe, command.inline_payload);
    // Time since `since` is ring backpressure: the reap/pump drains that
    // ran before this run secured its slots.
    command.marks.slot_wait_ns = static_cast<std::uint64_t>(start - since);
    command.marks.push_end_ns = link_.clock().now();
    entries += command.slots;
    // The doorbell carries the command-shape bits only.
    bell_flags |= command.submit_flags &
                  (obs::kFlagAuxCommand | obs::kFlagOooCommand);
    // Counted before the bell that publishes it, so the doorbells/op
    // gauge the bell refreshes is exact.
    if (command.request != nullptr) {
      qp.commands.increment();
      total_commands_.increment();
    }
  }
  if (pushed == 0) return 0;
  qp.sq_occupancy.set(qp.sq->occupancy());
  last_submit_cost_ns_.store(link_.clock().now() - start,
                             std::memory_order_relaxed);
  // ONE doorbell for every SQE and chunk of the run, rung while still
  // holding the ring lock: if the doorbell moved outside, a submitter that
  // pushed a later tail could ring first and a stale earlier tail would
  // then regress the BAR register, hiding entries from the device.
  ring_sq_traced(qp.sq->qid(), qp.sq->tail(), entries,
                 commands[pushed - 1].sqe.cid, bell_flags);
  // The shared bell closes every command's coalescing hold: a command
  // pushed early in the run waited under the bell while the rest of the
  // run was laid down (kBellHold).
  const Nanoseconds bell_end = link_.clock().now();
  for (std::size_t i = 0; i < pushed; ++i) {
    commands[i].marks.bell_end_ns = bell_end;
  }
  return pushed;
}

bool NvmeDriver::drain(QueuePair& qp, int& idle_spins) {
  poll_completions(qp.sq->qid());
  if (pump_once()) {
    idle_spins = 0;
    return true;
  }
  return ++idle_spins <= 10000;
}

Status NvmeDriver::push_one(QueuePair& qp, Prepared& command) {
  const Nanoseconds since = link_.clock().now();
  int idle_spins = 0;
  while (push_run(qp, {&command, 1}, since) == 0) {
    if (!drain(qp, idle_spins)) {
      return resource_exhausted("SQ full and device made no progress");
    }
  }
  return Status::ok();
}

Status NvmeDriver::publish_bandslim(QueuePair& qp, Prepared& command) {
  const ConstByteSpan payload = command.request->write_data;
  const std::uint16_t stream = allocate_stream_id();
  Prepared header = command;
  header.slots = 1;
  const std::uint32_t embedded =
      nvme::bandslim::encode_header(header.sqe, stream, payload);
  BX_RETURN_IF_ERROR(push_one(qp, header));
  command.marks = header.marks;

  // Dedicated fragment commands, serialized by the host ordering layer
  // (§3.2: "payload fragments must be sent through serialized CMDs").
  Prepared fragment;
  fragment.submit_flags = obs::kFlagAuxCommand;
  std::uint32_t offset = embedded;
  std::uint16_t index = 0;
  while (offset < payload.size()) {
    link_.clock().advance(config_.timing.bandslim_gap_ns);
    nvme::bandslim::Fragment wire;
    wire.stream_id = stream;
    wire.index = index++;
    wire.offset = offset;
    wire.length = static_cast<std::uint32_t>(std::min<std::size_t>(
        nvme::bandslim::kFragmentCapacity, payload.size() - offset));
    wire.last = offset + wire.length == payload.size();
    fragment.sqe = nvme::bandslim::encode_fragment(
        wire, /*cid=*/0, payload.subspan(offset, wire.length));
    BX_RETURN_IF_ERROR(push_one(qp, fragment));
    // The command is only fully handed off once its last fragment is
    // published; backpressure accumulates across the whole sequence.
    command.marks.slot_wait_ns += fragment.marks.slot_wait_ns;
    command.marks.push_end_ns = fragment.marks.push_end_ns;
    command.marks.bell_end_ns = fragment.marks.bell_end_ns;
    offset += wire.length;
  }
  return Status::ok();
}

Status NvmeDriver::publish(QueuePair& qp, std::span<Prepared> commands,
                           bool batched) {
  const Nanoseconds since = link_.clock().now();
  std::size_t done = 0;
  int idle_spins = 0;
  while (done < commands.size()) {
    std::size_t run = 1;
    if (commands[done].slots == 0) {
      // BandSlim: header + serialized fragment commands, one doorbell
      // each by construction (§3.2) — it can never share a bell.
      const Status status = publish_bandslim(qp, commands[done]);
      if (!status.is_ok()) {
        abandon(qp, commands.subspan(done));
        return status;
      }
    } else {
      run = push_run(qp, commands.subspan(done), since);
      if (run == 0) {
        // The next command does not fit: reap and let the device drain,
        // bounded so a wedged device surfaces as an error, not a hang.
        if (drain(qp, idle_spins)) continue;
        abandon(qp, commands.subspan(done));
        return resource_exhausted("SQ full and device made no progress");
      }
      idle_spins = 0;
      if (batched) {
        batches_.increment();
        if (batch_size_metric_ != nullptr) batch_size_metric_->record(run);
      }
    }
    if (batched) batched_commands_.add(run);
    if (submit_cost_metric_ != nullptr) {
      submit_cost_metric_->record(
          static_cast<std::uint64_t>(last_submit_cost()));
    }
    note_published(qp, commands.subspan(done, run));
    done += run;
  }
  return Status::ok();
}

void NvmeDriver::note_published(QueuePair& qp,
                                std::span<const Prepared> commands) {
  {
    // Publish the attribution marks into the registered pendings. The
    // device may already have completed a command (reap sets done but
    // never erases; only the waiter erases, and no handle has been
    // returned yet), so every entry is still present.
    std::lock_guard<std::mutex> lock(qp.pending_mutex);
    for (const Prepared& command : commands) {
      auto it = qp.pending.find(command.sqe.cid);
      if (it != qp.pending.end()) it->second.marks = command.marks;
    }
  }
  for (const Prepared& command : commands) {
    const IoRequest* request = command.request;
    if (tracer_ != nullptr && tracer_->enabled()) {
      obs::TraceEvent event;
      event.stage = obs::TraceStage::kSubmit;
      event.start = command.submit_time;
      event.end = link_.clock().now();
      event.qid = qp.sq->qid();
      event.cid = command.sqe.cid;
      event.flags = command.submit_flags;
      event.aux = static_cast<std::uint64_t>(command.resolved.method);
      if (request != nullptr) {
        event.tenant = request->tenant;
        event.bytes = request->write_data.size();
      }
      tracer_->record(event);
    }
    if (request == nullptr) continue;  // admin commands stop at the trace
    if (nvme::is_write_direction(request->opcode)) {
      payload_bytes_.add(request->write_data.size());
    }
    if (submissions_metric_ != nullptr) submissions_metric_->increment();
  }
}

void NvmeDriver::abandon(QueuePair& qp, std::span<const Prepared> commands) {
  std::lock_guard<std::mutex> lock(qp.pending_mutex);
  for (const Prepared& command : commands) {
    auto it = qp.pending.find(command.sqe.cid);
    if (it == qp.pending.end()) continue;
    gate_release(it->second, /*completed=*/false);
    release_read_slots(qp, it->second);
    qp.pending.erase(it);
  }
  qp.inflight.set(static_cast<std::int64_t>(qp.pending.size()));
}

StatusOr<Submitted> NvmeDriver::submit(const IoRequest& request,
                                       std::uint16_t qid) {
  if (qid == 0 || qid > io_queues_.size()) {
    return invalid_argument("bad I/O qid " + std::to_string(qid));
  }
  auto command = prepare(request, qid);
  BX_RETURN_IF_ERROR(command.status());
  BX_RETURN_IF_ERROR(publish(queue(qid), {&*command, 1}, /*batched=*/false));
  return Submitted{qid, command->sqe.cid, command->submit_time,
                   command->resolved};
}

StatusOr<NvmeDriver::BatchResult> NvmeDriver::submit_batch(
    std::span<const IoRequest> requests, std::uint16_t qid) {
  if (qid == 0 || qid > io_queues_.size()) {
    return invalid_argument("bad I/O qid " + std::to_string(qid));
  }
  if (requests.empty()) return invalid_argument("empty batch");
  QueuePair& qp = queue(qid);
  const std::uint64_t bells_before = bar_.sq_doorbell_writes(qid);
  std::vector<Prepared> commands;
  commands.reserve(requests.size());
  for (const IoRequest& request : requests) {
    auto command = prepare(request, qid);
    if (!command.is_ok()) {
      // Preparation is all-or-nothing: nothing is on the ring yet.
      abandon(qp, commands);
      return command.status();
    }
    commands.push_back(std::move(*command));
  }
  BX_RETURN_IF_ERROR(publish(qp, commands, /*batched=*/true));
  BatchResult result;
  result.handles.reserve(commands.size());
  for (const Prepared& command : commands) {
    result.handles.push_back(Submitted{qid, command.sqe.cid,
                                       command.submit_time, command.resolved});
    result.entries += command.slots;
  }
  result.doorbells = bar_.sq_doorbell_writes(qid) - bells_before;
  return result;
}

void NvmeDriver::consume_inline_read_locked(QueuePair& qp,
                                            Pending& pending) {
  const nvme::CompletionQueueEntry& cqe = pending.cqe;
  // DW0 may report more than was transferred (a KV value larger than the
  // destination buffer); the controller clamps the inline emission to the
  // declared length, so the reassembled payload is the min of the two.
  const std::uint32_t length =
      std::min<std::uint32_t>(cqe.dw0, pending.read_length);
  const std::uint32_t chunks = inr::cqe_read_chunks(cqe);
  const std::uint32_t first = inr::cqe_read_first_slot(cqe);
  // Any violation rewrites the completion to a retryable Data Transfer
  // Error: the retry tail resubmits (and, past the degradation
  // threshold, routes the queue's reads back through PRP).
  const auto fail = [&pending] {
    pending.cqe.set_status(nvme::StatusField::generic(
        nvme::GenericStatus::kDataTransferError));
  };
  if (length == 0 || chunks != inr::read_chunks_for(length) ||
      qp.read_ring_slots == 0) {
    fail();
    return;
  }
  controller::ReadReassembler reassembler(cqe.sq_id, cqe.cid, length);
  nvme::SqSlot slot;
  for (std::uint32_t i = 0; i < chunks; ++i) {
    const std::uint64_t offset =
        std::uint64_t{(first + i) % qp.read_ring_slots} *
        inr::kReadSlotBytes;
    qp.read_ring.read(offset, {slot.raw, sizeof(slot.raw)});
    const Status accepted = reassembler.accept(slot);
    if (!accepted.is_ok()) {
      if (accepted.code() == StatusCode::kDataLoss) {
        inline_read_crc_errors_.increment();
      }
      fail();
      return;
    }
  }
  auto payload = reassembler.take();
  if (!payload.is_ok() || payload->size() > pending.read_target.size()) {
    fail();
    return;
  }
  std::memcpy(pending.read_target.data(), payload->data(),
              payload->size());
  inline_read_completions_.increment();
  inline_read_chunks_.add(chunks);
  inline_read_bytes_.add(length);
}

Completion NvmeDriver::finish_pending_locked(
    QueuePair& qp, std::unordered_map<std::uint16_t, Pending>::iterator it) {
  const std::uint16_t cid = it->first;
  Pending pending = std::move(it->second);
  gate_release(pending, /*completed=*/true);
  qp.pending.erase(it);
  qp.inflight.set(static_cast<std::int64_t>(qp.pending.size()));
  if (pending.inline_read) {
    if (pending.cqe.status().is_success()) {
      if (inr::cqe_is_inline_read(pending.cqe)) {
        // Ring reads below are plain host-DRAM loads — the point of the
        // design: the payload already crossed the link as MWr chunks.
        consume_inline_read_locked(qp, pending);
      } else if (pending.cqe.dw0 != 0) {
        // The command was marked inline but the controller neither
        // emitted chunks nor failed it; with no PRP buffer staged the
        // data went nowhere. Retryable — the retry re-resolves.
        pending.cqe.set_status(nvme::StatusField::generic(
            nvme::GenericStatus::kDataTransferError));
      }
    }
    release_read_slots(qp, pending);
  }
  Completion completion;
  completion.status = pending.cqe.status();
  completion.dw0 = pending.cqe.dw0;
  completion.latency_ns = link_.clock().now() - pending.submit_time_ns;
  if (!pending.read_target.empty() && completion.status.is_success()) {
    const std::uint32_t returned =
        std::min<std::uint32_t>(pending.cqe.dw0, pending.read_length);
    // Inline reads were copied out of the completion ring above; the
    // PRP/SGL path copies out of the staging DMA buffer here.
    if (!pending.inline_read && returned > 0 && pending.data.valid()) {
      ByteVec staging(returned);
      pending.data.read(0, {staging.data(), returned});
      std::memcpy(pending.read_target.data(), staging.data(), returned);
    }
    completion.bytes_returned = returned;
  }
  attribute_completion(qp.sq->qid(), cid, pending, completion);
  return completion;
}

void NvmeDriver::attribute_completion(std::uint16_t qid, std::uint16_t cid,
                                      const Pending& pending,
                                      Completion& completion) {
  const auto total = static_cast<std::uint64_t>(completion.latency_ns);
  // Take the device report the controller filed as it posted the CQE.
  // Lock order: pending_mutex -> TraceRecorder mutex (never the reverse).
  const obs::DeviceReport report =
      tracer_ != nullptr ? tracer_->finish_command(qid, cid)
                         : obs::DeviceReport{};

  std::array<std::uint64_t, obs::kWaitSegmentCount> want{};
  const auto seg = [](obs::WaitSegment s) {
    return static_cast<std::size_t>(s);
  };
  want[seg(obs::WaitSegment::kGateWait)] = pending.gate_wait_ns;
  want[seg(obs::WaitSegment::kRingWait)] = pending.ring_wait_ns;
  want[seg(obs::WaitSegment::kSlotWait)] = pending.marks.slot_wait_ns;
  const Nanoseconds bell_end = pending.marks.bell_end_ns;
  const Nanoseconds push_end = pending.marks.push_end_ns;
  const std::uint64_t hold =
      push_end != 0 && bell_end > push_end
          ? static_cast<std::uint64_t>(bell_end - push_end)
          : 0;
  want[seg(obs::WaitSegment::kBellHold)] = hold;
  // Host-side build cost between entering the driver and the doorbell,
  // net of the measured waits: SQE build, PRP/SGL staging, chunk pushes.
  std::uint64_t host_build = 0;
  if (bell_end > pending.submit_time_ns) {
    const auto host_span =
        static_cast<std::uint64_t>(bell_end - pending.submit_time_ns);
    const std::uint64_t waits = want[seg(obs::WaitSegment::kGateWait)] +
                                want[seg(obs::WaitSegment::kRingWait)] +
                                want[seg(obs::WaitSegment::kSlotWait)] + hold;
    host_build = host_span > waits ? host_span - waits : 0;
  }
  const Nanoseconds reap_end =
      pending.submit_time_ns + static_cast<Nanoseconds>(total);
  if (bell_end == 0) {
    // No doorbell mark (defensive: a path that never published) — the
    // whole window is host-side service.
    want[seg(obs::WaitSegment::kService)] = total;
  } else if (report.valid) {
    want[seg(obs::WaitSegment::kService)] = host_build + report.service_ns;
    want[seg(obs::WaitSegment::kReassembly)] = report.wait_ns;
    if (reap_end > report.cqe_end) {
      want[seg(obs::WaitSegment::kDelivery)] =
          static_cast<std::uint64_t>(reap_end - report.cqe_end);
    }
    // The doorbell-to-fetch gap (arbitration) and the time an injected
    // delay held the CQE are the remainder -> kArbWait via make_additive.
  } else {
    // No device report (timeout -> synthesized Abort): the command left
    // the host and never came back, so everything after the doorbell
    // books as controller residency (kArbWait).
    want[seg(obs::WaitSegment::kService)] = host_build;
  }
  completion.breakdown = obs::make_additive(total, want);

  if (qid == 0) return;  // admin: attributed but not published
  const auto method_index = static_cast<std::size_t>(pending.method);
  if (method_index < wait_hists_.size()) {
    for (std::size_t s = 0; s < obs::kWaitSegmentCount; ++s) {
      if (wait_hists_[method_index][s] != nullptr) {
        wait_hists_[method_index][s]->record(completion.breakdown.ns[s]);
      }
    }
  }
  if (pending.tenant != 0 && metrics_ != nullptr) {
    const std::string prefix =
        "tenant.t" + std::to_string(pending.tenant) + ".wait.";
    for (std::size_t s = 0; s < obs::kWaitSegmentCount; ++s) {
      metrics_
          ->histogram(prefix + std::string(obs::wait_segment_name(
                                   static_cast<obs::WaitSegment>(s))))
          .record(completion.breakdown.ns[s]);
    }
  }
  waits_.increment();
  for (std::size_t s = 0; s < obs::kWaitSegmentCount; ++s) {
    wait_ns_[s].add(completion.breakdown.ns[s]);
  }
  // Feed the adaptive policy's per-queue signal EWMAs. Called under
  // pending_mutex, which is why MethodPolicy::on_outcome must stay
  // innermost and never call back into the driver.
  if (policy_ != nullptr) {
    policy_->on_outcome(qid, pending.method, completion);
  }
}

StatusOr<Completion> NvmeDriver::wait(const Submitted& handle) {
  QueuePair& qp = queue(handle.qid);
  // With a deadline armed, each idle iteration advances the sim clock by
  // poll_idle_advance_ns, so the timeout is reached after a bounded number
  // of spins; size the no-progress bound accordingly.
  const std::uint64_t idle_spin_limit =
      config_.command_timeout_ns > 0 && config_.poll_idle_advance_ns > 0
          ? std::max<std::uint64_t>(
                10000, 2 * (config_.command_timeout_ns /
                            config_.poll_idle_advance_ns) +
                           10000)
          : 10000;
  std::uint64_t idle_spins = 0;
  for (;;) {
    Nanoseconds deadline = 0;
    {
      std::lock_guard<std::mutex> lock(qp.pending_mutex);
      auto it = qp.pending.find(handle.cid);
      if (it == qp.pending.end()) {
        return internal_error("waiting on unknown cid");
      }
      if (it->second.done) return finish_pending_locked(qp, it);
      deadline = it->second.deadline_ns;
    }
    if (deadline != 0 && link_.clock().now() >= deadline) {
      return recover_timed_out(qp, handle);
    }
    const bool progressed = pump_once();
    poll_completions(handle.qid);
    if (!progressed) {
      if (deadline != 0) {
        // Device silent while a deadline is armed: move sim-time forward
        // so the timeout can fire (the clock only advances with work).
        link_.clock().advance(config_.poll_idle_advance_ns);
      }
      if (++idle_spins > idle_spin_limit) {
        return internal_error("device made no progress while waiting");
      }
    } else {
      idle_spins = 0;
    }
  }
}

StatusOr<Completion> NvmeDriver::wait_resolved(const IoRequest& request,
                                               const Submitted& handle) {
  if (handle.qid == 0 || handle.qid > io_queues_.size()) {
    return invalid_argument("bad I/O qid " + std::to_string(handle.qid));
  }
  auto first = wait(handle);
  BX_RETURN_IF_ERROR(first.status());
  Completion completion = *std::move(first);
  ResolvedMethod resolved = handle.resolved;
  QueuePair& qp = queue(handle.qid);
  std::uint32_t failed_attempts = 0;
  for (std::uint32_t attempt = 0;; ++attempt) {
    const bool inline_attempt = is_inline_method(resolved.method);
    if (completion.status.is_success()) {
      if (inline_attempt) {
        qp.inline_failures.store(0, std::memory_order_relaxed);
      }
      if (resolved.inline_read) {
        qp.read_inline_failures.store(0, std::memory_order_relaxed);
      }
      // Every failed attempt that this success redeems was one injected
      // fault; classify it so injected == recovered + degraded + failed.
      if (failed_attempts > 0) {
        if (resolved.degraded) {
          faults_degraded_.add(failed_attempts);
        } else {
          faults_recovered_.add(failed_attempts);
        }
      }
      return completion;
    }
    ++failed_attempts;
    if (inline_attempt && config_.degrade_threshold > 0) {
      const std::uint32_t fails =
          qp.inline_failures.fetch_add(1, std::memory_order_relaxed) + 1;
      if (fails >= config_.degrade_threshold) {
        qp.degraded_until.store(
            link_.clock().now() + config_.degrade_reprobe_ns,
            std::memory_order_relaxed);
        qp.inline_failures.store(0, std::memory_order_relaxed);
        degradations_.increment();
      }
    }
    // Read-side degradation mirrors the write-inline path: N consecutive
    // failed inline-read attempts route the queue's reads through PRP
    // until the re-probe time passes.
    if (resolved.inline_read && config_.degrade_threshold > 0) {
      const std::uint32_t fails =
          qp.read_inline_failures.fetch_add(1, std::memory_order_relaxed) +
          1;
      if (fails >= config_.degrade_threshold) {
        qp.read_degraded_until.store(
            link_.clock().now() + config_.degrade_reprobe_ns,
            std::memory_order_relaxed);
        qp.read_inline_failures.store(0, std::memory_order_relaxed);
        inline_read_degradations_.increment();
      }
    }
    if (!is_retryable(completion.status) || attempt >= config_.max_retries) {
      faults_failed_.add(failed_attempts);
      return completion;
    }
    retries_.increment();
    // Deterministic sim-clock exponential backoff before the next attempt.
    // Saturate BEFORE shifting: base << shift can wrap 64 bits when the
    // configured base is large, and a wrapped product slips under the cap
    // comparison (a 2^62 base at attempt 2 used to back off by 0 ns). The
    // shift is safe exactly when base <= cap >> shift; otherwise the true
    // product exceeds the cap and the cap wins without ever computing it.
    const std::uint32_t shift = std::min<std::uint32_t>(attempt, 20);
    const Nanoseconds backoff =
        config_.retry_backoff_base_ns > (config_.retry_backoff_cap_ns >> shift)
            ? config_.retry_backoff_cap_ns
            : config_.retry_backoff_base_ns << shift;
    link_.clock().advance(backoff);

    // A retry that cannot even be submitted (method resolution failure,
    // gate rejection, wedged device) still ends the command — classify
    // the accumulated failed attempts before surfacing the error, or the
    // injected == recovered + degraded + failed invariant would leak.
    const auto fail_with = [&](const Status& status) {
      faults_failed_.add(failed_attempts);
      return status;
    };
    auto retry = submit(request, handle.qid);
    if (!retry.is_ok()) return fail_with(retry.status());
    resolved = retry->resolved;
    auto next = wait(*retry);
    if (!next.is_ok()) return fail_with(next.status());
    completion = *std::move(next);
  }
}


StatusOr<Completion> NvmeDriver::recover_timed_out(QueuePair& qp,
                                                   const Submitted& handle) {
  timeouts_.increment();
  // NVMe timeout recovery: Abort the stuck command (CDW10 = SQID | CID<<16)
  // before giving up on it, so the controller scrubs any late completion
  // that could otherwise land on a recycled CID.
  nvme::SubmissionQueueEntry abort;
  abort.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::kAbort);
  abort.cdw10 =
      std::uint32_t{handle.qid} | (std::uint32_t{handle.cid} << 16);
  aborts_sent_.increment();
  auto aborted = execute_admin(abort);
  if (!aborted.status().is_ok()) {
    BX_LOG_WARN << "Abort admin command failed: "
                << aborted.status().to_string();
  }
  // The real completion may have raced the abort — honor it if so.
  poll_completions(handle.qid);
  std::lock_guard<std::mutex> lock(qp.pending_mutex);
  auto it = qp.pending.find(handle.cid);
  if (it == qp.pending.end()) {
    return internal_error("timed-out command vanished while aborting");
  }
  if (it->second.done) return finish_pending_locked(qp, it);
  // A synthesized Abort Requested CQE (the pending's cqe is still blank:
  // only a reaped one is ever stored) resolves the command like any other:
  // its gate charge and an inline read's ring slots are paid back exactly
  // once — the abandoned slots may be overwritten by later commands, which
  // is safe because nothing will ever read them (docs/READPATH.md). The
  // command never produced a CQE, so the controller filed no device
  // report and everything after the doorbell books as controller
  // residency (kArbWait).
  it->second.done = true;
  it->second.cqe.set_status(
      nvme::StatusField::generic(nvme::GenericStatus::kAbortRequested));
  return finish_pending_locked(qp, it);
}

std::size_t NvmeDriver::poll_completions(std::uint16_t qid) {
  QueuePair& qp = queue(qid);
  // Serialize CQ consumption: wait() callers on the same queue all poll
  // while spinning, and peek/pop/head-doorbell must be one atomic step.
  std::lock_guard<std::mutex> cq_lock(qp.cq_mutex);
  std::size_t reaped = 0;
  nvme::CompletionQueueEntry cqe;
  while (qp.cq->peek(cqe)) {
    const Nanoseconds handle_start = link_.clock().now();
    qp.cq->pop();
    link_.clock().advance(config_.timing.completion_handle_ns);
    doorbell_.ring_cq_head(qid, qp.cq->head());
    if (tracer_ != nullptr && tracer_->enabled()) {
      obs::TraceEvent event;
      event.stage = obs::TraceStage::kCqDoorbell;
      event.start = handle_start;
      event.end = link_.clock().now();
      event.qid = qid;
      event.cid = cqe.cid;
      event.slot = qp.cq->head();
      tracer_->record(event);
    }
    reap_one(qp, cqe);
    ++reaped;
  }
  return reaped;
}

void NvmeDriver::reap_one(QueuePair& qp,
                          const nvme::CompletionQueueEntry& cqe) {
  {
    std::lock_guard<std::mutex> lock(qp.sq->lock());
    qp.sq->note_head(cqe.sq_head);
    qp.sq_occupancy.set(qp.sq->occupancy());
  }
  std::lock_guard<std::mutex> lock(qp.pending_mutex);
  auto it = qp.pending.find(cqe.cid);
  if (it == qp.pending.end()) {
    BX_LOG_WARN << "completion for unknown cid " << cqe.cid;
    return;
  }
  it->second.cqe = cqe;
  it->second.done = true;
}

StatusOr<Completion> NvmeDriver::execute(const IoRequest& request,
                                         std::uint16_t qid) {
  auto handle = submit(request, qid);
  BX_RETURN_IF_ERROR(handle.status());
  return wait_resolved(request, *handle);
}

StatusOr<std::vector<Completion>> NvmeDriver::execute_batch(
    std::span<const IoRequest> requests, std::uint16_t qid) {
  auto batch = submit_batch(requests, qid);
  BX_RETURN_IF_ERROR(batch.status());
  std::vector<Completion> completions;
  completions.reserve(requests.size());
  for (std::size_t i = 0; i < requests.size(); ++i) {
    // The shared retry tail: a fault on command i recovers (or degrades,
    // or fails) exactly as execute() would, without touching the other
    // commands of the batch.
    auto completion = wait_resolved(requests[i], batch->handles[i]);
    BX_RETURN_IF_ERROR(completion.status());
    completions.push_back(*std::move(completion));
  }
  return completions;
}

StatusOr<Completion> NvmeDriver::execute_ooo_striped(
    const IoRequest& request, const std::vector<std::uint16_t>& qids) {
  if (qids.empty()) return invalid_argument("no queues given");
  for (const std::uint16_t qid : qids) {
    if (qid == 0 || qid > io_queues_.size()) {
      return invalid_argument("bad qid in stripe set");
    }
  }
  if (!nvme::is_write_direction(request.opcode) ||
      request.write_data.empty()) {
    return invalid_argument("OOO striping requires a write-direction payload");
  }
  if (request.write_data.size() > kMaxInlineBytes) {
    return invalid_argument("payload too large for inline transfer");
  }
  // Striping is an explicit caller choice, so a kAuto request keeps its
  // OOO method — but the policy's overload backpressure still applies:
  // the home queue sheds before the stripe set claims any slots.
  if (request.method == TransferMethod::kAuto && policy_ != nullptr) {
    const Nanoseconds now = link_.clock().now();
    if (telemetry_ != nullptr) telemetry_->advance_to(now);
    if (policy_->decide(request, qids.front(), now).shed) {
      return resource_exhausted(
          "adaptive policy sheds load on qid " +
          std::to_string(qids.front()) +
          " (overload watermark crossed; retry after drain)");
    }
  }

  ResolvedMethod striped;
  striped.method = TransferMethod::kByteExpressOoo;
  auto prepared = prepare(request, qids.front(), &striped);
  BX_RETURN_IF_ERROR(prepared.status());
  Prepared& command = *prepared;
  QueuePair& home = queue(qids.front());
  const std::uint32_t chunks = command.slots - 1;
  {
    // Hold every stripe queue's SQ lock for the whole capacity check +
    // push + doorbell sequence, acquired in ascending qid order (the one
    // place multiple SQ locks nest — see the lock-order comment in the
    // header). This keeps the capacity check atomic with the pushes under
    // concurrent submitters, and rings each doorbell before its lock
    // drops.
    std::vector<std::uint16_t> ordered(qids);
    std::sort(ordered.begin(), ordered.end());
    ordered.erase(std::unique(ordered.begin(), ordered.end()), ordered.end());
    std::vector<std::unique_lock<std::mutex>> locks;
    locks.reserve(ordered.size());
    for (const std::uint16_t qid : ordered) {
      locks.emplace_back(queue(qid).sq->lock());
    }

    // Capacity check: the command occupies one slot on the home queue, and
    // the chunks round-robin across the stripe set. Unlike the queue-local
    // path, striped queues that carry only chunks never receive CQEs, so
    // the host's head cache can lag — surface that as backpressure instead
    // of overrunning a ring.
    for (std::size_t j = 0; j < qids.size(); ++j) {
      std::uint32_t need = chunks / qids.size() +
                           (j < chunks % qids.size() ? 1 : 0);
      if (j == 0) ++need;  // the command itself
      if (queue(qids[j]).sq->free_slots() < need) {
        abandon(home, {&command, 1});
        return resource_exhausted("stripe queue " +
                                  std::to_string(qids[j]) + " lacks space");
      }
    }

    // Command into the home queue.
    const Nanoseconds start = link_.clock().now();
    link_.clock().advance(config_.timing.sqe_insert_ns);
    home.sq->push_slot(sqe_bytes(command.sqe));

    // Chunks striped round-robin across the whole queue set.
    const std::uint32_t payload_id =
        nvme::inline_chunk::sqe_ooo_payload_id(command.sqe);
    std::size_t offset = 0;
    for (std::uint32_t i = 0; i < chunks; ++i) {
      QueuePair& target = queue(qids[i % qids.size()]);
      const std::size_t take =
          std::min<std::size_t>(nvme::inline_chunk::kOooChunkCapacity,
                                request.write_data.size() - offset);
      const auto slot = nvme::inline_chunk::encode_ooo_chunk(
          payload_id, static_cast<std::uint16_t>(i),
          static_cast<std::uint16_t>(chunks),
          request.write_data.subspan(offset, take));
      link_.clock().advance(config_.timing.chunk_insert_ns);
      target.sq->push_slot({slot.raw, sizeof(slot.raw)});
      offset += take;
    }
    last_submit_cost_ns_.store(link_.clock().now() - start,
                               std::memory_order_relaxed);
    command.marks.push_end_ns = link_.clock().now();
    home.commands.increment();
    total_commands_.increment();

    // Entries published per queue by this submission: the command on the
    // home queue, chunks round-robin over the (possibly repeating) stripe
    // list.
    std::unordered_map<std::uint16_t, std::uint64_t> published;
    published[qids.front()] += 1;
    for (std::uint32_t i = 0; i < chunks; ++i) {
      published[qids[i % qids.size()]] += 1;
    }

    // One doorbell per touched queue, rung while the locks are held.
    for (const std::uint16_t qid : ordered) {
      QueuePair& touched = queue(qid);
      touched.sq_occupancy.set(touched.sq->occupancy());
      ring_sq_traced(qid, touched.sq->tail(), published[qid],
                     command.sqe.cid, obs::kFlagOooCommand);
    }
    // The command is only fully handed off once every stripe queue's bell
    // has rung; until then the earlier bells coalesce under the lock hold.
    command.marks.bell_end_ns = link_.clock().now();
  }
  if (submit_cost_metric_ != nullptr) {
    submit_cost_metric_->record(
        static_cast<std::uint64_t>(last_submit_cost()));
  }
  note_published(home, {&command, 1});
  return wait(Submitted{qids.front(), command.sqe.cid, command.submit_time,
                        command.resolved});
}

StatusOr<Completion> NvmeDriver::execute_admin(
    nvme::SubmissionQueueEntry sqe) {
  if (!pump_) return failed_precondition("no device attached");
  Prepared command;
  command.submit_time = link_.clock().now();
  Pending initial;
  initial.submit_time_ns = command.submit_time;
  command.sqe = sqe;
  command.sqe.cid = register_pending(admin_, std::move(initial));
  const Status status = push_one(admin_, command);
  if (!status.is_ok()) {
    abandon(admin_, {&command, 1});
    return status;
  }
  note_published(admin_, {&command, 1});
  return wait(Submitted{0, command.sqe.cid, command.submit_time, {}});
}

bool NvmeDriver::pump_once() { return pump_ ? pump_() : false; }

namespace {

std::string trimmed_field(const ByteVec& page, std::size_t offset,
                          std::size_t width) {
  std::string out(reinterpret_cast<const char*>(page.data()) + offset,
                  width);
  while (!out.empty() && (out.back() == '\0' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

}  // namespace

StatusOr<NvmeDriver::IdentifyControllerData>
NvmeDriver::identify_controller() {
  DmaBuffer buffer = memory_.allocate_pages(1);
  nvme::SubmissionQueueEntry sqe;
  sqe.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::kIdentify);
  sqe.dptr1 = buffer.addr();
  sqe.cdw10 = static_cast<std::uint32_t>(nvme::IdentifyCns::kController);
  auto completion = execute_admin(sqe);
  BX_RETURN_IF_ERROR(completion.status());
  if (!completion->ok()) return internal_error("identify controller failed");

  ByteVec page(kHostPageSize);
  buffer.read(0, page);
  IdentifyControllerData data;
  data.serial = trimmed_field(page, 4, 20);
  data.model = trimmed_field(page, 24, 40);
  data.firmware = trimmed_field(page, 64, 8);
  std::memcpy(&data.namespace_count, page.data() + 516, 4);
  std::uint32_t sgls = 0;
  std::memcpy(&sgls, page.data() + 536, 4);
  data.sgl_supported = (sgls & 1) != 0;
  return data;
}

StatusOr<NvmeDriver::IdentifyNamespaceData> NvmeDriver::identify_namespace(
    std::uint32_t nsid) {
  DmaBuffer buffer = memory_.allocate_pages(1);
  nvme::SubmissionQueueEntry sqe;
  sqe.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::kIdentify);
  sqe.nsid = nsid;
  sqe.dptr1 = buffer.addr();
  sqe.cdw10 = static_cast<std::uint32_t>(nvme::IdentifyCns::kNamespace);
  auto completion = execute_admin(sqe);
  BX_RETURN_IF_ERROR(completion.status());
  if (!completion->ok()) {
    return not_found("identify namespace rejected (bad nsid?)");
  }
  ByteVec page(kHostPageSize);
  buffer.read(0, page);
  IdentifyNamespaceData data;
  std::memcpy(&data.size_blocks, page.data() + 0, 8);
  std::memcpy(&data.capacity_blocks, page.data() + 8, 8);
  return data;
}

StatusOr<nvme::TransferStatsLog> NvmeDriver::get_transfer_stats() {
  DmaBuffer buffer = memory_.allocate_pages(1);
  nvme::SubmissionQueueEntry sqe;
  sqe.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::kGetLogPage);
  sqe.dptr1 = buffer.addr();
  sqe.cdw10 =
      static_cast<std::uint32_t>(nvme::LogPageId::kVendorTransferStats) |
      ((sizeof(nvme::TransferStatsLog) / 4 - 1) << 16);  // NUMDL, 0's based
  auto completion = execute_admin(sqe);
  BX_RETURN_IF_ERROR(completion.status());
  if (!completion->ok()) return internal_error("get log page failed");
  nvme::TransferStatsLog log;
  buffer.read(0, {reinterpret_cast<Byte*>(&log), sizeof(log)});
  return log;
}

StatusOr<nvme::StageStatsLog> NvmeDriver::get_stage_stats() {
  DmaBuffer buffer = memory_.allocate_pages(1);
  nvme::SubmissionQueueEntry sqe;
  sqe.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::kGetLogPage);
  sqe.dptr1 = buffer.addr();
  sqe.cdw10 =
      static_cast<std::uint32_t>(nvme::LogPageId::kVendorStageStats) |
      ((sizeof(nvme::StageStatsLog) / 4 - 1) << 16);  // NUMDL, 0's based
  auto completion = execute_admin(sqe);
  BX_RETURN_IF_ERROR(completion.status());
  if (!completion->ok()) return internal_error("get log page failed");
  nvme::StageStatsLog log;
  buffer.read(0, {reinterpret_cast<Byte*>(&log), sizeof(log)});
  return log;
}

StatusOr<std::pair<std::uint16_t, std::uint16_t>>
NvmeDriver::set_queue_count(std::uint16_t sqs, std::uint16_t cqs) {
  nvme::SubmissionQueueEntry sqe;
  sqe.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::kSetFeatures);
  sqe.cdw10 = 0x07;
  sqe.cdw11 = (std::uint32_t{cqs} << 16) | sqs;
  auto completion = execute_admin(sqe);
  BX_RETURN_IF_ERROR(completion.status());
  if (!completion->ok()) return internal_error("set features failed");
  return std::pair<std::uint16_t, std::uint16_t>{
      static_cast<std::uint16_t>(completion->dw0 & 0xffff),
      static_cast<std::uint16_t>(completion->dw0 >> 16)};
}

}  // namespace bx::driver
