#include "controller/controller.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "nvme/bandslim_wire.h"
#include "nvme/inline_read_wire.h"
#include "nvme/inline_wire.h"
#include "nvme/prp.h"
#include "nvme/sgl.h"

namespace bx::controller {

namespace inw = nvme::inline_chunk;
namespace inr = nvme::inline_read;
namespace bsw = nvme::bandslim;
using nvme::SubmissionQueueEntry;
using pcie::Direction;
using pcie::TrafficClass;

namespace {
constexpr std::uint64_t kDevicePage = 4096;
}  // namespace

std::uint64_t Controller::prp_transfer_bytes(
    std::uint64_t length, std::size_t page_count) const noexcept {
  const std::uint32_t unit = config_.prp_transfer_unit;
  // Unit-aligned, but never more than the whole-page transfer the walk
  // covers (nor less than the payload itself).
  const std::uint64_t aligned = align_up(length, unit);
  return std::min<std::uint64_t>(aligned, page_count * kDevicePage);
}

Controller::Controller(DmaMemory& memory, pcie::PcieLink& link,
                       pcie::BarSpace& bar, CommandExecutor& executor,
                       Config config)
    : memory_(memory),
      link_(link),
      bar_(bar),
      executor_(executor),
      config_(config),
      sqs_(kMaxQueues),
      cqs_(kMaxQueues),
      arb_(kMaxQueues),
      grants_(kMaxQueues, 0),
      reassembly_(config.reassembly),
      read_rings_(kMaxQueues) {
  BX_ASSERT(kMaxQueues <= bar.max_queues());
  BX_ASSERT(config.chunk_fetch_batch >= 1);
  BX_ASSERT_MSG(config.prp_transfer_unit >= 64 &&
                    kDevicePage % config.prp_transfer_unit == 0,
                "PRP transfer unit must be 64..4096 and divide 4096");
}

void Controller::set_admin_queue(std::uint64_t sq_addr,
                                 std::uint32_t sq_depth,
                                 std::uint64_t cq_addr,
                                 std::uint32_t cq_depth) {
  sqs_[0] = SqState{true, sq_addr, sq_depth, /*cqid=*/0, /*head=*/0};
  cqs_[0] = CqState{true, cq_addr, cq_depth, /*tail=*/0, /*phase=*/true};
}

std::uint32_t Controller::available(std::uint16_t qid) const noexcept {
  const SqState& sq = sqs_[qid];
  if (!sq.valid) return 0;
  const std::uint32_t tail = bar_.sq_tail(qid);
  return (tail + sq.depth - sq.head) % sq.depth;
}

void Controller::take_entries(std::uint16_t qid, std::uint32_t entries,
                              ByteSpan out) {
  SqState& sq = sqs_[qid];
  BX_ASSERT(sq.valid);
  BX_ASSERT(entries < sq.depth &&
            out.size() <= std::uint64_t{entries} * nvme::kSqeSize);
  const std::size_t before_wrap = std::min<std::size_t>(
      out.size(), std::size_t{sq.depth - sq.head} * nvme::kSqeSize);
  memory_.read(sq.base + std::uint64_t{sq.head} * nvme::kSqeSize,
               out.first(before_wrap));
  if (before_wrap < out.size()) {
    memory_.read(sq.base, out.subspan(before_wrap));
  }
  sq.head = (sq.head + entries) % sq.depth;
}

nvme::SqSlot Controller::take_slot(std::uint16_t qid) {
  nvme::SqSlot slot;
  take_entries(qid, 1, {slot.raw, sizeof(slot.raw)});
  return slot;
}

void Controller::fetch_chunk_run(std::uint16_t qid, std::uint16_t cid,
                                 ByteSpan payload) {
  const std::uint32_t chunks = inw::raw_chunks_for(payload.size());
  const std::uint32_t first_slot = sqs_[qid].head;
  const std::uint32_t depth = sqs_[qid].depth;
  take_entries(qid, chunks, payload);

  const std::size_t stage = std::size_t(obs::TraceStage::kChunkFetch);
  const Nanoseconds fw_ns = config_.timing.chunk_fetch_fw_ns;
  const Nanoseconds copy_ns = config_.timing.chunk_copy_ns;
  const bool traced = tracer_ != nullptr && tracer_->enabled();
  run_events_.clear();
  std::uint32_t fetched = 0;
  while (fetched < chunks) {
    // One DMA read covers `batch` consecutive SQ entries and is followed
    // by one firmware fetch cost and a copy per entry. Full batches step
    // together; a short tail batch is its own step.
    const std::uint32_t batch =
        std::min(config_.chunk_fetch_batch, chunks - fetched);
    const pcie::ReadCost cost =
        link_.read_cost(std::uint64_t{batch} * nvme::kSqeSize);
    const Nanoseconds gap_ns = fw_ns + batch * copy_ns;
    const std::uint64_t reads =
        link_.reads_until_sample(cost, gap_ns, (chunks - fetched) / batch);
    // Only the step's last read can close a telemetry window, so the
    // earlier reads' gaps go before it: each window samples the link flows
    // a read-at-a-time fetch leaves it.
    const Nanoseconds step_start = link_.clock().now();
    if (reads > 1) link_.clock().advance((reads - 1) * gap_ns);
    const Nanoseconds link_ns = link_.read_n(
        Direction::kDownstream, TrafficClass::kCommandFetch, cost, reads);
    link_.clock().advance(gap_ns);
    // Reads of a multi-read step cannot replay, so only the last read's
    // time may differ from cost.ns.
    const Nanoseconds last_read_ns = link_ns - (reads - 1) * cost.ns;
    stage_count_[stage].add(reads * batch);
    stage_ns_[stage].add(link_ns + reads * gap_ns);

    if (traced) {
      for (std::uint64_t r = 0; r < reads; ++r) {
        const Nanoseconds read_ns = r + 1 == reads ? last_read_ns : cost.ns;
        Nanoseconds start = step_start + r * (cost.ns + gap_ns);
        Nanoseconds end = start + read_ns + fw_ns;
        for (std::uint32_t i = 0; i < batch; ++i) {
          const auto index =
              static_cast<std::uint32_t>(fetched + r * batch + i);
          end += copy_ns;
          obs::TraceEvent& e = run_events_.emplace_back();
          e.stage = obs::TraceStage::kChunkFetch;
          e.start = start;
          e.end = end;
          e.qid = qid;
          e.cid = cid;
          e.slot = (first_slot + index) % depth;
          e.aux = index;
          e.bytes = std::min<std::uint64_t>(
              inw::kRawChunkCapacity,
              payload.size() - std::uint64_t{index} * inw::kRawChunkCapacity);
          start = end;
        }
      }
    }
    fetched += static_cast<std::uint32_t>(reads * batch);
  }
  if (traced) tracer_->record_run(run_events_);
}

void Controller::set_queue_arbitration(std::uint16_t qid,
                                       std::uint32_t weight, bool urgent) {
  BX_ASSERT_MSG(qid < arb_.size(), "bad qid");
  BX_ASSERT_MSG(weight >= 1, "WRR weight must be >= 1");
  if (urgent && !arb_[qid].urgent) ++urgent_queues_;
  if (!urgent && arb_[qid].urgent) --urgent_queues_;
  arb_[qid].weight = weight;
  arb_[qid].urgent = urgent;
}

void Controller::serve(std::uint16_t qid) {
  process_one(qid);
  ++grants_[qid];
  inline_backlog_.set(static_cast<std::int64_t>(
      streams_.size() + deferred_.size() + reassembly_.in_flight()));
}

int Controller::pick() {
  // The admin queue is latency-critical control plane (Abort during
  // fault recovery, queue management) and its traffic is sparse — it
  // bypasses arbitration entirely.
  if (available(0) > 0) return 0;

  bool urgent = false;
  if (urgent_queues_ > 0) {
    bool any_urgent = false;
    bool any_normal = false;
    for (std::uint16_t qid = 1; qid < kMaxQueues; ++qid) {
      if (available(qid) == 0) continue;
      (arb_[qid].urgent ? any_urgent : any_normal) = true;
    }
    if (!any_urgent && !any_normal) return -1;
    // Urgent class preempts normal, but only kUrgentBurstLimit times in
    // a row while a normal queue is actually waiting — then one normal
    // grant is forced (the starvation bound tenant_isolation_test
    // asserts).
    urgent = any_urgent;
    if (any_urgent && any_normal) {
      if (urgent_run_ >= kUrgentBurstLimit) {
        urgent = false;
        urgent_run_ = 0;
      } else {
        ++urgent_run_;
      }
    } else if (any_normal) {
      urgent_run_ = 0;
    }
  }

  // Deficit round robin within the class. (During a ByteExpress
  // transaction process_one() itself stays queue-local.)
  ClassTurn& turn = turn_[urgent];
  if (turn.used < arb_[turn.qid].weight &&
      arb_[turn.qid].urgent == urgent && available(turn.qid) > 0) {
    ++turn.used;
    return turn.qid;
  }
  // The turn passes on in qid order and reaches its holder last.
  const auto pass_turn = [&](std::uint16_t from, std::uint16_t to) {
    for (std::uint16_t qid = from; qid < to; ++qid) {
      if (available(qid) > 0 && arb_[qid].urgent == urgent) {
        turn = {qid, 1};
        return int{qid};
      }
    }
    return -1;
  };
  const int next = pass_turn(turn.qid + 1, kMaxQueues);
  return next >= 0 ? next : pass_turn(1, turn.qid + 1);
}

bool Controller::poll_once() {
  // Recovery housekeeping runs only under fault injection: without an
  // injector no chunk is ever lost and no completion diverted, so the
  // healthy fast path (and its golden traces) stays byte-identical.
  const bool recovered = injector_ != nullptr && service_fault_recovery();

  const int pick_qid = pick();
  if (pick_qid < 0) return recovered;
  serve(static_cast<std::uint16_t>(pick_qid));
  return true;
}

bool Controller::service_fault_recovery() {
  bool progress = false;
  const Nanoseconds now = link_.clock().now();

  for (std::size_t i = 0; i < delayed_.size();) {
    if (delayed_[i].release_ns <= now) {
      const DelayedCompletion d = delayed_[i];
      delayed_.erase(delayed_.begin() + static_cast<std::ptrdiff_t>(i));
      post_completion(d.qid, d.sqe, d.status, d.dw0, d.dw1);
      progress = true;
    } else {
      ++i;
    }
  }

  for (std::size_t i = 0; i < deferred_.size();) {
    if (deferred_[i].deadline_ns != 0 && now > deferred_[i].deadline_ns) {
      const DeferredInline item = deferred_[i];
      deferred_.erase(deferred_.begin() + static_cast<std::ptrdiff_t>(i));
      const std::uint32_t payload_id = inw::sqe_ooo_payload_id(item.sqe);
      reassembly_.drop(payload_id);
      corrupt_payloads_.erase(payload_id);
      deferred_evictions_.increment();
      add_wait(item.qid, item.sqe.cid, item.defer_start_ns);
      // Retryable: the host re-sends the command and all of its chunks.
      reject(item.qid, item.sqe,
             nvme::StatusField::generic(
                 nvme::GenericStatus::kDataTransferError));
      progress = true;
    } else {
      ++i;
    }
  }

  for (const std::uint32_t payload_id : reassembly_.evict_expired(now)) {
    corrupt_payloads_.erase(payload_id);
    reassembly_evictions_.increment();
    progress = true;
  }
  return progress;
}

void Controller::run_until_idle() {
  while (poll_once()) {
  }
}

void Controller::process_one(std::uint16_t qid) {
  obs::TraceEvent fetch;
  fetch.stage = obs::TraceStage::kSqeFetch;
  fetch.start = link_.clock().now();
  fetch.qid = qid;
  fetch.slot = sqs_[qid].head;
  // One 64-byte DMA read of the SQE at the head (data travels
  // host->device), then the firmware's command fetch cost.
  link_.read(Direction::kDownstream, TrafficClass::kCommandFetch,
             nvme::kSqeSize);
  link_.clock().advance(config_.timing.cmd_fetch_fw_ns);
  const nvme::SqSlot slot = take_slot(qid);
  fetch.end = link_.clock().now();

  if (qid != 0 && inw::is_ooo_chunk(slot)) {
    handle_ooo_chunk(slot, qid, fetch.slot, fetch.start);
    drain_deferred();
    return;
  }

  SubmissionQueueEntry sqe;
  std::memcpy(&sqe, slot.raw, sizeof(sqe));
  fetch.cid = sqe.cid;

  if (qid != 0 &&
      sqe.io_opcode() == nvme::IoOpcode::kVendorBandSlimFragment) {
    fetch.flags = obs::kFlagAuxCommand;
    record_stage(fetch);
    handle_fragment(qid, sqe);
    return;
  }

  residency_[obs::command_key(qid, sqe.cid)] = Residency{fetch.start};
  if (qid == 0) {
    record_stage(fetch);
    handle_admin(sqe);
    commands_processed_.increment();
    return;
  }

  if (bsw::is_fragmented_header(sqe)) {
    record_stage(fetch);
    FragmentStream stream;
    stream.header = sqe;
    stream.qid = qid;
    stream.expected =
        static_cast<std::uint32_t>(io_data_length(sqe));
    stream.buffer.assign(stream.expected, 0);
    const ConstByteSpan embedded = bsw::header_embedded_payload(sqe);
    if (embedded.size() > stream.expected) {
      post_completion(qid, sqe,
                      nvme::StatusField::vendor(
                          nvme::VendorStatus::kFragmentProtocolError),
                      0);
      return;
    }
    std::memcpy(stream.buffer.data(), embedded.data(), embedded.size());
    stream.received = static_cast<std::uint32_t>(embedded.size());
    if (stream.received == stream.expected) {
      // Single-command case (sub-24 B payload): no reassembly state is
      // created, so no fragment-processing cost applies — this is what
      // keeps BandSlim competitive for tiny payloads (§3.2/§4.3).
      finish(qid, sqe, stream.buffer, /*inline_path=*/true);
    } else {
      const Nanoseconds setup_start = link_.clock().now();
      link_.clock().advance(config_.timing.bandslim_fragment_fw_ns);
      obs::TraceEvent setup;
      setup.stage = obs::TraceStage::kExec;
      setup.flags = obs::kFlagAuxCommand;
      setup.start = setup_start;
      setup.end = link_.clock().now();
      setup.qid = qid;
      setup.cid = sqe.cid;
      record_stage(setup);
      stream.assembly_start = setup.end;
      const std::uint16_t stream_id = bsw::header_stream_id(sqe);
      streams_[stream_id] = std::move(stream);
    }
    return;
  }

  handle_io(qid, sqe, fetch);
}

void Controller::handle_io(std::uint16_t qid,
                           const SubmissionQueueEntry& sqe,
                           obs::TraceEvent fetch) {
  const std::uint64_t length = io_data_length(sqe);
  const std::uint32_t inline_len = sqe.inline_length();
  const bool sqe_ooo = inline_len > 0 && inw::sqe_is_ooo(sqe);
  const std::uint32_t chunks = inw::raw_chunks_for(inline_len);

  // The aux field announces the queue-local chunk fetches that will
  // follow, under exactly the conditions guarding the chunk run below —
  // the invariant checker's adjacency machine keys off it.
  if (inline_len > 0 && inline_len == length && !sqe_ooo &&
      available(qid) >= chunks) {
    fetch.aux = chunks;
  }
  if (sqe_ooo) fetch.flags = obs::kFlagOooCommand;
  fetch.bytes = inline_len;
  record_stage(fetch);

  if (inline_len > 0) {
    if (inline_len != length) {
      reject(qid, sqe,
             nvme::StatusField::vendor(
                 nvme::VendorStatus::kInlineLengthMismatch));
      return;
    }

    if (sqe_ooo) {
      fault::FaultKind fault =
          injector_ != nullptr
              ? injector_->next_command_fault(/*inline_command=*/true, qid)
              : fault::FaultKind::kNone;
      const std::uint32_t payload_id = inw::sqe_ooo_payload_id(sqe);
      if (reassembly_.complete(payload_id)) {
        finish_ooo(qid, sqe, fault);
        return;
      }
      if (fault == fault::FaultKind::kChunkCorrupt) {
        // Apply the corruption physically: the next chunk of this
        // payload gets a byte flipped, fails its CRC, and the deferred
        // command later times out into a retryable error.
        corrupt_payloads_.insert(payload_id);
        fault = fault::FaultKind::kNone;
      }
      const Nanoseconds deadline =
          injector_ != nullptr && config_.deferred_ttl_ns > 0
              ? link_.clock().now() + config_.deferred_ttl_ns
              : 0;
      deferred_.push_back(
          DeferredInline{sqe, qid, deadline, fault, link_.clock().now()});
      return;
    }

    // Queue-local inline transfer (§3.3): the chunks MUST already sit in
    // this same SQ right behind the command — the host wrote them before
    // ringing the doorbell. Fetch them from this queue only.
    if (available(qid) < chunks) {
      // The doorbell covered the command but not its chunks: host-side
      // protocol violation. Do not consume foreign entries.
      reject(qid, sqe,
             nvme::StatusField::vendor(
                 nvme::VendorStatus::kInlineLengthMismatch));
      return;
    }
    ByteVec payload(inline_len);
    fetch_chunk_run(qid, sqe.cid, payload);
    // The fault is drawn only after the chunk slots were consumed from the
    // ring — a faulted command must not desynchronize the queue-local
    // protocol.
    finish(qid, sqe, payload, /*inline_path=*/true);
    return;
  }

  // Native data path.
  ByteVec payload;
  if (length > 0 && !nvme::is_read_direction(sqe.io_opcode())) {
    auto gathered = gather_host_data(qid, sqe, length);
    if (!gathered.is_ok()) {
      reject(qid, sqe,
             nvme::StatusField::generic(
                 nvme::GenericStatus::kDataTransferError));
      return;
    }
    payload = std::move(gathered).value();
  }
  // A command returning its payload over the inline-read ring counts as
  // inline for `inline_only` fault policies — the ring is the
  // byte-granular path those policies target.
  finish(qid, sqe, payload, reads_inline(qid, sqe));
}

void Controller::finish(std::uint16_t qid, const SubmissionQueueEntry& sqe,
                        ConstByteSpan payload, bool inline_path) {
  commands_processed_.increment();
  // Drawn only for commands that reached their completion point, so every
  // counted fault costs the host exactly one failed attempt.
  const fault::FaultKind fault =
      injector_ != nullptr ? injector_->next_command_fault(inline_path, qid)
                           : fault::FaultKind::kNone;
  complete_with_fault(qid, sqe, payload, fault);
}

void Controller::reject(std::uint16_t qid, const SubmissionQueueEntry& sqe,
                        nvme::StatusField status) {
  post_completion(qid, sqe, status, 0);
  commands_processed_.increment();
}

void Controller::finish_ooo(std::uint16_t qid,
                            const SubmissionQueueEntry& sqe,
                            fault::FaultKind fault) {
  auto payload =
      reassembly_.take(inw::sqe_ooo_payload_id(sqe), sqe.inline_length());
  if (!payload.is_ok()) {
    reject(qid, sqe,
           nvme::StatusField::vendor(
               nvme::VendorStatus::kInlineLengthMismatch));
    return;
  }
  commands_processed_.increment();
  ooo_reassembled_.increment();
  // A kChunkCorrupt drawn after every chunk already passed its CRC
  // degenerates to the Data Transfer Error it would have caused.
  complete_with_fault(qid, sqe, *payload, fault);
}

void Controller::handle_ooo_chunk(const nvme::SqSlot& slot, std::uint16_t qid,
                                  std::uint32_t ring_slot,
                                  Nanoseconds fetch_start) {
  const auto header = inw::decode_ooo_header(slot);
  link_.clock().advance(config_.timing.reassembly_track_ns);
  ConstByteSpan data = inw::ooo_chunk_data(slot, header);
  ByteVec corrupted;
  if (injector_ != nullptr &&
      corrupt_payloads_.erase(header.payload_id) > 0) {
    // Injected kChunkCorrupt: flip one byte so the CRC32-C check rejects
    // the chunk; the payload stays incomplete until its TTL fires.
    corrupted.assign(data.begin(), data.end());
    if (!corrupted.empty()) corrupted[0] ^= 0xff;
    data = corrupted;
  }
  const Status status =
      reassembly_.accept(header, data, link_.clock().now());
  if (!status.is_ok() && status.code() != StatusCode::kAlreadyExists) {
    BX_LOG_WARN << "OOO chunk rejected: " << status.to_string();
  }
  obs::TraceEvent e;
  e.stage = obs::TraceStage::kChunkFetch;
  e.flags = obs::kFlagOooChunk;
  e.start = fetch_start;
  e.end = link_.clock().now();
  e.qid = qid;
  e.slot = ring_slot;
  e.aux = header.chunk_no;
  e.bytes = header.data_len;
  record_stage(e);
}

void Controller::handle_fragment(std::uint16_t qid,
                                 const SubmissionQueueEntry& sqe) {
  const bsw::Fragment fragment = bsw::decode_fragment(sqe);
  const Nanoseconds frag_start = link_.clock().now();
  link_.clock().advance(config_.timing.bandslim_fragment_fw_ns);
  bandslim_fragments_.increment();
  {
    obs::TraceEvent e;
    e.stage = obs::TraceStage::kExec;
    e.flags = obs::kFlagAuxCommand;
    e.start = frag_start;
    e.end = link_.clock().now();
    e.qid = qid;
    e.cid = sqe.cid;
    e.aux = fragment.index;
    e.bytes = fragment.length;
    record_stage(e);
  }

  auto it = streams_.find(fragment.stream_id);
  if (it == streams_.end()) {
    BX_LOG_WARN << "BandSlim fragment for unknown stream "
                << fragment.stream_id;
    return;
  }
  FragmentStream& stream = it->second;
  const ConstByteSpan data = bsw::fragment_payload(sqe, fragment);
  const bool overflow =
      std::uint64_t{fragment.offset} + data.size() > stream.buffer.size();
  if (!overflow) {
    std::memcpy(stream.buffer.data() + fragment.offset, data.data(),
                data.size());
    stream.received += static_cast<std::uint32_t>(data.size());
    if (!fragment.last) return;
  }
  // This fragment ends the stream: the header command waited for its
  // fragments from the end of its setup until now.
  add_wait(stream.qid, stream.header.cid, stream.assembly_start);
  if (overflow || stream.received != stream.expected) {
    post_completion(stream.qid, stream.header,
                    nvme::StatusField::vendor(
                        nvme::VendorStatus::kFragmentProtocolError),
                    0);
  } else {
    finish(stream.qid, stream.header, stream.buffer, /*inline_path=*/true);
  }
  streams_.erase(it);
  (void)qid;
}

StatusOr<ByteVec> Controller::gather_host_data(
    std::uint16_t qid, const SubmissionQueueEntry& sqe,
    std::uint64_t length) {
  const Nanoseconds dma_start = link_.clock().now();
  const auto record_dma = [&](obs::TraceStage stage) {
    obs::TraceEvent e;
    e.stage = stage;
    e.start = dma_start;
    e.end = link_.clock().now();
    e.qid = qid;
    e.cid = sqe.cid;
    e.aux = 0;  // gather
    e.bytes = length;
    record_stage(e);
  };
  if (sqe.transfer_mode() == nvme::DataTransferMode::kSglData) {
    const auto descriptor = nvme::SglDescriptor::unpack(sqe.dptr1, sqe.dptr2);
    if (descriptor.type != nvme::SglDescriptorType::kDataBlock) {
      return invalid_argument("unsupported SGL descriptor type for write");
    }
    if (descriptor.length < length) {
      return invalid_argument("SGL descriptor shorter than data length");
    }
    link_.clock().advance(config_.timing.sgl_dma_setup_ns);
    sgl_transactions_.increment();
    // Fine-grained DMA: exactly the payload crosses the link (§5).
    link_.read(Direction::kDownstream, TrafficClass::kDataSgl, length);
    ByteVec payload(static_cast<std::size_t>(length));
    memory_.read(descriptor.address, payload);
    record_dma(obs::TraceStage::kSglDma);
    return payload;
  }

  // PRP: page-granular transfer.
  link_.clock().advance(config_.timing.prp_dma_setup_ns);
  prp_transactions_.increment();
  auto pages = nvme::PrpWalker::data_pages(
      sqe.dptr1, sqe.dptr2, length,
      [this](std::uint64_t list_addr, std::size_t entries) {
        // PRP list entries are themselves DMA-fetched, 64 B aligned.
        link_.read(Direction::kDownstream, TrafficClass::kPrpList,
                   align_up(entries * sizeof(std::uint64_t), 64));
        return nvme::read_prp_list_page(memory_, list_addr, entries);
      });
  BX_RETURN_IF_ERROR(pages.status());

  // The platform moves whole transfer units over PCIe regardless of the
  // payload size — at the default 4 KB unit this is the amplification of
  // Figures 1(b)/(c); §5's finer-grained configurations shrink the unit.
  link_.read(Direction::kDownstream, TrafficClass::kDataPrp,
             prp_transfer_bytes(length, pages->size()));
  record_dma(obs::TraceStage::kPrpDma);

  ByteVec payload(static_cast<std::size_t>(length));
  std::uint64_t copied = 0;
  for (std::size_t i = 0; i < pages->size() && copied < length; ++i) {
    const std::uint64_t addr = (*pages)[i];
    const std::uint64_t offset_in_page = i == 0 ? addr % kDevicePage : 0;
    const std::uint64_t take =
        std::min(kDevicePage - offset_in_page, length - copied);
    memory_.read(addr, {payload.data() + copied,
                        static_cast<std::size_t>(take)});
    copied += take;
  }
  return payload;
}

Status Controller::scatter_host_data(std::uint16_t qid,
                                     const SubmissionQueueEntry& sqe,
                                     ConstByteSpan data,
                                     std::uint64_t declared_length) {
  if (data.empty()) return Status::ok();
  const Nanoseconds dma_start = link_.clock().now();
  const auto record_dma = [&](obs::TraceStage stage, std::uint64_t bytes) {
    obs::TraceEvent e;
    e.stage = stage;
    e.start = dma_start;
    e.end = link_.clock().now();
    e.qid = qid;
    e.cid = sqe.cid;
    e.aux = 1;  // scatter
    e.bytes = bytes;
    record_stage(e);
  };
  if (sqe.transfer_mode() == nvme::DataTransferMode::kSglData) {
    const auto descriptor = nvme::SglDescriptor::unpack(sqe.dptr1, sqe.dptr2);
    if (descriptor.type == nvme::SglDescriptorType::kBitBucket) {
      // §5: bit buckets absorb read data — nothing crosses the link.
      return Status::ok();
    }
    if (descriptor.type != nvme::SglDescriptorType::kDataBlock) {
      return invalid_argument("unsupported SGL descriptor type for read");
    }
    const std::uint64_t send =
        std::min<std::uint64_t>(data.size(), descriptor.length);
    link_.clock().advance(config_.timing.sgl_dma_setup_ns);
    sgl_transactions_.increment();
    link_.post_write(Direction::kUpstream, TrafficClass::kDataSgl, send);
    memory_.write(descriptor.address,
                  data.subspan(0, static_cast<std::size_t>(send)));
    record_dma(obs::TraceStage::kSglDma, send);
    return Status::ok();
  }

  link_.clock().advance(config_.timing.prp_dma_setup_ns);
  prp_transactions_.increment();
  auto pages = nvme::PrpWalker::data_pages(
      sqe.dptr1, sqe.dptr2, declared_length,
      [this](std::uint64_t list_addr, std::size_t entries) {
        link_.read(Direction::kDownstream, TrafficClass::kPrpList,
                   align_up(entries * sizeof(std::uint64_t), 64));
        return nvme::read_prp_list_page(memory_, list_addr, entries);
      });
  BX_RETURN_IF_ERROR(pages.status());

  // Unit-granular upstream DMA, mirroring the write path.
  link_.post_write(Direction::kUpstream, TrafficClass::kDataPrp,
                   prp_transfer_bytes(declared_length, pages->size()));
  record_dma(obs::TraceStage::kPrpDma, declared_length);

  std::uint64_t copied = 0;
  const std::uint64_t total =
      std::min<std::uint64_t>(data.size(), declared_length);
  for (std::size_t i = 0; i < pages->size() && copied < total; ++i) {
    const std::uint64_t addr = (*pages)[i];
    const std::uint64_t offset_in_page = i == 0 ? addr % kDevicePage : 0;
    const std::uint64_t take =
        std::min(kDevicePage - offset_in_page, total - copied);
    memory_.write(addr, data.subspan(static_cast<std::size_t>(copied),
                                     static_cast<std::size_t>(take)));
    copied += take;
  }
  return Status::ok();
}

void Controller::execute_and_complete(std::uint16_t qid,
                                      const SubmissionQueueEntry& sqe,
                                      ConstByteSpan payload,
                                      fault::FaultKind fault) {
  const Nanoseconds exec_start = link_.clock().now();
  if (tracer_ != nullptr) tracer_->set_device_context(qid, sqe.cid);
  ExecResult result = executor_.execute(sqe, payload);
  if (tracer_ != nullptr) tracer_->clear_device_context();
  {
    obs::TraceEvent e;
    e.stage = obs::TraceStage::kExec;
    e.start = exec_start;
    e.end = link_.clock().now();
    e.qid = qid;
    e.cid = sqe.cid;
    e.bytes = payload.size();
    record_stage(e);
  }

  std::uint32_t dw0 = result.dw0;
  std::uint32_t dw1 = 0;
  if (result.status.is_success() && !result.read_data.empty()) {
    const std::uint64_t declared = io_data_length(sqe);
    // Never return more than the host asked for: a KV value larger than
    // the destination buffer is clamped to the declared length exactly as
    // the scatter path clamps it (DW0 still reports the full size, so the
    // client can grow its buffer and retry).
    const std::uint64_t inline_len =
        std::min<std::uint64_t>(result.read_data.size(), declared);
    if (reads_inline(qid, sqe) && inline_len > 0 &&
        inr::read_chunks_for(inline_len) <= read_rings_[qid].slots) {
      // ByteExpress-R: the payload returns as chunk MWr TLPs into the
      // queue's completion ring; the CQE (below) carries the slot range.
      dw1 = emit_inline_read(
          qid, sqe,
          ConstByteSpan(result.read_data)
              .subspan(0, static_cast<std::size_t>(inline_len)),
          fault == fault::FaultKind::kChunkCorrupt);
    } else {
      const Status scattered =
          scatter_host_data(qid, sqe, result.read_data, declared);
      if (!scattered.is_ok()) {
        post_completion(qid, sqe,
                        nvme::StatusField::generic(
                            nvme::GenericStatus::kDataTransferError),
                        0, 0, fault);
        return;
      }
    }
    if (dw0 == 0) {
      dw0 = static_cast<std::uint32_t>(
          std::min<std::uint64_t>(result.read_data.size(), declared));
    }
  }
  post_completion(qid, sqe, result.status, dw0, dw1, fault);
}

bool Controller::reads_inline(std::uint16_t qid,
                              const SubmissionQueueEntry& sqe) const noexcept {
  return config_.enable_inline_read && inr::sqe_wants_inline_read(sqe) &&
         read_rings_[qid].valid;
}

std::uint32_t Controller::emit_inline_read(std::uint16_t qid,
                                           const SubmissionQueueEntry& sqe,
                                           ConstByteSpan data, bool corrupt) {
  ReadRing& ring = read_rings_[qid];
  const std::uint32_t chunks = inr::read_chunks_for(data.size());
  const std::uint32_t first_slot = ring.cursor;
  const Nanoseconds emit_start = link_.clock().now();
  std::uint64_t offset = 0;
  for (std::uint32_t i = 0; i < chunks; ++i) {
    const std::uint64_t take =
        std::min<std::uint64_t>(inr::kReadChunkCapacity, data.size() - offset);
    nvme::SqSlot slot = inr::encode_read_chunk(
        qid, sqe.cid, static_cast<std::uint16_t>(i),
        static_cast<std::uint16_t>(chunks),
        data.subspan(static_cast<std::size_t>(offset),
                     static_cast<std::size_t>(take)));
    if (corrupt && i == 0) {
      // Injected kChunkCorrupt: flip one payload byte after the CRC was
      // computed — the host-side CRC32-C check must reject the chunk.
      slot.raw[inr::kReadHeaderBytes] ^= 0xff;
    }
    link_.clock().advance(config_.timing.chunk_copy_ns);
    // One 64-byte MWr TLP per ring slot — the symmetric counterpart of the
    // write path's per-slot chunk fetch, and the unit the reverse-direction
    // conservation tests count exactly.
    link_.post_write(Direction::kUpstream, TrafficClass::kDataInlineRead,
                     inr::kReadSlotBytes);
    memory_.write(ring.base + std::uint64_t{ring.cursor} * inr::kReadSlotBytes,
                  {slot.raw, sizeof(slot.raw)});
    ring.cursor = (ring.cursor + 1) % ring.slots;
    offset += take;
    inline_read_chunks_.increment();
  }
  obs::TraceEvent e;
  e.stage = obs::TraceStage::kReadChunkWrite;
  e.start = emit_start;
  e.end = link_.clock().now();
  e.qid = qid;
  e.cid = sqe.cid;
  e.slot = first_slot;
  e.aux = chunks;
  e.bytes = data.size();
  record_stage(e);
  return inr::encode_read_cqe_dw1(first_slot, chunks);
}

void Controller::complete_with_fault(std::uint16_t qid,
                                     const SubmissionQueueEntry& sqe,
                                     ConstByteSpan payload,
                                     fault::FaultKind fault) {
  nvme::GenericStatus status;
  switch (fault) {
    case fault::FaultKind::kChunkCorrupt:
      if (reads_inline(qid, sqe)) {
        // Inline-read command: the corruption is applied physically to an
        // emitted chunk so the *host-side* CRC check has to catch it
        // (zero-undetected-corruption acceptance criterion). The host
        // rewrites the completion to a retryable Data Transfer Error.
        execute_and_complete(qid, sqe, payload, fault);
        return;
      }
      // The device detected a CRC mismatch while assembling the payload:
      // the command fails without executing, retryably.
      status = nvme::GenericStatus::kDataTransferError;
      break;
    case fault::FaultKind::kErrorCompletion:
      status = nvme::GenericStatus::kInternalError;
      break;
    case fault::FaultKind::kErrorRetryable:
      status = nvme::GenericStatus::kNamespaceNotReady;
      break;
    default:
      // kNone, or a drop/delay: the command executes normally and only
      // its completion is diverted. A later host retry after the timeout
      // re-executes the command — standard NVMe abort-and-resubmit
      // semantics.
      execute_and_complete(qid, sqe, payload, fault);
      return;
  }
  post_completion(qid, sqe, nvme::StatusField::generic(status), 0);
}

void Controller::post_completion(std::uint16_t qid,
                                 const SubmissionQueueEntry& sqe,
                                 nvme::StatusField status, std::uint32_t dw0,
                                 std::uint32_t dw1, fault::FaultKind fault) {
  const auto record = residency_.find(obs::command_key(qid, sqe.cid));
  if (fault == fault::FaultKind::kCompletionDrop) {
    if (record != residency_.end()) residency_.erase(record);
    lost_.push_back(LostCompletion{qid, sqe.cid});
    completions_dropped_.increment();
    return;
  }
  if (fault == fault::FaultKind::kCompletionDelay) {
    if (record != residency_.end()) {
      record->second.held_at = link_.clock().now();
    }
    const Nanoseconds delay =
        injector_ != nullptr ? injector_->policy().delay_ns : 0;
    delayed_.push_back(DelayedCompletion{qid, sqe, status, dw0, dw1,
                                         link_.clock().now() + delay});
    completions_delayed_.increment();
    return;
  }
  const SqState& sq = sqs_[qid];
  BX_ASSERT(sq.valid);
  CqState& cq = cqs_[sq.cqid];
  BX_ASSERT_MSG(cq.valid, "completion queue not configured");

  nvme::CompletionQueueEntry cqe;
  cqe.dw0 = dw0;
  cqe.dw1 = dw1;
  cqe.sq_head = static_cast<std::uint16_t>(sq.head);
  cqe.sq_id = qid;
  cqe.cid = sqe.cid;
  cqe.set_status(status);
  cqe.set_phase(cq.phase);

  const Nanoseconds cpl_start = link_.clock().now();
  const std::uint64_t cqe_addr =
      cq.base + std::uint64_t{cq.tail} * nvme::kCqeSize;
  link_.clock().advance(config_.timing.cqe_post_fw_ns);
  link_.post_write(Direction::kUpstream, TrafficClass::kCompletion,
                   nvme::kCqeSize);
  cq.tail = (cq.tail + 1) % cq.depth;
  if (cq.tail == 0) cq.phase = !cq.phase;

  // MSI-X interrupt: a 4-byte posted write to the host per CQE.
  link_.post_write(Direction::kUpstream, TrafficClass::kInterrupt, 4);
  {
    obs::TraceEvent e;
    e.stage = obs::TraceStage::kCompletion;
    e.start = cpl_start;
    e.end = link_.clock().now();
    e.qid = qid;
    e.cid = sqe.cid;
    record_stage(e);
  }
  if (record != residency_.end()) {
    const Residency& r = record->second;
    const Nanoseconds cqe_end = link_.clock().now();
    const std::uint64_t hold = r.held_at != 0 ? cpl_start - r.held_at : 0;
    if (tracer_ != nullptr) {
      tracer_->report_command(
          qid, sqe.cid,
          {true, cqe_end, cqe_end - r.fetch_start - r.wait_ns - hold,
           r.wait_ns});
    }
    residency_.erase(record);
  }
  // The CQE becomes host-visible only after the kCompletion event is
  // recorded and the device report filed, so a concurrently polling host
  // always observes both before it can reap the CQE (trace invariant 5
  // relies on this order).
  memory_.write_object(cqe_addr, cqe);
  completions_posted_.increment();
}

nvme::TransferStatsLog Controller::transfer_stats() const noexcept {
  nvme::TransferStatsLog log;
  log.commands_processed = commands_processed_.value();
  log.inline_chunks_fetched = chunks_fetched();
  log.bandslim_fragments = bandslim_fragments_.value();
  log.prp_transactions = prp_transactions_.value();
  log.sgl_transactions = sgl_transactions_.value();
  log.completions_posted = completions_posted_.value();
  log.ooo_payloads_reassembled = ooo_reassembled_.value();
  log.fetch_stage_total_ns =
      stage_ns_[std::size_t(obs::TraceStage::kSqeFetch)].value() +
      stage_ns_[std::size_t(obs::TraceStage::kChunkFetch)].value();
  return log;
}

void Controller::bind_metrics(obs::MetricsRegistry& metrics) const {
  metrics.expose_counter("ctrl.commands_processed", &commands_processed_);
  metrics.expose_counter(
      "ctrl.chunks_fetched",
      &stage_count_[std::size_t(obs::TraceStage::kChunkFetch)]);
  metrics.expose_counter("ctrl.bandslim_fragments", &bandslim_fragments_);
  metrics.expose_counter("ctrl.prp_transactions", &prp_transactions_);
  metrics.expose_counter("ctrl.sgl_transactions", &sgl_transactions_);
  metrics.expose_counter("ctrl.completions_posted", &completions_posted_);
  metrics.expose_counter("ctrl.ooo_reassembled", &ooo_reassembled_);
  metrics.expose_counter("ctrl.completions_dropped", &completions_dropped_);
  metrics.expose_counter("ctrl.completions_delayed", &completions_delayed_);
  metrics.expose_counter("ctrl.deferred_evictions", &deferred_evictions_);
  metrics.expose_counter("ctrl.reassembly_evictions",
                         &reassembly_evictions_);
  metrics.expose_counter("ctrl.commands_aborted", &commands_aborted_);
  metrics.expose_counter(
      "ctrl.inline_read_completions",
      &stage_count_[std::size_t(obs::TraceStage::kReadChunkWrite)]);
  metrics.expose_counter("ctrl.inline_read_chunks", &inline_read_chunks_);
  metrics.expose_gauge("ctrl.inline_backlog", &inline_backlog_);
}

nvme::StageStatsLog Controller::stage_stats() const noexcept {
  const auto entry = [this](obs::TraceStage stage) {
    const auto i = static_cast<std::size_t>(stage);
    return nvme::StageStatsLog::Entry{stage_count_[i].value(),
                                      stage_ns_[i].value()};
  };
  nvme::StageStatsLog log;
  log.sqe_fetch = entry(obs::TraceStage::kSqeFetch);
  log.chunk_fetch = entry(obs::TraceStage::kChunkFetch);
  log.prp_dma = entry(obs::TraceStage::kPrpDma);
  log.sgl_dma = entry(obs::TraceStage::kSglDma);
  log.exec = entry(obs::TraceStage::kExec);
  log.completion = entry(obs::TraceStage::kCompletion);
  log.read_chunk = entry(obs::TraceStage::kReadChunkWrite);
  return log;
}

void Controller::bind_telemetry(obs::Telemetry& telemetry) const {
  telemetry.register_controller(&inline_backlog_);
}

void Controller::add_wait(std::uint16_t qid, std::uint16_t cid,
                          Nanoseconds since) {
  const auto record = residency_.find(obs::command_key(qid, cid));
  if (record != residency_.end()) {
    record->second.wait_ns += link_.clock().now() - since;
  }
}

void Controller::record_stage(const obs::TraceEvent& event) {
  // The stage ledger covers I/O queues only, so Get Log Page reads do
  // not perturb the statistics they return.
  if (event.qid != 0) {
    const auto i = static_cast<std::size_t>(event.stage);
    stage_count_[i].increment();
    stage_ns_[i].add(event.end - event.start);
  }
  if (tracer_ != nullptr && tracer_->enabled()) tracer_->record(event);
}

bool Controller::abort_command(std::uint16_t sqid, std::uint16_t cid) {
  // An aborted command never posts its CQE, so its residency record goes
  // (a dropped completion's record went at the drop).
  residency_.erase(obs::command_key(sqid, cid));
  for (std::size_t i = 0; i < lost_.size(); ++i) {
    if (lost_[i].qid == sqid && lost_[i].cid == cid) {
      lost_.erase(lost_.begin() + static_cast<std::ptrdiff_t>(i));
      commands_aborted_.increment();
      return true;
    }
  }
  for (std::size_t i = 0; i < delayed_.size(); ++i) {
    if (delayed_[i].qid == sqid && delayed_[i].sqe.cid == cid) {
      // Scrubbed before release: the host is about to recycle this CID,
      // and a late CQE for the old incarnation must never surface.
      delayed_.erase(delayed_.begin() + static_cast<std::ptrdiff_t>(i));
      commands_aborted_.increment();
      return true;
    }
  }
  for (std::size_t i = 0; i < deferred_.size(); ++i) {
    if (deferred_[i].qid == sqid && deferred_[i].sqe.cid == cid) {
      const std::uint32_t payload_id =
          inw::sqe_ooo_payload_id(deferred_[i].sqe);
      reassembly_.drop(payload_id);
      corrupt_payloads_.erase(payload_id);
      deferred_.erase(deferred_.begin() + static_cast<std::ptrdiff_t>(i));
      commands_processed_.increment();
      commands_aborted_.increment();
      return true;
    }
  }
  return false;
}

void Controller::drain_deferred() {
  for (std::size_t i = 0; i < deferred_.size();) {
    const std::uint32_t payload_id =
        inw::sqe_ooo_payload_id(deferred_[i].sqe);
    if (reassembly_.complete(payload_id)) {
      const DeferredInline item = deferred_[i];
      deferred_.erase(deferred_.begin() + static_cast<std::ptrdiff_t>(i));
      // The command waited for its striped chunks: the host books the
      // wait as the kReassembly segment of the breakdown.
      add_wait(item.qid, item.sqe.cid, item.defer_start_ns);
      finish_ooo(item.qid, item.sqe, item.fault);
    } else {
      ++i;
    }
  }
}

std::uint64_t Controller::io_data_length(const SubmissionQueueEntry& sqe) {
  switch (sqe.io_opcode()) {
    case nvme::IoOpcode::kWrite:
    case nvme::IoOpcode::kRead: {
      const auto fields = nvme::BlockIoFields::from(sqe);
      return std::uint64_t{fields.block_count} * kDevicePage;
    }
    case nvme::IoOpcode::kFlush:
      return 0;
    default:
      return nvme::VendorFields::from(sqe).data_length;
  }
}

void Controller::handle_admin(const SubmissionQueueEntry& sqe) {
  const auto opcode = static_cast<nvme::AdminOpcode>(sqe.opcode);
  nvme::StatusField status = nvme::StatusField::success();
  std::uint32_t dw0 = 0;

  switch (opcode) {
    case nvme::AdminOpcode::kCreateIoCq: {
      const auto qid = static_cast<std::uint16_t>(sqe.cdw10 & 0xffff);
      const std::uint32_t depth = (sqe.cdw10 >> 16) + 1;
      if (qid == 0 || qid >= kMaxQueues || cqs_[qid].valid ||
          sqe.dptr1 == 0 || depth < 2) {
        status = nvme::StatusField::generic(nvme::GenericStatus::kInvalidField);
        break;
      }
      cqs_[qid] = CqState{true, sqe.dptr1, depth, 0, true};
      break;
    }
    case nvme::AdminOpcode::kCreateIoSq: {
      const auto qid = static_cast<std::uint16_t>(sqe.cdw10 & 0xffff);
      const std::uint32_t depth = (sqe.cdw10 >> 16) + 1;
      const auto cqid = static_cast<std::uint16_t>(sqe.cdw11 >> 16);
      if (qid == 0 || qid >= kMaxQueues || sqs_[qid].valid ||
          sqe.dptr1 == 0 || depth < 2 || cqid >= kMaxQueues ||
          !cqs_[cqid].valid) {
        status = nvme::StatusField::generic(nvme::GenericStatus::kInvalidField);
        break;
      }
      sqs_[qid] = SqState{true, sqe.dptr1, depth, cqid, 0};
      break;
    }
    case nvme::AdminOpcode::kDeleteIoSq: {
      const auto qid = static_cast<std::uint16_t>(sqe.cdw10 & 0xffff);
      if (qid == 0 || qid >= kMaxQueues || !sqs_[qid].valid) {
        status = nvme::StatusField::generic(nvme::GenericStatus::kInvalidField);
        break;
      }
      sqs_[qid].valid = false;
      read_rings_[qid].valid = false;
      break;
    }
    case nvme::AdminOpcode::kDeleteIoCq: {
      const auto qid = static_cast<std::uint16_t>(sqe.cdw10 & 0xffff);
      if (qid == 0 || qid >= kMaxQueues || !cqs_[qid].valid) {
        status = nvme::StatusField::generic(nvme::GenericStatus::kInvalidField);
        break;
      }
      cqs_[qid].valid = false;
      break;
    }
    case nvme::AdminOpcode::kIdentify: {
      if (sqe.dptr1 == 0) {
        status = nvme::StatusField::generic(nvme::GenericStatus::kInvalidField);
        break;
      }
      const auto cns = static_cast<nvme::IdentifyCns>(sqe.cdw10 & 0xff);
      ByteVec page(kDevicePage, 0);
      if (cns == nvme::IdentifyCns::kController) {
        // Identify Controller layout subset: SN @4, MN @24, FR @64,
        // NN @516, SGLS @536 (bit0: SGL supported).
        const char sn[] = "BXSIM0001";
        const char mn[] = "ByteExpress Simulated OpenSSD";
        const char fr[] = "1.0";
        std::memcpy(page.data() + 4, sn, sizeof(sn) - 1);
        std::memcpy(page.data() + 24, mn, sizeof(mn) - 1);
        std::memcpy(page.data() + 64, fr, sizeof(fr) - 1);
        const std::uint32_t nn = 1;  // one namespace
        std::memcpy(page.data() + 516, &nn, sizeof(nn));
        const std::uint32_t sgls = 1;
        std::memcpy(page.data() + 536, &sgls, sizeof(sgls));
      } else if (cns == nvme::IdentifyCns::kNamespace) {
        if (sqe.nsid != 1) {
          status = nvme::StatusField::generic(
              nvme::GenericStatus::kInvalidNamespace);
          break;
        }
        // Identify Namespace subset: NSZE @0, NCAP @8, NUSE @16 (u64
        // blocks), FLBAS @26 (we expose one 4 KB LBA format).
        const std::uint64_t nsze = namespace_blocks_;
        std::memcpy(page.data() + 0, &nsze, sizeof(nsze));
        std::memcpy(page.data() + 8, &nsze, sizeof(nsze));
        std::memcpy(page.data() + 16, &nsze, sizeof(nsze));
        page[26] = 0;  // LBA format 0
      } else {
        status = nvme::StatusField::generic(nvme::GenericStatus::kInvalidField);
        break;
      }
      link_.post_write(Direction::kUpstream, TrafficClass::kDataPrp,
                       kDevicePage);
      memory_.write(sqe.dptr1, page);
      break;
    }
    case nvme::AdminOpcode::kGetLogPage: {
      if (sqe.dptr1 == 0) {
        status = nvme::StatusField::generic(nvme::GenericStatus::kInvalidField);
        break;
      }
      const auto lid = static_cast<nvme::LogPageId>(sqe.cdw10 & 0xff);
      if (lid == nvme::LogPageId::kVendorTransferStats) {
        const nvme::TransferStatsLog log = transfer_stats();
        link_.post_write(Direction::kUpstream, TrafficClass::kDataPrp,
                         align_up(sizeof(log), 64));
        memory_.write_object(sqe.dptr1, log);
      } else if (lid == nvme::LogPageId::kVendorStageStats) {
        const nvme::StageStatsLog log = stage_stats();
        link_.post_write(Direction::kUpstream, TrafficClass::kDataPrp,
                         align_up(sizeof(log), 64));
        memory_.write_object(sqe.dptr1, log);
      } else {
        status = nvme::StatusField::generic(nvme::GenericStatus::kInvalidField);
      }
      break;
    }
    case nvme::AdminOpcode::kSetFeatures: {
      const std::uint8_t fid = sqe.cdw10 & 0xff;
      if (fid == 0x07) {
        // Number of queues: echo the request, capped by kMaxQueues-1.
        const std::uint16_t cap = kMaxQueues - 2;
        const std::uint16_t nsq =
            std::min<std::uint16_t>(sqe.cdw11 & 0xffff, cap);
        const std::uint16_t ncq =
            std::min<std::uint16_t>(sqe.cdw11 >> 16, cap);
        dw0 = (std::uint32_t{ncq} << 16) | nsq;
      }
      features_[fid] = sqe.cdw11;
      break;
    }
    case nvme::AdminOpcode::kGetFeatures: {
      const std::uint8_t fid = sqe.cdw10 & 0xff;
      const auto it = features_.find(fid);
      dw0 = it == features_.end() ? 0 : it->second;
      break;
    }
    case nvme::AdminOpcode::kVendorReadRing: {
      // ByteExpress-R ring advertisement: CDW10 = QID | (slots << 16),
      // DPTR1 = ring base. Rejected when the firmware has inline reads
      // disabled (the driver then degrades to PRP/SGL reads) or the
      // parameters are malformed. The slot count is capped by the CQE
      // DW1 encoding (15-bit first-slot field).
      const auto qid = static_cast<std::uint16_t>(sqe.cdw10 & 0xffff);
      const std::uint32_t slots = sqe.cdw10 >> 16;
      if (!config_.enable_inline_read || qid == 0 ||
          qid >= kMaxQueues || !sqs_[qid].valid || sqe.dptr1 == 0 ||
          slots < 2 || slots > (1u << 15)) {
        status = nvme::StatusField::generic(nvme::GenericStatus::kInvalidField);
        break;
      }
      read_rings_[qid] = ReadRing{true, sqe.dptr1, slots, 0};
      break;
    }
    case nvme::AdminOpcode::kAbort: {
      const auto sqid = static_cast<std::uint16_t>(sqe.cdw10 & 0xffff);
      const auto cid = static_cast<std::uint16_t>(sqe.cdw10 >> 16);
      if (sqid == 0 || sqid >= kMaxQueues || !sqs_[sqid].valid) {
        status = nvme::StatusField::generic(nvme::GenericStatus::kInvalidField);
        break;
      }
      // DW0 bit 0 clear = the command was found and aborted. The aborted
      // I/O command gets no CQE from us — the host driver synthesizes an
      // Abort Requested completion after this admin command succeeds.
      dw0 = abort_command(sqid, cid) ? 0 : 1;
      break;
    }
    default:
      status = nvme::StatusField::generic(nvme::GenericStatus::kInvalidOpcode);
      break;
  }

  post_completion(0, sqe, status, dw0);
}

}  // namespace bx::controller
