#include "core/stress.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <thread>

#include "common/bytes.h"
#include "core/testbed.h"
#include "nvme/bandslim_wire.h"
#include "nvme/inline_wire.h"
#include "nvme/queue.h"
#include "nvme/spec.h"

namespace bx::core {

namespace {

using driver::TransferMethod;

/// One planned submission: the payload is owned here so spans stay valid
/// from submit through the ring walk.
struct Op {
  std::uint16_t submitter = 0;
  std::uint16_t qid = 1;
  TransferMethod method = TransferMethod::kPrp;
  ByteVec payload;
  driver::Submitted handle{};
  bool submitted = false;
};

/// SQ slots one op occupies (the burst-budget unit).
std::uint32_t slots_for(TransferMethod method, std::uint64_t len) {
  switch (method) {
    case TransferMethod::kPrp:
    case TransferMethod::kSgl:
      return 1;
    case TransferMethod::kByteExpress:
      return 1 + nvme::inline_chunk::raw_chunks_for(len);
    case TransferMethod::kByteExpressOoo:
      return 1 + nvme::inline_chunk::ooo_chunks_for(len);
    case TransferMethod::kBandSlim:
      return nvme::bandslim::commands_for(len);
    case TransferMethod::kHybrid:
    case TransferMethod::kAuto:
      break;
  }
  BX_ASSERT_MSG(false, "hybrid/auto must be resolved before budgeting");
  return 0;
}

/// Mirrors NvmeDriver::resolve_method for the write-only ops the harness
/// issues (len >= 1 and <= max_inline, so only the hybrid switch matters).
TransferMethod effective_method(TransferMethod method, std::uint64_t len,
                                const driver::NvmeDriver::Config& config) {
  if (method == TransferMethod::kHybrid) {
    return len <= config.hybrid_threshold_bytes ? TransferMethod::kByteExpress
                                                : TransferMethod::kPrp;
  }
  return method;
}

constexpr int kTrafficClasses = static_cast<int>(pcie::TrafficClass::kCount_);

struct CellSnapshot {
  pcie::TrafficCell cells[2][kTrafficClasses];
};

CellSnapshot snapshot_traffic(pcie::TrafficCounter& traffic) {
  CellSnapshot snap;
  for (int d = 0; d < 2; ++d) {
    for (int c = 0; c < kTrafficClasses; ++c) {
      snap.cells[d][c] = traffic.cell(static_cast<pcie::Direction>(d),
                                      static_cast<pcie::TrafficClass>(c));
    }
  }
  return snap;
}

std::uint64_t data_delta(const CellSnapshot& before, const CellSnapshot& after,
                         pcie::Direction dir, pcie::TrafficClass cls) {
  const auto d = static_cast<int>(dir);
  const auto c = static_cast<int>(cls);
  return after.cells[d][c].data_bytes - before.cells[d][c].data_bytes;
}

nvme::TransferStatsLog stats_delta(const nvme::TransferStatsLog& before,
                                   const nvme::TransferStatsLog& after) {
  nvme::TransferStatsLog delta;
  delta.commands_processed = after.commands_processed - before.commands_processed;
  delta.inline_chunks_fetched =
      after.inline_chunks_fetched - before.inline_chunks_fetched;
  delta.bandslim_fragments = after.bandslim_fragments - before.bandslim_fragments;
  delta.prp_transactions = after.prp_transactions - before.prp_transactions;
  delta.sgl_transactions = after.sgl_transactions - before.sgl_transactions;
  delta.completions_posted =
      after.completions_posted - before.completions_posted;
  delta.ooo_payloads_reassembled =
      after.ooo_payloads_reassembled - before.ooo_payloads_reassembled;
  delta.fetch_stage_total_ns =
      after.fetch_stage_total_ns - before.fetch_stage_total_ns;
  return delta;
}

/// Collects the first invariant violation; later ones are dropped so the
/// report points at the root failure.
class FailureSink {
 public:
  void fail(const std::string& message) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (failed_) return;
    failed_ = true;
    message_ = message;
  }
  [[nodiscard]] bool failed() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return failed_;
  }
  [[nodiscard]] std::string message() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return message_;
  }

 private:
  mutable std::mutex mutex_;
  bool failed_ = false;
  std::string message_;
};

/// Walks [start_tail, end_tail) of one queue's raw SQ memory and verifies
/// invariant 1 (layout): command/chunk adjacency for ByteExpress,
/// in-order offsets for BandSlim streams, one command slot per op.
void verify_ring_layout(Testbed& bed, std::uint16_t qid,
                        std::uint32_t start_tail,
                        const std::vector<Op*>& queue_ops,
                        FailureSink& sink) {
  nvme::SqRing& sq = bed.driver().sq_for_test(qid);
  const std::uint32_t depth = sq.depth();
  const std::uint32_t end_tail = sq.tail();
  const std::uint32_t walked = (end_tail + depth - start_tail) % depth;

  std::map<std::uint16_t, Op*> by_cid;
  std::uint64_t expected_slots = 0;
  for (Op* op : queue_ops) {
    by_cid[op->handle.cid] = op;
    expected_slots += slots_for(op->method, op->payload.size());
  }
  if (walked != expected_slots) {
    std::ostringstream msg;
    msg << "qid " << qid << ": ring advanced " << walked << " slots, ops need "
        << expected_slots;
    sink.fail(msg.str());
    return;
  }

  struct ChunkRun {
    Op* op = nullptr;
    std::uint32_t next = 0;
    std::uint32_t total = 0;
    std::size_t offset = 0;
    bool ooo = false;
    std::uint32_t payload_id = 0;
  };
  struct StreamRun {
    Op* op = nullptr;
    std::uint16_t next_index = 0;
    std::uint32_t next_offset = 0;
  };
  std::optional<ChunkRun> run;
  std::map<std::uint16_t, StreamRun> streams;
  std::size_t commands_seen = 0;

  const auto fail_at = [&](std::uint32_t index, const std::string& what) {
    std::ostringstream msg;
    msg << "qid " << qid << " slot " << index << ": " << what;
    sink.fail(msg.str());
  };

  for (std::uint32_t i = 0; i < walked; ++i) {
    const std::uint32_t index = (start_tail + i) % depth;
    nvme::SqSlot slot;
    bed.memory().read(sq.slot_addr(index), {slot.raw, sizeof(slot.raw)});

    if (run) {
      // Invariant 1a: the slots after a ByteExpress command are its chunks,
      // consecutive and byte-exact.
      const ConstByteSpan payload{run->op->payload.data(),
                                  run->op->payload.size()};
      if (run->ooo) {
        if (!nvme::inline_chunk::is_ooo_chunk(slot)) {
          return fail_at(index, "expected OOO chunk, found other slot");
        }
        const auto header = nvme::inline_chunk::decode_ooo_header(slot);
        if (header.payload_id != run->payload_id ||
            header.chunk_no != run->next ||
            header.total_chunks != run->total) {
          return fail_at(index, "OOO chunk header mismatch");
        }
        const auto data = nvme::inline_chunk::ooo_chunk_data(slot, header);
        if (data.size() !=
                std::min<std::size_t>(nvme::inline_chunk::kOooChunkCapacity,
                                      payload.size() - run->offset) ||
            std::memcmp(data.data(), payload.data() + run->offset,
                        data.size()) != 0) {
          return fail_at(index, "OOO chunk payload mismatch");
        }
        run->offset += data.size();
      } else {
        const std::size_t take =
            std::min<std::size_t>(nvme::inline_chunk::kRawChunkCapacity,
                                  payload.size() - run->offset);
        if (std::memcmp(slot.raw, payload.data() + run->offset, take) != 0) {
          return fail_at(index, "raw chunk payload mismatch");
        }
        run->offset += take;
      }
      if (++run->next == run->total) run.reset();
      continue;
    }

    nvme::SubmissionQueueEntry sqe;
    std::memcpy(&sqe, slot.raw, sizeof(sqe));

    if (sqe.opcode ==
        static_cast<std::uint8_t>(nvme::IoOpcode::kVendorBandSlimFragment)) {
      // Invariant 1b: fragments of one stream arrive in index/offset order
      // (other submitters' entries may interleave between them).
      const auto fragment = nvme::bandslim::decode_fragment(sqe);
      auto it = streams.find(fragment.stream_id);
      if (it == streams.end()) {
        return fail_at(index, "fragment before its BandSlim header");
      }
      StreamRun& stream = it->second;
      if (fragment.index != stream.next_index ||
          fragment.offset != stream.next_offset) {
        return fail_at(index, "BandSlim fragment out of order");
      }
      const auto data = nvme::bandslim::fragment_payload(sqe, fragment);
      if (fragment.offset + fragment.length > stream.op->payload.size() ||
          std::memcmp(data.data(),
                      stream.op->payload.data() + fragment.offset,
                      fragment.length) != 0) {
        return fail_at(index, "BandSlim fragment payload mismatch");
      }
      ++stream.next_index;
      stream.next_offset += fragment.length;
      continue;
    }

    // A real command: must belong to exactly one planned op.
    auto it = by_cid.find(sqe.cid);
    if (it == by_cid.end()) {
      return fail_at(index, "command slot with unknown cid");
    }
    Op* op = it->second;
    ++commands_seen;
    switch (op->method) {
      case TransferMethod::kByteExpress: {
        if (sqe.inline_length() != op->payload.size()) {
          return fail_at(index, "inline length mismatch");
        }
        run = ChunkRun{op, 0,
                       nvme::inline_chunk::raw_chunks_for(op->payload.size()),
                       0, false, 0};
        break;
      }
      case TransferMethod::kByteExpressOoo: {
        if (!nvme::inline_chunk::sqe_is_ooo(sqe)) {
          return fail_at(index, "OOO command not marked OOO");
        }
        run = ChunkRun{op, 0,
                       nvme::inline_chunk::ooo_chunks_for(op->payload.size()),
                       0, true, nvme::inline_chunk::sqe_ooo_payload_id(sqe)};
        break;
      }
      case TransferMethod::kBandSlim: {
        if (!nvme::bandslim::is_fragmented_header(sqe)) {
          return fail_at(index, "BandSlim command without header marker");
        }
        const std::uint16_t stream_id = nvme::bandslim::header_stream_id(sqe);
        const auto embedded = nvme::bandslim::header_embedded_payload(sqe);
        if (embedded.size() > op->payload.size() ||
            std::memcmp(embedded.data(), op->payload.data(),
                        embedded.size()) != 0) {
          return fail_at(index, "BandSlim embedded payload mismatch");
        }
        if (!streams
                 .emplace(stream_id,
                          StreamRun{op, 0,
                                    static_cast<std::uint32_t>(
                                        embedded.size())})
                 .second) {
          return fail_at(index, "duplicate BandSlim stream id in round");
        }
        break;
      }
      case TransferMethod::kPrp:
      case TransferMethod::kSgl:
        break;
      case TransferMethod::kHybrid:
      case TransferMethod::kAuto:
        return fail_at(index, "unresolved hybrid/auto op");
    }
  }

  if (run) {
    sink.fail("qid " + std::to_string(qid) +
              ": ring ended inside a chunk run");
    return;
  }
  if (commands_seen != queue_ops.size()) {
    sink.fail("qid " + std::to_string(qid) + ": walked " +
              std::to_string(commands_seen) + " commands, expected " +
              std::to_string(queue_ops.size()));
    return;
  }
  for (const auto& [stream_id, stream] : streams) {
    if (stream.next_offset != stream.op->payload.size()) {
      sink.fail("qid " + std::to_string(qid) + ": BandSlim stream " +
                std::to_string(stream_id) + " incomplete in ring");
      return;
    }
  }
}

}  // namespace

StressResult run_stress(const StressOptions& options) {
  StressResult result;
  if (options.submitters == 0 || options.io_queues == 0 ||
      options.rounds == 0 || options.methods.empty() ||
      options.max_payload_bytes == 0) {
    result.status = invalid_argument("bad stress options");
    result.failure = "bad stress options";
    return result;
  }

  // Small geometry keeps construction and NAND timing cheap; the stress
  // surface is the host path, not the flash back end.
  TestbedConfig config;
  config.driver.io_queue_count = options.io_queues;
  config.driver.io_queue_depth = options.queue_depth;
  config.ssd.geometry.channels = 2;
  config.ssd.geometry.ways = 2;
  config.ssd.geometry.blocks_per_die = 64;
  config.ssd.geometry.pages_per_block = 64;
  config.ssd.geometry.page_size = 4096;
  config.ssd.nand_timing.read_ns = 5'000;
  config.ssd.nand_timing.program_ns = 20'000;
  config.ssd.nand_timing.erase_ns = 100'000;
  config.ssd.nand_timing.channel_transfer_ns = 500;
  config.trace_enabled = options.capture_trace;
  Testbed bed(config);

  // Payloads must always be submittable with the planned method: cap at
  // the inline bound and what a ring burst can hold.
  const std::uint32_t inline_cap =
      std::min(driver::NvmeDriver::kMaxInlineBytes,
               (options.queue_depth - 5) *
                   nvme::inline_chunk::kOooChunkCapacity);
  const std::uint32_t payload_cap =
      std::min(options.max_payload_bytes, inline_cap);

  FailureSink sink;
  std::mt19937_64 rng(options.seed);

  const auto barred_doorbells = [&](bool cq) {
    std::uint64_t total = 0;
    for (std::uint16_t qid = 1; qid <= options.io_queues; ++qid) {
      total += cq ? bed.bar().cq_doorbell_writes(qid)
                  : bed.bar().sq_doorbell_writes(qid);
    }
    return total;
  };

  const nvme::TransferStatsLog run_stats_before =
      bed.controller().transfer_stats();
  const std::uint64_t run_sq_db_before = barred_doorbells(false);
  const std::uint64_t run_cq_db_before = barred_doorbells(true);
  const std::uint64_t run_wire_before = bed.traffic().total_wire_bytes();

  for (std::uint32_t round = 0; round < options.rounds && !sink.failed();
       ++round) {
    // ---- plan: seeded ops, budgeted so each queue's burst fits its ring
    // without the device fetching mid-burst.
    std::vector<std::unique_ptr<Op>> ops;
    std::vector<std::uint32_t> slots_used(options.io_queues + 1, 0);
    const std::uint32_t budget = options.queue_depth - 4;
    for (std::uint32_t i = 0; i < options.ops_per_round; ++i) {
      auto op = std::make_unique<Op>();
      op->submitter =
          static_cast<std::uint16_t>(rng() % options.submitters);
      op->qid = static_cast<std::uint16_t>(1 + rng() % options.io_queues);
      const TransferMethod requested =
          options.methods[rng() % options.methods.size()];
      const std::uint32_t len =
          1 + static_cast<std::uint32_t>(rng() % payload_cap);
      op->method = effective_method(requested, len, config.driver);
      op->payload.resize(len);
      const auto fill = static_cast<Byte>(rng());
      for (std::uint32_t b = 0; b < len; ++b) {
        op->payload[b] = static_cast<Byte>(fill + b * 7);
      }
      const std::uint32_t need = slots_for(op->method, len);
      if (slots_used[op->qid] + need > budget) continue;  // burst full
      slots_used[op->qid] += need;
      ops.push_back(std::move(op));
    }
    if (ops.empty()) continue;

    // ---- snapshot the observable state the invariants are checked against.
    std::vector<std::uint32_t> start_tails(options.io_queues + 1, 0);
    std::vector<std::uint64_t> sq_db_before(options.io_queues + 1, 0);
    std::vector<std::uint64_t> cq_db_before(options.io_queues + 1, 0);
    for (std::uint16_t qid = 1; qid <= options.io_queues; ++qid) {
      start_tails[qid] = bed.driver().sq_for_test(qid).tail();
      sq_db_before[qid] = bed.bar().sq_doorbell_writes(qid);
      cq_db_before[qid] = bed.bar().cq_doorbell_writes(qid);
    }
    const nvme::TransferStatsLog device_before =
        bed.controller().transfer_stats();
    const CellSnapshot traffic_before = snapshot_traffic(bed.traffic());

    // ---- submit phase. The unit of scheduling is a *batch*: with
    // batch_depth 1 every batch is a single op and goes through the
    // classic submit() path; with batch_depth > 1 each submitter's FIFO
    // list is cut into runs of consecutive same-queue ops (<= depth)
    // issued via submit_batch(), which coalesces their doorbells.
    const std::uint32_t batch_depth =
        std::max<std::uint32_t>(1, options.batch_depth);
    const auto submit_unit = [&](std::vector<Op*>& batch) {
      if (batch_depth <= 1) {
        Op& op = *batch.front();
        driver::IoRequest request;
        request.opcode = nvme::IoOpcode::kVendorRawWrite;
        request.method = op.method;
        request.write_data = {op.payload.data(), op.payload.size()};
        auto handle = bed.driver().submit(request, op.qid);
        if (!handle.is_ok()) {
          sink.fail("submit failed: " + handle.status().message());
          return;
        }
        op.handle = *handle;
        op.submitted = true;
        return;
      }
      std::vector<driver::IoRequest> requests;
      requests.reserve(batch.size());
      for (Op* op : batch) {
        driver::IoRequest request;
        request.opcode = nvme::IoOpcode::kVendorRawWrite;
        request.method = op->method;
        request.write_data = {op->payload.data(), op->payload.size()};
        requests.push_back(request);
      }
      auto batched = bed.driver().submit_batch(
          {requests.data(), requests.size()}, batch.front()->qid);
      if (!batched.is_ok()) {
        sink.fail("submit_batch failed: " + batched.status().message());
        return;
      }
      for (std::size_t i = 0; i < batch.size(); ++i) {
        batch[i]->handle = batched->handles[i];
        batch[i]->submitted = true;
      }
    };
    const auto reap_op = [&](Op& op) {
      if (!op.submitted) return;
      auto completion = bed.driver().wait(op.handle);
      if (!completion.is_ok()) {
        sink.fail("wait failed: " + completion.status().message());
        return;
      }
      if (!completion->ok()) {
        sink.fail("device rejected a stress op");
      }
    };

    // Per-submitter FIFO work lists, then cut into batch units.
    std::vector<std::vector<Op*>> assigned(options.submitters);
    for (auto& op : ops) assigned[op->submitter].push_back(op.get());
    std::vector<std::vector<std::vector<Op*>>> units(options.submitters);
    for (std::uint16_t s = 0; s < options.submitters; ++s) {
      std::size_t i = 0;
      while (i < assigned[s].size()) {
        std::vector<Op*> batch{assigned[s][i++]};
        while (batch.size() < batch_depth && i < assigned[s].size() &&
               assigned[s][i]->qid == batch.front()->qid) {
          batch.push_back(assigned[s][i++]);
        }
        units[s].push_back(std::move(batch));
      }
    }

    // Invariant-2 expectation under coalescing: within one batch, each
    // maximal run of coalescable (non-BandSlim) commands shares exactly
    // one doorbell MWr; a BandSlim op breaks the run and rings once per
    // serialized command. Depth 1 degenerates to one bell per command.
    std::vector<std::uint64_t> expected_sq_db(options.io_queues + 1, 0);
    for (std::uint16_t s = 0; s < options.submitters; ++s) {
      for (const auto& batch : units[s]) {
        const std::uint16_t qid = batch.front()->qid;
        bool in_run = false;
        for (const Op* op : batch) {
          if (op->method == TransferMethod::kBandSlim) {
            expected_sq_db[qid] +=
                nvme::bandslim::commands_for(op->payload.size());
            in_run = false;
          } else if (!in_run) {
            ++expected_sq_db[qid];
            in_run = true;
          }
        }
      }
    }

    const auto verify_round_layout = [&] {
      for (std::uint16_t qid = 1; qid <= options.io_queues; ++qid) {
        std::vector<Op*> queue_ops;
        for (auto& op : ops) {
          if (op->qid == qid) queue_ops.push_back(op.get());
        }
        verify_ring_layout(bed, qid, start_tails[qid], queue_ops, sink);
      }
    };

    if (options.use_os_threads) {
      const auto phase = [&](auto& lists, const auto& step) {
        std::vector<std::thread> threads;
        threads.reserve(options.submitters);
        for (std::uint16_t s = 0; s < options.submitters; ++s) {
          threads.emplace_back([&, s] {
            for (auto& unit : lists[s]) {
              if (sink.failed()) return;
              step(unit);
            }
          });
        }
        for (auto& thread : threads) thread.join();
      };
      phase(units, [&](std::vector<Op*>& batch) { submit_unit(batch); });
      if (!sink.failed()) verify_round_layout();
      phase(assigned, [&](Op* op) { reap_op(*op); });
    } else {
      // Cooperative deterministic interleaving: the scheduler RNG picks
      // which submitter performs its next step.
      const auto drain = [&](auto& lists, const auto& step) {
        std::vector<std::size_t> cursor(options.submitters, 0);
        std::vector<std::uint16_t> live;
        for (std::uint16_t s = 0; s < options.submitters; ++s) {
          if (!lists[s].empty()) live.push_back(s);
        }
        while (!live.empty() && !sink.failed()) {
          const std::size_t pick = rng() % live.size();
          const std::uint16_t s = live[pick];
          step(lists[s][cursor[s]]);
          if (++cursor[s] == lists[s].size()) {
            live.erase(live.begin() + static_cast<std::ptrdiff_t>(pick));
          }
        }
      };
      drain(units, [&](std::vector<Op*>& batch) { submit_unit(batch); });
      if (!sink.failed()) verify_round_layout();
      drain(assigned, [&](Op* op) { reap_op(*op); });
    }
    result.ops_submitted += ops.size();
    if (sink.failed()) break;
    result.ops_completed += ops.size();

    // ---- invariant 2: doorbell counts per queue. The expectation was
    // computed per batch above (coalesced accounting); commands still get
    // one CQ doorbell each — CQE reaping is not coalesced.
    for (std::uint16_t qid = 1; qid <= options.io_queues; ++qid) {
      const std::uint64_t expected_sq = expected_sq_db[qid];
      std::uint64_t commands = 0;
      for (const auto& op : ops) {
        if (op->qid == qid) ++commands;
      }
      const std::uint64_t got_sq =
          bed.bar().sq_doorbell_writes(qid) - sq_db_before[qid];
      const std::uint64_t got_cq =
          bed.bar().cq_doorbell_writes(qid) - cq_db_before[qid];
      if (got_sq != expected_sq) {
        sink.fail("qid " + std::to_string(qid) + ": " +
                  std::to_string(got_sq) + " SQ doorbells, expected " +
                  std::to_string(expected_sq));
      }
      if (got_cq != commands) {
        sink.fail("qid " + std::to_string(qid) + ": " +
                  std::to_string(got_cq) + " CQ doorbells, expected " +
                  std::to_string(commands));
      }
    }

    // ---- invariant 3: one completion per submission, nothing leaked.
    const nvme::TransferStatsLog device_after =
        bed.controller().transfer_stats();
    const nvme::TransferStatsLog round_delta =
        stats_delta(device_before, device_after);
    if (round_delta.completions_posted != ops.size()) {
      sink.fail("device posted " +
                std::to_string(round_delta.completions_posted) +
                " completions for " + std::to_string(ops.size()) + " ops");
    }
    for (std::uint16_t qid = 1; qid <= options.io_queues; ++qid) {
      if (bed.driver().pending_count_for_test(qid) != 0) {
        sink.fail("qid " + std::to_string(qid) +
                  ": pending entries leaked after reap");
      }
    }

    // ---- invariant 4: traffic-byte conservation against the device's
    // own statistics.
    const CellSnapshot traffic_after = snapshot_traffic(bed.traffic());
    using pcie::Direction;
    using pcie::TrafficClass;
    const auto delta = [&](Direction dir, TrafficClass cls) {
      return data_delta(traffic_before, traffic_after, dir, cls);
    };
    const std::uint64_t slots_fetched = round_delta.commands_processed +
                                        round_delta.inline_chunks_fetched +
                                        round_delta.bandslim_fragments;
    std::uint64_t expected_prp = 0;
    std::uint64_t expected_sgl = 0;
    std::uint64_t expected_slots = 0;
    for (const auto& op : ops) {
      expected_slots += slots_for(op->method, op->payload.size());
      if (op->method == TransferMethod::kPrp) {
        expected_prp += align_up(op->payload.size(), 4096);
      } else if (op->method == TransferMethod::kSgl) {
        expected_sgl += op->payload.size();
      }
    }
    struct Check {
      const char* name;
      std::uint64_t got;
      std::uint64_t want;
    };
    const std::uint64_t db_delta =
        (barred_doorbells(false) + barred_doorbells(true)) -
        (std::accumulate(sq_db_before.begin(), sq_db_before.end(),
                         std::uint64_t{0}) +
         std::accumulate(cq_db_before.begin(), cq_db_before.end(),
                         std::uint64_t{0}));
    const Check checks[] = {
        {"cmd-fetch bytes", delta(Direction::kDownstream,
                                  TrafficClass::kCommandFetch),
         64 * slots_fetched},
        {"fetched slots vs plan", slots_fetched, expected_slots},
        {"commands processed vs ops", round_delta.commands_processed,
         ops.size()},
        {"completion bytes",
         delta(Direction::kUpstream, TrafficClass::kCompletion),
         16 * round_delta.completions_posted},
        {"doorbell bytes",
         delta(Direction::kDownstream, TrafficClass::kDoorbell),
         4 * db_delta},
        {"PRP data bytes",
         delta(Direction::kDownstream, TrafficClass::kDataPrp), expected_prp},
        {"SGL data bytes",
         delta(Direction::kDownstream, TrafficClass::kDataSgl), expected_sgl},
    };
    for (const Check& check : checks) {
      if (check.got != check.want) {
        sink.fail(std::string("traffic conservation: ") + check.name +
                  " = " + std::to_string(check.got) + ", expected " +
                  std::to_string(check.want));
      }
    }
    const std::uint64_t interrupts =
        delta(Direction::kUpstream, TrafficClass::kInterrupt);
    if (interrupts != 4 * round_delta.completions_posted) {
      sink.fail("traffic conservation: interrupt bytes = " +
                std::to_string(interrupts) + ", expected " +
                std::to_string(4 * round_delta.completions_posted));
    }
  }

  result.sq_doorbells = barred_doorbells(false) - run_sq_db_before;
  result.cq_doorbells = barred_doorbells(true) - run_cq_db_before;
  result.wire_bytes = bed.traffic().total_wire_bytes() - run_wire_before;
  result.stats_delta =
      stats_delta(run_stats_before, bed.controller().transfer_stats());
  if (options.capture_trace) {
    result.trace_events = bed.trace().snapshot();
  }
  if (sink.failed()) {
    result.failure = sink.message();
    result.status = internal_error(result.failure);
  }
  return result;
}

TestbedConfig fault_recovery_config() {
  TestbedConfig config;
  config.driver.command_timeout_ns = 2'000'000;
  config.driver.max_retries = 6;
  config.driver.retry_backoff_base_ns = 10'000;
  config.driver.retry_backoff_cap_ns = 200'000;
  config.driver.degrade_threshold = 4;
  config.driver.degrade_reprobe_ns = 1'000'000;
  config.controller.deferred_ttl_ns = 500'000;
  config.controller.reassembly.ttl_ns = 500'000;
  config.ssd.geometry.channels = 2;
  config.ssd.geometry.ways = 2;
  config.ssd.geometry.blocks_per_die = 64;
  config.ssd.geometry.pages_per_block = 64;
  config.ssd.geometry.page_size = 4096;
  config.ssd.nand_timing.read_ns = 5'000;
  config.ssd.nand_timing.program_ns = 20'000;
  config.ssd.nand_timing.erase_ns = 100'000;
  config.ssd.nand_timing.channel_transfer_ns = 500;
  config.trace_enabled = false;
  return config;
}

FaultSweepResult run_fault_sweep(const FaultSweepOptions& options) {
  FaultSweepResult result;
  if (options.ops == 0 || options.max_payload_bytes == 0) {
    result.status = invalid_argument("bad fault-sweep options");
    result.failure = "bad fault-sweep options";
    return result;
  }
  if (!options.faults.any()) {
    result.status = invalid_argument("fault sweep needs a non-zero policy");
    result.failure = "fault sweep needs a non-zero policy";
    return result;
  }

  // The injector's completion delay (default 100 ms) always out-waits the
  // 2 ms timeout, so a delayed CQE exercises the abort path instead of
  // racing the waiter.
  TestbedConfig config = fault_recovery_config();
  config.driver.io_queue_count = 1;
  config.driver.io_queue_depth = 128;
  config.faults = options.faults;
  config.fault_seed = options.seed;
  Testbed bed(config);

  const std::uint32_t payload_cap = std::min(
      options.max_payload_bytes, driver::NvmeDriver::kMaxInlineBytes);

  FailureSink sink;
  std::mt19937_64 rng(options.seed);

  const auto doorbell_writes = [&] {
    // Include the admin queue (qid 0): timeout recovery rings its
    // doorbell for the Abort command.
    std::uint64_t total = 0;
    for (std::uint16_t qid = 0; qid <= config.driver.io_queue_count; ++qid) {
      total += bed.bar().sq_doorbell_writes(qid);
      total += bed.bar().cq_doorbell_writes(qid);
    }
    return total;
  };

  const nvme::TransferStatsLog stats_before =
      bed.controller().transfer_stats();
  const CellSnapshot traffic_before = snapshot_traffic(bed.traffic());
  const std::uint64_t db_before = doorbell_writes();

  const std::uint32_t batch_depth =
      std::max<std::uint32_t>(1, options.batch_depth);
  std::uint32_t issued = 0;
  while (issued < options.ops && !sink.failed()) {
    const std::uint32_t group =
        std::min(batch_depth, options.ops - issued);
    std::vector<ByteVec> payloads(group);
    std::vector<driver::IoRequest> requests(group);
    for (std::uint32_t g = 0; g < group; ++g) {
      const std::uint32_t len =
          1 + static_cast<std::uint32_t>(rng() % payload_cap);
      payloads[g].resize(len);
      const auto fill = static_cast<Byte>(rng());
      for (std::uint32_t b = 0; b < len; ++b) {
        payloads[g][b] = static_cast<Byte>(fill + b * 7);
      }
      requests[g].opcode = nvme::IoOpcode::kVendorRawWrite;
      requests[g].method = effective_method(options.method, len, config.driver);
      requests[g].write_data = {payloads[g].data(), payloads[g].size()};
    }
    result.ops_attempted += group;
    if (batch_depth <= 1) {
      auto completion = bed.driver().execute(requests[0], 1);
      if (!completion.is_ok()) {
        // execute() only fails this way on harness bugs (hang detection,
        // unknown cid) — every injected fault must come back as a
        // Completion with a device status.
        sink.fail("execute() error on op " + std::to_string(issued) + ": " +
                  completion.status().message());
        break;
      }
      if (completion->status.is_success()) {
        ++result.ops_ok;
      } else {
        ++result.ops_error;
      }
    } else {
      // Batched sweep: a fault on command k of the batch must resolve
      // through the same retry tail as execute(), leaving the other
      // group-1 commands untouched.
      auto completions = bed.driver().execute_batch(
          {requests.data(), requests.size()}, 1);
      if (!completions.is_ok()) {
        sink.fail("execute_batch() error at op " + std::to_string(issued) +
                  ": " + completions.status().message());
        break;
      }
      for (const driver::Completion& completion : *completions) {
        if (completion.status.is_success()) {
          ++result.ops_ok;
        } else {
          ++result.ops_error;
        }
      }
    }
    issued += group;
  }

  const obs::MetricsRegistry& metrics = bed.metrics();
  result.faults_injected = metrics.counter_value("faults.injected");
  result.faults_recovered = metrics.counter_value("faults.recovered");
  result.faults_degraded = metrics.counter_value("faults.degraded");
  result.faults_failed = metrics.counter_value("faults.failed");
  result.tlp_replays = metrics.counter_value("faults.tlp_replays");
  result.timeouts = metrics.counter_value("driver.timeouts");
  result.retries = metrics.counter_value("driver.retries");
  result.degradations = metrics.counter_value("driver.degradations");

  if (!sink.failed()) {
    // ---- invariant 1: every injected fault accounted for exactly once.
    const std::uint64_t accounted = result.faults_recovered +
                                    result.faults_degraded +
                                    result.faults_failed;
    if (result.faults_injected != accounted) {
      sink.fail("fault accounting: injected " +
                std::to_string(result.faults_injected) + " != recovered " +
                std::to_string(result.faults_recovered) + " + degraded " +
                std::to_string(result.faults_degraded) + " + failed " +
                std::to_string(result.faults_failed));
    }
    if (result.ops_error + result.ops_ok != result.ops_attempted) {
      sink.fail("op accounting does not cover every attempt");
    }

    // ---- invariant 2: nothing leaked.
    for (std::uint16_t qid = 1; qid <= config.driver.io_queue_count; ++qid) {
      if (bed.driver().pending_count_for_test(qid) != 0) {
        sink.fail("qid " + std::to_string(qid) +
                  ": pending entries leaked after sweep");
      }
    }

    // ---- invariant 3: structural traffic conservation. Retries refetch
    // and drops suppress CQEs, but both sides of each identity are
    // measured, so they hold for any fault schedule.
    const nvme::TransferStatsLog delta =
        stats_delta(stats_before, bed.controller().transfer_stats());
    const CellSnapshot traffic_after = snapshot_traffic(bed.traffic());
    using pcie::Direction;
    using pcie::TrafficClass;
    const auto traffic = [&](Direction dir, TrafficClass cls) {
      return data_delta(traffic_before, traffic_after, dir, cls);
    };
    const std::uint64_t slots_fetched = delta.commands_processed +
                                        delta.inline_chunks_fetched +
                                        delta.bandslim_fragments;
    struct Check {
      const char* name;
      std::uint64_t got;
      std::uint64_t want;
    };
    const Check checks[] = {
        {"cmd-fetch bytes",
         traffic(Direction::kDownstream, TrafficClass::kCommandFetch),
         64 * slots_fetched},
        {"completion bytes",
         traffic(Direction::kUpstream, TrafficClass::kCompletion),
         16 * delta.completions_posted},
        {"doorbell bytes",
         traffic(Direction::kDownstream, TrafficClass::kDoorbell),
         4 * (doorbell_writes() - db_before)},
    };
    for (const Check& check : checks) {
      if (check.got != check.want) {
        sink.fail(std::string("traffic conservation: ") + check.name +
                  " = " + std::to_string(check.got) + ", expected " +
                  std::to_string(check.want));
      }
    }
  }

  if (sink.failed()) {
    result.failure = sink.message();
    result.status = internal_error(result.failure);
  }
  return result;
}

}  // namespace bx::core
