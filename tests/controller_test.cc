// White-box controller tests, independent of the host driver: a minimal
// hand-rolled host (rings + doorbells written directly) drives the
// firmware model through a scripted executor. Covers the admin command
// matrix (queue lifecycle, identify CNS forms, features, log pages),
// CQE field correctness, round-robin arbitration, and the fetch engine's
// classification of every slot kind.
#include <gtest/gtest.h>

#include <cstring>
#include <deque>

#include "controller/controller.h"
#include "hostmem/dma_memory.h"
#include "nvme/inline_wire.h"
#include "nvme/sgl.h"
#include "pcie/bar.h"

namespace bx::controller {
namespace {

using nvme::CompletionQueueEntry;
using nvme::SubmissionQueueEntry;

class ScriptedExecutor : public CommandExecutor {
 public:
  struct Call {
    SubmissionQueueEntry sqe;
    ByteVec payload;
  };

  ExecResult execute(const SubmissionQueueEntry& sqe,
                     ConstByteSpan payload) override {
    Call call;
    call.sqe = sqe;
    call.payload.assign(payload.begin(), payload.end());
    calls.push_back(std::move(call));
    if (results.empty()) return ExecResult::success();
    ExecResult result = std::move(results.front());
    results.pop_front();
    return result;
  }

  std::vector<Call> calls;
  std::deque<ExecResult> results;
};

/// A bare-metal host: admin + one I/O queue, rings written by hand.
class MiniHost {
 public:
  static constexpr std::uint32_t kDepth = 32;

  explicit MiniHost(Controller::Config config = {})
      : link_(pcie::LinkConfig{}, clock_, traffic_),
        bar_(Controller::kMaxQueues),
        controller_(memory_, link_, bar_, executor_, config),
        admin_sq_(memory_.allocate_pages(1)),
        admin_cq_(memory_.allocate_pages(1)),
        io_sq_(memory_.allocate_pages(1)),
        io_cq_(memory_.allocate_pages(1)) {
    controller_.set_admin_queue(admin_sq_.addr(), kDepth, admin_cq_.addr(),
                                kDepth);
  }

  void push_admin(SubmissionQueueEntry sqe) {
    sqe.cid = next_cid_++;
    memory_.write_object(
        admin_sq_.addr() + std::uint64_t{admin_tail_} * nvme::kSqeSize, sqe);
    admin_tail_ = (admin_tail_ + 1) % kDepth;
    bar_.set_sq_tail(0, admin_tail_);
  }

  /// Runs the controller and pops the next admin CQE.
  CompletionQueueEntry run_admin() {
    controller_.run_until_idle();
    const auto cqe = memory_.read_object<CompletionQueueEntry>(
        admin_cq_.addr() + std::uint64_t{admin_head_} * nvme::kCqeSize);
    EXPECT_EQ(cqe.phase(), admin_phase_) << "no CQE where expected";
    admin_head_ = (admin_head_ + 1) % kDepth;
    if (admin_head_ == 0) admin_phase_ = !admin_phase_;
    return cqe;
  }

  /// Creates I/O queue pair `qid` through real admin commands.
  void create_io_queues(std::uint16_t qid) {
    SubmissionQueueEntry create_cq;
    create_cq.opcode =
        static_cast<std::uint8_t>(nvme::AdminOpcode::kCreateIoCq);
    create_cq.dptr1 = io_cq_.addr();
    create_cq.cdw10 = ((kDepth - 1) << 16) | qid;
    push_admin(create_cq);
    ASSERT_TRUE(run_admin().status().is_success());

    SubmissionQueueEntry create_sq;
    create_sq.opcode =
        static_cast<std::uint8_t>(nvme::AdminOpcode::kCreateIoSq);
    create_sq.dptr1 = io_sq_.addr();
    create_sq.cdw10 = ((kDepth - 1) << 16) | qid;
    create_sq.cdw11 = (std::uint32_t{qid} << 16) | 1;
    push_admin(create_sq);
    ASSERT_TRUE(run_admin().status().is_success());
  }

  void push_io_slot(ConstByteSpan slot64, std::uint16_t qid = 1,
                    bool ring = true) {
    memory_.write(io_sq_.addr() + std::uint64_t{io_tail_} * nvme::kSqeSize,
                  slot64);
    io_tail_ = (io_tail_ + 1) % kDepth;
    if (ring) bar_.set_sq_tail(qid, io_tail_);
  }

  void push_io(SubmissionQueueEntry sqe, std::uint16_t qid = 1,
               bool ring = true) {
    sqe.cid = next_cid_++;
    push_io_slot({reinterpret_cast<const Byte*>(&sqe), sizeof(sqe)}, qid,
                 ring);
  }

  CompletionQueueEntry pop_io_cqe() {
    const auto cqe = memory_.read_object<CompletionQueueEntry>(
        io_cq_.addr() + std::uint64_t{io_head_} * nvme::kCqeSize);
    EXPECT_EQ(cqe.phase(), io_phase_) << "no I/O CQE where expected";
    io_head_ = (io_head_ + 1) % kDepth;
    if (io_head_ == 0) io_phase_ = !io_phase_;
    return cqe;
  }

  [[nodiscard]] bool io_cqe_available() const {
    const auto cqe = const_cast<DmaMemory&>(memory_)
                         .read_object<CompletionQueueEntry>(
                             io_cq_.addr() +
                             std::uint64_t{io_head_} * nvme::kCqeSize);
    return cqe.phase() == io_phase_;
  }

  SimClock clock_;
  DmaMemory memory_;
  pcie::TrafficCounter traffic_;
  pcie::PcieLink link_;
  pcie::BarSpace bar_;
  ScriptedExecutor executor_;
  Controller controller_;
  DmaBuffer admin_sq_, admin_cq_, io_sq_, io_cq_;
  std::uint32_t admin_tail_ = 0, admin_head_ = 0;
  std::uint32_t io_tail_ = 0, io_head_ = 0;
  bool admin_phase_ = true, io_phase_ = true;
  std::uint16_t next_cid_ = 100;
};

SubmissionQueueEntry raw_write_sqe(std::uint32_t length) {
  SubmissionQueueEntry sqe;
  sqe.opcode = static_cast<std::uint8_t>(nvme::IoOpcode::kVendorRawWrite);
  nvme::VendorFields fields;
  fields.data_length = length;
  fields.apply(sqe);
  return sqe;
}

// ------------------------------------------------------------------ admin

TEST(AdminTest, CreateSqRequiresExistingCq) {
  MiniHost host;
  SubmissionQueueEntry create_sq;
  create_sq.opcode =
      static_cast<std::uint8_t>(nvme::AdminOpcode::kCreateIoSq);
  create_sq.dptr1 = host.io_sq_.addr();
  create_sq.cdw10 = ((MiniHost::kDepth - 1) << 16) | 1;
  create_sq.cdw11 = (1u << 16) | 1;  // cqid 1 does not exist yet
  host.push_admin(create_sq);
  EXPECT_FALSE(host.run_admin().status().is_success());
}

TEST(AdminTest, QueueLifecycleCreateDeleteRecreate) {
  MiniHost host;
  host.create_io_queues(1);

  SubmissionQueueEntry delete_sq;
  delete_sq.opcode =
      static_cast<std::uint8_t>(nvme::AdminOpcode::kDeleteIoSq);
  delete_sq.cdw10 = 1;
  host.push_admin(delete_sq);
  EXPECT_TRUE(host.run_admin().status().is_success());

  // Deleting again fails.
  host.push_admin(delete_sq);
  EXPECT_FALSE(host.run_admin().status().is_success());

  // The CQ is still there; re-creating the SQ succeeds.
  SubmissionQueueEntry create_sq;
  create_sq.opcode =
      static_cast<std::uint8_t>(nvme::AdminOpcode::kCreateIoSq);
  create_sq.dptr1 = host.io_sq_.addr();
  create_sq.cdw10 = ((MiniHost::kDepth - 1) << 16) | 1;
  create_sq.cdw11 = (1u << 16) | 1;
  host.push_admin(create_sq);
  EXPECT_TRUE(host.run_admin().status().is_success());
}

TEST(AdminTest, CreateRejectsDuplicateAndBadIds) {
  MiniHost host;
  host.create_io_queues(1);
  // Duplicate CQ id.
  SubmissionQueueEntry create_cq;
  create_cq.opcode =
      static_cast<std::uint8_t>(nvme::AdminOpcode::kCreateIoCq);
  create_cq.dptr1 = host.io_cq_.addr();
  create_cq.cdw10 = ((MiniHost::kDepth - 1) << 16) | 1;
  host.push_admin(create_cq);
  EXPECT_FALSE(host.run_admin().status().is_success());
  // Queue id 0 is reserved.
  create_cq.cdw10 = ((MiniHost::kDepth - 1) << 16) | 0;
  host.push_admin(create_cq);
  EXPECT_FALSE(host.run_admin().status().is_success());
  // Null ring address.
  create_cq.cdw10 = ((MiniHost::kDepth - 1) << 16) | 2;
  create_cq.dptr1 = 0;
  host.push_admin(create_cq);
  EXPECT_FALSE(host.run_admin().status().is_success());
}

TEST(AdminTest, IdentifyControllerContents) {
  MiniHost host;
  DmaBuffer page = host.memory_.allocate_pages(1);
  SubmissionQueueEntry identify;
  identify.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::kIdentify);
  identify.dptr1 = page.addr();
  identify.cdw10 = static_cast<std::uint32_t>(nvme::IdentifyCns::kController);
  host.push_admin(identify);
  ASSERT_TRUE(host.run_admin().status().is_success());

  ByteVec data(4096);
  page.read(0, data);
  EXPECT_EQ(std::memcmp(data.data() + 4, "BXSIM0001", 9), 0);
  std::uint32_t nn = 0;
  std::memcpy(&nn, data.data() + 516, 4);
  EXPECT_EQ(nn, 1u);
}

TEST(AdminTest, IdentifyNamespaceReportsSizeAndValidatesNsid) {
  MiniHost host;
  host.controller_.set_namespace_blocks(12345);
  DmaBuffer page = host.memory_.allocate_pages(1);
  SubmissionQueueEntry identify;
  identify.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::kIdentify);
  identify.nsid = 1;
  identify.dptr1 = page.addr();
  identify.cdw10 = static_cast<std::uint32_t>(nvme::IdentifyCns::kNamespace);
  host.push_admin(identify);
  ASSERT_TRUE(host.run_admin().status().is_success());
  std::uint64_t nsze = 0;
  ByteVec data(8);
  page.read(0, data);
  std::memcpy(&nsze, data.data(), 8);
  EXPECT_EQ(nsze, 12345u);

  identify.nsid = 7;  // bad namespace
  host.push_admin(identify);
  EXPECT_FALSE(host.run_admin().status().is_success());
}

TEST(AdminTest, IdentifyRejectsUnknownCnsAndNullPrp) {
  MiniHost host;
  SubmissionQueueEntry identify;
  identify.opcode = static_cast<std::uint8_t>(nvme::AdminOpcode::kIdentify);
  identify.dptr1 = 0;
  host.push_admin(identify);
  EXPECT_FALSE(host.run_admin().status().is_success());

  DmaBuffer page = host.memory_.allocate_pages(1);
  identify.dptr1 = page.addr();
  identify.cdw10 = 0x42;  // unknown CNS
  host.push_admin(identify);
  EXPECT_FALSE(host.run_admin().status().is_success());
}

TEST(AdminTest, SetFeaturesNumberOfQueuesCapsAtMax) {
  MiniHost host;
  SubmissionQueueEntry set_features;
  set_features.opcode =
      static_cast<std::uint8_t>(nvme::AdminOpcode::kSetFeatures);
  set_features.cdw10 = 0x07;
  set_features.cdw11 = (1000u << 16) | 1000u;  // absurd request
  host.push_admin(set_features);
  const auto cqe = host.run_admin();
  ASSERT_TRUE(cqe.status().is_success());
  EXPECT_LE(cqe.dw0 & 0xffff, 62u);
  EXPECT_LE(cqe.dw0 >> 16, 62u);
}

TEST(AdminTest, GetFeaturesEchoesStoredValue) {
  MiniHost host;
  SubmissionQueueEntry set_features;
  set_features.opcode =
      static_cast<std::uint8_t>(nvme::AdminOpcode::kSetFeatures);
  set_features.cdw10 = 0x0b;  // arbitrary feature id
  set_features.cdw11 = 0xCAFE;
  host.push_admin(set_features);
  ASSERT_TRUE(host.run_admin().status().is_success());

  SubmissionQueueEntry get_features;
  get_features.opcode =
      static_cast<std::uint8_t>(nvme::AdminOpcode::kGetFeatures);
  get_features.cdw10 = 0x0b;
  host.push_admin(get_features);
  const auto cqe = host.run_admin();
  ASSERT_TRUE(cqe.status().is_success());
  EXPECT_EQ(cqe.dw0, 0xCAFEu);
}

TEST(AdminTest, TransferStatsLogPage) {
  MiniHost host;
  host.create_io_queues(1);
  // One inline command -> counters move.
  ByteVec payload(128);
  fill_pattern(payload, 1);
  SubmissionQueueEntry sqe = raw_write_sqe(128);
  sqe.set_inline_length(128);
  host.push_io(sqe, 1, /*ring=*/false);
  host.push_io_slot(
      {nvme::inline_chunk::encode_raw_chunk(
           ConstByteSpan(payload).subspan(0, 64))
           .raw,
       64},
      1, false);
  host.push_io_slot(
      {nvme::inline_chunk::encode_raw_chunk(
           ConstByteSpan(payload).subspan(64, 64))
           .raw,
       64},
      1, true);
  host.controller_.run_until_idle();

  DmaBuffer page = host.memory_.allocate_pages(1);
  SubmissionQueueEntry get_log;
  get_log.opcode =
      static_cast<std::uint8_t>(nvme::AdminOpcode::kGetLogPage);
  get_log.dptr1 = page.addr();
  get_log.cdw10 =
      static_cast<std::uint32_t>(nvme::LogPageId::kVendorTransferStats);
  host.push_admin(get_log);
  ASSERT_TRUE(host.run_admin().status().is_success());

  nvme::TransferStatsLog log;
  ByteVec raw(sizeof(log));
  page.read(0, raw);
  std::memcpy(&log, raw.data(), sizeof(log));
  EXPECT_GE(log.commands_processed, 3u);  // 2 admin creates + 1 I/O
  EXPECT_EQ(log.inline_chunks_fetched, 2u);
  EXPECT_GE(log.completions_posted, 3u);

  // Unknown LID rejected.
  get_log.cdw10 = 0x01;
  host.push_admin(get_log);
  EXPECT_FALSE(host.run_admin().status().is_success());
}

TEST(AdminTest, UnknownAdminOpcodeRejected) {
  MiniHost host;
  SubmissionQueueEntry bogus;
  bogus.opcode = 0x7f;
  host.push_admin(bogus);
  const auto cqe = host.run_admin();
  EXPECT_FALSE(cqe.status().is_success());
  EXPECT_EQ(cqe.status().code,
            static_cast<std::uint8_t>(nvme::GenericStatus::kInvalidOpcode));
}

// ------------------------------------------------------------ completions

TEST(CompletionFieldsTest, CqeCarriesCidSqIdAndHead) {
  MiniHost host;
  host.create_io_queues(1);
  ByteVec payload(64);
  fill_pattern(payload, 1);
  SubmissionQueueEntry sqe = raw_write_sqe(64);
  sqe.set_inline_length(64);
  sqe.cid = 0;  // push_io overwrites
  host.push_io(sqe, 1, /*ring=*/false);
  host.push_io_slot({nvme::inline_chunk::encode_raw_chunk(payload).raw, 64},
                    1, true);
  host.controller_.run_until_idle();

  const auto cqe = host.pop_io_cqe();
  EXPECT_TRUE(cqe.status().is_success());
  EXPECT_EQ(cqe.sq_id, 1);
  // Head advanced past the command AND its chunk.
  EXPECT_EQ(cqe.sq_head, 2);
}

TEST(CompletionFieldsTest, ExecutorStatusAndDw0Propagate) {
  MiniHost host;
  host.create_io_queues(1);
  ExecResult scripted = ExecResult::error(
      nvme::StatusField::vendor(nvme::VendorStatus::kKvKeyNotFound));
  host.executor_.results.push_back(std::move(scripted));
  host.push_io(raw_write_sqe(0));
  host.controller_.run_until_idle();
  const auto error_cqe = host.pop_io_cqe();
  EXPECT_FALSE(error_cqe.status().is_success());
  EXPECT_EQ(error_cqe.status().type, nvme::StatusCodeType::kVendor);

  host.executor_.results.push_back(ExecResult::success(0xBEEF));
  host.push_io(raw_write_sqe(0));
  host.controller_.run_until_idle();
  const auto ok_cqe = host.pop_io_cqe();
  EXPECT_TRUE(ok_cqe.status().is_success());
  EXPECT_EQ(ok_cqe.dw0, 0xBEEFu);
}

TEST(FetchEngineTest, InlinePayloadReachesExecutorIntact) {
  MiniHost host;
  host.create_io_queues(1);
  ByteVec payload(200);
  fill_pattern(payload, 9);
  SubmissionQueueEntry sqe = raw_write_sqe(200);
  sqe.set_inline_length(200);
  host.push_io(sqe, 1, /*ring=*/false);
  for (std::size_t offset = 0; offset < 200; offset += 64) {
    const std::size_t take = std::min<std::size_t>(64, 200 - offset);
    host.push_io_slot(
        {nvme::inline_chunk::encode_raw_chunk(
             ConstByteSpan(payload).subspan(offset, take))
             .raw,
         64},
        1, offset + take >= 200);
  }
  host.controller_.run_until_idle();
  ASSERT_EQ(host.executor_.calls.size(), 1u);
  EXPECT_EQ(host.executor_.calls[0].payload, payload);
  EXPECT_TRUE(host.pop_io_cqe().status().is_success());
}

TEST(FetchEngineTest, DoorbellPartialTransactionWaits) {
  // Ring the doorbell covering only the command + first chunk of a
  // 2-chunk payload: the controller must NOT consume anything (it cannot
  // complete the transaction) until the rest arrives... our design
  // instead fails fast only if the doorbell can never cover it; with a
  // partial doorbell the available() check fails the command cleanly.
  MiniHost host;
  host.create_io_queues(1);
  ByteVec payload(128);
  fill_pattern(payload, 2);
  SubmissionQueueEntry sqe = raw_write_sqe(128);
  sqe.set_inline_length(128);
  host.push_io(sqe, 1, /*ring=*/true);  // doorbell covers command only
  host.controller_.run_until_idle();
  const auto cqe = host.pop_io_cqe();
  EXPECT_FALSE(cqe.status().is_success());
  EXPECT_EQ(host.executor_.calls.size(), 0u);
}

TEST(ArbitrationTest, RoundRobinAlternatesBetweenQueues) {
  // Two I/O queues, three commands on each; poll_once must alternate.
  Controller::Config config;
  MiniHost host(config);
  host.create_io_queues(1);

  // Second queue pair, separate rings.
  DmaBuffer sq2 = host.memory_.allocate_pages(1);
  DmaBuffer cq2 = host.memory_.allocate_pages(1);
  {
    SubmissionQueueEntry create_cq;
    create_cq.opcode =
        static_cast<std::uint8_t>(nvme::AdminOpcode::kCreateIoCq);
    create_cq.dptr1 = cq2.addr();
    create_cq.cdw10 = ((MiniHost::kDepth - 1) << 16) | 2;
    host.push_admin(create_cq);
    ASSERT_TRUE(host.run_admin().status().is_success());
    SubmissionQueueEntry create_sq;
    create_sq.opcode =
        static_cast<std::uint8_t>(nvme::AdminOpcode::kCreateIoSq);
    create_sq.dptr1 = sq2.addr();
    create_sq.cdw10 = ((MiniHost::kDepth - 1) << 16) | 2;
    create_sq.cdw11 = (2u << 16) | 1;
    host.push_admin(create_sq);
    ASSERT_TRUE(host.run_admin().status().is_success());
  }

  // Distinct aux tags per queue so executor calls reveal the order.
  for (int i = 0; i < 3; ++i) {
    SubmissionQueueEntry q1 = raw_write_sqe(0);
    q1.cdw13 = 1u << 8;
    host.push_io(q1, 1, true);
  }
  for (std::uint32_t i = 0; i < 3; ++i) {
    SubmissionQueueEntry q2 = raw_write_sqe(0);
    q2.cdw13 = 2u << 8;
    q2.cid = static_cast<std::uint16_t>(500 + i);
    host.memory_.write_object(sq2.addr() + std::uint64_t{i} * 64, q2);
    host.bar_.set_sq_tail(2, i + 1);
  }

  host.controller_.run_until_idle();
  ASSERT_EQ(host.executor_.calls.size(), 6u);
  // Strict alternation 1,2,1,2,1,2 (round-robin from the cursor).
  for (std::size_t i = 0; i + 1 < 6; i += 2) {
    const std::uint32_t a = host.executor_.calls[i].sqe.cdw13 >> 8;
    const std::uint32_t b = host.executor_.calls[i + 1].sqe.cdw13 >> 8;
    EXPECT_NE(a, b) << "call " << i;
  }
}

TEST(FetchCostTest, StatsHistogramAccumulates) {
  MiniHost host;
  host.create_io_queues(1);
  for (int i = 0; i < 5; ++i) host.push_io(raw_write_sqe(0));
  host.controller_.run_until_idle();
  EXPECT_EQ(host.controller_.fetch_stage_histogram().count(), 5u);
  EXPECT_GT(host.controller_.fetch_stage_histogram().mean(), 1000.0);
  host.controller_.reset_fetch_stats();
  EXPECT_EQ(host.controller_.fetch_stage_histogram().count(), 0u);
}

TEST(SglErrorTest, WrongDescriptorTypeForWriteFails) {
  MiniHost host;
  host.create_io_queues(1);
  SubmissionQueueEntry sqe = raw_write_sqe(64);
  sqe.set_transfer_mode(nvme::DataTransferMode::kSglData);
  const auto [low, high] = nvme::make_bit_bucket(64).pack();
  sqe.dptr1 = low;
  sqe.dptr2 = high;
  host.push_io(sqe);
  host.controller_.run_until_idle();
  const auto cqe = host.pop_io_cqe();
  EXPECT_FALSE(cqe.status().is_success());
  EXPECT_EQ(
      cqe.status().code,
      static_cast<std::uint8_t>(nvme::GenericStatus::kDataTransferError));
}

TEST(SglErrorTest, ShortDescriptorFails) {
  MiniHost host;
  host.create_io_queues(1);
  DmaBuffer buffer = host.memory_.allocate_pages(1);
  SubmissionQueueEntry sqe = raw_write_sqe(256);
  sqe.set_transfer_mode(nvme::DataTransferMode::kSglData);
  auto descriptor = nvme::build_sgl_data_block(buffer.addr(), 64);  // short
  const auto [low, high] = descriptor->pack();
  sqe.dptr1 = low;
  sqe.dptr2 = high;
  host.push_io(sqe);
  host.controller_.run_until_idle();
  EXPECT_FALSE(host.pop_io_cqe().status().is_success());
}

TEST(PrpErrorTest, NullPrp1Fails) {
  MiniHost host;
  host.create_io_queues(1);
  SubmissionQueueEntry sqe = raw_write_sqe(64);  // PRP mode, dptr1 == 0
  host.push_io(sqe);
  host.controller_.run_until_idle();
  const auto cqe = host.pop_io_cqe();
  EXPECT_FALSE(cqe.status().is_success());
}

TEST(DeferredOooTest, CommandBeforeChunksCompletesAfterChunksArrive) {
  MiniHost host;
  host.create_io_queues(1);
  ByteVec payload(96);
  fill_pattern(payload, 7);

  SubmissionQueueEntry sqe = raw_write_sqe(96);
  sqe.set_inline_length(96);
  nvme::inline_chunk::mark_sqe_ooo(sqe, 42);
  host.push_io(sqe, 1, /*ring=*/true);
  host.controller_.run_until_idle();
  // Command fetched but deferred: no CQE, no executor call.
  EXPECT_FALSE(host.io_cqe_available());
  EXPECT_EQ(host.executor_.calls.size(), 0u);

  // Chunks arrive later.
  const auto chunk0 = nvme::inline_chunk::encode_ooo_chunk(
      42, 0, 2, ConstByteSpan(payload).subspan(0, 48));
  const auto chunk1 = nvme::inline_chunk::encode_ooo_chunk(
      42, 1, 2, ConstByteSpan(payload).subspan(48, 48));
  host.push_io_slot({chunk1.raw, 64}, 1, true);  // reverse order
  host.controller_.run_until_idle();
  EXPECT_FALSE(host.io_cqe_available());
  host.push_io_slot({chunk0.raw, 64}, 1, true);
  host.controller_.run_until_idle();

  ASSERT_EQ(host.executor_.calls.size(), 1u);
  EXPECT_EQ(host.executor_.calls[0].payload, payload);
  EXPECT_TRUE(host.pop_io_cqe().status().is_success());
}

TEST(InterruptCoalescingTest, OneInterruptPerNCompletions) {
  Controller::Config config;
  config.interrupt_coalescing = 4;
  MiniHost host(config);
  host.create_io_queues(1);
  const auto admin_irqs =
      host.traffic_
          .cell(pcie::Direction::kUpstream, pcie::TrafficClass::kInterrupt)
          .tlps;
  for (int i = 0; i < 8; ++i) {
    host.push_io(raw_write_sqe(0));
    host.controller_.run_until_idle();
    EXPECT_TRUE(host.pop_io_cqe().status().is_success());
  }
  const auto irqs =
      host.traffic_
          .cell(pcie::Direction::kUpstream, pcie::TrafficClass::kInterrupt)
          .tlps -
      admin_irqs;
  // 8 completions at a coalescing factor of 4 -> exactly 2 interrupts,
  // while every CQE write-back still happens.
  EXPECT_EQ(irqs, 2u);
  EXPECT_EQ(host.traffic_
                .cell(pcie::Direction::kUpstream,
                      pcie::TrafficClass::kCompletion)
                .tlps,
            2u + 8u);  // 2 admin + 8 I/O
}

TEST(CqWrapTest, PhaseFlipsAcrossManyLaps) {
  MiniHost host;
  host.create_io_queues(1);
  // 3 laps of the 32-deep CQ.
  for (int i = 0; i < 96; ++i) {
    host.push_io(raw_write_sqe(0));
    host.controller_.run_until_idle();
    EXPECT_TRUE(host.pop_io_cqe().status().is_success()) << i;
  }
}

}  // namespace
}  // namespace bx::controller
