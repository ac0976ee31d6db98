// Failure injection across the stack: NAND bad blocks under the KV/block
// paths, protocol violations on the wire (inline length mismatch, orphan
// fragments, corrupt OOO chunks), resource exhaustion behaviour, and the
// seeded end-to-end fault sweeps (injector + driver recovery, see
// docs/FAULTS.md).
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "core/stress.h"
#include "core/testbed.h"
#include "fault/fault.h"
#include "nvme/bandslim_wire.h"
#include "nvme/inline_wire.h"
#include "obs/invariants.h"
#include "test_util.h"
#include "workload/mixgraph.h"

namespace bx {
namespace {

using core::Testbed;
using driver::IoRequest;
using driver::TransferMethod;
using nvme::IoOpcode;

/// Wait/service additivity must survive every recovery path — retries,
/// timeout+Abort scrubs, inline→PRP degradation, even final-error
/// completions: the breakdown reports the final attempt and its segments
/// sum EXACTLY to latency_ns (obs::check_breakdown_invariants).
void expect_breakdown_additive(const driver::Completion& completion) {
  std::vector<obs::BreakdownSample> sample(1);
  sample[0].breakdown = completion.breakdown;
  sample[0].latency_ns = static_cast<std::uint64_t>(completion.latency_ns);
  for (const std::string& violation :
       obs::check_breakdown_invariants(sample)) {
    ADD_FAILURE() << violation;
  }
}

TEST(NandFailureTest, BlockWritesSurviveBadBlocks) {
  auto config = test::small_testbed_config();
  Testbed testbed(config);
  // Poison a handful of blocks the FTL will want to use.
  for (std::uint32_t die = 0; die < 4; ++die) {
    testbed.device().nand().mark_bad_block(die, 0);
  }
  ByteVec data(4096);
  for (int i = 0; i < 40; ++i) {
    fill_pattern(data, i);
    IoRequest write;
    write.opcode = IoOpcode::kWrite;
    write.slba = std::uint64_t(i);
    write.block_count = 1;
    write.write_data = data;
    auto completion = testbed.driver().execute(write, 1);
    ASSERT_TRUE(completion.is_ok() && completion->ok()) << i;
  }
  for (int i = 0; i < 40; ++i) {
    ByteVec read_back(4096);
    IoRequest read;
    read.opcode = IoOpcode::kRead;
    read.slba = std::uint64_t(i);
    read.block_count = 1;
    read.read_buffer = read_back;
    auto completion = testbed.driver().execute(read, 1);
    ASSERT_TRUE(completion.is_ok() && completion->ok()) << i;
    EXPECT_TRUE(verify_pattern(read_back, i)) << i;
  }
  EXPECT_GT(testbed.device().ftl().retired_blocks(), 0u);
}

TEST(NandFailureTest, KvPutsSurviveBadBlocksDuringFlush) {
  auto config = test::small_testbed_config();
  config.ssd.kv.flush_threshold_bytes = 4096;
  Testbed testbed(config);
  testbed.device().nand().mark_bad_block(0, 1);
  testbed.device().nand().mark_bad_block(1, 1);

  auto client = testbed.make_kv_client(TransferMethod::kByteExpress);
  for (int i = 0; i < 200; ++i) {
    ByteVec value(100);
    fill_pattern(value, i);
    ASSERT_TRUE(client.put(workload::make_key(i), value).is_ok()) << i;
  }
  for (int i = 0; i < 200; ++i) {
    auto got = client.get(workload::make_key(i));
    ASSERT_TRUE(got.is_ok()) << i;
    EXPECT_TRUE(verify_pattern(*got, i)) << i;
  }
}

// A command announcing more inline chunks than the doorbell covered is a
// host protocol violation; the controller must fail the command WITHOUT
// consuming entries that belong to later transactions.
TEST(ProtocolViolationTest, InlineLengthBeyondDoorbellRejected) {
  Testbed testbed(test::small_testbed_config());
  nvme::SqRing& sq = testbed.driver().sq_for_test(1);

  // Hand-craft a ByteExpress command claiming 4 chunks but push only the
  // command, then ring — the buggy-host scenario.
  nvme::SubmissionQueueEntry sqe;
  sqe.opcode = static_cast<std::uint8_t>(IoOpcode::kVendorRawWrite);
  sqe.cid = 0x77;
  sqe.set_inline_length(256);
  nvme::VendorFields fields;
  fields.data_length = 256;
  fields.apply(sqe);
  std::uint32_t tail;
  {
    std::lock_guard<std::mutex> lock(sq.lock());
    sq.push_slot({reinterpret_cast<const Byte*>(&sqe), sizeof(sqe)});
    tail = sq.tail();
  }
  pcie::DoorbellWriter doorbell(testbed.bar(), testbed.link());
  doorbell.ring_sq_tail(1, tail);

  const std::uint64_t before = testbed.controller().commands_processed();
  const std::uint64_t chunks_before = testbed.controller().chunks_fetched();
  testbed.controller().run_until_idle();
  // The command was processed (with an error CQE) and NO chunks were
  // consumed — the head advanced exactly one entry.
  EXPECT_EQ(testbed.controller().commands_processed(), before + 1);
  EXPECT_EQ(testbed.controller().chunks_fetched(), chunks_before);

  // Later traffic on the same queue is unaffected.
  ByteVec payload(128);
  fill_pattern(payload, 4);
  auto completion =
      testbed.raw_write(payload, TransferMethod::kByteExpress);
  ASSERT_TRUE(completion.is_ok());
  EXPECT_TRUE(completion->ok());
}

TEST(ProtocolViolationTest, OrphanBandSlimFragmentIsDroppedSafely) {
  Testbed testbed(test::small_testbed_config());
  nvme::SqRing& sq = testbed.driver().sq_for_test(1);

  nvme::bandslim::Fragment fragment;
  fragment.stream_id = 999;  // no such stream
  fragment.index = 0;
  fragment.offset = 0;
  fragment.length = 8;
  fragment.last = false;
  ByteVec data(8, 0xAB);
  const auto frag_sqe = nvme::bandslim::encode_fragment(fragment, 0, data);
  {
    std::lock_guard<std::mutex> lock(sq.lock());
    sq.push_slot({reinterpret_cast<const Byte*>(&frag_sqe),
                  sizeof(frag_sqe)});
  }
  // The next valid command's doorbell covers the orphan entry too; the
  // controller must consume the orphan (no CQE for it) and stay healthy.
  {
    ByteVec payload(32);
    fill_pattern(payload, 2);
    auto completion =
        testbed.raw_write(payload, TransferMethod::kByteExpress);
    ASSERT_TRUE(completion.is_ok());
    EXPECT_TRUE(completion->ok());
  }
  // The device is still fully functional afterwards.
  ByteVec payload(64);
  fill_pattern(payload, 3);
  auto completion = testbed.raw_write(payload, TransferMethod::kPrp);
  ASSERT_TRUE(completion.is_ok());
  EXPECT_TRUE(completion->ok());
}

TEST(ProtocolViolationTest, TruncatedBandSlimStreamErrorsOnLastFragment) {
  // A fragment marked `last` whose accumulated bytes fall short of the
  // declared total must complete the header command with a protocol error.
  Testbed testbed(test::small_testbed_config());
  nvme::SqRing& sq = testbed.driver().sq_for_test(1);

  nvme::SubmissionQueueEntry header;
  header.opcode = static_cast<std::uint8_t>(IoOpcode::kVendorRawWrite);
  header.cid = 0x55;
  nvme::VendorFields fields;
  fields.data_length = 200;  // declares 200 bytes
  fields.apply(header);
  ByteVec head_payload(200);
  fill_pattern(head_payload, 1);
  nvme::bandslim::encode_header(header, /*stream_id=*/7, head_payload);

  nvme::bandslim::Fragment fragment;
  fragment.stream_id = 7;
  fragment.index = 0;
  fragment.offset = 24;
  fragment.length = 48;
  fragment.last = true;  // lies: 24+48 < 200
  const auto frag_sqe = nvme::bandslim::encode_fragment(
      fragment, 0, ConstByteSpan(head_payload).subspan(24, 48));

  {
    std::lock_guard<std::mutex> lock(sq.lock());
    sq.push_slot({reinterpret_cast<const Byte*>(&header), sizeof(header)});
    sq.push_slot({reinterpret_cast<const Byte*>(&frag_sqe),
                  sizeof(frag_sqe)});
  }
  // Let a following valid command's doorbell cover both entries; then the
  // violating header must complete with FragmentProtocolError while the
  // valid command succeeds. We detect it by the device staying healthy and
  // no crash — the CQE for cid 0x55 goes to the driver's "unknown cid"
  // warning path.
  ByteVec payload(32);
  fill_pattern(payload, 9);
  auto completion = testbed.raw_write(payload, TransferMethod::kPrp);
  ASSERT_TRUE(completion.is_ok());
  EXPECT_TRUE(completion->ok());
}

TEST(ResourceTest, InlinePayloadLargerThanQueueFallsBackOrFailsCleanly) {
  // Queue depth 16 -> max 14 inline payload slots; a 4KB inline payload
  // (65 entries) can never fit, so the driver falls back to PRP instead
  // of deadlocking.
  Testbed fallback_bed(test::small_testbed_config(1, 16));
  ByteVec payload(4096);  // 65 entries > 14 usable slots
  fill_pattern(payload, 1);
  fallback_bed.reset_counters();
  auto completion =
      fallback_bed.raw_write(payload, TransferMethod::kByteExpress);
  ASSERT_TRUE(completion.is_ok());
  EXPECT_TRUE(completion->ok());
  EXPECT_EQ(fallback_bed.traffic()
                .cell(pcie::Direction::kDownstream,
                      pcie::TrafficClass::kDataPrp)
                .data_bytes,
            4096u);  // it went PRP
}

TEST(ResourceTest, KvStoreFullReportsVendorStatus) {
  // Shrink the KV LPN range to a handful of pages and fill it.
  auto config = test::small_testbed_config();
  config.ssd.kv_fraction = 0.002;  // ~30 pages of the tiny geometry
  config.ssd.kv.flush_threshold_bytes = 4096;
  Testbed testbed(config);
  auto client = testbed.make_kv_client(TransferMethod::kPrp);
  Status last = Status::ok();
  for (int i = 0; i < 5000 && last.is_ok(); ++i) {
    ByteVec value(1000);
    fill_pattern(value, i);
    last = client.put(workload::make_key(i), value);
  }
  EXPECT_FALSE(last.is_ok());  // eventually the KV range exhausts
}

TEST(CorruptChunkTest, OooCrcFailureDoesNotCompleteCommand) {
  // Build a striped OOO transfer by hand with one corrupted chunk: the
  // command must stay deferred (no completion), and the engine must flag
  // the CRC failure — then a clean retry succeeds.
  Testbed testbed(test::small_testbed_config());
  controller::ReassemblyEngine engine({.slots = 4, .max_chunks = 16});
  ByteVec payload(96);
  fill_pattern(payload, 1);
  auto good0 = nvme::inline_chunk::encode_ooo_chunk(
      1, 0, 2, ConstByteSpan(payload).subspan(0, 48));
  auto bad1 = nvme::inline_chunk::encode_ooo_chunk(
      1, 1, 2, ConstByteSpan(payload).subspan(48, 48));
  bad1.raw[20] ^= 0xff;  // corrupt data under the CRC

  const auto h0 = nvme::inline_chunk::decode_ooo_header(good0);
  ASSERT_TRUE(
      engine.accept(h0, nvme::inline_chunk::ooo_chunk_data(good0, h0))
          .is_ok());
  const auto h1 = nvme::inline_chunk::decode_ooo_header(bad1);
  EXPECT_EQ(engine.accept(h1, nvme::inline_chunk::ooo_chunk_data(bad1, h1))
                .code(),
            StatusCode::kDataLoss);
  EXPECT_FALSE(engine.complete(1));

  // Retransmission of the intact chunk completes the payload.
  auto retry = nvme::inline_chunk::encode_ooo_chunk(
      1, 1, 2, ConstByteSpan(payload).subspan(48, 48));
  const auto h2 = nvme::inline_chunk::decode_ooo_header(retry);
  ASSERT_TRUE(
      engine.accept(h2, nvme::inline_chunk::ooo_chunk_data(retry, h2))
          .is_ok());
  EXPECT_TRUE(engine.complete(1));
  EXPECT_EQ(*engine.take(1, payload.size()), payload);
}

// ---- Seeded end-to-end fault sweeps ------------------------------------

fault::FaultPolicy mixed_fault_policy() {
  fault::FaultPolicy policy;
  policy.chunk_corrupt = 0.06;
  policy.error_completion = 0.03;
  policy.error_retryable = 0.06;
  policy.completion_drop = 0.03;
  policy.completion_delay = 0.03;
  policy.tlp_replay = 0.01;
  return policy;
}

class FaultSweepTest : public ::testing::TestWithParam<TransferMethod> {};

// Every transfer method survives a seeded mixed-fault sweep: every
// injected fault is accounted for (recovered, degraded, or surfaced as a
// final error), nothing hangs or leaks, and the structural traffic
// identities hold under retries and drops.
TEST_P(FaultSweepTest, EveryInjectedFaultAccounted) {
  core::FaultSweepOptions options;
  options.seed = 0xfa017;
  options.method = GetParam();
  options.ops = 48;
  options.faults = mixed_fault_policy();
  const core::FaultSweepResult result = core::run_fault_sweep(options);
  ASSERT_TRUE(result.ok()) << result.failure;
  EXPECT_EQ(result.ops_attempted, options.ops);
  // The policy is aggressive enough that a 48-op sweep always draws
  // faults (checked against the fixed seed).
  EXPECT_GT(result.faults_injected, 0u);
  EXPECT_EQ(result.faults_injected, result.faults_recovered +
                                        result.faults_degraded +
                                        result.faults_failed);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, FaultSweepTest,
    ::testing::Values(TransferMethod::kPrp, TransferMethod::kSgl,
                      TransferMethod::kByteExpress,
                      TransferMethod::kByteExpressOoo,
                      TransferMethod::kBandSlim),
    [](const ::testing::TestParamInfo<TransferMethod>& info) {
      return std::string(driver::transfer_method_name(info.param));
    });

// ---- Batched-path fault sweeps -----------------------------------------
//
// The same sweep driven through execute_batch(): a fault on command k of
// an N-command batch must resolve through the identical retry/degrade/
// fail semantics without poisoning the other N-1 commands, and the
// accounting identity stays exact.

class BatchedFaultSweepTest
    : public ::testing::TestWithParam<TransferMethod> {};

TEST_P(BatchedFaultSweepTest, AccountingExactUnderBatchedSubmission) {
  core::FaultSweepOptions options;
  options.seed = 0xfa017;
  options.method = GetParam();
  options.ops = 48;
  options.batch_depth = 6;  // 8 batches of 6
  options.faults = mixed_fault_policy();
  const core::FaultSweepResult result = core::run_fault_sweep(options);
  ASSERT_TRUE(result.ok()) << result.failure;
  EXPECT_EQ(result.ops_attempted, options.ops);
  EXPECT_GT(result.faults_injected, 0u);
  EXPECT_EQ(result.faults_injected, result.faults_recovered +
                                        result.faults_degraded +
                                        result.faults_failed);
  EXPECT_EQ(result.ops_ok + result.ops_error, result.ops_attempted);
}

INSTANTIATE_TEST_SUITE_P(
    Methods, BatchedFaultSweepTest,
    ::testing::Values(TransferMethod::kPrp, TransferMethod::kSgl,
                      TransferMethod::kByteExpress,
                      TransferMethod::kByteExpressOoo,
                      TransferMethod::kBandSlim),
    [](const ::testing::TestParamInfo<TransferMethod>& info) {
      return std::string(driver::transfer_method_name(info.param));
    });

TEST(BatchedFaultSweepTest, SameSeedSameScheduleAtDepth8) {
  core::FaultSweepOptions options;
  options.seed = 0xdecaf;
  options.method = TransferMethod::kByteExpress;
  options.ops = 32;
  options.batch_depth = 8;
  options.faults = mixed_fault_policy();
  const core::FaultSweepResult a = core::run_fault_sweep(options);
  const core::FaultSweepResult b = core::run_fault_sweep(options);
  ASSERT_TRUE(a.ok()) << a.failure;
  ASSERT_TRUE(b.ok()) << b.failure;
  EXPECT_EQ(a.ops_ok, b.ops_ok);
  EXPECT_EQ(a.ops_error, b.ops_error);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.faults_recovered, b.faults_recovered);
  EXPECT_EQ(a.faults_degraded, b.faults_degraded);
  EXPECT_EQ(a.faults_failed, b.faults_failed);
}

TEST(BatchedFaultSweepTest, DepthSweepKeepsAccountingExact) {
  for (const std::uint32_t depth : {2u, 4u, 8u}) {
    core::FaultSweepOptions options;
    options.seed = 0xfa017 + depth;
    options.method = TransferMethod::kByteExpress;
    options.ops = 32;
    options.batch_depth = depth;
    options.faults = mixed_fault_policy();
    const core::FaultSweepResult result = core::run_fault_sweep(options);
    ASSERT_TRUE(result.ok()) << "depth " << depth << ": " << result.failure;
    EXPECT_EQ(result.faults_injected, result.faults_recovered +
                                          result.faults_degraded +
                                          result.faults_failed)
        << "depth " << depth;
  }
}

TEST(FaultSweepTest, SameSeedSameSchedule) {
  core::FaultSweepOptions options;
  options.seed = 0xdecaf;
  options.method = TransferMethod::kByteExpressOoo;
  options.ops = 32;
  options.faults = mixed_fault_policy();
  const core::FaultSweepResult a = core::run_fault_sweep(options);
  const core::FaultSweepResult b = core::run_fault_sweep(options);
  ASSERT_TRUE(a.ok()) << a.failure;
  ASSERT_TRUE(b.ok()) << b.failure;
  EXPECT_EQ(a.ops_ok, b.ops_ok);
  EXPECT_EQ(a.ops_error, b.ops_error);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
  EXPECT_EQ(a.faults_recovered, b.faults_recovered);
  EXPECT_EQ(a.faults_degraded, b.faults_degraded);
  EXPECT_EQ(a.faults_failed, b.faults_failed);
  EXPECT_EQ(a.tlp_replays, b.tlp_replays);
  EXPECT_EQ(a.timeouts, b.timeouts);
  EXPECT_EQ(a.retries, b.retries);
}

/// A testbed with a fault injector attached but a zeroed policy, so tests
/// can arm() specific faults deterministically.
core::TestbedConfig armed_testbed_config() {
  auto config = test::small_testbed_config();
  config.faults.completion_drop = 1.0;  // forces injector construction
  config.driver.command_timeout_ns = 2'000'000;
  config.driver.poll_idle_advance_ns = 1'000;
  config.driver.retry_backoff_base_ns = 10'000;
  config.controller.deferred_ttl_ns = 500'000;
  config.controller.reassembly.ttl_ns = 500'000;
  return config;
}

// One dropped CQE inside a 6-command batch: the faulted command times
// out, gets aborted and retried (recovered), and the other five commands
// complete untouched — no extra retries, nothing leaked.
TEST(BatchedFaultRecoveryTest, DroppedCqeOnOneCommandSparesTheRest) {
  Testbed bed(armed_testbed_config());
  bed.fault_injector()->set_policy({});
  bed.fault_injector()->arm(fault::FaultKind::kCompletionDrop);

  std::vector<ByteVec> payloads;
  std::vector<IoRequest> requests;
  for (int i = 0; i < 6; ++i) {
    payloads.emplace_back(100 + i * 20, static_cast<Byte>(0x30 + i));
  }
  for (const ByteVec& payload : payloads) {
    IoRequest request;
    request.opcode = IoOpcode::kVendorRawWrite;
    request.method = TransferMethod::kByteExpress;
    request.write_data = {payload.data(), payload.size()};
    requests.push_back(request);
  }
  auto completions = bed.driver().execute_batch(
      {requests.data(), requests.size()}, 1);
  ASSERT_TRUE(completions.is_ok()) << completions.status().message();
  ASSERT_EQ(completions->size(), 6u);
  for (const driver::Completion& completion : *completions) {
    EXPECT_TRUE(completion.ok()) << "the recovered command must succeed too";
    expect_breakdown_additive(completion);
  }
  const auto& metrics = bed.metrics();
  EXPECT_EQ(metrics.counter_value("faults.injected"), 1u);
  EXPECT_EQ(metrics.counter_value("faults.recovered"), 1u);
  EXPECT_EQ(metrics.counter_value("driver.timeouts"), 1u);
  EXPECT_EQ(metrics.counter_value("driver.retries"), 1u)
      << "only the faulted command may retry";
  EXPECT_EQ(bed.driver().pending_count_for_test(1), 0u);
}

// A fatal error on one command of a batch surfaces on exactly that
// command; the other completions stay clean and the fault counts failed.
TEST(BatchedFaultRecoveryTest, FatalErrorPoisonsOnlyItsOwnCommand) {
  Testbed bed(armed_testbed_config());
  bed.fault_injector()->set_policy({});
  bed.fault_injector()->arm(fault::FaultKind::kErrorCompletion);

  std::vector<ByteVec> payloads(5, ByteVec(150, Byte{0x62}));
  std::vector<IoRequest> requests;
  for (const ByteVec& payload : payloads) {
    IoRequest request;
    request.opcode = IoOpcode::kVendorRawWrite;
    request.method = TransferMethod::kByteExpress;
    request.write_data = {payload.data(), payload.size()};
    requests.push_back(request);
  }
  auto completions = bed.driver().execute_batch(
      {requests.data(), requests.size()}, 1);
  ASSERT_TRUE(completions.is_ok()) << completions.status().message();
  int failed = 0;
  for (const driver::Completion& completion : *completions) {
    if (!completion.ok()) ++failed;
    expect_breakdown_additive(completion);  // error completions included
  }
  EXPECT_EQ(failed, 1) << "exactly the armed command fails";
  const auto& metrics = bed.metrics();
  EXPECT_EQ(metrics.counter_value("faults.injected"), 1u);
  EXPECT_EQ(metrics.counter_value("faults.failed"), 1u);
  EXPECT_EQ(metrics.counter_value("driver.retries"), 0u);
  EXPECT_EQ(bed.driver().pending_count_for_test(1), 0u);
}

// Inline→PRP degradation tripping in the MIDDLE of a batch: every
// command of the batch is submitted inline before the first fault is
// observed, the consecutive-failure counter crosses degrade_threshold
// while later batch members are still outstanding, and their retries must
// re-resolve to PRP — the whole batch still completes, every fault is
// classified as degraded, and the degraded submits carry the fallback
// trace flag.
TEST(BatchedFaultRecoveryTest, MidBatchDegradationReroutesRemainderToPrp) {
  auto config = armed_testbed_config();
  config.faults = {};
  config.faults.inline_only = true;
  config.faults.chunk_corrupt = 1.0;  // every inline attempt faults
  config.driver.degrade_threshold = 2;
  config.driver.degrade_reprobe_ns = 10'000'000;
  Testbed bed(config);

  constexpr int kBatch = 6;
  std::vector<ByteVec> payloads;
  std::vector<IoRequest> requests;
  for (int i = 0; i < kBatch; ++i) {
    payloads.emplace_back(200 + i * 16, static_cast<Byte>(0x40 + i));
  }
  for (const ByteVec& payload : payloads) {
    IoRequest request;
    request.opcode = IoOpcode::kVendorRawWrite;
    request.method = TransferMethod::kByteExpress;
    request.write_data = {payload.data(), payload.size()};
    requests.push_back(request);
  }
  auto completions = bed.driver().execute_batch(
      {requests.data(), requests.size()}, 1);
  ASSERT_TRUE(completions.is_ok()) << completions.status().message();
  ASSERT_EQ(completions->size(), static_cast<std::size_t>(kBatch));
  for (const driver::Completion& completion : *completions) {
    EXPECT_TRUE(completion.ok())
        << "every batch member must resolve through the PRP reroute";
    expect_breakdown_additive(completion);  // exact across the degradation
  }

  const auto& metrics = bed.metrics();
  // The queue degraded while the batch was in flight. The whole batch was
  // submitted inline before the first fault was reaped, so commands
  // already in flight keep faulting and may re-trip the threshold — at
  // least one degradation, never more than batch/threshold.
  EXPECT_GE(metrics.counter_value("driver.degradations"), 1u);
  EXPECT_LE(metrics.counter_value("driver.degradations"),
            static_cast<std::uint64_t>(kBatch) / 2u);
  // With inline-only faults at p=1.0 no inline attempt can succeed, so
  // every injected fault resolves via the PRP fallback: the degraded
  // bucket holds ALL of them and nothing recovers inline or fails.
  EXPECT_GT(metrics.counter_value("faults.injected"), 0u);
  EXPECT_EQ(metrics.counter_value("faults.injected"),
            metrics.counter_value("faults.degraded"));
  EXPECT_EQ(metrics.counter_value("faults.recovered"), 0u);
  EXPECT_EQ(metrics.counter_value("faults.failed"), 0u);
  // All six commands landed over PRP in the end (one page each).
  EXPECT_EQ(bed.traffic()
                .cell(pcie::Direction::kDownstream,
                      pcie::TrafficClass::kDataPrp)
                .data_bytes,
            static_cast<std::uint64_t>(kBatch) * 4096u);
  // The rerouted submits are visible in the trace as method fallbacks.
  int fallback_submits = 0;
  for (const auto& event : bed.trace().snapshot()) {
    if (event.stage == obs::TraceStage::kSubmit &&
        (event.flags & obs::kFlagMethodFallback) != 0) {
      ++fallback_submits;
    }
  }
  EXPECT_EQ(fallback_submits, kBatch);
  EXPECT_EQ(bed.driver().pending_count_for_test(1), 0u);

  // Clear the fault and out-wait the re-probe window: the next batch goes
  // inline again (no new PRP bytes).
  bed.fault_injector()->set_policy({});
  bed.clock().advance(20'000'000);
  auto again = bed.driver().execute_batch(
      {requests.data(), requests.size()}, 1);
  ASSERT_TRUE(again.is_ok()) << again.status().message();
  for (const driver::Completion& completion : *again) {
    EXPECT_TRUE(completion.ok());
  }
  EXPECT_EQ(bed.traffic()
                .cell(pcie::Direction::kDownstream,
                      pcie::TrafficClass::kDataPrp)
                .data_bytes,
            static_cast<std::uint64_t>(kBatch) * 4096u)
      << "post-reprobe batch must not add PRP traffic";
}

// A dropped completion must be reaped by the driver's deadline: timeout,
// Abort to scrub the lost CQE, one retry, success — and the fault counts
// as recovered.
TEST(FaultRecoveryTest, DroppedCompletionTimesOutAbortsAndRetries) {
  Testbed bed(armed_testbed_config());
  ASSERT_NE(bed.fault_injector(), nullptr);
  bed.fault_injector()->set_policy({});
  bed.fault_injector()->arm(fault::FaultKind::kCompletionDrop);

  ByteVec payload(256);
  fill_pattern(payload, 5);
  auto completion = bed.raw_write(payload, TransferMethod::kByteExpress);
  ASSERT_TRUE(completion.is_ok());
  EXPECT_TRUE(completion->ok());
  expect_breakdown_additive(*completion);  // timeout + Abort + retry path

  const auto& metrics = bed.metrics();
  EXPECT_EQ(metrics.counter_value("faults.injected"), 1u);
  EXPECT_EQ(metrics.counter_value("faults.injected_drop"), 1u);
  EXPECT_EQ(metrics.counter_value("driver.timeouts"), 1u);
  EXPECT_EQ(metrics.counter_value("driver.aborts_sent"), 1u);
  EXPECT_EQ(metrics.counter_value("driver.retries"), 1u);
  EXPECT_EQ(metrics.counter_value("faults.recovered"), 1u);
  EXPECT_EQ(metrics.counter_value("ctrl.completions_dropped"), 1u);
  EXPECT_EQ(metrics.counter_value("ctrl.commands_aborted"), 1u);
  // The device stays healthy afterwards.
  auto again = bed.raw_write(payload, TransferMethod::kByteExpress);
  ASSERT_TRUE(again.is_ok());
  EXPECT_TRUE(again->ok());
}

// A delayed completion out-waits the driver deadline, so it behaves like
// a drop the Abort scrubs before it can land on a recycled CID.
TEST(FaultRecoveryTest, DelayedCompletionIsScrubbedByAbort) {
  Testbed bed(armed_testbed_config());
  bed.fault_injector()->set_policy({});
  bed.fault_injector()->arm(fault::FaultKind::kCompletionDelay);

  ByteVec payload(128);
  fill_pattern(payload, 6);
  auto completion = bed.raw_write(payload, TransferMethod::kByteExpress);
  ASSERT_TRUE(completion.is_ok());
  EXPECT_TRUE(completion->ok());
  expect_breakdown_additive(*completion);
  const auto& metrics = bed.metrics();
  EXPECT_EQ(metrics.counter_value("faults.injected_delay"), 1u);
  EXPECT_EQ(metrics.counter_value("driver.timeouts"), 1u);
  EXPECT_EQ(metrics.counter_value("faults.recovered"), 1u);
  EXPECT_EQ(metrics.counter_value("ctrl.completions_delayed"), 1u);
}

// A fatal (non-retryable) error completion surfaces to the caller as the
// final device status and counts as a failed fault.
TEST(FaultRecoveryTest, FatalErrorCompletionSurfacesToCaller) {
  Testbed bed(armed_testbed_config());
  bed.fault_injector()->set_policy({});
  bed.fault_injector()->arm(fault::FaultKind::kErrorCompletion);

  ByteVec payload(64);
  fill_pattern(payload, 7);
  auto completion = bed.raw_write(payload, TransferMethod::kByteExpress);
  ASSERT_TRUE(completion.is_ok());
  EXPECT_FALSE(completion->ok());
  expect_breakdown_additive(*completion);  // additive even on final error
  EXPECT_EQ(completion->status.code,
            static_cast<std::uint8_t>(nvme::GenericStatus::kInternalError));
  const auto& metrics = bed.metrics();
  EXPECT_EQ(metrics.counter_value("faults.injected"), 1u);
  EXPECT_EQ(metrics.counter_value("faults.failed"), 1u);
  EXPECT_EQ(metrics.counter_value("driver.retries"), 0u);
}

// N consecutive inline failures degrade the queue to PRP; the degraded
// attempt succeeds (inline_only faults skip PRP), and after the re-probe
// window the queue goes back to inline.
TEST(FaultRecoveryTest, ConsecutiveInlineFailuresDegradeToPrpThenReprobe) {
  auto config = armed_testbed_config();
  config.faults = {};
  config.faults.inline_only = true;
  config.faults.chunk_corrupt = 1.0;  // every inline command faults
  config.driver.degrade_threshold = 2;
  config.driver.degrade_reprobe_ns = 1'000'000;
  Testbed bed(config);

  ByteVec payload(256);
  fill_pattern(payload, 8);
  auto completion = bed.raw_write(payload, TransferMethod::kByteExpress);
  ASSERT_TRUE(completion.is_ok());
  EXPECT_TRUE(completion->ok());
  expect_breakdown_additive(*completion);  // inline→PRP degradation path

  const auto& metrics = bed.metrics();
  EXPECT_EQ(metrics.counter_value("driver.degradations"), 1u);
  EXPECT_EQ(metrics.counter_value("faults.injected"), 2u);
  EXPECT_EQ(metrics.counter_value("faults.degraded"), 2u);
  EXPECT_EQ(metrics.counter_value("faults.recovered"), 0u);
  // The winning attempt went over PRP.
  EXPECT_EQ(bed.traffic()
                .cell(pcie::Direction::kDownstream,
                      pcie::TrafficClass::kDataPrp)
                .data_bytes,
            4096u);
  // The degraded submit is flagged in the trace.
  bool saw_fallback_flag = false;
  for (const auto& event : bed.trace().snapshot()) {
    if (event.stage == obs::TraceStage::kSubmit &&
        (event.flags & obs::kFlagMethodFallback) != 0) {
      saw_fallback_flag = true;
    }
  }
  EXPECT_TRUE(saw_fallback_flag);

  // After the re-probe window (and with the fault cleared) the queue
  // returns to inline: no new PRP bytes.
  bed.fault_injector()->set_policy({});
  bed.clock().advance(2'000'000);
  auto after = bed.raw_write(payload, TransferMethod::kByteExpress);
  ASSERT_TRUE(after.is_ok());
  EXPECT_TRUE(after->ok());
  EXPECT_EQ(bed.traffic()
                .cell(pcie::Direction::kDownstream,
                      pcie::TrafficClass::kDataPrp)
                .data_bytes,
            4096u);
}

// The silent inline->PRP feasibility fallback is observable: counter plus
// a flagged kSubmit trace event.
TEST(FaultRecoveryTest, FeasibilityFallbackEmitsCounterAndTraceFlag) {
  Testbed bed(test::small_testbed_config(1, 16));
  ByteVec payload(4096);  // 65 inline entries can never fit a 16-deep ring
  fill_pattern(payload, 9);
  auto completion = bed.raw_write(payload, TransferMethod::kByteExpress);
  ASSERT_TRUE(completion.is_ok());
  EXPECT_TRUE(completion->ok());
  expect_breakdown_additive(*completion);
  EXPECT_EQ(bed.metrics().counter_value("driver.inline_fallback_prp"), 1u);
  bool saw_fallback_flag = false;
  for (const auto& event : bed.trace().snapshot()) {
    if (event.stage == obs::TraceStage::kSubmit &&
        (event.flags & obs::kFlagMethodFallback) != 0) {
      saw_fallback_flag = true;
    }
  }
  EXPECT_TRUE(saw_fallback_flag);
}

// ---- ByteExpress-R read-path fault sweeps ------------------------------

driver::IoRequest scratch_read(ByteVec& out) {
  driver::IoRequest read;
  read.opcode = IoOpcode::kVendorRawRead;
  read.read_buffer = out;
  read.method = TransferMethod::kPrp;
  return read;
}

// A corrupted inline-read chunk is caught by the HOST-side CRC, surfaces
// as a retryable Data Transfer Error, and the retry recovers byte-exact
// data — the zero-undetected-corruption guarantee, end to end.
TEST(ReadFaultRecoveryTest, CorruptReadChunkCaughtByHostCrcAndRetried) {
  Testbed bed(armed_testbed_config());
  bed.fault_injector()->set_policy({});
  ByteVec payload(200);
  fill_pattern(payload, 21);
  ASSERT_TRUE(bed.raw_write(payload, TransferMethod::kPrp).is_ok());

  bed.fault_injector()->arm(fault::FaultKind::kChunkCorrupt);
  ByteVec out(payload.size());
  auto completion = bed.driver().execute(scratch_read(out), 1);
  ASSERT_TRUE(completion.is_ok());
  EXPECT_TRUE(completion->ok());
  EXPECT_EQ(out, payload);
  expect_breakdown_additive(*completion);  // host-CRC reject + retry

  const auto& metrics = bed.metrics();
  EXPECT_EQ(metrics.counter_value("driver.inline_read.crc_errors"), 1u);
  EXPECT_EQ(metrics.counter_value("driver.retries"), 1u);
  EXPECT_EQ(metrics.counter_value("faults.injected"), 1u);
  EXPECT_EQ(metrics.counter_value("faults.recovered"), 1u);
  EXPECT_EQ(bed.driver().pending_count_for_test(1), 0u);
}

// A dropped read completion leaves chunks stranded in the ring; the
// timeout/abort path must release the reserved slots and the retry must
// deliver exact data.
TEST(ReadFaultRecoveryTest, DroppedReadCompletionTimesOutAndRecovers) {
  Testbed bed(armed_testbed_config());
  bed.fault_injector()->set_policy({});
  ByteVec payload(150);
  fill_pattern(payload, 22);
  ASSERT_TRUE(bed.raw_write(payload, TransferMethod::kPrp).is_ok());

  bed.fault_injector()->arm(fault::FaultKind::kCompletionDrop);
  ByteVec out(payload.size());
  auto completion = bed.driver().execute(scratch_read(out), 1);
  ASSERT_TRUE(completion.is_ok());
  EXPECT_TRUE(completion->ok());
  EXPECT_EQ(out, payload);
  expect_breakdown_additive(*completion);
  const auto& metrics = bed.metrics();
  EXPECT_EQ(metrics.counter_value("driver.timeouts"), 1u);
  EXPECT_EQ(metrics.counter_value("faults.recovered"), 1u);
  EXPECT_EQ(bed.driver().pending_count_for_test(1), 0u);
}

TEST(ReadFaultRecoveryTest, DelayedReadCompletionIsScrubbedByAbort) {
  Testbed bed(armed_testbed_config());
  bed.fault_injector()->set_policy({});
  ByteVec payload(100);
  fill_pattern(payload, 23);
  ASSERT_TRUE(bed.raw_write(payload, TransferMethod::kPrp).is_ok());

  bed.fault_injector()->arm(fault::FaultKind::kCompletionDelay);
  ByteVec out(payload.size());
  auto completion = bed.driver().execute(scratch_read(out), 1);
  ASSERT_TRUE(completion.is_ok());
  EXPECT_TRUE(completion->ok());
  EXPECT_EQ(out, payload);
  expect_breakdown_additive(*completion);
  const auto& metrics = bed.metrics();
  EXPECT_EQ(metrics.counter_value("faults.injected_delay"), 1u);
  EXPECT_EQ(metrics.counter_value("driver.timeouts"), 1u);
  EXPECT_EQ(metrics.counter_value("faults.recovered"), 1u);
}

// N consecutive inline-read failures degrade the queue's READ path to
// PRP (the write path keeps its own independent counter); after the
// re-probe window reads return to the ring.
TEST(ReadFaultRecoveryTest, ConsecutiveReadFailuresDegradeToPrpThenReprobe) {
  auto config = armed_testbed_config();
  config.faults = {};
  config.faults.inline_only = true;
  config.faults.chunk_corrupt = 1.0;  // every ring-path command faults
  config.driver.degrade_threshold = 2;
  config.driver.degrade_reprobe_ns = 1'000'000;
  Testbed bed(config);

  ByteVec payload(200);
  fill_pattern(payload, 24);
  ASSERT_TRUE(bed.raw_write(payload, TransferMethod::kPrp).is_ok());

  ByteVec out(payload.size());
  auto completion = bed.driver().execute(scratch_read(out), 1);
  ASSERT_TRUE(completion.is_ok());
  EXPECT_TRUE(completion->ok());
  EXPECT_EQ(out, payload);
  expect_breakdown_additive(*completion);  // read-path degradation

  const auto& metrics = bed.metrics();
  EXPECT_EQ(metrics.counter_value("driver.inline_read.degradations"), 1u);
  EXPECT_EQ(metrics.counter_value("faults.injected"), 2u);
  EXPECT_EQ(metrics.counter_value("faults.degraded"), 2u);
  EXPECT_EQ(metrics.counter_value("faults.recovered"), 0u);
  EXPECT_EQ(metrics.counter_value("faults.failed"), 0u);
  // The winning attempt ran over PRP.
  EXPECT_GT(bed.traffic()
                .cell(pcie::Direction::kUpstream, pcie::TrafficClass::kDataPrp)
                .data_bytes,
            0u);

  // Past the re-probe window with the fault cleared, reads go inline
  // again.
  bed.fault_injector()->set_policy({});
  bed.clock().advance(2'000'000);
  const std::uint64_t inline_before =
      metrics.counter_value("driver.inline_read.completions");
  ByteVec again(payload.size());
  auto after = bed.driver().execute(scratch_read(again), 1);
  ASSERT_TRUE(after.is_ok() && after->ok());
  EXPECT_EQ(again, payload);
  EXPECT_EQ(metrics.counter_value("driver.inline_read.completions"),
            inline_before + 1);
}

// Seeded mixed-fault sweep over the read path: every injected fault is
// classified (recovered + degraded + failed), and NO completion that
// reports success ever carries corrupted bytes — the CRC catches every
// injected chunk corruption.
TEST(ReadFaultRecoveryTest, SeededReadSweepAccountsEveryFault) {
  auto config = armed_testbed_config();
  config.faults = {};
  config.faults.chunk_corrupt = 0.08;
  config.faults.error_retryable = 0.05;
  config.faults.error_completion = 0.02;
  config.faults.completion_drop = 0.03;
  config.faults.completion_delay = 0.03;
  config.fault_seed = 0xbead5;
  Testbed bed(config);

  ByteVec payload(300);
  fill_pattern(payload, 25);
  {
    // Seeded policies also hit the setup write; retry until it lands.
    bool wrote = false;
    for (int i = 0; i < 10 && !wrote; ++i) {
      auto completion = bed.raw_write(payload, TransferMethod::kPrp);
      wrote = completion.is_ok() && completion->ok();
    }
    ASSERT_TRUE(wrote);
  }

  int ok_ops = 0, error_ops = 0;
  for (int i = 0; i < 60; ++i) {
    ByteVec out(payload.size(), Byte{0});
    auto completion = bed.driver().execute(scratch_read(out), 1);
    ASSERT_TRUE(completion.is_ok()) << i;
    if (completion->ok()) {
      ++ok_ops;
      EXPECT_EQ(out, payload) << "undetected corruption at op " << i;
    } else {
      ++error_ops;
    }
  }
  EXPECT_EQ(ok_ops + error_ops, 60);

  const auto& metrics = bed.metrics();
  EXPECT_GT(metrics.counter_value("faults.injected"), 0u);
  EXPECT_EQ(metrics.counter_value("faults.injected"),
            metrics.counter_value("faults.recovered") +
                metrics.counter_value("faults.degraded") +
                metrics.counter_value("faults.failed"));
  EXPECT_EQ(bed.driver().pending_count_for_test(1), 0u);
}

// ---- Reassembly hardening ----------------------------------------------

TEST(ReassemblyHardeningTest, ExpiredSlotsAreEvictedAndReusable) {
  controller::ReassemblyEngine engine(
      {.slots = 1, .max_chunks = 8, .ttl_ns = 1'000});
  ByteVec chunk_data(32);
  fill_pattern(chunk_data, 1);
  auto chunk = nvme::inline_chunk::encode_ooo_chunk(7, 0, 2, chunk_data);
  const auto header = nvme::inline_chunk::decode_ooo_header(chunk);
  ASSERT_TRUE(engine
                  .accept(header,
                          nvme::inline_chunk::ooo_chunk_data(chunk, header),
                          /*now=*/100)
                  .is_ok());

  // Within the TTL nothing is evicted.
  EXPECT_TRUE(engine.evict_expired(1'000).empty());
  // Past the TTL the stale slot is reclaimed and reported.
  const auto evicted = engine.evict_expired(5'000);
  ASSERT_EQ(evicted.size(), 1u);
  EXPECT_EQ(evicted[0], 7u);

  // The slot is reusable: a fresh payload reassembles fine.
  ByteVec payload(40);
  fill_pattern(payload, 2);
  auto fresh = nvme::inline_chunk::encode_ooo_chunk(8, 0, 1, payload);
  const auto fresh_header = nvme::inline_chunk::decode_ooo_header(fresh);
  ASSERT_TRUE(
      engine
          .accept(fresh_header,
                  nvme::inline_chunk::ooo_chunk_data(fresh, fresh_header),
                  /*now=*/6'000)
          .is_ok());
  EXPECT_TRUE(engine.complete(8));
  EXPECT_EQ(*engine.take(8, payload.size()), payload);
}

// Regression: a chunk announcing zero or too many total chunks must be
// rejected before any bitmap state is touched.
TEST(ReassemblyHardeningTest, BadChunkTotalRejectedBeforeBitmap) {
  controller::ReassemblyEngine engine({.slots = 2, .max_chunks = 4});
  ByteVec data(16);
  fill_pattern(data, 3);

  auto zero_total = nvme::inline_chunk::encode_ooo_chunk(1, 0, 1, data);
  auto header = nvme::inline_chunk::decode_ooo_header(zero_total);
  header.total_chunks = 0;
  EXPECT_EQ(engine
                .accept(header,
                        nvme::inline_chunk::ooo_chunk_data(zero_total, header))
                .code(),
            StatusCode::kInvalidArgument);

  header.total_chunks = 5;  // > max_chunks
  header.chunk_no = 0;
  EXPECT_EQ(engine
                .accept(header,
                        nvme::inline_chunk::ooo_chunk_data(zero_total, header))
                .code(),
            StatusCode::kInvalidArgument);

  // No slot was consumed by either rejection.
  ByteVec payload(32);
  fill_pattern(payload, 4);
  auto good = nvme::inline_chunk::encode_ooo_chunk(2, 0, 1, payload);
  const auto good_header = nvme::inline_chunk::decode_ooo_header(good);
  ASSERT_TRUE(engine
                  .accept(good_header,
                          nvme::inline_chunk::ooo_chunk_data(good, good_header))
                  .is_ok());
  EXPECT_TRUE(engine.complete(2));
}

}  // namespace
}  // namespace bx
