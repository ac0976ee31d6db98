// The paper's core subject: every transfer method moves payloads
// byte-exactly, with the traffic signature the paper describes — PRP moves
// whole pages, ByteExpress moves the command plus ceil(len/64) inline SQ
// entries with a single doorbell, BandSlim issues a serialized command
// sequence, SGL moves exactly the payload, hybrid switches at the
// threshold, and the OOO variant reassembles striped chunks.
#include <gtest/gtest.h>

#include "core/testbed.h"
#include "test_util.h"

namespace bx {
namespace {

using core::Testbed;
using driver::IoRequest;
using driver::TransferMethod;
using nvme::IoOpcode;
using pcie::Direction;
using pcie::TrafficClass;

ByteVec read_scratch(Testbed& testbed, std::size_t size) {
  ByteVec out(size);
  IoRequest read;
  read.opcode = IoOpcode::kVendorRawRead;
  read.read_buffer = out;
  auto completion = testbed.driver().execute(read, 1);
  EXPECT_TRUE(completion.is_ok() && completion->ok());
  EXPECT_EQ(completion->bytes_returned, size);
  return out;
}

// ---- data integrity across methods and sizes (parameterized) ----

struct MethodSize {
  TransferMethod method;
  std::uint32_t size;
};

class TransferIntegrity : public ::testing::TestWithParam<MethodSize> {};

TEST_P(TransferIntegrity, PayloadArrivesByteExact) {
  Testbed testbed(test::small_testbed_config());
  const auto [method, size] = GetParam();
  ByteVec payload(size);
  fill_pattern(payload, size * 31 + 7);
  auto completion = testbed.raw_write(payload, method);
  ASSERT_TRUE(completion.is_ok()) << completion.status().to_string();
  ASSERT_TRUE(completion->ok());
  EXPECT_EQ(read_scratch(testbed, size), payload);
}

std::vector<MethodSize> integrity_cases() {
  std::vector<MethodSize> cases;
  for (const TransferMethod method :
       {TransferMethod::kPrp, TransferMethod::kSgl,
        TransferMethod::kByteExpress, TransferMethod::kByteExpressOoo,
        TransferMethod::kBandSlim, TransferMethod::kHybrid}) {
    for (const std::uint32_t size :
         {1u, 17u, 24u, 25u, 32u, 48u, 63u, 64u, 65u, 100u, 128u, 256u,
          1000u, 4096u}) {
      cases.push_back({method, size});
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllMethodsAllSizes, TransferIntegrity,
    ::testing::ValuesIn(integrity_cases()),
    [](const ::testing::TestParamInfo<MethodSize>& info) {
      return std::string(driver::transfer_method_name(info.param.method)) +
             "_" + std::to_string(info.param.size);
    });

// ---- ByteExpress wire signature ----

class ByteExpressSignature : public ::testing::TestWithParam<std::uint32_t> {
};

TEST_P(ByteExpressSignature, FetchesCommandPlusCeilChunks) {
  Testbed testbed(test::small_testbed_config());
  const std::uint32_t size = GetParam();
  ByteVec payload(size);
  fill_pattern(payload, 1);
  testbed.reset_counters();
  const std::uint64_t chunks_before = testbed.controller().chunks_fetched();
  ASSERT_TRUE(
      testbed.raw_write(payload, TransferMethod::kByteExpress).is_ok());

  const std::uint32_t expected_chunks = (size + 63) / 64;
  EXPECT_EQ(testbed.controller().chunks_fetched() - chunks_before,
            expected_chunks);

  const auto fetch =
      testbed.traffic().cell(Direction::kDownstream,
                             TrafficClass::kCommandFetch);
  EXPECT_EQ(fetch.tlps, 1u + expected_chunks);
  EXPECT_EQ(fetch.data_bytes, 64u * (1 + expected_chunks));

  // No PRP page DMA at all — the payload rode the SQ (§3.3).
  EXPECT_EQ(testbed.traffic()
                .cell(Direction::kDownstream, TrafficClass::kDataPrp)
                .data_bytes,
            0u);

  // Exactly one SQ doorbell and one CQ doorbell ring.
  const auto doorbell = testbed.traffic().cell(Direction::kDownstream,
                                               TrafficClass::kDoorbell);
  EXPECT_EQ(doorbell.tlps, 2u);
}

INSTANTIATE_TEST_SUITE_P(Sizes, ByteExpressSignature,
                         ::testing::Values(1, 64, 65, 128, 200, 256, 1024,
                                           4096));

TEST(ByteExpressTest, TrafficFarBelowPrpForSmallPayloads) {
  Testbed testbed(test::small_testbed_config());
  ByteVec payload(64);
  fill_pattern(payload, 1);

  testbed.reset_counters();
  ASSERT_TRUE(testbed.raw_write(payload, TransferMethod::kPrp).is_ok());
  const std::uint64_t prp_wire = testbed.traffic().total_wire_bytes();

  testbed.reset_counters();
  ASSERT_TRUE(
      testbed.raw_write(payload, TransferMethod::kByteExpress).is_ok());
  const std::uint64_t bx_wire = testbed.traffic().total_wire_bytes();

  // §4.2 reports ~96% reduction at 64 B; our model must land >85%.
  EXPECT_LT(double(bx_wire), 0.15 * double(prp_wire));
}

TEST(ByteExpressTest, ReadDirectionFallsBackToPrp) {
  // Inline read completions are a separate mechanism (ByteExpress-R);
  // with them disabled, the write-direction inline method must silently
  // fall back to PRP for reads.
  auto config = test::small_testbed_config();
  config.driver.inline_read_enabled = false;
  Testbed testbed(config);
  ByteVec payload(100);
  fill_pattern(payload, 2);
  ASSERT_TRUE(
      testbed.raw_write(payload, TransferMethod::kByteExpress).is_ok());

  ByteVec out(100);
  IoRequest read;
  read.opcode = IoOpcode::kVendorRawRead;
  read.read_buffer = out;
  read.method = TransferMethod::kByteExpress;  // must silently use PRP
  testbed.reset_counters();
  auto completion = testbed.driver().execute(read, 1);
  ASSERT_TRUE(completion.is_ok() && completion->ok());
  EXPECT_TRUE(verify_pattern(out, 2));
  EXPECT_GT(testbed.traffic()
                .cell(Direction::kUpstream, TrafficClass::kDataPrp)
                .data_bytes,
            0u);
}

TEST(ByteExpressTest, SmallReadUsesInlineCompletionRing) {
  // With ByteExpress-R enabled (the default), a small read rides the
  // host completion ring: data returns as inline MWr chunks, not PRP.
  Testbed testbed(test::small_testbed_config());
  ByteVec payload(100);
  fill_pattern(payload, 2);
  ASSERT_TRUE(
      testbed.raw_write(payload, TransferMethod::kByteExpress).is_ok());

  ByteVec out(100);
  IoRequest read;
  read.opcode = IoOpcode::kVendorRawRead;
  read.read_buffer = out;
  read.method = TransferMethod::kByteExpress;
  testbed.reset_counters();
  auto completion = testbed.driver().execute(read, 1);
  ASSERT_TRUE(completion.is_ok() && completion->ok());
  EXPECT_TRUE(verify_pattern(out, 2));
  EXPECT_EQ(testbed.traffic()
                .cell(Direction::kUpstream, TrafficClass::kDataPrp)
                .data_bytes,
            0u);
  EXPECT_GT(testbed.traffic()
                .cell(Direction::kUpstream, TrafficClass::kDataInlineRead)
                .tlps,
            0u);
}

TEST(ByteExpressTest, OversizedPayloadFallsBackToPrp) {
  auto config = test::small_testbed_config();
  config.driver.max_inline_bytes = 512;
  Testbed testbed(config);
  ByteVec payload(2048);
  fill_pattern(payload, 3);
  testbed.reset_counters();
  ASSERT_TRUE(
      testbed.raw_write(payload, TransferMethod::kByteExpress).is_ok());
  EXPECT_EQ(testbed.traffic()
                .cell(Direction::kDownstream, TrafficClass::kDataPrp)
                .data_bytes,
            4096u);
  EXPECT_EQ(read_scratch(testbed, payload.size()), payload);
}

TEST(ByteExpressTest, WorksOnShallowQueueViaCompletionRecycling) {
  // 4 KB inline = 65 entries; depth 128 forces tight ring management.
  Testbed testbed(test::small_testbed_config(1, 128));
  ByteVec payload(4096);
  fill_pattern(payload, 5);
  for (int i = 0; i < 10; ++i) {
    auto completion =
        testbed.raw_write(payload, TransferMethod::kByteExpress);
    ASSERT_TRUE(completion.is_ok()) << i;
    ASSERT_TRUE(completion->ok()) << i;
  }
}

// ---- PRP wire signature ----

TEST(PrpTest, PageGranularAmplification) {
  Testbed testbed(test::small_testbed_config());
  for (const std::uint32_t size : {32u, 100u, 1000u, 4000u}) {
    ByteVec payload(size);
    fill_pattern(payload, size);
    testbed.reset_counters();
    ASSERT_TRUE(testbed.raw_write(payload, TransferMethod::kPrp).is_ok());
    EXPECT_EQ(testbed.traffic()
                  .cell(Direction::kDownstream, TrafficClass::kDataPrp)
                  .data_bytes,
              4096u)
        << size;
  }
  // Crossing the page boundary doubles the transfer.
  ByteVec payload(4097);
  fill_pattern(payload, 1);
  testbed.reset_counters();
  ASSERT_TRUE(testbed.raw_write(payload, TransferMethod::kPrp).is_ok());
  EXPECT_EQ(testbed.traffic()
                .cell(Direction::kDownstream, TrafficClass::kDataPrp)
                .data_bytes,
            8192u);
}

// ---- SGL wire signature ----

TEST(SglTransferTest, MovesExactlyThePayload) {
  Testbed testbed(test::small_testbed_config());
  for (const std::uint32_t size : {32u, 100u, 1000u}) {
    ByteVec payload(size);
    fill_pattern(payload, size);
    testbed.reset_counters();
    ASSERT_TRUE(testbed.raw_write(payload, TransferMethod::kSgl).is_ok());
    EXPECT_EQ(testbed.traffic()
                  .cell(Direction::kDownstream, TrafficClass::kDataSgl)
                  .data_bytes,
              size)
        << size;
    EXPECT_EQ(testbed.traffic()
                  .cell(Direction::kDownstream, TrafficClass::kDataPrp)
                  .data_bytes,
              0u);
  }
}

TEST(SglTransferTest, BitBucketReadReturnsNoData) {
  // §5: bit-bucket descriptors let a read complete without data return.
  Testbed testbed(test::small_testbed_config());
  ByteVec payload(300);
  fill_pattern(payload, 1);
  ASSERT_TRUE(testbed.raw_write(payload, TransferMethod::kPrp).is_ok());

  IoRequest probe;
  probe.opcode = IoOpcode::kVendorRawRead;
  probe.method = TransferMethod::kSgl;
  probe.discard_read_data = true;
  testbed.reset_counters();
  auto completion = testbed.driver().execute(probe, 1);
  ASSERT_TRUE(completion.is_ok());
  ASSERT_TRUE(completion->ok());
  EXPECT_EQ(completion->dw0, 300u);        // size still reported
  EXPECT_EQ(completion->bytes_returned, 0u);
  // No data crossed the link in either direction.
  EXPECT_EQ(testbed.traffic()
                .cell(Direction::kUpstream, TrafficClass::kDataSgl)
                .data_bytes,
            0u);
  EXPECT_EQ(testbed.traffic()
                .cell(Direction::kUpstream, TrafficClass::kDataPrp)
                .data_bytes,
            0u);
}

// ---- BandSlim wire signature ----

TEST(BandSlimTest, SmallPayloadRidesTheHeaderCommand) {
  Testbed testbed(test::small_testbed_config());
  ByteVec payload(20);  // <= 24 B first-command capacity
  fill_pattern(payload, 1);
  testbed.reset_counters();
  ASSERT_TRUE(testbed.raw_write(payload, TransferMethod::kBandSlim).is_ok());
  const auto fetch = testbed.traffic().cell(Direction::kDownstream,
                                            TrafficClass::kCommandFetch);
  EXPECT_EQ(fetch.tlps, 1u);  // single CMD, like the paper's sub-32B case
  EXPECT_EQ(read_scratch(testbed, payload.size()), payload);
}

TEST(BandSlimTest, FragmentCountMatchesCapacityMath) {
  Testbed testbed(test::small_testbed_config());
  const std::uint32_t size = 24 + 3 * 48;  // header + exactly 3 fragments
  ByteVec payload(size);
  fill_pattern(payload, 2);
  testbed.reset_counters();
  ASSERT_TRUE(testbed.raw_write(payload, TransferMethod::kBandSlim).is_ok());
  const auto fetch = testbed.traffic().cell(Direction::kDownstream,
                                            TrafficClass::kCommandFetch);
  EXPECT_EQ(fetch.tlps, 4u);  // header + 3 fragments
  // One doorbell per command (plus one CQ doorbell at completion).
  const auto doorbell = testbed.traffic().cell(Direction::kDownstream,
                                               TrafficClass::kDoorbell);
  EXPECT_EQ(doorbell.tlps, 4u + 1u);
  // Only ONE completion for the whole sequence.
  const auto cqe =
      testbed.traffic().cell(Direction::kUpstream, TrafficClass::kCompletion);
  EXPECT_EQ(cqe.tlps, 1u);
}

TEST(BandSlimTest, TrafficBeatsByteExpressOnlyBelow32Bytes) {
  Testbed testbed(test::small_testbed_config());
  auto wire_for = [&](TransferMethod method, std::uint32_t size) {
    ByteVec payload(size);
    fill_pattern(payload, size);
    testbed.reset_counters();
    EXPECT_TRUE(testbed.raw_write(payload, method).is_ok());
    return testbed.traffic().total_wire_bytes();
  };
  // Paper §4.3: for sub-32B values BandSlim's single CMD wins on traffic...
  EXPECT_LT(wire_for(TransferMethod::kBandSlim, 20),
            wire_for(TransferMethod::kByteExpress, 20));
  // ...but ByteExpress wins from 64B through 4KB (Figure 5).
  for (const std::uint32_t size : {64u, 128u, 1024u, 4096u}) {
    EXPECT_LT(wire_for(TransferMethod::kByteExpress, size),
              wire_for(TransferMethod::kBandSlim, size))
        << size;
  }
}

// ---- hybrid threshold switching (§4.2) ----

TEST(HybridTest, SwitchesAtThreshold) {
  auto config = test::small_testbed_config();
  config.driver.hybrid_threshold_bytes = 256;
  Testbed testbed(config);

  ByteVec small(256);
  fill_pattern(small, 1);
  testbed.reset_counters();
  ASSERT_TRUE(testbed.raw_write(small, TransferMethod::kHybrid).is_ok());
  EXPECT_EQ(testbed.traffic()
                .cell(Direction::kDownstream, TrafficClass::kDataPrp)
                .data_bytes,
            0u);  // went inline

  ByteVec large(257);
  fill_pattern(large, 2);
  testbed.reset_counters();
  ASSERT_TRUE(testbed.raw_write(large, TransferMethod::kHybrid).is_ok());
  EXPECT_EQ(testbed.traffic()
                .cell(Direction::kDownstream, TrafficClass::kDataPrp)
                .data_bytes,
            4096u);  // went PRP
}

// ---- OOO striped variant (§3.3.2 extension) ----

TEST(OooStripedTest, ChunksAcrossQueuesReassemble) {
  Testbed testbed(test::small_testbed_config(/*io_queues=*/3));
  ByteVec payload(1000);
  fill_pattern(payload, 9);
  IoRequest request;
  request.opcode = IoOpcode::kVendorRawWrite;
  request.write_data = payload;
  auto completion =
      testbed.driver().execute_ooo_striped(request, {1, 2, 3});
  ASSERT_TRUE(completion.is_ok()) << completion.status().to_string();
  ASSERT_TRUE(completion->ok());
  EXPECT_EQ(read_scratch(testbed, payload.size()), payload);
}

TEST(OooStripedTest, SingleQueueStripingAlsoWorks) {
  Testbed testbed(test::small_testbed_config());
  ByteVec payload(300);
  fill_pattern(payload, 10);
  IoRequest request;
  request.opcode = IoOpcode::kVendorRawWrite;
  request.write_data = payload;
  auto completion = testbed.driver().execute_ooo_striped(request, {1});
  ASSERT_TRUE(completion.is_ok());
  ASSERT_TRUE(completion->ok());
  EXPECT_EQ(read_scratch(testbed, payload.size()), payload);
}

TEST(OooStripedTest, ValidatesArguments) {
  Testbed testbed(test::small_testbed_config());
  IoRequest request;
  request.opcode = IoOpcode::kVendorRawWrite;
  ByteVec payload(100);
  request.write_data = payload;
  EXPECT_FALSE(testbed.driver().execute_ooo_striped(request, {}).is_ok());
  EXPECT_FALSE(testbed.driver().execute_ooo_striped(request, {7}).is_ok());
  IoRequest read;
  read.opcode = IoOpcode::kVendorRawRead;
  EXPECT_FALSE(testbed.driver().execute_ooo_striped(read, {1}).is_ok());
}

TEST(OooStripedTest, ControllerCanDisableReassembly) {
  auto config = test::small_testbed_config();
  config.controller.enable_ooo_reassembly = false;
  Testbed testbed(config);
  ByteVec payload(100);
  fill_pattern(payload, 11);
  auto completion =
      testbed.raw_write(payload, TransferMethod::kByteExpressOoo);
  ASSERT_TRUE(completion.is_ok());
  EXPECT_FALSE(completion->ok());
}

// ---- batched chunk fetch (ablation knob) ----

TEST(ChunkBatchTest, BatchedFetchPreservesDataAndReducesTlps) {
  ByteVec payload(512);  // 8 chunks
  fill_pattern(payload, 12);

  Testbed unbatched(test::small_testbed_config());
  unbatched.reset_counters();
  ASSERT_TRUE(
      unbatched.raw_write(payload, TransferMethod::kByteExpress).is_ok());
  const auto unbatched_fetch = unbatched.traffic().cell(
      Direction::kDownstream, TrafficClass::kCommandFetch);

  for (const std::uint32_t batch : {2u, 4u}) {
    auto config = test::small_testbed_config();
    config.controller.chunk_fetch_batch = batch;
    Testbed batched(config);
    batched.reset_counters();
    ASSERT_TRUE(
        batched.raw_write(payload, TransferMethod::kByteExpress).is_ok());
    const auto batched_fetch = batched.traffic().cell(
        Direction::kDownstream, TrafficClass::kCommandFetch);
    const auto fetch_requests = batched.traffic().cell(
        Direction::kUpstream, TrafficClass::kCommandFetch);
    EXPECT_EQ(read_scratch(batched, payload.size()), payload);
    EXPECT_LT(batched_fetch.tlps, unbatched_fetch.tlps) << "batch " << batch;
    EXPECT_EQ(batched_fetch.data_bytes, unbatched_fetch.data_bytes);
    // One DMA read per batch: one MRd for the SQE plus one per batch of
    // chunks, ceil(8 / batch).
    EXPECT_EQ(fetch_requests.tlps, 1 + (8 + batch - 1) / batch)
        << "batch " << batch;
  }
}

}  // namespace
}  // namespace bx
