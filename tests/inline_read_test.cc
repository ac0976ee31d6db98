// ByteExpress-R inline read completions: wire-format round-trips, the
// driver-side ReadReassembler (CRC + framing), completion-ring wraparound,
// ring-full fallback to PRP, detection of a CQE that lands before its last
// chunk, and exact per-TLP traffic conservation for inline reads across
// the fig5 payload sweep.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "controller/reassembly.h"
#include "core/testbed.h"
#include "driver/nvme_driver.h"
#include "driver/request.h"
#include "nvme/inline_read_wire.h"
#include "test_util.h"

namespace bx {
namespace {

namespace inr = nvme::inline_read;

using core::Testbed;
using driver::IoRequest;
using driver::TransferMethod;
using nvme::IoOpcode;
using pcie::Direction;
using pcie::TrafficCell;
using pcie::TrafficClass;

// Deterministic link-model constants, same as traffic_conservation_test.
constexpr std::uint64_t kMwrOverhead = 32;
constexpr std::uint64_t kMrdWire = 32;
constexpr std::uint64_t kCplOverhead = 28;

ByteVec patterned(std::size_t len, int seed) {
  ByteVec data(len);
  fill_pattern(data, seed);
  return data;
}

IoRequest make_read(ByteVec& out) {
  IoRequest read;
  read.opcode = IoOpcode::kVendorRawRead;
  read.read_buffer = out;
  read.method = TransferMethod::kPrp;
  return read;
}

// ---- wire format units -------------------------------------------------

TEST(InlineReadWireTest, ChunkCrcRoundTripAllSizes) {
  for (const std::size_t len : {1u, 47u, 48u, 49u, 100u, 1000u, 4096u}) {
    const ByteVec payload = patterned(len, static_cast<int>(len));
    const std::uint16_t total =
        static_cast<std::uint16_t>(inr::read_chunks_for(len));
    controller::ReadReassembler reassembler(/*qid=*/3, /*cid=*/42, len);
    for (std::uint16_t chunk = 0; chunk < total; ++chunk) {
      const std::size_t offset = std::size_t{chunk} * inr::kReadChunkCapacity;
      const std::size_t take =
          std::min<std::size_t>(inr::kReadChunkCapacity, len - offset);
      const nvme::SqSlot slot = inr::encode_read_chunk(
          3, 42, chunk, total, ConstByteSpan(payload).subspan(offset, take));
      ASSERT_TRUE(inr::is_read_chunk(slot));
      const inr::ReadChunkHeader header = inr::decode_read_header(slot);
      EXPECT_EQ(header.qid, 3u);
      EXPECT_EQ(header.cid, 42u);
      EXPECT_EQ(header.total_chunks, total);
      EXPECT_EQ(header.data_len, take);
      ASSERT_TRUE(reassembler.accept(slot).is_ok()) << "chunk " << chunk;
    }
    ASSERT_TRUE(reassembler.complete());
    auto taken = reassembler.take();
    ASSERT_TRUE(taken.is_ok());
    EXPECT_EQ(*taken, payload) << "len " << len;
  }
}

TEST(InlineReadWireTest, CorruptedChunkIsCaughtByCrc) {
  const ByteVec payload = patterned(96, 7);
  controller::ReadReassembler reassembler(1, 9, payload.size());
  nvme::SqSlot good = inr::encode_read_chunk(
      1, 9, 0, 2, ConstByteSpan(payload).subspan(0, 48));
  ASSERT_TRUE(reassembler.accept(good).is_ok());
  nvme::SqSlot bad = inr::encode_read_chunk(
      1, 9, 1, 2, ConstByteSpan(payload).subspan(48, 48));
  bad.raw[20] ^= Byte{0xff};  // flip a data byte under the CRC
  EXPECT_EQ(reassembler.accept(bad).code(), StatusCode::kDataLoss);
  EXPECT_FALSE(reassembler.complete());
  // An intact retransmission of the same chunk completes the payload.
  nvme::SqSlot retry = inr::encode_read_chunk(
      1, 9, 1, 2, ConstByteSpan(payload).subspan(48, 48));
  ASSERT_TRUE(reassembler.accept(retry).is_ok());
  ASSERT_TRUE(reassembler.complete());
  EXPECT_EQ(*reassembler.take(), payload);
}

TEST(InlineReadWireTest, StaleSlotContentsAreRejected) {
  // A slot still holding another command's chunk (the CQE-before-chunk
  // hazard) must be rejected on framing, not silently accepted.
  const ByteVec payload = patterned(48, 3);
  controller::ReadReassembler reassembler(1, 10, payload.size());
  // Wrong cid.
  const nvme::SqSlot wrong_cid =
      inr::encode_read_chunk(1, 11, 0, 1, payload);
  EXPECT_FALSE(reassembler.accept(wrong_cid).is_ok());
  // Wrong queue.
  const nvme::SqSlot wrong_qid =
      inr::encode_read_chunk(2, 10, 0, 1, payload);
  EXPECT_FALSE(reassembler.accept(wrong_qid).is_ok());
  // Not a read chunk at all (stale zeros).
  nvme::SqSlot zeros{};
  EXPECT_FALSE(reassembler.accept(zeros).is_ok());
  EXPECT_FALSE(reassembler.complete());
}

// ---- end-to-end: ring wraparound ---------------------------------------

TEST(InlineReadTest, RingWrapsAroundWithoutCorruption) {
  auto config = test::small_testbed_config();
  config.driver.read_ring_slots = 8;  // 3-chunk reads wrap every ~3 ops
  Testbed bed(config);

  const ByteVec payload = patterned(100, 5);  // 3 chunks per read
  ASSERT_TRUE(bed.raw_write(payload, TransferMethod::kPrp).is_ok());
  for (int i = 0; i < 20; ++i) {
    ByteVec out(payload.size());
    IoRequest read = make_read(out);
    auto completion = bed.driver().execute(read, 1);
    ASSERT_TRUE(completion.is_ok() && completion->ok()) << "op " << i;
    EXPECT_EQ(out, payload) << "op " << i;
  }
  const auto& metrics = bed.metrics();
  EXPECT_EQ(metrics.counter_value("driver.inline_read.completions"), 20u);
  EXPECT_EQ(metrics.counter_value("driver.inline_read.chunks"), 60u);
  EXPECT_EQ(metrics.counter_value("driver.inline_read.crc_errors"), 0u);
}

// ---- end-to-end: ring-full fallback to PRP -----------------------------

TEST(InlineReadTest, ReadLargerThanRingFallsBackToPrp) {
  auto config = test::small_testbed_config();
  config.driver.read_ring_slots = 4;  // 4 KiB read needs 86 slots
  Testbed bed(config);

  const ByteVec payload = patterned(4096, 6);
  ASSERT_TRUE(bed.raw_write(payload, TransferMethod::kPrp).is_ok());
  bed.reset_counters();
  ByteVec out(payload.size());
  IoRequest read = make_read(out);
  auto completion = bed.driver().execute(read, 1);
  ASSERT_TRUE(completion.is_ok() && completion->ok());
  EXPECT_EQ(out, payload);
  // Infeasible inline reads route straight to PRP, touching the ring not
  // at all.
  EXPECT_EQ(bed.traffic()
                .cell(Direction::kUpstream, TrafficClass::kDataInlineRead)
                .tlps,
            0u);
  EXPECT_GT(bed.traffic()
                .cell(Direction::kUpstream, TrafficClass::kDataPrp)
                .data_bytes,
            0u);
  EXPECT_EQ(bed.metrics().counter_value("driver.inline_read.attempts"), 0u);
}

TEST(InlineReadTest, RingFullBatchFallsBackAndStaysCorrect) {
  // Two 3-chunk reads against a 4-slot ring submitted as one batch: the
  // first reserves 3 slots, the second cannot reserve and must fall back
  // to PRP — both still return byte-exact data.
  auto config = test::small_testbed_config();
  config.driver.read_ring_slots = 4;
  Testbed bed(config);

  const ByteVec payload = patterned(100, 8);
  ASSERT_TRUE(bed.raw_write(payload, TransferMethod::kPrp).is_ok());

  ByteVec out_a(payload.size()), out_b(payload.size());
  IoRequest reads[2] = {make_read(out_a), make_read(out_b)};
  auto completions = bed.driver().execute_batch({reads, 2}, 1);
  ASSERT_TRUE(completions.is_ok()) << completions.status().message();
  ASSERT_EQ(completions->size(), 2u);
  for (const driver::Completion& completion : *completions) {
    EXPECT_TRUE(completion.ok());
  }
  EXPECT_EQ(out_a, payload);
  EXPECT_EQ(out_b, payload);
  const auto& metrics = bed.metrics();
  EXPECT_EQ(metrics.counter_value("driver.inline_read.attempts"), 1u);
  EXPECT_EQ(metrics.counter_value("driver.inline_read.completions"), 1u);
  EXPECT_EQ(metrics.counter_value("driver.inline_read.fallback_prp"), 1u);
}

// ---- end-to-end: CQE before the last chunk -----------------------------

TEST(InlineReadTest, CqeBeforeLastChunkIsDetected) {
  // Simulate the ordering violation the CRC framing exists to catch: the
  // CQE is visible but a chunk slot still holds stale bytes. We let the
  // controller emit chunks + CQE, then scribble over one slot before the
  // driver reaps — exactly what a reordered MWr would look like.
  Testbed bed(test::small_testbed_config());
  const ByteVec payload = patterned(100, 9);  // 3 chunks at slots 0..2
  ASSERT_TRUE(bed.raw_write(payload, TransferMethod::kPrp).is_ok());

  ByteVec out(payload.size());
  IoRequest read = make_read(out);
  auto handle = bed.driver().submit(read, 1);
  ASSERT_TRUE(handle.is_ok()) << handle.status().message();
  // Device runs to completion: ring slots written, CQE posted — but the
  // driver has not polled yet.
  bed.controller().run_until_idle();
  // Stale second chunk: overwrite its magic as if the MWr never landed.
  const DmaBuffer& ring = bed.driver().read_ring_for_test(1);
  Byte stale[1] = {Byte{0x00}};
  const_cast<DmaBuffer&>(ring).write(1 * inr::kReadSlotBytes, stale);

  auto completion = bed.driver().wait(*handle);
  ASSERT_TRUE(completion.is_ok());
  EXPECT_FALSE(completion->ok())
      << "a missing chunk must never complete successfully";
  EXPECT_EQ(completion->status.code,
            static_cast<std::uint8_t>(nvme::GenericStatus::kDataTransferError));

  // The path stays healthy: a clean retry returns the exact payload.
  ByteVec retry_out(payload.size());
  IoRequest retry = make_read(retry_out);
  auto retried = bed.driver().execute(retry, 1);
  ASSERT_TRUE(retried.is_ok() && retried->ok());
  EXPECT_EQ(retry_out, payload);
}

// ---- exact per-TLP conservation across the fig5 sweep ------------------

class InlineReadConservationTest
    : public testing::TestWithParam<std::uint32_t> {};

TEST_P(InlineReadConservationTest, EveryChunkTlpAccounted) {
  const std::uint32_t len = GetParam();
  Testbed bed(test::small_testbed_config());
  const ByteVec payload = patterned(len, 11);
  ASSERT_TRUE(bed.raw_write(payload, TransferMethod::kPrp).is_ok());

  bed.reset_counters();
  ByteVec out(len);
  IoRequest read = make_read(out);
  auto completion = bed.driver().execute(read, 1);
  ASSERT_TRUE(completion.is_ok() && completion->ok());
  EXPECT_EQ(out, payload);

  const auto cell = [&](Direction dir, TrafficClass cls) {
    return bed.traffic().cell(dir, cls);
  };
  const bool inline_eligible =
      len <= driver::NvmeDriver::kMaxInlineReadBytes;

  // One 64 B chunk MWr per occupied ring slot, and nothing else on the
  // inline-read class; oversized reads never touch the ring.
  const std::uint64_t chunks =
      inline_eligible ? inr::read_chunks_for(len) : 0;
  const TrafficCell up = cell(Direction::kUpstream,
                              TrafficClass::kDataInlineRead);
  EXPECT_EQ(up.tlps, chunks);
  EXPECT_EQ(up.data_bytes, chunks * inr::kReadSlotBytes);
  EXPECT_EQ(up.wire_bytes, chunks * (inr::kReadSlotBytes + kMwrOverhead));
  const TrafficCell down = cell(Direction::kDownstream,
                                TrafficClass::kDataInlineRead);
  EXPECT_EQ(down.tlps, 0u);

  // The rest of the command's wire footprint, from first principles: one
  // SQE fetch (MRd up, 64 B CplD down), one SQ + one CQ doorbell, one
  // 16 B CQE, one 4 B MSI-X.
  const TrafficCell fetch_down =
      cell(Direction::kDownstream, TrafficClass::kCommandFetch);
  EXPECT_EQ(fetch_down.tlps, 1u);
  EXPECT_EQ(fetch_down.data_bytes, 64u);
  EXPECT_EQ(fetch_down.wire_bytes, 64u + kCplOverhead);
  EXPECT_EQ(cell(Direction::kUpstream, TrafficClass::kCommandFetch).wire_bytes,
            kMrdWire);
  const TrafficCell bells =
      cell(Direction::kDownstream, TrafficClass::kDoorbell);
  EXPECT_EQ(bells.tlps, 2u);
  EXPECT_EQ(bells.wire_bytes, 2u * (4u + kMwrOverhead));
  const TrafficCell cqe = cell(Direction::kUpstream, TrafficClass::kCompletion);
  EXPECT_EQ(cqe.tlps, 1u);
  EXPECT_EQ(cqe.wire_bytes, 16u + kMwrOverhead);
  const TrafficCell msix = cell(Direction::kUpstream, TrafficClass::kInterrupt);
  EXPECT_EQ(msix.tlps, 1u);
  EXPECT_EQ(msix.wire_bytes, 4u + kMwrOverhead);

  // Inline reads move NO PRP/SGL data; oversized ones move exactly the
  // page-aligned PRP read.
  const TrafficCell prp_up = cell(Direction::kUpstream, TrafficClass::kDataPrp);
  if (inline_eligible) {
    EXPECT_EQ(prp_up.data_bytes, 0u);
    EXPECT_EQ(cell(Direction::kDownstream, TrafficClass::kDataPrp).tlps, 0u);
  } else {
    EXPECT_EQ(prp_up.data_bytes, align_up(std::uint64_t{len}, 4096));
  }
  EXPECT_EQ(cell(Direction::kUpstream, TrafficClass::kDataSgl).tlps, 0u);
  EXPECT_EQ(cell(Direction::kUpstream, TrafficClass::kOther).tlps, 0u);
  EXPECT_EQ(cell(Direction::kDownstream, TrafficClass::kOther).tlps, 0u);
}

INSTANTIATE_TEST_SUITE_P(Fig5Sizes, InlineReadConservationTest,
                         testing::Values(32u, 64u, 128u, 256u, 512u, 1024u,
                                         2048u, 4096u, 8192u, 16384u),
                         [](const testing::TestParamInfo<std::uint32_t>& i) {
                           return "bytes_" + std::to_string(i.param);
                         });

// The headline claim of ByteExpress-R, checked outside the bench too: a
// 512 B inline read moves at least 3x fewer device->host wire bytes than
// the same read over PRP.
TEST(InlineReadTest, SmallReadBeatsPrpByThreeXUpstream) {
  const ByteVec payload = patterned(512, 13);

  auto inline_config = test::small_testbed_config();
  Testbed inline_bed(inline_config);
  ASSERT_TRUE(inline_bed.raw_write(payload, TransferMethod::kPrp).is_ok());
  inline_bed.reset_counters();
  ByteVec out(payload.size());
  IoRequest read = make_read(out);
  ASSERT_TRUE(inline_bed.driver().execute(read, 1).is_ok());
  const std::uint64_t inline_up =
      inline_bed.traffic().total(Direction::kUpstream).wire_bytes;

  auto prp_config = test::small_testbed_config();
  prp_config.driver.inline_read_enabled = false;
  Testbed prp_bed(prp_config);
  ASSERT_TRUE(prp_bed.raw_write(payload, TransferMethod::kPrp).is_ok());
  prp_bed.reset_counters();
  ByteVec prp_out(payload.size());
  IoRequest prp_read = make_read(prp_out);
  ASSERT_TRUE(prp_bed.driver().execute(prp_read, 1).is_ok());
  const std::uint64_t prp_up =
      prp_bed.traffic().total(Direction::kUpstream).wire_bytes;

  EXPECT_EQ(out, payload);
  EXPECT_EQ(prp_out, payload);
  EXPECT_LE(3 * inline_up, prp_up)
      << "inline " << inline_up << " vs PRP " << prp_up;
}

// Disabling the feature end-to-end must leave the ring unadvertised and
// all reads on the PRP path — the compatibility story.
TEST(InlineReadTest, DisabledDriverNeverTouchesRing) {
  auto config = test::small_testbed_config();
  config.driver.inline_read_enabled = false;
  Testbed bed(config);
  EXPECT_FALSE(bed.driver().inline_read_supported());
  const ByteVec payload = patterned(256, 14);
  ASSERT_TRUE(bed.raw_write(payload, TransferMethod::kPrp).is_ok());
  ByteVec out(payload.size());
  IoRequest read = make_read(out);
  auto completion = bed.driver().execute(read, 1);
  ASSERT_TRUE(completion.is_ok() && completion->ok());
  EXPECT_EQ(out, payload);
  EXPECT_EQ(bed.traffic()
                .cell(Direction::kUpstream, TrafficClass::kDataInlineRead)
                .tlps,
            0u);
}

TEST(InlineReadTest, ControllerWithoutSupportRejectsRingAdvertise) {
  auto config = test::small_testbed_config();
  config.controller.enable_inline_read = false;
  Testbed bed(config);
  // The driver probes at init, the controller rejects, and the driver
  // quietly runs every read over PRP.
  EXPECT_FALSE(bed.driver().inline_read_supported());
  const ByteVec payload = patterned(256, 15);
  ASSERT_TRUE(bed.raw_write(payload, TransferMethod::kPrp).is_ok());
  ByteVec out(payload.size());
  IoRequest read = make_read(out);
  auto completion = bed.driver().execute(read, 1);
  ASSERT_TRUE(completion.is_ok() && completion->ok());
  EXPECT_EQ(out, payload);
}

}  // namespace
}  // namespace bx
