// Property tests for the batched submission path (submit_batch /
// execute_batch): seeded random batch shapes of mixed
// inline/PRP/SGL commands must lay their SQE + inline chunk runs
// adjacently in the ring, share exactly one doorbell MWr per coalesced
// run, conserve traffic bytes per TLP, and produce a CQE for every SQE.
// The harness-level cases reuse core::run_stress schedules with
// batch_depth > 1, so the four stress invariants (src/core/stress.h) are
// checked against the coalesced doorbell accounting.
//
// This binary is part of the TSan and ASan+UBSan CI jobs.
#include <gtest/gtest.h>

#include <cstring>
#include <random>
#include <vector>

#include "core/stress.h"
#include "core/testbed.h"
#include "driver/nvme_driver.h"
#include "nvme/bandslim_wire.h"
#include "nvme/inline_wire.h"
#include "test_util.h"

namespace bx {
namespace {

using core::StressOptions;
using core::StressResult;
using core::Testbed;
using driver::NvmeDriver;
using driver::TransferMethod;

driver::IoRequest make_write(const ByteVec& payload, TransferMethod method) {
  driver::IoRequest request;
  request.opcode = nvme::IoOpcode::kVendorRawWrite;
  request.method = method;
  request.write_data = {payload.data(), payload.size()};
  return request;
}

// --------------------------------------------------- direct driver batches

TEST(BatchSubmissionTest, InlineBatchSharesOneDoorbell) {
  Testbed bed(test::small_testbed_config());
  std::vector<ByteVec> payloads;
  std::vector<driver::IoRequest> requests;
  for (int i = 0; i < 8; ++i) {
    payloads.emplace_back(100 + i * 30, static_cast<Byte>(i + 1));
  }
  for (const ByteVec& payload : payloads) {
    requests.push_back(make_write(payload, TransferMethod::kByteExpress));
  }

  const std::uint64_t bells_before = bed.bar().sq_doorbell_writes(1);
  auto batch = bed.driver().submit_batch(
      {requests.data(), requests.size()}, 1);
  ASSERT_TRUE(batch.is_ok()) << batch.status().message();
  EXPECT_EQ(batch->doorbells, 1u)
      << "8 coalescable commands must share one doorbell MWr";
  EXPECT_EQ(bed.bar().sq_doorbell_writes(1) - bells_before, 1u);
  ASSERT_EQ(batch->handles.size(), 8u);

  // Entries = every SQE plus its inline chunk run.
  std::uint64_t expected_entries = 0;
  for (const ByteVec& payload : payloads) {
    expected_entries +=
        1 + nvme::inline_chunk::raw_chunks_for(payload.size());
  }
  EXPECT_EQ(batch->entries, expected_entries);

  // CQE for every SQE: each handle resolves, nothing leaks.
  for (const driver::Submitted& handle : batch->handles) {
    auto completion = bed.driver().wait(handle);
    ASSERT_TRUE(completion.is_ok()) << completion.status().message();
    EXPECT_TRUE(completion->ok());
  }
  EXPECT_EQ(bed.driver().pending_count_for_test(1), 0u);
}

TEST(BatchSubmissionTest, MixedMethodsStillCoalesce) {
  // PRP and SGL commands are single-slot and coalescable: an inline/PRP/
  // SGL mix is one contiguous run under one bell.
  Testbed bed(test::small_testbed_config());
  const ByteVec small(200, Byte{0xaa});
  const ByteVec medium(1000, Byte{0xbb});
  std::vector<driver::IoRequest> requests = {
      make_write(small, TransferMethod::kByteExpress),
      make_write(medium, TransferMethod::kPrp),
      make_write(small, TransferMethod::kSgl),
      make_write(medium, TransferMethod::kByteExpressOoo),
  };
  auto batch = bed.driver().submit_batch(
      {requests.data(), requests.size()}, 1);
  ASSERT_TRUE(batch.is_ok()) << batch.status().message();
  EXPECT_EQ(batch->doorbells, 1u);
  for (const driver::Submitted& handle : batch->handles) {
    auto completion = bed.driver().wait(handle);
    ASSERT_TRUE(completion.is_ok());
    EXPECT_TRUE(completion->ok());
  }
}

TEST(BatchSubmissionTest, BandSlimBreaksTheCoalescedRun) {
  Testbed bed(test::small_testbed_config());
  const ByteVec inline_payload(128, Byte{0x21});
  const ByteVec bandslim_payload(300, Byte{0x7e});
  std::vector<driver::IoRequest> requests = {
      make_write(inline_payload, TransferMethod::kByteExpress),
      make_write(inline_payload, TransferMethod::kByteExpress),
      make_write(bandslim_payload, TransferMethod::kBandSlim),
      make_write(inline_payload, TransferMethod::kByteExpress),
  };
  auto batch = bed.driver().submit_batch(
      {requests.data(), requests.size()}, 1);
  ASSERT_TRUE(batch.is_ok()) << batch.status().message();
  // One bell for the leading run of two, one per serialized BandSlim
  // command (its §3.2 wire contract), one for the trailing run.
  const std::uint64_t expected =
      1 + nvme::bandslim::commands_for(bandslim_payload.size()) + 1;
  EXPECT_EQ(batch->doorbells, expected);
  for (const driver::Submitted& handle : batch->handles) {
    auto completion = bed.driver().wait(handle);
    ASSERT_TRUE(completion.is_ok());
    EXPECT_TRUE(completion->ok());
  }
}

TEST(BatchSubmissionTest, ChunkRunsAreRingAdjacentAndByteExact) {
  // Walk the raw SQ memory after a batched submit: each inline command's
  // chunk run must immediately follow its SQE, byte-exact (§3.3.2's
  // queue-level guarantee, preserved under batching).
  Testbed bed(test::small_testbed_config());
  std::vector<ByteVec> payloads;
  std::vector<driver::IoRequest> requests;
  std::mt19937_64 rng(0xadace);
  for (int i = 0; i < 6; ++i) {
    ByteVec payload(1 + rng() % 500);
    for (auto& b : payload) b = static_cast<Byte>(rng());
    payloads.push_back(std::move(payload));
  }
  for (const ByteVec& payload : payloads) {
    requests.push_back(make_write(payload, TransferMethod::kByteExpress));
  }

  nvme::SqRing& sq = bed.driver().sq_for_test(1);
  const std::uint32_t start_tail = sq.tail();
  auto batch = bed.driver().submit_batch(
      {requests.data(), requests.size()}, 1);
  ASSERT_TRUE(batch.is_ok()) << batch.status().message();

  std::uint32_t index = start_tail;
  const auto next_slot = [&] {
    nvme::SqSlot slot;
    bed.memory().read(sq.slot_addr(index % sq.depth()),
                      {slot.raw, sizeof(slot.raw)});
    ++index;
    return slot;
  };
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const nvme::SqSlot command_slot = next_slot();
    nvme::SubmissionQueueEntry sqe;
    std::memcpy(&sqe, command_slot.raw, sizeof(sqe));
    ASSERT_EQ(sqe.cid, batch->handles[i].cid)
        << "command " << i << " not at the expected ring position";
    ASSERT_EQ(sqe.inline_length(), payloads[i].size());
    const std::uint32_t chunks =
        nvme::inline_chunk::raw_chunks_for(payloads[i].size());
    std::size_t offset = 0;
    for (std::uint32_t c = 0; c < chunks; ++c) {
      const nvme::SqSlot chunk = next_slot();
      const std::size_t take =
          std::min<std::size_t>(nvme::inline_chunk::kRawChunkCapacity,
                                payloads[i].size() - offset);
      ASSERT_EQ(std::memcmp(chunk.raw, payloads[i].data() + offset, take), 0)
          << "chunk " << c << " of command " << i << " not byte-exact";
      offset += take;
    }
  }
  EXPECT_EQ(index % sq.depth(), sq.tail()) << "unexpected extra slots";

  for (const driver::Submitted& handle : batch->handles) {
    auto completion = bed.driver().wait(handle);
    ASSERT_TRUE(completion.is_ok());
    EXPECT_TRUE(completion->ok());
  }
}

TEST(BatchSubmissionTest, TrafficBytesConservedPerTlp) {
  // Per-TLP conservation across a batched round: 64 B per fetched slot,
  // 16 B per CQE, 4 B per doorbell MWr — with the doorbell count now the
  // coalesced one, not one-per-command.
  Testbed bed(test::small_testbed_config());
  std::vector<ByteVec> payloads;
  std::vector<driver::IoRequest> requests;
  for (int i = 0; i < 8; ++i) {
    payloads.emplace_back(64 + i * 57, static_cast<Byte>(0x10 + i));
  }
  for (const ByteVec& payload : payloads) {
    requests.push_back(make_write(payload, TransferMethod::kByteExpress));
  }

  using pcie::Direction;
  using pcie::TrafficClass;
  const auto fetch_before =
      bed.traffic().cell(Direction::kDownstream, TrafficClass::kCommandFetch);
  const auto bell_before =
      bed.traffic().cell(Direction::kDownstream, TrafficClass::kDoorbell);
  const auto cpl_before =
      bed.traffic().cell(Direction::kUpstream, TrafficClass::kCompletion);
  const std::uint64_t sq_db_before = bed.bar().sq_doorbell_writes(1);
  const std::uint64_t cq_db_before = bed.bar().cq_doorbell_writes(1);

  auto completions = bed.driver().execute_batch(
      {requests.data(), requests.size()}, 1);
  ASSERT_TRUE(completions.is_ok()) << completions.status().message();
  for (const driver::Completion& completion : *completions) {
    EXPECT_TRUE(completion.ok());
  }

  std::uint64_t expected_slots = 0;
  for (const ByteVec& payload : payloads) {
    expected_slots += 1 + nvme::inline_chunk::raw_chunks_for(payload.size());
  }
  const auto fetch_after =
      bed.traffic().cell(Direction::kDownstream, TrafficClass::kCommandFetch);
  const auto bell_after =
      bed.traffic().cell(Direction::kDownstream, TrafficClass::kDoorbell);
  const auto cpl_after =
      bed.traffic().cell(Direction::kUpstream, TrafficClass::kCompletion);
  const std::uint64_t sq_bells =
      bed.bar().sq_doorbell_writes(1) - sq_db_before;
  const std::uint64_t cq_bells =
      bed.bar().cq_doorbell_writes(1) - cq_db_before;

  EXPECT_EQ(sq_bells, 1u) << "batch of 8 must ring once";
  EXPECT_EQ(cq_bells, 8u) << "CQ head doorbells stay one per CQE";
  EXPECT_EQ(fetch_after.data_bytes - fetch_before.data_bytes,
            64 * expected_slots);
  EXPECT_EQ(cpl_after.data_bytes - cpl_before.data_bytes, 16u * 8u);
  EXPECT_EQ(bell_after.data_bytes - bell_before.data_bytes,
            4 * (sq_bells + cq_bells))
      << "coalesced batches must not trip doorbell-byte conservation";
}

TEST(BatchSubmissionTest, SeededRandomBatchShapes) {
  // Property sweep: random batch sizes 1..depth with mixed methods and
  // payload lengths. Every batch of coalescable commands rings exactly
  // once; every command completes.
  for (const std::uint64_t seed : {3ull, 0x5eedull, 0xc0ffeeull}) {
    Testbed bed(test::small_testbed_config(2, 128));
    std::mt19937_64 rng(seed);
    const TransferMethod methods[] = {
        TransferMethod::kByteExpress,
        TransferMethod::kByteExpressOoo,
        TransferMethod::kPrp,
        TransferMethod::kSgl,
    };
    for (int round = 0; round < 20; ++round) {
      const std::size_t size = 1 + rng() % 8;
      const auto qid = static_cast<std::uint16_t>(1 + rng() % 2);
      std::vector<ByteVec> payloads;
      std::vector<driver::IoRequest> requests;
      for (std::size_t i = 0; i < size; ++i) {
        ByteVec payload(1 + rng() % 1200);
        for (auto& b : payload) b = static_cast<Byte>(rng());
        payloads.push_back(std::move(payload));
      }
      for (std::size_t i = 0; i < size; ++i) {
        requests.push_back(make_write(payloads[i], methods[rng() % 4]));
      }
      auto batch = bed.driver().submit_batch(
          {requests.data(), requests.size()}, qid);
      ASSERT_TRUE(batch.is_ok())
          << "seed " << seed << " round " << round << ": "
          << batch.status().message();
      EXPECT_EQ(batch->doorbells, 1u)
          << "seed " << seed << " round " << round;
      for (const driver::Submitted& handle : batch->handles) {
        auto completion = bed.driver().wait(handle);
        ASSERT_TRUE(completion.is_ok());
        EXPECT_TRUE(completion->ok());
      }
      EXPECT_EQ(bed.driver().pending_count_for_test(qid), 0u);
    }
  }
}

TEST(BatchSubmissionTest, DoorbellsPerKopGaugeDropsUnderBatching) {
  std::vector<ByteVec> payloads(8, ByteVec(256, Byte{0x44}));
  std::vector<driver::IoRequest> requests;
  for (const ByteVec& payload : payloads) {
    requests.push_back(make_write(payload, TransferMethod::kByteExpress));
  }
  // Unbatched: one bell per command. Each command is counted before the
  // bell that publishes it, so the gauge reads exactly 1000.
  Testbed unbatched(test::small_testbed_config());
  for (int i = 0; i < 100; ++i) {
    auto completion = unbatched.driver().execute(requests[0], 1);
    ASSERT_TRUE(completion.is_ok());
  }
  EXPECT_EQ(unbatched.metrics().counter_value("driver.sq_doorbells"), 100u);
  EXPECT_EQ(unbatched.metrics().gauge_value("driver.doorbells_per_kop"),
            1000);

  Testbed bed(test::small_testbed_config());
  for (int i = 0; i < 10; ++i) {
    auto completions = bed.driver().execute_batch(
        {requests.data(), requests.size()}, 1);
    ASSERT_TRUE(completions.is_ok());
  }
  // 80 commands over 10 bells -> 125 bells per 1000 commands.
  EXPECT_EQ(bed.metrics().gauge_value("driver.doorbells_per_kop"), 125);
  EXPECT_EQ(bed.metrics().counter_value("driver.batches"), 10u);
  EXPECT_EQ(bed.metrics().counter_value("driver.batched_commands"), 80u);
}

// ------------------------------------------------ stress-harness schedules

TEST(BatchSubmissionTest, StressScheduleHoldsInvariantsAtDepth8) {
  StressOptions options;
  options.batch_depth = 8;
  const StressResult result = core::run_stress(options);
  ASSERT_TRUE(result.ok()) << result.failure;
  EXPECT_GT(result.ops_submitted, 0u);
  EXPECT_EQ(result.ops_completed, result.ops_submitted);
}

TEST(BatchSubmissionTest, CoalescableMixRingsFewerBellsThanCommands) {
  // With BandSlim excluded (it serializes one bell per fragment command
  // by design), batching must strictly beat one-bell-per-command.
  StressOptions options;
  options.batch_depth = 8;
  options.methods = {TransferMethod::kPrp, TransferMethod::kSgl,
                     TransferMethod::kByteExpress,
                     TransferMethod::kByteExpressOoo};
  const StressResult result = core::run_stress(options);
  ASSERT_TRUE(result.ok()) << result.failure;
  EXPECT_GT(result.ops_submitted, 0u);
  EXPECT_LT(result.sq_doorbells, result.ops_submitted);
}

TEST(BatchSubmissionTest, StressSweepOverSeedsAndDepths) {
  for (const std::uint32_t depth : {2u, 4u, 8u}) {
    for (const std::uint64_t seed : {11ull, 0xbeefull}) {
      StressOptions options;
      options.seed = seed;
      options.rounds = 3;
      options.batch_depth = depth;
      const StressResult result = core::run_stress(options);
      EXPECT_TRUE(result.ok()) << "depth " << depth << " seed " << seed
                               << ": " << result.failure;
    }
  }
}

TEST(BatchSubmissionTest, SameSeedSameDepthIsDeterministic) {
  StressOptions options;
  options.seed = 0xfeed;
  options.batch_depth = 8;
  const StressResult first = core::run_stress(options);
  const StressResult second = core::run_stress(options);
  ASSERT_TRUE(first.ok()) << first.failure;
  ASSERT_TRUE(second.ok()) << second.failure;
  EXPECT_EQ(std::memcmp(&first.stats_delta, &second.stats_delta,
                        sizeof(first.stats_delta)),
            0);
  EXPECT_EQ(first.sq_doorbells, second.sq_doorbells);
  EXPECT_EQ(first.wire_bytes, second.wire_bytes);
}

TEST(BatchSubmissionTest, OsThreadScheduleHoldsInvariantsAtDepth8) {
  // Real threads + batched submission: the TSan target for the batched
  // path. Invariant 2's coalesced doorbell expectation is deterministic
  // even under OS scheduling because each batch rings its own runs.
  StressOptions options;
  options.use_os_threads = true;
  options.batch_depth = 8;
  options.rounds = 4;
  const StressResult result = core::run_stress(options);
  ASSERT_TRUE(result.ok()) << result.failure;
  EXPECT_EQ(result.ops_completed, result.ops_submitted);
}

}  // namespace
}  // namespace bx
