// Latency accounting: the primary-stage trace intervals of a QD1 command
// tile its latency window exactly — summing (end - start) over the
// primary events of one command reproduces Completion::latency_ns with no
// gap and no overlap, for every transfer method and payload size. The
// kDoorbell and kNandIo annotation events are nested inside primary
// intervals and must NOT contribute (counting them would double-book).
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <vector>

#include "core/testbed.h"
#include "obs/trace.h"
#include "test_util.h"

namespace bx {
namespace {

using core::Testbed;
using driver::IoRequest;
using driver::TransferMethod;
using obs::TraceEvent;
using obs::TraceStage;

ByteVec patterned(std::uint32_t size) {
  ByteVec payload(size);
  for (std::uint32_t i = 0; i < size; ++i) {
    payload[i] = static_cast<Byte>(i * 7 + 13);
  }
  return payload;
}

std::uint64_t primary_ns(const std::vector<TraceEvent>& events) {
  std::uint64_t total = 0;
  for (const TraceEvent& e : events) {
    if (obs::is_primary_stage(e.stage)) {
      total += static_cast<std::uint64_t>(e.end - e.start);
    }
  }
  return total;
}

std::uint64_t count_stage(const std::vector<TraceEvent>& events,
                          TraceStage stage) {
  std::uint64_t n = 0;
  for (const TraceEvent& e : events) {
    if (e.stage == stage) ++n;
  }
  return n;
}

struct MethodCase {
  TransferMethod method;
  const char* name;
  TraceStage data_stage;  // the stage that must move this method's payload
};

// gtest would otherwise print the raw struct bytes (a pointer and padding)
// into every test name.
void PrintTo(const MethodCase& c, std::ostream* os) { *os << c.name; }

class LatencyAccounting : public ::testing::TestWithParam<MethodCase> {};

// NAND-off raw writes: the §4.2 payload-sweep primitive, swept across the
// sizes where the methods differ most.
TEST_P(LatencyAccounting, RawWriteLatencyEqualsPrimaryStageSum) {
  const MethodCase method_case = GetParam();
  Testbed bed(test::small_testbed_config());
  for (const std::uint32_t size : {1u, 24u, 64u, 130u, 1024u}) {
    const ByteVec payload = patterned(size);
    bed.reset_counters();
    auto completion = bed.raw_write(payload, method_case.method);
    ASSERT_TRUE(completion.is_ok() && completion->ok())
        << method_case.name << " size " << size;

    const std::vector<TraceEvent> events = bed.trace().snapshot();
    EXPECT_EQ(primary_ns(events), completion->latency_ns)
        << method_case.name << " size " << size << "\n"
        << obs::TraceRecorder::dump(events);

    // The method's own data path must actually appear in the trace.
    EXPECT_GE(count_stage(events, method_case.data_stage), 1u)
        << method_case.name << " size " << size << "\n"
        << obs::TraceRecorder::dump(events);
    EXPECT_EQ(count_stage(events, TraceStage::kCompletion), 1u);
    EXPECT_EQ(count_stage(events, TraceStage::kCqDoorbell), 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Methods, LatencyAccounting,
    ::testing::Values(
        MethodCase{TransferMethod::kPrp, "prp", TraceStage::kPrpDma},
        MethodCase{TransferMethod::kSgl, "sgl", TraceStage::kSglDma},
        MethodCase{TransferMethod::kByteExpress, "byteexpress",
                   TraceStage::kChunkFetch},
        MethodCase{TransferMethod::kByteExpressOoo, "byteexpress_ooo",
                   TraceStage::kChunkFetch},
        MethodCase{TransferMethod::kBandSlim, "bandslim",
                   TraceStage::kSqeFetch}),
    [](const ::testing::TestParamInfo<MethodCase>& info) {
      return info.param.name;
    });

// Block writes program real NAND inside the executor: the kNandIo
// annotation must be present yet excluded, and the tiling still exact.
TEST(LatencyAccountingNand, BlockWriteTilesWithNandAnnotation) {
  for (const TransferMethod method :
       {TransferMethod::kPrp, TransferMethod::kByteExpress}) {
    Testbed bed(test::small_testbed_config());
    const ByteVec payload = patterned(4096);
    IoRequest write;
    write.opcode = nvme::IoOpcode::kWrite;
    write.slba = 3;
    write.block_count = 1;
    write.write_data = payload;
    write.method = method;

    bed.reset_counters();
    auto completion = bed.driver().execute(write, 1);
    ASSERT_TRUE(completion.is_ok() && completion->ok());

    const std::vector<TraceEvent> events = bed.trace().snapshot();
    EXPECT_GE(count_stage(events, TraceStage::kNandIo), 1u)
        << obs::TraceRecorder::dump(events);
    EXPECT_EQ(primary_ns(events), completion->latency_ns)
        << obs::TraceRecorder::dump(events);

    // The NAND annotation nests inside the kExec interval.
    Nanoseconds exec_start = 0;
    Nanoseconds exec_end = 0;
    for (const TraceEvent& e : events) {
      if (e.stage == TraceStage::kExec) {
        exec_start = e.start;
        exec_end = e.end;
      }
    }
    for (const TraceEvent& e : events) {
      if (e.stage != TraceStage::kNandIo) continue;
      EXPECT_GE(e.start, exec_start);
      EXPECT_LE(e.end, exec_end);
    }
  }
}

// Partial writes do a device-side read-modify-write; the inline path must
// still tile exactly with the RMW reported as kNandIo.
TEST(LatencyAccountingNand, PartialWriteTilesWithNandAnnotation) {
  Testbed bed(test::small_testbed_config());
  const ByteVec payload = patterned(100);
  IoRequest partial;
  partial.opcode = nvme::IoOpcode::kVendorPartialWrite;
  partial.slba = 2;
  partial.aux = 40;  // byte offset within the block
  partial.write_data = payload;
  partial.method = TransferMethod::kByteExpress;

  bed.reset_counters();
  auto completion = bed.driver().execute(partial, 1);
  ASSERT_TRUE(completion.is_ok() && completion->ok());

  const std::vector<TraceEvent> events = bed.trace().snapshot();
  EXPECT_GE(count_stage(events, TraceStage::kNandIo), 1u)
      << obs::TraceRecorder::dump(events);
  EXPECT_EQ(primary_ns(events), completion->latency_ns)
      << obs::TraceRecorder::dump(events);
}

// Back-to-back QD1 commands on one queue: per-command windows are
// adjacent, so the whole-trace primary sum equals the latency sum.
TEST(LatencyAccountingSequence, SequentialCommandsSumExactly) {
  Testbed bed(test::small_testbed_config());
  bed.reset_counters();
  std::uint64_t latency_sum = 0;
  const TransferMethod methods[] = {
      TransferMethod::kByteExpress, TransferMethod::kPrp,
      TransferMethod::kSgl, TransferMethod::kBandSlim,
      TransferMethod::kByteExpressOoo};
  for (const TransferMethod method : methods) {
    const ByteVec payload = patterned(130);
    auto completion = bed.raw_write(payload, method);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
    latency_sum += completion->latency_ns;
  }
  const std::vector<TraceEvent> events = bed.trace().snapshot();
  EXPECT_EQ(primary_ns(events), latency_sum)
      << obs::TraceRecorder::dump(events);
}

}  // namespace
}  // namespace bx
