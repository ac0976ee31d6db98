// Property tests over the traffic and timing model: invariants that must
// hold for EVERY (method, size) combination, plus per-method structural
// laws (PRP step function, ByteExpress linearity, BandSlim fragment
// arithmetic). These pin the model against regressions that the
// figure-level shape tests might miss.
#include <gtest/gtest.h>

#include <cstring>

#include "core/testbed.h"
#include "test_util.h"

namespace bx {
namespace {

using core::Testbed;
using driver::TransferMethod;
using pcie::Direction;
using pcie::TrafficClass;

struct Probe {
  std::uint64_t wire = 0;
  std::uint64_t data = 0;
  Nanoseconds latency = 0;
  std::uint64_t down_data = 0;
};

Probe probe_write(Testbed& testbed, TransferMethod method,
                  std::uint32_t size) {
  ByteVec payload(size);
  fill_pattern(payload, size ^ 0xfeed);
  testbed.reset_counters();
  auto completion = testbed.raw_write(payload, method);
  EXPECT_TRUE(completion.is_ok() && completion->ok());
  Probe probe;
  probe.wire = testbed.traffic().total_wire_bytes();
  probe.data = testbed.traffic().total_data_bytes();
  probe.down_data = testbed.traffic().total(Direction::kDownstream).data_bytes;
  probe.latency = completion->latency_ns;
  return probe;
}

struct MethodSize {
  TransferMethod method;
  std::uint32_t size;
};

class UniversalLaws : public ::testing::TestWithParam<MethodSize> {};

TEST_P(UniversalLaws, WireCoversPayloadAndExceedsData) {
  Testbed testbed(test::small_testbed_config());
  const auto [method, size] = GetParam();
  const Probe probe = probe_write(testbed, method, size);
  // Conservation: at least the payload's bytes crossed downstream.
  EXPECT_GE(probe.down_data, size);
  // Wire bytes always exceed data bytes (headers, framing, DLLP share).
  EXPECT_GT(probe.wire, probe.data);
  // Latency is positive and bounded (< 10 ms for any single command).
  EXPECT_GT(probe.latency, 0u);
  EXPECT_LT(probe.latency, 10'000'000u);
}

TEST_P(UniversalLaws, RepeatedOpsAreIdenticallyPriced) {
  Testbed testbed(test::small_testbed_config());
  const auto [method, size] = GetParam();
  const Probe first = probe_write(testbed, method, size);
  const Probe second = probe_write(testbed, method, size);
  EXPECT_EQ(first.wire, second.wire);
  EXPECT_EQ(first.latency, second.latency);
}

std::vector<MethodSize> law_cases() {
  std::vector<MethodSize> cases;
  for (const TransferMethod method :
       {TransferMethod::kPrp, TransferMethod::kSgl,
        TransferMethod::kByteExpress, TransferMethod::kByteExpressOoo,
        TransferMethod::kBandSlim, TransferMethod::kHybrid}) {
    for (const std::uint32_t size : {1u, 24u, 64u, 100u, 256u, 4096u}) {
      // gtest prints a struct parameter as its raw bytes, padding included,
      // and ctest names each case after that print: zero the padding so the
      // names do not carry stale stack bytes that change from run to run.
      MethodSize law_case;
      std::memset(&law_case, 0, sizeof(law_case));
      law_case.method = method;
      law_case.size = size;
      cases.push_back(law_case);
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    Laws, UniversalLaws, ::testing::ValuesIn(law_cases()),
    [](const ::testing::TestParamInfo<MethodSize>& info) {
      return std::string(driver::transfer_method_name(info.param.method)) +
             "_" + std::to_string(info.param.size);
    });

// ---- per-method structural laws ----

TEST(PrpLaw, WireBytesAreAStepFunctionOfPages) {
  Testbed testbed(test::small_testbed_config());
  std::uint64_t previous = 0;
  for (std::uint32_t pages = 1; pages <= 4; ++pages) {
    // All sizes inside one page count cost the same...
    const Probe low =
        probe_write(testbed, TransferMethod::kPrp, (pages - 1) * 4096 + 1);
    const Probe high =
        probe_write(testbed, TransferMethod::kPrp, pages * 4096);
    EXPECT_EQ(low.wire, high.wire) << pages;
    // ...and each extra page costs strictly more.
    EXPECT_GT(low.wire, previous) << pages;
    previous = low.wire;
  }
}

TEST(ByteExpressLaw, WireBytesLinearInChunkCount) {
  Testbed testbed(test::small_testbed_config());
  // wire(n chunks) = base + n * per_chunk, exactly.
  const std::uint64_t w1 =
      probe_write(testbed, TransferMethod::kByteExpress, 64).wire;
  const std::uint64_t w2 =
      probe_write(testbed, TransferMethod::kByteExpress, 128).wire;
  const std::uint64_t w3 =
      probe_write(testbed, TransferMethod::kByteExpress, 192).wire;
  const std::uint64_t w8 =
      probe_write(testbed, TransferMethod::kByteExpress, 512).wire;
  const std::uint64_t per_chunk = w2 - w1;
  EXPECT_EQ(w3 - w2, per_chunk);
  EXPECT_EQ(w8, w1 + 7 * per_chunk);
  // Sub-chunk sizes round up to the same chunk count.
  EXPECT_EQ(probe_write(testbed, TransferMethod::kByteExpress, 65).wire, w2);
}

TEST(ByteExpressLaw, LatencyLinearInChunkCount) {
  Testbed testbed(test::small_testbed_config());
  const Nanoseconds l1 =
      probe_write(testbed, TransferMethod::kByteExpress, 64).latency;
  const Nanoseconds l2 =
      probe_write(testbed, TransferMethod::kByteExpress, 128).latency;
  const Nanoseconds l4 =
      probe_write(testbed, TransferMethod::kByteExpress, 256).latency;
  EXPECT_EQ(l4 - l2, 2 * (l2 - l1));
}

TEST(BandSlimLaw, WireBytesLinearInFragmentCount) {
  Testbed testbed(test::small_testbed_config());
  // Sizes chosen to hit exactly 1, 2, 3 fragment commands past the header.
  const std::uint64_t f1 =
      probe_write(testbed, TransferMethod::kBandSlim, 24 + 48).wire;
  const std::uint64_t f2 =
      probe_write(testbed, TransferMethod::kBandSlim, 24 + 96).wire;
  const std::uint64_t f3 =
      probe_write(testbed, TransferMethod::kBandSlim, 24 + 144).wire;
  EXPECT_EQ(f3 - f2, f2 - f1);
  // The single-command case is strictly cheaper than header+fragment.
  EXPECT_LT(probe_write(testbed, TransferMethod::kBandSlim, 24).wire, f1);
}

TEST(SglLaw, WireBytesAffineInPayload) {
  Testbed testbed(test::small_testbed_config());
  // Below one MPS (256 B), each added byte adds exactly one wire byte.
  const std::uint64_t w64 =
      probe_write(testbed, TransferMethod::kSgl, 64).wire;
  const std::uint64_t w128 =
      probe_write(testbed, TransferMethod::kSgl, 128).wire;
  EXPECT_EQ(w128 - w64, 64u);
}

TEST(HybridLaw, MatchesConstituentMethodsExactly) {
  auto config = test::small_testbed_config();
  config.driver.hybrid_threshold_bytes = 256;
  Testbed testbed(config);
  for (const std::uint32_t small : {32u, 256u}) {
    EXPECT_EQ(probe_write(testbed, TransferMethod::kHybrid, small).wire,
              probe_write(testbed, TransferMethod::kByteExpress, small).wire)
        << small;
  }
  for (const std::uint32_t large : {257u, 4096u}) {
    EXPECT_EQ(probe_write(testbed, TransferMethod::kHybrid, large).wire,
              probe_write(testbed, TransferMethod::kPrp, large).wire)
        << large;
  }
}

TEST(OooLaw, CostsExceedQueueLocalByHeaderTax) {
  Testbed testbed(test::small_testbed_config());
  for (const std::uint32_t size : {48u, 96u, 480u}) {
    const Probe local = probe_write(testbed, TransferMethod::kByteExpress,
                                    size);
    const Probe ooo =
        probe_write(testbed, TransferMethod::kByteExpressOoo, size);
    EXPECT_GE(ooo.wire, local.wire) << size;
    EXPECT_GT(ooo.latency, local.latency) << size;
  }
}

TEST(LinkLaw, TrafficIsIndependentOfLinkSpeed) {
  auto gen2 = test::small_testbed_config();
  gen2.link.generation = 2;
  auto gen5 = test::small_testbed_config();
  gen5.link.generation = 5;
  Testbed slow(gen2);
  Testbed fast(gen5);
  for (const TransferMethod method :
       {TransferMethod::kPrp, TransferMethod::kByteExpress}) {
    EXPECT_EQ(probe_write(slow, method, 300).wire,
              probe_write(fast, method, 300).wire);
    EXPECT_GT(probe_write(slow, method, 4096).latency,
              probe_write(fast, method, 4096).latency);
  }
}

}  // namespace
}  // namespace bx
