// Driver-level admin API: identify controller/namespace, the vendor
// transfer-stats log page, and queue-count negotiation — through the full
// stack (real admin commands over the simulated link).
#include <gtest/gtest.h>

#include "core/report.h"
#include "core/testbed.h"
#include "test_util.h"

namespace bx {
namespace {

using core::Testbed;
using driver::TransferMethod;

TEST(AdminApiTest, IdentifyControllerFields) {
  Testbed testbed(test::small_testbed_config());
  auto identity = testbed.driver().identify_controller();
  ASSERT_TRUE(identity.is_ok()) << identity.status().to_string();
  EXPECT_EQ(identity->serial, "BXSIM0001");
  EXPECT_EQ(identity->model, "ByteExpress Simulated OpenSSD");
  EXPECT_EQ(identity->firmware, "1.0");
  EXPECT_EQ(identity->namespace_count, 1u);
  EXPECT_TRUE(identity->sgl_supported);
}

TEST(AdminApiTest, IdentifyNamespaceMatchesDevicePartition) {
  Testbed testbed(test::small_testbed_config());
  auto ns = testbed.driver().identify_namespace(1);
  ASSERT_TRUE(ns.is_ok());
  EXPECT_EQ(ns->size_blocks, testbed.device().block_namespace_pages());
  EXPECT_EQ(ns->capacity_blocks, ns->size_blocks);
  EXPECT_FALSE(testbed.driver().identify_namespace(99).is_ok());
}

TEST(AdminApiTest, TransferStatsLogTracksInlineActivity) {
  Testbed testbed(test::small_testbed_config());
  auto before = testbed.driver().get_transfer_stats();
  ASSERT_TRUE(before.is_ok());

  ByteVec payload(256);  // 4 chunks
  fill_pattern(payload, 1);
  ASSERT_TRUE(
      testbed.raw_write(payload, TransferMethod::kByteExpress).is_ok());
  ASSERT_TRUE(testbed.raw_write(payload, TransferMethod::kPrp).is_ok());
  ASSERT_TRUE(testbed.raw_write(payload, TransferMethod::kSgl).is_ok());
  ASSERT_TRUE(testbed.raw_write(payload, TransferMethod::kBandSlim).is_ok());
  ASSERT_TRUE(
      testbed.raw_write(payload, TransferMethod::kByteExpressOoo).is_ok());

  auto after = testbed.driver().get_transfer_stats();
  ASSERT_TRUE(after.is_ok());
  EXPECT_EQ(after->inline_chunks_fetched - before->inline_chunks_fetched,
            4u + 6u);  // 4 raw chunks + 6 OOO chunks (48 B each)
  EXPECT_EQ(after->prp_transactions - before->prp_transactions, 1u);
  EXPECT_EQ(after->sgl_transactions - before->sgl_transactions, 1u);
  // 256 B BandSlim: 24 embedded + 5 fragments.
  EXPECT_EQ(after->bandslim_fragments - before->bandslim_fragments, 5u);
  EXPECT_EQ(after->ooo_payloads_reassembled -
                before->ooo_payloads_reassembled,
            1u);
  EXPECT_GE(after->commands_processed, before->commands_processed + 5);
  EXPECT_GE(after->completions_posted, before->completions_posted + 5);
}

// 0xC0's fetch-stage total is the 0xC1 ledger's SQE + chunk fetch time,
// over every method: BandSlim fragment commands and OOO chunk slots too.
TEST(AdminApiTest, TransferLogFetchTotalIsTheLedgerSum) {
  Testbed testbed(test::small_testbed_config());
  ByteVec payload(200);
  fill_pattern(payload, 1);
  for (const TransferMethod method :
       {TransferMethod::kPrp, TransferMethod::kByteExpress,
        TransferMethod::kBandSlim, TransferMethod::kByteExpressOoo,
        TransferMethod::kSgl}) {
    auto completion = testbed.raw_write(payload, method);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
  }
  auto transfer = testbed.driver().get_transfer_stats();
  auto stages = testbed.driver().get_stage_stats();
  ASSERT_TRUE(transfer.is_ok() && stages.is_ok());
  // Five command SQEs plus BandSlim's 4 fragments; 4 raw + 5 OOO chunks.
  EXPECT_EQ(stages->sqe_fetch.count, 9u);
  EXPECT_EQ(stages->chunk_fetch.count, 9u);
  EXPECT_EQ(transfer->fetch_stage_total_ns,
            stages->sqe_fetch.total_ns + stages->chunk_fetch.total_ns);
}

TEST(AdminApiTest, SystemReportContainsAllSections) {
  Testbed testbed(test::small_testbed_config());
  ByteVec payload(128);
  fill_pattern(payload, 1);
  ASSERT_TRUE(
      testbed.raw_write(payload, TransferMethod::kByteExpress).is_ok());
  auto client = testbed.make_kv_client(TransferMethod::kByteExpress);
  ASSERT_TRUE(client.put("reportkey", payload).is_ok());

  const std::string report = core::system_report(testbed);
  for (const char* needle :
       {"PCIe traffic", "cmd_fetch", "controller", "inline_chunks=",
        "NAND / FTL", "waf=", "KV engine", "puts=1"}) {
    EXPECT_NE(report.find(needle), std::string::npos) << needle;
  }
}

TEST(AdminApiTest, SetQueueCountEchoesGrant) {
  Testbed testbed(test::small_testbed_config());
  auto granted = testbed.driver().set_queue_count(4, 4);
  ASSERT_TRUE(granted.is_ok());
  EXPECT_EQ(granted->first, 4u);
  EXPECT_EQ(granted->second, 4u);

  auto capped = testbed.driver().set_queue_count(5000, 5000);
  ASSERT_TRUE(capped.is_ok());
  EXPECT_LT(capped->first, 5000u);
}

}  // namespace
}  // namespace bx
