// Full-stack KV-SSD tests: host KvClient -> NVMe passthrough -> transfer
// method -> controller -> device KV engine -> NAND, for every transfer
// method. This is the Figure 6 pipeline, validated for correctness.
#include <gtest/gtest.h>

#include <map>

#include "core/testbed.h"
#include "test_util.h"
#include "workload/mixgraph.h"

namespace bx {
namespace {

using core::Testbed;
using driver::TransferMethod;

class KvMethodTest : public ::testing::TestWithParam<TransferMethod> {};

TEST_P(KvMethodTest, PutGetDeleteExistLifecycle) {
  Testbed testbed(test::small_testbed_config());
  auto client = testbed.make_kv_client(GetParam());

  ByteVec value(150);
  fill_pattern(value, 1);
  ASSERT_TRUE(client.put("user0001", value).is_ok());

  auto exists = client.exist("user0001");
  ASSERT_TRUE(exists.is_ok());
  EXPECT_TRUE(*exists);

  auto got = client.get("user0001");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(*got, value);

  auto deleted = client.del("user0001");
  ASSERT_TRUE(deleted.is_ok());
  EXPECT_TRUE(*deleted);
  EXPECT_EQ(client.get("user0001").status().code(), StatusCode::kNotFound);
  EXPECT_FALSE(*client.exist("user0001"));
}

TEST_P(KvMethodTest, ValueSizeSweepRoundTrips) {
  Testbed testbed(test::small_testbed_config());
  auto client = testbed.make_kv_client(GetParam());
  for (const std::uint32_t size :
       {1u, 16u, 24u, 32u, 48u, 64u, 100u, 128u, 500u, 1000u, 4000u}) {
    const std::string key = "sz" + std::to_string(size);
    ByteVec value(size);
    fill_pattern(value, size);
    ASSERT_TRUE(client.put(key, value).is_ok()) << size;
    auto got = client.get(key);
    ASSERT_TRUE(got.is_ok()) << size;
    EXPECT_EQ(*got, value) << size;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, KvMethodTest,
    ::testing::Values(TransferMethod::kPrp, TransferMethod::kSgl,
                      TransferMethod::kByteExpress,
                      TransferMethod::kByteExpressOoo,
                      TransferMethod::kBandSlim, TransferMethod::kHybrid),
    [](const ::testing::TestParamInfo<TransferMethod>& info) {
      return std::string(driver::transfer_method_name(info.param));
    });

TEST(KvIntegrationTest, OverwritesReturnLatest) {
  Testbed testbed(test::small_testbed_config());
  auto client = testbed.make_kv_client(TransferMethod::kByteExpress);
  for (int version = 0; version < 10; ++version) {
    ByteVec value(200);
    fill_pattern(value, version);
    ASSERT_TRUE(client.put("hotkey", value).is_ok());
  }
  auto got = client.get("hotkey");
  ASSERT_TRUE(got.is_ok());
  EXPECT_TRUE(verify_pattern(*got, 9));
}

TEST(KvIntegrationTest, ManyPutsSurviveFlushesAndNandIo) {
  auto config = test::small_testbed_config();
  config.ssd.kv.flush_threshold_bytes = 8 * 1024;  // force frequent flushes
  Testbed testbed(config);
  auto client = testbed.make_kv_client(TransferMethod::kByteExpress);

  const std::uint64_t programs_before = testbed.device().nand().programs();
  for (int i = 0; i < 400; ++i) {
    ByteVec value(120);
    fill_pattern(value, i);
    ASSERT_TRUE(client.put(workload::make_key(i), value).is_ok()) << i;
  }
  EXPECT_GT(testbed.device().kv_engine().flushes(), 0u);
  EXPECT_GT(testbed.device().nand().programs(), programs_before);

  for (int i = 0; i < 400; ++i) {
    auto got = client.get(workload::make_key(i));
    ASSERT_TRUE(got.is_ok()) << i;
    EXPECT_TRUE(verify_pattern(*got, i)) << i;
  }
}

TEST(KvIntegrationTest, ChurnAtTheRangeLimitKeepsEveryKey) {
  // The microbench_hostpath geometry gives the KV store a 4,300-LPN range.
  // 1 KiB PUTs cycling over 4,096 keys fill it many times over, so the
  // engine must keep reclaiming the pages its compactions free.
  core::TestbedConfig config;
  config.ssd.geometry.channels = 2;
  config.ssd.geometry.ways = 2;
  config.ssd.geometry.blocks_per_die = 64;
  config.ssd.geometry.pages_per_block = 64;
  Testbed testbed(config);
  auto client = testbed.make_kv_client(TransferMethod::kByteExpress);

  constexpr int kKeys = 4096;
  constexpr int kPuts = 20000;
  ByteVec value(1024);
  for (int i = 0; i < kPuts; ++i) {
    fill_pattern(value, i);
    const Status status = client.put(workload::make_key(i % kKeys), value);
    ASSERT_TRUE(status.is_ok()) << i << ": " << status.to_string();
  }
  EXPECT_GT(testbed.device().kv_engine().compactions(), 0u);
  for (int key = 0; key < kKeys; ++key) {
    auto got = client.get(workload::make_key(key));
    ASSERT_TRUE(got.is_ok()) << key << ": " << got.status().to_string();
    const int latest = key + (kPuts - 1 - key) / kKeys * kKeys;
    EXPECT_TRUE(verify_pattern(*got, latest)) << key;
  }
}

TEST(KvIntegrationTest, GetOfLargeValueGrowsClientBuffer) {
  Testbed testbed(test::small_testbed_config());
  kv::KvClient::Options options;
  options.qid = 1;
  options.method = TransferMethod::kPrp;
  options.get_buffer_bytes = 64;  // deliberately too small
  kv::KvClient client(testbed.driver(), options);

  ByteVec value(3000);
  fill_pattern(value, 1);
  ASSERT_TRUE(client.put("big", value).is_ok());
  auto got = client.get("big");
  ASSERT_TRUE(got.is_ok());
  EXPECT_EQ(*got, value);
}

TEST(KvIntegrationTest, ScanOverPassthrough) {
  Testbed testbed(test::small_testbed_config());
  auto client = testbed.make_kv_client(TransferMethod::kByteExpress);
  for (int i = 0; i < 10; ++i) {
    ByteVec value(50 + i);
    fill_pattern(value, i);
    ASSERT_TRUE(client.put(workload::make_key(i), value).is_ok());
  }
  auto entries = client.scan(workload::make_key(3), 4);
  ASSERT_TRUE(entries.is_ok());
  ASSERT_EQ(entries->size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ((*entries)[std::size_t(i)].key, workload::make_key(3 + i));
    EXPECT_TRUE(verify_pattern((*entries)[std::size_t(i)].value, 3 + i));
  }
}

TEST(KvIntegrationTest, StatefulIteratorOverPassthrough) {
  Testbed testbed(test::small_testbed_config());
  auto client = testbed.make_kv_client(TransferMethod::kByteExpress);
  for (int i = 0; i < 12; ++i) {
    ByteVec value(30 + i);
    fill_pattern(value, i);
    ASSERT_TRUE(client.put(workload::make_key(i), value).is_ok());
  }

  auto iterator = client.range(workload::make_key(2));
  ASSERT_TRUE(iterator.is_ok()) << iterator.status().to_string();
  int expected = 2;
  for (;;) {
    auto batch = iterator->next(4);
    ASSERT_TRUE(batch.is_ok());
    if (batch->empty()) break;
    for (const kv::KvEntry& entry : *batch) {
      EXPECT_EQ(entry.key, workload::make_key(expected));
      EXPECT_TRUE(verify_pattern(entry.value, expected));
      ++expected;
    }
  }
  EXPECT_EQ(expected, 12);
}

TEST(KvIntegrationTest, IteratorLifecycleErrorsOverPassthrough) {
  Testbed testbed(test::small_testbed_config());
  auto client = testbed.make_kv_client(TransferMethod::kPrp);
  ASSERT_TRUE(client.put("k1", ByteVec(8)).is_ok());

  EXPECT_FALSE(client.iter_next(777, 4).is_ok());
  EXPECT_FALSE(client.iter_close(777).is_ok());

  auto id = client.iter_open("k");
  ASSERT_TRUE(id.is_ok());
  auto batch = client.iter_next(*id, 4);
  ASSERT_TRUE(batch.is_ok());
  EXPECT_EQ(batch->size(), 1u);
  ASSERT_TRUE(client.iter_close(*id).is_ok());
  EXPECT_FALSE(client.iter_close(*id).is_ok());  // double close
  EXPECT_EQ(testbed.device().kv_engine().open_iterators(), 0u);
}

TEST(KvIntegrationTest, RangeIteratorRaiiClosesOnDestruction) {
  Testbed testbed(test::small_testbed_config());
  auto client = testbed.make_kv_client(TransferMethod::kPrp);
  ASSERT_TRUE(client.put("k1", ByteVec(8)).is_ok());
  {
    auto iterator = client.range("a");
    ASSERT_TRUE(iterator.is_ok());
    EXPECT_EQ(testbed.device().kv_engine().open_iterators(), 1u);
  }
  EXPECT_EQ(testbed.device().kv_engine().open_iterators(), 0u);
}

TEST(KvIntegrationTest, KeyValidation) {
  Testbed testbed(test::small_testbed_config());
  auto client = testbed.make_kv_client(TransferMethod::kPrp);
  ByteVec value(10);
  EXPECT_FALSE(client.put("", value).is_ok());
  EXPECT_FALSE(client.put("seventeen-bytes-!", value).is_ok());
  EXPECT_TRUE(client.put("sixteen-bytes-ok", value).is_ok());
}

TEST(KvIntegrationTest, MixGraphValuesRideInlineBelowThresholdViaHybrid) {
  auto config = test::small_testbed_config();
  config.driver.hybrid_threshold_bytes = 256;
  Testbed testbed(config);
  auto client = testbed.make_kv_client(TransferMethod::kHybrid);
  workload::MixGraphWorkload workload({.key_space = 200, .seed = 5});

  std::map<std::string, ByteVec> truth;
  for (int i = 0; i < 300; ++i) {
    auto op = workload.next_put();
    ASSERT_TRUE(client.put(op.key, op.value).is_ok()) << i;
    truth[op.key] = op.value;
  }
  for (const auto& [key, value] : truth) {
    auto got = client.get(key);
    ASSERT_TRUE(got.is_ok()) << key;
    EXPECT_EQ(*got, value) << key;
  }
}

TEST(KvIntegrationTest, InlinePutTrafficMuchSmallerThanPrpPut) {
  Testbed testbed(test::small_testbed_config());
  ByteVec value(64);
  fill_pattern(value, 1);

  auto prp_client = testbed.make_kv_client(TransferMethod::kPrp);
  testbed.reset_counters();
  ASSERT_TRUE(prp_client.put("prpkey", value).is_ok());
  const std::uint64_t prp_wire = testbed.traffic().total_wire_bytes();

  auto bx_client = testbed.make_kv_client(TransferMethod::kByteExpress);
  testbed.reset_counters();
  ASSERT_TRUE(bx_client.put("bxkey01", value).is_ok());
  const std::uint64_t bx_wire = testbed.traffic().total_wire_bytes();

  EXPECT_LT(double(bx_wire), 0.15 * double(prp_wire));
}

}  // namespace
}  // namespace bx
