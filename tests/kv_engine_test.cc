// KV engine: LSM semantics end to end on the device side — put/get/delete
// through memtable, flush to NAND runs, multi-run shadowing, compaction,
// scans, and capacity/validation errors.
#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "kv/kv_engine.h"
#include "workload/mixgraph.h"

namespace bx::kv {
namespace {

nand::Geometry small_geometry() {
  nand::Geometry g;
  g.channels = 2;
  g.ways = 2;
  g.blocks_per_die = 32;
  g.pages_per_block = 32;
  g.page_size = 4096;
  return g;
}

class KvEngineFixture : public ::testing::Test {
 protected:
  KvEngineFixture()
      : nand_(small_geometry(), nand::NandTiming{}, clock_),
        ftl_(nand_, {.overprovision = 0.125, .gc_threshold_blocks = 2}) {}

  KvEngine make_engine(std::size_t flush_threshold = 16 * 1024,
                       std::size_t max_runs = 4) {
    KvEngine::Config config;
    config.lpn_base = 0;
    config.lpn_count = ftl_.logical_pages();
    config.flush_threshold_bytes = flush_threshold;
    config.max_runs = max_runs;
    return {ftl_, clock_, config};
  }

  ByteVec value(std::size_t size, std::uint64_t seed) {
    ByteVec v(size);
    fill_pattern(v, seed);
    return v;
  }

  SimClock clock_;
  nand::NandFlash nand_;
  nand::Ftl ftl_;
};

TEST_F(KvEngineFixture, PutGetFromMemtable) {
  KvEngine engine = make_engine();
  ASSERT_TRUE(engine.put("alpha", value(100, 1)).is_ok());
  auto got = engine.get("alpha");
  ASSERT_TRUE(got.is_ok());
  EXPECT_TRUE(verify_pattern(*got, 1));
  EXPECT_EQ(engine.puts(), 1u);
  EXPECT_EQ(engine.gets(), 1u);
}

TEST_F(KvEngineFixture, GetMissingIsNotFound) {
  KvEngine engine = make_engine();
  EXPECT_EQ(engine.get("nope").status().code(), StatusCode::kNotFound);
}

TEST_F(KvEngineFixture, GetAfterFlushReadsNand) {
  KvEngine engine = make_engine();
  ASSERT_TRUE(engine.put("k1", value(200, 7)).is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  EXPECT_EQ(engine.run_count(), 1u);
  EXPECT_EQ(engine.memtable_bytes(), 0u);
  const std::uint64_t reads_before = nand_.reads();
  auto got = engine.get("k1");
  ASSERT_TRUE(got.is_ok());
  EXPECT_TRUE(verify_pattern(*got, 7));
  EXPECT_GT(nand_.reads(), reads_before);  // really came from NAND
}

TEST_F(KvEngineFixture, NewerRunShadowsOlder) {
  KvEngine engine = make_engine();
  ASSERT_TRUE(engine.put("k", value(50, 1)).is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  ASSERT_TRUE(engine.put("k", value(50, 2)).is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  EXPECT_EQ(engine.run_count(), 2u);
  auto got = engine.get("k");
  ASSERT_TRUE(got.is_ok());
  EXPECT_TRUE(verify_pattern(*got, 2));
}

TEST_F(KvEngineFixture, MemtableShadowsRuns) {
  KvEngine engine = make_engine();
  ASSERT_TRUE(engine.put("k", value(50, 1)).is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  ASSERT_TRUE(engine.put("k", value(50, 3)).is_ok());
  auto got = engine.get("k");
  ASSERT_TRUE(got.is_ok());
  EXPECT_TRUE(verify_pattern(*got, 3));
}

TEST_F(KvEngineFixture, DeleteTombstoneShadowsFlushedValue) {
  KvEngine engine = make_engine();
  ASSERT_TRUE(engine.put("gone", value(50, 1)).is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  auto deleted = engine.del("gone");
  ASSERT_TRUE(deleted.is_ok());
  EXPECT_TRUE(*deleted);
  EXPECT_EQ(engine.get("gone").status().code(), StatusCode::kNotFound);
  // The tombstone must survive its own flush too.
  ASSERT_TRUE(engine.flush().is_ok());
  EXPECT_EQ(engine.get("gone").status().code(), StatusCode::kNotFound);
}

TEST_F(KvEngineFixture, DeleteReturnsWhetherKeyExisted) {
  KvEngine engine = make_engine();
  auto missing = engine.del("never");
  ASSERT_TRUE(missing.is_ok());
  EXPECT_FALSE(*missing);
  ASSERT_TRUE(engine.put("there", value(10, 1)).is_ok());
  auto there = engine.del("there");
  ASSERT_TRUE(there.is_ok());
  EXPECT_TRUE(*there);
}

TEST_F(KvEngineFixture, ExistChecksAllLevels) {
  KvEngine engine = make_engine();
  ASSERT_TRUE(engine.put("flushed", value(10, 1)).is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  ASSERT_TRUE(engine.put("fresh", value(10, 2)).is_ok());
  EXPECT_TRUE(*engine.exist("flushed"));
  EXPECT_TRUE(*engine.exist("fresh"));
  EXPECT_FALSE(*engine.exist("absent"));
  ASSERT_TRUE(engine.del("flushed").is_ok());
  EXPECT_FALSE(*engine.exist("flushed"));
}

TEST_F(KvEngineFixture, AutomaticFlushOnThreshold) {
  KvEngine engine = make_engine(/*flush_threshold=*/4096);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(
        engine.put(workload::make_key(i), value(256, i)).is_ok());
  }
  EXPECT_GT(engine.flushes(), 0u);
}

TEST_F(KvEngineFixture, CompactionMergesRunsAndDropsTombstones) {
  KvEngine engine = make_engine(/*flush_threshold=*/1 << 20, /*max_runs=*/2);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(engine
                      .put(workload::make_key(i),
                           value(100, std::uint64_t(round) * 100 + i))
                      .is_ok());
    }
    ASSERT_TRUE(engine.del(workload::make_key(round)).is_ok());
    ASSERT_TRUE(engine.flush().is_ok());
  }
  EXPECT_GT(engine.compactions(), 0u);
  EXPECT_LE(engine.run_count(), 2u);
  // Keys 0..2 were re-put by round 3 after their earlier deletions; only
  // key 3's tombstone (from the final round) is still in force. Everything
  // live must return round 3's values.
  EXPECT_EQ(engine.get(workload::make_key(3)).status().code(),
            StatusCode::kNotFound);
  for (int i = 0; i < 10; ++i) {
    if (i == 3) continue;
    auto got = engine.get(workload::make_key(i));
    ASSERT_TRUE(got.is_ok()) << i;
    EXPECT_TRUE(verify_pattern(*got, 300 + std::uint64_t(i))) << i;
  }
}

TEST_F(KvEngineFixture, FullRangeRejectsPutAndKeepsAcknowledgedKeys) {
  // Distinct keys leave nothing for a merge to drop: it needs as many pages
  // as the runs hold, and once that is more than the 24-page range has
  // free, the merge cannot be placed.
  KvEngine::Config config;
  config.lpn_count = 24;
  config.flush_threshold_bytes = 16 * 1024;
  config.max_runs = 2;
  KvEngine engine(ftl_, clock_, config);
  int acknowledged = 0;
  Status status;
  while (acknowledged < 1000) {
    status = engine.put(workload::make_key(acknowledged),
                        value(1000, acknowledged));
    if (!status.is_ok()) break;
    ++acknowledged;
  }
  EXPECT_EQ(status.code(), StatusCode::kResourceExhausted);
  EXPECT_GT(engine.flushes(), 2u);
  for (int i = 0; i < acknowledged; ++i) {
    auto got = engine.get(workload::make_key(i));
    ASSERT_TRUE(got.is_ok()) << i << ": " << got.status().to_string();
    EXPECT_TRUE(verify_pattern(*got, i)) << i;
  }
}

TEST_F(KvEngineFixture, ScanMergesLevelsInKeyOrder) {
  KvEngine engine = make_engine();
  ASSERT_TRUE(engine.put(workload::make_key(1), value(10, 1)).is_ok());
  ASSERT_TRUE(engine.put(workload::make_key(3), value(10, 3)).is_ok());
  ASSERT_TRUE(engine.flush().is_ok());
  ASSERT_TRUE(engine.put(workload::make_key(2), value(10, 2)).is_ok());
  ASSERT_TRUE(engine.put(workload::make_key(3), value(10, 33)).is_ok());

  auto entries = engine.scan(workload::make_key(1), 10);
  ASSERT_TRUE(entries.is_ok());
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[0].key, workload::make_key(1));
  EXPECT_EQ((*entries)[1].key, workload::make_key(2));
  EXPECT_EQ((*entries)[2].key, workload::make_key(3));
  EXPECT_TRUE(verify_pattern((*entries)[2].value, 33));  // newest version
}

TEST_F(KvEngineFixture, ScanRespectsStartAndLimit) {
  KvEngine engine = make_engine();
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(engine.put(workload::make_key(i), value(8, i)).is_ok());
  }
  auto entries = engine.scan(workload::make_key(5), 4);
  ASSERT_TRUE(entries.is_ok());
  ASSERT_EQ(entries->size(), 4u);
  EXPECT_EQ(entries->front().key, workload::make_key(5));
  EXPECT_EQ(entries->back().key, workload::make_key(8));
}

TEST_F(KvEngineFixture, ScanSkipsDeleted) {
  KvEngine engine = make_engine();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(engine.put(workload::make_key(i), value(8, i)).is_ok());
  }
  ASSERT_TRUE(engine.del(workload::make_key(2)).is_ok());
  auto entries = engine.scan(workload::make_key(0), 10);
  ASSERT_TRUE(entries.is_ok());
  EXPECT_EQ(entries->size(), 4u);
  for (const auto& entry : *entries) {
    EXPECT_NE(entry.key, workload::make_key(2));
  }
}

TEST_F(KvEngineFixture, IteratorWalksEntireStoreInBatches) {
  KvEngine engine = make_engine();
  for (int i = 0; i < 25; ++i) {
    ASSERT_TRUE(engine.put(workload::make_key(i), value(20, i)).is_ok());
  }
  ASSERT_TRUE(engine.flush().is_ok());
  for (int i = 25; i < 30; ++i) {  // some entries only in the memtable
    ASSERT_TRUE(engine.put(workload::make_key(i), value(20, i)).is_ok());
  }

  auto id = engine.iter_open(workload::make_key(0));
  ASSERT_TRUE(id.is_ok());
  int seen = 0;
  for (;;) {
    auto batch = engine.iter_next(*id, 7);
    ASSERT_TRUE(batch.is_ok());
    if (batch->empty()) break;
    for (const KvEntry& entry : *batch) {
      EXPECT_EQ(entry.key, workload::make_key(seen));
      EXPECT_TRUE(verify_pattern(entry.value, seen));
      ++seen;
    }
  }
  EXPECT_EQ(seen, 30);
  // Exhausted iterators keep returning empty until closed.
  auto again = engine.iter_next(*id, 7);
  ASSERT_TRUE(again.is_ok());
  EXPECT_TRUE(again->empty());
  ASSERT_TRUE(engine.iter_close(*id).is_ok());
  EXPECT_EQ(engine.open_iterators(), 0u);
}

TEST_F(KvEngineFixture, IteratorSeesWritesBetweenBatches) {
  KvEngine engine = make_engine();
  ASSERT_TRUE(engine.put(workload::make_key(0), value(8, 0)).is_ok());
  ASSERT_TRUE(engine.put(workload::make_key(5), value(8, 5)).is_ok());
  auto id = engine.iter_open(workload::make_key(0));
  ASSERT_TRUE(id.is_ok());
  auto first = engine.iter_next(*id, 1);
  ASSERT_TRUE(first.is_ok());
  ASSERT_EQ(first->size(), 1u);
  EXPECT_EQ(first->front().key, workload::make_key(0));
  // A key inserted behind the cursor is skipped; one ahead is seen.
  ASSERT_TRUE(engine.put(workload::make_key(3), value(8, 3)).is_ok());
  auto rest = engine.iter_next(*id, 10);
  ASSERT_TRUE(rest.is_ok());
  ASSERT_EQ(rest->size(), 2u);
  EXPECT_EQ((*rest)[0].key, workload::make_key(3));
  EXPECT_EQ((*rest)[1].key, workload::make_key(5));
}

TEST_F(KvEngineFixture, IteratorErrorsAndLimits) {
  KvEngine::Config config;
  config.lpn_base = 0;
  config.lpn_count = ftl_.logical_pages();
  config.max_open_iterators = 2;
  KvEngine engine(ftl_, clock_, config);

  EXPECT_EQ(engine.iter_next(99, 5).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.iter_close(99).code(), StatusCode::kNotFound);

  auto a = engine.iter_open("a");
  auto b = engine.iter_open("b");
  ASSERT_TRUE(a.is_ok() && b.is_ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(engine.iter_open("c").status().code(),
            StatusCode::kResourceExhausted);
  ASSERT_TRUE(engine.iter_close(*a).is_ok());
  EXPECT_TRUE(engine.iter_open("c").is_ok());
}

TEST_F(KvEngineFixture, ValidationErrors) {
  KvEngine engine = make_engine();
  EXPECT_EQ(engine.put("", value(8, 1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.put("this-key-is-way-too-long!", value(8, 1)).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.put("ok", value(8000, 1)).code(),
            StatusCode::kInvalidArgument);  // value above record cap
}

TEST_F(KvEngineFixture, DeviceCpuCostsAdvanceClock) {
  KvEngine engine = make_engine();
  const Nanoseconds before = clock_.now();
  ASSERT_TRUE(engine.put("k", value(10, 1)).is_ok());
  EXPECT_GE(clock_.now() - before, engine.config().cpu_put_ns);
}

TEST_F(KvEngineFixture, RandomizedAgainstStdMapAcrossFlushes) {
  KvEngine engine = make_engine(/*flush_threshold=*/8 * 1024, /*max_runs=*/3);
  std::map<std::string, std::uint64_t> truth;
  Rng rng(99);
  for (int i = 0; i < 2000; ++i) {
    const std::string key = workload::make_key(rng.next_below(150));
    if (rng.next_bool(0.85)) {
      const std::uint64_t seed = rng.next();
      const std::size_t size = 1 + rng.next_below(500);
      ASSERT_TRUE(engine.put(key, value(size, seed)).is_ok()) << i;
      truth[key] = seed;
    } else {
      ASSERT_TRUE(engine.del(key).is_ok()) << i;
      truth.erase(key);
    }
  }
  for (std::uint64_t id = 0; id < 150; ++id) {
    const std::string key = workload::make_key(id);
    const auto it = truth.find(key);
    auto got = engine.get(key);
    if (it == truth.end()) {
      EXPECT_EQ(got.status().code(), StatusCode::kNotFound) << key;
    } else {
      ASSERT_TRUE(got.is_ok()) << key;
      EXPECT_TRUE(verify_pattern(*got, it->second)) << key;
    }
  }
}

}  // namespace
}  // namespace bx::kv
