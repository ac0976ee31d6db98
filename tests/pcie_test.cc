// Unit tests for the PCIe link model: TLP sizing, MPS segmentation,
// traffic accounting per class/direction (and its three views under
// concurrent records), serialization timing across link generations, and
// doorbell MMIO.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/sim_clock.h"
#include "pcie/bar.h"
#include "pcie/link.h"
#include "pcie/tlp.h"
#include "pcie/traffic_counter.h"

namespace bx::pcie {
namespace {

TEST(TlpTest, WireBytesPerType) {
  TlpOverhead overhead;  // framing 8, mem hdr 16, cpl hdr 12, dllp 8
  EXPECT_EQ(tlp_wire_bytes(TlpType::kMemoryWrite, 64, overhead),
            8u + 16u + 64u + 8u);
  EXPECT_EQ(tlp_wire_bytes(TlpType::kMemoryRead, 0, overhead),
            8u + 16u + 8u);
  EXPECT_EQ(tlp_wire_bytes(TlpType::kCompletion, 64, overhead),
            8u + 12u + 64u + 8u);
}

TEST(TlpTest, Names) {
  EXPECT_EQ(tlp_type_name(TlpType::kMemoryWrite), "MWr");
  EXPECT_EQ(tlp_type_name(TlpType::kMemoryRead), "MRd");
  EXPECT_EQ(tlp_type_name(TlpType::kCompletion), "CplD");
}

TEST(LinkConfigTest, Gen2X8RateIsFourGBps) {
  LinkConfig config;
  config.generation = 2;
  config.lanes = 8;
  // 5 GT/s * 0.8 (8b/10b) / 8 bits * 8 lanes = 4 bytes/ns.
  EXPECT_DOUBLE_EQ(config.bytes_per_ns(), 4.0);
}

TEST(LinkConfigTest, HigherGenerationsAreFaster) {
  LinkConfig gen2;
  gen2.generation = 2;
  LinkConfig gen4 = gen2;
  gen4.generation = 4;
  EXPECT_GT(gen4.bytes_per_ns(), 3.0 * gen2.bytes_per_ns());
}

class LinkFixture : public ::testing::Test {
 protected:
  LinkFixture() : link_(LinkConfig{}, clock_, counter_) {}

  SimClock clock_;
  TrafficCounter counter_;
  PcieLink link_;
};

TEST_F(LinkFixture, PostWriteAccountsDataAndWire) {
  link_.post_write(Direction::kUpstream, TrafficClass::kCompletion, 16);
  const TrafficCell cell =
      counter_.cell(Direction::kUpstream, TrafficClass::kCompletion);
  EXPECT_EQ(cell.tlps, 1u);
  EXPECT_EQ(cell.data_bytes, 16u);
  EXPECT_EQ(cell.wire_bytes, 8u + 16u + 16u + 8u);
}

TEST_F(LinkFixture, PostWriteSegmentsAtMps) {
  // 1000 bytes with MPS=256 -> 4 TLPs (256+256+256+232).
  link_.post_write(Direction::kDownstream, TrafficClass::kOther, 1000);
  const TrafficCell cell =
      counter_.cell(Direction::kDownstream, TrafficClass::kOther);
  EXPECT_EQ(cell.tlps, 4u);
  EXPECT_EQ(cell.data_bytes, 1000u);
  EXPECT_EQ(cell.wire_bytes, 1000u + 4 * 32u);
}

TEST_F(LinkFixture, ReadChargesRequestAndCompletions) {
  // A device fetch of a 64B SQE: data flows downstream; the MRd request is
  // accounted upstream.
  link_.read(Direction::kDownstream, TrafficClass::kCommandFetch, 64);
  const TrafficCell req =
      counter_.cell(Direction::kUpstream, TrafficClass::kCommandFetch);
  const TrafficCell data =
      counter_.cell(Direction::kDownstream, TrafficClass::kCommandFetch);
  EXPECT_EQ(req.tlps, 1u);
  EXPECT_EQ(req.data_bytes, 0u);
  EXPECT_EQ(req.wire_bytes, 32u);
  EXPECT_EQ(data.tlps, 1u);
  EXPECT_EQ(data.data_bytes, 64u);
  EXPECT_EQ(data.wire_bytes, 8u + 12u + 64u + 8u);
}

TEST_F(LinkFixture, LargeReadSplitsRequestsAndCompletions) {
  // 4096B read, MRRS=512 -> 8 requests; MPS=256 -> 16 completions.
  link_.read(Direction::kDownstream, TrafficClass::kDataPrp, 4096);
  const TrafficCell req =
      counter_.cell(Direction::kUpstream, TrafficClass::kDataPrp);
  const TrafficCell data =
      counter_.cell(Direction::kDownstream, TrafficClass::kDataPrp);
  EXPECT_EQ(req.tlps, 8u);
  EXPECT_EQ(data.tlps, 16u);
  EXPECT_EQ(data.data_bytes, 4096u);
  EXPECT_EQ(data.wire_bytes, 4096u + 16 * 28u);
}

TEST_F(LinkFixture, TimingIncludesPropagationAndSerialization) {
  const Nanoseconds t =
      link_.post_write(Direction::kDownstream, TrafficClass::kOther, 4096);
  // 4096B + 16 TLP headers @4B/ns = ~1144ns serialization + 150ns prop.
  EXPECT_GT(t, 1150u);
  EXPECT_LT(t, 1500u);
  EXPECT_EQ(clock_.now(), t);
}

TEST_F(LinkFixture, ReadPaysRoundTrip) {
  const Nanoseconds t =
      link_.read(Direction::kDownstream, TrafficClass::kCommandFetch, 64);
  EXPECT_GE(t, 2 * link_.config().propagation_ns);
}

TEST_F(LinkFixture, MmioWriteIsFourBytes) {
  link_.mmio_write32(TrafficClass::kDoorbell);
  const TrafficCell cell =
      counter_.cell(Direction::kDownstream, TrafficClass::kDoorbell);
  EXPECT_EQ(cell.data_bytes, 4u);
  EXPECT_EQ(cell.tlps, 1u);
}

TEST_F(LinkFixture, SerializeTimeScalesWithBytes) {
  EXPECT_EQ(link_.serialize_time(4), 1u);
  EXPECT_EQ(link_.serialize_time(4000), 1000u);
}

TEST(TrafficCounterTest, TotalsAcrossClassesAndDirections) {
  TrafficCounter counter;
  counter.record(Direction::kDownstream, TrafficClass::kCommandFetch,
                 TlpType::kCompletion, 1, 64, 92);
  counter.record(Direction::kUpstream, TrafficClass::kCompletion,
                 TlpType::kMemoryWrite, 1, 16, 48);
  EXPECT_EQ(counter.total(Direction::kDownstream).wire_bytes, 92u);
  EXPECT_EQ(counter.total(Direction::kUpstream).wire_bytes, 48u);
  EXPECT_EQ(counter.total_wire_bytes(), 140u);
  EXPECT_EQ(counter.total_data_bytes(), 80u);
}

// Four threads record at once. Each record adds to its (direction, class)
// cell, its (direction, TLP type) cell and the totals under one writer
// lock, so once the threads are joined the three views agree exactly with
// each other and with what the threads recorded.
TEST(TrafficCounterTest, ViewsAgreeUnderConcurrentRecords) {
  constexpr std::size_t kThreads = 4;
  constexpr int kRecords = 10'000;
  constexpr auto kClasses = static_cast<std::size_t>(TrafficClass::kCount_);
  const auto fields = [](const TrafficCell& cell) {
    return std::array<std::uint64_t, 3>{cell.tlps, cell.data_bytes,
                                        cell.wire_bytes};
  };
  TrafficCounter counter;
  std::array<std::array<TrafficCell, 2>, kThreads> recorded{};
  std::vector<std::thread> threads;
  for (std::size_t i = 0; i < kThreads; ++i) {
    threads.emplace_back([&counter, &sent = recorded[i], i] {
      Rng rng(0x7a11c0 + i);
      for (int r = 0; r < kRecords; ++r) {
        const auto dir = static_cast<Direction>(rng.next_below(2));
        const auto cls = static_cast<TrafficClass>(rng.next_below(kClasses));
        const auto type = static_cast<TlpType>(rng.next_below(kTlpTypes));
        const std::uint64_t tlps = rng.next_in(1, 4);
        const std::uint64_t data = rng.next_below(4097);
        const std::uint64_t wire = data + 32 * tlps;
        counter.record(dir, cls, type, tlps, data, wire);
        sent[static_cast<std::size_t>(dir)].add(tlps, data, wire);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  TrafficCell both;
  for (std::size_t d = 0; d < 2; ++d) {
    const auto dir = static_cast<Direction>(d);
    TrafficCell want, by_class, by_type;
    for (const auto& sent : recorded) want += sent[d];
    for (std::size_t c = 0; c < kClasses; ++c) {
      by_class += counter.cell(dir, static_cast<TrafficClass>(c));
    }
    for (std::size_t t = 0; t < kTlpTypes; ++t) {
      const TrafficCounter::Cell& cell =
          counter.counters(dir, static_cast<TlpType>(t));
      by_type.add(cell.tlps.value(), cell.data_bytes.value(),
                  cell.wire_bytes.value());
    }
    EXPECT_EQ(fields(by_class), fields(want)) << "direction " << d;
    EXPECT_EQ(fields(by_type), fields(want)) << "direction " << d;
    EXPECT_EQ(fields(counter.total(dir)), fields(want)) << "direction " << d;
    both += counter.total(dir);
  }
  EXPECT_EQ(fields(counter.total()), fields(both));
}

TEST(TrafficCounterTest, ResetZeroes) {
  TrafficCounter counter;
  counter.record(Direction::kDownstream, TrafficClass::kOther,
                 TlpType::kMemoryWrite, 3, 10, 20);
  counter.reset();
  EXPECT_EQ(counter.total_wire_bytes(), 0u);
  EXPECT_EQ(counter.total().tlps, 0u);
}

TEST(TrafficCounterTest, BreakdownMentionsActiveClasses) {
  TrafficCounter counter;
  counter.record(Direction::kDownstream, TrafficClass::kDataPrp,
                 TlpType::kCompletion, 1, 4096, 4500);
  const std::string breakdown = counter.breakdown();
  EXPECT_NE(breakdown.find("data_prp"), std::string::npos);
  EXPECT_NE(breakdown.find("TOTAL"), std::string::npos);
  EXPECT_EQ(breakdown.find("doorbell"), std::string::npos);
}

TEST(TrafficClassTest, AllClassesNamed) {
  for (int c = 0; c < static_cast<int>(TrafficClass::kCount_); ++c) {
    EXPECT_NE(traffic_class_name(static_cast<TrafficClass>(c)), "?");
  }
}

TEST(BarTest, DoorbellsStartAtZeroAndStore) {
  BarSpace bar(8);
  EXPECT_EQ(bar.sq_tail(3), 0u);
  bar.set_sq_tail(3, 17);
  bar.set_cq_head(3, 9);
  EXPECT_EQ(bar.sq_tail(3), 17u);
  EXPECT_EQ(bar.cq_head(3), 9u);
  EXPECT_EQ(bar.sq_tail(2), 0u);  // other queues untouched
}

TEST(BarTest, DoorbellWriterChargesMmio) {
  SimClock clock;
  TrafficCounter counter;
  PcieLink link(LinkConfig{}, clock, counter);
  BarSpace bar(4);
  DoorbellWriter writer(bar, link);
  writer.ring_sq_tail(1, 5);
  writer.ring_cq_head(1, 2);
  EXPECT_EQ(bar.sq_tail(1), 5u);
  EXPECT_EQ(bar.cq_head(1), 2u);
  const TrafficCell cell =
      counter.cell(Direction::kDownstream, TrafficClass::kDoorbell);
  EXPECT_EQ(cell.tlps, 2u);
  EXPECT_EQ(cell.data_bytes, 8u);
}

}  // namespace
}  // namespace bx::pcie
