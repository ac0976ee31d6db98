// Traffic-byte conservation: every PCIe byte the TrafficCounter records
// must be exactly accounted for by the payloads transferred, for every
// transfer method. The link model is deterministic (MPS 256 / MRRS 512,
// fixed TLP overheads), so the expectations are computed independently
// from first principles — per TLP: MWr wire = 32 + payload, MRd = 32,
// CplD = 28 + payload — and compared cell by cell.
#include <gtest/gtest.h>

#include <cstring>
#include <initializer_list>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/stress.h"
#include "driver/nvme_driver.h"
#include "driver/request.h"
#include "obs/telemetry.h"
#include "core/testbed.h"
#include "nvme/bandslim_wire.h"
#include "nvme/inline_wire.h"
#include "test_util.h"

namespace bx {
namespace {

using core::Testbed;
using driver::TransferMethod;
using pcie::Direction;
using pcie::TrafficCell;
using pcie::TrafficClass;

constexpr std::uint32_t kMps = 256;   // paper link config MaxPayloadSize
constexpr std::uint32_t kMrrs = 512;  // MaxReadRequestSize
constexpr std::uint64_t kMwrOverhead = 32;  // framing+4DW header+DLLP
constexpr std::uint64_t kMrdWire = 32;
constexpr std::uint64_t kCplOverhead = 28;  // framing+3DW header+DLLP

/// SQ slots the device fetches for one command of `method` / `len`.
std::uint64_t slots_for(TransferMethod method, std::uint64_t len) {
  switch (method) {
    case TransferMethod::kPrp:
    case TransferMethod::kSgl:
      return 1;
    case TransferMethod::kByteExpress:
      return 1 + nvme::inline_chunk::raw_chunks_for(len);
    case TransferMethod::kByteExpressOoo:
      return 1 + nvme::inline_chunk::ooo_chunks_for(len);
    case TransferMethod::kBandSlim:
      return nvme::bandslim::commands_for(len);
    default:
      ADD_FAILURE() << "unsupported method";
      return 0;
  }
}

/// Expected state of one (direction, class) counter cell.
struct CellExpect {
  std::uint64_t tlps = 0;
  std::uint64_t data = 0;
  std::uint64_t wire = 0;
};

/// A DMA read of `bytes`: MRd requests on one side, CplD data on the other.
struct ReadExpect {
  CellExpect request;  // opposite the data direction
  CellExpect data;     // the data direction
};

ReadExpect expect_read(std::uint64_t bytes) {
  ReadExpect e;
  e.request.tlps = div_ceil(bytes, kMrrs);
  e.request.wire = e.request.tlps * kMrdWire;
  e.data.tlps = div_ceil(bytes, kMps);
  e.data.data = bytes;
  e.data.wire = bytes + e.data.tlps * kCplOverhead;
  return e;
}

CellExpect expect_write(std::uint64_t bytes) {
  CellExpect e;
  e.tlps = bytes == 0 ? 1 : div_ceil(bytes, kMps);
  e.data = bytes;
  e.wire = bytes + e.tlps * kMwrOverhead;
  return e;
}

constexpr int kClasses = static_cast<int>(TrafficClass::kCount_);

struct Snapshot {
  TrafficCell cells[2][kClasses];
  std::uint64_t sq_doorbells = 0;
  std::uint64_t cq_doorbells = 0;

  static Snapshot take(Testbed& bed, std::uint16_t qid) {
    Snapshot snap;
    for (int d = 0; d < 2; ++d) {
      for (int c = 0; c < kClasses; ++c) {
        snap.cells[d][c] = bed.traffic().cell(
            static_cast<Direction>(d), static_cast<TrafficClass>(c));
      }
    }
    snap.sq_doorbells = bed.bar().sq_doorbell_writes(qid);
    snap.cq_doorbells = bed.bar().cq_doorbell_writes(qid);
    return snap;
  }
};

void expect_cell_delta(const Snapshot& before, const Snapshot& after,
                       Direction dir, TrafficClass cls,
                       const CellExpect& want, const std::string& label) {
  const auto d = static_cast<int>(dir);
  const auto c = static_cast<int>(cls);
  EXPECT_EQ(after.cells[d][c].tlps - before.cells[d][c].tlps, want.tlps)
      << label << " TLP count";
  EXPECT_EQ(after.cells[d][c].data_bytes - before.cells[d][c].data_bytes,
            want.data)
      << label << " data bytes";
  EXPECT_EQ(after.cells[d][c].wire_bytes - before.cells[d][c].wire_bytes,
            want.wire)
      << label << " wire bytes";
}

struct Case {
  TransferMethod method;
  std::uint32_t len;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  return std::string(driver::transfer_method_name(info.param.method)) + "_" +
         std::to_string(info.param.len);
}

// gtest prints a struct parameter as its raw bytes, padding included, and
// ctest names each case after that print: zero the padding so the names do
// not carry stale stack bytes that change from build to build.
std::vector<Case> zero_padded(std::initializer_list<Case> list) {
  std::vector<Case> cases;
  for (const Case& listed : list) {
    Case padded;
    std::memset(&padded, 0, sizeof(padded));
    padded.method = listed.method;
    padded.len = listed.len;
    cases.push_back(padded);
  }
  return cases;
}

class TrafficConservationTest : public testing::TestWithParam<Case> {};

TEST_P(TrafficConservationTest, EveryByteAccounted) {
  const auto [method, len] = GetParam();
  Testbed bed(test::small_testbed_config());
  constexpr std::uint16_t kQid = 1;

  ByteVec payload(len);
  for (std::uint32_t i = 0; i < len; ++i) {
    payload[i] = static_cast<Byte>(i * 13 + 7);
  }

  const Snapshot before = Snapshot::take(bed, kQid);
  auto completion = bed.raw_write(payload, method, kQid);
  ASSERT_TRUE(completion.is_ok());
  ASSERT_TRUE(completion->ok());
  const Snapshot after = Snapshot::take(bed, kQid);

  const std::uint64_t slots = slots_for(method, len);

  // Command/chunk fetch: each slot is one 64 B DMA read.
  ReadExpect fetch;
  fetch.request.tlps = slots;  // one MRd per fetch_slot call
  fetch.request.wire = slots * kMrdWire;
  fetch.data.tlps = slots;
  fetch.data.data = slots * 64;
  fetch.data.wire = slots * (64 + kCplOverhead);
  expect_cell_delta(before, after, Direction::kDownstream,
                    TrafficClass::kCommandFetch, fetch.data, "cmd-fetch");
  expect_cell_delta(before, after, Direction::kUpstream,
                    TrafficClass::kCommandFetch, fetch.request,
                    "cmd-fetch MRd");

  // Doorbells: one SQ ring per single-submit command (the inline
  // invariant: one ring covers the SQE and all its chunks), one CQ-head
  // ring for the CQE. Batched submissions coalesce further — see the
  // BatchedTrafficConservationTest cases below.
  const std::uint64_t sq_rings =
      method == TransferMethod::kBandSlim ? slots : 1;
  EXPECT_EQ(after.sq_doorbells - before.sq_doorbells, sq_rings);
  EXPECT_EQ(after.cq_doorbells - before.cq_doorbells, 1u);
  CellExpect doorbells;
  doorbells.tlps = sq_rings + 1;
  doorbells.data = 4 * (sq_rings + 1);
  doorbells.wire = (4 + kMwrOverhead) * (sq_rings + 1);
  expect_cell_delta(before, after, Direction::kDownstream,
                    TrafficClass::kDoorbell, doorbells, "doorbell");

  // Exactly one 16 B CQE write-back and one 4 B MSI-X.
  expect_cell_delta(before, after, Direction::kUpstream,
                    TrafficClass::kCompletion, expect_write(16), "CQE");
  expect_cell_delta(before, after, Direction::kUpstream,
                    TrafficClass::kInterrupt, expect_write(4), "MSI-X");

  // Data path: PRP moves page-aligned bytes, SGL exactly the payload,
  // inline methods move nothing outside the command stream.
  ReadExpect prp{}, sgl{};
  if (method == TransferMethod::kPrp) prp = expect_read(align_up(len, 4096));
  if (method == TransferMethod::kSgl) sgl = expect_read(len);
  expect_cell_delta(before, after, Direction::kDownstream,
                    TrafficClass::kDataPrp, prp.data, "PRP data");
  expect_cell_delta(before, after, Direction::kUpstream,
                    TrafficClass::kDataPrp, prp.request, "PRP MRd");
  expect_cell_delta(before, after, Direction::kDownstream,
                    TrafficClass::kDataSgl, sgl.data, "SGL data");
  expect_cell_delta(before, after, Direction::kUpstream,
                    TrafficClass::kDataSgl, sgl.request, "SGL MRd");

  // Nothing else may move: payloads here never need a PRP list
  // (<= 2 pages), writes never touch the inline-read completion ring,
  // and no other class is touched.
  expect_cell_delta(before, after, Direction::kDownstream,
                    TrafficClass::kPrpList, {}, "PRP list");
  expect_cell_delta(before, after, Direction::kUpstream,
                    TrafficClass::kDataInlineRead, {}, "inline-read up");
  expect_cell_delta(before, after, Direction::kDownstream,
                    TrafficClass::kDataInlineRead, {}, "inline-read down");
  expect_cell_delta(before, after, Direction::kDownstream,
                    TrafficClass::kOther, {}, "other down");
  expect_cell_delta(before, after, Direction::kUpstream,
                    TrafficClass::kOther, {}, "other up");
}

INSTANTIATE_TEST_SUITE_P(
    Methods, TrafficConservationTest,
    testing::ValuesIn(zero_padded({
        {TransferMethod::kPrp, 1},
        {TransferMethod::kPrp, 100},
        {TransferMethod::kPrp, 4000},
        {TransferMethod::kSgl, 1},
        {TransferMethod::kSgl, 100},
        {TransferMethod::kSgl, 1024},
        {TransferMethod::kSgl, 4000},
        {TransferMethod::kByteExpress, 1},
        {TransferMethod::kByteExpress, 64},
        {TransferMethod::kByteExpress, 65},
        {TransferMethod::kByteExpress, 256},
        {TransferMethod::kByteExpress, 4000},
        {TransferMethod::kByteExpressOoo, 1},
        {TransferMethod::kByteExpressOoo, 48},
        {TransferMethod::kByteExpressOoo, 49},
        {TransferMethod::kByteExpressOoo, 1024},
        {TransferMethod::kBandSlim, 1},
        {TransferMethod::kBandSlim, 24},
        {TransferMethod::kBandSlim, 25},
        {TransferMethod::kBandSlim, 72},
        {TransferMethod::kBandSlim, 4000},
    })),
    case_name);

// Additivity: running a mixed sequence produces exactly the sum of the
// per-op deltas — counters never lose or double-count bytes across ops.
TEST(TrafficConservationAdditivityTest, MixedSequenceSumsExactly) {
  const std::vector<Case> sequence = {
      {TransferMethod::kByteExpress, 200}, {TransferMethod::kPrp, 900},
      {TransferMethod::kBandSlim, 150},    {TransferMethod::kSgl, 333},
      {TransferMethod::kByteExpressOoo, 500},
  };

  // Per-op deltas measured on one testbed...
  Testbed solo(test::small_testbed_config());
  TrafficCell expected[2][kClasses] = {};
  for (const Case& item : sequence) {
    ByteVec payload(item.len, Byte{0x5a});
    const Snapshot before = Snapshot::take(solo, 1);
    auto completion = solo.raw_write(payload, item.method, 1);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
    const Snapshot after = Snapshot::take(solo, 1);
    for (int d = 0; d < 2; ++d) {
      for (int c = 0; c < kClasses; ++c) {
        expected[d][c].add(
            after.cells[d][c].tlps - before.cells[d][c].tlps,
            after.cells[d][c].data_bytes - before.cells[d][c].data_bytes,
            after.cells[d][c].wire_bytes - before.cells[d][c].wire_bytes);
      }
    }
  }

  // ...must equal the whole-sequence delta on a fresh testbed.
  Testbed combined(test::small_testbed_config());
  const Snapshot before = Snapshot::take(combined, 1);
  for (const Case& item : sequence) {
    ByteVec payload(item.len, Byte{0x5a});
    auto completion = combined.raw_write(payload, item.method, 1);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
  }
  const Snapshot after = Snapshot::take(combined, 1);
  for (int d = 0; d < 2; ++d) {
    for (int c = 0; c < kClasses; ++c) {
      EXPECT_EQ(after.cells[d][c].tlps - before.cells[d][c].tlps,
                expected[d][c].tlps)
          << "dir " << d << " class " << c;
      EXPECT_EQ(after.cells[d][c].data_bytes - before.cells[d][c].data_bytes,
                expected[d][c].data_bytes)
          << "dir " << d << " class " << c;
      EXPECT_EQ(after.cells[d][c].wire_bytes - before.cells[d][c].wire_bytes,
                expected[d][c].wire_bytes)
          << "dir " << d << " class " << c;
    }
  }
}

// The windowed telemetry sampler must account for the same bytes as the
// TrafficCounter: for every transfer method, the per-window MWr/MRd/Cpl
// sums (over all closed windows plus the flushed partial) equal the
// per-direction TrafficCounter totals exactly. Both observers hang off
// the same PcieLink primitives, so any drift means a window boundary
// dropped or double-counted a delta.
TEST(TelemetryConservationTest, WindowSumsMatchTrafficCountersPerMethod) {
  constexpr TransferMethod kMethods[] = {
      TransferMethod::kPrp,           TransferMethod::kSgl,
      TransferMethod::kByteExpress,   TransferMethod::kByteExpressOoo,
      TransferMethod::kBandSlim,
  };
  for (const TransferMethod method : kMethods) {
    core::TestbedConfig config = test::small_testbed_config();
    config.telemetry.window_ns = 1'000;  // many windows even at 20 ops
    Testbed bed(config);
    bed.reset_counters();  // re-baseline both observers past queue setup

    ByteVec payload(300);
    fill_pattern(payload, 0x5a);
    for (int i = 0; i < 20; ++i) {
      auto completion = bed.raw_write(payload, method, 1);
      ASSERT_TRUE(completion.is_ok() && completion->ok());
    }
    bed.telemetry().flush(bed.clock().now());

    const auto sums = obs::Telemetry::sum_flows(bed.telemetry().samples());
    ASSERT_GT(bed.telemetry().samples().size(), 1u);
    for (std::size_t dir = 0; dir < obs::kLinkDirs; ++dir) {
      obs::FlowCell window_total;
      for (std::size_t kind = 0; kind < obs::kTlpKinds; ++kind) {
        window_total += sums[dir][kind];
      }
      const TrafficCell counter_total =
          bed.traffic().total(static_cast<Direction>(dir));
      const std::string_view name = driver::transfer_method_name(method);
      EXPECT_EQ(window_total.tlps, counter_total.tlps)
          << name << " dir " << dir;
      EXPECT_EQ(window_total.data_bytes, counter_total.data_bytes)
          << name << " dir " << dir;
      EXPECT_EQ(window_total.wire_bytes, counter_total.wire_bytes)
          << name << " dir " << dir;
    }
    // MRd carries no data payload by construction; all read data rides
    // completions.
    EXPECT_EQ(sums[0][std::size_t(obs::TlpKind::kMRd)].data_bytes, 0u);
    EXPECT_EQ(sums[1][std::size_t(obs::TlpKind::kMRd)].data_bytes, 0u);
  }
}

// ------------------------------------------------- batched submissions
//
// A coalesced batch shares one SQ doorbell MWr across its whole run, so
// the doorbell class must account 1 + N rings (1 SQ + N CQ-head), not
// N + N. Everything else — fetch, CQE, MSI-X, data — stays strictly
// per-command.

driver::IoRequest make_batch_write(const ByteVec& payload,
                                   TransferMethod method) {
  driver::IoRequest request;
  request.opcode = nvme::IoOpcode::kVendorRawWrite;
  request.method = method;
  request.write_data = {payload.data(), payload.size()};
  return request;
}

/// N distinct MWr TLPs of `each` bytes apiece (CQEs and MSI-X vectors are
/// never merged, unlike expect_write's single large transfer).
CellExpect expect_writes(std::uint64_t count, std::uint64_t each) {
  CellExpect e;
  e.tlps = count;
  e.data = count * each;
  e.wire = count * (each + kMwrOverhead);
  return e;
}

TEST(BatchedTrafficConservationTest, CoalescedBatchEveryByteAccounted) {
  Testbed bed(test::small_testbed_config());
  constexpr std::uint16_t kQid = 1;
  const std::vector<Case> mix = {
      {TransferMethod::kByteExpress, 150},
      {TransferMethod::kPrp, 900},
      {TransferMethod::kSgl, 333},
      {TransferMethod::kByteExpressOoo, 500},
      {TransferMethod::kByteExpress, 60},
      {TransferMethod::kSgl, 1024},
  };
  std::vector<ByteVec> payloads;
  std::vector<driver::IoRequest> requests;
  for (const Case& item : mix) {
    payloads.emplace_back(item.len, Byte{0x5a});
  }
  for (std::size_t i = 0; i < mix.size(); ++i) {
    requests.push_back(make_batch_write(payloads[i], mix[i].method));
  }
  const auto n = static_cast<std::uint64_t>(mix.size());

  const Snapshot before = Snapshot::take(bed, kQid);
  auto completions = bed.driver().execute_batch(
      {requests.data(), requests.size()}, kQid);
  ASSERT_TRUE(completions.is_ok()) << completions.status().message();
  for (const driver::Completion& completion : *completions) {
    ASSERT_TRUE(completion.ok());
  }
  const Snapshot after = Snapshot::take(bed, kQid);

  // Fetch: one 64 B slot read per SQE or chunk, regardless of batching.
  std::uint64_t slots = 0;
  for (const Case& item : mix) slots += slots_for(item.method, item.len);
  ReadExpect fetch;
  fetch.request.tlps = slots;
  fetch.request.wire = slots * kMrdWire;
  fetch.data.tlps = slots;
  fetch.data.data = slots * 64;
  fetch.data.wire = slots * (64 + kCplOverhead);
  expect_cell_delta(before, after, Direction::kDownstream,
                    TrafficClass::kCommandFetch, fetch.data, "cmd-fetch");
  expect_cell_delta(before, after, Direction::kUpstream,
                    TrafficClass::kCommandFetch, fetch.request,
                    "cmd-fetch MRd");

  // The whole coalescable batch shares ONE SQ doorbell; CQ-head rings
  // stay one per CQE.
  EXPECT_EQ(after.sq_doorbells - before.sq_doorbells, 1u);
  EXPECT_EQ(after.cq_doorbells - before.cq_doorbells, n);
  expect_cell_delta(before, after, Direction::kDownstream,
                    TrafficClass::kDoorbell, expect_writes(1 + n, 4),
                    "doorbell");

  // One 16 B CQE and one 4 B MSI-X per command, as distinct TLPs.
  expect_cell_delta(before, after, Direction::kUpstream,
                    TrafficClass::kCompletion, expect_writes(n, 16), "CQE");
  expect_cell_delta(before, after, Direction::kUpstream,
                    TrafficClass::kInterrupt, expect_writes(n, 4), "MSI-X");

  // Data classes sum per command exactly as in the single-submit cases.
  ReadExpect prp{}, sgl{};
  auto accumulate = [](ReadExpect& into, const ReadExpect& delta) {
    into.request.tlps += delta.request.tlps;
    into.request.wire += delta.request.wire;
    into.data.tlps += delta.data.tlps;
    into.data.data += delta.data.data;
    into.data.wire += delta.data.wire;
  };
  for (const Case& item : mix) {
    if (item.method == TransferMethod::kPrp) {
      accumulate(prp, expect_read(align_up(item.len, 4096)));
    }
    if (item.method == TransferMethod::kSgl) {
      accumulate(sgl, expect_read(item.len));
    }
  }
  expect_cell_delta(before, after, Direction::kDownstream,
                    TrafficClass::kDataPrp, prp.data, "PRP data");
  expect_cell_delta(before, after, Direction::kUpstream,
                    TrafficClass::kDataPrp, prp.request, "PRP MRd");
  expect_cell_delta(before, after, Direction::kDownstream,
                    TrafficClass::kDataSgl, sgl.data, "SGL data");
  expect_cell_delta(before, after, Direction::kUpstream,
                    TrafficClass::kDataSgl, sgl.request, "SGL MRd");
  expect_cell_delta(before, after, Direction::kDownstream,
                    TrafficClass::kPrpList, {}, "PRP list");
  expect_cell_delta(before, after, Direction::kUpstream,
                    TrafficClass::kDataInlineRead, {}, "inline-read up");
  expect_cell_delta(before, after, Direction::kDownstream,
                    TrafficClass::kOther, {}, "other down");
  expect_cell_delta(before, after, Direction::kUpstream,
                    TrafficClass::kOther, {}, "other up");
}

// Batching is pure doorbell savings: the batched delta must equal the
// sum of single-submit deltas in every class except kDoorbell, where it
// saves exactly N-1 four-byte MWr TLPs.
TEST(BatchedTrafficConservationTest, BatchSavesExactlyNMinusOneDoorbells) {
  const std::vector<Case> mix = {
      {TransferMethod::kByteExpress, 200},
      {TransferMethod::kPrp, 900},
      {TransferMethod::kSgl, 333},
      {TransferMethod::kByteExpressOoo, 500},
  };
  const auto n = static_cast<std::uint64_t>(mix.size());

  // Single-submit reference deltas.
  Testbed solo(test::small_testbed_config());
  const Snapshot solo_before = Snapshot::take(solo, 1);
  for (const Case& item : mix) {
    ByteVec payload(item.len, Byte{0xc3});
    auto completion = solo.raw_write(payload, item.method, 1);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
  }
  const Snapshot solo_after = Snapshot::take(solo, 1);

  // The same mix as one coalesced batch on a fresh testbed.
  Testbed batched(test::small_testbed_config());
  std::vector<ByteVec> payloads;
  std::vector<driver::IoRequest> requests;
  for (const Case& item : mix) {
    payloads.emplace_back(item.len, Byte{0xc3});
  }
  for (std::size_t i = 0; i < mix.size(); ++i) {
    requests.push_back(make_batch_write(payloads[i], mix[i].method));
  }
  const Snapshot batch_before = Snapshot::take(batched, 1);
  auto completions = batched.driver().execute_batch(
      {requests.data(), requests.size()}, 1);
  ASSERT_TRUE(completions.is_ok()) << completions.status().message();
  for (const driver::Completion& completion : *completions) {
    ASSERT_TRUE(completion.ok());
  }
  const Snapshot batch_after = Snapshot::take(batched, 1);

  EXPECT_EQ(solo_after.sq_doorbells - solo_before.sq_doorbells, n);
  EXPECT_EQ(batch_after.sq_doorbells - batch_before.sq_doorbells, 1u);
  EXPECT_EQ(batch_after.cq_doorbells - batch_before.cq_doorbells,
            solo_after.cq_doorbells - solo_before.cq_doorbells);

  const auto kBell = static_cast<int>(TrafficClass::kDoorbell);
  for (int d = 0; d < 2; ++d) {
    for (int c = 0; c < kClasses; ++c) {
      const std::uint64_t solo_tlps =
          solo_after.cells[d][c].tlps - solo_before.cells[d][c].tlps;
      const std::uint64_t solo_data = solo_after.cells[d][c].data_bytes -
                                      solo_before.cells[d][c].data_bytes;
      const std::uint64_t solo_wire = solo_after.cells[d][c].wire_bytes -
                                      solo_before.cells[d][c].wire_bytes;
      const std::uint64_t batch_tlps =
          batch_after.cells[d][c].tlps - batch_before.cells[d][c].tlps;
      const std::uint64_t batch_data = batch_after.cells[d][c].data_bytes -
                                       batch_before.cells[d][c].data_bytes;
      const std::uint64_t batch_wire = batch_after.cells[d][c].wire_bytes -
                                       batch_before.cells[d][c].wire_bytes;
      if (d == static_cast<int>(Direction::kDownstream) && c == kBell) {
        EXPECT_EQ(batch_tlps, solo_tlps - (n - 1)) << "doorbell TLPs";
        EXPECT_EQ(batch_data, solo_data - 4 * (n - 1)) << "doorbell data";
        EXPECT_EQ(batch_wire, solo_wire - (4 + kMwrOverhead) * (n - 1))
            << "doorbell wire";
      } else {
        EXPECT_EQ(batch_tlps, solo_tlps) << "dir " << d << " class " << c;
        EXPECT_EQ(batch_data, solo_data) << "dir " << d << " class " << c;
        EXPECT_EQ(batch_wire, solo_wire) << "dir " << d << " class " << c;
      }
    }
  }
}

// The harness-level conservation invariant (checked every round inside
// run_stress) holds for a longer randomized mixed run too.
TEST(TrafficConservationAdditivityTest, StressHarnessConservationHolds) {
  core::StressOptions options;
  options.seed = 0xc0ffee;
  options.rounds = 8;
  options.ops_per_round = 32;
  const core::StressResult result = core::run_stress(options);
  EXPECT_TRUE(result.ok()) << result.failure;
}

}  // namespace
}  // namespace bx
