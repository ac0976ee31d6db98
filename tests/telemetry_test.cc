// Windowed telemetry sampler: window-grid semantics over registered
// counters, idle windows (zero deltas, repeated gauges, ring drops inside
// a run, the observer path), ring slots refilled in place, exact
// conservation against the TrafficCounter under QD>1 multi-queue load,
// windows that close at the same chunk read under bulk chunk-run
// accounting, ring bounds, downsampling, reset semantics, the disabled
// path, and the TSV dump.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "core/testbed.h"
#include "driver/request.h"
#include "nvme/inline_read_wire.h"
#include "obs/telemetry.h"
#include "pcie/traffic_counter.h"
#include "test_util.h"

namespace bx {
namespace {

using core::Testbed;
using driver::TransferMethod;
using obs::LinkDir;
using obs::Telemetry;
using obs::TelemetryConfig;
using obs::TelemetrySample;
using obs::TlpKind;

TelemetryConfig tiny_config(Nanoseconds window_ns,
                            std::size_t max_windows = 1u << 16) {
  TelemetryConfig config;
  config.window_ns = window_ns;
  config.max_windows = max_windows;
  return config;
}

/// Stand-ins for the counters the layers own, registered the way the
/// testbed registers the real ones: one link cell per (direction, kind)
/// and the driver's payload and wait counters.
struct Sources {
  using Cell = pcie::TrafficCounter::Cell;

  explicit Sources(Telemetry& telemetry) {
    for (std::size_t dir = 0; dir < obs::kLinkDirs; ++dir) {
      for (std::size_t kind = 0; kind < obs::kTlpKinds; ++kind) {
        const Cell& cell = flows[dir][kind];
        telemetry.register_flow(LinkDir(dir), TlpKind(kind), &cell.tlps,
                                &cell.data_bytes, &cell.wire_bytes);
      }
    }
    telemetry.register_driver(&payload, &waits, wait_ns);
  }

  /// What PcieLink records for one TLP batch.
  void tlps(LinkDir dir, TlpKind kind, std::uint64_t tlps,
            std::uint64_t data_bytes, std::uint64_t wire_bytes) {
    Cell& cell = flows[std::size_t(dir)][std::size_t(kind)];
    cell.tlps.add(tlps);
    cell.data_bytes.add(data_bytes);
    cell.wire_bytes.add(wire_bytes);
  }

  std::array<std::array<Cell, obs::kTlpKinds>, obs::kLinkDirs> flows;
  obs::Counter payload;
  obs::Counter waits;
  obs::WaitCounters wait_ns;
};

TEST(TelemetryWindowTest, AdvanceClosesExpiredWindowsOnTheGrid) {
  Telemetry telemetry(tiny_config(100));
  Sources sources(telemetry);
  sources.tlps(LinkDir::kDownstream, TlpKind::kMWr, 2, 128, 192);
  telemetry.advance_to(50);  // still inside [0, 100): nothing closes
  EXPECT_EQ(telemetry.windows_closed(), 0u);

  telemetry.advance_to(250);  // closes [0,100) and [100,200)
  const std::vector<TelemetrySample> samples = telemetry.samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].start_ns, 0);
  EXPECT_EQ(samples[0].end_ns, 100);
  EXPECT_EQ(samples[1].start_ns, 100);
  EXPECT_EQ(samples[1].end_ns, 200);
  // All traffic recorded before the first close lands in window 0.
  EXPECT_EQ(samples[0].of(LinkDir::kDownstream, TlpKind::kMWr).tlps, 2u);
  EXPECT_EQ(samples[0].of(LinkDir::kDownstream, TlpKind::kMWr).data_bytes,
            128u);
  EXPECT_EQ(samples[0].of(LinkDir::kDownstream, TlpKind::kMWr).wire_bytes,
            192u);
  EXPECT_EQ(samples[1].wire_bytes(), 0u);
}

TEST(TelemetryWindowTest, FlushClosesPartialWindowAndConservesSums) {
  Telemetry telemetry(tiny_config(100));
  Sources sources(telemetry);
  sources.tlps(LinkDir::kDownstream, TlpKind::kMWr, 3, 100, 196);
  telemetry.advance_to(150);
  sources.tlps(LinkDir::kUpstream, TlpKind::kCpl, 1, 64, 92);
  sources.payload.add(300);
  telemetry.flush(150);  // partial window [100, 150)

  const std::vector<TelemetrySample> samples = telemetry.samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples.back().start_ns, 100);
  EXPECT_EQ(samples.back().end_ns, 150);

  const auto totals = Telemetry::sum_flows(samples);
  EXPECT_EQ(totals[0][std::size_t(TlpKind::kMWr)].tlps, 3u);
  EXPECT_EQ(totals[0][std::size_t(TlpKind::kMWr)].wire_bytes, 196u);
  EXPECT_EQ(totals[1][std::size_t(TlpKind::kCpl)].data_bytes, 64u);
  std::uint64_t payload = 0;
  for (const TelemetrySample& s : samples) payload += s.payload_bytes;
  EXPECT_EQ(payload, 300u);

  // The grid restarted at 150. A counter that moves after advance_to(250)
  // closed [150, 250) lands in the zero-length final window [250, 250).
  telemetry.advance_to(250);
  sources.waits.increment();
  telemetry.flush(250);
  std::uint64_t waits = 0;
  for (const TelemetrySample& s : telemetry.samples()) waits += s.wait_count;
  EXPECT_EQ(waits, 1u);
  EXPECT_EQ(telemetry.samples().back().start_ns, 250);
  EXPECT_EQ(telemetry.samples().back().end_ns, 250);
}

TEST(TelemetryWindowTest, RingCapDropsOldestAndCounts) {
  Telemetry telemetry(tiny_config(100, /*max_windows=*/4));
  telemetry.advance_to(1000);  // closes 10 empty windows
  EXPECT_EQ(telemetry.windows_closed(), 10u);
  EXPECT_EQ(telemetry.windows_dropped(), 6u);
  const std::vector<TelemetrySample> samples = telemetry.samples();
  ASSERT_EQ(samples.size(), 4u);
  EXPECT_EQ(samples.front().index, 6u);
  EXPECT_EQ(samples.back().index, 9u);
}

TEST(TelemetryWindowTest, DownsamplePreservesSumsAndSpan) {
  Telemetry telemetry(tiny_config(10));
  Sources sources(telemetry);
  for (int i = 0; i < 100; ++i) {
    sources.tlps(LinkDir::kDownstream, TlpKind::kMWr, 1, std::uint64_t(i),
                 std::uint64_t(i) + 32);
    sources.payload.add(std::uint64_t(i));
    telemetry.advance_to((i + 1) * 10);
  }
  const std::vector<TelemetrySample> full = telemetry.samples();
  ASSERT_EQ(full.size(), 100u);
  const std::vector<TelemetrySample> thin = Telemetry::downsample(full, 7);
  ASSERT_LE(thin.size(), 7u);
  EXPECT_EQ(thin.front().start_ns, full.front().start_ns);
  EXPECT_EQ(thin.back().end_ns, full.back().end_ns);

  const auto want = Telemetry::sum_flows(full);
  const auto got = Telemetry::sum_flows(thin);
  for (std::size_t dir = 0; dir < obs::kLinkDirs; ++dir) {
    for (std::size_t kind = 0; kind < obs::kTlpKinds; ++kind) {
      EXPECT_EQ(got[dir][kind].tlps, want[dir][kind].tlps);
      EXPECT_EQ(got[dir][kind].data_bytes, want[dir][kind].data_bytes);
      EXPECT_EQ(got[dir][kind].wire_bytes, want[dir][kind].wire_bytes);
    }
  }
  std::uint64_t want_payload = 0, got_payload = 0;
  for (const TelemetrySample& s : full) want_payload += s.payload_bytes;
  for (const TelemetrySample& s : thin) got_payload += s.payload_bytes;
  EXPECT_EQ(got_payload, want_payload);
}

TEST(TelemetryWindowTest, DumpTsvHasHeaderAndOneRowPerWindow) {
  Telemetry telemetry(tiny_config(100));
  Sources sources(telemetry);
  sources.tlps(LinkDir::kUpstream, TlpKind::kMWr, 1, 16, 48);
  telemetry.flush(130);
  const std::string tsv = Telemetry::dump_tsv(telemetry.samples(), 4.0);
  EXPECT_NE(tsv.find("# bx-telemetry v1 bytes_per_ns=4.000000"),
            std::string::npos);
  EXPECT_NE(tsv.find("payload_bytes\tbacklog"), std::string::npos);
  std::size_t lines = 0;
  for (const char c : tsv) lines += c == '\n' ? 1 : 0;
  EXPECT_EQ(lines, telemetry.samples().size() + 2);  // 2 header comments
}

// --- idle windows ---

/// One source of every column kind, each counter listed in the order
/// deltas() reads its column.
struct AllSources {
  explicit AllSources(Telemetry& telemetry) {
    for (std::size_t dir = 0; dir < obs::kLinkDirs; ++dir) {
      for (std::size_t kind = 0; kind < obs::kTlpKinds; ++kind) {
        pcie::TrafficCounter::Cell& cell = flows[dir][kind];
        telemetry.register_flow(LinkDir(dir), TlpKind(kind), &cell.tlps,
                                &cell.data_bytes, &cell.wire_bytes);
        counters.insert(counters.end(),
                        {&cell.tlps, &cell.data_bytes, &cell.wire_bytes});
      }
    }
    telemetry.register_driver(&payload, &waits, wait_ns);
    telemetry.register_controller(&backlog);
    telemetry.register_queue(1, &sq_occupancy, &inflight, &sq_doorbells,
                             &sq_entries);
    telemetry.register_tenant(1, &admitted, &rejected, &tenant_payload,
                              &completions, &inflight_slots);
    telemetry.register_policy(&policy_inline, &policy_dma, &policy_rejects,
                              &shedding);
    counters.push_back(&payload);
    counters.push_back(&waits);
    for (obs::Counter& counter : wait_ns) counters.push_back(&counter);
    counters.insert(counters.end(),
                    {&sq_doorbells, &sq_entries, &admitted,
                     &rejected, &tenant_payload, &completions,
                     &policy_inline, &policy_dma, &policy_rejects});
  }

  /// Moves counter i by i + 1 and returns those deltas in column order.
  std::vector<std::uint64_t> move_every_counter() {
    std::vector<std::uint64_t> moved;
    for (std::size_t i = 0; i < counters.size(); ++i) {
      counters[i]->add(i + 1);
      moved.push_back(i + 1);
    }
    return moved;
  }

  /// Sets every gauge to a distinct non-zero value.
  void set_every_gauge() {
    backlog.set(3);
    sq_occupancy.set(5);
    inflight.set(7);
    inflight_slots.set(11);
    shedding.set(1);
  }

  std::array<std::array<pcie::TrafficCounter::Cell, obs::kTlpKinds>,
             obs::kLinkDirs>
      flows;
  obs::Counter payload, waits;
  obs::WaitCounters wait_ns;
  obs::Gauge backlog;
  obs::Gauge sq_occupancy, inflight;
  obs::Counter sq_doorbells, sq_entries;
  obs::Counter admitted, rejected, tenant_payload, completions;
  obs::Gauge inflight_slots;
  obs::Counter policy_inline, policy_dma, policy_rejects;
  obs::Gauge shedding;
  std::vector<obs::Counter*> counters;
};

/// Every summed column of `s`, in a fixed order.
std::vector<std::uint64_t> deltas(const TelemetrySample& s) {
  std::vector<std::uint64_t> out;
  for (const auto& dir : s.flow) {
    for (const obs::FlowCell& cell : dir) {
      out.insert(out.end(), {cell.tlps, cell.data_bytes, cell.wire_bytes});
    }
  }
  out.push_back(s.payload_bytes);
  out.push_back(s.wait_count);
  out.insert(out.end(), s.wait_ns.begin(), s.wait_ns.end());
  for (const obs::QueueWindow& q : s.queues) {
    out.insert(out.end(), {q.sq_doorbells, q.sq_entries});
  }
  for (const obs::TenantWindow& t : s.tenants) {
    out.insert(out.end(),
               {t.admitted, t.rejected, t.payload_bytes, t.completions});
  }
  out.insert(out.end(), {s.policy_inline, s.policy_dma, s.policy_rejects});
  return out;
}

/// Every gauge column of `s`, with the ids of its queue and tenant rows.
std::vector<std::int64_t> gauges(const TelemetrySample& s) {
  std::vector<std::int64_t> out = {s.backlog};
  for (const obs::QueueWindow& q : s.queues) {
    out.insert(out.end(), {q.qid, q.sq_occupancy, q.inflight});
  }
  for (const obs::TenantWindow& t : s.tenants) {
    out.insert(out.end(), {t.tenant, t.inflight_slots});
  }
  out.push_back(s.policy_shedding);
  return out;
}

/// Every field of `s`: bounds, deltas and gauges.
std::vector<std::uint64_t> fields(const TelemetrySample& s) {
  std::vector<std::uint64_t> out = {s.index, s.start_ns, s.end_ns};
  for (const std::uint64_t delta : deltas(s)) out.push_back(delta);
  for (const std::int64_t gauge : gauges(s)) {
    out.push_back(static_cast<std::uint64_t>(gauge));
  }
  return out;
}

// One advance_to across 5 windows: the first carries every delta, the 4
// idle ones after it read 0 in every summed column and repeat its gauges.
TEST(TelemetryIdleTest, IdleWindowsReadZeroDeltasAndRepeatGauges) {
  Telemetry telemetry(tiny_config(100));
  AllSources sources(telemetry);
  const std::vector<std::uint64_t> moved = sources.move_every_counter();
  sources.set_every_gauge();
  telemetry.advance_to(540);  // closes [0, 100) .. [400, 500)

  EXPECT_EQ(telemetry.windows_closed(), 5u);
  EXPECT_EQ(telemetry.windows_dropped(), 0u);
  const std::vector<TelemetrySample> samples = telemetry.samples();
  ASSERT_EQ(samples.size(), 5u);
  EXPECT_EQ(deltas(samples[0]), moved);
  const std::vector<std::int64_t> want_gauges = {3, 1, 5, 7, 1, 11, 1};
  EXPECT_EQ(gauges(samples[0]), want_gauges);
  const std::vector<std::uint64_t> zero(moved.size(), 0);
  for (std::uint64_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].index, i);
    EXPECT_EQ(samples[i].start_ns, 100 * i);
    EXPECT_EQ(samples[i].end_ns, 100 * (i + 1));
    if (i == 0) continue;
    EXPECT_EQ(deltas(samples[i]), zero) << "window " << i;
    EXPECT_EQ(gauges(samples[i]), want_gauges) << "window " << i;
  }

  // The next busy window picks up where the run ended.
  sources.payload.increment();
  telemetry.flush(550);
  const std::vector<TelemetrySample> after = telemetry.samples();
  ASSERT_EQ(after.size(), 6u);
  EXPECT_EQ(after.back().index, 5u);
  EXPECT_EQ(after.back().start_ns, 500u);
  EXPECT_EQ(after.back().end_ns, 550u);
  EXPECT_EQ(after.back().payload_bytes, 1u);
}

// max_windows counts windows, not ring entries: a drop that ends inside
// an idle run keeps the run's tail.
TEST(TelemetryIdleTest, RingCapDropsInsideAnIdleRun) {
  Telemetry telemetry(tiny_config(100, /*max_windows=*/4));
  AllSources sources(telemetry);
  sources.move_every_counter();
  telemetry.advance_to(100);  // one busy window, [0, 100)
  sources.move_every_counter();
  telemetry.advance_to(1100);  // [100, 200) and 9 idle windows

  EXPECT_EQ(telemetry.windows_closed(), 11u);
  EXPECT_EQ(telemetry.windows_dropped(), 7u);
  const std::vector<TelemetrySample> samples = telemetry.samples();
  ASSERT_EQ(samples.size(), 4u);
  const std::vector<std::uint64_t> zero(sources.counters.size(), 0);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(samples[i].index, 7 + i);
    EXPECT_EQ(samples[i].start_ns, 100 * (7 + i));
    EXPECT_EQ(samples[i].end_ns, 100 * (8 + i));
    EXPECT_EQ(deltas(samples[i]), zero) << "window " << 7 + i;
  }
}

/// Keeps a copy of every window it is handed.
class RecordingObserver : public Telemetry::WindowObserver {
 public:
  void on_window(const TelemetrySample& sample) override {
    seen.push_back(sample);
  }
  std::vector<TelemetrySample> seen;
};

// The observer still sees every window, idle ones included, and each one
// equals the window samples() reads back.
TEST(TelemetryIdleTest, ObserverSeesEveryIdleWindow) {
  Telemetry telemetry(tiny_config(100));
  AllSources sources(telemetry);
  RecordingObserver observer;
  telemetry.set_window_observer(&observer);
  sources.move_every_counter();
  sources.set_every_gauge();
  telemetry.advance_to(500);  // 5 windows, 4 of them idle
  sources.move_every_counter();
  sources.inflight.set(2);
  telemetry.advance_to(799);  // 2 windows, 1 idle
  telemetry.flush(850);       // [700, 800), then [800, 850)

  const std::vector<TelemetrySample> samples = telemetry.samples();
  ASSERT_EQ(samples.size(), 9u);
  ASSERT_EQ(observer.seen.size(), samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_EQ(fields(observer.seen[i]), fields(samples[i])) << "window " << i;
  }
  EXPECT_EQ(samples[6].queues.at(0).inflight, 2);
}

// A ring slot is refilled in place: nothing of the window it held may
// leak into the next. Two samplers with the same sources differ only in
// their first period: one sees every flow, both queues' doorbells and its
// tenant move, the other sees nothing. After clear() at the same time both
// see the same second period, in which the ring (max_windows = 3) drops
// from the front while a spare slot sits at the back. Their windows must
// be identical.
TEST(TelemetryIdleTest, ReusedSlotsKeepNothingOfTheirLastWindow) {
  struct Sampler {
    Sampler()
        : telemetry(tiny_config(100, /*max_windows=*/3)),
          sources(telemetry) {
      telemetry.register_queue(2, &sq_occupancy, &inflight, &sq_doorbells,
                               &sq_entries);
    }
    Telemetry telemetry;
    AllSources sources;
    obs::Gauge sq_occupancy, inflight;
    obs::Counter sq_doorbells, sq_entries;
  };
  Sampler busy, idle;
  for (Nanoseconds end = 100; end <= 400; end += 100) {
    busy.sources.move_every_counter();
    busy.sq_doorbells.add(end);
    busy.telemetry.advance_to(end);
    idle.telemetry.advance_to(end);
  }
  for (Sampler* sampler : {&busy, &idle}) {
    sampler->telemetry.clear(400);
    sampler->sources.move_every_counter();
    sampler->telemetry.advance_to(500);  // [400, 500)
    sampler->sources.move_every_counter();
    // [500, 600) and 3 idle windows: the drop pops [400, 500).
    sampler->telemetry.advance_to(900);
    sampler->sources.move_every_counter();
    sampler->telemetry.advance_to(1000);  // [900, 1000), in the spare slot
    sampler->telemetry.flush(1050);       // [1000, 1050)
  }

  for (const Sampler* sampler : {&busy, &idle}) {
    EXPECT_EQ(sampler->telemetry.windows_closed(), 7u);
    EXPECT_EQ(sampler->telemetry.windows_dropped(), 4u);
  }
  const std::vector<TelemetrySample> want = idle.telemetry.samples();
  const std::vector<TelemetrySample> got = busy.telemetry.samples();
  ASSERT_EQ(want.size(), 3u);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(fields(got[i]), fields(want[i])) << "window " << want[i].index;
  }
}

// With no room at all the ring still drops every window, idle or not.
TEST(TelemetryIdleTest, ZeroCapacityDropsEveryWindow) {
  Telemetry telemetry(tiny_config(100, /*max_windows=*/0));
  AllSources sources(telemetry);
  sources.move_every_counter();
  telemetry.advance_to(500);
  telemetry.flush(520);

  EXPECT_TRUE(telemetry.samples().empty());
  EXPECT_EQ(telemetry.windows_closed(), 6u);
  EXPECT_EQ(telemetry.windows_dropped(), 6u);
}

// A zero-length window never ends, so an enabled sampler refuses one.
TEST(TelemetryDeathTest, ZeroLengthWindowAsserts) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH({ Telemetry telemetry(tiny_config(0)); }, "window_ns > 0");
  Telemetry telemetry;
  EXPECT_DEATH(telemetry.configure(tiny_config(0)), "window_ns > 0");

  // A disabled sampler never closes a window.
  TelemetryConfig off = tiny_config(0);
  off.enabled = false;
  telemetry.configure(off);
  telemetry.advance_to(1'000);
  EXPECT_EQ(telemetry.windows_closed(), 0u);
}

// --- testbed integration ---

/// Closed-loop driver load: `ops` inline writes at `qd` outstanding per
/// queue, round-robin over all I/O queues.
void run_closed_loop(Testbed& bed, std::uint64_t ops, std::uint32_t qd,
                     std::uint32_t payload_size, TransferMethod method) {
  const std::uint16_t queues = bed.config().driver.io_queue_count;
  ByteVec payload(payload_size);
  fill_pattern(payload, payload_size);
  driver::IoRequest request;
  request.opcode = nvme::IoOpcode::kVendorRawWrite;
  request.method = method;
  request.write_data = payload;

  std::vector<driver::Submitted> inflight;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const auto qid = static_cast<std::uint16_t>(1 + i % queues);
    auto handle = bed.driver().submit(request, qid);
    ASSERT_TRUE(handle.is_ok());
    inflight.push_back(*handle);
    if (inflight.size() >= std::size_t{qd} * queues) {
      auto completion = bed.driver().wait(inflight.front());
      ASSERT_TRUE(completion.is_ok() && completion->ok());
      inflight.erase(inflight.begin());
    }
  }
  for (const driver::Submitted& handle : inflight) {
    auto completion = bed.driver().wait(handle);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
  }
}

// The tentpole acceptance check: a QD>1 multi-queue run yields >= 50
// windows whose per-direction sums reconcile *exactly* with the
// TrafficCounter, whose payload sums match what the host submitted, and
// whose per-queue doorbell deltas match the BAR write counts.
TEST(TelemetryTestbedTest, MultiQueueQd4ReconcilesExactly) {
  core::TestbedConfig config = test::small_testbed_config(/*io_queues=*/4);
  config.telemetry.window_ns = 2'000;
  Testbed bed(config);
  bed.reset_counters();  // re-baseline past the queue-creation traffic

  constexpr std::uint64_t kOps = 300;
  constexpr std::uint32_t kPayload = 256;
  run_closed_loop(bed, kOps, /*qd=*/4, kPayload,
                  TransferMethod::kByteExpress);

  bed.telemetry().flush(bed.clock().now());
  const std::vector<TelemetrySample> samples = bed.telemetry().samples();
  EXPECT_GE(samples.size(), 50u) << "window too coarse for this run";
  EXPECT_EQ(bed.telemetry().windows_dropped(), 0u);

  // Per-direction sums over all windows == TrafficCounter totals, exactly.
  const auto totals = Telemetry::sum_flows(samples);
  for (std::size_t dir = 0; dir < obs::kLinkDirs; ++dir) {
    const pcie::TrafficCell want =
        bed.traffic().total(static_cast<pcie::Direction>(dir));
    obs::FlowCell got;
    for (std::size_t kind = 0; kind < obs::kTlpKinds; ++kind) {
      got += totals[dir][kind];
    }
    EXPECT_EQ(got.tlps, want.tlps) << "dir " << dir;
    EXPECT_EQ(got.data_bytes, want.data_bytes) << "dir " << dir;
    EXPECT_EQ(got.wire_bytes, want.wire_bytes) << "dir " << dir;
  }

  // Payload accounting: every submitted byte shows up once.
  std::uint64_t payload = 0;
  for (const TelemetrySample& s : samples) payload += s.payload_bytes;
  EXPECT_EQ(payload, kOps * kPayload);

  // Doorbell deltas per queue == BAR register write counts. (reset_
  // counters() does not reset the BAR counters, so compare run deltas via
  // the telemetry re-baseline: sums start at zero after reset.)
  std::uint64_t sq_doorbells[5] = {};
  for (const TelemetrySample& s : samples) {
    for (const obs::QueueWindow& q : s.queues) {
      ASSERT_LE(q.qid, 4);
      sq_doorbells[q.qid] += q.sq_doorbells;
    }
  }
  std::uint64_t sq_total = 0;
  for (std::uint16_t qid = 1; qid <= 4; ++qid) sq_total += sq_doorbells[qid];
  EXPECT_EQ(sq_total, kOps) << "one SQ ring per inline command";
}

// ByteExpress-R reverse-direction conservation: over a run of inline
// reads the windowed upstream MWr flows telescope exactly to the traffic
// counter, and decompose exactly into the three posted-write classes the
// read path emits — chunk MWrs into the completion ring, CQE write-backs
// and MSI-X interrupts. No read byte crosses upstream any other way.
TEST(TelemetryTestbedTest, InlineReadWindowsReconcileUpstreamMwrExactly) {
  namespace inr = nvme::inline_read;
  core::TestbedConfig config = test::small_testbed_config();
  config.telemetry.window_ns = 2'000;
  Testbed bed(config);

  constexpr std::uint32_t kPayload = 300;
  ByteVec payload(kPayload);
  fill_pattern(payload, 11);
  auto seeded = bed.raw_write(payload, TransferMethod::kPrp, 1);
  ASSERT_TRUE(seeded.is_ok() && seeded->ok());
  bed.reset_counters();

  constexpr std::uint64_t kOps = 40;
  for (std::uint64_t i = 0; i < kOps; ++i) {
    ByteVec out(kPayload);
    driver::IoRequest read;
    read.opcode = nvme::IoOpcode::kVendorRawRead;
    read.read_buffer = out;
    auto completion = bed.driver().execute(read, 1);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
    ASSERT_EQ(out, payload);
  }
  bed.telemetry().flush(bed.clock().now());

  // Per-direction window sums == TrafficCounter totals, exactly.
  const auto totals = Telemetry::sum_flows(bed.telemetry().samples());
  for (std::size_t dir = 0; dir < obs::kLinkDirs; ++dir) {
    obs::FlowCell got;
    for (std::size_t kind = 0; kind < obs::kTlpKinds; ++kind) {
      got += totals[dir][kind];
    }
    const pcie::TrafficCell want =
        bed.traffic().total(static_cast<pcie::Direction>(dir));
    EXPECT_EQ(got.tlps, want.tlps) << "dir " << dir;
    EXPECT_EQ(got.data_bytes, want.data_bytes) << "dir " << dir;
    EXPECT_EQ(got.wire_bytes, want.wire_bytes) << "dir " << dir;
  }

  // The chunk class alone carries exactly chunks-per-read 64 B slots.
  const std::uint32_t chunks = inr::read_chunks_for(kPayload);
  const pcie::TrafficCell chunk_cell = bed.traffic().cell(
      pcie::Direction::kUpstream, pcie::TrafficClass::kDataInlineRead);
  EXPECT_EQ(chunk_cell.tlps, kOps * chunks);
  EXPECT_EQ(chunk_cell.data_bytes, kOps * chunks * inr::kReadSlotBytes);

  // Upstream MWr decomposition: chunks + CQEs + MSI-X, nothing else.
  const pcie::TrafficCell cqe_cell = bed.traffic().cell(
      pcie::Direction::kUpstream, pcie::TrafficClass::kCompletion);
  const pcie::TrafficCell msix_cell = bed.traffic().cell(
      pcie::Direction::kUpstream, pcie::TrafficClass::kInterrupt);
  const obs::FlowCell& up_mwr =
      totals[std::size_t(LinkDir::kUpstream)][std::size_t(TlpKind::kMWr)];
  EXPECT_EQ(up_mwr.tlps, chunk_cell.tlps + cqe_cell.tlps + msix_cell.tlps);
  EXPECT_EQ(up_mwr.data_bytes,
            chunk_cell.data_bytes + cqe_cell.data_bytes + msix_cell.data_bytes);
  EXPECT_EQ(up_mwr.wire_bytes,
            chunk_cell.wire_bytes + cqe_cell.wire_bytes + msix_cell.wire_bytes);
  // And the PRP scatter path stayed cold.
  EXPECT_EQ(bed.traffic()
                .cell(pcie::Direction::kUpstream, pcie::TrafficClass::kDataPrp)
                .tlps,
            0u);
}

// The controller accounts a queue-local chunk run in bulk steps, and a
// step ends at the read whose completion closes a telemetry window. Every
// window must still hold exactly the chunk reads a read-at-a-time fetch
// leaves in it: the adaptive policy's EWMAs read each window's link
// utilization. One 4 KiB ByteExpress write on the paper testbed spans
// windows 7-28 of 2 us each; the per-window vector below was recorded
// with the read-at-a-time fetch.
TEST(TelemetryTestbedTest, ChunkRunWindowsCloseAtTheSameRead) {
  core::TestbedConfig config;
  config.telemetry.window_ns = 2'000;
  Testbed bed(config);

  ByteVec payload(4096);
  fill_pattern(payload, 4);
  auto completion = bed.raw_write(payload, TransferMethod::kByteExpress, 1);
  ASSERT_TRUE(completion.is_ok() && completion->ok());
  bed.telemetry().flush(bed.clock().now());
  EXPECT_EQ(bed.clock().now(), 58'664u);

  // Windows 0-6 hold the admin queue setup; 29 is the final partial one.
  const std::vector<std::uint64_t> want_mrd_up = {
      1, 1, 0, 1, 0, 1, 1, 3, 3, 3, 3, 3, 3, 3, 3,
      3, 2, 3, 3, 3, 3, 3, 3, 3, 3, 3, 3, 2, 2, 0};
  std::vector<std::uint64_t> mrd_up;
  for (const TelemetrySample& s : bed.telemetry().samples()) {
    mrd_up.push_back(s.of(LinkDir::kUpstream, TlpKind::kMRd).tlps);
  }
  EXPECT_EQ(mrd_up, want_mrd_up);
}

TEST(TelemetryTestbedTest, ResetCountersRestartsSampling) {
  core::TestbedConfig config = test::small_testbed_config();
  config.telemetry.window_ns = 2'000;
  Testbed bed(config);

  ByteVec payload(128);
  fill_pattern(payload, 3);
  auto first = bed.raw_write(payload, TransferMethod::kPrp, 1);
  ASSERT_TRUE(first.is_ok() && first->ok());

  bed.reset_counters();
  EXPECT_TRUE(bed.telemetry().samples().empty());
  EXPECT_EQ(bed.telemetry().windows_closed(), 0u);
  EXPECT_EQ(bed.driver().waits(), 0u);
  EXPECT_EQ(bed.driver().wait_ns().total_ns(), 0u);

  auto second = bed.raw_write(payload, TransferMethod::kByteExpress, 1);
  ASSERT_TRUE(second.is_ok() && second->ok());
  EXPECT_EQ(bed.driver().waits(), 1u);
  EXPECT_EQ(bed.driver().wait_ns().total_ns(),
            static_cast<std::uint64_t>(second->latency_ns));
  bed.telemetry().flush(bed.clock().now());

  // Post-reset samples reconcile with the post-reset traffic counters.
  const auto totals = Telemetry::sum_flows(bed.telemetry().samples());
  for (std::size_t dir = 0; dir < obs::kLinkDirs; ++dir) {
    obs::FlowCell got;
    for (std::size_t kind = 0; kind < obs::kTlpKinds; ++kind) {
      got += totals[dir][kind];
    }
    const pcie::TrafficCell want =
        bed.traffic().total(static_cast<pcie::Direction>(dir));
    EXPECT_EQ(got.wire_bytes, want.wire_bytes) << "dir " << dir;
    EXPECT_EQ(got.tlps, want.tlps) << "dir " << dir;
  }
}

TEST(TelemetryTestbedTest, DisabledTelemetryStaysEmpty) {
  core::TestbedConfig config = test::small_testbed_config();
  config.telemetry.enabled = false;
  Testbed bed(config);

  ByteVec payload(512);
  fill_pattern(payload, 11);
  for (int i = 0; i < 5; ++i) {
    auto completion =
        bed.raw_write(payload, TransferMethod::kByteExpress, 1);
    ASSERT_TRUE(completion.is_ok() && completion->ok());
  }
  bed.telemetry().flush(bed.clock().now());
  EXPECT_TRUE(bed.telemetry().samples().empty());
  EXPECT_EQ(bed.telemetry().windows_closed(), 0u);
  // The driver's wait sums do not depend on the sampler.
  EXPECT_EQ(bed.driver().waits(), 5u);
}

}  // namespace
}  // namespace bx
