// Differential checks: one seeded request stream through two testbeds
// whose configurations differ only in something that must not change what
// the simulated system does. Each run checks every read-back against the
// bytes written and records every completion (status, latency, DW0, bytes
// returned), the per-class PCIe traffic, the final simulated clock and
// the trace dump; the two runs must agree on all of them (on the trace
// dump when both runs record one).
//
// Pairs:
//   * trace recording on vs off — the recorder only observes, so turning
//     it on may cost wall-clock time but never simulated time or bytes.
//   * telemetry on with 1 us windows vs off — the controller accounts a
//     queue-local chunk run in bulk steps that end at the read closing a
//     window, so the first run splits nearly every run into several
//     steps and the second takes each run in one; the split must not
//     move a single event.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <random>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "core/testbed.h"
#include "driver/request.h"
#include "obs/trace.h"
#include "pcie/traffic_counter.h"
#include "test_util.h"

namespace bx::core {
namespace {

using driver::IoRequest;
using driver::TransferMethod;
using pcie::Direction;
using pcie::TrafficClass;

struct Outcome {
  std::uint16_t status = 0;
  Nanoseconds latency_ns = 0;
  std::uint32_t dw0 = 0;
  std::uint32_t bytes_returned = 0;
  bool operator==(const Outcome&) const = default;
};

struct Cell {
  std::uint64_t tlps = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t wire_bytes = 0;
  bool operator==(const Cell&) const = default;
};

/// What one run of the stream produced.
struct RunRecord {
  std::vector<Outcome> outcomes;
  /// Indexed by direction * TrafficClass::kCount_ + class.
  std::vector<Cell> traffic;
  Nanoseconds end_ns = 0;
  std::size_t trace_events = 0;
  /// obs::TraceRecorder::dump() of the whole run (empty untraced).
  std::string trace_dump;
};

struct StreamOptions {
  std::uint64_t seed = 0xd1ff;
  std::uint32_t writes = 3'000;
  /// One read-back of the device scratch after every `read_every` writes.
  std::uint32_t read_every = 3;
  std::uint32_t max_payload_bytes = 2048;
};

/// Drives the seeded stream through a testbed built from `config`: raw
/// writes of random length over six methods, spread over the I/O queues,
/// and a read of the last write's bytes after every `read_every` writes.
RunRecord run_stream(const TestbedConfig& config,
                     const StreamOptions& options) {
  static constexpr TransferMethod kMethods[] = {
      TransferMethod::kPrp,           TransferMethod::kSgl,
      TransferMethod::kByteExpress,   TransferMethod::kByteExpressOoo,
      TransferMethod::kBandSlim,      TransferMethod::kHybrid,
  };
  Testbed bed(config);
  std::mt19937_64 rng(options.seed);
  RunRecord record;
  const auto note = [&record](const driver::Completion& completion) {
    record.outcomes.push_back({completion.status.encode(),
                               completion.latency_ns, completion.dw0,
                               completion.bytes_returned});
  };
  const auto queue_count = config.driver.io_queue_count;

  for (std::uint32_t i = 0; i < options.writes; ++i) {
    ByteVec payload(1 + rng() % options.max_payload_bytes);
    fill_pattern(payload, rng());
    IoRequest write;
    write.write_data = ConstByteSpan(payload);
    write.method = kMethods[rng() % std::size(kMethods)];
    const auto qid = static_cast<std::uint16_t>(1 + rng() % queue_count);
    auto written = bed.driver().execute(write, qid);
    EXPECT_TRUE(written.is_ok()) << written.status().to_string();
    if (!written.is_ok()) return record;
    note(*written);

    if ((i + 1) % options.read_every != 0) continue;
    ByteVec out(payload.size());
    IoRequest read;
    read.opcode = nvme::IoOpcode::kVendorRawRead;
    read.read_buffer = out;
    read.method = rng() % 2 == 0 ? TransferMethod::kPrp : TransferMethod::kSgl;
    auto done = bed.driver().execute(
        read, static_cast<std::uint16_t>(1 + rng() % queue_count));
    EXPECT_TRUE(done.is_ok()) << done.status().to_string();
    if (!done.is_ok()) return record;
    note(*done);
    EXPECT_EQ(out, payload) << "read after write " << i;
  }

  for (const Direction dir : {Direction::kDownstream, Direction::kUpstream}) {
    for (std::size_t cls = 0; cls < std::size_t(TrafficClass::kCount_);
         ++cls) {
      const pcie::TrafficCell cell =
          bed.traffic().cell(dir, static_cast<TrafficClass>(cls));
      record.traffic.push_back({cell.tlps, cell.data_bytes, cell.wire_bytes});
    }
  }
  record.end_ns = bed.clock().now();
  const std::vector<obs::TraceEvent> events = bed.trace().snapshot();
  record.trace_events = events.size();
  record.trace_dump = obs::TraceRecorder::dump(events);
  return record;
}

/// The first line where two dumps differ, for a readable failure.
std::string first_difference(const std::string& a, const std::string& b) {
  std::size_t at = 0;
  while (at < a.size() && at < b.size() && a[at] == b[at]) ++at;
  const std::size_t line = a.rfind('\n', at) + 1;  // 0 when none before
  const auto line_of = [line](const std::string& dump) {
    return dump.substr(line, dump.find('\n', line) - line);
  };
  return line_of(a) + "\n vs\n" + line_of(b);
}

void expect_same_run(const RunRecord& a, const RunRecord& b) {
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const Outcome& x = a.outcomes[i];
    const Outcome& y = b.outcomes[i];
    if (x == y) continue;
    ADD_FAILURE() << "first differing op " << i << ": status " << x.status
                  << " vs " << y.status << ", latency " << x.latency_ns
                  << " vs " << y.latency_ns << " ns, dw0 " << x.dw0
                  << " vs " << y.dw0 << ", bytes returned "
                  << x.bytes_returned << " vs " << y.bytes_returned;
    break;
  }
  ASSERT_EQ(a.traffic.size(), b.traffic.size());
  for (std::size_t i = 0; i < a.traffic.size(); ++i) {
    EXPECT_TRUE(a.traffic[i] == b.traffic[i])
        << "direction " << i / std::size_t(TrafficClass::kCount_)
        << ", class "
        << pcie::traffic_class_name(static_cast<TrafficClass>(
               i % std::size_t(TrafficClass::kCount_)));
  }
  EXPECT_EQ(a.end_ns, b.end_ns);
  if (!a.trace_dump.empty() && !b.trace_dump.empty()) {
    EXPECT_TRUE(a.trace_dump == b.trace_dump)
        << "first differing trace line:\n"
        << first_difference(a.trace_dump, b.trace_dump);
  }
}

TEST(Differential, TraceOnAndOffRunIdentically) {
  const StreamOptions options;
  TestbedConfig traced = test::small_testbed_config(2);
  traced.trace_enabled = true;
  TestbedConfig untraced = traced;
  untraced.trace_enabled = false;

  const RunRecord on = run_stream(traced, options);
  const RunRecord off = run_stream(untraced, options);
  // The stream ran in full, and the pair really differs in what it
  // records.
  ASSERT_EQ(on.outcomes.size(),
            options.writes + options.writes / options.read_every);
  EXPECT_GT(on.trace_events, 0u);
  EXPECT_EQ(off.trace_events, 0u);
  for (const Outcome& outcome : on.outcomes) {
    EXPECT_EQ(outcome.status, nvme::StatusField::success().encode());
  }
  expect_same_run(on, off);
}

TEST(Differential, TelemetryOnAndOffRunIdentically) {
  const StreamOptions options;
  TestbedConfig sampled = test::small_testbed_config(2);
  sampled.telemetry.window_ns = 1'000;
  TestbedConfig unsampled = sampled;
  unsampled.telemetry.enabled = false;

  const RunRecord on = run_stream(sampled, options);
  const RunRecord off = run_stream(unsampled, options);
  ASSERT_EQ(on.outcomes.size(),
            options.writes + options.writes / options.read_every);
  // Both runs trace, so the dumps are compared event by event.
  ASSERT_GT(on.trace_events, 0u);
  EXPECT_EQ(on.trace_events, off.trace_events);
  expect_same_run(on, off);
}

}  // namespace
}  // namespace bx::core
