// Wall-clock microbenchmarks (google-benchmark) of the host-side hot
// paths. Unlike the fig*/table* binaries — which report *simulated* time —
// these measure the real CPU cost of this library's driver code paths:
// SQE construction, inline chunk insertion, PRP chain building, and the
// full single-command round trip through the simulated device.
#include <benchmark/benchmark.h>

#include "core/testbed.h"
#include "workload/mixgraph.h"

namespace {

using bx::ByteVec;
using bx::core::Testbed;
using bx::core::TestbedConfig;
using bx::driver::TransferMethod;

TestbedConfig bench_config() {
  TestbedConfig config;
  config.ssd.geometry.channels = 2;
  config.ssd.geometry.ways = 2;
  config.ssd.geometry.blocks_per_die = 64;
  config.ssd.geometry.pages_per_block = 64;
  // Hot-path purity: with the sampler off no component holds a Telemetry
  // pointer, so the residual cost is one null check per link primitive.
  // BM_RawWriteTelemetry measures the enabled delta.
  config.telemetry.enabled = false;
  return config;
}

void BM_RawWrite(benchmark::State& state, TransferMethod method) {
  Testbed testbed(bench_config());
  ByteVec payload(static_cast<std::size_t>(state.range(0)));
  bx::fill_pattern(payload, 1);
  for (auto _ : state) {
    auto completion = testbed.raw_write(payload, method);
    benchmark::DoNotOptimize(completion);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * state.range(0));
}

void BM_RawWriteTelemetry(benchmark::State& state, TransferMethod method) {
  TestbedConfig config = bench_config();
  config.telemetry.enabled = true;
  Testbed testbed(config);
  ByteVec payload(static_cast<std::size_t>(state.range(0)));
  bx::fill_pattern(payload, 1);
  for (auto _ : state) {
    auto completion = testbed.raw_write(payload, method);
    benchmark::DoNotOptimize(completion);
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * state.range(0));
}

void BM_PrpChainBuild(benchmark::State& state) {
  bx::DmaMemory memory;
  const auto length = static_cast<std::uint64_t>(state.range(0));
  bx::DmaBuffer buffer = memory.allocate(length);
  for (auto _ : state) {
    auto chain = bx::nvme::build_prp_chain(memory, buffer.addr(), length);
    benchmark::DoNotOptimize(chain);
  }
}

void BM_KvPut(benchmark::State& state) {
  Testbed testbed(bench_config());
  auto client = testbed.make_kv_client(TransferMethod::kByteExpress);
  ByteVec value(static_cast<std::size_t>(state.range(0)));
  bx::fill_pattern(value, 2);
  std::uint64_t i = 0;
  for (auto _ : state) {
    const bx::Status status =
        client.put(bx::workload::make_key(i++ % 4096), value);
    benchmark::DoNotOptimize(status);
  }
}

// One advance_to across N windows after one counter moved: the first
// window is a sample, the other N - 1 are idle, as when a NAND operation
// moves the clock across several windows in one step. The cost of an
// idle window, /64 against /1, is what CI gates.
void BM_TelemetryAdvance(benchmark::State& state) {
  Testbed testbed;  // telemetry on: 10 us windows, 65,536 kept
  bx::obs::Telemetry& telemetry = testbed.telemetry();
  const bx::Nanoseconds window = telemetry.config().window_ns;
  const auto windows = static_cast<bx::Nanoseconds>(state.range(0));
  bx::Nanoseconds now = telemetry.next_close_ns() - window;
  for (auto _ : state) {
    testbed.traffic().record(bx::pcie::Direction::kDownstream,
                             bx::pcie::TrafficClass::kDoorbell,
                             bx::pcie::TlpType::kMemoryWrite, 1, 4, 28);
    now += windows * window;
    telemetry.advance_to(now);
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_RawWrite, prp, TransferMethod::kPrp)
    ->Arg(64)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_RawWrite, byteexpress, TransferMethod::kByteExpress)
    ->Arg(64)
    ->Arg(4096);
BENCHMARK_CAPTURE(BM_RawWrite, bandslim, TransferMethod::kBandSlim)
    ->Arg(64);
// At 4096 B the sampler splits each chunk run into steps at the reads
// that close a window: the wall-clock cost of the split path.
BENCHMARK_CAPTURE(BM_RawWriteTelemetry, byteexpress,
                  TransferMethod::kByteExpress)
    ->Arg(64)
    ->Arg(4096);
BENCHMARK(BM_TelemetryAdvance)->Arg(1)->Arg(64);
BENCHMARK(BM_PrpChainBuild)->Arg(4096)->Arg(65536)->Arg(1 << 20);
BENCHMARK(BM_KvPut)->Arg(64)->Arg(1024);
