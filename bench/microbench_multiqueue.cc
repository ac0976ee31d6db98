// Multi-queue scaling microbenchmark, two modes in one binary:
//
// 1. Default (custom main): a deterministic *simulated-time* sweep over
//    queue counts {1, 4, 16} x submission depth {1, 8}. Each data point
//    round-robins coalesced batches (NvmeDriver::submit_batch) across
//    every I/O queue and reads the doorbell MWr count straight from the
//    BAR model, so `doorbells_per_op` is ground truth, not an estimate.
//    Results go to BENCH_multiqueue.json (override: scaling_json=PATH)
//    and two gates are enforced on exit status for CI:
//      - doorbells/op at depth 8 must stay under 0.5 on every queue count
//      - depth-8 simulated throughput must not regress vs depth 1
//    Knobs: ops=N (commands per data point), payload=BYTES, gates=0|1.
//
// 2. With any --benchmark* flag (google-benchmark): the original
//    wall-clock contention benchmark — N real threads issue synchronous
//    raw writes, sharded across queues or hammering one queue.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/testbed.h"
#include "driver/nvme_driver.h"

namespace {

using bx::Byte;
using bx::ByteVec;
using bx::core::Testbed;
using bx::core::TestbedConfig;
using bx::driver::TransferMethod;

// ------------------------------------------------ simulated-time scaling

struct ScalingOptions {
  std::uint64_t ops = 20'000;  // commands per (queues, depth) point
  std::uint32_t payload = 64;
  std::string json_path = "BENCH_multiqueue.json";
  bool gates = true;
};

struct ScalingPoint {
  std::uint16_t queues = 0;
  std::uint32_t depth = 0;
  std::uint64_t commands = 0;
  std::uint64_t sq_doorbells = 0;
  std::uint64_t sq_entries = 0;
  std::uint64_t sim_ns = 0;

  [[nodiscard]] double doorbells_per_op() const {
    return commands == 0 ? 0.0
                         : double(sq_doorbells) / double(commands);
  }
  [[nodiscard]] double ops_per_sec() const {
    return sim_ns == 0 ? 0.0 : double(commands) * 1e9 / double(sim_ns);
  }
};

TestbedConfig scaling_config(std::uint16_t queues) {
  TestbedConfig config;
  config.ssd.geometry.channels = 2;
  config.ssd.geometry.ways = 2;
  config.ssd.geometry.blocks_per_die = 64;
  config.ssd.geometry.pages_per_block = 64;
  config.driver.io_queue_count = queues;
  return config;
}

ScalingPoint run_point(std::uint16_t queues, std::uint32_t depth,
                       const ScalingOptions& options) {
  Testbed bed(scaling_config(queues));
  ByteVec payload(options.payload);
  bx::fill_pattern(payload, 0x42);

  bx::driver::IoRequest request;
  request.opcode = bx::nvme::IoOpcode::kVendorRawWrite;
  request.method = TransferMethod::kByteExpress;
  request.write_data = {payload.data(), payload.size()};
  std::vector<bx::driver::IoRequest> batch(depth, request);

  std::vector<std::uint64_t> bells_before(queues + 1, 0);
  for (std::uint16_t qid = 1; qid <= queues; ++qid) {
    bells_before[qid] = bed.bar().sq_doorbell_writes(qid);
  }
  const auto t0 = bed.clock().now();

  const std::uint64_t rounds =
      std::max<std::uint64_t>(1, options.ops / (std::uint64_t(queues) * depth));
  std::vector<bx::driver::Submitted> handles;
  for (std::uint64_t round = 0; round < rounds; ++round) {
    handles.clear();
    // Submit one coalesced batch per queue before reaping anything, so
    // device-side processing overlaps across queues in simulated time.
    for (std::uint16_t qid = 1; qid <= queues; ++qid) {
      auto result =
          bed.driver().submit_batch({batch.data(), batch.size()}, qid);
      if (!result.is_ok()) {
        std::fprintf(stderr, "submit_batch(q=%u,d=%u): %s\n", qid, depth,
                     std::string(result.status().message()).c_str());
        std::exit(2);
      }
      handles.insert(handles.end(), result->handles.begin(),
                     result->handles.end());
    }
    for (const bx::driver::Submitted& handle : handles) {
      auto completion = bed.driver().wait(handle);
      if (!completion.is_ok() || !completion->ok()) {
        std::fprintf(stderr, "write failed (q=%u,d=%u)\n, ", handle.qid,
                     depth);
        std::exit(2);
      }
    }
  }

  ScalingPoint point;
  point.queues = queues;
  point.depth = depth;
  point.commands = rounds * std::uint64_t(queues) * depth;
  point.sim_ns = static_cast<std::uint64_t>(bed.clock().now() - t0);
  for (std::uint16_t qid = 1; qid <= queues; ++qid) {
    point.sq_doorbells +=
        bed.bar().sq_doorbell_writes(qid) - bells_before[qid];
  }
  point.sq_entries =
      bed.metrics().counter_value("driver.batched_commands");
  return point;
}

std::string render_scaling_json(const ScalingOptions& options,
                                const std::vector<ScalingPoint>& points) {
  std::string out;
  char buf[256];
  out += "{\n  \"schema_version\": 1,\n  \"bench\": \"microbench_multiqueue\",\n";
  std::snprintf(buf, sizeof buf,
                "  \"config\": {\"ops_per_point\": %llu, \"payload\": %u, "
                "\"method\": \"byteexpress\"},\n",
                static_cast<unsigned long long>(options.ops),
                options.payload);
  out += buf;
  out += "  \"rows\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const ScalingPoint& p = points[i];
    std::snprintf(
        buf, sizeof buf,
        "    {\"queues\": %u, \"depth\": %u, \"commands\": %llu, "
        "\"sq_doorbells\": %llu, \"doorbells_per_op\": %.4f, "
        "\"sim_ns\": %llu, \"ops_per_sec\": %.1f}%s\n",
        p.queues, p.depth, static_cast<unsigned long long>(p.commands),
        static_cast<unsigned long long>(p.sq_doorbells),
        p.doorbells_per_op(), static_cast<unsigned long long>(p.sim_ns),
        p.ops_per_sec(), i + 1 < points.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

int run_scaling(const ScalingOptions& options) {
  constexpr std::uint16_t kQueueSweep[] = {1, 4, 16};
  constexpr std::uint32_t kDepthSweep[] = {1, 8};

  std::printf("multiqueue scaling sweep (simulated time, %llu ops/point, "
              "%u B inline writes)\n",
              static_cast<unsigned long long>(options.ops),
              options.payload);
  std::printf("%8s %6s %10s %10s %14s %12s\n", "queues", "depth",
              "commands", "bells", "bells/op", "Mops/s(sim)");

  std::vector<ScalingPoint> points;
  for (const std::uint16_t queues : kQueueSweep) {
    for (const std::uint32_t depth : kDepthSweep) {
      const ScalingPoint point = run_point(queues, depth, options);
      std::printf("%8u %6u %10llu %10llu %14.4f %12.3f\n", point.queues,
                  point.depth,
                  static_cast<unsigned long long>(point.commands),
                  static_cast<unsigned long long>(point.sq_doorbells),
                  point.doorbells_per_op(), point.ops_per_sec() / 1e6);
      points.push_back(point);
    }
  }

  std::ofstream file(options.json_path);
  file << render_scaling_json(options, points);
  file.close();
  std::printf("wrote %s\n", options.json_path.c_str());

  if (!options.gates) return 0;
  // CI gates: batching must actually coalesce (< 0.5 doorbells/op at
  // depth 8) and must never cost simulated throughput vs depth 1.
  int failures = 0;
  for (const std::uint16_t queues : kQueueSweep) {
    const ScalingPoint* d1 = nullptr;
    const ScalingPoint* d8 = nullptr;
    for (const ScalingPoint& p : points) {
      if (p.queues != queues) continue;
      if (p.depth == 1) d1 = &p;
      if (p.depth == 8) d8 = &p;
    }
    if (d8->doorbells_per_op() >= 0.5) {
      std::fprintf(stderr,
                   "GATE FAIL: %u queues depth 8: %.4f doorbells/op "
                   "(must be < 0.5)\n",
                   queues, d8->doorbells_per_op());
      ++failures;
    }
    if (d8->ops_per_sec() < d1->ops_per_sec()) {
      std::fprintf(stderr,
                   "GATE FAIL: %u queues: depth 8 throughput %.0f ops/s "
                   "regressed vs depth 1 %.0f ops/s\n",
                   queues, d8->ops_per_sec(), d1->ops_per_sec());
      ++failures;
    }
  }

  if (failures == 0) std::printf("gates: PASS\n");
  return failures == 0 ? 0 : 1;
}

// ------------------------------------------- wall-clock contention mode

constexpr std::uint16_t kIoQueues = 4;

// google-benchmark runs the same function on every thread; the testbed is
// shared across them (that sharing is the thing under test), created by
// the first thread in and destroyed by the last one out.
std::unique_ptr<Testbed> g_testbed;
std::mutex g_setup_mutex;

void setup(const benchmark::State& state) {
  if (state.thread_index() == 0) {
    std::lock_guard<std::mutex> lock(g_setup_mutex);
    g_testbed = std::make_unique<Testbed>(scaling_config(kIoQueues));
  }
}

void teardown(const benchmark::State& state) {
  if (state.thread_index() == 0) {
    std::lock_guard<std::mutex> lock(g_setup_mutex);
    g_testbed.reset();
  }
}

void BM_MultiQueueWrite(benchmark::State& state, TransferMethod method,
                        bool shard_queues) {
  setup(state);
  const auto qid = static_cast<std::uint16_t>(
      shard_queues ? 1 + state.thread_index() % kIoQueues : 1);
  ByteVec payload(static_cast<std::size_t>(state.range(0)));
  bx::fill_pattern(payload, 1 + state.thread_index());
  for (auto _ : state) {
    auto completion = g_testbed->raw_write(payload, method, qid);
    benchmark::DoNotOptimize(completion);
    if (!completion.is_ok() || !completion->ok()) {
      state.SkipWithError("write failed");
      break;
    }
  }
  state.SetBytesProcessed(
      static_cast<std::int64_t>(state.iterations()) * state.range(0));
  teardown(state);
}

}  // namespace

BENCHMARK_CAPTURE(BM_MultiQueueWrite, inline_sharded,
                  TransferMethod::kByteExpress, true)
    ->Arg(64)
    ->Arg(1024)
    ->ThreadRange(1, 8)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_MultiQueueWrite, prp_sharded, TransferMethod::kPrp,
                  true)
    ->Arg(64)
    ->Arg(1024)
    ->ThreadRange(1, 8)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_MultiQueueWrite, inline_single_queue,
                  TransferMethod::kByteExpress, false)
    ->Arg(64)
    ->ThreadRange(1, 8)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_MultiQueueWrite, bandslim_sharded,
                  TransferMethod::kBandSlim, true)
    ->Arg(64)
    ->ThreadRange(1, 8)
    ->UseRealTime();

int main(int argc, char** argv) {
  bool benchmark_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--benchmark", 11) == 0) {
      benchmark_mode = true;
    }
  }
  if (benchmark_mode) {
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
  }

  ScalingOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (eq == std::string::npos) {
      std::fprintf(stderr, "unknown arg: %s (expected key=value)\n",
                   arg.c_str());
      return 2;
    }
    const std::string key = arg.substr(0, eq);
    const std::string value = arg.substr(eq + 1);
    if (key == "ops") {
      options.ops = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "payload") {
      options.payload =
          static_cast<std::uint32_t>(std::strtoul(value.c_str(), nullptr, 10));
    } else if (key == "scaling_json") {
      options.json_path = value;
    } else if (key == "gates") {
      options.gates = value != "0";
    } else {
      std::fprintf(stderr, "unknown key: %s\n", key.c_str());
      return 2;
    }
  }
  return run_scaling(options);
}
