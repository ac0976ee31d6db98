// Ablation — the read direction. The original ByteExpress SQ carries
// host->device data only, so reads were left to the native mechanisms;
// ByteExpress-R closes that gap by returning small read payloads as
// chunk MWr TLPs into a per-queue host completion ring (docs/READPATH.md).
// This sweep quantifies what small READS cost under the inline completion
// ring vs PRP (page-granular return), SGL (exact-sized return), and SGL
// bit-bucket probes (no data return at all, §5).
//
// Reported wire/data bytes are DEVICE->HOST (upstream) only — the
// direction a read pays for — so the BENCH_ablation_read_path.json rows
// feed the CI gate directly: at 512 B the inline ring must move >= 3x
// fewer upstream wire bytes per GET than PRP.
#include <cstdio>
#include <cstring>

#include "bench_common.h"

using namespace bx;         // NOLINT(google-build-using-namespace)
using namespace bx::bench;  // NOLINT(google-build-using-namespace)

namespace {

struct Mode {
  const char* name;     // row label prefix and table column
  const char* method;   // BENCH_*.json "method" field
  bool inline_ring;     // run on the inline-enabled testbed
  driver::TransferMethod transfer;
  bool bitbucket;
};

constexpr Mode kModes[] = {
    {"inline", "byteexpress-r", true, driver::TransferMethod::kPrp, false},
    {"prp", "prp", false, driver::TransferMethod::kPrp, false},
    {"sgl", "sgl", false, driver::TransferMethod::kSgl, false},
    {"bitbucket", "sgl", false, driver::TransferMethod::kSgl, true},
};

void seed_values(core::Testbed& testbed,
                 const std::vector<std::uint32_t>& sizes) {
  auto writer = testbed.make_kv_client(driver::TransferMethod::kPrp);
  for (const std::uint32_t size : sizes) {
    ByteVec value(size);
    fill_pattern(value, size);
    BX_ASSERT(writer.put("rd" + std::to_string(size), value).is_ok());
  }
}

core::RunStats run_gets(core::Testbed& testbed, const Mode& mode,
                        std::uint32_t size, std::uint64_t ops) {
  const std::string key = "rd" + std::to_string(size);
  testbed.reset_counters();
  const Nanoseconds start = testbed.clock().now();
  core::RunStats stats;
  stats.label = std::string(mode.name) + "_" + std::to_string(size);
  stats.method = mode.method;
  stats.ops = ops;
  stats.payload_bytes = std::uint64_t{ops} * size;
  ByteVec buffer(size);
  for (std::uint64_t i = 0; i < ops; ++i) {
    driver::IoRequest read;
    read.opcode = nvme::IoOpcode::kVendorKvRetrieve;
    read.method = mode.transfer;
    read.discard_read_data = mode.bitbucket;
    read.read_buffer = buffer;
    nvme::KvKeyFields key_fields;
    key_fields.key_len = static_cast<std::uint8_t>(key.size());
    std::memcpy(key_fields.key, key.data(), key.size());
    read.key = key_fields;
    auto completion = testbed.driver().execute(read, 1);
    BX_ASSERT(completion.is_ok() && completion->ok());
    BX_ASSERT(completion->dw0 == size);  // value size always reported
    stats.latency.record(completion->latency_ns);
  }
  // Upstream only: the direction the read's payload travels.
  const pcie::TrafficCell up =
      testbed.traffic().total(pcie::Direction::kUpstream);
  stats.wire_bytes = up.wire_bytes;
  stats.data_bytes = up.data_bytes;
  stats.total_time_ns = testbed.clock().now() - start;
  report_row(testbed, stats);
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  const BenchEnv env = BenchEnv::from_args(argc, argv);
  print_banner(env,
               "Ablation — small READS: inline completion ring vs PRP vs "
               "SGL vs SGL bit-bucket (KV retrieve path)",
               "read-direction counterpart of Fig 5 (ByteExpress-R)");

  core::Testbed inline_bed(env.testbed_config());
  core::TestbedConfig native_config = env.testbed_config();
  native_config.driver.inline_read_enabled = false;
  core::Testbed native_bed(native_config);

  // 4000 is the KV engine's max value (one page) — still under the
  // 4 KiB inline read cap, so every row can go through the ring.
  const std::vector<std::uint32_t> sizes = {32,  64,   128,  256,
                                            512, 1024, 2048, 4000};
  seed_values(inline_bed, sizes);
  seed_values(native_bed, sizes);

  std::printf("%-8s | %-43s | %-9s\n", "",
              "upstream wire bytes per GET", "inline");
  std::printf("%-8s | %-10s %-10s %-10s %-10s | %-9s\n", "value", "inline",
              "prp", "sgl", "bitbucket", "vs prp");

  const std::uint64_t ops = env.ops / 8 + 1;
  for (const std::uint32_t size : sizes) {
    double wire_per_op[4];
    for (std::size_t m = 0; m < 4; ++m) {
      const Mode& mode = kModes[m];
      core::Testbed& bed = mode.inline_ring ? inline_bed : native_bed;
      const core::RunStats stats = run_gets(bed, mode, size, ops);
      wire_per_op[m] = stats.wire_bytes_per_op();
    }
    std::printf("%-8u | %-10.0f %-10.0f %-10.0f %-10.0f | %-8.2fx\n", size,
                wire_per_op[0], wire_per_op[1], wire_per_op[2],
                wire_per_op[3],
                wire_per_op[0] > 0 ? wire_per_op[1] / wire_per_op[0] : 0.0);
  }
  print_note("inline: one 96 B chunk MWr per 48 B of value + CQE + MSI-X; "
             "PRP returns whole pages even for 32 B values; SGL returns "
             "exactly the value; a bit-bucket probe returns only the CQE");
  print_note("above max_inline_read_bytes (4 KiB) the driver falls back "
             "to the native method (covered by tests/inline_read_test.cc; "
             "KV values cap at one page so the sweep tops out at 4000 B)");
  print_note("CI gates on the 512 B rows: inline upstream wire/op * 3 <= "
             "prp upstream wire/op (BENCH_ablation_read_path.json)");
  return 0;
}
