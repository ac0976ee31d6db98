// Traffic inspector: a small tool that prints, for one write of a chosen
// size under every transfer method, the full per-class PCIe traffic
// breakdown and the stage timings — the "what actually crossed the link"
// view behind every figure in the paper.
//
//   $ ./traffic_inspector            # default 128-byte payload
//   $ ./traffic_inspector size=1024 pcie.gen=4
#include <cstdio>

#include "common/config.h"
#include "core/testbed.h"

int main(int argc, char** argv) {
  using namespace bx;  // NOLINT(google-build-using-namespace)

  Config config;
  if (!config.parse_args(argc, argv).is_ok()) {
    std::fprintf(stderr, "usage: traffic_inspector [size=N] [pcie.gen=G]\n");
    return 2;
  }
  const auto size =
      static_cast<std::uint32_t>(config.get_int("size", 128));

  core::TestbedConfig testbed_config;
  testbed_config.link.generation =
      static_cast<int>(config.get_int("pcie.gen", 2));
  testbed_config.link.lanes =
      static_cast<int>(config.get_int("pcie.lanes", 8));
  core::Testbed testbed(testbed_config);

  ByteVec payload(size);
  fill_pattern(payload, size);

  std::printf("one %u-byte write per method over PCIe Gen%d x%d\n\n", size,
              testbed_config.link.generation, testbed_config.link.lanes);

  for (const driver::TransferMethod method :
       {driver::TransferMethod::kPrp, driver::TransferMethod::kSgl,
        driver::TransferMethod::kBandSlim,
        driver::TransferMethod::kByteExpress,
        driver::TransferMethod::kByteExpressOoo}) {
    testbed.reset_counters();
    const nvme::StageStatsLog before = testbed.controller().stage_stats();
    auto completion = testbed.raw_write(payload, method);
    const nvme::StageStatsLog after = testbed.controller().stage_stats();
    if (!completion.is_ok() || !completion->ok()) {
      std::fprintf(stderr, "write failed for method %s\n",
                   std::string(driver::transfer_method_name(method)).c_str());
      return 1;
    }
    // Every SQE and chunk fetch of the write: a BandSlim write counts all
    // of its fragment commands, an OOO write all of its chunk slots.
    const std::uint64_t fetch_ns =
        after.sqe_fetch.total_ns + after.chunk_fetch.total_ns -
        before.sqe_fetch.total_ns - before.chunk_fetch.total_ns;
    std::printf("=== %-16s latency %llu ns  (submit stage %llu ns, fetch "
                "stage %llu ns)\n",
                std::string(driver::transfer_method_name(method)).c_str(),
                static_cast<unsigned long long>(completion->latency_ns),
                static_cast<unsigned long long>(
                    testbed.driver().last_submit_cost()),
                static_cast<unsigned long long>(fetch_ns));
    std::printf("%s\n", testbed.traffic().breakdown().c_str());
  }
  return 0;
}
