// Table 1 — the overheads ByteExpress introduces, measured at the two
// stages the paper instruments:
//   * driver SQ submit: time spent inserting the SQE (and inline chunks)
//     into the submission queue, lock held,
//   * controller SQ fetch: time to DMA-fetch and decode the SQE (and
//     inline chunks) — firmware plus link round trips.
#include <cstdio>

#include "bench_common.h"

using namespace bx;         // NOLINT(google-build-using-namespace)
using namespace bx::bench;  // NOLINT(google-build-using-namespace)

namespace {

struct Row {
  const char* label;
  const char* paper_submit;
  const char* paper_fetch;
  driver::TransferMethod method;
  std::uint32_t payload;
};

}  // namespace

int main(int argc, char** argv) {
  const BenchEnv env = BenchEnv::from_args(argc, argv);
  print_banner(env, "Table 1 — ByteExpress stage overheads",
               "Table 1 (driver SQ submit / controller SQ fetch)");

  core::Testbed testbed(env.testbed_config());
  // Controller fetch time so far: the stage ledger's SQE and chunk fetches.
  const auto fetch_ns = [&testbed] {
    const nvme::StageStatsLog log = testbed.controller().stage_stats();
    return log.sqe_fetch.total_ns + log.chunk_fetch.total_ns;
  };

  const Row rows[] = {
      {"NVMe PRP (ALL)", "~60ns", "~2400ns", driver::TransferMethod::kPrp,
       64},
      {"ByteExpress (64B)", "~100ns", "~2800ns",
       driver::TransferMethod::kByteExpress, 64},
      {"ByteExpress (128B)", "~130ns", "~3200ns",
       driver::TransferMethod::kByteExpress, 128},
      {"ByteExpress (256B)", "~180ns", "~4000ns",
       driver::TransferMethod::kByteExpress, 256},
  };

  std::printf("%-20s %-22s %-24s\n", "System", "Driver SQ Submit",
              "Controller SQ Fetch");
  std::printf("%-20s %-10s %-11s %-11s %-12s\n", "", "measured", "(paper)",
              "measured", "(paper)");
  for (const Row& row : rows) {
    ByteVec payload(row.payload);
    fill_pattern(payload, row.payload);
    // Average the stage costs over many commands.
    const int kOps = static_cast<int>(env.ops / 10) + 1;
    std::uint64_t submit_total = 0;
    const std::uint64_t fetch_before = fetch_ns();
    for (int i = 0; i < kOps; ++i) {
      auto completion = testbed.raw_write(payload, row.method);
      BX_ASSERT(completion.is_ok() && completion->ok());
      submit_total += testbed.driver().last_submit_cost();
    }
    const std::uint64_t fetch_total = fetch_ns() - fetch_before;
    std::printf("%-20s %-10llu %-11s %-11llu %-12s\n", row.label,
                static_cast<unsigned long long>(submit_total / kOps),
                row.paper_submit,
                static_cast<unsigned long long>(fetch_total / kOps),
                row.paper_fetch);
  }
  print_note("per-chunk anchors: insert ~35ns (paper ~30ns); fetch ~680ns "
             "of which ~330ns is the Gen2 x8 link round trip");
  print_note("fetch magnitudes calibrated to the Table 1 shape; see "
             "EXPERIMENTS.md for the derivation");
  return 0;
}
