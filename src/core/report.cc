#include "core/report.h"

#include <cstdarg>
#include <cstdio>

namespace bx::core {

namespace {

void line(std::string& out, const char* format, ...) {
  char buffer[256];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  out += buffer;
  out += '\n';
}

}  // namespace

std::string system_report(Testbed& testbed) {
  std::string out;
  line(out, "=== system report @ %llu ns ===",
       static_cast<unsigned long long>(testbed.clock().now()));

  out += "\n--- PCIe traffic ---\n";
  out += testbed.traffic().breakdown();

  const auto stats = testbed.controller().transfer_stats();
  out += "\n--- controller ---\n";
  line(out, "commands=%llu inline_chunks=%llu bandslim_fragments=%llu",
       static_cast<unsigned long long>(stats.commands_processed),
       static_cast<unsigned long long>(stats.inline_chunks_fetched),
       static_cast<unsigned long long>(stats.bandslim_fragments));
  line(out, "prp_dma=%llu sgl_dma=%llu completions=%llu ooo_reassembled=%llu",
       static_cast<unsigned long long>(stats.prp_transactions),
       static_cast<unsigned long long>(stats.sgl_transactions),
       static_cast<unsigned long long>(stats.completions_posted),
       static_cast<unsigned long long>(stats.ooo_payloads_reassembled));
  const nvme::StageStatsLog stages = testbed.controller().stage_stats();
  line(out, "fetch stage: sqe=%llu (%llu ns) chunks=%llu (%llu ns)",
       static_cast<unsigned long long>(stages.sqe_fetch.count),
       static_cast<unsigned long long>(stages.sqe_fetch.total_ns),
       static_cast<unsigned long long>(stages.chunk_fetch.count),
       static_cast<unsigned long long>(stages.chunk_fetch.total_ns));

  auto& device = testbed.device();
  out += "\n--- NAND / FTL ---\n";
  line(out, "programs=%llu reads=%llu erases=%llu",
       static_cast<unsigned long long>(device.nand().programs()),
       static_cast<unsigned long long>(device.nand().reads()),
       static_cast<unsigned long long>(device.nand().erases()));
  line(out, "user_writes=%llu gc_relocations=%llu waf=%.2f retired=%llu",
       static_cast<unsigned long long>(device.ftl().user_writes()),
       static_cast<unsigned long long>(device.ftl().gc_relocations()),
       device.ftl().waf(),
       static_cast<unsigned long long>(device.ftl().retired_blocks()));

  auto& kv = device.kv_engine();
  out += "\n--- KV engine ---\n";
  line(out, "puts=%llu gets=%llu flushes=%llu compactions=%llu runs=%zu",
       static_cast<unsigned long long>(kv.puts()),
       static_cast<unsigned long long>(kv.gets()),
       static_cast<unsigned long long>(kv.flushes()),
       static_cast<unsigned long long>(kv.compactions()), kv.run_count());
  line(out, "memtable=%zu B, open_iterators=%zu", kv.memtable_bytes(),
       kv.open_iterators());
  return out;
}

}  // namespace bx::core
