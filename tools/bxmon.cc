// bxmon — PCM-style run reporter for the ByteExpress testbed.
//
// Two modes:
//   * run (default): builds a Testbed, drives a closed-loop QD>1 write
//     workload across every requested transfer method on the configured
//     I/O queues (plus an optional reads=N raw-read phase that exercises
//     the ByteExpress-R inline-read ring), then renders the telemetry
//     windows as a utilization/QD table, a per-method traffic summary,
//     the per-method wait/service attribution table (driver.wait.*
//     histograms, docs/OBSERVABILITY.md) and the inline-read counter
//     section. `bxmon waits` (or waits=1) skips the window/traffic
//     tables and prints just the attribution view. Optional exports:
//       perfetto=<file>  Chrome trace_event JSON (open in ui.perfetto.dev)
//       prom=<file>      Prometheus text exposition snapshot
//       tsv=<file>       raw window dump (Telemetry::dump_tsv)
//     Every export is self-checked (structural checker / format lint)
//     before it is written; a failed check is a fatal error.
//   * ingest: input=<file.tsv> re-renders a previous run's dump without
//     simulating anything (the header embeds the link rate).
//
// Examples:
//   bxmon ops=5000 qd=8 queues=4 payload=256 perfetto=run.json prom=run.prom
//   bxmon methods=prp,byteexpress payload=1024 window=5000
//   bxmon batch=8 ops=4000   (coalesced submit_batch groups; the doorbell
//     coalescing section shows entries/doorbell per queue)
//   bxmon waits ops=4000 qd=16   (attribution only: per-method wait
//     segment table — gate/ring/slot/bell/arb/service/reassembly/delivery)
//   bxmon reads=2000 payload=256   (raw-read phase after the writes; the
//     inline-read section shows ring attempts/chunks/crc/fallbacks)
//   bxmon input=run.tsv
//   bxmon fault.rate=0.05 fault.seed=7 ops=500   (faulted run, see
//     docs/FAULTS.md — ops go through the driver's retry path and the
//     fault/recovery counter section is printed after the summary)
//   bxmon tenants=2 tenant.weights=3,1 ops=2000   (multi-tenant mode:
//     each tenant gets a virtual queue on its own hardware queue under
//     WRR arbitration; prints the per-tenant admission/latency/grant
//     section, see docs/TENANCY.md)
//   bxmon policy ops=4000 qd=8   (adaptive-selection mode: the testbed
//     attaches an AdaptivePolicy, methods default to kAuto with a mixed
//     small/large payload pattern (payload.large=N overrides the large
//     size), and the policy section prints the decision/backpressure
//     counters, per-queue congestion gauges, and per-window policy
//     deltas, see docs/POLICY.md)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/config.h"
#include "core/testbed.h"
#include "driver/request.h"
#include "fault/fault.h"
#include "obs/attribution.h"
#include "obs/metrics.h"
#include "obs/perfetto.h"
#include "obs/prometheus.h"
#include "obs/telemetry.h"
#include "tenant/scheduler.h"
#include "tenant/tenant.h"

namespace bx {
namespace {

struct MethodSummary {
  std::string name;
  std::uint64_t ops = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t wire_bytes = 0;
  std::uint64_t data_bytes = 0;
  Nanoseconds time_ns = 0;
  double mean_latency_ns = 0;
};

bool parse_method(std::string_view name, driver::TransferMethod& out) {
  using driver::TransferMethod;
  static constexpr TransferMethod kAll[] = {
      TransferMethod::kPrp,           TransferMethod::kSgl,
      TransferMethod::kByteExpress,   TransferMethod::kByteExpressOoo,
      TransferMethod::kBandSlim,      TransferMethod::kHybrid,
      TransferMethod::kAuto,
  };
  for (const TransferMethod method : kAll) {
    if (name == driver::transfer_method_name(method)) {
      out = method;
      return true;
    }
  }
  return false;
}

std::vector<std::string> split_csv(std::string_view list) {
  std::vector<std::string> out;
  while (!list.empty()) {
    const std::size_t comma = list.find(',');
    out.emplace_back(list.substr(0, comma));
    if (comma == std::string_view::npos) break;
    list.remove_prefix(comma + 1);
  }
  return out;
}

bool write_file(const std::string& path, const std::string& content) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "bxmon: cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), out);
  std::fclose(out);
  return true;
}

/// The count knob `name` (default `fallback`) as a T. A value below
/// `min`, above `max` or beyond T's range is refused: prints why and exits
/// 2, before anything is built. Config::get_int is signed, so without the
/// check a negative count wraps to a huge one.
template <typename T>
T count_knob(const Config& config, const char* name, std::int64_t fallback,
             std::int64_t min = 0,
             std::int64_t max = std::numeric_limits<std::int64_t>::max()) {
  const auto top = static_cast<std::int64_t>(std::min<std::uint64_t>(
      static_cast<std::uint64_t>(max), std::numeric_limits<T>::max()));
  const std::int64_t value = config.get_int(name, fallback);
  if (value < min || value > top) {
    std::fprintf(stderr, "bxmon: %s must be %s %lld\n", name,
                 value < min ? ">=" : "<=",
                 static_cast<long long>(value < min ? min : top));
    std::exit(2);
  }
  return static_cast<T>(value);
}

/// The `window=` knob, in simulated ns. A window shorter than 1 ns never
/// ends.
Nanoseconds window_knob(const Config& config) {
  return count_knob<Nanoseconds>(config, "window", 10'000, 1);
}

/// The `queues=` / `tenants=` knob: one I/O queue each, and the BAR has
/// room for Controller::kMaxQueues queues including the admin queue.
std::uint16_t queue_knob(const Config& config, const char* name,
                         std::int64_t fallback) {
  return count_knob<std::uint16_t>(config, name, fallback, 1,
                                   controller::Controller::kMaxQueues - 1);
}

/// The `depth=` knob: entries per I/O queue. Create I/O SQ/CQ carry
/// depth - 1 in 16 bits of cdw10, so a queue holds 2 to 65,536 entries.
std::uint32_t depth_knob(const Config& config) {
  return count_knob<std::uint32_t>(config, "depth", 256, 2, 65'536);
}

/// The `pcie.gen=` (Gen1 to Gen5) and `pcie.lanes=` (1 to 32) knobs, read
/// into `link`. PcieLink asserts both ranges.
void link_knobs(const Config& config, pcie::LinkConfig& link) {
  link.generation = count_knob<int>(config, "pcie.gen", 2, 1, 5);
  link.lanes = count_knob<int>(config, "pcie.lanes", 8, 1, 32);
}

void print_window_table(const std::vector<obs::TelemetrySample>& samples,
                        double bytes_per_ns, std::size_t max_rows) {
  const std::vector<obs::TelemetrySample> rows =
      obs::Telemetry::downsample(samples, max_rows);
  std::printf(
      "  win      t_start_us   dur_us   down%%    up%%    mwr_wire   "
      "mrd_wire   cpl_wire    payload  backlog  qd\n");
  for (const obs::TelemetrySample& s : rows) {
    obs::FlowCell mwr, mrd, cpl;
    for (std::size_t dir = 0; dir < obs::kLinkDirs; ++dir) {
      mwr += s.flow[dir][static_cast<std::size_t>(obs::TlpKind::kMWr)];
      mrd += s.flow[dir][static_cast<std::size_t>(obs::TlpKind::kMRd)];
      cpl += s.flow[dir][static_cast<std::size_t>(obs::TlpKind::kCpl)];
    }
    std::int64_t inflight = 0;
    for (const obs::QueueWindow& q : s.queues) inflight += q.inflight;
    std::printf(
        "  %-8llu %-12.1f %-8.1f %-8.2f %-6.2f %-10llu %-10llu %-11llu "
        "%-8llu %-8lld %lld\n",
        static_cast<unsigned long long>(s.index), double(s.start_ns) / 1e3,
        double(s.end_ns - s.start_ns) / 1e3,
        100.0 * s.utilization(obs::LinkDir::kDownstream, bytes_per_ns),
        100.0 * s.utilization(obs::LinkDir::kUpstream, bytes_per_ns),
        static_cast<unsigned long long>(mwr.wire_bytes),
        static_cast<unsigned long long>(mrd.wire_bytes),
        static_cast<unsigned long long>(cpl.wire_bytes),
        static_cast<unsigned long long>(s.payload_bytes),
        static_cast<long long>(s.backlog), static_cast<long long>(inflight));
  }
}

void print_totals(const std::vector<obs::TelemetrySample>& samples) {
  const auto totals = obs::Telemetry::sum_flows(samples);
  std::printf("  totals by direction/kind (tlps / data / wire bytes):\n");
  for (std::size_t dir = 0; dir < obs::kLinkDirs; ++dir) {
    for (std::size_t kind = 0; kind < obs::kTlpKinds; ++kind) {
      const obs::FlowCell& cell = totals[dir][kind];
      if (cell.tlps == 0 && cell.wire_bytes == 0) continue;
      std::printf(
          "    %-10s %-4s %12llu %14llu %14llu\n",
          std::string(obs::link_dir_name(static_cast<obs::LinkDir>(dir)))
              .c_str(),
          std::string(obs::tlp_kind_name(static_cast<obs::TlpKind>(kind)))
              .c_str(),
          static_cast<unsigned long long>(cell.tlps),
          static_cast<unsigned long long>(cell.data_bytes),
          static_cast<unsigned long long>(cell.wire_bytes));
    }
  }
}

/// Fault-injection and recovery counters (docs/FAULTS.md). Printed only
/// when an injector was attached; the accounting line mirrors the sweep
/// invariant `injected == recovered + degraded + failed`.
void print_fault_section(const obs::MetricsRegistry& metrics) {
  const auto value = [&](const char* name) {
    return static_cast<unsigned long long>(metrics.counter_value(name));
  };
  std::printf("\n  faults: injected %llu (corrupt %llu, error %llu, "
              "retryable %llu, drop %llu, delay %llu), tlp replays %llu\n",
              value("faults.injected"), value("faults.injected_corrupt"),
              value("faults.injected_error"),
              value("faults.injected_error_retryable"),
              value("faults.injected_drop"), value("faults.injected_delay"),
              value("faults.tlp_replays"));
  std::printf("  recovery: recovered %llu + degraded %llu + failed %llu; "
              "timeouts %llu, aborts %llu, retries %llu, degradations %llu, "
              "inline fallbacks %llu\n",
              value("faults.recovered"), value("faults.degraded"),
              value("faults.failed"), value("driver.timeouts"),
              value("driver.aborts_sent"), value("driver.retries"),
              value("driver.degradations"),
              value("driver.inline_fallback_prp"));
  std::printf("  device: completions dropped %llu, delayed %llu, commands "
              "aborted %llu, deferred evictions %llu, reassembly evictions "
              "%llu\n",
              value("ctrl.completions_dropped"),
              value("ctrl.completions_delayed"),
              value("ctrl.commands_aborted"),
              value("ctrl.deferred_evictions"),
              value("ctrl.reassembly_evictions"));
}

/// Per-method wait/service attribution: one line per (method, segment)
/// with a non-empty "driver.wait.<method>.<segment>" histogram. The
/// segments partition each command's latency_ns exactly (additivity is
/// enforced by obs::invariants), so the mean column sums to the method's
/// mean latency.
void print_waits_section(const obs::MetricsRegistry& metrics,
                         const std::vector<MethodSummary>& summaries) {
  const obs::MetricsSnapshot snap = metrics.snapshot();
  const auto find_hist =
      [&snap](const std::string& name) -> const LatencyHistogram* {
    for (const auto& [hist_name, hist] : snap.histograms) {
      if (hist_name == name) return &hist;
    }
    return nullptr;
  };
  std::printf("\n  wait attribution (ns per command by segment, "
              "segments sum to latency):\n");
  std::printf("    method            segment        count      mean       "
              "p50       p99\n");
  for (const MethodSummary& s : summaries) {
    for (std::size_t seg = 0; seg < obs::kWaitSegmentCount; ++seg) {
      const auto segment = static_cast<obs::WaitSegment>(seg);
      const std::string name =
          "driver.wait." + s.name + "." +
          std::string(obs::wait_segment_name(segment));
      const LatencyHistogram* hist = find_hist(name);
      if (hist == nullptr || hist->count() == 0) continue;
      std::printf("    %-16s  %-11s %8llu %9.0f %9llu %9llu\n",
                  s.name.c_str(),
                  std::string(obs::wait_segment_name(segment)).c_str(),
                  static_cast<unsigned long long>(hist->count()),
                  hist->mean(),
                  static_cast<unsigned long long>(hist->percentile(50)),
                  static_cast<unsigned long long>(hist->percentile(99)));
    }
  }
}

/// ByteExpress-R inline-read counters (docs/READPATH.md): ring attempts
/// vs completions, chunk/byte volume, CRC rejections, PRP fallbacks and
/// degradations, plus the per-queue completion-ring occupancy gauge.
void print_inline_read_section(const obs::MetricsRegistry& metrics,
                               std::uint16_t queue_count) {
  const auto value = [&](const char* name) {
    return static_cast<unsigned long long>(metrics.counter_value(name));
  };
  std::printf("\n  inline reads (ByteExpress-R completion ring):\n");
  std::printf("    attempts %llu, completions %llu, chunks %llu, "
              "bytes %llu\n",
              value("driver.inline_read.attempts"),
              value("driver.inline_read.completions"),
              value("driver.inline_read.chunks"),
              value("driver.inline_read.bytes"));
  std::printf("    crc errors %llu, prp fallbacks %llu, degradations "
              "%llu\n",
              value("driver.inline_read.crc_errors"),
              value("driver.inline_read.fallback_prp"),
              value("driver.inline_read.degradations"));
  std::printf("    ring occupancy (reserved slots):");
  for (std::uint16_t qid = 1; qid <= queue_count; ++qid) {
    const std::string name =
        "driver.q" + std::to_string(qid) + ".read_ring_occupancy";
    std::printf(" q%u=%lld", qid,
                static_cast<long long>(metrics.gauge_value(name)));
  }
  std::printf("\n");
}

/// Adaptive-policy section (`bxmon policy`, docs/POLICY.md): cumulative
/// decision/backpressure counters, the per-queue congestion gauges, and
/// the per-window policy deltas sampled by the telemetry.
void print_policy_section(const obs::MetricsRegistry& metrics,
                          const std::vector<obs::TelemetrySample>& samples,
                          std::uint16_t queue_count,
                          std::size_t max_rows) {
  const auto value = [&](const char* name) {
    return static_cast<unsigned long long>(metrics.counter_value(name));
  };
  std::printf("\n  adaptive policy (TransferMethod::kAuto):\n");
  std::printf("    decisions: inline %llu, dma %llu; rejects %llu "
              "(kResourceExhausted backpressure)\n",
              value("policy.decisions.inline"),
              value("policy.decisions.dma"), value("policy.rejects"));
  std::printf("    mode switches %llu, shed enters %llu / exits %llu, "
              "shedding queues now %lld\n",
              value("policy.mode_switches"), value("policy.shed_enters"),
              value("policy.shed_exits"),
              static_cast<long long>(
                  metrics.gauge_value("policy.shedding_queues")));
  std::printf("    congested now:");
  for (std::uint16_t qid = 1; qid <= queue_count; ++qid) {
    const std::string name =
        "policy.q" + std::to_string(qid) + ".congested";
    std::printf(" q%u=%lld", qid,
                static_cast<long long>(metrics.gauge_value(name)));
  }
  std::printf("\n");

  std::vector<const obs::TelemetrySample*> active;
  for (const obs::TelemetrySample& s : samples) {
    if (s.policy_inline + s.policy_dma + s.policy_rejects > 0) {
      active.push_back(&s);
    }
  }
  if (active.empty()) return;
  std::printf("    per-window deltas (%zu active windows, last %zu "
              "shown):\n",
              active.size(), std::min(active.size(), max_rows));
  std::printf("    %-8s %-12s %-10s %-8s %-8s %-9s\n", "window",
              "end_ns", "inline", "dma", "rejects", "shedding");
  const std::size_t begin =
      active.size() > max_rows ? active.size() - max_rows : 0;
  for (std::size_t i = begin; i < active.size(); ++i) {
    const obs::TelemetrySample& s = *active[i];
    std::printf("    %-8llu %-12llu %-10llu %-8llu %-8llu %-9lld\n",
                static_cast<unsigned long long>(s.index),
                static_cast<unsigned long long>(s.end_ns),
                static_cast<unsigned long long>(s.policy_inline),
                static_cast<unsigned long long>(s.policy_dma),
                static_cast<unsigned long long>(s.policy_rejects),
                static_cast<long long>(s.policy_shedding));
  }
}

/// Multi-tenant mode (`tenants=N`): one tenant per hardware queue under
/// WRR arbitration, a closed loop of ByteExpress writes round-robin over
/// the tenants, then the per-tenant admission / latency / grant section
/// plus the per-window TenantWindow deltas (docs/TENANCY.md).
int run_tenants(const Config& config) {
  const std::uint16_t tenant_count = queue_knob(config, "tenants", 2);
  const auto ops = count_knob<std::uint64_t>(config, "ops", 2000);
  const auto payload_size = count_knob<std::uint32_t>(config, "payload", 256);
  const std::uint32_t depth = depth_knob(config);
  const std::size_t max_rows = count_knob<std::size_t>(config, "rows", 40);
  const Nanoseconds window_ns = window_knob(config);

  core::TestbedConfig testbed_config;
  link_knobs(config, testbed_config.link);
  testbed_config.driver.io_queue_count = tenant_count;
  testbed_config.driver.io_queue_depth = depth;
  testbed_config.telemetry.window_ns = window_ns;
  core::Testbed testbed(testbed_config);

  const std::vector<std::string> weight_list =
      split_csv(config.get_string("tenant.weights", ""));
  tenant::SchedulerConfig sched_config;
  for (std::uint16_t i = 0; i < tenant_count; ++i) {
    tenant::TenantConfig tc;
    tc.id = static_cast<std::uint16_t>(i + 1);
    tc.hw_qid = static_cast<std::uint16_t>(i + 1);
    if (i < weight_list.size()) {
      const long weight = std::strtol(weight_list[i].c_str(), nullptr, 10);
      tc.weight = weight > 0 ? static_cast<std::uint32_t>(weight) : 1u;
    }
    tc.rate_bytes_per_sec = static_cast<std::uint64_t>(
        config.get_int("tenant.rate", 0));
    tc.inline_slot_budget = static_cast<std::uint32_t>(
        config.get_int("tenant.slots", 0));
    sched_config.tenants.push_back(tc);
  }
  tenant::TenantScheduler sched(testbed, sched_config);

  std::printf("bxmon: %u tenant(s), %llu ops total, payload %u B, WRR "
              "arbitration on, window %lld ns\n",
              tenant_count, static_cast<unsigned long long>(ops),
              payload_size,
              static_cast<long long>(testbed_config.telemetry.window_ns));

  ByteVec payload(payload_size);
  fill_pattern(payload, payload_size);
  std::uint64_t gate_rejections = 0;
  for (std::uint64_t i = 0; i < ops; ++i) {
    const auto tenant = static_cast<std::uint16_t>(1 + i % tenant_count);
    auto completion = sched.execute_write(
        tenant, ConstByteSpan(payload),
        driver::TransferMethod::kByteExpress);
    if (!completion.is_ok()) {
      if (completion.status().code() == StatusCode::kResourceExhausted) {
        ++gate_rejections;  // backpressure is a result, not an error
        continue;
      }
      std::fprintf(stderr, "bxmon: tenant %u write failed: %s\n", tenant,
                   completion.status().to_string().c_str());
      return 1;
    }
  }
  testbed.telemetry().flush(testbed.clock().now());

  std::printf("\n  tenant   admitted  rejected  complete  payloadB   "
              "p50_ns    p99_ns    errors  grants\n");
  for (const std::uint16_t tenant : sched.tenant_ids()) {
    const tenant::AdmissionController::TenantCounters* counters =
        sched.admission().counters(tenant);
    const LatencyHistogram latency = sched.latency(tenant);
    std::printf("  t%-7u %-9llu %-9llu %-9llu %-10llu %-9llu %-9llu "
                "%-7llu %llu\n",
                tenant,
                static_cast<unsigned long long>(counters->admitted.value()),
                static_cast<unsigned long long>(counters->rejected.value()),
                static_cast<unsigned long long>(
                    counters->completions.value()),
                static_cast<unsigned long long>(
                    counters->payload_bytes.value()),
                static_cast<unsigned long long>(latency.percentile(50)),
                static_cast<unsigned long long>(latency.percentile(99)),
                static_cast<unsigned long long>(sched.errors(tenant)),
                static_cast<unsigned long long>(sched.hw_grants(tenant)));
  }
  if (gate_rejections > 0) {
    std::printf("  gate backpressure: %llu ops rejected at admission\n",
                static_cast<unsigned long long>(gate_rejections));
  }

  // Per-window tenant deltas: the same TenantWindow columns the Perfetto
  // export renders as tenant.t<id>.service counter tracks.
  const std::vector<obs::TelemetrySample> samples =
      testbed.telemetry().samples();
  const std::vector<obs::TelemetrySample> rows =
      obs::Telemetry::downsample(samples, max_rows);
  std::printf("\n  win      t_start_us   tenant  admitted  complete  "
              "payloadB  inflight\n");
  for (const obs::TelemetrySample& s : rows) {
    for (const obs::TenantWindow& tw : s.tenants) {
      if (tw.admitted == 0 && tw.completions == 0 && tw.inflight_slots == 0) {
        continue;
      }
      std::printf("  %-8llu %-12.1f t%-6u %-9llu %-9llu %-9llu %lld\n",
                  static_cast<unsigned long long>(s.index),
                  double(s.start_ns) / 1e3, tw.tenant,
                  static_cast<unsigned long long>(tw.admitted),
                  static_cast<unsigned long long>(tw.completions),
                  static_cast<unsigned long long>(tw.payload_bytes),
                  static_cast<long long>(tw.inflight_slots));
    }
  }
  return 0;
}

/// Parses a Telemetry::dump_tsv document (the `tsv=` output / `input=`
/// ingest format). Returns false on any malformed line.
bool parse_tsv(const std::string& text,
               std::vector<obs::TelemetrySample>& samples,
               double& bytes_per_ns) {
  std::size_t pos = 0;
  bool saw_header = false;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    if (line[0] == '#') {
      const std::size_t key = line.find("bytes_per_ns=");
      if (key != std::string::npos) {
        bytes_per_ns = std::strtod(line.c_str() + key + 13, nullptr);
        saw_header = true;
      }
      continue;
    }
    // 23 tab-separated fields: index, start, end, 6x(tlps,data,wire),
    // payload, backlog.
    std::vector<long long> fields;
    const char* cursor = line.c_str();
    for (;;) {
      char* end = nullptr;
      fields.push_back(std::strtoll(cursor, &end, 10));
      if (end == cursor) return false;
      cursor = end;
      if (*cursor == '\t') {
        ++cursor;
      } else {
        break;
      }
    }
    if (fields.size() != 23 || *cursor != '\0') return false;
    obs::TelemetrySample s;
    s.index = static_cast<std::uint64_t>(fields[0]);
    s.start_ns = fields[1];
    s.end_ns = fields[2];
    std::size_t i = 3;
    for (std::size_t dir = 0; dir < obs::kLinkDirs; ++dir) {
      for (std::size_t kind = 0; kind < obs::kTlpKinds; ++kind) {
        s.flow[dir][kind].tlps = static_cast<std::uint64_t>(fields[i++]);
        s.flow[dir][kind].data_bytes =
            static_cast<std::uint64_t>(fields[i++]);
        s.flow[dir][kind].wire_bytes =
            static_cast<std::uint64_t>(fields[i++]);
      }
    }
    s.payload_bytes = static_cast<std::uint64_t>(fields[i++]);
    s.backlog = fields[i++];
    samples.push_back(std::move(s));
  }
  return saw_header || !samples.empty();
}

int ingest(const std::string& path, std::size_t max_rows) {
  std::FILE* in = std::fopen(path.c_str(), "r");
  if (in == nullptr) {
    std::fprintf(stderr, "bxmon: cannot read %s\n", path.c_str());
    return 1;
  }
  std::string text;
  char buf[4096];
  std::size_t got;
  while ((got = std::fread(buf, 1, sizeof(buf), in)) > 0) {
    text.append(buf, got);
  }
  std::fclose(in);

  std::vector<obs::TelemetrySample> samples;
  double bytes_per_ns = 1.0;
  if (!parse_tsv(text, samples, bytes_per_ns)) {
    std::fprintf(stderr, "bxmon: %s is not a bx-telemetry dump\n",
                 path.c_str());
    return 1;
  }
  std::printf("bxmon ingest: %s (%zu windows, link %.3f B/ns)\n",
              path.c_str(), samples.size(), bytes_per_ns);
  print_window_table(samples, bytes_per_ns, max_rows);
  print_totals(samples);
  return 0;
}

int run(const Config& config) {
  // `bxmon policy` — adaptive-selection mode: the testbed attaches an
  // AdaptivePolicy, the workload defaults to kAuto with a mixed
  // small/large payload pattern, and the policy section is printed.
  const bool policy_mode = config.get_int("policy", 0) != 0;
  const std::string method_list = config.get_string(
      "methods", policy_mode ? "auto"
                             : "prp,sgl,byteexpress,byteexpress_ooo,"
                               "bandslim");
  std::vector<driver::TransferMethod> methods;
  for (const std::string& name : split_csv(method_list)) {
    driver::TransferMethod method;
    if (!parse_method(name, method)) {
      std::fprintf(stderr, "bxmon: unknown method '%s'\n", name.c_str());
      return 2;
    }
    methods.push_back(method);
  }

  const auto ops = count_knob<std::uint64_t>(config, "ops", 2000);
  const auto reads = count_knob<std::uint64_t>(config, "reads", 0);
  const bool waits_mode = config.get_int("waits", 0) != 0;
  // Policy mode keeps the small payload under the adaptive inline cutoff
  // (128 B default) so the mixed pattern exercises both decision branches.
  const auto payload_size =
      count_knob<std::uint32_t>(config, "payload", policy_mode ? 96 : 256);
  const auto qd = count_knob<std::uint32_t>(config, "qd", 4);
  const auto batch = count_knob<std::uint32_t>(config, "batch", 1);
  const std::uint16_t queue_count = queue_knob(config, "queues", 2);
  const std::size_t max_rows = count_knob<std::size_t>(config, "rows", 40);
  const std::uint32_t depth = depth_knob(config);
  const Nanoseconds window_ns = window_knob(config);

  core::TestbedConfig testbed_config;
  link_knobs(config, testbed_config.link);
  testbed_config.driver.io_queue_count = queue_count;
  testbed_config.driver.io_queue_depth = depth;
  testbed_config.telemetry.window_ns = window_ns;
  testbed_config.policy_enabled = policy_mode;

  // Faulted mode: fault.rate spreads one per-command fault probability
  // over the injector's kinds (retryable-heavy), and the recovery clocks
  // are tightened so drops resolve within the run (docs/FAULTS.md).
  const double fault_rate = config.get_double("fault.rate", 0.0);
  if (fault_rate > 0) {
    fault::FaultPolicy policy;
    policy.chunk_corrupt = fault_rate * 0.4;
    policy.error_retryable = fault_rate * 0.2;
    policy.error_completion = fault_rate * 0.1;
    policy.completion_drop = fault_rate * 0.1;
    policy.completion_delay = fault_rate * 0.1;
    policy.tlp_replay = fault_rate * 0.1;
    testbed_config.faults = policy;
    testbed_config.fault_seed =
        static_cast<std::uint64_t>(config.get_int("fault.seed", 0xfa017));
    testbed_config.driver.command_timeout_ns = 2'000'000;
    testbed_config.driver.poll_idle_advance_ns = 1'000;
    testbed_config.controller.deferred_ttl_ns = 500'000;
    testbed_config.controller.reassembly.ttl_ns = 500'000;
  }
  core::Testbed testbed(testbed_config);

  std::printf("bxmon: %zu method(s), %llu ops each, payload %u B, "
              "QD %u x %u queue(s), batch %u, window %lld ns\n",
              methods.size(), static_cast<unsigned long long>(ops),
              payload_size, qd, queue_count, batch,
              static_cast<long long>(testbed_config.telemetry.window_ns));

  ByteVec payload(payload_size);
  fill_pattern(payload, payload_size);
  // Policy mode interleaves a large payload (`payload.large`, default
  // 4096 B) every fourth op so kAuto renders both decisions in one run.
  const auto large_size =
      count_knob<std::uint32_t>(config, "payload.large", 4'096);
  ByteVec large_payload(large_size);
  fill_pattern(large_payload, large_size);

  // One run over all methods with no counter resets in between, so the
  // trace + telemetry cover the whole session and the Perfetto export
  // shows the methods back to back. Per-method traffic comes from
  // before/after counter snapshots.
  std::vector<MethodSummary> summaries;
  std::uint64_t op_errors = 0;
  for (const driver::TransferMethod method : methods) {
    MethodSummary summary;
    summary.name = driver::transfer_method_name(method);
    const auto before = testbed.traffic().total();
    const Nanoseconds start = testbed.clock().now();
    double latency_sum = 0;

    // Closed loop at qd outstanding per queue, round-robin over queues.
    // Faulted runs go through execute() instead (the driver's retry /
    // degradation path) and tolerate final device errors — those are the
    // point of the run and show up in the fault section.
    std::vector<driver::Submitted> inflight;
    std::uint64_t mixed_payload_bytes = 0;
    const std::size_t target_depth = std::size_t{qd} * queue_count;
    driver::IoRequest request;
    request.opcode = nvme::IoOpcode::kVendorRawWrite;
    request.method = method;
    request.write_data = payload;
    if (fault_rate > 0) {
      for (std::uint64_t i = 0; i < ops; ++i) {
        const auto qid = static_cast<std::uint16_t>(1 + i % queue_count);
        auto completion = testbed.driver().execute(request, qid);
        if (!completion.is_ok()) {
          std::fprintf(stderr, "bxmon: execute failed (%s): %s\n",
                       summary.name.c_str(),
                       completion.status().to_string().c_str());
          return 1;
        }
        if (!completion->ok()) ++op_errors;
        latency_sum += double(completion->latency_ns);
      }
    } else if (batch > 1) {
      // Coalesced mode: groups of `batch` commands share one doorbell
      // (submit_batch), round-robin over queues, capped at target_depth
      // outstanding.
      std::uint64_t issued = 0;
      std::uint16_t next_qid = 1;
      while (issued < ops) {
        const auto group = static_cast<std::size_t>(
            std::min<std::uint64_t>(batch, ops - issued));
        std::vector<driver::IoRequest> group_requests(group, request);
        auto result = testbed.driver().submit_batch(
            {group_requests.data(), group_requests.size()}, next_qid);
        if (!result.is_ok()) {
          std::fprintf(stderr, "bxmon: submit_batch failed (%s): %s\n",
                       summary.name.c_str(),
                       result.status().to_string().c_str());
          return 1;
        }
        inflight.insert(inflight.end(), result->handles.begin(),
                        result->handles.end());
        issued += group;
        next_qid =
            next_qid == queue_count ? std::uint16_t{1}
                                    : static_cast<std::uint16_t>(next_qid + 1);
        while (inflight.size() >= target_depth) {
          auto completion = testbed.driver().wait(inflight.front());
          if (!completion.is_ok() || !completion->ok()) {
            std::fprintf(stderr, "bxmon: wait failed (%s)\n",
                         summary.name.c_str());
            return 1;
          }
          latency_sum += double(completion->latency_ns);
          inflight.erase(inflight.begin());
        }
      }
      for (const driver::Submitted& handle : inflight) {
        auto completion = testbed.driver().wait(handle);
        if (!completion.is_ok() || !completion->ok()) {
          std::fprintf(stderr, "bxmon: drain failed (%s)\n",
                       summary.name.c_str());
          return 1;
        }
        latency_sum += double(completion->latency_ns);
      }
      inflight.clear();
    } else {
      for (std::uint64_t i = 0; i < ops; ++i) {
        const auto qid = static_cast<std::uint16_t>(1 + i % queue_count);
        if (policy_mode) {
          request.write_data = (i % 4 == 3) ? ConstByteSpan(large_payload)
                                            : ConstByteSpan(payload);
          mixed_payload_bytes += request.write_data.size();
        }
        auto handle = testbed.driver().submit(request, qid);
        if (!handle.is_ok()) {
          std::fprintf(stderr, "bxmon: submit failed (%s): %s\n",
                       summary.name.c_str(),
                       handle.status().to_string().c_str());
          return 1;
        }
        inflight.push_back(*handle);
        if (inflight.size() >= target_depth) {
          auto completion = testbed.driver().wait(inflight.front());
          if (!completion.is_ok() || !completion->ok()) {
            std::fprintf(stderr, "bxmon: wait failed (%s)\n",
                         summary.name.c_str());
            return 1;
          }
          latency_sum += double(completion->latency_ns);
          inflight.erase(inflight.begin());
        }
      }
      for (const driver::Submitted& handle : inflight) {
        auto completion = testbed.driver().wait(handle);
        if (!completion.is_ok() || !completion->ok()) {
          std::fprintf(stderr, "bxmon: drain failed (%s)\n",
                       summary.name.c_str());
          return 1;
        }
        latency_sum += double(completion->latency_ns);
      }
    }

    const auto after = testbed.traffic().total();
    summary.ops = ops;
    summary.payload_bytes = mixed_payload_bytes > 0
                                ? mixed_payload_bytes
                                : std::uint64_t{payload_size} * ops;
    summary.wire_bytes = after.wire_bytes - before.wire_bytes;
    summary.data_bytes = after.data_bytes - before.data_bytes;
    summary.time_ns = testbed.clock().now() - start;
    summary.mean_latency_ns = ops == 0 ? 0 : latency_sum / double(ops);
    summaries.push_back(std::move(summary));
  }

  // Optional raw-read phase: kVendorRawRead round-robin over the queues,
  // reading back the payload the write loops stored. Small payloads go
  // over the ByteExpress-R inline ring (chunks in the host completion
  // ring, CRC-checked), so this populates the inline-read section.
  if (reads > 0) {
    ByteVec read_out(payload_size);
    driver::IoRequest read;
    read.opcode = nvme::IoOpcode::kVendorRawRead;
    read.read_buffer = read_out;
    for (std::uint64_t i = 0; i < reads; ++i) {
      const auto qid = static_cast<std::uint16_t>(1 + i % queue_count);
      auto completion = testbed.driver().execute(read, qid);
      if (!completion.is_ok()) {
        std::fprintf(stderr, "bxmon: read failed: %s\n",
                     completion.status().to_string().c_str());
        return 1;
      }
      if (!completion->ok()) ++op_errors;
    }
  }

  testbed.telemetry().flush(testbed.clock().now());
  const std::vector<obs::TelemetrySample> samples =
      testbed.telemetry().samples();
  const double rate = testbed.telemetry().link_rate();

  if (!waits_mode) {
    std::printf("\nwindows: %llu closed (%llu dropped)\n",
                static_cast<unsigned long long>(
                    testbed.telemetry().windows_closed()),
                static_cast<unsigned long long>(
                    testbed.telemetry().windows_dropped()));
    print_window_table(samples, rate, max_rows);
    print_totals(samples);
  }

  std::printf("\n  method            ops      wireB/op   amp     mean_ns   "
              "Kops\n");
  for (const MethodSummary& s : summaries) {
    std::printf("  %-16s %-8llu %-10.1f %-7.2f %-9.0f %.1f\n",
                s.name.c_str(), static_cast<unsigned long long>(s.ops),
                s.ops == 0 ? 0.0 : double(s.wire_bytes) / double(s.ops),
                s.payload_bytes == 0
                    ? 0.0
                    : double(s.wire_bytes) / double(s.payload_bytes),
                s.mean_latency_ns,
                s.time_ns == 0 ? 0.0
                               : double(s.ops) * 1e6 / double(s.time_ns));
  }

  // Doorbell coalescing per queue: SQ slots published per doorbell MWr,
  // summed over the same telemetry windows the table renders. 1.00 means
  // every ring published one entry (no batching); submit_batch pushes
  // this toward the batch size.
  if (!waits_mode) {
    std::vector<std::uint64_t> bells(std::size_t{queue_count} + 1, 0);
    std::vector<std::uint64_t> entries(std::size_t{queue_count} + 1, 0);
    for (const obs::TelemetrySample& s : samples) {
      for (const obs::QueueWindow& q : s.queues) {
        if (q.qid == 0 || q.qid > queue_count) continue;
        bells[q.qid] += q.sq_doorbells;
        entries[q.qid] += q.sq_entries;
      }
    }
    std::printf("\n  doorbell coalescing (SQ entries per doorbell MWr):\n");
    for (std::uint16_t qid = 1; qid <= queue_count; ++qid) {
      std::printf("    q%-4u %10llu entries / %8llu doorbells = %.2f\n",
                  qid, static_cast<unsigned long long>(entries[qid]),
                  static_cast<unsigned long long>(bells[qid]),
                  bells[qid] == 0
                      ? 0.0
                      : double(entries[qid]) / double(bells[qid]));
    }
    std::printf("    driver: %lld doorbells/kop, %llu batches, "
                "%llu batched commands\n",
                static_cast<long long>(
                    testbed.metrics().gauge_value("driver.doorbells_per_kop")),
                static_cast<unsigned long long>(
                    testbed.metrics().counter_value("driver.batches")),
                static_cast<unsigned long long>(
                    testbed.metrics().counter_value("driver.batched_commands")));
  }

  print_waits_section(testbed.metrics(), summaries);
  print_inline_read_section(testbed.metrics(), queue_count);
  if (testbed.method_policy() != nullptr) {
    print_policy_section(testbed.metrics(), samples, queue_count, max_rows);
  }

  if (testbed.fault_injector() != nullptr) {
    print_fault_section(testbed.metrics());
    std::printf("  ops with a final error status: %llu\n",
                static_cast<unsigned long long>(op_errors));
  }

  // Exports, each self-checked before writing.
  const std::string perfetto_path = config.get_string("perfetto", "");
  if (!perfetto_path.empty()) {
    const std::string json =
        obs::to_perfetto_json(testbed.trace().snapshot(), samples, rate);
    const obs::PerfettoCheck check = obs::check_perfetto_json(json);
    if (!check.ok()) {
      std::fprintf(stderr, "bxmon: perfetto self-check failed: %s\n",
                   check.error.c_str());
      return 1;
    }
    if (!write_file(perfetto_path, json)) return 1;
    std::printf("\nperfetto: %s (%zu slices, %zu counter events) — open in "
                "ui.perfetto.dev\n",
                perfetto_path.c_str(), check.slice_events,
                check.counter_events);
  }
  const std::string prom_path = config.get_string("prom", "");
  if (!prom_path.empty()) {
    const std::string text = obs::to_prometheus_text(
        testbed.metrics().snapshot(), &testbed.telemetry());
    const obs::PrometheusLint lint = obs::lint_prometheus(text);
    if (!lint.ok()) {
      std::fprintf(stderr, "bxmon: prometheus lint failed: %s\n",
                   lint.error.c_str());
      return 1;
    }
    if (!write_file(prom_path, text)) return 1;
    std::printf("prometheus: %s (%zu samples in %zu families)\n",
                prom_path.c_str(), lint.samples, lint.families);
  }
  const std::string tsv_path = config.get_string("tsv", "");
  if (!tsv_path.empty()) {
    if (!write_file(tsv_path, obs::Telemetry::dump_tsv(samples, rate))) {
      return 1;
    }
    std::printf("tsv: %s (%zu windows)\n", tsv_path.c_str(), samples.size());
  }
  return 0;
}

}  // namespace
}  // namespace bx

int main(int argc, char** argv) {
  bx::Config config;
  const bx::Status parsed = config.parse_args(argc, argv);
  if (!parsed.is_ok()) {
    std::fprintf(stderr, "bxmon: bad arguments: %s\n",
                 parsed.to_string().c_str());
    return 2;
  }
  // `bxmon waits` / `bxmon policy` — bare mode words, equivalent to
  // waits=1 / policy=1 (parse_args skips tokens without '=').
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "waits") == 0) config.set("waits", "1");
    if (std::strcmp(argv[i], "policy") == 0) config.set("policy", "1");
  }
  const std::string input = config.get_string("input", "");
  if (!input.empty()) {
    return bx::ingest(input,
                      bx::count_knob<std::size_t>(config, "rows", 40));
  }
  if (config.contains("tenants")) {
    return bx::run_tenants(config);
  }
  return bx::run(config);
}
