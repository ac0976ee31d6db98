#include "obs/perfetto.h"

#include <algorithm>
#include <cstdio>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>

#include "common/json.h"
#include "common/status.h"

namespace bx::obs {

namespace {

// Host-side stages render under pid 1, device-side under pid 2, the
// telemetry counter tracks under pid 3. tid = qid + 1 (tid 0 renders
// poorly in some viewers).
constexpr int kHostPid = 1;
constexpr int kDevicePid = 2;
constexpr int kLinkPid = 3;

bool is_host_stage(TraceStage stage) noexcept {
  return stage == TraceStage::kSubmit || stage == TraceStage::kDoorbell ||
         stage == TraceStage::kCqDoorbell;
}

void append_ts(std::string& out, const char* key, Nanoseconds ns) {
  char buffer[64];
  // Microseconds at nanosecond precision: exact, deterministic.
  std::snprintf(buffer, sizeof(buffer), "\"%s\": %llu.%03u", key,
                static_cast<unsigned long long>(ns / 1000),
                static_cast<unsigned>(ns % 1000));
  out += buffer;
}

void append_slice(std::string& out, const TraceEvent& event, bool& first) {
  const bool host = is_host_stage(event.stage);
  const int pid = host ? kHostPid : kDevicePid;
  const int tid = event.qid + 1;
  char buffer[256];
  if (!first) out += ",\n";
  first = false;
  out += "    {\"name\": \"";
  out += stage_name(event.stage);
  out += "\", \"cat\": ";
  out += host ? "\"host\"" : "\"device\"";
  if (event.stage == TraceStage::kDoorbell) {
    out += ", \"ph\": \"i\", \"s\": \"t\", ";
    append_ts(out, "ts", event.start);
  } else {
    out += ", \"ph\": \"X\", ";
    append_ts(out, "ts", event.start);
    out += ", ";
    append_ts(out, "dur", event.end - event.start);
  }
  std::snprintf(buffer, sizeof(buffer),
                ", \"pid\": %d, \"tid\": %d, \"args\": {\"seq\": %llu, "
                "\"cid\": %u, \"tenant\": %u, \"slot\": %u, \"aux\": %llu, "
                "\"bytes\": %llu, \"flags\": %u}}",
                pid, tid, static_cast<unsigned long long>(event.seq),
                unsigned(event.cid), unsigned(event.tenant),
                unsigned(event.slot),
                static_cast<unsigned long long>(event.aux),
                static_cast<unsigned long long>(event.bytes),
                unsigned(event.flags));
  out += buffer;
}

void append_counter(std::string& out, const char* name, Nanoseconds ts,
                    const std::string& args, bool& first) {
  if (!first) out += ",\n";
  first = false;
  out += "    {\"name\": \"";
  out += name;
  out += "\", \"ph\": \"C\", ";
  append_ts(out, "ts", ts);
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), ", \"pid\": %d, \"args\": {",
                kLinkPid);
  out += buffer;
  out += args;
  out += "}}";
}

void append_metadata(std::string& out, int pid, std::optional<int> tid,
                     const char* key, const std::string& name, bool& first) {
  if (!first) out += ",\n";
  first = false;
  char buffer[192];
  if (tid.has_value()) {
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"name\": \"%s\", \"ph\": \"M\", \"pid\": %d, "
                  "\"tid\": %d, \"args\": {\"name\": \"%s\"}}",
                  key, pid, *tid, name.c_str());
  } else {
    std::snprintf(buffer, sizeof(buffer),
                  "    {\"name\": \"%s\", \"ph\": \"M\", \"pid\": %d, "
                  "\"args\": {\"name\": \"%s\"}}",
                  key, pid, name.c_str());
  }
  out += buffer;
}

}  // namespace

std::string to_perfetto_json(const std::vector<TraceEvent>& events,
                             const std::vector<TelemetrySample>& samples,
                             double bytes_per_ns) {
  std::vector<TraceEvent> sorted(events);
  std::sort(sorted.begin(), sorted.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.start != b.start ? a.start < b.start : a.seq < b.seq;
            });

  // (pid, qid) pairs that need thread_name metadata, in sorted order.
  std::set<std::pair<int, std::uint16_t>> threads;
  for (const TraceEvent& event : sorted) {
    threads.emplace(is_host_stage(event.stage) ? kHostPid : kDevicePid,
                    event.qid);
  }

  std::string out = "{\"displayTimeUnit\": \"ns\",\n\"traceEvents\": [\n";
  bool first = true;
  append_metadata(out, kHostPid, std::nullopt, "process_name", "host", first);
  append_metadata(out, kDevicePid, std::nullopt, "process_name", "device",
                  first);
  if (!samples.empty()) {
    append_metadata(out, kLinkPid, std::nullopt, "process_name", "link",
                    first);
  }
  for (const auto& [pid, qid] : threads) {
    append_metadata(out, pid, qid + 1, "thread_name",
                    "q" + std::to_string(qid), first);
  }

  for (const TraceEvent& event : sorted) append_slice(out, event, first);

  char args[256];
  for (const TelemetrySample& sample : samples) {
    const auto down = std::size_t(LinkDir::kDownstream);
    const auto up = std::size_t(LinkDir::kUpstream);
    for (std::size_t kind = 0; kind < kTlpKinds; ++kind) {
      std::snprintf(args, sizeof(args), "\"down\": %llu, \"up\": %llu",
                    static_cast<unsigned long long>(
                        sample.flow[down][kind].wire_bytes),
                    static_cast<unsigned long long>(
                        sample.flow[up][kind].wire_bytes));
      const std::string name =
          "link." +
          std::string(tlp_kind_name(static_cast<TlpKind>(kind))) +
          "_wire_bytes";
      append_counter(out, name.c_str(), sample.start_ns, args, first);
    }
    std::snprintf(args, sizeof(args), "\"down\": %.2f, \"up\": %.2f",
                  100.0 * sample.utilization(LinkDir::kDownstream,
                                             bytes_per_ns),
                  100.0 * sample.utilization(LinkDir::kUpstream,
                                             bytes_per_ns));
    append_counter(out, "link.utilization_pct", sample.start_ns, args, first);
    std::snprintf(args, sizeof(args), "\"value\": %llu",
                  static_cast<unsigned long long>(sample.payload_bytes));
    append_counter(out, "host.payload_bytes", sample.start_ns, args, first);
    std::snprintf(args, sizeof(args), "\"value\": %lld",
                  static_cast<long long>(sample.backlog));
    append_counter(out, "ctrl.backlog", sample.start_ns, args, first);
    if (sample.wait_count > 0) {
      // Wait-attribution track: per-window nanoseconds in each
      // obs::WaitSegment, summed over the completions of the window.
      std::string wait_args;
      for (std::size_t s = 0; s < kWaitSegmentCount; ++s) {
        char pair[48];
        std::snprintf(pair, sizeof(pair), "%s\"%s\": %llu",
                      s == 0 ? "" : ", ",
                      std::string(wait_segment_name(WaitSegment(s))).c_str(),
                      static_cast<unsigned long long>(sample.wait_ns[s]));
        wait_args += pair;
      }
      append_counter(out, "driver.wait_ns", sample.start_ns, wait_args, first);
    }
    for (const QueueWindow& qw : sample.queues) {
      std::snprintf(args, sizeof(args),
                    "\"sq_occupancy\": %lld, \"inflight\": %lld",
                    static_cast<long long>(qw.sq_occupancy),
                    static_cast<long long>(qw.inflight));
      const std::string name = "q" + std::to_string(qw.qid) + ".occupancy";
      append_counter(out, name.c_str(), sample.start_ns, args, first);
    }
    for (const TenantWindow& tw : sample.tenants) {
      std::snprintf(args, sizeof(args),
                    "\"admitted\": %llu, \"rejected\": %llu, "
                    "\"payload_bytes\": %llu, \"completions\": %llu, "
                    "\"inflight_slots\": %lld",
                    static_cast<unsigned long long>(tw.admitted),
                    static_cast<unsigned long long>(tw.rejected),
                    static_cast<unsigned long long>(tw.payload_bytes),
                    static_cast<unsigned long long>(tw.completions),
                    static_cast<long long>(tw.inflight_slots));
      const std::string name =
          "tenant.t" + std::to_string(tw.tenant) + ".service";
      append_counter(out, name.c_str(), sample.start_ns, args, first);
    }
  }

  out += "\n]}\n";
  return out;
}

// ---------------------------------------------------------------------------
// Structural checker
// ---------------------------------------------------------------------------

PerfettoCheck check_perfetto_json(std::string_view text) {
  PerfettoCheck result;
  const auto fail = [&result](std::string message) {
    if (result.error.empty()) result.error = std::move(message);
    return result;
  };

  const StatusOr<json::ValuePtr> doc = json::parse(text);
  if (!doc.is_ok()) return fail("invalid JSON: " + doc.status().message());
  const json::Value* events = (*doc)->get("traceEvents");
  if (events == nullptr) return fail("no traceEvents array");
  if (!events->is_array()) return fail("traceEvents is not an array");

  std::set<int> process_pids;
  std::set<std::pair<int, int>> thread_ids;
  std::map<std::pair<int, int>, int> open_begins;  // B/E nesting per thread
  bool have_slice_ts = false;
  double last_slice_ts = 0.0;

  for (const json::ValuePtr& item : events->items) {
    const json::Value& event = *item;
    if (!event.is_object()) return fail("non-object element in traceEvents");
    const auto field = [&event](const char* key) -> std::optional<double> {
      const json::Value* value = event.get(key);
      if (value == nullptr || !value->is_number()) return std::nullopt;
      return value->number;
    };
    const json::Value* ph_value = event.get("ph");
    const std::string ph = ph_value != nullptr ? ph_value->string_or("") : "";
    if (ph.empty()) return fail("event without ph");
    const auto pid = field("pid");
    const auto tid = field("tid");
    const auto ts = field("ts");

    if (ph == "M") {
      ++result.metadata_events;
      const json::Value* name = event.get("name");
      if (name == nullptr || !name->is_string()) {
        return fail("metadata event without name");
      }
      if (!pid.has_value()) return fail("metadata event without pid");
      if (name->string == "process_name") {
        process_pids.insert(int(*pid));
      } else if (name->string == "thread_name") {
        if (!tid.has_value()) return fail("thread_name without tid");
        thread_ids.emplace(int(*pid), int(*tid));
      }
      continue;
    }

    if (ph == "X" || ph == "B" || ph == "E" || ph == "i") {
      if (!pid.has_value() || !tid.has_value()) {
        return fail("slice event without pid/tid");
      }
      if (!ts.has_value()) return fail("slice event without ts");
      if (process_pids.count(int(*pid)) == 0) {
        return fail("slice pid not introduced by process_name metadata");
      }
      if (thread_ids.count({int(*pid), int(*tid)}) == 0) {
        return fail("slice tid not introduced by thread_name metadata");
      }
      if (ph == "X") {
        ++result.slice_events;
        const auto dur = field("dur");
        if (!dur.has_value() || *dur < 0) return fail("X event without dur");
        if (have_slice_ts && *ts < last_slice_ts) {
          return fail("non-monotonic slice ts");
        }
        have_slice_ts = true;
        last_slice_ts = *ts;
      } else if (ph == "B") {
        ++open_begins[{int(*pid), int(*tid)}];
      } else if (ph == "E") {
        if (--open_begins[{int(*pid), int(*tid)}] < 0) {
          return fail("E event without matching B");
        }
      } else {
        ++result.instant_events;
      }
      continue;
    }

    if (ph == "C") {
      ++result.counter_events;
      if (!ts.has_value()) return fail("counter event without ts");
      if (!pid.has_value()) return fail("counter event without pid");
      continue;
    }
    // Unknown phases are tolerated (the format has many); they just are
    // not validated.
  }

  for (const auto& [thread, open] : open_begins) {
    (void)thread;
    if (open != 0) return fail("unbalanced B/E events");
  }
  return result;
}

}  // namespace bx::obs
