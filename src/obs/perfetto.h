// Perfetto / Chrome trace_event JSON export.
//
// Renders a TraceRecorder snapshot plus Telemetry counter windows into the
// legacy Chrome trace_event JSON format, which ui.perfetto.dev (and
// chrome://tracing) open directly:
//   * pid 1 "host": per-queue threads carrying kSubmit/kCqDoorbell slices
//     and kDoorbell instants,
//   * pid 2 "device": per-queue threads carrying the firmware stages
//     (kSqeFetch, kChunkFetch, kPrpDma, kSglDma, kNandIo, kExec,
//     kCompletion),
//   * pid 3 "link": counter tracks from the telemetry windows — per-kind
//     wire bytes by direction, utilization %, payload bytes, per-queue SQ
//     occupancy.
// All slices are complete ("X") events with microsecond ts/dur at
// nanosecond precision (%.3f); doorbells are instants ("i"). Events are
// emitted sorted by (start, seq), so the output is byte-identical across
// same-seed runs (tests/exporters_test.cc asserts this).
//
// check_perfetto_json() is a structural validator for tests and bxmon: it
// parses the document with bx::json, walks the traceEvents array and
// checks the invariants a viewer depends on (ph present, X events carry
// ts/dur/pid/tid, ts monotonic, B/E balanced, every slice's pid/tid
// introduced by process_name/thread_name metadata).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "obs/telemetry.h"
#include "obs/trace.h"

namespace bx::obs {

/// Renders `events` + `samples` as a trace_event JSON document.
/// `bytes_per_ns` is the link rate used for the utilization track (pass
/// Telemetry::link_rate()).
[[nodiscard]] std::string to_perfetto_json(
    const std::vector<TraceEvent>& events,
    const std::vector<TelemetrySample>& samples, double bytes_per_ns);

/// Result of the structural check; `ok()` iff no error was found.
struct PerfettoCheck {
  std::string error;        // empty when structurally valid
  std::size_t slice_events = 0;    // "X"
  std::size_t instant_events = 0;  // "i"
  std::size_t counter_events = 0;  // "C"
  std::size_t metadata_events = 0; // "M"

  [[nodiscard]] bool ok() const noexcept { return error.empty(); }
};

/// Validates the structural invariants described above. Accepts any
/// well-formed trace_event JSON with a traceEvents array, not just our
/// exporter's.
[[nodiscard]] PerfettoCheck check_perfetto_json(std::string_view json);

}  // namespace bx::obs
