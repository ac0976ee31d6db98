// The repository benchmark: three single-threaded, closed-loop workloads on
// the paper testbed (PCIe Gen2 x8, TestbedConfig defaults, trace and
// telemetry on), each timed from outside the library by wrapping calls into
// its public functions. See README.md in this directory for the workloads,
// the metrics and the correctness gate.
//
//   perfbench --workload payload_grid|kv_mixgraph|batch_auto --seed N
//             --seconds S --trace 0|1 [--spans-out FILE]
//
// Two clocks are reported. Simulated metrics (sim_*, wire bytes and every
// per-layer count) cover a fixed window of the first operations after
// set-up, so they are bit-identical at one seed. Host metrics cover
// every operation timed until --seconds have passed (and at least the
// window), and are scaled to a fixed machine speed measured by a reference
// loop run between blocks (see ReferenceLoop). The last stdout line is one
// JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same seed
// twice, untraced then traced (spans around every layer call and around
// Controller::poll_once through NvmeDriver::set_pump), and prints the
// per-layer metrics.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/testbed.h"
#include "obs/attribution.h"
#include "workload/mixgraph.h"

namespace {

using bx::ByteVec;
using bx::ConstByteSpan;
using bx::Rng;
using bx::StatusOr;
using bx::driver::Completion;
using bx::driver::TransferMethod;
namespace core = bx::core;
namespace obs = bx::obs;
namespace pcie = bx::pcie;

std::int64_t host_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --------------------------------------------------------- reference loop

// A fixed amount of host work shaped like the simulator's per-op
// bookkeeping: string keys formatted into a std::map (insert, or erase
// when present), calls through std::function and a sort of 32 words. It
// calls no simulator code, so a change to the simulator cannot move its
// time; the speed of the machine does.
//
// On a shared host, other load slows the workloads by up to half, for
// seconds to minutes at a time. It slows this loop alike; a loop of plain
// copies and table updates barely moved under the same load and was
// dropped. Each host time is therefore multiplied by kNominalNs over the
// time of the loop run right after it (see Pass::close_block), which
// reads it as if the machine ran the loop in kNominalNs. Units marked
// ref_ are scaled this way.
class ReferenceLoop {
 public:
  static constexpr int kOps = 750;
  static constexpr double kNominalNs = 1.0e6;

  std::int64_t run_ns() {
    std::uint64_t x = 0x9e3779b97f4a7c15ULL;
    const auto next = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    std::uint64_t sum = 0;
    char key[32];
    const std::int64_t t0 = host_now_ns();
    for (int i = 0; i < kOps; ++i) {
      const std::uint64_t r = next();
      const int len = std::snprintf(key, sizeof(key), "k%016" PRIx64, r & 0xfff);
      auto [it, inserted] = map_.emplace(std::string(key, len), r);
      if (!inserted) {
        sum += it->second;
        map_.erase(it);
      }
      sum = steps_[r % steps_.size()](sum);
      for (std::uint64_t& word : words_) word = next();
      std::sort(words_.begin(), words_.end());
      sum += words_[7];
    }
    const std::int64_t ns = host_now_ns() - t0;
    sink_ = sum;
    return ns;
  }

 private:
  std::map<std::string, std::uint64_t> map_;
  std::array<std::uint64_t, 32> words_{};
  const std::array<std::function<std::uint64_t(std::uint64_t)>, 4> steps_ = {
      [](std::uint64_t v) { return v * 3; },
      [](std::uint64_t v) { return v ^ 0x55; },
      [](std::uint64_t v) { return v + 17; },
      [](std::uint64_t v) { return v >> 1; }};
  volatile std::uint64_t sink_ = 0;
};

ReferenceLoop& reference_loop() {
  static ReferenceLoop loop;
  return loop;
}

// ------------------------------------------------------------------ spans

enum class SpanKind : std::uint8_t {
  kOp,
  kRawWrite,
  kSubmitBatch,
  kWait,
  kKvPut,
  kKvGet,
  kKvScan,
  kPollOnce,
  kCount_,
};
constexpr std::size_t kSpanKinds = static_cast<std::size_t>(SpanKind::kCount_);
constexpr std::array<const char*, kSpanKinds> kSpanNames = {
    "op",     "raw_write", "submit_batch", "wait",
    "kv.put", "kv.get",    "kv.scan",      "controller.poll_once"};

struct Span {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t op = 0;
  std::int32_t parent = -1;
  SpanKind kind = SpanKind::kOp;
};

// In-memory span buffer. fold() runs between blocks: it adds each span's
// duration and self time (duration minus its children's, which never
// overlap in a single-threaded run) to per-kind totals, keeps the first
// kKeptSpans spans for the file written at exit, and empties the buffer.
class SpanRecorder {
 public:
  static constexpr std::size_t kKeptSpans = 1u << 17;

  void open(SpanKind kind, std::uint64_t op) {
    const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
    stack_.push_back(static_cast<std::int32_t>(spans_.size()));
    spans_.push_back({host_now_ns(), 0, op, parent, kind});
  }
  void close() {
    spans_[static_cast<std::size_t>(stack_.back())].end_ns = host_now_ns();
    stack_.pop_back();
  }
  [[nodiscard]] std::uint64_t current_op() const {
    return stack_.empty() ? 0 : spans_[static_cast<std::size_t>(stack_.back())].op;
  }

  void fold() {
    std::vector<std::int64_t> child_ns(spans_.size(), 0);
    for (const Span& span : spans_) {
      if (span.parent >= 0) {
        child_ns[static_cast<std::size_t>(span.parent)] +=
            span.end_ns - span.start_ns;
      }
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const auto kind = static_cast<std::size_t>(spans_[i].kind);
      const std::int64_t duration = spans_[i].end_ns - spans_[i].start_ns;
      total_ns[kind] += duration;
      self_ns[kind] += duration - child_ns[i];
    }
    if (kept_.size() + spans_.size() <= kKeptSpans) {
      const auto base = static_cast<std::int32_t>(kept_.size());
      for (Span span : spans_) {
        if (span.parent >= 0) span.parent += base;
        kept_.push_back(span);
      }
    }
    spans_.clear();
  }

  bool write(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    std::fprintf(out, "id\tparent\top\tname\tstart_ns\tend_ns\n");
    for (std::size_t i = 0; i < kept_.size(); ++i) {
      const Span& s = kept_[i];
      std::fprintf(out, "%zu\t%d\t%" PRIu64 "\t%s\t%" PRId64 "\t%" PRId64 "\n",
                   i, s.parent, s.op, kSpanNames[static_cast<std::size_t>(s.kind)],
                   s.start_ns, s.end_ns);
    }
    return std::fclose(out) == 0;
  }

  std::array<std::int64_t, kSpanKinds> total_ns{};
  std::array<std::int64_t, kSpanKinds> self_ns{};

 private:
  std::vector<Span> spans_;
  std::vector<Span> kept_;
  std::vector<std::int32_t> stack_;
};

// Opens a span for its lifetime; a null recorder (untraced run) costs one
// branch.
class SpanScope {
 public:
  SpanScope(SpanRecorder* recorder, SpanKind kind, std::uint64_t op)
      : recorder_(recorder) {
    if (recorder_ != nullptr) recorder_->open(kind, op);
  }
  ~SpanScope() {
    if (recorder_ != nullptr) recorder_->close();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanRecorder* recorder_;
};

// --------------------------------------------------------------- counters

enum Ctr : std::size_t {
  kTlps,
  kWireDown,
  kWireUp,
  kWireCmdFetch,
  kWireDataPrp,
  kWireDataSgl,
  kWireDataInlineRead,
  kWireDoorbell,
  kWireCompletion,
  kStageSqeFetch,
  kStageChunkFetch,
  kStagePrpDma,
  kStageSglDma,
  kStageExec,
  kStageCompletion,
  kStageReadChunk,
  kChunksFetched,
  kTraceEvents,
  kSqDoorbells,
  kInlineFallbacks,
  kNandPrograms,
  kNandReads,
  kNandErases,
  kFtlUserWrites,
  kFtlGcRelocations,
  kKvFlushes,
  kKvCompactions,
  kPolicyInline,
  kPolicyDma,
  kPolicyRejects,
  kPolicySwitches,
  kCtrCount,
};
using Counters = std::array<std::uint64_t, kCtrCount>;

std::uint64_t wire_of(const pcie::TrafficCounter& traffic,
                      pcie::TrafficClass cls) {
  return traffic.cell(pcie::Direction::kDownstream, cls).wire_bytes +
         traffic.cell(pcie::Direction::kUpstream, cls).wire_bytes;
}

// Reads every cumulative counter the per-layer metrics are built from.
// None of these reads touches simulated state.
Counters read_counters(core::Testbed& testbed) {
  Counters c{};
  const pcie::TrafficCounter& traffic = testbed.traffic();
  c[kTlps] = traffic.total().tlps;
  c[kWireDown] = traffic.total(pcie::Direction::kDownstream).wire_bytes;
  c[kWireUp] = traffic.total(pcie::Direction::kUpstream).wire_bytes;
  c[kWireCmdFetch] = wire_of(traffic, pcie::TrafficClass::kCommandFetch);
  c[kWireDataPrp] = wire_of(traffic, pcie::TrafficClass::kDataPrp);
  c[kWireDataSgl] = wire_of(traffic, pcie::TrafficClass::kDataSgl);
  c[kWireDataInlineRead] =
      wire_of(traffic, pcie::TrafficClass::kDataInlineRead);
  c[kWireDoorbell] = wire_of(traffic, pcie::TrafficClass::kDoorbell);
  c[kWireCompletion] = wire_of(traffic, pcie::TrafficClass::kCompletion);
  const bx::nvme::StageStatsLog& stages = testbed.controller().stage_stats();
  c[kStageSqeFetch] = stages.sqe_fetch.total_ns;
  c[kStageChunkFetch] = stages.chunk_fetch.total_ns;
  c[kStagePrpDma] = stages.prp_dma.total_ns;
  c[kStageSglDma] = stages.sgl_dma.total_ns;
  c[kStageExec] = stages.exec.total_ns;
  c[kStageCompletion] = stages.completion.total_ns;
  c[kStageReadChunk] = stages.read_chunk.total_ns;
  c[kChunksFetched] = testbed.controller().chunks_fetched();
  c[kTraceEvents] = testbed.trace().events_recorded();
  const obs::MetricsRegistry& metrics = testbed.metrics();
  c[kSqDoorbells] = metrics.counter_value("driver.sq_doorbells");
  c[kInlineFallbacks] = metrics.counter_value("driver.inline_fallback_prp");
  c[kNandPrograms] = testbed.device().nand().programs();
  c[kNandReads] = testbed.device().nand().reads();
  c[kNandErases] = testbed.device().nand().erases();
  c[kFtlUserWrites] = testbed.device().ftl().user_writes();
  c[kFtlGcRelocations] = testbed.device().ftl().gc_relocations();
  c[kKvFlushes] = testbed.device().kv_engine().flushes();
  c[kKvCompactions] = testbed.device().kv_engine().compactions();
  c[kPolicyInline] = metrics.counter_value("policy.decisions.inline");
  c[kPolicyDma] = metrics.counter_value("policy.decisions.dma");
  c[kPolicyRejects] = metrics.counter_value("policy.rejects");
  c[kPolicySwitches] = metrics.counter_value("policy.mode_switches");
  return c;
}

void add_delta(Counters& into, const Counters& after, const Counters& before) {
  for (std::size_t i = 0; i < kCtrCount; ++i) into[i] += after[i] - before[i];
}

// ------------------------------------------------------------------ pass

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

// Percentile by nearest rank over the recorded samples.
template <typename T>
double percentile(std::vector<T> samples, double p) {
  if (samples.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::min<double>(samples.size() - 1,
                       std::ceil(p / 100.0 * samples.size()) - 1));
  std::nth_element(samples.begin(), samples.begin() + rank, samples.end());
  return static_cast<double>(samples[rank]);
}

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

void mix(std::uint64_t& digest, std::uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (value >> (8 * i)) & 0xff;
    digest *= 0x100000001b3ULL;
  }
}

enum KvOpType : std::size_t { kPut, kGet, kScan, kKvOpTypes };

// Everything one measured pass accumulates. Workloads report into it;
// measure() and run_blocks() own the window and the block boundaries.
struct Pass {
  SpanRecorder* spans = nullptr;  // null: untraced
  bool in_window = false;         // inside the deterministic sim window

  std::uint64_t next_op = 0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t violations = 0;
  std::string first_violation;

  // Host clock, one sample per op (in a batch round: from the start of
  // the op's submit_batch() to the return of its wait()). Samples are kept
  // for the current block only. Only blocks after the simulated window
  // count: the window doubles as a warm-up, past the state a preload
  // leaves. Each such block is followed by one run of the reference loop,
  // and reduces its samples to ops per host second and their p50/p99, all
  // scaled to reference time by that run. The reported host figures are
  // medians over blocks, so neither what other load on the machine leaves
  // uncorrected nor the blocks that carry a KV flush or compaction moves
  // them. scale() is the pass-wide factor, for figures not kept per block.
  std::vector<std::uint32_t> host_op_ns;
  std::uint64_t host_samples = 0;
  std::int64_t block_host_ns = 0;
  std::uint64_t block_ops = 0;
  std::vector<double> block_kops;       // ref units
  std::vector<double> block_p50_ns;     // ref units
  std::vector<double> block_p99_ns;     // ref units
  std::vector<double> block_wall_kops;  // wall clock
  std::vector<std::int64_t> ref_ns;
  std::array<std::vector<std::uint32_t>, kKvOpTypes> kv_host_ns;

  // Simulated clock and counts, window only.
  std::uint64_t window_ops = 0;
  std::uint64_t sim_ns = 0;
  std::vector<std::uint64_t> sim_lat_ns;
  std::array<std::vector<std::uint64_t>, 2> kv_sim_ns;  // put, get
  obs::LatencyBreakdown waits{};
  std::uint64_t user_bytes = 0;
  std::uint64_t digest = kFnvOffset;
  Counters excluded{};  // verification reads inside the window

  std::uint64_t polls = 0;
  std::uint64_t useful_polls = 0;

  void violation(const std::string& what) {
    if (violations++ == 0) first_violation = what;
  }

  void time_step(std::int64_t ns, std::uint32_t ops) {
    block_host_ns += ns;
    block_ops += ops;
  }
  void sample(std::int64_t op_ns) {
    if (!in_window) ++host_samples;
    host_op_ns.push_back(
        static_cast<std::uint32_t>(std::min<std::int64_t>(op_ns, UINT32_MAX)));
  }

  void close_block() {
    if (!in_window) {
      ref_ns.push_back(reference_loop().run_ns());
      const double scale =
          ReferenceLoop::kNominalNs / static_cast<double>(ref_ns.back());
      const double kops = ratio(static_cast<double>(block_ops),
                                static_cast<double>(block_host_ns)) * 1e6;
      block_wall_kops.push_back(kops);
      block_kops.push_back(kops / scale);
      block_p50_ns.push_back(percentile(host_op_ns, 50) * scale);
      block_p99_ns.push_back(percentile(host_op_ns, 99) * scale);
    }
    host_op_ns.clear();
    block_host_ns = 0;
    block_ops = 0;
  }

  // Reference nanoseconds per wall-clock nanosecond in this pass.
  [[nodiscard]] double scale() const {
    return ReferenceLoop::kNominalNs / percentile(ref_ns, 50);
  }

  // One command's outcome: failures are counted, not fatal; successes must
  // satisfy the additivity invariant and feed the simulated samples.
  bool completion(const StatusOr<Completion>& result) {
    if (!result.is_ok() || !result->ok()) {
      failure();
      return false;
    }
    return completion(*result);
  }
  bool completion(const Completion& done) {
    ++attempted;
    const std::string broken =
        obs::check_breakdown_additivity(done.breakdown, done.latency_ns);
    if (!broken.empty()) violation("breakdown additivity: " + broken);
    if (in_window) {
      sim_lat_ns.push_back(done.latency_ns);
      for (std::size_t s = 0; s < obs::kWaitSegmentCount; ++s) {
        waits.ns[s] += done.breakdown.ns[s];
      }
      mix(digest, done.latency_ns);
    }
    return true;
  }

  void failure() {
    ++attempted;
    ++failed;
    if (in_window) mix(digest, ~0ULL);
  }

  // End of one closed-loop step: its simulated duration and wire bytes.
  void step_cost(std::uint64_t step_sim_ns, std::uint64_t step_wire) {
    if (!in_window) return;
    sim_ns += step_sim_ns;
    mix(digest, step_sim_ns);
    mix(digest, step_wire);
  }
};

// -------------------------------------------------------------- workloads

class Workload {
 public:
  explicit Workload(const core::TestbedConfig& config) : testbed_(config) {}
  virtual ~Workload() = default;
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  core::Testbed& testbed() { return testbed_; }
  virtual void preload(Pass& /*pass*/) {}
  // One closed-loop step (one op, or one batch round); returns ops issued.
  virtual std::uint32_t step(Pass& pass) = 0;

 protected:
  // Runs `call` as one step: times it on both clocks and hands the
  // simulated duration and wire bytes to the pass. A one-op step is also
  // that op's host sample; a batch step samples its ops itself.
  template <typename Call>
  auto timed(Pass& pass, std::uint32_t ops, Call&& call) {
    const bx::Nanoseconds sim0 = testbed_.clock().now();
    const std::uint64_t wire0 = testbed_.traffic().total_wire_bytes();
    const std::int64_t t0 = host_now_ns();
    auto result = call();
    const std::int64_t host_ns = host_now_ns() - t0;
    pass.time_step(host_ns, ops);
    if (ops == 1) pass.sample(host_ns);
    pass.step_cost(testbed_.clock().now() - sim0,
                   testbed_.traffic().total_wire_bytes() - wire0);
    return result;
  }

  core::Testbed testbed_;
};

core::TestbedConfig paper_testbed() { return core::TestbedConfig{}; }

// QD1 raw writes on queue 1, NAND off, drawn from seeded shuffles of the
// Fig 5 grid. A seeded 1-in-64 sample is read back with kVendorRawRead;
// those reads are excluded from every metric.
class PayloadGrid final : public Workload {
 public:
  static constexpr std::uint64_t kVerifyEvery = 64;

  explicit PayloadGrid(std::uint64_t seed)
      : Workload(paper_testbed()), rng_(seed), verify_rng_(seed ^ 0x7e51) {
    for (const TransferMethod method :
         {TransferMethod::kPrp, TransferMethod::kSgl,
          TransferMethod::kByteExpress}) {
      for (std::uint32_t size = 32; size <= 4096; size *= 2) {
        deck_.push_back({method, size});
      }
    }
    for (std::uint32_t size = 32; size <= 128; size *= 2) {
      deck_.push_back({TransferMethod::kBandSlim, size});
    }
    pattern_.resize(1 << 20);
    Rng(seed ^ 0xda7a).fill(pattern_.data(), pattern_.size());
    next_ = deck_.size();
  }

  std::uint32_t step(Pass& pass) override {
    if (next_ == deck_.size()) {
      for (std::size_t i = deck_.size() - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[rng_.next_below(i + 1)]);
      }
      next_ = 0;
    }
    const Cell cell = deck_[next_++];
    const std::size_t offset = rng_.next_below(pattern_.size() - cell.size);
    const ConstByteSpan payload(pattern_.data() + offset, cell.size);
    const std::uint64_t op = pass.next_op;
    const auto result = timed(pass, 1, [&] {
      SpanScope root(pass.spans, SpanKind::kOp, op);
      SpanScope call(pass.spans, SpanKind::kRawWrite, op);
      return testbed_.raw_write(payload, cell.method, 1);
    });
    if (pass.completion(result) &&
        verify_rng_.next_below(kVerifyEvery) == 0) {
      read_back(pass, payload);
    }
    return 1;
  }

 private:
  struct Cell {
    TransferMethod method;
    std::uint32_t size;
  };

  void read_back(Pass& pass, ConstByteSpan written) {
    const Counters before = read_counters(testbed_);
    ByteVec back(written.size());
    bx::driver::IoRequest request;
    request.opcode = bx::nvme::IoOpcode::kVendorRawRead;
    request.read_buffer = back;
    const auto result = testbed_.driver().execute(request, 1);
    if (!result.is_ok() || !result->ok() ||
        result->bytes_returned != written.size() ||
        !std::equal(back.begin(), back.end(), written.begin())) {
      pass.violation("raw read-back differs from the written payload");
    }
    if (pass.in_window) add_delta(pass.excluded, read_counters(testbed_), before);
  }

  Rng rng_;
  Rng verify_rng_;
  std::vector<Cell> deck_;
  std::size_t next_ = 0;
  ByteVec pattern_;
};

// KvClient with ByteExpress writes and ByteExpress-R inline reads, NAND on:
// 50 % PUT, 45 % GET, 5 % SCAN(4) over uniform keys and MixGraph values.
// Every GET and SCAN is checked against a shadow copy of the last PUT.
class KvMixgraph final : public Workload {
 public:
  static constexpr std::uint64_t kKeys = 100'000;

  explicit KvMixgraph(std::uint64_t seed)
      : Workload(paper_testbed()),
        client_(testbed_.make_kv_client(TransferMethod::kByteExpress)),
        mixgraph_({.key_space = kKeys, .seed = seed}),
        rng_(seed ^ 0x6b76),
        shadow_(kKeys),
        unknown_(kKeys, false) {
    keys_.reserve(kKeys);
    for (std::uint64_t id = 0; id < kKeys; ++id) {
      keys_.push_back(bx::workload::make_key(id));
    }
  }

  // Every key once, in key order: live data several times the memtable.
  void preload(Pass& pass) override {
    for (std::uint64_t id = 0; id < kKeys; ++id) {
      bx::workload::KvOp op = mixgraph_.next_put();
      if (!client_.put(keys_[id], op.value).is_ok()) {
        pass.violation("preload PUT failed");
        return;
      }
      shadow_[id] = std::move(op.value);
    }
  }

  // Op types come from seeded shuffles of a 20-op deck, so every 20 ops
  // hold exactly the 50/45/5 mix and no block drifts from it.
  std::uint32_t step(Pass& pass) override {
    if (next_ == deck_.size()) {
      for (std::size_t i = deck_.size() - 1; i > 0; --i) {
        std::swap(deck_[i], deck_[rng_.next_below(i + 1)]);
      }
      next_ = 0;
    }
    switch (deck_[next_++]) {
      case kPut:
        put(pass);
        break;
      case kGet:
        get(pass);
        break;
      default:
        scan(pass);
    }
    return 1;
  }

 private:
  // Times one client call as an op of `type` and counts its outcome.
  template <typename Call>
  auto kv_op(Pass& pass, KvOpType type, Call&& call) {
    constexpr std::array<SpanKind, kKvOpTypes> kSpans = {
        SpanKind::kKvPut, SpanKind::kKvGet, SpanKind::kKvScan};
    const std::uint64_t op = pass.next_op;
    auto result = timed(pass, 1, [&] {
      SpanScope root(pass.spans, SpanKind::kOp, op);
      SpanScope span(pass.spans, kSpans[type], op);
      return call();
    });
    if (!pass.in_window) pass.kv_host_ns[type].push_back(pass.host_op_ns.back());
    if (!result.is_ok()) {
      pass.failure();
      return result;
    }
    const Completion& done = client_.last_completion();
    pass.completion(done);
    if (pass.in_window && type != kScan) {
      pass.kv_sim_ns[type].push_back(done.latency_ns);
    }
    return result;
  }

  void put(Pass& pass) {
    bx::workload::KvOp op = mixgraph_.next_put();
    const std::uint64_t id = std::strtoull(op.key.c_str() + 1, nullptr, 16);
    if (!kv_op(pass, kPut, [&] { return client_.put(op.key, op.value); })
             .is_ok()) {
      unknown_[id] = true;
      return;
    }
    if (pass.in_window) pass.user_bytes += op.key.size() + op.value.size();
    shadow_[id] = std::move(op.value);
  }

  void get(Pass& pass) {
    const std::uint64_t id = rng_.next_below(kKeys);
    const auto value = kv_op(pass, kGet, [&] { return client_.get(keys_[id]); });
    if (value.is_ok() && !unknown_[id] && *value != shadow_[id]) {
      pass.violation("GET " + keys_[id] + " differs from its last PUT");
    }
  }

  void scan(Pass& pass) {
    constexpr std::uint32_t kLimit = 4;
    const std::uint64_t id = rng_.next_below(kKeys);
    const auto entries =
        kv_op(pass, kScan, [&] { return client_.scan(keys_[id], kLimit); });
    if (!entries.is_ok()) return;
    // Every key is live, so a scan returns the next keys in order.
    const std::uint64_t expect = std::min<std::uint64_t>(kLimit, kKeys - id);
    bool match = entries->size() == expect;
    for (std::size_t j = 0; match && j < entries->size(); ++j) {
      const bx::kv::KvEntry& entry = (*entries)[j];
      match = entry.key == keys_[id + j] &&
              (unknown_[id + j] || entry.value == shadow_[id + j]);
    }
    if (!match) pass.violation("SCAN from " + keys_[id] + " is wrong");
  }

  bx::kv::KvClient client_;
  bx::workload::MixGraphWorkload mixgraph_;
  Rng rng_;
  std::vector<std::string> keys_;
  std::vector<ByteVec> shadow_;
  // Keys whose last PUT failed: the device may or may not hold it.
  std::vector<bool> unknown_;
  std::array<KvOpType, 20> deck_ = {kPut, kPut, kPut, kPut, kPut, kPut, kPut,
                                    kPut, kPut, kPut, kGet, kGet, kGet, kGet,
                                    kGet, kGet, kGet, kGet, kGet, kScan};
  std::size_t next_ = deck_.size();
};

// Four I/O queues, NAND off, AdaptivePolicy on. Each round submits one
// coalesced submit_batch of 8 kAuto raw writes to every queue, then waits
// for all 32. Sizes are MixGraph values capped at 2 KiB.
class BatchAuto final : public Workload {
 public:
  static constexpr std::uint16_t kQueues = 4;
  static constexpr std::uint32_t kDepth = 8;

  static core::TestbedConfig config() {
    core::TestbedConfig config = paper_testbed();
    config.driver.io_queue_count = kQueues;
    config.policy_enabled = true;
    return config;
  }

  explicit BatchAuto(std::uint64_t seed)
      : Workload(config()),
        sizes_({.value_max = 2048, .seed = seed}),
        rng_(seed ^ 0xba7c) {
    pattern_.resize(1 << 20);
    Rng(seed ^ 0xda7a).fill(pattern_.data(), pattern_.size());
    requests_.resize(kQueues * kDepth);
  }

  std::uint32_t step(Pass& pass) override {
    for (bx::driver::IoRequest& request : requests_) {
      const std::size_t size = sizes_.next_value_size();
      request.opcode = bx::nvme::IoOpcode::kVendorRawWrite;
      request.method = TransferMethod::kAuto;
      request.write_data = ConstByteSpan(
          pattern_.data() + rng_.next_below(pattern_.size() - size), size);
    }
    const std::uint64_t op = pass.next_op;
    bx::driver::NvmeDriver& driver = testbed_.driver();
    timed(pass, kQueues * kDepth, [&] {
      SpanScope root(pass.spans, SpanKind::kOp, op);
      // An op's host sample runs from the start of its queue's
      // submit_batch() to the return of its wait().
      std::array<std::int64_t, kQueues + 1> submit_ns{};
      handles_.clear();
      for (std::uint16_t qid = 1; qid <= kQueues; ++qid) {
        const std::span<const bx::driver::IoRequest> batch(
            requests_.data() + (qid - 1) * kDepth, kDepth);
        submit_ns[qid] = host_now_ns();
        auto submitted = [&] {
          SpanScope call(pass.spans, SpanKind::kSubmitBatch, op);
          return driver.submit_batch(batch, qid);
        }();
        if (!submitted.is_ok()) {
          for (std::uint32_t i = 0; i < kDepth; ++i) pass.failure();
          continue;
        }
        handles_.insert(handles_.end(), submitted->handles.begin(),
                        submitted->handles.end());
      }
      for (const bx::driver::Submitted& handle : handles_) {
        auto done = [&] {
          SpanScope call(pass.spans, SpanKind::kWait, op);
          return driver.wait(handle);
        }();
        pass.sample(host_now_ns() - submit_ns[handle.qid]);
        pass.completion(done);
      }
      return 0;
    });
    return kQueues * kDepth;
  }

 private:
  bx::workload::MixGraphWorkload sizes_;
  Rng rng_;
  ByteVec pattern_;
  std::vector<bx::driver::IoRequest> requests_;
  std::vector<bx::driver::Submitted> handles_;
};

// The run is cut into blocks of `block_ops`. Between blocks nothing is in
// flight: counters are read and the trace recorder and telemetry are
// cleared, so their buffers stay in a steady state however long the run.
struct WorkloadSpec {
  std::string_view name;
  std::function<std::unique_ptr<Workload>(std::uint64_t)> make;
  std::uint64_t block_ops;
  std::uint64_t warmup_blocks;  // part of set-up, after preload
  std::uint64_t window_blocks;  // the deterministic simulated window
  int setups;                   // set-up repetitions (median reported)
};

const std::array<WorkloadSpec, 3> kWorkloads = {{
    {"payload_grid",
     [](std::uint64_t seed) { return std::make_unique<PayloadGrid>(seed); },
     4096, 8, 128, 7},
    {"kv_mixgraph",
     [](std::uint64_t seed) { return std::make_unique<KvMixgraph>(seed); },
     4096, 2, 64, 5},
    {"batch_auto",
     [](std::uint64_t seed) { return std::make_unique<BatchAuto>(seed); },
     4096, 32, 128, 7},
}};

// ------------------------------------------------------------ the driver

struct Measured {
  Pass pass;
  double setup_s = 0;
  // High-water mark at the end of the window, so it does not grow with
  // the number of ops a faster build fits into the host window.
  double peak_rss_mb = 0;
  Counters window{};  // counter deltas over the window, reads excluded
  std::uint64_t polls = 0;  // traced pass only, window
  std::uint64_t useful_polls = 0;
  std::uint64_t trace_dropped = 0;
};

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Runs `blocks` blocks; after each it folds spans, sums dropped trace
// events and clears the trace recorder and telemetry.
void run_blocks(const WorkloadSpec& spec, Workload& workload, Pass& pass,
                std::uint64_t blocks, std::uint64_t& dropped) {
  core::Testbed& testbed = workload.testbed();
  for (std::uint64_t b = 0; b < blocks; ++b) {
    for (std::uint64_t ops = 0; ops < spec.block_ops;) {
      const std::uint32_t n = workload.step(pass);
      pass.next_op += n;
      ops += n;
    }
    pass.close_block();
    if (pass.spans != nullptr) pass.spans->fold();
    dropped += testbed.trace().dropped();
    testbed.trace().clear();
    testbed.telemetry().clear(testbed.clock().now());
  }
}

// Builds the workload (assembly + preload + warm-up) `setups` times and
// keeps the last; the warm-up digests must agree. Each set-up is scaled to
// reference time by the median of reference loops run just before and
// just after it.
std::unique_ptr<Workload> set_up(const WorkloadSpec& spec, std::uint64_t seed,
                                 int setups, Pass& pass, double& setup_s) {
  constexpr int kRefRuns = 3;  // on each side of a set-up
  std::vector<double> seconds;
  std::unique_ptr<Workload> workload;
  std::uint64_t first_digest = 0;
  for (int i = 0; i < setups; ++i) {
    workload.reset();
    Pass warm;
    std::vector<std::int64_t> ref_ns;
    for (int r = 0; r < kRefRuns; ++r) ref_ns.push_back(reference_loop().run_ns());
    const std::int64_t t0 = host_now_ns();
    workload = spec.make(seed);
    workload->preload(warm);
    warm.in_window = true;
    std::uint64_t dropped = 0;
    run_blocks(spec, *workload, warm, spec.warmup_blocks, dropped);
    const std::int64_t wall_ns = host_now_ns() - t0;
    for (int r = 0; r < kRefRuns; ++r) ref_ns.push_back(reference_loop().run_ns());
    seconds.push_back(static_cast<double>(wall_ns) / 1e9 *
                      ReferenceLoop::kNominalNs / percentile(ref_ns, 50));
    if (i == 0) first_digest = warm.digest;
    if (warm.digest != first_digest) {
      pass.violation("warm-up digest differs between set-ups at one seed");
    }
    if (warm.violations > 0) pass.violation("warm-up: " + warm.first_violation);
    if (warm.failed > 0) pass.violation("warm-up operations failed");
    if (dropped > 0) pass.violation("warm-up dropped trace events");
    pass.next_op = warm.next_op;
  }
  std::sort(seconds.begin(), seconds.end());
  setup_s = seconds[seconds.size() / 2];
  return workload;
}

Measured measure(const WorkloadSpec& spec, std::uint64_t seed, double seconds,
                 int setups, SpanRecorder* spans) {
  Measured m;
  Pass& pass = m.pass;
  std::unique_ptr<Workload> workload =
      set_up(spec, seed, setups, pass, m.setup_s);
  core::Testbed& testbed = workload->testbed();

  std::mutex pump_mutex;  // serializes the pump like the firmware mutex
  if (spans != nullptr) {
    pass.spans = spans;
    testbed.driver().set_pump([&] {
      std::lock_guard<std::mutex> lock(pump_mutex);
      SpanScope poll(spans, SpanKind::kPollOnce, spans->current_op());
      const bool progressed = testbed.controller().poll_once();
      ++pass.polls;
      if (progressed) ++pass.useful_polls;
      return progressed;
    });
  }

  // The deterministic window, then more blocks until the time is up.
  const std::int64_t start = host_now_ns();
  const Counters before = read_counters(testbed);
  pass.in_window = true;
  const std::uint64_t first_op = pass.next_op;
  run_blocks(spec, *workload, pass, spec.window_blocks, m.trace_dropped);
  pass.window_ops = pass.next_op - first_op;
  pass.in_window = false;
  add_delta(m.window, read_counters(testbed), before);
  for (std::size_t i = 0; i < kCtrCount; ++i) m.window[i] -= pass.excluded[i];
  m.polls = pass.polls;
  m.useful_polls = pass.useful_polls;
  m.peak_rss_mb = peak_rss_mb();

  const auto deadline = start + static_cast<std::int64_t>(seconds * 1e9);
  do {
    run_blocks(spec, *workload, pass, 1, m.trace_dropped);
  } while (host_now_ns() < deadline);
  return m;
}

// ------------------------------------------------------------- reporting

class Report {
 public:
  void add(const std::string& name, double value, const char* unit,
           std::size_t samples = 0, const char* of = "samples") {
    if (samples > 0) {
      std::printf("%-44s %18.6f %-10s (n=%zu %s)\n", name.c_str(), value,
                  unit, samples, of);
    } else {
      std::printf("%-44s %18.6f %s\n", name.c_str(), value, unit);
    }
    char buf[512];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  json_.empty() ? "" : ", ", name.c_str(), value, unit);
    json_ += buf;
  }
  [[nodiscard]] const std::string& json() const { return json_; }

 private:
  std::string json_;
};

double host_kops(const Pass& pass) { return percentile(pass.block_kops, 50); }
double host_kops_wall(const Pass& pass) {
  return percentile(pass.block_wall_kops, 50);
}

void report_end_to_end(Report& r, const Measured& m) {
  const Pass& p = m.pass;
  const double ops = static_cast<double>(p.window_ops);
  r.add("host_kops", host_kops(p), "kop/ref_s", p.block_kops.size(), "blocks");
  r.add("host_op_us_p50", percentile(p.block_p50_ns, 50) / 1e3, "ref_us",
        p.host_samples, "samples");
  r.add("sim_kops", ratio(ops, static_cast<double>(p.sim_ns)) * 1e6,
        "kop/sim_s");
  r.add("sim_lat_us_p50", percentile(p.sim_lat_ns, 50) / 1e3, "sim_us",
        p.sim_lat_ns.size());
  r.add("sim_lat_us_p99", percentile(p.sim_lat_ns, 99) / 1e3, "sim_us",
        p.sim_lat_ns.size());
  r.add("wire_bytes_per_op",
        ratio(static_cast<double>(m.window[kWireDown] + m.window[kWireUp]), ops),
        "B/op");
  r.add("setup_s", m.setup_s, "s");
  r.add("peak_rss_mb", m.peak_rss_mb, "MiB");
}

void report_per_layer(Report& r, const Measured& untraced,
                      const Measured& traced, const SpanRecorder& spans) {
  const Pass& p = traced.pass;
  const Counters& w = traced.window;
  const double ops = static_cast<double>(p.window_ops);
  const double host_ops = static_cast<double>(p.attempted);
  const auto per_op = [&](std::uint64_t v) {
    return ratio(static_cast<double>(v), ops);
  };
  const auto span_us = [&](std::int64_t ns) {
    return ratio(static_cast<double>(ns) * p.scale() / 1e3, host_ops);
  };
  const auto seg = [&](obs::WaitSegment s) { return per_op(p.waits.of(s)); };
  const auto kind = [](SpanKind k) { return static_cast<std::size_t>(k); };

  std::int64_t driver_self = 0;
  for (const SpanKind k : {SpanKind::kRawWrite, SpanKind::kSubmitBatch,
                           SpanKind::kWait, SpanKind::kKvPut, SpanKind::kKvGet,
                           SpanKind::kKvScan}) {
    driver_self += spans.self_ns[kind(k)];
  }
  r.add("driver.self_us_per_op", span_us(driver_self), "ref_us");
  r.add("driver.sq_doorbells_per_op", per_op(w[kSqDoorbells]), "count");
  r.add("driver.sim.slot_wait_ns_per_op", seg(obs::WaitSegment::kSlotWait),
        "sim_ns");
  r.add("driver.sim.bell_hold_ns_per_op", seg(obs::WaitSegment::kBellHold),
        "sim_ns");
  r.add("driver.sim.delivery_ns_per_op", seg(obs::WaitSegment::kDelivery),
        "sim_ns");
  r.add("driver.inline_fallback_ratio", per_op(w[kInlineFallbacks]), "ratio");

  r.add("controller.host_us_per_op",
        span_us(spans.total_ns[kind(SpanKind::kPollOnce)]), "ref_us");
  r.add("controller.polls_per_op", per_op(traced.polls), "count");
  r.add("controller.poll_useful_ratio",
        ratio(static_cast<double>(traced.useful_polls),
              static_cast<double>(traced.polls)),
        "ratio");
  r.add("controller.chunks_fetched_per_op", per_op(w[kChunksFetched]), "count");
  const std::array<std::pair<const char*, Ctr>, 7> stages = {{
      {"sqe_fetch", kStageSqeFetch},
      {"chunk_fetch", kStageChunkFetch},
      {"prp_dma", kStagePrpDma},
      {"sgl_dma", kStageSglDma},
      {"exec", kStageExec},
      {"completion", kStageCompletion},
      {"read_chunk", kStageReadChunk},
  }};
  for (const auto& [name, ctr] : stages) {
    r.add(std::string("controller.sim.") + name + "_ns_per_op", per_op(w[ctr]),
          "sim_ns");
  }
  r.add("controller.sim.arb_wait_ns_per_op", seg(obs::WaitSegment::kArbWait),
        "sim_ns");
  r.add("controller.sim.service_ns_per_op", seg(obs::WaitSegment::kService),
        "sim_ns");

  r.add("pcie.tlps_per_op", per_op(w[kTlps]), "count");
  r.add("pcie.down_wire_bytes_per_op", per_op(w[kWireDown]), "B");
  r.add("pcie.up_wire_bytes_per_op", per_op(w[kWireUp]), "B");
  const std::array<std::pair<const char*, Ctr>, 6> classes = {{
      {"cmd_fetch", kWireCmdFetch},
      {"data_prp", kWireDataPrp},
      {"data_sgl", kWireDataSgl},
      {"data_inline_read", kWireDataInlineRead},
      {"doorbell", kWireDoorbell},
      {"completion", kWireCompletion},
  }};
  for (const auto& [name, ctr] : classes) {
    r.add(std::string("pcie.") + name + ".wire_bytes_per_op", per_op(w[ctr]),
          "B");
  }

  r.add("obs.trace_events_per_op", per_op(w[kTraceEvents]), "count");
  r.add("obs.trace_events_dropped",
        static_cast<double>(untraced.trace_dropped + traced.trace_dropped),
        "count");

  // Host percentiles come from the untraced pass, simulated ones from the
  // window (identical in both passes).
  const Pass& u = untraced.pass;
  const std::array<const char*, kKvOpTypes> kv_names = {"put", "get", "scan"};
  for (std::size_t t = 0; t < kKvOpTypes; ++t) {
    r.add(std::string("kv.") + kv_names[t] + ".host_us_p50",
          percentile(u.kv_host_ns[t], 50) * u.scale() / 1e3, "ref_us",
          u.kv_host_ns[t].size());
  }
  for (std::size_t t = 0; t < 2; ++t) {
    r.add(std::string("kv.") + kv_names[t] + ".host_us_p99",
          percentile(u.kv_host_ns[t], 99) * u.scale() / 1e3, "ref_us",
          u.kv_host_ns[t].size());
  }
  for (std::size_t t = 0; t < 2; ++t) {
    r.add(std::string("kv.") + kv_names[t] + ".sim_us_p99",
          percentile(p.kv_sim_ns[t], 99) / 1e3, "sim_us",
          p.kv_sim_ns[t].size());
  }
  r.add("kv.flushes", static_cast<double>(w[kKvFlushes]), "count");
  r.add("kv.compactions", static_cast<double>(w[kKvCompactions]), "count");

  r.add("nand.programs_per_op", per_op(w[kNandPrograms]), "count");
  r.add("nand.reads_per_op", per_op(w[kNandReads]), "count");
  r.add("nand.erases", static_cast<double>(w[kNandErases]), "count");
  r.add("nand.ftl_waf",
        ratio(static_cast<double>(w[kFtlUserWrites] + w[kFtlGcRelocations]),
              static_cast<double>(w[kFtlUserWrites])),
        "ratio");
  r.add("nand.bytes_programmed_per_user_byte",
        ratio(static_cast<double>(w[kNandPrograms]) * 4096.0,
              static_cast<double>(p.user_bytes)),
        "ratio");

  r.add("policy.inline_share",
        ratio(static_cast<double>(w[kPolicyInline]),
              static_cast<double>(w[kPolicyInline] + w[kPolicyDma])),
        "ratio");
  r.add("policy.mode_switches", static_cast<double>(w[kPolicySwitches]),
        "count");
  r.add("policy.rejects", static_cast<double>(w[kPolicyRejects]), "count");

  r.add("bench.trace_overhead", ratio(host_kops(u), host_kops(p)), "ratio");
  r.add("bench.host_op_us_p99", percentile(u.block_p99_ns, 50) / 1e3, "ref_us",
        u.host_samples, "samples");
  r.add("bench.host_kops_wall", host_kops_wall(u), "kop/s",
        u.block_wall_kops.size(), "blocks");
  r.add("bench.ref_loop_us", percentile(u.ref_ns, 50) / 1e3, "us",
        u.ref_ns.size(), "runs");
  r.add("bench.fail_ratio",
        ratio(static_cast<double>(u.failed + p.failed),
              static_cast<double>(u.attempted + p.attempted)),
        "ratio");
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans_out;
};

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
    } else if (key == "--seed") {
      o.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      o.seconds = std::strtod(value, nullptr);
    } else if (key == "--trace") {
      o.trace = std::string_view(value) == "1";
    } else if (key == "--spans-out") {
      o.spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--spans-out FILE]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& candidate : kWorkloads) {
    if (candidate.name == options.workload) spec = &candidate;
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }

  Report report;
  Measured main_pass;
  bool correct = true;
  std::vector<const Measured*> passes;
  Measured traced;
  SpanRecorder spans;
  if (!options.trace) {
    main_pass = measure(*spec, options.seed, options.seconds, spec->setups,
                        nullptr);
    passes = {&main_pass};
    report_end_to_end(report, main_pass);
  } else {
    main_pass = measure(*spec, options.seed, options.seconds, 1, nullptr);
    traced = measure(*spec, options.seed, options.seconds, 1, &spans);
    passes = {&main_pass, &traced};
    if (traced.pass.digest != main_pass.pass.digest) {
      correct = false;
      std::fprintf(stderr, "violation: traced and untraced simulated outputs "
                           "differ at one seed\n");
    }
    report_per_layer(report, main_pass, traced, spans);
    if (!options.spans_out.empty() && !spans.write(options.spans_out)) {
      std::fprintf(stderr, "cannot write %s\n", options.spans_out.c_str());
      return 1;
    }
  }

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const Measured* m : passes) {
    attempted += m->pass.attempted;
    failed += m->pass.failed;
    if (m->pass.violations > 0) {
      correct = false;
      std::fprintf(stderr, "violation (%" PRIu64 " total): %s\n",
                   m->pass.violations, m->pass.first_violation.c_str());
    }
    if (m->trace_dropped > 0) {
      correct = false;
      std::fprintf(stderr, "violation: %" PRIu64 " trace events dropped\n",
                   m->trace_dropped);
    }
  }
  std::printf("failed %" PRIu64 " of %" PRIu64 " attempted (fail_ratio %.6g)\n",
              failed, attempted,
              ratio(static_cast<double>(failed), static_cast<double>(attempted)));
  std::printf("window_ops %" PRIu64 "\n", main_pass.pass.window_ops);
  std::printf("wall host_kops %.3f, reference loop %.1f us (scale %.4f)\n",
              host_kops_wall(main_pass.pass),
              percentile(main_pass.pass.ref_ns, 50) / 1e3,
              main_pass.pass.scale());
  std::printf("perfbench-digest %s %" PRIu64 " %016" PRIx64 "\n",
              spec->name.data(), options.seed, main_pass.pass.digest);
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {%s}}\n",
              correct ? "true" : "false", attempted, failed,
              report.json().c_str());
  return 0;
}
