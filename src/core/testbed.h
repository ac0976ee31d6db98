// The assembled system: host memory, PCIe link, BAR space, SSD (NAND + FTL
// + KV + CSD), NVMe controller, and the host NVMe driver — wired together
// exactly like the paper's testbed (Xeon host <-> Cosmos+ OpenSSD over
// PCIe Gen2 x8).
//
// This is the top-level entry point of the library: construct a Testbed,
// pick a transfer method, and issue I/O through the driver or the KV/CSD
// clients. All simulated time and PCIe traffic is observable through
// clock() and traffic().
#pragma once

#include <memory>
#include <mutex>

#include "common/sim_clock.h"
#include "common/status.h"
#include "controller/controller.h"
#include "core/calibration.h"
#include "csd/csd_client.h"
#include "driver/nvme_driver.h"
#include "fault/fault.h"
#include "hostmem/dma_memory.h"
#include "kv/kv_client.h"
#include "obs/metrics.h"
#include "obs/telemetry.h"
#include "obs/trace.h"
#include "pcie/bar.h"
#include "policy/adaptive_policy.h"
#include "pcie/link.h"
#include "pcie/traffic_counter.h"
#include "ssd/ssd_device.h"

namespace bx::core {

struct TestbedConfig {
  pcie::LinkConfig link = paper_link_config();
  driver::NvmeDriver::Config driver{};
  controller::Controller::Config controller{};
  ssd::SsdDevice::Config ssd{};
  /// Runtime switch for the end-to-end trace recorder's event log.
  /// Metrics, the 0xC1 stage log and every completion's wait/service
  /// breakdown (built from the controller's device reports) stay on
  /// regardless.
  bool trace_enabled = true;
  /// Windowed time-series sampler (PCM-style link telemetry). With
  /// `telemetry.enabled = false` no window ever closes and the link gets
  /// no Telemetry pointer, so the hot-path cost is one null check per
  /// link primitive.
  obs::TelemetryConfig telemetry{};
  /// Seeded fault-injection policy (see docs/FAULTS.md). With the default
  /// all-zero policy no injector is constructed and no component takes a
  /// pointer, so healthy runs are byte-identical to a build without the
  /// fault subsystem.
  fault::FaultPolicy faults{};
  std::uint64_t fault_seed = 0x5eed;
  /// Adaptive method selection (TransferMethod::kAuto, docs/POLICY.md).
  /// When enabled an AdaptivePolicy is built and attached to the driver
  /// and telemetry; otherwise kAuto degrades to kHybrid semantics. The
  /// link rate (`policy.link_bytes_per_ns`) is overwritten at assembly
  /// from the link config so it cannot drift.
  bool policy_enabled = false;
  policy::AdaptivePolicyConfig policy{};
};

class Testbed {
 public:
  /// Builds and attaches the full system (admin queue registered, I/O
  /// queues created through real admin commands). Aborts on setup failure
  /// — a testbed that failed to assemble is a programming error.
  explicit Testbed(TestbedConfig config = {});
  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  [[nodiscard]] driver::NvmeDriver& driver() noexcept { return *driver_; }
  [[nodiscard]] controller::Controller& controller() noexcept {
    return *controller_;
  }
  [[nodiscard]] ssd::SsdDevice& device() noexcept { return *device_; }
  [[nodiscard]] const ssd::SsdDevice& device() const noexcept {
    return *device_;
  }
  [[nodiscard]] SimClock& clock() noexcept { return clock_; }
  [[nodiscard]] pcie::TrafficCounter& traffic() noexcept { return traffic_; }
  /// The end-to-end trace recorder all layers report into.
  [[nodiscard]] obs::TraceRecorder& trace() noexcept { return trace_; }
  /// The named-metrics registry every layer binds its counters into.
  [[nodiscard]] obs::MetricsRegistry& metrics() noexcept { return metrics_; }
  /// The windowed link sampler (empty when config.telemetry.enabled is
  /// false — no window closes). Call telemetry().flush(clock().now())
  /// before reading samples so the final partial window is closed.
  [[nodiscard]] obs::Telemetry& telemetry() noexcept { return telemetry_; }
  /// The fault injector, or nullptr when config.faults is all-zero.
  [[nodiscard]] fault::FaultInjector* fault_injector() noexcept {
    return injector_.get();
  }
  /// The adaptive kAuto policy, or nullptr when config.policy_enabled is
  /// false.
  [[nodiscard]] policy::AdaptivePolicy* method_policy() noexcept {
    return policy_.get();
  }
  [[nodiscard]] DmaMemory& memory() noexcept { return memory_; }
  [[nodiscard]] pcie::BarSpace& bar() noexcept { return bar_; }
  [[nodiscard]] pcie::PcieLink& link() noexcept { return link_; }
  [[nodiscard]] const TestbedConfig& config() const noexcept {
    return config_;
  }

  /// Host-side clients bound to this testbed.
  [[nodiscard]] kv::KvClient make_kv_client(
      driver::TransferMethod method, std::uint16_t qid = 1);
  [[nodiscard]] csd::CsdClient make_csd_client(
      driver::TransferMethod method, std::uint16_t qid = 1);

  /// One NAND-off microbenchmark write (device DRAM scratch only) — the
  /// §4.2 payload-sweep primitive.
  StatusOr<driver::Completion> raw_write(ConstByteSpan payload,
                                         driver::TransferMethod method,
                                         std::uint16_t qid = 1);

  /// Resets the traffic counters (and with them the `pcie.*` metrics), the
  /// trace buffer and the driver's wait sums (NvmeDriver::waits()), and
  /// restarts telemetry sampling (the clock keeps running — simulated time
  /// is monotonic). Controller counters and the stage ledger keep
  /// counting; measure them as deltas.
  void reset_counters();

 private:
  TestbedConfig config_;
  /// Declared before the components that record into them.
  obs::TraceRecorder trace_;
  obs::MetricsRegistry metrics_;
  obs::Telemetry telemetry_;
  /// The controller models ONE firmware core; concurrent host threads all
  /// pump through this lock so firmware state never races.
  std::mutex firmware_mutex_;
  SimClock clock_;
  DmaMemory memory_;
  pcie::TrafficCounter traffic_;
  pcie::PcieLink link_;
  pcie::BarSpace bar_;
  std::unique_ptr<fault::FaultInjector> injector_;
  std::unique_ptr<policy::AdaptivePolicy> policy_;
  std::unique_ptr<ssd::SsdDevice> device_;
  std::unique_ptr<controller::Controller> controller_;
  std::unique_ptr<driver::NvmeDriver> driver_;
};

}  // namespace bx::core
