#include "core/testbed.h"

namespace bx::core {

Testbed::Testbed(TestbedConfig config)
    : config_(config),
      link_(config.link, clock_, traffic_),
      bar_(controller::Controller::kMaxQueues) {
  device_ = std::make_unique<ssd::SsdDevice>(clock_, config.ssd);
  controller_ = std::make_unique<controller::Controller>(
      memory_, link_, bar_, *device_, config.controller);
  driver_ = std::make_unique<driver::NvmeDriver>(memory_, link_, bar_,
                                                 config.driver);

  // Observability wiring: one recorder/registry spanning every layer.
  trace_.set_enabled(config.trace_enabled);
  const pcie::TrafficCounter::Cell& link_totals = traffic_.totals();
  metrics_.expose_counter("pcie.tlps", &link_totals.tlps);
  metrics_.expose_counter("pcie.wire_bytes", &link_totals.wire_bytes);
  metrics_.expose_counter("pcie.data_bytes", &link_totals.data_bytes);
  device_->set_tracer(&trace_);
  controller_->set_tracer(&trace_);
  controller_->bind_metrics(metrics_);
  driver_->set_tracer(&trace_);
  driver_->bind_metrics(metrics_);

  // Adaptive kAuto selection: built only on request; metrics must bind
  // BEFORE init_io_queues() so register_queue() can expose the per-queue
  // policy.qN.congested gauges.
  if (config.policy_enabled) {
    policy::AdaptivePolicyConfig pconfig = config.policy;
    pconfig.link_bytes_per_ns = link_.config().bytes_per_ns();
    policy_ = std::make_unique<policy::AdaptivePolicy>(pconfig);
    policy_->bind_metrics(metrics_);
    driver_->set_method_policy(policy_.get());
  }

  // Fault injection: constructed only when the policy draws anything, so
  // healthy testbeds never take the recovery-housekeeping paths.
  if (config.faults.any()) {
    injector_ =
        std::make_unique<fault::FaultInjector>(config.fault_seed,
                                               config.faults);
    injector_->bind_metrics(metrics_);
    link_.set_fault_injector(injector_.get());
    controller_->set_fault_injector(injector_.get());
  }

  // Windowed sampler: every layer registers the counters it already
  // keeps. The link and driver only get the pointer when telemetry is
  // enabled, so a disabled run pays one null check per link primitive.
  telemetry_.configure(config.telemetry);
  telemetry_.set_link_rate(link_.config().bytes_per_ns());
  obs::Telemetry* telemetry =
      config.telemetry.enabled ? &telemetry_ : nullptr;
  link_.set_telemetry(telemetry);
  controller_->bind_telemetry(telemetry_);
  driver_->set_telemetry(telemetry);
  // The policy learns on the window grid (EWMAs, hysteresis) and its
  // decision counters feed the per-window policy_* sample fields.
  if (policy_ != nullptr) policy_->attach_telemetry(telemetry_);

  const auto admin = driver_->admin_queue_info();
  controller_->set_admin_queue(admin.sq_addr, admin.sq_depth, admin.cq_addr,
                               admin.cq_depth);
  controller_->set_namespace_blocks(device_->block_namespace_pages());
  driver_->set_pump([this] {
    std::lock_guard<std::mutex> lock(firmware_mutex_);
    return controller_->poll_once();
  });

  const Status queues = driver_->init_io_queues();
  BX_ASSERT_MSG(queues.is_ok(), "I/O queue creation failed");
}

kv::KvClient Testbed::make_kv_client(driver::TransferMethod method,
                                     std::uint16_t qid) {
  kv::KvClient::Options options;
  options.qid = qid;
  options.method = method;
  return {*driver_, options};
}

csd::CsdClient Testbed::make_csd_client(driver::TransferMethod method,
                                        std::uint16_t qid) {
  csd::CsdClient::Options options;
  options.qid = qid;
  options.method = method;
  return {*driver_, options};
}

StatusOr<driver::Completion> Testbed::raw_write(
    ConstByteSpan payload, driver::TransferMethod method,
    std::uint16_t qid) {
  driver::IoRequest request;
  request.opcode = nvme::IoOpcode::kVendorRawWrite;
  request.method = method;
  request.write_data = payload;
  return driver_->execute(request, qid);
}

void Testbed::reset_counters() {
  traffic_.reset();
  trace_.clear();
  driver_->reset_waits();
  // Re-bases the windows on the reset traffic and wait counters before
  // any window can close against the old baseline.
  telemetry_.clear(clock_.now());
}

}  // namespace bx::core
