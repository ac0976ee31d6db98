#include "tenant/scheduler.h"

#include <string>
#include <utility>

namespace bx::tenant {

TenantScheduler::TenantScheduler(core::Testbed& bed, SchedulerConfig config)
    : bed_(bed), gate_(config.tenants) {
  bed_.driver().set_submission_gate(&gate_);
  for (const TenantConfig& tenant : config.tenants) {
    BX_ASSERT_MSG(tenant.hw_qid >= 1 &&
                      tenant.hw_qid <= bed_.driver().io_queue_count(),
                  "tenant hardware queue out of range");
    bed_.controller().set_queue_arbitration(tenant.hw_qid, tenant.weight,
                                            tenant.urgent);
    const AdmissionController::TenantCounters* counters =
        gate_.counters(tenant.id);
    bed_.telemetry().register_tenant(
        tenant.id, &counters->admitted, &counters->rejected,
        &counters->payload_bytes, &counters->completions,
        &counters->inflight_slots);
    const std::string prefix = "tenant." + tenant.metric_name() + ".";
    obs::MetricsRegistry& metrics = bed_.metrics();
    metrics.expose_counter(prefix + "admitted", &counters->admitted);
    metrics.expose_counter(prefix + "rejected", &counters->rejected);
    metrics.expose_counter(prefix + "payload_bytes", &counters->payload_bytes);
    metrics.expose_counter(prefix + "completions", &counters->completions);
    metrics.expose_gauge(prefix + "inflight_slots", &counters->inflight_slots);

    PerTenant per;
    per.config = tenant;
    per.vqueue = std::make_unique<VirtualQueue>(
        bed_.driver(), tenant.id, tenant.hw_qid, config.vqueue_depth);
    per.latency = &metrics.histogram(prefix + "latency_ns");
    per.errors = &metrics.counter(prefix + "errors");
    tenants_.emplace(tenant.id, std::move(per));
  }
}

TenantScheduler::~TenantScheduler() {
  // The scheduler owns the gate; commands must have drained by now
  // (set_submission_gate is assembly-time only).
  bed_.driver().set_submission_gate(nullptr);
}

TenantScheduler::PerTenant& TenantScheduler::entry(std::uint16_t tenant) {
  auto it = tenants_.find(tenant);
  BX_ASSERT_MSG(it != tenants_.end(), "unknown tenant");
  return it->second;
}

const TenantScheduler::PerTenant& TenantScheduler::entry(
    std::uint16_t tenant) const {
  auto it = tenants_.find(tenant);
  BX_ASSERT_MSG(it != tenants_.end(), "unknown tenant");
  return it->second;
}

VirtualQueue& TenantScheduler::vqueue(std::uint16_t tenant) {
  return *entry(tenant).vqueue;
}

void TenantScheduler::record(std::uint16_t tenant,
                             const driver::Completion& completion) {
  PerTenant& per = entry(tenant);
  per.latency->record(static_cast<std::uint64_t>(completion.latency_ns));
  if (!completion.ok()) per.errors->increment();
}

StatusOr<driver::Completion> TenantScheduler::execute_write(
    std::uint16_t tenant, ConstByteSpan payload,
    driver::TransferMethod method) {
  VirtualQueue& vq = vqueue(tenant);
  auto vcid = vq.submit_write(payload, method);
  if (!vcid.is_ok()) return vcid.status();
  auto completion = vq.wait(vcid.value());
  if (!completion.is_ok()) return completion.status();
  record(tenant, completion.value());
  return completion;
}

bool TenantScheduler::would_admit(std::uint16_t tenant,
                                  std::uint64_t payload_bytes,
                                  driver::TransferMethod method) {
  // The driver's own charge, so would_admit() previews the real decision.
  return gate_.would_admit(
      tenant, payload_bytes,
      driver::NvmeDriver::inline_slots_for(method, payload_bytes),
      bed_.clock().now());
}

LatencyHistogram TenantScheduler::latency(std::uint16_t tenant) const {
  return entry(tenant).latency->snapshot();
}

std::uint64_t TenantScheduler::errors(std::uint16_t tenant) const {
  return entry(tenant).errors->value();
}

std::uint64_t TenantScheduler::hw_grants(std::uint16_t tenant) const {
  return bed_.controller().grants(entry(tenant).config.hw_qid);
}

}  // namespace bx::tenant
