// TenantScheduler: assembles the multi-tenant view of one Testbed.
//
// Construction wires the whole tenancy stack in one place:
//   * builds the AdmissionController from the tenant configs and
//     attaches it as the driver's SubmissionGate,
//   * maps each tenant onto its hardware queue and programs the
//     controller's arbiter (weight + urgent class) for that queue,
//   * registers every tenant's service counters with obs::Telemetry
//     (per-window TenantWindow sampling) and publishes them in the
//     MetricsRegistry as tenant.<name>.{admitted,rejected,payload_bytes,
//     completions,inflight_slots}, plus a registry-owned per-tenant
//     latency histogram tenant.<name>.latency_ns and error counter
//     tenant.<name>.errors,
//   * creates one VirtualQueue per tenant.
//
// After construction the per-tenant data path is: tenant thread ->
// VirtualQueue::submit (tags tenant id) -> driver submit path ->
// AdmissionController::admit (budgets) -> hardware queue -> controller
// WRR arbiter (weights) -> completion -> record() (latency histogram +
// fault accounting). See docs/TENANCY.md for the full picture.
//
// Lifetime: the scheduler must outlive every in-flight tenant command
// (it owns the gate the driver points at); it detaches the gate on
// destruction. One scheduler per testbed.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/status.h"
#include "core/testbed.h"
#include "tenant/tenant.h"
#include "tenant/vqueue.h"

namespace bx::tenant {

struct SchedulerConfig {
  std::vector<TenantConfig> tenants;
  /// Virtual SQ depth per tenant (bounds in-flight commands locally).
  std::uint32_t vqueue_depth = 64;
};

class TenantScheduler {
 public:
  /// Wires tenants into `bed` (see header comment). Aborts on config
  /// errors (duplicate ids, hw_qid out of range) — a scheduler that
  /// failed to assemble is a programming error, same rule as Testbed.
  TenantScheduler(core::Testbed& bed, SchedulerConfig config);
  ~TenantScheduler();
  TenantScheduler(const TenantScheduler&) = delete;
  TenantScheduler& operator=(const TenantScheduler&) = delete;

  [[nodiscard]] VirtualQueue& vqueue(std::uint16_t tenant);
  [[nodiscard]] AdmissionController& admission() noexcept { return gate_; }
  [[nodiscard]] const std::vector<std::uint16_t>& tenant_ids() const noexcept {
    return gate_.tenant_ids();
  }

  /// Records one resolved completion into the tenant's latency histogram
  /// and error counter (per-tenant fault accounting: a completion whose
  /// device status is an error counts in tenant.<name>.errors).
  void record(std::uint16_t tenant, const driver::Completion& completion);

  /// Convenience synchronous write: virtual-queue submit, wait, record.
  /// Gate and virtual-queue rejections surface as the submit status and
  /// are NOT recorded as completions.
  StatusOr<driver::Completion> execute_write(std::uint16_t tenant,
                                             ConstByteSpan payload,
                                             driver::TransferMethod method);

  /// Non-consuming admission preview for `payload_bytes` sent with
  /// `method` (computes the inline-slot charge the gate would apply).
  [[nodiscard]] bool would_admit(std::uint16_t tenant,
                                 std::uint64_t payload_bytes,
                                 driver::TransferMethod method);

  /// Exact snapshot of the tenant's recorded latencies.
  [[nodiscard]] LatencyHistogram latency(std::uint16_t tenant) const;
  /// Error completions recorded for the tenant.
  [[nodiscard]] std::uint64_t errors(std::uint16_t tenant) const;
  /// Controller grants observed on the tenant's hardware queue (the WRR
  /// conformance figure; see Controller::grants()).
  [[nodiscard]] std::uint64_t hw_grants(std::uint16_t tenant) const;

 private:
  struct PerTenant {
    TenantConfig config;
    std::unique_ptr<VirtualQueue> vqueue;
    obs::Histogram* latency = nullptr;  // registry-owned
    obs::Counter* errors = nullptr;     // registry-owned
  };

  [[nodiscard]] PerTenant& entry(std::uint16_t tenant);
  [[nodiscard]] const PerTenant& entry(std::uint16_t tenant) const;

  core::Testbed& bed_;
  AdmissionController gate_;
  std::map<std::uint16_t, PerTenant> tenants_;
};

}  // namespace bx::tenant
