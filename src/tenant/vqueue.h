// Per-tenant virtual submission/completion queue.
//
// A VirtualQueue is the tenant-facing half of queue virtualization: the
// tenant submits into a bounded virtual SQ and reaps from a virtual CQ,
// never naming a hardware queue. The queue owns every in-flight payload
// (the driver requires spans to stay valid until completion), tags each
// request with the tenant id (IoRequest::tenant — the key the
// SubmissionGate, trace events and per-tenant telemetry all attribute
// by), and forwards onto the ONE hardware queue the TenantScheduler
// mapped this tenant to. Virtual CIDs are allocated monotonically and
// never recycle, so a tenant can hold completions out of order without
// ambiguity even though the hardware CID space recycles underneath.
//
// Depth is the tenant's virtual ring bound: submissions beyond `depth`
// in-flight commands fail with kResourceExhausted locally, before the
// driver or the gate is consulted — a flooding tenant first fills its
// OWN virtual queue, not the shared rings.
//
// Threading: one VirtualQueue belongs to one tenant driver thread
// (it keeps no lock of its own). Different tenants'
// VirtualQueues may run on different threads concurrently — the driver
// and gate below are thread-safe.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "driver/nvme_driver.h"
#include "driver/request.h"

namespace bx::tenant {

class VirtualQueue {
 public:
  /// `depth` bounds in-flight commands on this virtual queue (>= 1).
  VirtualQueue(driver::NvmeDriver& driver, std::uint16_t tenant,
               std::uint16_t hw_qid, std::uint32_t depth);
  VirtualQueue(const VirtualQueue&) = delete;
  VirtualQueue& operator=(const VirtualQueue&) = delete;

  /// Copies `payload` into queue-owned storage, tags the tenant and
  /// submits a vendor raw write on the mapped hardware queue. Returns
  /// the virtual CID. Fails with kResourceExhausted when the virtual
  /// queue is full, and surfaces gate rejections (also
  /// kResourceExhausted) unchanged — both count in `rejected_local` /
  /// the tenant's gate counters respectively.
  StatusOr<std::uint64_t> submit_write(ConstByteSpan payload,
                                       driver::TransferMethod method);

  /// As submit_write but for a fully-specified request (KV/CSD/read
  /// commands). Write payloads are still copied and owned; the caller
  /// keeps ownership of read buffers (valid until the command retires —
  /// retries resubmit the stored request).
  StatusOr<std::uint64_t> submit(driver::IoRequest request);

  /// Waits for one virtual CID (any order) and retires it, running the
  /// driver's retry/degradation tail (NvmeDriver::wait_resolved) so
  /// injected faults on tenant commands classify into the
  /// faults.{recovered,degraded,failed} trio exactly as execute()'s do.
  StatusOr<driver::Completion> wait(std::uint64_t vcid);

  /// Retires every in-flight command in submission order, appending each
  /// completion to `out` (when non-null). Returns the first wait error.
  Status drain(std::vector<driver::Completion>* out = nullptr);

  [[nodiscard]] std::uint16_t tenant() const noexcept { return tenant_; }
  [[nodiscard]] std::uint16_t hw_qid() const noexcept { return hw_qid_; }
  [[nodiscard]] std::uint32_t depth() const noexcept { return depth_; }
  [[nodiscard]] std::size_t in_flight() const noexcept {
    return inflight_.size();
  }
  /// Commands accepted into the virtual queue (whether or not they have
  /// completed yet).
  [[nodiscard]] std::uint64_t submitted() const noexcept { return submitted_; }
  /// Submissions refused because the virtual queue was full (local
  /// backpressure — these never reached the driver or the gate).
  [[nodiscard]] std::uint64_t rejected_local() const noexcept {
    return rejected_local_;
  }

 private:
  struct Slot {
    std::uint64_t vcid = 0;
    driver::Submitted handle{};
    /// Kept for the retry tail (wait_resolved resubmits it); its
    /// write_data span points into `payload`.
    driver::IoRequest request{};
    ByteVec payload;  // owned until completion
  };

  driver::NvmeDriver& driver_;
  std::uint16_t tenant_;
  std::uint16_t hw_qid_;
  std::uint32_t depth_;
  std::uint64_t next_vcid_ = 1;
  std::uint64_t submitted_ = 0;
  std::uint64_t rejected_local_ = 0;
  std::deque<Slot> inflight_;
};

}  // namespace bx::tenant
