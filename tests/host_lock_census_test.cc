// How many mutex acquisitions one raw write costs the host, by method.
//
// The binary defines pthread_mutex_lock itself and forwards every call to
// the C library's through dlsym(RTLD_NEXT), counting the calls the test
// thread makes while counting is on. std::mutex::lock reaches
// pthread_mutex_lock inline, so every lock the simulator takes on the
// test thread — driver queue locks, the firmware mutex the pump takes,
// the trace recorder, the link's traffic counter, telemetry, host memory
// allocation — is counted; a run of single-threaded writes on a testbed
// has no other thread, so the count is exact and deterministic.
//
// Each bound is the count this tree measures, rounded up to a whole lock:
// the fraction is the telemetry windows that close during a write, which
// any change to simulated timing moves. A traced 64 B ByteExpress write
// took 43.4 locks before its host path was reworked (one recorder call per
// command and per doorbell, wait histograms under the queue's own lock,
// lock-free host-memory pages, one reap per drain).
#include <dlfcn.h>
#include <pthread.h>

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <mutex>

#include "core/testbed.h"

namespace {

thread_local bool g_counting = false;
thread_local std::uint64_t g_locks = 0;

}  // namespace

extern "C" int pthread_mutex_lock(pthread_mutex_t* mutex) {
  using LockFn = int (*)(pthread_mutex_t*);
  static const auto next =
      reinterpret_cast<LockFn>(dlsym(RTLD_NEXT, "pthread_mutex_lock"));
  if (g_counting) ++g_locks;
  return next(mutex);
}

namespace bx::core {
namespace {

using driver::TransferMethod;

/// Locks the calling thread takes inside `body`.
template <typename Body>
std::uint64_t count_locks(Body&& body) {
  g_locks = 0;
  g_counting = true;
  body();
  g_counting = false;
  return g_locks;
}

/// Mutex acquisitions per raw write of `size` bytes over `method`, on a
/// default (traced, telemetry on) testbed warmed by as many writes.
double locks_per_write(TransferMethod method, std::size_t size) {
  constexpr int kWrites = 1000;
  Testbed bed;
  ByteVec payload(size);
  fill_pattern(payload, static_cast<std::uint64_t>(size));
  for (int i = 0; i < kWrites; ++i) {
    EXPECT_TRUE(bed.raw_write(payload, method).is_ok());
  }
  bool ok = true;
  const std::uint64_t locks = count_locks([&] {
    for (int i = 0; i < kWrites; ++i) {
      ok &= bed.raw_write(payload, method).is_ok();
    }
  });
  EXPECT_TRUE(ok);
  const double per_write = static_cast<double>(locks) / kWrites;
  std::printf("%s %zu B: %.2f locks per write\n",
              std::string(driver::transfer_method_name(method)).c_str(), size,
              per_write);
  return per_write;
}

// Without this the bounds below would pass on a build whose locks the
// interposer never sees.
TEST(HostLockCensus, InterposerSeesAStdMutex) {
  std::mutex mutex;
  const std::uint64_t locks = count_locks([&] {
    mutex.lock();
    mutex.unlock();
  });
  ASSERT_EQ(locks, 1u) << "pthread_mutex_lock is not interposed";
}

TEST(HostLockCensus, ByteExpress64BTakesAtMost16Locks) {
  EXPECT_LE(locks_per_write(TransferMethod::kByteExpress, 64), 16.0);
}

TEST(HostLockCensus, PrpAndSgl64BKeepTheirCounts) {
  EXPECT_LE(locks_per_write(TransferMethod::kPrp, 64), 18.0);
  EXPECT_LE(locks_per_write(TransferMethod::kSgl, 64), 18.0);
}

TEST(HostLockCensus, BandSlim64BKeepsItsCount) {
  EXPECT_LE(locks_per_write(TransferMethod::kBandSlim, 64), 23.0);
}

TEST(HostLockCensus, ByteExpress4KiBKeepsItsCount) {
  EXPECT_LE(locks_per_write(TransferMethod::kByteExpress, 4096), 25.0);
}

}  // namespace
}  // namespace bx::core
