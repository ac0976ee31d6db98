// Device-side key-value engine (the KV-SSD firmware the paper's Figure 6
// experiments run against — an LSM-style in-device store in the spirit of
// the iterator-extended OpenSSD KVSSD it cites).
//
// PUTs land in a DRAM memtable (durable on the cap-backed OpenSSD) and
// flush to NAND as sorted runs in the background; GETs check the memtable,
// then runs newest-to-oldest via their in-DRAM indexes (one NAND read per
// hit). Runs are merge-compacted when they pile up or crowd the free pages
// of the range. Device-CPU costs are charged to the shared SimClock so
// Figure 6's NAND-on throughput reflects both transfer and firmware time.
#pragma once

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/sim_clock.h"
#include "common/status.h"
#include "kv/memtable.h"
#include "kv/sstable.h"
#include "nand/ftl.h"

namespace bx::kv {

class KvEngine {
 public:
  struct Config {
    /// LPN range owned by the KV store within the shared FTL.
    std::uint64_t lpn_base = 0;
    std::uint64_t lpn_count = 0;

    std::size_t flush_threshold_bytes = 1 << 20;  // 1 MiB memtable
    std::size_t max_runs = 8;                     // compact beyond this

    std::uint8_t max_key_bytes = 16;       // NVMe-KV style SQE-resident keys
    std::uint32_t max_value_bytes = 4000;  // record must fit one page
    std::size_t max_open_iterators = 16;   // device SRAM budget

    // Device CPU costs (Arm firmware), charged per operation.
    Nanoseconds cpu_put_ns = 1'500;
    Nanoseconds cpu_get_ns = 2'000;
    Nanoseconds cpu_delete_ns = 1'200;
    Nanoseconds cpu_exist_ns = 800;
    Nanoseconds cpu_flush_per_entry_ns = 120;
    Nanoseconds cpu_compact_per_entry_ns = 250;
    Nanoseconds cpu_iter_per_entry_ns = 400;
  };

  KvEngine(nand::Ftl& ftl, SimClock& clock, Config config);

  Status put(std::string_view key, ConstByteSpan value);
  /// kNotFound if absent or deleted.
  StatusOr<ByteVec> get(std::string_view key);
  /// Returns true if the key existed.
  StatusOr<bool> del(std::string_view key);
  [[nodiscard]] StatusOr<bool> exist(std::string_view key);

  /// Up to `limit` live entries with key >= `start`, in key order.
  StatusOr<std::vector<KvEntry>> scan(std::string_view start,
                                      std::size_t limit);

  // --- stateful iterators (the SYSTOR '23 KVSSD's iterator interface,
  // which the paper's Figure 6 device implements) ---

  /// Opens an iterator positioned at the first key >= `start`; returns its
  /// id. Fails with kResourceExhausted when `max_open_iterators` are live.
  StatusOr<std::uint32_t> iter_open(std::string_view start);
  /// Returns up to `count` entries and advances the cursor. An exhausted
  /// iterator returns an empty batch (and stays open until closed).
  /// Iteration is cursor-consistent: each batch reflects live data.
  StatusOr<std::vector<KvEntry>> iter_next(std::uint32_t id,
                                           std::size_t count);
  Status iter_close(std::uint32_t id);
  [[nodiscard]] std::size_t open_iterators() const noexcept {
    return iterators_.size();
  }

  /// Forces the memtable to NAND (also used by NVMe flush).
  Status flush();

  // --- statistics / introspection ---
  [[nodiscard]] std::uint64_t puts() const noexcept { return puts_; }
  [[nodiscard]] std::uint64_t gets() const noexcept { return gets_; }
  [[nodiscard]] std::uint64_t flushes() const noexcept { return flushes_; }
  [[nodiscard]] std::uint64_t compactions() const noexcept {
    return compactions_;
  }
  [[nodiscard]] std::size_t run_count() const noexcept {
    return runs_.size();
  }
  [[nodiscard]] std::size_t memtable_bytes() const noexcept {
    return memtable_.approximate_bytes();
  }
  [[nodiscard]] const Config& config() const noexcept { return config_; }

 private:
  Status validate_key(std::string_view key) const;
  Status maybe_flush();
  Status compact();
  /// Allocates `count` contiguous LPNs from the engine's range.
  StatusOr<std::vector<std::uint64_t>> allocate_lpns(std::uint32_t count);
  void release_run(const SstableMeta& meta);

  nand::Ftl& ftl_;
  SimClock& clock_;
  Config config_;

  struct IteratorState {
    std::string next_key;  // resume position (inclusive)
    bool exhausted = false;
  };

  MemTable memtable_;
  std::deque<SstableMeta> runs_;  // oldest first
  std::unordered_map<std::uint32_t, IteratorState> iterators_;
  std::uint32_t next_iterator_id_ = 1;
  std::uint64_t next_seq_ = 1;
  std::uint64_t next_run_id_ = 1;
  std::uint64_t next_lpn_;        // bump allocator within the range
  // Freed (first LPN, pages) extents below next_lpn_: sorted, disjoint and
  // never adjacent.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> free_ranges_;

  std::uint64_t puts_ = 0;
  std::uint64_t gets_ = 0;
  std::uint64_t flushes_ = 0;
  std::uint64_t compactions_ = 0;
};

}  // namespace bx::kv
