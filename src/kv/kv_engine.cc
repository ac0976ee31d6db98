#include "kv/kv_engine.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <numeric>

#include "common/logging.h"

namespace bx::kv {

KvEngine::KvEngine(nand::Ftl& ftl, SimClock& clock, Config config)
    : ftl_(ftl), clock_(clock), config_(config), next_lpn_(config.lpn_base) {
  BX_ASSERT(config.lpn_count > 0);
  BX_ASSERT(config.lpn_base + config.lpn_count <= ftl.logical_pages());
  BX_ASSERT(config.max_value_bytes + 4u + config.max_key_bytes <=
            ftl.page_size());
}

Status KvEngine::validate_key(std::string_view key) const {
  if (key.empty()) return invalid_argument("empty key");
  if (key.size() > config_.max_key_bytes) {
    return {StatusCode::kInvalidArgument, "key too large"};
  }
  return Status::ok();
}

Status KvEngine::put(std::string_view key, ConstByteSpan value) {
  BX_RETURN_IF_ERROR(validate_key(key));
  if (value.size() > config_.max_value_bytes) {
    return invalid_argument("value too large");
  }
  clock_.advance(config_.cpu_put_ns);
  memtable_.put(key, value, next_seq_++);
  ++puts_;
  return maybe_flush();
}

StatusOr<ByteVec> KvEngine::get(std::string_view key) {
  BX_RETURN_IF_ERROR(validate_key(key));
  clock_.advance(config_.cpu_get_ns);
  ++gets_;

  if (auto hit = memtable_.get(key); hit.has_value()) {
    if (hit->tombstone) return not_found("key deleted");
    return hit->value;
  }
  // Newest run first.
  for (auto it = runs_.rbegin(); it != runs_.rend(); ++it) {
    if (!it->covers(key)) continue;
    auto found = sstable_get(ftl_, *it, key);
    BX_RETURN_IF_ERROR(found.status());
    if (found->has_value()) {
      if ((*found)->tombstone) return not_found("key deleted");
      return (*found)->value;
    }
  }
  return not_found("key not found");
}

StatusOr<bool> KvEngine::del(std::string_view key) {
  BX_RETURN_IF_ERROR(validate_key(key));
  clock_.advance(config_.cpu_delete_ns);
  auto existing = exist(key);
  BX_RETURN_IF_ERROR(existing.status());
  memtable_.del(key, next_seq_++);
  BX_RETURN_IF_ERROR(maybe_flush());
  return *existing;
}

StatusOr<bool> KvEngine::exist(std::string_view key) {
  BX_RETURN_IF_ERROR(validate_key(key));
  clock_.advance(config_.cpu_exist_ns);
  if (auto hit = memtable_.get(key); hit.has_value()) {
    return !hit->tombstone;
  }
  for (auto it = runs_.rbegin(); it != runs_.rend(); ++it) {
    if (!it->covers(key)) continue;
    auto found = sstable_get(ftl_, *it, key);
    BX_RETURN_IF_ERROR(found.status());
    if (found->has_value()) return !(*found)->tombstone;
  }
  return false;
}

StatusOr<std::vector<KvEntry>> KvEngine::scan(std::string_view start,
                                              std::size_t limit) {
  // K-way merge across the memtable and every run. For each distinct key,
  // the newest source wins (memtable, then runs newest to oldest);
  // tombstones suppress output but still consume the key everywhere.
  struct RunCursor {
    const SstableMeta* run = nullptr;
    std::size_t pos = 0;

    [[nodiscard]] bool valid() const noexcept {
      return pos < run->index.size();
    }
    [[nodiscard]] std::string_view key() const noexcept {
      return run->index[pos].key;
    }
  };

  std::vector<RunCursor> cursors;  // runs_ order: oldest..newest
  cursors.reserve(runs_.size());
  for (const SstableMeta& run : runs_) {
    RunCursor cursor;
    cursor.run = &run;
    cursor.pos = static_cast<std::size_t>(
        std::lower_bound(run.index.begin(), run.index.end(), start,
                         [](const IndexEntry& e, std::string_view k) {
                           return e.key < k;
                         }) -
        run.index.begin());
    if (cursor.valid()) cursors.push_back(cursor);
  }
  auto mem_it = memtable_.seek(start);

  std::vector<KvEntry> out;
  while (out.size() < limit) {
    // Smallest key across all sources.
    std::string_view best;
    bool have = false;
    if (mem_it.valid()) {
      best = mem_it.entry().key;
      have = true;
    }
    for (const RunCursor& cursor : cursors) {
      if (cursor.valid() && (!have || cursor.key() < best)) {
        best = cursor.key();
        have = true;
      }
    }
    if (!have) break;

    // Newest version of `best` wins; every source holding it advances.
    KvEntry chosen;
    bool chosen_set = false;
    if (mem_it.valid() && mem_it.entry().key == best) {
      chosen = mem_it.entry();
      chosen_set = true;
      mem_it.next();
    }
    for (auto it = cursors.rbegin(); it != cursors.rend(); ++it) {
      if (!it->valid() || it->key() != best) continue;
      if (!chosen_set) {
        auto found = sstable_get(ftl_, *it->run, best);
        BX_RETURN_IF_ERROR(found.status());
        if (!found->has_value()) {
          return data_loss("index entry without record during scan");
        }
        chosen = std::move(**found);
        chosen_set = true;
      }
      ++it->pos;
    }
    BX_ASSERT(chosen_set);
    if (!chosen.tombstone) out.push_back(std::move(chosen));
  }
  return out;
}

StatusOr<std::uint32_t> KvEngine::iter_open(std::string_view start) {
  if (iterators_.size() >= config_.max_open_iterators) {
    return resource_exhausted("too many open iterators");
  }
  const std::uint32_t id = next_iterator_id_++;
  IteratorState state;
  state.next_key.assign(start);
  iterators_.emplace(id, std::move(state));
  return id;
}

StatusOr<std::vector<KvEntry>> KvEngine::iter_next(std::uint32_t id,
                                                   std::size_t count) {
  const auto it = iterators_.find(id);
  if (it == iterators_.end()) return not_found("unknown iterator id");
  IteratorState& state = it->second;
  if (state.exhausted || count == 0) return std::vector<KvEntry>{};

  auto batch = scan(state.next_key, count);
  BX_RETURN_IF_ERROR(batch.status());
  clock_.advance(config_.cpu_iter_per_entry_ns * batch->size());
  if (batch->size() < count) {
    state.exhausted = true;
  }
  if (!batch->empty()) {
    // Resume strictly after the last returned key: its immediate
    // lexicographic successor (key + '\0').
    state.next_key = batch->back().key;
    state.next_key.push_back('\0');
  }
  return batch;
}

Status KvEngine::iter_close(std::uint32_t id) {
  if (iterators_.erase(id) == 0) return not_found("unknown iterator id");
  return Status::ok();
}

Status KvEngine::maybe_flush() {
  if (memtable_.approximate_bytes() < config_.flush_threshold_bytes) {
    return Status::ok();
  }
  return flush();
}

StatusOr<std::vector<std::uint64_t>> KvEngine::allocate_lpns(
    std::uint32_t count) {
  if (count == 0) return std::vector<std::uint64_t>{};
  // First fit over the freed extents, then the never-used tail.
  std::uint64_t base = next_lpn_;
  const auto extent = std::find_if(
      free_ranges_.begin(), free_ranges_.end(),
      [count](const auto& range) { return range.second >= count; });
  if (extent != free_ranges_.end()) {
    base = extent->first;
    extent->first += count;
    extent->second -= count;
    if (extent->second == 0) free_ranges_.erase(extent);
  } else if (next_lpn_ + count > config_.lpn_base + config_.lpn_count) {
    return resource_exhausted("KV LPN range exhausted");
  } else {
    next_lpn_ += count;
  }
  std::vector<std::uint64_t> out(count);
  std::iota(out.begin(), out.end(), base);
  return out;
}

void KvEngine::release_run(const SstableMeta& meta) {
  for (std::uint32_t i = 0; i < meta.page_count; ++i) {
    const Status trimmed = ftl_.trim(meta.first_lpn + i);
    if (!trimmed.is_ok()) {
      BX_LOG_WARN << "trim failed: " << trimmed.to_string();
    }
  }
  if (meta.page_count == 0) return;
  // Free extents stay sorted by LPN and merged with their neighbours; an
  // extent that ends at the bump pointer goes back to it.
  const std::pair<std::uint64_t, std::uint32_t> freed{meta.first_lpn,
                                                      meta.page_count};
  auto it = free_ranges_.insert(
      std::lower_bound(free_ranges_.begin(), free_ranges_.end(), freed),
      freed);
  const auto end_of = [](const auto& extent) {
    return extent.first + extent.second;
  };
  if (std::next(it) != free_ranges_.end() &&
      end_of(*it) == std::next(it)->first) {
    it->second += std::next(it)->second;
    free_ranges_.erase(std::next(it));
  }
  if (it != free_ranges_.begin() && end_of(*std::prev(it)) == it->first) {
    std::prev(it)->second += it->second;
    free_ranges_.erase(it);
  }
  if (end_of(free_ranges_.back()) == next_lpn_) {
    next_lpn_ = free_ranges_.back().first;
    free_ranges_.pop_back();
  }
}

Status KvEngine::flush() {
  if (memtable_.empty()) return Status::ok();

  SstableBuilder builder(ftl_.page_size());
  std::size_t entries = 0;
  for (auto it = memtable_.begin(); it.valid(); it.next()) {
    builder.add(it.entry());
    ++entries;
  }
  clock_.advance(config_.cpu_flush_per_entry_ns * entries);

  auto lpns = allocate_lpns(builder.pages_needed());
  BX_RETURN_IF_ERROR(lpns.status());
  // Background: the flush occupies NAND dies without stalling the host-
  // visible command (the memtable remains authoritative until swapped).
  auto meta = builder.finish(ftl_, *lpns, next_run_id_++,
                             nand::NandFlash::Blocking::kBackground);
  BX_RETURN_IF_ERROR(meta.status());
  runs_.push_back(std::move(meta).value());
  memtable_.clear();
  ++flushes_;

  // A full merge never needs more pages than the runs hold, so compact
  // once the free pages fall below that, before the runs crowd the merged
  // run out of the range, as well as when the runs pile up.
  std::uint64_t held_pages = 0;
  for (const SstableMeta& run : runs_) held_pages += run.page_count;
  std::uint64_t free_pages =
      config_.lpn_base + config_.lpn_count - next_lpn_;
  for (const auto& extent : free_ranges_) free_pages += extent.second;
  if (runs_.size() > config_.max_runs || free_pages < held_pages) {
    return compact();
  }
  return Status::ok();
}

Status KvEngine::compact() {
  if (runs_.size() < 2) return Status::ok();
  ++compactions_;

  // Full merge of all runs, newest version wins, tombstones dropped (there
  // is nothing older for them to shadow after a full merge).
  std::map<std::string, KvEntry, std::less<>> merged;
  std::size_t scanned = 0;
  for (const SstableMeta& run : runs_) {  // oldest..newest: later overwrite
    auto all = sstable_read_all(ftl_, run);
    BX_RETURN_IF_ERROR(all.status());
    scanned += all->size();
    for (auto& entry : *all) merged[entry.key] = std::move(entry);
  }
  clock_.advance(config_.cpu_compact_per_entry_ns * scanned);

  SstableBuilder builder(ftl_.page_size());
  std::size_t kept = 0;
  for (auto& [key, entry] : merged) {
    if (entry.tombstone) continue;
    builder.add(entry);
    ++kept;
  }

  // The old runs stay authoritative until the merged run is written, so a
  // merge that cannot be placed loses nothing.
  std::deque<SstableMeta> compacted;
  if (kept > 0) {
    auto lpns = allocate_lpns(builder.pages_needed());
    BX_RETURN_IF_ERROR(lpns.status());
    auto meta = builder.finish(ftl_, *lpns, next_run_id_++,
                               nand::NandFlash::Blocking::kBackground);
    BX_RETURN_IF_ERROR(meta.status());
    compacted.push_back(std::move(meta).value());
  }
  for (const SstableMeta& run : runs_) release_run(run);
  runs_ = std::move(compacted);
  return Status::ok();
}

}  // namespace bx::kv
