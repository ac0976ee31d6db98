#include "kv/sstable.h"

#include <algorithm>
#include <cstring>

namespace bx::kv {

namespace {
constexpr std::uint32_t kRecordHeader = 4;  // key_len + flags + value_len
}  // namespace

std::uint32_t record_size(const KvEntry& entry) noexcept {
  return kRecordHeader + static_cast<std::uint32_t>(entry.key.size()) +
         static_cast<std::uint32_t>(entry.value.size());
}

SstableBuilder::SstableBuilder(std::uint32_t page_size)
    : page_size_(page_size) {
  BX_ASSERT(page_size >= 64);
}

void SstableBuilder::add(const KvEntry& entry) {
  BX_ASSERT_MSG(!entry.key.empty() && entry.key.size() <= 255,
                "key length out of range");
  BX_ASSERT_MSG(record_size(entry) <= page_size_,
                "record does not fit a page");
  BX_ASSERT_MSG(last_key_.empty() || entry.key > last_key_,
                "entries must be added in increasing key order");
  last_key_ = entry.key;

  const std::uint32_t size = record_size(entry);
  if (pages_.empty() || cursor_ + size > page_size_) {
    pages_.emplace_back(page_size_, 0);  // key_len 0 == page terminator
    cursor_ = 0;
  }
  ByteVec& page = pages_.back();
  page[cursor_] = static_cast<Byte>(entry.key.size());
  page[cursor_ + 1] = entry.tombstone ? 1 : 0;
  const auto value_len = static_cast<std::uint16_t>(entry.value.size());
  std::memcpy(page.data() + cursor_ + 2, &value_len, sizeof(value_len));
  std::memcpy(page.data() + cursor_ + kRecordHeader, entry.key.data(),
              entry.key.size());
  if (!entry.value.empty()) {  // an empty value's data() may be null
    std::memcpy(page.data() + cursor_ + kRecordHeader + entry.key.size(),
                entry.value.data(), entry.value.size());
  }

  IndexEntry index;
  index.key = entry.key;
  index.page = static_cast<std::uint32_t>(pages_.size() - 1);
  index.offset = static_cast<std::uint16_t>(cursor_);
  index.seq = entry.seq;
  index.tombstone = entry.tombstone;
  index_.push_back(std::move(index));

  cursor_ += size;
}

StatusOr<SstableMeta> SstableBuilder::finish(
    nand::Ftl& ftl, const std::vector<std::uint64_t>& lpns, std::uint64_t id,
    nand::NandFlash::Blocking blocking) {
  if (lpns.size() != pages_.size()) {
    return invalid_argument("LPN count does not match page count");
  }
  for (std::size_t i = 1; i < lpns.size(); ++i) {
    if (lpns[i] != lpns[0] + i) {
      return invalid_argument("run LPNs must be contiguous");
    }
  }
  for (std::size_t i = 0; i < pages_.size(); ++i) {
    BX_RETURN_IF_ERROR(ftl.write(lpns[i], pages_[i], blocking));
  }
  SstableMeta meta;
  meta.id = id;
  meta.first_lpn = lpns.empty() ? 0 : lpns.front();
  meta.page_count = static_cast<std::uint32_t>(pages_.size());
  meta.index = std::move(index_);
  // The engine hands out contiguous LPN ranges; record the first.
  return meta;
}

namespace {

/// Parses the record at `offset`; returns nullopt past the terminator.
std::optional<KvEntry> parse_record(ConstByteSpan page,
                                    std::uint32_t offset) {
  if (offset + kRecordHeader > page.size()) return std::nullopt;
  const std::uint8_t key_len = page[offset];
  if (key_len == 0) return std::nullopt;
  std::uint16_t value_len = 0;
  std::memcpy(&value_len, page.data() + offset + 2, sizeof(value_len));
  if (offset + kRecordHeader + key_len + value_len > page.size()) {
    return std::nullopt;
  }
  KvEntry entry;
  entry.tombstone = page[offset + 1] != 0;
  entry.key.assign(
      reinterpret_cast<const char*>(page.data() + offset + kRecordHeader),
      key_len);
  entry.value.assign(
      page.begin() + offset + kRecordHeader + key_len,
      page.begin() + offset + kRecordHeader + key_len + value_len);
  return entry;
}

}  // namespace

StatusOr<std::optional<KvEntry>> sstable_get(nand::Ftl& ftl,
                                             const SstableMeta& meta,
                                             std::string_view key) {
  const auto it = std::lower_bound(
      meta.index.begin(), meta.index.end(), key,
      [](const IndexEntry& entry, std::string_view k) {
        return entry.key < k;
      });
  if (it == meta.index.end() || it->key != key) {
    return std::optional<KvEntry>{};
  }
  ByteVec page(ftl.page_size());
  BX_RETURN_IF_ERROR(ftl.read(meta.first_lpn + it->page, page));
  auto entry = parse_record(page, it->offset);
  if (!entry.has_value() || entry->key != key) {
    return data_loss("index points at a corrupt record");
  }
  entry->seq = it->seq;
  return std::optional<KvEntry>{std::move(*entry)};
}

StatusOr<std::vector<KvEntry>> sstable_read_all(nand::Ftl& ftl,
                                                const SstableMeta& meta) {
  std::vector<KvEntry> out;
  out.reserve(meta.index.size());
  ByteVec page(ftl.page_size());
  std::uint32_t loaded_page = UINT32_MAX;
  for (const IndexEntry& index : meta.index) {
    if (index.page != loaded_page) {
      BX_RETURN_IF_ERROR(ftl.read(meta.first_lpn + index.page, page));
      loaded_page = index.page;
    }
    auto entry = parse_record(page, index.offset);
    if (!entry.has_value()) return data_loss("corrupt record during scan");
    entry->seq = index.seq;
    out.push_back(std::move(*entry));
  }
  return out;
}

}  // namespace bx::kv
