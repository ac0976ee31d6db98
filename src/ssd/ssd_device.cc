#include "ssd/ssd_device.h"

#include <algorithm>
#include <cstring>
#include <string_view>

#include "common/logging.h"
#include "csd/csd_client.h"
#include "kv/kv_wire.h"

namespace bx::ssd {

using controller::ExecResult;
using nvme::GenericStatus;
using nvme::IoOpcode;
using nvme::StatusField;
using nvme::VendorStatus;

namespace {
constexpr std::uint32_t kBlockSize = 4096;

StatusField kv_error_status(const Status& status) {
  switch (status.code()) {
    case StatusCode::kNotFound:
      return StatusField::vendor(VendorStatus::kKvKeyNotFound);
    case StatusCode::kInvalidArgument:
      return StatusField::vendor(VendorStatus::kKvValueTooLarge);
    case StatusCode::kResourceExhausted:
      return StatusField::vendor(VendorStatus::kKvStoreFull);
    default:
      return StatusField::generic(GenericStatus::kInternalError);
  }
}

StatusField csd_error_status(const Status& status) {
  switch (status.code()) {
    case StatusCode::kNotFound:
      return StatusField::vendor(VendorStatus::kCsdUnknownTable);
    case StatusCode::kInvalidArgument:
      return StatusField::vendor(VendorStatus::kCsdParseError);
    default:
      return StatusField::generic(GenericStatus::kInternalError);
  }
}

}  // namespace

kv::KvEngine::Config SsdDevice::fill_kv_range(const Config& config,
                                              std::uint64_t base,
                                              std::uint64_t count) {
  kv::KvEngine::Config out = config.kv;
  out.lpn_base = base;
  out.lpn_count = count;
  return out;
}

csd::FilterEngine::Config SsdDevice::fill_csd_range(const Config& config,
                                                    std::uint64_t base,
                                                    std::uint64_t count) {
  csd::FilterEngine::Config out = config.csd;
  out.lpn_base = base;
  out.lpn_count = count;
  return out;
}

SsdDevice::SsdDevice(SimClock& clock, Config config)
    : clock_(clock),
      config_(config),
      nand_(config.geometry, config.nand_timing, clock),
      ftl_(nand_, config.ftl),
      block_pages_(static_cast<std::uint64_t>(
          double(ftl_.logical_pages()) * config.block_fraction)),
      kv_(ftl_, clock,
          fill_kv_range(config, block_pages_,
                        static_cast<std::uint64_t>(
                            double(ftl_.logical_pages()) *
                            config.kv_fraction))),
      filter_(ftl_, clock,
              fill_csd_range(
                  config,
                  block_pages_ + static_cast<std::uint64_t>(
                                     double(ftl_.logical_pages()) *
                                     config.kv_fraction),
                  ftl_.logical_pages() - block_pages_ -
                      static_cast<std::uint64_t>(
                          double(ftl_.logical_pages()) *
                          config.kv_fraction))),
      write_cache_(ftl_, clock, config.write_cache),
      scratch_(config.scratch_bytes, 0) {}

void SsdDevice::record_nand(Nanoseconds start, std::uint64_t bytes,
                            bool read) noexcept {
  if (tracer_ == nullptr || !tracer_->enabled()) return;
  obs::TraceEvent e;
  e.stage = obs::TraceStage::kNandIo;
  e.start = start;
  e.end = clock_.now();
  e.aux = read ? 1 : 0;
  e.bytes = bytes;
  tracer_->record_in_device_context(e);
}

ExecResult SsdDevice::execute(const nvme::SubmissionQueueEntry& sqe,
                              ConstByteSpan payload) {
  clock_.advance(config_.cpu_dispatch_ns);
  switch (sqe.io_opcode()) {
    case IoOpcode::kWrite:
      return do_block_write(sqe, payload);
    case IoOpcode::kRead:
      return do_block_read(sqe);
    case IoOpcode::kFlush:
      return do_flush();
    case IoOpcode::kVendorRawWrite:
      return do_raw_write(payload);
    case IoOpcode::kVendorRawRead:
      return do_raw_read(sqe);
    case IoOpcode::kVendorPartialWrite:
      return do_partial_write(sqe, payload);
    case IoOpcode::kVendorKvStore:
    case IoOpcode::kVendorKvRetrieve:
    case IoOpcode::kVendorKvDelete:
    case IoOpcode::kVendorKvExist:
    case IoOpcode::kVendorKvIterate:
      return do_kv(sqe, payload);
    case IoOpcode::kVendorCsdFilter:
      return do_csd(sqe, payload);
    default:
      return ExecResult::error(
          StatusField::generic(GenericStatus::kInvalidOpcode));
  }
}

ExecResult SsdDevice::do_block_write(const nvme::SubmissionQueueEntry& sqe,
                                     ConstByteSpan payload) {
  const auto fields = nvme::BlockIoFields::from(sqe);
  if (fields.slba + fields.block_count > block_pages_) {
    return ExecResult::error(
        StatusField::generic(GenericStatus::kLbaOutOfRange));
  }
  if (payload.size() != std::uint64_t{fields.block_count} * kBlockSize) {
    return ExecResult::error(
        StatusField::generic(GenericStatus::kDataTransferError));
  }
  const Nanoseconds nand_start = clock_.now();
  for (std::uint32_t i = 0; i < fields.block_count; ++i) {
    const ConstByteSpan block =
        payload.subspan(std::size_t{i} * kBlockSize, kBlockSize);
    const Status written =
        config_.enable_write_cache
            ? write_cache_.write(fields.slba + i, block)
            : ftl_.write(fields.slba + i, block,
                         nand::NandFlash::Blocking::kForeground);
    if (!written.is_ok()) {
      BX_LOG_WARN << "block write failed: " << written.to_string();
      return ExecResult::error(
          StatusField::generic(GenericStatus::kInternalError));
    }
  }
  record_nand(nand_start, payload.size(), /*read=*/false);
  return ExecResult::success();
}

ExecResult SsdDevice::do_block_read(const nvme::SubmissionQueueEntry& sqe) {
  const auto fields = nvme::BlockIoFields::from(sqe);
  if (fields.slba + fields.block_count > block_pages_) {
    return ExecResult::error(
        StatusField::generic(GenericStatus::kLbaOutOfRange));
  }
  ExecResult result;
  result.read_data.assign(std::size_t{fields.block_count} * kBlockSize, 0);
  const Nanoseconds nand_start = clock_.now();
  for (std::uint32_t i = 0; i < fields.block_count; ++i) {
    const ByteSpan block{
        result.read_data.data() + std::size_t{i} * kBlockSize, kBlockSize};
    const Status read = config_.enable_write_cache
                            ? write_cache_.read(fields.slba + i, block)
                            : ftl_.read(fields.slba + i, block);
    if (!read.is_ok() && read.code() != StatusCode::kNotFound) {
      return ExecResult::error(
          StatusField::generic(GenericStatus::kInternalError));
    }
    // Unwritten LBAs read back as zeroes, like a real SSD.
  }
  record_nand(nand_start, result.read_data.size(), /*read=*/true);
  return result;
}

ExecResult SsdDevice::do_partial_write(const nvme::SubmissionQueueEntry& sqe,
                                       ConstByteSpan payload) {
  const std::uint64_t lba =
      (std::uint64_t{sqe.cdw11} << 32) | sqe.cdw10;
  const std::uint32_t offset = nvme::VendorFields::from(sqe).aux >> 8;
  if (lba >= block_pages_) {
    return ExecResult::error(
        StatusField::generic(GenericStatus::kLbaOutOfRange));
  }
  if (payload.empty() ||
      std::uint64_t{offset} + payload.size() > kBlockSize) {
    return ExecResult::error(
        StatusField::generic(GenericStatus::kInvalidField));
  }

  // Read-modify-write in the device's page buffer: the host only shipped
  // the changed bytes.
  const Nanoseconds nand_start = clock_.now();
  ByteVec page(kBlockSize, 0);
  const Status read = config_.enable_write_cache
                          ? write_cache_.read(lba, page)
                          : ftl_.read(lba, page);
  if (!read.is_ok() && read.code() != StatusCode::kNotFound) {
    return ExecResult::error(
        StatusField::generic(GenericStatus::kInternalError));
  }
  std::memcpy(page.data() + offset, payload.data(), payload.size());
  const Status written =
      config_.enable_write_cache
          ? write_cache_.write(lba, page)
          : ftl_.write(lba, page, nand::NandFlash::Blocking::kForeground);
  if (!written.is_ok()) {
    return ExecResult::error(
        StatusField::generic(GenericStatus::kInternalError));
  }
  record_nand(nand_start, kBlockSize, /*read=*/false);
  return ExecResult::success();
}

ExecResult SsdDevice::do_flush() {
  Status flushed = kv_.flush();
  if (flushed.is_ok() && config_.enable_write_cache) {
    flushed = write_cache_.flush();
  }
  if (!flushed.is_ok()) {
    return ExecResult::error(
        StatusField::generic(GenericStatus::kInternalError));
  }
  nand_.drain();
  return ExecResult::success();
}

ExecResult SsdDevice::do_raw_write(ConstByteSpan payload) {
  const std::size_t take = std::min(payload.size(), scratch_.size());
  // An empty payload may have no storage: memcpy from null is undefined.
  if (take > 0) std::memcpy(scratch_.data(), payload.data(), take);
  scratch_valid_ = static_cast<std::uint32_t>(take);
  return ExecResult::success();
}

ExecResult SsdDevice::do_raw_read(const nvme::SubmissionQueueEntry& sqe) {
  const auto fields = nvme::VendorFields::from(sqe);
  const std::uint32_t selector = fields.aux >> 8;
  ConstByteSpan source;
  if (selector == 1) {
    source = filter_.last_result();
  } else {
    source = ConstByteSpan{scratch_.data(), scratch_valid_};
  }
  const std::uint32_t take = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(fields.data_length, source.size()));
  ExecResult result;
  result.read_data.assign(source.begin(), source.begin() + take);
  result.dw0 = static_cast<std::uint32_t>(source.size());
  return result;
}

ExecResult SsdDevice::do_kv(const nvme::SubmissionQueueEntry& sqe,
                            ConstByteSpan payload) {
  const auto key_fields = nvme::KvKeyFields::from(sqe);
  if (key_fields.key_len == 0 ||
      key_fields.key_len > nvme::KvKeyFields::kMaxKeyBytes) {
    return ExecResult::error(StatusField::vendor(VendorStatus::kKvKeyTooLarge));
  }
  const std::string_view key{
      reinterpret_cast<const char*>(key_fields.key), key_fields.key_len};
  const auto fields = nvme::VendorFields::from(sqe);

  switch (sqe.io_opcode()) {
    case IoOpcode::kVendorKvStore: {
      const Status stored = kv_.put(key, payload);
      if (!stored.is_ok()) return ExecResult::error(kv_error_status(stored));
      return ExecResult::success();
    }
    case IoOpcode::kVendorKvRetrieve: {
      auto value = kv_.get(key);
      if (!value.is_ok()) {
        return ExecResult::error(kv_error_status(value.status()));
      }
      ExecResult result;
      result.dw0 = static_cast<std::uint32_t>(value->size());
      result.read_data = std::move(value).value();
      return result;
    }
    case IoOpcode::kVendorKvDelete: {
      auto existed = kv_.del(key);
      if (!existed.is_ok()) {
        return ExecResult::error(kv_error_status(existed.status()));
      }
      return ExecResult::success(*existed ? 1 : 0);
    }
    case IoOpcode::kVendorKvExist: {
      auto exists = kv_.exist(key);
      if (!exists.is_ok()) {
        return ExecResult::error(kv_error_status(exists.status()));
      }
      return ExecResult::success(*exists ? 1 : 0);
    }
    case IoOpcode::kVendorKvIterate:
      return do_kv_iterate(sqe, key, fields);
    default:
      return ExecResult::error(
          StatusField::generic(GenericStatus::kInvalidOpcode));
  }
}

ExecResult SsdDevice::do_kv_iterate(const nvme::SubmissionQueueEntry& sqe,
                                    std::string_view key,
                                    const nvme::VendorFields& fields) {
  (void)sqe;
  const std::uint32_t aux = fields.aux >> 8;
  const auto subop = kv::wire::decode_iterate_subop(aux);
  const std::uint32_t param = kv::wire::decode_iterate_param(aux);

  auto serialize = [&](const std::vector<kv::KvEntry>& entries) {
    // [u8 klen][u16 vlen][key][value]..., truncated to the read length.
    ExecResult result;
    for (const kv::KvEntry& entry : entries) {
      const std::size_t need = 3 + entry.key.size() + entry.value.size();
      if (result.read_data.size() + need > fields.data_length) break;
      result.read_data.push_back(static_cast<Byte>(entry.key.size()));
      const auto vlen = static_cast<std::uint16_t>(entry.value.size());
      result.read_data.push_back(static_cast<Byte>(vlen & 0xff));
      result.read_data.push_back(static_cast<Byte>(vlen >> 8));
      result.read_data.insert(result.read_data.end(), entry.key.begin(),
                              entry.key.end());
      result.read_data.insert(result.read_data.end(), entry.value.begin(),
                              entry.value.end());
    }
    result.dw0 = static_cast<std::uint32_t>(result.read_data.size());
    return result;
  };

  switch (subop) {
    case kv::wire::IterateSubOp::kScan: {
      auto entries = kv_.scan(key, std::max<std::uint32_t>(param, 1));
      if (!entries.is_ok()) {
        return ExecResult::error(kv_error_status(entries.status()));
      }
      return serialize(*entries);
    }
    case kv::wire::IterateSubOp::kOpen: {
      auto id = kv_.iter_open(key);
      if (!id.is_ok()) return ExecResult::error(kv_error_status(id.status()));
      return ExecResult::success(*id);
    }
    case kv::wire::IterateSubOp::kNext: {
      auto id = kv::wire::iterator_id_from_key(as_bytes(key));
      if (!id.is_ok()) {
        return ExecResult::error(
            StatusField::generic(GenericStatus::kInvalidField));
      }
      auto entries = kv_.iter_next(*id, std::max<std::uint32_t>(param, 1));
      if (!entries.is_ok()) {
        return ExecResult::error(kv_error_status(entries.status()));
      }
      return serialize(*entries);
    }
    case kv::wire::IterateSubOp::kClose: {
      auto id = kv::wire::iterator_id_from_key(as_bytes(key));
      if (!id.is_ok()) {
        return ExecResult::error(
            StatusField::generic(GenericStatus::kInvalidField));
      }
      const Status closed = kv_.iter_close(*id);
      if (!closed.is_ok()) {
        return ExecResult::error(kv_error_status(closed));
      }
      return ExecResult::success();
    }
  }
  return ExecResult::error(StatusField::generic(GenericStatus::kInvalidField));
}

ExecResult SsdDevice::do_csd(const nvme::SubmissionQueueEntry& sqe,
                             ConstByteSpan payload) {
  const auto fields = nvme::VendorFields::from(sqe);
  const auto subop = static_cast<csd::CsdSubOp>(fields.aux >> 8);
  switch (subop) {
    case csd::CsdSubOp::kRunFilter: {
      auto matches = filter_.run_filter(
          std::string_view{reinterpret_cast<const char*>(payload.data()),
                           payload.size()});
      if (!matches.is_ok()) {
        return ExecResult::error(csd_error_status(matches.status()));
      }
      return ExecResult::success(*matches);
    }
    case csd::CsdSubOp::kCreateTable: {
      const Status created = filter_.create_table(
          std::string_view{reinterpret_cast<const char*>(payload.data()),
                           payload.size()});
      if (!created.is_ok()) {
        return ExecResult::error(csd_error_status(created));
      }
      return ExecResult::success();
    }
    case csd::CsdSubOp::kAppendRows: {
      if (payload.empty()) {
        return ExecResult::error(
            StatusField::vendor(VendorStatus::kCsdParseError));
      }
      const std::size_t name_len = payload[0];
      if (1 + name_len > payload.size()) {
        return ExecResult::error(
            StatusField::vendor(VendorStatus::kCsdParseError));
      }
      const std::string_view table{
          reinterpret_cast<const char*>(payload.data()) + 1, name_len};
      const Status appended =
          filter_.append_rows(table, payload.subspan(1 + name_len));
      if (!appended.is_ok()) {
        return ExecResult::error(csd_error_status(appended));
      }
      return ExecResult::success();
    }
  }
  return ExecResult::error(StatusField::generic(GenericStatus::kInvalidField));
}

}  // namespace bx::ssd
