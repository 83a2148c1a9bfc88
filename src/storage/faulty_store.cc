#include "storage/faulty_store.h"

namespace qox {

const char* DiskFaultKindName(DiskFaultKind kind) {
  switch (kind) {
    case DiskFaultKind::kNone:
      return "none";
    case DiskFaultKind::kEnospc:
      return "enospc";
    case DiskFaultKind::kEio:
      return "eio";
    case DiskFaultKind::kShortWrite:
      return "short_write";
    case DiskFaultKind::kFsyncFail:
      return "fsync_fail";
  }
  return "unknown";
}

Status FaultyStore::MakeFault(const std::string& operation) const {
  const std::string suffix =
      " during " + operation + " on '" + inner_->name() + "'";
  switch (plan_.disk_fault) {
    case DiskFaultKind::kEnospc:
      return Status::ResourceExhausted("injected ENOSPC" + suffix +
                                       ": no space left on device");
    case DiskFaultKind::kEio:
      return Status::IoError("injected EIO" + suffix);
    case DiskFaultKind::kShortWrite:
      return Status::Unavailable("injected short write" + suffix +
                                 ": prefix persisted, remainder lost");
    case DiskFaultKind::kFsyncFail:
      return Status::IoError("injected fsync failure" + suffix +
                             ": durability of prior writes unknown");
    case DiskFaultKind::kNone:
      break;
  }
  const std::string msg = "injected " +
                          std::string(plan_.permanent ? "permanent" : "transient") +
                          " storage fault" + suffix;
  if (plan_.permanent) return Status::IoError(msg);
  return Status::Unavailable(msg);
}

Status FaultyStore::Scan(size_t batch_size, const FanOut& fan_out,
                         const Consumer& consumer) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++scan_calls_;
    if (plan_.scan_fail_on_call > 0 && scan_calls_ == plan_.scan_fail_on_call) {
      scan_faults_.fetch_add(1);
      return MakeFault("scan");
    }
  }
  return inner_->Scan(batch_size, fan_out, [&](RowBatch& batch) -> Status {
    if (plan_.scan_fault_probability > 0.0) {
      std::lock_guard<std::mutex> lock(mu_);
      if (rng_.Bernoulli(plan_.scan_fault_probability)) {
        scan_faults_.fetch_add(1);
        return MakeFault("scan");
      }
    }
    return consumer(batch);
  });
}

std::optional<double> FaultyStore::DrawAppendFault() {
  std::lock_guard<std::mutex> lock(mu_);
  ++append_calls_;
  const bool fault = (plan_.append_fail_on_call > 0 &&
                      append_calls_ == plan_.append_fail_on_call) ||
                     (plan_.append_fault_probability > 0.0 &&
                      rng_.Bernoulli(plan_.append_fault_probability));
  if (!fault) return std::nullopt;
  return plan_.torn_fraction < 0.0 ? rng_.NextDouble() : plan_.torn_fraction;
}

Status FaultyStore::Append(const RowBatch& batch) {
  const std::optional<double> torn_fraction = DrawAppendFault();
  if (!torn_fraction.has_value()) return inner_->Append(batch);
  return FailAppend(batch, *torn_fraction);
}

Status FaultyStore::Append(RowBatch&& batch) {
  const std::optional<double> torn_fraction = DrawAppendFault();
  if (!torn_fraction.has_value()) return inner_->Append(std::move(batch));
  return FailAppend(batch, *torn_fraction);
}

Status FaultyStore::FailAppend(const RowBatch& batch, double torn_fraction) {
  append_faults_.fetch_add(1);
  // kShortWrite durably lands a prefix (torn-write mechanics) regardless
  // of the torn_writes flag — that IS the fault being modelled.
  const bool tear = plan_.disk_fault == DiskFaultKind::kShortWrite
                        ? true
                        : (plan_.disk_fault == DiskFaultKind::kNone &&
                           plan_.torn_writes);
  if (tear && batch.num_rows() > 1) {
    // Persist a prefix of the batch before failing: the partial write a
    // crashed appender leaves behind.
    if (torn_fraction > 1.0) torn_fraction = 1.0;
    const size_t torn_rows = static_cast<size_t>(
        static_cast<double>(batch.num_rows()) * torn_fraction);
    RowBatch torn(batch.schema());
    for (size_t i = 0; i < torn_rows && i < batch.num_rows(); ++i) {
      torn.Append(batch.row(i));
    }
    if (!torn.empty()) QOX_RETURN_IF_ERROR(inner_->Append(std::move(torn)));
  }
  return MakeFault("append");
}

}  // namespace qox
