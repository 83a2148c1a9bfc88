// LeaseFile: single-writer ownership of a flow's scratch directory.
//
// A supervisor takes the lease before touching the journal so two
// supervisors cannot re-execute the same flow concurrently (double
// supervision would double-apply the durable-prefix skip math). The lease
// is a small file holding one sealed record (storage/record_io.h),
// `<pid> <owner>,<fnv1a64>`, naming the holder pid; a lease that is not
// exactly that record names no holder. Acquisition fails while that pid
// is alive and takes over silently when it is dead — the stale lease a
// SIGKILLed supervisor necessarily leaves behind. Forked child workers do
// not touch the lease: it is keyed to the supervising process.
//
// Pid liveness cannot see a HUNG holder (alive but wedged), so takeover is
// optionally time-bounded: when QOX_LEASE_TIMEOUT_MS is set to a positive
// value, a lease whose file has not been refreshed (written or
// Heartbeat()ed) for that long is treated as stale even if its holder pid
// still exists. Unset or 0 keeps the pid-only behavior. Long-running
// holders under a timeout must Heartbeat() more often than the timeout.

#ifndef QOX_STORAGE_LEASE_FILE_H_
#define QOX_STORAGE_LEASE_FILE_H_

#include <sys/types.h>

#include <memory>
#include <string>

#include "common/status.h"

namespace qox {

class LeaseFile {
 public:
  /// Acquires the lease at `path` for the calling process. Returns
  /// kFailedPrecondition naming the holder when another live process holds
  /// it; silently takes over a stale lease (holder pid no longer exists,
  /// or — with QOX_LEASE_TIMEOUT_MS set — not refreshed within the
  /// timeout). `owner` is a diagnostic tag written next to the pid.
  static Result<std::unique_ptr<LeaseFile>> Acquire(std::string path,
                                                    std::string owner);

  /// Releases on destruction (best effort — a killed holder releases by
  /// dying, which is what makes takeover safe).
  ~LeaseFile();
  LeaseFile(const LeaseFile&) = delete;
  LeaseFile& operator=(const LeaseFile&) = delete;

  /// Explicitly releases (removes) the lease file. A lease the holder has
  /// lost to a takeover is NOT removed (it belongs to the usurper now);
  /// that is still a successful release of this handle.
  Status Release();

  /// Refreshes the lease file so a QOX_LEASE_TIMEOUT_MS-based takeover
  /// does not steal it from a live, non-wedged holder. Rewrites the lease
  /// in place (same atomic publish as Acquire) — unless the file now
  /// names a DIFFERENT live process (a takeover already happened), in
  /// which case kFailedPrecondition tells the displaced holder to stop
  /// rather than reclaim the lease from the usurper.
  Status Heartbeat();

  /// The stale-takeover timeout read from QOX_LEASE_TIMEOUT_MS, in
  /// milliseconds; 0 = pid-liveness only (the default).
  static int64_t TimeoutMs();

  /// True when acquisition displaced a stale lease left by a dead holder.
  bool took_over() const { return took_over_; }

  const std::string& path() const { return path_; }

  /// Reads the holder pid of the lease at `path`: NotFound when no lease
  /// exists, kCorruptedData when the file is not one sealed record whose
  /// body starts with a whole positive pid. Every caller treats an error
  /// as "no live holder".
  static Result<pid_t> HolderPid(const std::string& path);

 private:
  LeaseFile(std::string path, std::string owner, bool took_over)
      : path_(std::move(path)), owner_(std::move(owner)),
        took_over_(took_over) {}

  const std::string path_;
  const std::string owner_;
  const bool took_over_;
  bool released_ = false;
};

}  // namespace qox

#endif  // QOX_STORAGE_LEASE_FILE_H_
