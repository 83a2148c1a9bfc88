#include "storage/lease_file.h"

#include <cerrno>
#include <charconv>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>

#include <unistd.h>

#include "storage/record_io.h"

namespace qox {

namespace {

/// True when `pid` names a process that exists right now (signal 0 probes
/// existence; EPERM still means "exists").
bool PidAlive(pid_t pid) {
  if (pid <= 0) return false;
  return ::kill(pid, 0) == 0 || errno == EPERM;
}

/// Milliseconds since the lease file was last written; -1 when unreadable.
int64_t LeaseAgeMs(const std::string& path) {
  std::error_code ec;
  const auto mtime = std::filesystem::last_write_time(path, ec);
  if (ec) return -1;
  const auto age = std::filesystem::file_time_type::clock::now() - mtime;
  return std::chrono::duration_cast<std::chrono::milliseconds>(age).count();
}

/// Atomically writes the sealed record "<pid> <owner>" to `path` via tmp +
/// rename.
Status PublishLease(const std::string& path, const std::string& owner) {
  const std::string tmp = path + ".tmp";
  std::string record;
  AppendSealed(std::to_string(::getpid()) + " " + owner, &record);
  QOX_RETURN_IF_ERROR(WriteFile(tmp, record, /*sync=*/false));
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    return Status::IoError("cannot publish lease '" + path +
                           "': " + ec.message());
  }
  return Status::OK();
}

}  // namespace

Result<pid_t> LeaseFile::HolderPid(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("no lease at '" + path + "'");
  std::string record((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
  const auto corrupted = [&path] {
    return Status::CorruptedData("lease at '" + path +
                                 "' is not one sealed '<pid> <owner>' record");
  };
  if (record.empty() || record.back() != '\n') return corrupted();
  record.pop_back();
  const std::optional<std::string_view> body = OpenSealed(record);
  if (!body.has_value()) return corrupted();
  const size_t space = body->find(' ');
  if (space == std::string_view::npos) return corrupted();
  pid_t pid = 0;
  const char* end = body->data() + space;
  const auto [parsed, ec] = std::from_chars(body->data(), end, pid);
  if (ec != std::errc() || parsed != end || pid <= 0) return corrupted();
  return pid;
}

int64_t LeaseFile::TimeoutMs() {
  const char* env = std::getenv("QOX_LEASE_TIMEOUT_MS");
  if (env == nullptr) return 0;
  const long long parsed = std::strtoll(env, nullptr, 10);
  return parsed > 0 ? static_cast<int64_t>(parsed) : 0;
}

Result<std::unique_ptr<LeaseFile>> LeaseFile::Acquire(std::string path,
                                                      std::string owner) {
  bool took_over = false;
  const Result<pid_t> holder = HolderPid(path);
  if (holder.ok()) {
    const pid_t pid = holder.value();
    if (pid != ::getpid() && PidAlive(pid)) {
      // A live holder still loses the lease when it stopped refreshing it
      // for longer than the configured timeout — the hung-holder case pid
      // liveness cannot see.
      const int64_t timeout_ms = TimeoutMs();
      const int64_t age_ms = timeout_ms > 0 ? LeaseAgeMs(path) : -1;
      if (timeout_ms <= 0 || age_ms < timeout_ms) {
        return Status::FailedPrecondition(
            "lease '" + path + "' held by live process " +
            std::to_string(pid));
      }
    }
    // Holder is this process (re-acquire), dead, or timed out: take over.
    took_over = pid != ::getpid();
  }
  // Publish atomically so a reader never sees a half-written lease.
  QOX_RETURN_IF_ERROR(PublishLease(path, owner));
  return std::unique_ptr<LeaseFile>(
      new LeaseFile(std::move(path), std::move(owner), took_over));
}

Status LeaseFile::Heartbeat() {
  if (released_) {
    return Status::FailedPrecondition("heartbeat on released lease '" +
                                      path_ + "'");
  }
  // A timeout-based takeover rewrites the file behind our back. Blindly
  // republishing would silently reclaim the lease from the usurper and
  // leave two live holders, neither aware of the other — the displaced
  // holder must stop instead.
  const Result<pid_t> holder = HolderPid(path_);
  if (holder.ok() && holder.value() != ::getpid() &&
      PidAlive(holder.value())) {
    return Status::FailedPrecondition(
        "lease '" + path_ + "' was taken over by live process " +
        std::to_string(holder.value()));
  }
  return PublishLease(path_, owner_);
}

Status LeaseFile::Release() {
  if (released_) return Status::OK();
  released_ = true;
  // Same displacement guard as Heartbeat: a displaced holder must not
  // delete the usurper's lease on its way out.
  const Result<pid_t> holder = HolderPid(path_);
  if (holder.ok() && holder.value() != ::getpid()) return Status::OK();
  std::error_code ec;
  std::filesystem::remove(path_, ec);
  if (ec) {
    return Status::IoError("cannot release lease '" + path_ +
                           "': " + ec.message());
  }
  return Status::OK();
}

LeaseFile::~LeaseFile() { (void)Release(); }

}  // namespace qox
