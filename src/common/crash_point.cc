#include "common/crash_point.h"

#include <atomic>
#include <csignal>
#include <cstdlib>
#include <map>
#include <mutex>

#include <unistd.h>

#include "common/strings.h"

namespace qox {
namespace {

struct CrashState {
  std::mutex mu;
  /// point name -> hits remaining before it fires.
  std::map<std::string, long> remaining;
};

CrashState& State() {
  static CrashState* state = new CrashState();
  return *state;
}

/// Fast path: skip the mutex entirely while nothing is armed.
std::atomic<bool>& ArmedFlag() {
  static std::atomic<bool> armed{false};
  return armed;
}

void ArmLocked(CrashState& state, const std::string& spec) {
  state.remaining.clear();
  for (const std::string& entry : Split(spec, ',')) {
    if (entry.empty()) continue;
    const size_t colon = entry.rfind(':');
    std::string name = entry;
    long count = 1;
    if (colon != std::string::npos && colon + 1 < entry.size()) {
      const long parsed = std::strtol(entry.c_str() + colon + 1, nullptr, 10);
      if (parsed > 0) {
        name = entry.substr(0, colon);
        count = parsed;
      }
    }
    state.remaining[name] = count;
  }
  ArmedFlag().store(!state.remaining.empty(), std::memory_order_release);
}

[[noreturn]] void Die() {
  // SIGKILL cannot be caught: no destructors, no flushes, no atexit — the
  // same death a `kill -9` from outside would cause. _exit is the
  // (unreachable in practice) fallback.
  ::kill(::getpid(), SIGKILL);
  ::_exit(137);
}

}  // namespace

void CrashPointHit(const char* name) {
  if (!ArmedFlag().load(std::memory_order_acquire)) return;
  CrashState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  const auto it = state.remaining.find(name);
  if (it == state.remaining.end()) return;
  if (--it->second > 0) return;
  Die();
}

void ArmCrashPoints(const std::string& spec) {
  CrashState& state = State();
  std::lock_guard<std::mutex> lock(state.mu);
  ArmLocked(state, spec);
}

bool CrashPointsArmed() {
  return ArmedFlag().load(std::memory_order_acquire);
}

}  // namespace qox
