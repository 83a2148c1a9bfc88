// Crash-point injection: named process-kill hooks at durability boundaries.
//
// A crash point is a named call site placed where a process death would be
// most revealing — immediately before or after a journal append, a
// recovery-point rename, a warehouse append. When armed, reaching the
// site's configured hit count kills the process with SIGKILL (no atexit
// handlers, no flushes — the honest `kill -9`). Disarmed sites cost one
// atomic load.
//
// Arming is in-process only: ArmCrashPoints("rp.sealed,flat.mid_append:3")
// fires "rp.sealed" on its first hit and "flat.mid_append" on its third.
//
// The hit counters are process-wide and survive re-arming only via
// ArmCrashPoints (which resets them), so a forked child starts with the
// parent's counters — arm in the child (FlowSupervisor's child_setup,
// CdcOptions::shard_child_setup) for per-incarnation schedules.

#ifndef QOX_COMMON_CRASH_POINT_H_
#define QOX_COMMON_CRASH_POINT_H_

#include <string>

namespace qox {

/// Reports that execution reached crash point `name`. Kills the process
/// (SIGKILL) if the point is armed and this hit reaches its configured
/// count; otherwise returns immediately.
void CrashPointHit(const char* name);

/// Arms crash points from a spec: comma-separated `name` or `name:k`
/// entries (fire on the k-th hit, 1-based; bare name means k = 1). An
/// empty spec disarms everything and clears hit counters.
void ArmCrashPoints(const std::string& spec);

/// True when any crash point is armed (diagnostics).
bool CrashPointsArmed();

}  // namespace qox

/// The call-site macro: zero-cost-ish when nothing is armed.
#define QOX_CRASH_POINT(name) ::qox::CrashPointHit(name)

#endif  // QOX_COMMON_CRASH_POINT_H_
