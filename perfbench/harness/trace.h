// In-memory span recorder of the benchmark's traced run.
//
// Spans are recorded only around calls the benchmark itself makes into
// the engine's public functions; nothing inside the engine is traced.
// Each span has a name, start, end, the span that was open on the same
// thread when it began (its parent), and an operation id shared by every
// span of one benchmark operation (a pass, a CDC window, a tenant flow).
// Spans stay in memory and are written once, as Chrome Trace Event JSON,
// when the run ends. Disabled (the untraced run), a span costs one
// relaxed atomic load.

#ifndef QOX_PERFBENCH_TRACE_H_
#define QOX_PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

struct SpanRecord {
  std::string name;
  int64_t start_us = 0;
  int64_t end_us = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = none
  uint64_t op = 0;      ///< operation id, 0 = not part of an operation
  uint64_t tid = 0;
};

class Tracer {
 public:
  static Tracer& Get();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Records a span whose start and end were measured elsewhere (a tenant
  /// flow timed from its scheduled send to its completion stamp).
  void Record(std::string name, int64_t start_us, int64_t end_us, uint64_t op);

  size_t size() const;
  std::vector<SpanRecord> Snapshot() const;

  /// Writes every recorded span as Chrome Trace Event JSON ("X" events;
  /// parent and operation ids in args).
  qox::Status WriteChromeTrace(const std::string& path) const;

 private:
  friend class Span;
  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }
  void Push(SpanRecord record);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> next_id_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: open for the lifetime of the object, on the current thread.
class Span {
 public:
  explicit Span(const char* name, uint64_t op = 0);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  bool active_ = false;
  SpanRecord record_;
  uint64_t saved_parent_ = 0;
};

}  // namespace perfbench

#endif  // QOX_PERFBENCH_TRACE_H_
