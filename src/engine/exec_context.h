// ExecContext: the Executor concept the dataflow scheduler programs against.
//
// A context is a (pool, tag) pair — *where* work runs plus *how it is
// scheduled* (flow deadline, blocking class). The engine's execution sites
// submit through two executor operations instead of touching threads:
//
//   Post        — queue for asynchronous execution (never inline)
//   BulkExecute — fan a counted loop out as CPU tasks and help-wait until
//                 every iteration completes (a staged run's partition
//                 branch fan-out, a source's decode fan-out)
//
// The tag travels with every submission, so a FlowService can stamp one
// deadline on a flow's context and have every partition branch, streaming
// stage, and redundant instance of that flow compete EDF against other
// flows' work on the shared WorkerPool without the flow code knowing.
//
// A default-constructed context has no pool and degrades to inline serial
// execution — useful for cost-model unit paths; the real engine always
// supplies a pool.

#ifndef QOX_ENGINE_EXEC_CONTEXT_H_
#define QOX_ENGINE_EXEC_CONTEXT_H_

#include <cstddef>
#include <functional>

#include "engine/worker_pool.h"

namespace qox {

class ExecContext {
 public:
  ExecContext() = default;
  ExecContext(WorkerPool* pool, const TaskTag& tag) : pool_(pool), tag_(tag) {}

  WorkerPool* pool() const { return pool_; }
  const TaskTag& tag() const { return tag_; }

  /// Queues `fn` for asynchronous execution under this context's tag.
  /// `blocking` routes to the pool's expansion lane (bodies that may park —
  /// streaming stages, flow drivers). Without a pool, runs inline as a
  /// degenerate fallback — callers that require asynchrony (a streaming
  /// StageSet) must hold a pooled context.
  void Post(std::function<void()> fn, TaskGroup* group = nullptr,
            bool blocking = false) const;

  /// Runs `fn(0) .. fn(n-1)` as CPU tasks of the pool and blocks until all
  /// complete. From a core worker the wait HELPS (executes queued tasks),
  /// so nested bulk fan-out cannot deadlock. Without a pool, a serial loop.
  void BulkExecute(size_t n, const std::function<void(size_t)>& fn) const;

 private:
  WorkerPool* pool_ = nullptr;
  TaskTag tag_;
};

}  // namespace qox

#endif  // QOX_ENGINE_EXEC_CONTEXT_H_
