// WorkerPool: the unified executor substrate the dataflow scheduler runs on.
//
// One pool multiplexes every kind of engine work — staged partition
// branches, redundant flow instances, streaming dataflow stages, and whole
// flows admitted by the FlowService — so a single machine's cores can be
// shared across many concurrent flows instead of each flow owning threads.
// Two task classes, two execution paths:
//
//   * CPU tasks (the default): finite compute that never blocks on other
//     tasks except through helping waits. They run on a fixed set of CORE
//     workers with per-worker deques and work stealing: a task posted from
//     inside a core worker lands on that worker's own deque (LIFO for the
//     owner — cache affinity), idle workers steal from the oldest end of a
//     sibling's deque, and externally posted tasks go through a global
//     injection queue ordered EARLIEST-DEADLINE-FIRST by the task's
//     TaskTag (ties broken by submission order, so untagged workloads are
//     plain FIFO and deterministic).
//
//   * BLOCKING tasks (TaskTag::blocking): bodies that may park on channel
//     edges, condition variables, or child tasks for arbitrarily long —
//     streaming stages, flow drivers, redundant instances. They run on
//     EXPANSION workers: cached threads the pool spawns on demand and
//     reuses across tasks, flows, and attempts. Expansion capacity is
//     unbounded (exactly the liveness guarantee the old per-stage
//     dedicated threads gave the streaming dataflow) but threads are
//     pooled, so a service running hundreds of flow attempts recycles a
//     small steady-state set instead of churning thread spawns.
//
// Waiting without deadlock. The old ThreadPool rejected Wait() from inside
// a task (a worker waiting for its own queue deadlocks a full pool) but
// could not see TRANSITIVE waits — task A posting task B and blocking on a
// latch until B finishes deadlocks a single-worker pool just the same.
// The substrate closes that hole structurally: TaskGroup::Wait() called
// from a core worker HELPS — it pops and runs queued CPU tasks while the
// awaited work is outstanding — so a worker waiting on child tasks
// executes them itself instead of starving them. Blocking tasks may simply
// park (expansion capacity is unbounded).

#ifndef QOX_ENGINE_WORKER_POOL_H_
#define QOX_ENGINE_WORKER_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <queue>
#include <string>
#include <thread>
#include <vector>

namespace qox {

class WorkerPool;

/// Scheduling tag of one task: the deadline-aware submit interface of the
/// substrate (the atlas-rt submit(deadline, exectime) shape). All fields
/// optional; a default tag is plain FIFO CPU work.
struct TaskTag {
  /// Absolute NowMicros() deadline of the owning flow (0 = none; sorts
  /// after every tagged task). The injection queue pops earliest-deadline
  /// first, which is what makes the shared pool schedule runnable stages
  /// of many flows EDF.
  int64_t deadline_micros = 0;
  /// May park on channels / condition variables / child tasks: run on an
  /// expansion worker instead of occupying a core worker.
  bool blocking = false;
};

/// Completion tracking for a set of related tasks (the substrate's work
/// guard: the pool cannot report idle while a group member is pending).
/// Wait() from a core worker HELPS — runs queued CPU tasks — so a task may
/// safely post subtasks to its own pool and wait on them.
class TaskGroup {
 public:
  explicit TaskGroup(WorkerPool* pool) : pool_(pool) {}
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;
  /// All tasks posted against this group must finish before destruction
  /// (Wait() enforces it; the destructor asserts via Wait as a backstop).
  ~TaskGroup() { Wait(); }

  /// Blocks until every task posted with this group has finished. Helping:
  /// when called on a core worker thread of the owning pool, queued CPU
  /// tasks are executed here while waiting (transitive-wait deadlock fix).
  void Wait();

  /// True when no member task is queued or running.
  bool done() const;

 private:
  friend class WorkerPool;
  friend class ExecContext;  // inline fallback balances Add/Finish itself
  void Add();
  void Finish();

  WorkerPool* pool_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  size_t pending_ = 0;
};

class WorkerPool {
 public:
  /// Substrate-wide accounting (work-stealing observability; the
  /// engine_worker_pool_test invariants read these).
  struct Stats {
    size_t tasks_run = 0;        ///< CPU tasks executed by core workers
    size_t tasks_helped = 0;     ///< CPU tasks executed inside helping waits
    size_t steals = 0;           ///< tasks taken from a sibling's deque
    size_t blocking_run = 0;     ///< blocking tasks executed
    size_t expansion_threads = 0;  ///< expansion threads ever created
    size_t expansion_peak = 0;     ///< max blocking tasks in flight at once
  };

  explicit WorkerPool(size_t num_workers);
  /// Drains every queued task, then joins core and expansion workers.
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Submits a task. CPU tasks from a core worker go to that worker's own
  /// deque; external CPU tasks go to the EDF injection queue; blocking
  /// tasks go to the expansion lane. `group` (optional) tracks completion.
  void Post(std::function<void()> task, const TaskTag& tag = TaskTag(),
            TaskGroup* group = nullptr);

  /// True when the calling thread is one of this pool's core workers.
  bool InWorkerThread() const;

  size_t num_workers() const { return core_workers_.size(); }
  Stats stats() const;

 private:
  friend class TaskGroup;

  struct Task {
    std::function<void()> fn;
    TaskTag tag;
    TaskGroup* group = nullptr;
    uint64_t seq = 0;  ///< submission order (EDF tie-break / FIFO fallback)
  };

  /// Min-heap order for the injection queue: earliest deadline first
  /// (deadline 0 = none sorts last), then submission order.
  struct EdfLater {
    bool operator()(const Task& a, const Task& b) const {
      const int64_t da = a.tag.deadline_micros == 0 ? INT64_MAX
                                                    : a.tag.deadline_micros;
      const int64_t db = b.tag.deadline_micros == 0 ? INT64_MAX
                                                    : b.tag.deadline_micros;
      if (da != db) return da > db;
      return a.seq > b.seq;
    }
  };

  void CoreWorkerLoop(size_t worker_index);
  void ExpansionWorkerLoop();
  /// Pops the next CPU task for `worker_index` (own deque newest-first,
  /// then injection queue EDF, then steal oldest-first from a sibling).
  /// `worker_index` == kExternal takes injection/steal only (helping from
  /// a non-worker thread). Returns false when nothing is runnable.
  bool TryTakeTask(size_t worker_index, Task* out);
  /// Runs one queued CPU task on the calling thread if any is runnable.
  bool TryHelpOne();
  void RunTask(Task task);
  void FinishTask(const Task& task);

  static constexpr size_t kExternal = static_cast<size_t>(-1);

  mutable std::mutex mu_;
  std::condition_variable work_cv_;   ///< core workers: work or shutdown
  std::condition_variable blocking_cv_;  ///< expansion workers
  std::priority_queue<Task, std::vector<Task>, EdfLater> injection_;
  std::vector<std::deque<Task>> local_;  ///< per-core-worker deques
  std::deque<Task> blocking_queue_;
  uint64_t next_seq_ = 0;
  /// Tasks running right now (core + helped + blocking); queued tasks are
  /// counted by the queues themselves.
  size_t running_ = 0;
  size_t queued_cpu_ = 0;  ///< injection_ + all local_ deques
  size_t idle_expansion_ = 0;  ///< expansion workers parked in wait
  /// Expansion threads spawned but not yet parked for the first time.
  /// Post counts them as supply so a burst of blocking posts spawns
  /// exactly enough threads to cover the queue depth instead of either
  /// stranding tasks behind an idle-worker check or stampede-spawning.
  size_t starting_expansion_ = 0;
  size_t blocking_in_flight_ = 0;
  bool shutdown_ = false;
  Stats stats_;
  std::vector<std::thread> core_workers_;
  std::vector<std::thread> expansion_workers_;
};

}  // namespace qox

#endif  // QOX_ENGINE_WORKER_POOL_H_
