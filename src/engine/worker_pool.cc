#include "engine/worker_pool.h"

#include <algorithm>
#include <chrono>

namespace qox {

namespace {

constexpr size_t kExternalIndex = static_cast<size_t>(-1);

/// Identity of the pool task (if any) executing on the calling thread.
thread_local const WorkerPool* tl_pool = nullptr;
thread_local size_t tl_worker_index = kExternalIndex;

/// How long a helping wait parks between help attempts when no CPU task is
/// runnable (the awaited tasks are executing elsewhere). Bounded polling —
/// a completion notification also wakes the waiter early.
constexpr std::chrono::microseconds kHelpParkSlice(200);

}  // namespace

// ===== TaskGroup ==========================================================

void TaskGroup::Add() {
  std::lock_guard<std::mutex> lock(mu_);
  ++pending_;
}

void TaskGroup::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  if (--pending_ == 0) cv_.notify_all();
}

bool TaskGroup::done() const {
  std::lock_guard<std::mutex> lock(mu_);
  return pending_ == 0;
}

void TaskGroup::Wait() {
  const bool helper = pool_ != nullptr && pool_->InWorkerThread();
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (pending_ == 0) return;
      if (!helper) {
        cv_.wait(lock, [this] { return pending_ == 0; });
        return;
      }
    }
    // Core worker: execute queued CPU tasks here instead of starving them
    // (the awaited tasks may be sitting in this very worker's deque).
    if (!pool_->TryHelpOne()) {
      std::unique_lock<std::mutex> lock(mu_);
      if (pending_ == 0) return;
      cv_.wait_for(lock, kHelpParkSlice);
    }
  }
}

// ===== WorkerPool =========================================================

WorkerPool::WorkerPool(size_t num_workers) {
  const size_t n = std::max<size_t>(1, num_workers);
  local_.resize(n);
  core_workers_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    core_workers_.emplace_back([this, i] { CoreWorkerLoop(i); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  blocking_cv_.notify_all();
  for (std::thread& t : core_workers_) t.join();
  // Draining blocking tasks may post more blocking work, which can grow
  // expansion_workers_ while this destructor runs — join from snapshots
  // under mu_ until the vector stops growing instead of iterating it raw.
  size_t joined = 0;
  while (true) {
    std::thread t;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (joined == expansion_workers_.size()) break;
      t = std::move(expansion_workers_[joined]);
    }
    t.join();
    ++joined;
  }
}

bool WorkerPool::InWorkerThread() const {
  return tl_pool == this && tl_worker_index != kExternalIndex;
}

WorkerPool::Stats WorkerPool::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void WorkerPool::Post(std::function<void()> task, const TaskTag& tag,
                      TaskGroup* group) {
  // The group learns about the task before it is runnable, so a group can
  // never observe "done" between post and start.
  if (group != nullptr) group->Add();
  bool spawn_expansion = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Task t;
    t.fn = std::move(task);
    t.tag = tag;
    t.group = group;
    t.seq = next_seq_++;
    if (tag.blocking) {
      blocking_queue_.push_back(std::move(t));
      // Every queued blocking task must be guaranteed a thread (the
      // liveness contract streaming stages rely on), so spawn whenever the
      // supply of parked workers plus workers still starting up cannot
      // cover the queue depth. Counting parked workers is safe: an idle
      // worker never exits while a blocking task is queued.
      spawn_expansion =
          blocking_queue_.size() > idle_expansion_ + starting_expansion_;
      if (spawn_expansion) {
        ++starting_expansion_;
        ++stats_.expansion_threads;
        expansion_workers_.emplace_back([this] { ExpansionWorkerLoop(); });
      }
    } else {
      if (tl_pool == this && tl_worker_index != kExternalIndex) {
        // Child task of a core worker: own deque, newest-first for the
        // owner (cache affinity), oldest-first for thieves.
        local_[tl_worker_index].push_back(std::move(t));
      } else {
        injection_.push(std::move(t));
      }
      ++queued_cpu_;
    }
  }
  if (tag.blocking) {
    blocking_cv_.notify_one();
  } else {
    work_cv_.notify_one();
  }
}

bool WorkerPool::TryTakeTask(size_t worker_index, Task* out) {
  // Caller holds mu_.
  if (queued_cpu_ == 0) return false;
  if (worker_index != kExternalIndex && !local_[worker_index].empty()) {
    *out = std::move(local_[worker_index].back());
    local_[worker_index].pop_back();
    --queued_cpu_;
    return true;
  }
  if (!injection_.empty()) {
    // priority_queue::top is const; the pop-after-move is safe because the
    // moved-from Task is only destroyed.
    *out = std::move(const_cast<Task&>(injection_.top()));
    injection_.pop();
    --queued_cpu_;
    return true;
  }
  for (size_t v = 0; v < local_.size(); ++v) {
    if (v == worker_index || local_[v].empty()) continue;
    *out = std::move(local_[v].front());
    local_[v].pop_front();
    --queued_cpu_;
    ++stats_.steals;
    return true;
  }
  return false;
}

void WorkerPool::RunTask(Task task) {
  const WorkerPool* prev_pool = tl_pool;
  tl_pool = this;
  task.fn();
  tl_pool = prev_pool;
  FinishTask(task);
}

void WorkerPool::FinishTask(const Task& task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --running_;
    if (task.tag.blocking) --blocking_in_flight_;
    if (shutdown_ && running_ == 0 && queued_cpu_ == 0 &&
        blocking_queue_.empty()) {
      // Fully quiescent under shutdown: wake every parked worker so it
      // observes its exit condition. (Workers park during the drain —
      // their wait predicates only fire on runnable work or on this
      // final quiescence, not on shutdown_ alone.)
      work_cv_.notify_all();
      blocking_cv_.notify_all();
    }
  }
  if (task.group != nullptr) task.group->Finish();
}

bool WorkerPool::TryHelpOne() {
  Task task;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const size_t index = tl_pool == this ? tl_worker_index : kExternalIndex;
    if (!TryTakeTask(index, &task)) return false;
    ++running_;
    ++stats_.tasks_helped;
  }
  RunTask(std::move(task));
  return true;
}

void WorkerPool::CoreWorkerLoop(size_t worker_index) {
  tl_pool = this;
  tl_worker_index = worker_index;
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      // Wake on runnable CPU work, or once a shutdown drain has fully
      // quiesced (waking on shutdown_ alone would busy-spin here while
      // the last in-flight tasks finish).
      work_cv_.wait(lock, [this] {
        return queued_cpu_ > 0 ||
               (shutdown_ && blocking_queue_.empty() && running_ == 0);
      });
      if (!TryTakeTask(worker_index, &task)) {
        // Drained: exit only once nothing can produce more work — a
        // running task may still post, and a queued blocking task may
        // post CPU work once an expansion worker runs it.
        if (shutdown_ && queued_cpu_ == 0 && blocking_queue_.empty() &&
            running_ == 0) {
          return;
        }
        continue;
      }
      ++running_;
      ++stats_.tasks_run;
    }
    RunTask(std::move(task));
  }
}

void WorkerPool::ExpansionWorkerLoop() {
  tl_pool = this;
  tl_worker_index = kExternalIndex;  // expansion workers are not core
  bool starting = true;
  while (true) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      if (starting) {
        // Now visible to Post's supply count as a parked worker.
        --starting_expansion_;
        starting = false;
      }
      ++idle_expansion_;
      // Wake on queued blocking work, or once a shutdown drain has fully
      // quiesced (not on shutdown_ alone — that would busy-spin during
      // the drain).
      blocking_cv_.wait(lock, [this] {
        return !blocking_queue_.empty() ||
               (shutdown_ && queued_cpu_ == 0 && running_ == 0);
      });
      --idle_expansion_;
      if (blocking_queue_.empty()) {
        if (shutdown_ && queued_cpu_ == 0 && running_ == 0) return;
        continue;
      }
      task = std::move(blocking_queue_.front());
      blocking_queue_.pop_front();
      ++running_;
      ++blocking_in_flight_;
      ++stats_.blocking_run;
      stats_.expansion_peak =
          std::max(stats_.expansion_peak, blocking_in_flight_);
    }
    RunTask(std::move(task));
  }
}

}  // namespace qox
