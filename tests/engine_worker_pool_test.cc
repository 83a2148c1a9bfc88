// WorkerPool: the unified executor substrate. Covers the task classes
// (CPU vs blocking), work-stealing and helping-wait invariants (via
// Stats), EDF ordering of the injection queue, nested and TRANSITIVE
// waits from inside tasks (the deadlock class the legacy ThreadPool
// rejected but could not fully detect), graceful shutdown with queued
// work, and a TSan-facing stress mix of all of the above.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/exec_context.h"
#include "engine/worker_pool.h"

namespace qox {
namespace {

TEST(WorkerPoolTest, RunsAllTasks) {
  WorkerPool pool(4);
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) {
    pool.Post([&count] { ++count; }, TaskTag(), &group);
  }
  group.Wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(WorkerPoolTest, AtLeastOneWorker) {
  WorkerPool pool(0);
  EXPECT_GE(pool.num_workers(), 1u);
  std::atomic<bool> ran{false};
  TaskGroup group(&pool);
  pool.Post([&ran] { ran = true; }, TaskTag(), &group);
  group.Wait();
  EXPECT_TRUE(ran.load());
}

TEST(WorkerPoolTest, WaitIdleWithNoTasksReturnsImmediately) {
  WorkerPool pool(2);
  EXPECT_TRUE(pool.WaitIdle().ok());
  EXPECT_TRUE(pool.WaitIdle().ok());  // idempotent
}

TEST(WorkerPoolTest, CpuParallelismIsBoundedByCoreWorkers) {
  // CPU tasks run only on the N core workers (helping waits aside), so
  // concurrent occupancy never exceeds N.
  constexpr size_t kWorkers = 3;
  WorkerPool pool(kWorkers);
  std::atomic<int> live{0};
  std::atomic<int> peak{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 60; ++i) {
    pool.Post(
        [&live, &peak] {
          const int now = ++live;
          int seen = peak.load();
          while (now > seen && !peak.compare_exchange_weak(seen, now)) {
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(1));
          --live;
        },
        TaskTag(), &group);
  }
  group.Wait();
  EXPECT_LE(peak.load(), static_cast<int>(kWorkers));
  EXPECT_GE(peak.load(), 1);
}

TEST(WorkerPoolTest, BlockingTasksExpandBeyondCoreWorkers) {
  // Blocking tasks must all run concurrently even when they outnumber the
  // core workers — the liveness guarantee streaming stages rely on (a
  // bounded-channel dataflow deadlocks if stages queue behind each other).
  constexpr int kBlocking = 8;
  WorkerPool pool(2);
  std::mutex mu;
  std::condition_variable cv;
  int arrived = 0;
  TaskGroup group(&pool);
  TaskTag blocking;
  blocking.blocking = true;
  for (int i = 0; i < kBlocking; ++i) {
    pool.Post(
        [&mu, &cv, &arrived] {
          std::unique_lock<std::mutex> lock(mu);
          ++arrived;
          cv.notify_all();
          // Parks until every sibling arrived: only possible when all
          // kBlocking bodies hold a thread simultaneously.
          cv.wait(lock, [&arrived] { return arrived == kBlocking; });
        },
        blocking, &group);
  }
  group.Wait();
  EXPECT_EQ(arrived, kBlocking);
  EXPECT_GE(pool.stats().blocking_run, static_cast<size_t>(kBlocking));
  EXPECT_GE(pool.stats().expansion_peak, static_cast<size_t>(kBlocking));
}

TEST(WorkerPoolTest, BlockingBurstOntoIdleWorkersGetsAThreadEach) {
  // Regression: with k expansion workers parked idle from a previous
  // batch, a burst of m > k blocking posts must still give every task a
  // thread. An idle-workers-exist check used to skip spawning for all m
  // posts, stranding m - k tasks in the queue while the k running bodies
  // parked on a barrier none of them could pass — a streaming-dataflow
  // deadlock.
  constexpr int kBurst = 9;
  constexpr int kRounds = 8;  // re-race the parked-idle window repeatedly
  WorkerPool pool(2);
  TaskTag blocking;
  blocking.blocking = true;
  for (int round = 0; round < kRounds; ++round) {
    // After the previous round (or the first, which also warms the
    // cache), let the expansion workers re-park so the burst posts
    // observe them idle.
    if (round > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    std::mutex mu;
    std::condition_variable cv;
    int arrived = 0;
    TaskGroup group(&pool);
    for (int i = 0; i < kBurst; ++i) {
      pool.Post(
          [&mu, &cv, &arrived] {
            std::unique_lock<std::mutex> lock(mu);
            ++arrived;
            cv.notify_all();
            // Only passable when all kBurst bodies hold a thread at once.
            cv.wait(lock, [&arrived] { return arrived == kBurst; });
          },
          blocking, &group);
    }
    group.Wait();
    EXPECT_EQ(arrived, kBurst);
  }
  EXPECT_GE(pool.stats().expansion_peak, static_cast<size_t>(kBurst));
}

TEST(WorkerPoolTest, ExpansionThreadsAreReused) {
  // Sequential blocking tasks recycle the cached expansion thread instead
  // of spawning one per task.
  WorkerPool pool(1);
  TaskTag blocking;
  blocking.blocking = true;
  for (int i = 0; i < 20; ++i) {
    TaskGroup group(&pool);
    pool.Post([] {}, blocking, &group);
    group.Wait();
  }
  EXPECT_EQ(pool.stats().blocking_run, 20u);
  EXPECT_LT(pool.stats().expansion_threads, 20u);
}

TEST(WorkerPoolTest, TasksSubmittedFromTasksRun) {
  WorkerPool pool(2);
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 10; ++i) {
    pool.Post(
        [&pool, &count, &group] {
          pool.Post([&count] { ++count; }, TaskTag(), &group);
        },
        TaskTag(), &group);
  }
  group.Wait();
  EXPECT_EQ(count.load(), 10);
}

TEST(WorkerPoolTest, NestedWaitFromInsideATaskHelps) {
  // The legacy pool REJECTED Wait() from a worker thread; the substrate
  // executes the awaited subtasks on the waiting worker instead. On a
  // single-worker pool this only terminates if helping works.
  WorkerPool pool(1);
  std::atomic<int> inner{0};
  TaskGroup outer(&pool);
  pool.Post(
      [&pool, &inner] {
        TaskGroup sub(&pool);
        for (int i = 0; i < 5; ++i) {
          pool.Post([&inner] { ++inner; }, TaskTag(), &sub);
        }
        sub.Wait();  // would deadlock without helping
      },
      TaskTag(), &outer);
  outer.Wait();
  EXPECT_EQ(inner.load(), 5);
  EXPECT_GE(pool.stats().tasks_helped, 1u);
}

TEST(WorkerPoolTest, TransitiveNestedWaitCompletes) {
  // The deadlock the old rejection could NOT see: A waits on B, B waits on
  // C, all on one worker. Helping waits run the whole chain inline.
  WorkerPool pool(1);
  std::atomic<bool> c_ran{false};
  TaskGroup a_group(&pool);
  pool.Post(
      [&pool, &c_ran] {
        TaskGroup b_group(&pool);
        pool.Post(
            [&pool, &c_ran] {
              TaskGroup c_group(&pool);
              pool.Post([&c_ran] { c_ran = true; }, TaskTag(), &c_group);
              c_group.Wait();
            },
            TaskTag(), &b_group);
        b_group.Wait();
      },
      TaskTag(), &a_group);
  a_group.Wait();
  EXPECT_TRUE(c_ran.load());
}

TEST(WorkerPoolTest, WaitFromAnotherPoolsWorkerIsAllowed) {
  // A worker of pool A may block on pool B's work: distinct pools, no
  // self-starvation (the old cross-pool allowance, preserved).
  WorkerPool a(1);
  WorkerPool b(1);
  std::atomic<bool> done{false};
  TaskGroup outer(&a);
  a.Post(
      [&b, &done] {
        TaskGroup inner(&b);
        b.Post([&done] { done = true; }, TaskTag(), &inner);
        inner.Wait();
      },
      TaskTag(), &outer);
  outer.Wait();
  EXPECT_TRUE(done.load());
}

TEST(WorkerPoolTest, EdfOrdersExternallyQueuedTasks) {
  // Tasks queued while the single worker is busy drain earliest-deadline
  // first; untagged (deadline 0) tasks go last in submission order.
  WorkerPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool started = false;
  bool release = false;
  std::vector<int> order;
  TaskGroup group(&pool);
  // Occupy the worker so subsequent posts pile up in the injection queue.
  pool.Post(
      [&mu, &cv, &started, &release] {
        std::unique_lock<std::mutex> lock(mu);
        started = true;
        cv.notify_all();
        cv.wait(lock, [&release] { return release; });
      },
      TaskTag(), &group);
  {
    // Queue the rest only once the worker is inside the blocker: a task
    // queued beside the untagged blocker would legitimately run first.
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&started] { return started; });
  }
  const auto post_with_deadline = [&](int id, int64_t deadline) {
    TaskTag tag;
    tag.deadline_micros = deadline;
    pool.Post(
        [&mu, &order, id] {
          std::lock_guard<std::mutex> lock(mu);
          order.push_back(id);
        },
        tag, &group);
  };
  post_with_deadline(1, 0);       // no deadline -> last
  post_with_deadline(2, 900000);  // loose
  post_with_deadline(3, 100000);  // tight -> first
  post_with_deadline(4, 500000);  // middle
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  group.Wait();
  EXPECT_EQ(order, (std::vector<int>{3, 4, 2, 1}));
}

TEST(WorkerPoolTest, UntaggedTasksDrainFifo) {
  WorkerPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool release = false;
  std::vector<int> order;
  TaskGroup group(&pool);
  pool.Post(
      [&mu, &cv, &release] {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&release] { return release; });
      },
      TaskTag(), &group);
  for (int i = 0; i < 8; ++i) {
    pool.Post(
        [&mu, &order, i] {
          std::lock_guard<std::mutex> lock(mu);
          order.push_back(i);
        },
        TaskTag(), &group);
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    release = true;
  }
  cv.notify_all();
  group.Wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
}

TEST(WorkerPoolTest, StealsObservedUnderImbalance) {
  // One producer task posts all the work (landing on its own deque); the
  // other workers must steal to participate. With enough tasks the steal
  // counter moves — the observable work-stealing invariant.
  WorkerPool pool(4);
  std::atomic<int> count{0};
  TaskGroup group(&pool);
  pool.Post(
      [&pool, &count, &group] {
        for (int i = 0; i < 200; ++i) {
          pool.Post(
              [&count] {
                ++count;
                std::this_thread::sleep_for(std::chrono::microseconds(200));
              },
              TaskTag(), &group);
        }
      },
      TaskTag(), &group);
  group.Wait();
  EXPECT_EQ(count.load(), 200);
  const WorkerPool::Stats stats = pool.stats();
  EXPECT_GT(stats.steals + stats.tasks_helped, 0u);
}

TEST(WorkerPoolTest, DestructorDrainsQueuedWork) {
  // Graceful shutdown: everything posted before destruction runs; the
  // destructor joins cleanly with no task dropped.
  std::atomic<int> count{0};
  {
    WorkerPool pool(2);
    TaskTag blocking;
    blocking.blocking = true;
    for (int i = 0; i < 50; ++i) {
      pool.Post([&count] { ++count; });
      pool.Post([&count] { ++count; }, blocking);
    }
  }
  EXPECT_EQ(count.load(), 100);
}

TEST(WorkerPoolTest, DestructorDrainsBlockingTasksThatPostCpuWork) {
  // Regression: core workers must not exit the shutdown drain while a
  // blocking task is still queued — when an expansion worker later runs
  // it, the CPU fan-out it posts needs live core workers or its group
  // wait parks forever inside the destructor. Also exercises expansion
  // threads spawned DURING the drain (blocking tasks posting more
  // blocking work), which the destructor must join from a snapshot loop.
  std::atomic<int> cpu_done{0};
  std::atomic<int> blocking_done{0};
  {
    WorkerPool pool(2);
    TaskTag blocking;
    blocking.blocking = true;
    for (int i = 0; i < 6; ++i) {
      pool.Post(
          [&pool, &cpu_done, &blocking_done, &blocking, i] {
            if (i < 3) {
              // Post more blocking work mid-drain.
              pool.Post([&blocking_done] { ++blocking_done; }, blocking);
            }
            TaskGroup fanout(&pool);
            for (int j = 0; j < 8; ++j) {
              pool.Post([&cpu_done] { ++cpu_done; }, TaskTag(), &fanout);
            }
            fanout.Wait();
            ++blocking_done;
          },
          blocking);
    }
    // Destroy immediately: some of the 6 tasks are still queued.
  }
  EXPECT_EQ(cpu_done.load(), 6 * 8);
  EXPECT_EQ(blocking_done.load(), 6 + 3);
}

TEST(WorkerPoolTest, InWorkerThreadIdentifiesCoreWorkersOnly) {
  WorkerPool pool(2);
  EXPECT_FALSE(pool.InWorkerThread());
  std::atomic<bool> cpu_inside{false};
  std::atomic<bool> blocking_inside{true};
  TaskGroup group(&pool);
  pool.Post([&pool, &cpu_inside] { cpu_inside = pool.InWorkerThread(); },
            TaskTag(), &group);
  TaskTag blocking;
  blocking.blocking = true;
  pool.Post(
      [&pool, &blocking_inside] { blocking_inside = pool.InWorkerThread(); },
      blocking, &group);
  group.Wait();
  EXPECT_TRUE(cpu_inside.load());
  EXPECT_FALSE(blocking_inside.load());  // expansion threads are not core
}

TEST(ExecContextTest, NullPoolRunsInline) {
  ExecContext ctx;
  int count = 0;
  ctx.Post([&count] { ++count; });
  ctx.Dispatch([&count] { ++count; });
  std::vector<size_t> seen;
  ctx.BulkExecute(4, [&seen](size_t i) { seen.push_back(i); });
  EXPECT_EQ(count, 2);
  EXPECT_EQ(seen, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(ExecContextTest, BulkExecuteCoversAllIndicesOnPool) {
  WorkerPool pool(3);
  ExecContext ctx(&pool, TaskTag());
  std::vector<std::atomic<int>> hits(64);
  ctx.BulkExecute(64, [&hits](size_t i) { ++hits[i]; });
  for (size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ExecContextTest, TagTravelsWithDerivedContexts) {
  WorkerPool pool(1);
  TaskTag tag;
  tag.deadline_micros = 12345;
  const ExecContext ctx(&pool, tag);
  const ExecContext derived = ctx.WithPredictedMicros(777);
  EXPECT_EQ(derived.tag().deadline_micros, 12345);
  EXPECT_EQ(derived.tag().predicted_micros, 777);
  EXPECT_EQ(ctx.tag().predicted_micros, 0);  // original unchanged
}

TEST(WorkerPoolStressTest, MixedLoadManyThreads) {
  // TSan-facing stress: external posters, nested posts, helping waits,
  // blocking tasks, and deadline tags all at once.
  WorkerPool pool(4);
  std::atomic<int> count{0};
  TaskTag blocking;
  blocking.blocking = true;
  std::vector<std::thread> posters;
  for (int t = 0; t < 4; ++t) {
    posters.emplace_back([&pool, &count, &blocking, t] {
      for (int i = 0; i < 25; ++i) {
        TaskGroup group(&pool);
        TaskTag tag;
        tag.deadline_micros = (t + i) % 3 == 0 ? 0 : 1000000 + i * 1000;
        pool.Post(
            [&pool, &count] {
              TaskGroup sub(&pool);
              for (int j = 0; j < 3; ++j) {
                pool.Post([&count] { ++count; }, TaskTag(), &sub);
              }
              sub.Wait();
            },
            tag, &group);
        pool.Post([&count] { ++count; }, blocking, &group);
        group.Wait();
      }
    });
  }
  for (std::thread& t : posters) t.join();
  EXPECT_EQ(count.load(), 4 * 25 * 4);
  EXPECT_TRUE(pool.WaitIdle().ok());
}

}  // namespace
}  // namespace qox
