// Channel<T>: a bounded multi-producer multi-consumer queue — the edge of
// the streaming dataflow.
//
// Streaming execution (DESIGN.md §5) runs extract, transform segments, and
// load as concurrently running stages connected by channels of RowBatches.
// The bounded capacity provides backpressure: a producer that outruns its
// consumer blocks on Push until space frees, so no stage ever materializes
// more than `capacity` batches ahead of its consumer. Staged (phased)
// execution uses the same edges unbounded: each stage runs to completion
// before its consumer starts.
//
// Lifecycle:
//   * Close()   — graceful end-of-stream. Pending items drain; subsequent
//                 Pop() returns nullopt once the queue is empty; subsequent
//                 Push() fails with kFailedPrecondition.
//   * Poison(s) — error propagation / cooperative cancellation. Pending
//                 items are dropped and every blocked or future Push/Pop
//                 returns `s` immediately. The first poison wins; later
//                 calls are no-ops. Closing after poisoning is a no-op.
//
// Both operations wake all blocked parties, so a stage that fails can
// unwind the whole dataflow by poisoning every channel it touches: blocked
// neighbors wake, observe the poison status, return it, and their runner
// poisons the channels *they* touch in turn.
//
// Push/Pop optionally report how long the call was blocked (backpressure
// wait on Push, starvation stall on Pop); the streaming executor charges
// these to per-stage RunMetrics. Aggregate statistics (items pushed,
// high-water mark, cumulative waits) are kept internally.

#ifndef QOX_ENGINE_CHANNEL_H_
#define QOX_ENGINE_CHANNEL_H_

#include <algorithm>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

#include "common/clock.h"
#include "common/status.h"

namespace qox {

/// Aggregate accounting of one channel's lifetime.
struct ChannelStats {
  size_t items_pushed = 0;
  size_t high_water = 0;           ///< max queue depth ever observed
  int64_t push_wait_micros = 0;    ///< cumulative backpressure blocking
  int64_t pop_wait_micros = 0;     ///< cumulative consumer starvation
};

template <typename T>
class Channel {
 public:
  /// A capacity of 0 is promoted to 1 (a rendezvous-ish minimum; truly
  /// unbuffered hand-off is not needed by the executor and would deadlock
  /// single-threaded tests).
  explicit Channel(size_t capacity)
      : capacity_(std::max<size_t>(1, capacity)) {}

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Blocks while the channel is full. Fails with the poison status if
  /// poisoned, or kFailedPrecondition if closed. `wait_micros` (optional)
  /// receives the time this call spent blocked.
  Status Push(T item, int64_t* wait_micros = nullptr) {
    std::unique_lock<std::mutex> lock(mu_);
    if (queue_.size() >= capacity_ && !closed_ && poison_.ok()) {
      const StopWatch timer;
      not_full_.wait(lock, [this] {
        return queue_.size() < capacity_ || closed_ || !poison_.ok();
      });
      const int64_t waited = timer.ElapsedMicros();
      stats_.push_wait_micros += waited;
      if (wait_micros != nullptr) *wait_micros += waited;
    }
    if (!poison_.ok()) return poison_;
    if (closed_) {
      return Status::FailedPrecondition("push on closed channel");
    }
    queue_.push_back(std::move(item));
    ++stats_.items_pushed;
    stats_.high_water = std::max(stats_.high_water, queue_.size());
    not_empty_.notify_one();
    return Status::OK();
  }

  /// Blocks while the channel is empty and open. Returns the next item;
  /// nullopt once the channel is closed and drained; the poison status if
  /// poisoned. `wait_micros` (optional) receives the time spent blocked.
  Result<std::optional<T>> Pop(int64_t* wait_micros = nullptr) {
    std::unique_lock<std::mutex> lock(mu_);
    if (queue_.empty() && !closed_ && poison_.ok()) {
      const StopWatch timer;
      not_empty_.wait(lock, [this] {
        return !queue_.empty() || closed_ || !poison_.ok();
      });
      const int64_t waited = timer.ElapsedMicros();
      stats_.pop_wait_micros += waited;
      if (wait_micros != nullptr) *wait_micros += waited;
    }
    if (!poison_.ok()) return poison_;
    if (queue_.empty()) return std::optional<T>();  // closed and drained
    std::optional<T> item(std::move(queue_.front()));
    queue_.pop_front();
    not_full_.notify_one();
    return item;
  }

  /// Graceful end-of-stream: no further pushes; pops drain what remains.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  /// Error propagation: drops pending items and fails every blocked or
  /// future Push/Pop with `status`. First poison wins; OK is ignored.
  void Poison(Status status) {
    if (status.ok()) return;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (!poison_.ok()) return;  // first poison wins
      poison_ = std::move(status);
      queue_.clear();
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  /// The poison status, or OK when healthy.
  Status poison() const {
    std::lock_guard<std::mutex> lock(mu_);
    return poison_;
  }

  size_t capacity() const { return capacity_; }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return queue_.size();
  }

  /// Sum of `weight(item)` over the items queued right now. Once the
  /// producer has finished and closed the channel, this is the weight of
  /// everything still to be popped (e.g. a staged stage's input rows).
  template <typename Weight>
  size_t QueuedWeight(Weight weight) const {
    std::lock_guard<std::mutex> lock(mu_);
    size_t total = 0;
    for (const T& item : queue_) total += weight(item);
    return total;
  }

  ChannelStats stats() const {
    std::lock_guard<std::mutex> lock(mu_);
    return stats_;
  }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::deque<T> queue_;
  bool closed_ = false;
  Status poison_ = Status::OK();
  ChannelStats stats_;
};

}  // namespace qox

#endif  // QOX_ENGINE_CHANNEL_H_
