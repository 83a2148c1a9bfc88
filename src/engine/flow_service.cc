#include "engine/flow_service.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "common/clock.h"

namespace qox {

FlowService::FlowService(const FlowServiceConfig& config)
    : config_(config), pool_(std::max<size_t>(1, config.num_workers)) {}

FlowService::~FlowService() { Drain(); }

Result<uint64_t> FlowService::Submit(FlowSubmission submission) {
  const int64_t now = NowMicros();
  // Absolute deadline: an explicit absolute value wins; otherwise the
  // relative SLA budget starts counting at admission, not at dispatch —
  // time spent queued behind other flows eats the budget, which is what
  // makes queue policy matter.
  int64_t deadline = submission.config.sla.absolute_deadline_micros;
  if (deadline == 0 && submission.config.sla.deadline_micros > 0) {
    deadline = now + submission.config.sla.deadline_micros;
  }

  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.submitted;
  if (config_.admit_only_feasible && deadline > 0 &&
      submission.predicted_micros > 0) {
    // Projected finish under current load: the outstanding predicted work
    // plus this flow, spread across the pool's core workers. A coarse
    // M/G/k bound, but it is the cost model's own estimate — the same
    // numbers the QoX design phase optimized against.
    const int64_t workers =
        static_cast<int64_t>(std::max<size_t>(1, pool_.num_workers()));
    const int64_t projected_finish =
        now + (outstanding_predicted_ + submission.predicted_micros) / workers;
    if (projected_finish > deadline) {
      ++stats_.rejected;
      std::ostringstream msg;
      msg << "flow '" << submission.flow.id << "' SLA infeasible: projected "
          << "finish +" << (projected_finish - now) << "us exceeds deadline +"
          << (deadline - now) << "us under " << outstanding_predicted_
          << "us of outstanding predicted load";
      return Status::ResourceExhausted(msg.str());
    }
  }

  const uint64_t ticket = next_ticket_++;
  auto entry = std::make_unique<FlowEntry>();
  entry->submission = std::move(submission);
  entry->ticket = ticket;
  entry->submit_micros = now;
  entry->absolute_deadline_micros = deadline;
  outstanding_predicted_ += entry->submission.predicted_micros;
  flows_[ticket] = std::move(entry);
  ++stats_.admitted;
  ++live_;
  DispatchLocked();
  return ticket;
}

FlowService::FlowEntry* FlowService::NextPendingLocked() {
  FlowEntry* best = nullptr;
  for (auto& [ticket, entry] : flows_) {
    if (entry->state != FlowState::kPending) continue;
    if (best == nullptr) {
      best = entry.get();
      continue;
    }
    if (config_.policy == QueuePolicy::kEdf) {
      // Earliest deadline wins; no-deadline flows go last; the map's
      // ticket order breaks ties, so equal deadlines dispatch FIFO.
      const int64_t a = entry->absolute_deadline_micros == 0
                            ? INT64_MAX
                            : entry->absolute_deadline_micros;
      const int64_t b = best->absolute_deadline_micros == 0
                            ? INT64_MAX
                            : best->absolute_deadline_micros;
      if (a < b) best = entry.get();
    }
    // kFifo: the map iterates in ticket (submission) order; first pending
    // entry already wins.
  }
  return best;
}

void FlowService::DispatchLocked() {
  while (running_ < std::max<size_t>(1, config_.max_concurrent_flows)) {
    FlowEntry* entry = NextPendingLocked();
    if (entry == nullptr) return;
    entry->state = FlowState::kRunning;
    entry->queue_wait_micros = NowMicros() - entry->submit_micros;
    ++running_;
    TaskTag tag;
    tag.deadline_micros = entry->absolute_deadline_micros;
    tag.blocking = true;  // drivers park in Executor::Run for the flow's life
    pool_.Post([this, entry] { RunDriver(entry); }, tag);
  }
}

void FlowService::RunDriver(FlowEntry* entry) {
  // The driver owns the entry's submission fields until it flips the state
  // to kDone under mu_; Wait() only touches the entry after that flip.
  ExecutionConfig config = entry->submission.config;
  config.worker_pool = &pool_;
  config.sla.absolute_deadline_micros = entry->absolute_deadline_micros;

  Result<RunMetrics> result = Executor::Run(entry->submission.flow, config);
  const int64_t finish = NowMicros();
  if (result.ok()) {
    result.value().queue_wait_micros = entry->queue_wait_micros;
  }

  std::lock_guard<std::mutex> lock(mu_);
  if (entry->absolute_deadline_micros > 0) {
    if (finish <= entry->absolute_deadline_micros) {
      ++stats_.deadline_hits;
    } else {
      ++stats_.deadline_misses;
    }
  }
  outstanding_predicted_ -= entry->submission.predicted_micros;
  entry->result = std::move(result);
  entry->state = FlowState::kDone;
  ++stats_.completed;
  --running_;
  --live_;
  DispatchLocked();
  done_cv_.notify_all();
}

Result<RunMetrics> FlowService::Wait(uint64_t ticket) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = flows_.find(ticket);
  if (it == flows_.end()) {
    return Status::NotFound("unknown or already-collected flow ticket");
  }
  FlowEntry* entry = it->second.get();
  done_cv_.wait(lock, [entry] { return entry->state == FlowState::kDone; });
  Result<RunMetrics> result = std::move(entry->result);
  flows_.erase(it);
  return result;
}

void FlowService::Drain() {
  std::unique_lock<std::mutex> lock(mu_);
  done_cv_.wait(lock, [this] { return live_ == 0; });
}

FlowService::Stats FlowService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace qox
