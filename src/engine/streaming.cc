#include "engine/streaming.h"

#include "common/clock.h"

namespace qox {
namespace {

/// Message prefix marking a status as a poison echo (see PoisonEcho).
constexpr char kPoisonEchoPrefix[] = "dataflow poisoned by: ";

}  // namespace

Status StageSet::PoisonEcho(const Status& cause) {
  if (IsPoisonEcho(cause)) return cause;
  return Status::Cancelled(kPoisonEchoPrefix + cause.ToString());
}

bool StageSet::IsPoisonEcho(const Status& status) {
  return status.code() == StatusCode::kCancelled &&
         status.message().rfind(kPoisonEchoPrefix, 0) == 0;
}

StageSet::StageSet(const ExecContext& ctx, bool staged)
    : ctx_(ctx), staged_(staged), group_(ctx.pool()) {}

StageSet::~StageSet() {
  if (joined_) return;
  // Destroyed without Join (likely unwinding after an error): poison so no
  // stage can block forever, then wait out the stage tasks.
  FailAll(Status::Cancelled("StageSet destroyed before Join"));
  group_.Wait();
}

BatchChannelPtr StageSet::MakeChannel() {
  auto channel = std::make_shared<BatchChannel>(
      staged_ ? static_cast<size_t>(-1) : kChannelCapacity);
  std::lock_guard<std::mutex> lock(mu_);
  if (!first_failure_.ok()) channel->Poison(PoisonEcho(first_failure_));
  channels_.push_back(channel);
  return channel;
}

void StageSet::Spawn(std::string name, Body body) {
  std::vector<Stage> group;
  group.push_back({std::move(name), std::move(body)});
  SpawnGroup(std::move(group));
}

void StageSet::SpawnGroup(std::vector<Stage> group) {
  std::vector<size_t> slots;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A staged dataflow stops at its first failure: nothing downstream of
    // it runs.
    if (staged_ && !first_failure_.ok()) return;
    for (Stage& stage : group) {
      slots.push_back(outcomes_.size());
      outcomes_.emplace_back();
      outcomes_.back().stats.name = std::move(stage.name);
    }
  }
  const int64_t posted_micros = NowMicros();
  if (!staged_) {
    for (size_t i = 0; i < group.size(); ++i) {
      ctx_.Post(
          [this, slot = slots[i], posted_micros,
           body = std::move(group[i].body)] {
            RunStage(slot, posted_micros, body);
          },
          &group_, /*blocking=*/true);
    }
    return;
  }
  if (group.size() == 1) {
    RunStage(slots[0], posted_micros, group[0].body);
    return;
  }
  ctx_.BulkExecute(group.size(), [&](size_t i) {
    RunStage(slots[i], posted_micros, group[i].body);
  });
}

void StageSet::RunStage(size_t slot, int64_t posted_micros,
                        const Body& body) {
  StageStats local;
  {
    std::lock_guard<std::mutex> lock(mu_);
    local.name = outcomes_[slot].stats.name;
  }
  // Under a shared pool a stage may sit queued behind other flows' work
  // before a worker picks it up; that wait belongs to scheduling, not to
  // the stage's busy time.
  local.queue_wait_us = NowMicros() - posted_micros;
  StopWatch watch;
  Status status = body(&local);
  const int64_t wall = watch.ElapsedMicros();
  local.busy_micros = wall - local.stall_micros - local.backpressure_micros;
  if (local.busy_micros < 0) local.busy_micros = 0;
  if (ctx_.tag().deadline_micros > 0) {
    local.deadline_slack_us = ctx_.tag().deadline_micros - NowMicros();
  }
  bool primary = false;
  if (!status.ok()) {
    // A stage that failed on its own is primary; one that merely returned
    // the tagged poison it popped from a channel is an echo. The explicit
    // tag (not message comparison) keeps two independent failures with
    // identical messages both classified as primary.
    primary = !IsPoisonEcho(status);
    FailAll(status);
  }
  std::lock_guard<std::mutex> lock(mu_);
  outcomes_[slot].status = std::move(status);
  outcomes_[slot].stats = std::move(local);
  outcomes_[slot].primary = primary;
}

void StageSet::FailAll(const Status& status) {
  std::vector<BatchChannelPtr> channels;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (first_failure_.ok()) first_failure_ = status;
    channels = channels_;
  }
  // Channels carry the tagged echo, not the raw cause: stages unblocked by
  // the poison return a status recognizable as secondary.
  const Status echo = PoisonEcho(status);
  for (const BatchChannelPtr& channel : channels) channel->Poison(echo);
}

bool StageSet::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return !first_failure_.ok();
}

Status StageSet::Join(std::vector<StageStats>* stats) {
  group_.Wait();
  joined_ = true;
  std::lock_guard<std::mutex> lock(mu_);
  // Pick the winning status: injected failures first (the retry machinery
  // keys on them), then the first primary failure, then any failure.
  Status winner = Status::OK();
  bool winner_primary = false;
  for (const Outcome& outcome : outcomes_) {
    if (outcome.status.ok()) continue;
    if (outcome.status.code() == StatusCode::kInjectedFailure) {
      winner = outcome.status;
      break;
    }
    if (winner.ok() || (outcome.primary && !winner_primary)) {
      winner = outcome.status;
      winner_primary = outcome.primary;
    }
  }
  if (stats != nullptr) {
    for (Outcome& outcome : outcomes_) {
      stats->push_back(std::move(outcome.stats));
    }
  }
  return winner;
}

}  // namespace qox
