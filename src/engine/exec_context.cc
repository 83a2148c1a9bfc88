#include "engine/exec_context.h"

namespace qox {

void ExecContext::Post(std::function<void()> fn, TaskGroup* group,
                       bool blocking) const {
  if (pool_ == nullptr) {
    fn();
    if (group != nullptr) {
      // Inline fallback: the task is already complete; the group must still
      // observe a balanced Add/Finish pair.
      group->Add();
      group->Finish();
    }
    return;
  }
  TaskTag tag = tag_;
  tag.blocking = blocking;
  pool_->Post(std::move(fn), tag, group);
}

void ExecContext::BulkExecute(size_t n,
                              const std::function<void(size_t)>& fn) const {
  if (n == 0) return;
  if (pool_ == nullptr) {
    for (size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  TaskTag tag = tag_;
  tag.blocking = false;
  TaskGroup group(pool_);
  for (size_t i = 0; i < n; ++i) {
    pool_->Post([&fn, i] { fn(i); }, tag, &group);
  }
  group.Wait();
}

}  // namespace qox
