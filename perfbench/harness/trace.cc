#include "trace.h"

#include <fstream>
#include <functional>
#include <thread>

#include "common/clock.h"

namespace perfbench {

namespace {

thread_local uint64_t current_span = 0;

uint64_t ThreadId() {
  return std::hash<std::thread::id>()(std::this_thread::get_id()) % 100000;
}

}  // namespace

Tracer& Tracer::Get() {
  static Tracer tracer;
  return tracer;
}

void Tracer::Push(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(record));
}

void Tracer::Record(std::string name, int64_t start_us, int64_t end_us,
                    uint64_t op) {
  if (!enabled()) return;
  SpanRecord record;
  record.name = std::move(name);
  record.start_us = start_us;
  record.end_us = end_us;
  record.id = NextId();
  record.parent = current_span;
  record.op = op;
  record.tid = ThreadId();
  Push(std::move(record));
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

qox::Status Tracer::WriteChromeTrace(const std::string& path) const {
  const std::vector<SpanRecord> spans = Snapshot();
  std::ofstream out(path, std::ios::trunc);
  if (!out) return qox::Status::IoError("cannot write trace '" + path + "'");
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    out << (i == 0 ? "\n" : ",\n") << "{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
        << ",\"ts\":" << s.start_us << ",\"dur\":" << (s.end_us - s.start_us)
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"op\":" << s.op << "}}";
  }
  out << "\n]}\n";
  out.close();
  if (!out) return qox::Status::IoError("short write of trace '" + path + "'");
  return qox::Status::OK();
}

Span::Span(const char* name, uint64_t op) : name_(name) {
  Tracer& tracer = Tracer::Get();
  if (!tracer.enabled()) return;
  active_ = true;
  record_.id = tracer.NextId();
  record_.parent = current_span;
  record_.op = op;
  record_.tid = ThreadId();
  saved_parent_ = current_span;
  current_span = record_.id;
  record_.start_us = qox::NowMicros();
}

Span::~Span() {
  if (!active_) return;
  record_.end_us = qox::NowMicros();
  record_.name = name_;
  current_span = saved_parent_;
  Tracer::Get().Push(std::move(record_));
}

}  // namespace perfbench
