#include "spans.h"

#include <cstdio>

namespace perfbench {

int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

int SpanRecorder::open(std::string name, int parent) {
  const int64_t start = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.name = std::move(name);
  s.parent = parent;
  s.run = parent == kNoParent ? next_run_++ : spans_[static_cast<size_t>(parent)].run;
  s.start_ns = start;
  spans_.push_back(std::move(s));
  return static_cast<int>(spans_.size() - 1);
}

void SpanRecorder::close(int id) {
  const int64_t end = now_ns();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(id)].end_ns = end;
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string SpanRecorder::to_json() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"spans\": [";
  char buf[160];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Span names are benchmark-chosen identifiers: no escaping needed.
    std::snprintf(buf, sizeof(buf),
                  "%s\n  {\"id\": %zu, \"parent\": %d, \"run\": %d, \"name\": \"",
                  i == 0 ? "" : ",", i, s.parent, s.run);
    out += buf;
    out += s.name;
    std::snprintf(buf, sizeof(buf), "\", \"start_ns\": %lld, \"end_ns\": %lld}",
                  static_cast<long long>(s.start_ns),
                  static_cast<long long>(s.end_ns));
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

}  // namespace perfbench
