// In-memory span recorder for the benchmark's traced run.
//
// A span is one timed interval around a call the benchmark makes into a
// layer of the simulator (or around one batch of a per-layer probe). Spans
// nest through an explicit parent id; the spans of one root share its run
// id. Nothing is written while spans are recorded: to_json() renders the
// whole set once the run is over, so file I/O stays out of every timed
// interval. Thread-safe, because fleet workers record from their own
// threads.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  static constexpr int kNoParent = -1;

  // Opens a span and returns its id. A span without a parent is a root
  // and starts a new run id.
  int open(std::string name, int parent = kNoParent);
  void close(int id);

  // {"spans": [{"id", "parent", "run", "name", "start_ns", "end_ns"}]},
  // times in nanoseconds since the recorder was created.
  [[nodiscard]] std::string to_json() const;
  [[nodiscard]] size_t size() const;

 private:
  struct Span {
    std::string name;
    int parent = kNoParent;
    int run = 0;
    int64_t start_ns = 0;
    int64_t end_ns = -1;
  };
  [[nodiscard]] int64_t now_ns() const;

  const std::chrono::steady_clock::time_point epoch_ =
      std::chrono::steady_clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  int next_run_ = 0;         // guarded by mu_
};

// Closes its span on scope exit. A null recorder makes it a no-op, which is
// how the untraced run calls the same code without recording anything.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, std::string name,
             int parent = SpanRecorder::kNoParent)
      : rec_(rec), id_(rec != nullptr ? rec->open(std::move(name), parent)
                                      : SpanRecorder::kNoParent) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] int id() const { return id_; }

 private:
  SpanRecorder* rec_;
  int id_;
};

}  // namespace perfbench
