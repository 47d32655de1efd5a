// The commit pipeline shared by the sweep executor and the fleet worker
// (DESIGN.md §9, §14): compute threads hand each finished cell to one
// writer thread, which runs the cell's durable commit — results store,
// journal append, lease release — while the compute thread simulates its
// next cell.
//
// Jobs run in FIFO order on the writer, so the commit sequence of one cell
// is never reordered against another's. Each submitting thread (a "lane")
// may have at most one job pending: submit() waits for the lane's previous
// job to finish before queueing the next. That is the whole backpressure
// rule — a slow disk stalls compute after one cell, results never pile up
// in memory, and the submitter regains exclusive use of whatever its last
// job touched once submit() or drain() returns.
//
// An optional tick runs on the writer between jobs, at most `tick_every`
// apart (the fleet's lease keeper renews its leases there). A job or a
// tick that throws terminates the process: both must report their
// failures themselves.
#pragma once

#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace ccas::sweep {

class CommitPipeline {
 public:
  using Job = std::function<void()>;

  explicit CommitPipeline(int lanes, std::function<void()> tick = {},
                          std::chrono::milliseconds tick_every =
                              std::chrono::milliseconds::zero());
  // Runs every queued job, then joins the writer.
  ~CommitPipeline();
  CommitPipeline(const CommitPipeline&) = delete;
  CommitPipeline& operator=(const CommitPipeline&) = delete;

  // Queues `job` for `lane` once the lane's previous job has finished.
  void submit(int lane, Job job);
  // Waits until `lane` has no job pending.
  void drain(int lane);

 private:
  void writer_loop();

  std::function<void()> tick_;
  std::chrono::milliseconds tick_every_;
  std::mutex mu_;
  std::condition_variable work_cv_;  // writer: a job arrived, or closing
  std::condition_variable done_cv_;  // submitters: a lane went idle
  std::deque<std::pair<int, Job>> queue_;
  std::vector<bool> pending_;  // per lane: a job queued or running
  bool closing_ = false;
  std::thread writer_;
};

}  // namespace ccas::sweep
