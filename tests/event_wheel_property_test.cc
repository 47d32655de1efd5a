// Property test: the timing-wheel EventQueue against a plain binary-heap
// reference, driven with the same randomized push/pop sequences. Dispatch
// order must be identical event-for-event — including FIFO ties at equal
// timestamps and far-future events that cross the wheels' ~68.7 s horizon
// into the overflow tier. The golden traces prove equivalence for the
// configurations they cover; this proves it for adversarial schedules
// (dense ties, horizon-straddling mixes, pop-until-empty interleavings)
// no experiment happens to generate.
#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <vector>

#include "src/util/rng.h"

namespace ccas {
namespace {

class NullHandler : public EventHandler {
 public:
  void on_event(uint32_t, uint64_t) override {}
};

// The old implementation, verbatim in spirit: one std::priority_queue over
// (time, seq) with a monotone sequence counter.
class ReferenceHeap {
 public:
  void push(Time at, uint32_t tag, uint64_t arg) {
    heap_.push(Event{at, next_seq_++, nullptr, arg, tag});
  }
  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] size_t size() const { return heap_.size(); }
  Event pop() {
    Event e = heap_.top();
    heap_.pop();
    return e;
  }

 private:
  std::priority_queue<Event, std::vector<Event>, EventAfter> heap_;
  uint64_t next_seq_ = 0;
};

void expect_same_event(const Event& a, const Event& b, uint64_t step) {
  ASSERT_EQ(a.at.ns(), b.at.ns()) << "step " << step;
  ASSERT_EQ(a.seq, b.seq) << "step " << step;
  ASSERT_EQ(a.tag, b.tag) << "step " << step;
  ASSERT_EQ(a.arg, b.arg) << "step " << step;
}

// Drives both queues with an identical random schedule. `now` tracks the
// last popped time: pushes are always at or after it, mirroring the
// simulator's no-scheduling-into-the-past rule the wheel cursor relies on.
void run_random_schedule(uint64_t seed) {
  Rng rng(seed);
  NullHandler handler;
  EventQueue wheel;
  ReferenceHeap heap;
  uint64_t now_ns = 0;
  uint64_t op_count = 0;

  auto push_at = [&](uint64_t at_ns) {
    wheel.push(Time::nanos(static_cast<int64_t>(at_ns)), &handler,
               static_cast<uint32_t>(op_count % 7), op_count);
    heap.push(Time::nanos(static_cast<int64_t>(at_ns)),
              static_cast<uint32_t>(op_count % 7), op_count);
    ++op_count;
  };
  auto pop_both = [&](uint64_t step) {
    ASSERT_EQ(wheel.empty(), heap.empty()) << "step " << step;
    if (wheel.empty()) return;
    const Event a = wheel.pop();
    const Event b = heap.pop();
    expect_same_event(a, b, step);
    now_ns = static_cast<uint64_t>(a.at.ns());
  };

  for (uint64_t step = 0; step < 20000; ++step) {
    const uint64_t op = rng.next_u64() % 100;
    if (op < 55) {
      // Push at a horizon chosen to exercise every tier: the current due
      // slot, each wheel level, and the overflow heap.
      const uint64_t tier = rng.next_u64() % 6;
      uint64_t delta = 0;
      switch (tier) {
        case 0: delta = rng.next_u64() % (1u << 12); break;          // due slot
        case 1: delta = rng.next_u64() % (1u << 20); break;          // level 0
        case 2: delta = rng.next_u64() % (1u << 28); break;          // level 1
        case 3: delta = rng.next_u64() % (uint64_t{1} << 36); break; // level 2
        case 4: delta = rng.next_u64() % (uint64_t{1} << 40); break; // overflow
        default: delta = 0; break;                                   // tie at now
      }
      push_at(now_ns + delta);
      // Frequently add an exact-tie duplicate: FIFO order among equal
      // timestamps is the subtle half of the ordering contract.
      if (rng.next_u64() % 3 == 0) push_at(now_ns + delta);
    } else if (op < 90) {
      pop_both(step);
    } else {
      // Pop a run, re-pushing around the new now: the interleaving that
      // forces cascades and overflow drains mid-schedule.
      const uint64_t burst = 1 + rng.next_u64() % 8;
      for (uint64_t i = 0; i < burst; ++i) {
        pop_both(step);
        if (rng.next_u64() % 2 == 0) push_at(now_ns + rng.next_u64() % 5000);
      }
    }
    ASSERT_EQ(wheel.size(), heap.size()) << "step " << step;
  }
  // Drain: the full remaining order must match.
  uint64_t step = 20000;
  while (!heap.empty()) {
    pop_both(step++);
  }
  EXPECT_TRUE(wheel.empty());
}

TEST(EventWheelProperty, MatchesBinaryHeapAcrossSeeds) {
  for (const uint64_t seed : {1ULL, 7ULL, 42ULL, 0xabcdefULL, 0x5eedULL}) {
    SCOPED_TRACE(seed);
    run_random_schedule(seed);
  }
}

TEST(EventWheelProperty, FarFutureOverflowKeepsOrder) {
  // Directed: events far beyond the wheels' horizon (> 2^36 ns ~ 68.7 s),
  // interleaved with near ones, must still come out in (time, seq) order.
  NullHandler handler;
  EventQueue wheel;
  ReferenceHeap heap;
  const int64_t times_ns[] = {
      100,  ((int64_t{1} << 36) + 5),  50,  (int64_t{3} << 36),  4096,
      ((int64_t{1} << 36) + 5),  // tie with an earlier overflow push
      (int64_t{2} << 40),  1,  ((int64_t{1} << 36) - 1),
  };
  uint64_t op = 0;
  for (const int64_t t : times_ns) {
    wheel.push(Time::nanos(t), &handler, 0, op);
    heap.push(Time::nanos(t), 0, op);
    ++op;
  }
  uint64_t step = 0;
  while (!heap.empty()) {
    const Event a = wheel.pop();
    const Event b = heap.pop();
    expect_same_event(a, b, step++);
  }
  EXPECT_TRUE(wheel.empty());
}

TEST(EventWheelProperty, PushBehindCursorAfterRunUntilStyleAdvance) {
  // run_until(deadline) advances the simulator clock past top() without
  // popping; a later push may then land "behind" the settled cursor. The
  // queue must still dispatch it in correct order relative to what is
  // pending.
  NullHandler handler;
  EventQueue wheel;
  ReferenceHeap heap;
  wheel.push(Time::nanos(1 << 20), &handler, 0, 0);  // settles cursor forward
  heap.push(Time::nanos(1 << 20), 0, 0);
  (void)wheel.top();  // forces the wheel to settle onto the 1<<20 slot
  // Now push earlier than the settled slot start but >= any popped time.
  wheel.push(Time::nanos((1 << 20) - 100), &handler, 0, 1);
  heap.push(Time::nanos((1 << 20) - 100), 0, 1);
  const Event a1 = wheel.pop();
  const Event b1 = heap.pop();
  expect_same_event(a1, b1, 0);
  const Event a2 = wheel.pop();
  const Event b2 = heap.pop();
  expect_same_event(a2, b2, 1);
  EXPECT_TRUE(wheel.empty());
}

}  // namespace
}  // namespace ccas
