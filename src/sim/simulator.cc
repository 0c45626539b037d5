#include "sim/simulator.h"

#include <chrono>

#include "common/check.h"
#include "sim/node.h"

namespace orbit::sim {

namespace {

using Clock = std::chrono::steady_clock;

// 0 = disarmed. Thread-local so concurrent harness workers each enforce
// their own per-point budget without synchronization.
thread_local Clock::time_point g_deadline{};

// Checking the clock on every event would be measurable; every 8192 events
// keeps the overhead in the noise while still bounding overrun to
// milliseconds of simulation work.
constexpr uint64_t kDeadlineCheckMask = 8191;

}  // namespace

void SetThreadDeadline(double seconds_from_now) {
  if (seconds_from_now <= 0) {
    ClearThreadDeadline();
    return;
  }
  g_deadline = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds_from_now));
}

void ClearThreadDeadline() { g_deadline = Clock::time_point{}; }

void Simulator::CheckDeadline() const {
  if (g_deadline != Clock::time_point{} && Clock::now() > g_deadline)
    throw DeadlineExceeded();
}

void Simulator::AtTimer(SimTime t, TimerHandler* timer, uint64_t arg,
                        LaneId lane) {
  ORBIT_CHECK_MSG(t >= now_, "scheduling into the past: " << t << " < " << now_);
  ORBIT_CHECK(timer != nullptr);
  queue_.PushTimer(t, timer, arg, lane);
}

void Simulator::AfterTimer(SimTime delay, TimerHandler* timer, uint64_t arg,
                           LaneId lane) {
  ORBIT_CHECK(delay >= 0);
  ORBIT_CHECK(timer != nullptr);
  queue_.PushTimer(now_ + delay, timer, arg, lane);
}

void Simulator::Deliver(SimTime t, Node* node, int port, PacketPtr pkt,
                        LaneId lane) {
  ORBIT_CHECK(t >= now_);
  queue_.PushDelivery(t, node, port, std::move(pkt), lane);
}

bool Simulator::Step() {
  if (queue_.empty()) return false;
  if ((events_processed_ & kDeadlineCheckMask) == 0) CheckDeadline();
  Event e = queue_.Pop();
  now_ = e.time;
  ++events_processed_;
  if (e.delivery) {
    e.node->OnPacket(std::move(e.pkt), e.port);
  } else {
    e.timer->OnTimer(e.arg);
  }
  return true;
}

void Simulator::RunUntil(SimTime t) {
  while (!queue_.empty() && queue_.next_time() <= t) Step();
  if (now_ < t) now_ = t;
}

void Simulator::RunToCompletion() {
  while (Step()) {
  }
}

}  // namespace orbit::sim
