// The discrete-event scheduler driving every experiment.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>

#include "common/types.h"
#include "sim/event_queue.h"
#include "sim/packet.h"

namespace orbit::sim {

// Thrown out of Step()/RunUntil() when the calling thread's wall-clock
// deadline (set by the experiment harness for per-point timeouts) expires.
// The simulation cannot be resumed after this; the harness records the
// point as failed and moves on.
class DeadlineExceeded : public std::runtime_error {
 public:
  DeadlineExceeded() : std::runtime_error("simulation wall-clock deadline exceeded") {}
};

// Arms a wall-clock budget for simulations run on the *calling thread*
// (thread-local, so parallel harness workers time out independently).
// seconds <= 0 clears the deadline. The check runs every few thousand
// events, so enforcement is approximate but cheap — and a disarmed
// deadline costs one thread-local load per checked batch.
void SetThreadDeadline(double seconds_from_now);
void ClearThreadDeadline();

// RAII guard used by the harness around one experiment point.
class ScopedThreadDeadline {
 public:
  explicit ScopedThreadDeadline(double seconds_from_now) {
    SetThreadDeadline(seconds_from_now);
  }
  ~ScopedThreadDeadline() { ClearThreadDeadline(); }
  ScopedThreadDeadline(const ScopedThreadDeadline&) = delete;
  ScopedThreadDeadline& operator=(const ScopedThreadDeadline&) = delete;
};

class Simulator {
 public:
  SimTime now() const { return now_; }

  // A FIFO lane for a source whose pushes come in time order (see
  // EventQueue). Naming it on a push is only a hint: it never changes the
  // order events fire in.
  LaneId NewLane() { return queue_.NewLane(); }

  // Fires `timer->OnTimer(arg)` at absolute time t (>= now), or after a
  // non-negative delay. Zero allocation: periodic ticks, per-request
  // deadlines, service completions and fault scripts all ride these.
  void AtTimer(SimTime t, TimerHandler* timer, uint64_t arg = 0,
               LaneId lane = kNoLane);
  void AfterTimer(SimTime delay, TimerHandler* timer, uint64_t arg = 0,
                  LaneId lane = kNoLane);
  // Fast-path packet delivery event.
  void Deliver(SimTime t, Node* node, int port, PacketPtr pkt,
               LaneId lane = kNoLane);

  // Executes the next event; returns false when the queue is empty.
  bool Step();
  // Runs events until simulated time reaches `t` (events at exactly t run).
  void RunUntil(SimTime t);
  // Runs until the event queue drains.
  void RunToCompletion();

  uint64_t events_processed() const { return events_processed_; }
  size_t pending_events() const { return queue_.size(); }
  // Packets sitting in undelivered Deliver events — the verification
  // layer's packet-conservation check counts these as legitimately live.
  size_t pending_deliveries() const { return queue_.pending_deliveries(); }

  // This simulator's packet pool. Constructing a Simulator installs the
  // pool as the calling thread's current pool (NewPacket/ClonePacket draw
  // from it); destruction restores the previous one. The pool outlives the
  // event queue, so packets still sitting in undelivered events are
  // reclaimed with everything else at scope exit.
  PacketPool& packet_pool() { return pool_; }

 private:
  void CheckDeadline() const;

  // Declaration order is destruction order in reverse: the queue (holding
  // PacketPtrs) must die before the pool that owns their storage.
  PacketPool pool_;
  PacketPool::ScopedInstall pool_install_{&pool_};
  SimTime now_ = 0;
  uint64_t events_processed_ = 0;
  EventQueue queue_;
};

// A self-rearming periodic timer: wraps the callback in one allocation for
// the whole run instead of one std::function per firing. Construct, then
// Start() arms the first fire at now + period.
class PeriodicTask : public TimerHandler {
 public:
  PeriodicTask(Simulator* sim, SimTime period, std::function<void()> fn)
      : sim_(sim), period_(period), fn_(std::move(fn)) {}

  void Start() { sim_->AfterTimer(period_, this); }
  void OnTimer(uint64_t /*arg*/) override {
    fn_();
    sim_->AfterTimer(period_, this);
  }

 private:
  Simulator* sim_;
  SimTime period_;
  std::function<void()> fn_;
};

}  // namespace orbit::sim
