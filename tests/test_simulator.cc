#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <functional>
#include <utility>
#include <vector>

#include "common/check.h"

namespace orbit::sim {
namespace {

// Records every firing as (argument, time); `then` runs after the record,
// so a case can arm follow-up timers from inside one.
struct Recorder : TimerHandler {
  explicit Recorder(Simulator* s) : sim(s) {}
  void OnTimer(uint64_t arg) override {
    fired.emplace_back(arg, sim->now());
    if (then) then(arg);
  }
  std::vector<uint64_t> args() const {
    std::vector<uint64_t> out;
    for (const auto& [arg, at] : fired) out.push_back(arg);
    return out;
  }
  Simulator* sim;
  std::vector<std::pair<uint64_t, SimTime>> fired;
  std::function<void(uint64_t)> then;
};

using Fired = std::vector<std::pair<uint64_t, SimTime>>;

TEST(Simulator, ClockAdvancesWithEvents) {
  Simulator sim;
  Recorder rec(&sim);
  EXPECT_EQ(sim.now(), 0);
  sim.AtTimer(100, &rec, 7);
  sim.RunToCompletion();
  EXPECT_EQ(rec.fired, (Fired{{7, 100}}));
  EXPECT_EQ(sim.now(), 100);
}

TEST(Simulator, AfterSchedulesRelative) {
  Simulator sim;
  Recorder rec(&sim);
  rec.then = [&](uint64_t arg) {
    if (arg == 1) sim.AfterTimer(25, &rec, 2);
  };
  sim.AtTimer(50, &rec, 1);
  sim.RunToCompletion();
  EXPECT_EQ(rec.fired, (Fired{{1, 50}, {2, 75}}));
}

TEST(Simulator, RunUntilStopsAtBoundary) {
  Simulator sim;
  Recorder rec(&sim);
  sim.AtTimer(10, &rec, 1);
  sim.AtTimer(20, &rec, 2);
  sim.AtTimer(30, &rec, 3);
  sim.RunUntil(20);
  EXPECT_EQ(rec.args(), (std::vector<uint64_t>{1, 2}));  // events at exactly t run
  EXPECT_EQ(sim.now(), 20);
  sim.RunUntil(100);
  EXPECT_EQ(rec.args(), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(sim.now(), 100);  // clock advances even past last event
}

TEST(Simulator, RejectsSchedulingIntoThePast) {
  Simulator sim;
  Recorder rec(&sim);
  sim.AtTimer(100, &rec);
  sim.RunToCompletion();
  EXPECT_THROW(sim.AtTimer(50, &rec), CheckFailure);
  EXPECT_THROW(sim.AfterTimer(-1, &rec), CheckFailure);
}

TEST(Simulator, CountsEvents) {
  Simulator sim;
  Recorder rec(&sim);
  for (int i = 0; i < 10; ++i) sim.AtTimer(i, &rec, static_cast<uint64_t>(i));
  sim.RunToCompletion();
  EXPECT_EQ(sim.events_processed(), 10u);
}

TEST(Simulator, CascadedEventsRunSameTimestamp) {
  // An event scheduling another event at the same instant runs it before
  // later-timestamped events.
  Simulator sim;
  Recorder rec(&sim);
  rec.then = [&](uint64_t arg) {
    if (arg == 1) sim.AfterTimer(0, &rec, 2);
  };
  sim.AtTimer(10, &rec, 1);
  sim.AtTimer(11, &rec, 3);
  sim.RunToCompletion();
  EXPECT_EQ(rec.fired, (Fired{{1, 10}, {2, 10}, {3, 11}}));
}

TEST(Simulator, StepReturnsFalseWhenDrained) {
  Simulator sim;
  Recorder rec(&sim);
  EXPECT_FALSE(sim.Step());
  sim.AtTimer(1, &rec);
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

}  // namespace
}  // namespace orbit::sim
