// Engine ordering properties under randomized schedules: whatever order
// events are *inserted*, they must *execute* in (time, insertion-seq) order
// — the root of the whole simulator's determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "src/sim/engine.hpp"
#include "src/util/rng.hpp"

namespace faucets::sim {
namespace {

class EngineProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EngineProperties, ExecutionOrderIsTimeThenInsertion) {
  Rng rng{GetParam()};
  Engine engine;
  struct Record {
    double time;
    std::uint64_t seq;
  };
  std::vector<Record> executed;
  for (std::uint64_t i = 0; i < 500; ++i) {
    const double t = rng.uniform(0.0, 100.0);
    engine.schedule_at(t, [&executed, t, i] { executed.push_back({t, i}); });
  }
  engine.run();
  ASSERT_EQ(executed.size(), 500u);
  for (std::size_t i = 1; i < executed.size(); ++i) {
    const auto& a = executed[i - 1];
    const auto& b = executed[i];
    ASSERT_TRUE(a.time < b.time || (a.time == b.time && a.seq < b.seq))
        << "out of order at " << i;
  }
}

TEST_P(EngineProperties, CancellationNeverExecutesAndOthersAllDo) {
  Rng rng{GetParam() * 7 + 1};
  Engine engine;
  std::vector<int> fired(300, 0);
  std::vector<EventHandle> handles;
  handles.reserve(300);
  for (std::size_t i = 0; i < 300; ++i) {
    handles.push_back(engine.schedule_at(rng.uniform(0.0, 50.0),
                                         [&fired, i] { ++fired[i]; }));
  }
  std::vector<bool> cancelled(300, false);
  for (std::size_t i = 0; i < 300; ++i) {
    if (rng.bernoulli(0.3)) {
      handles[i].cancel();
      cancelled[i] = true;
    }
  }
  engine.run();
  for (std::size_t i = 0; i < 300; ++i) {
    EXPECT_EQ(fired[i], cancelled[i] ? 0 : 1) << "event " << i;
  }
}

TEST_P(EngineProperties, TimeNeverGoesBackward) {
  Rng rng{GetParam() * 13 + 5};
  Engine engine;
  double last_seen = -1.0;
  bool monotone = true;
  // Nested scheduling from inside events, including "now" events.
  std::function<void(int)> spawn = [&](int depth) {
    if (engine.now() < last_seen) monotone = false;
    last_seen = engine.now();
    if (depth <= 0) return;
    engine.schedule_after(rng.uniform(0.0, 5.0), [&, depth] { spawn(depth - 1); });
    engine.schedule_after(0.0, [&] {
      if (engine.now() < last_seen) monotone = false;
    });
  };
  engine.schedule_at(0.0, [&] { spawn(40); });
  engine.run();
  EXPECT_TRUE(monotone);
}

TEST_P(EngineProperties, InterleavedScheduleCancelRunStaysOrdered) {
  // Random mix of schedule / cancel / step while the simulation advances:
  // execution must still follow (time, seq), cancelled events never fire,
  // and the slot pool must stay bounded by the peak number of live events.
  Rng rng{GetParam() * 31 + 7};
  Engine engine;
  struct Live {
    EventHandle handle;
    std::uint64_t tag;
  };
  std::vector<Live> live;
  std::vector<std::pair<double, std::uint64_t>> executed;
  std::vector<bool> cancelled(4000, false);
  std::vector<int> fire_count(4000, 0);
  std::uint64_t next_tag = 0;
  std::size_t peak_live = 0;

  for (int round = 0; round < 2000; ++round) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.5 && next_tag < 4000) {
      const std::uint64_t tag = next_tag++;
      const double t = engine.now() + rng.uniform(0.0, 10.0);
      auto h = engine.schedule_at(
          t, [&executed, &fire_count, &engine, tag] {
            executed.emplace_back(engine.now(), tag);
            ++fire_count[tag];
          });
      live.push_back({h, tag});
    } else if (roll < 0.7 && !live.empty()) {
      const auto idx = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(live.size()) - 1));
      if (live[idx].handle.active()) {
        cancelled[live[idx].tag] = true;
        live[idx].handle.cancel();
        EXPECT_FALSE(live[idx].handle.active());
      }
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(idx));
    } else {
      (void)engine.step();
    }
    peak_live = std::max(peak_live, engine.pending());
  }
  engine.run();

  // Every scheduled event fired exactly once unless cancelled.
  for (std::uint64_t tag = 0; tag < next_tag; ++tag) {
    EXPECT_EQ(fire_count[tag], cancelled[tag] ? 0 : 1) << "tag " << tag;
  }
  // Execution times are monotone (ties allowed; seq order is covered by the
  // dedicated ordering test — interleaved scheduling makes tags non-monotone).
  for (std::size_t i = 1; i < executed.size(); ++i) {
    EXPECT_LE(executed[i - 1].first, executed[i].first);
  }
  // The pool recycles retired slots: it never grows past the peak number of
  // simultaneously pending events.
  EXPECT_LE(engine.pool_slots(), peak_live);
  EXPECT_TRUE(engine.empty());
}

TEST_P(EngineProperties, PoolReusesSlotsAcrossGenerations) {
  Engine engine;
  Rng rng{GetParam() * 101 + 3};
  // Repeatedly schedule-and-drain; the pool must plateau at the batch size.
  for (int wave = 0; wave < 50; ++wave) {
    std::vector<EventHandle> handles;
    for (int i = 0; i < 20; ++i) {
      handles.push_back(
          engine.schedule_after(rng.uniform(0.0, 1.0), [] {}));
    }
    for (auto& h : handles) {
      if (rng.bernoulli(0.5)) h.cancel();
    }
    engine.run();
    // Stale handles from this wave are inert forever.
    for (auto& h : handles) {
      EXPECT_FALSE(h.active());
      h.cancel();
    }
  }
  EXPECT_LE(engine.pool_slots(), 20u);
}

// The engine against a reference model that keeps every pending event in one
// list and fires the least (time, scheduling order). The mix covers what the
// recurring-delay lanes must get right: schedule_after over a few recurring
// delays (0 included), over one-off random delays that claim and release
// lanes, and over a negative delay; schedule_at, in the past too; cancels of
// lane heads, of events buffered behind them and of heap events; and
// callbacks that schedule and cancel while the engine pops.
class LaneModel {
 public:
  explicit LaneModel(std::uint64_t seed) : rng_(seed) {}

  Engine engine;

  void schedule_random() {
    const double roll = rng_.uniform(0.0, 1.0);
    if (roll < 0.5) {
      schedule_after(kRecurring[pick(4)], Kind::kRecurring);
    } else if (roll < 0.7) {
      schedule_after(rng_.uniform(0.0, 6.0), Kind::kOneOff);
    } else if (roll < 0.75) {
      schedule_after(-0.5, Kind::kOneOff);
    } else {
      const double when = engine.now() + rng_.uniform(-1.0, 6.0);
      const std::uint64_t tag = next_tag_++;
      EventHandle h = engine.schedule_at(when, [this, tag] { fire(tag); });
      add(Ref{when >= engine.now() ? when : engine.now(), tag, Kind::kAbsolute, 0.0, h});
    }
  }

  /// Cancel a lane head (the oldest live event of a recurring delay), an
  /// event buffered behind one, an absolute-time event, or any event.
  void cancel_random() {
    if (live_.empty()) return;
    const std::size_t what = pick(4);
    std::vector<std::size_t> picks;
    if (what <= 1) {
      const double delay = kRecurring[pick(4)];
      bool head = true;
      for (std::size_t i = 0; i < live_.size(); ++i) {
        if (live_[i].kind != Kind::kRecurring || live_[i].delay != delay) continue;
        if (head == (what == 0)) picks.push_back(i);
        head = false;
      }
    } else if (what == 2) {
      for (std::size_t i = 0; i < live_.size(); ++i) {
        if (live_[i].kind == Kind::kAbsolute) picks.push_back(i);
      }
    } else {
      picks.push_back(pick(live_.size()));
    }
    if (picks.empty()) return;
    const std::size_t i = picks[pick(picks.size())];
    live_[i].handle.cancel();
    retire(i);
  }

  /// Everything the engine reports must match the reference.
  void check() const {
    ASSERT_EQ(got_, want_);
    ASSERT_EQ(engine.pending(), live_.size());
    ASSERT_EQ(engine.empty(), live_.empty());
    double next = Engine::kForever;
    for (const Ref& r : live_) next = std::min(next, r.time);
    ASSERT_EQ(engine.next_time(), next);
    for (const Ref& r : live_) ASSERT_TRUE(r.handle.active()) << "tag " << r.tag;
    for (const EventHandle& h : dead_) ASSERT_FALSE(h.active());
    ASSERT_LE(engine.pool_slots(), peak_pending_);
  }

  [[nodiscard]] std::size_t fired() const noexcept { return got_.size(); }

 private:
  enum class Kind { kRecurring, kOneOff, kAbsolute };
  struct Ref {
    double time;
    std::uint64_t tag;
    Kind kind;
    double delay;
    EventHandle handle;
  };
  static constexpr double kRecurring[4] = {0.0, 0.5, 1.25, 4.0};

  std::size_t pick(std::size_t n) {
    return static_cast<std::size_t>(rng_.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  }

  void schedule_after(double delay, Kind kind) {
    const double when = engine.now() + delay;
    const std::uint64_t tag = next_tag_++;
    EventHandle h = engine.schedule_after(delay, [this, tag] { fire(tag); });
    add(Ref{when >= engine.now() ? when : engine.now(), tag, kind, delay, h});
  }

  void add(const Ref& r) {
    live_.push_back(r);
    peak_pending_ = std::max(peak_pending_, live_.size());
  }

  void retire(std::size_t i) {
    if (dead_.size() == 64) dead_.erase(dead_.begin());
    dead_.push_back(live_[i].handle);
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(i));
  }

  void fire(std::uint64_t tag) {
    // The reference fires the least (time, scheduling order); live_ is in
    // scheduling order, so the first minimum wins a time tie.
    std::size_t expect = 0;
    for (std::size_t i = 1; i < live_.size(); ++i) {
      if (live_[i].time < live_[expect].time) expect = i;
    }
    if (!live_.empty()) want_.emplace_back(live_[expect].time, live_[expect].tag);
    got_.emplace_back(engine.now(), tag);
    for (std::size_t i = 0; i < live_.size(); ++i) {
      if (live_[i].tag == tag) {
        retire(i);
        break;
      }
    }
    // Callbacks schedule (0.8 events on average) and sometimes cancel.
    if (rng_.bernoulli(0.4)) schedule_random();
    if (rng_.bernoulli(0.4)) schedule_random();
    if (rng_.bernoulli(0.15)) cancel_random();
  }

  Rng rng_;
  std::vector<Ref> live_;        // pending events in scheduling order
  std::vector<EventHandle> dead_;  // the latest fired or cancelled handles
  std::vector<std::pair<double, std::uint64_t>> got_;   // (now, tag) as fired
  std::vector<std::pair<double, std::uint64_t>> want_;  // what the reference fires
  std::uint64_t next_tag_ = 0;
  std::size_t peak_pending_ = 0;
};

TEST_P(EngineProperties, LanesMatchReferenceModel) {
  LaneModel model{GetParam() * 53 + 11};
  Rng rng{GetParam() * 59 + 13};
  for (int round = 0; round < 3000; ++round) {
    const double roll = rng.uniform(0.0, 1.0);
    if (roll < 0.45) {
      model.schedule_random();
    } else if (roll < 0.6) {
      model.cancel_random();
    } else {
      (void)model.engine.step();
    }
    model.check();
    if (::testing::Test::HasFatalFailure()) return;
  }
  while (model.engine.step()) {
    model.check();
    if (::testing::Test::HasFatalFailure()) return;
  }
  model.check();
  EXPECT_GT(model.fired(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineProperties,
                         ::testing::Values<std::uint64_t>(3, 17, 99, 2024));

}  // namespace
}  // namespace faucets::sim
