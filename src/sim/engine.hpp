// Deterministic discrete-event simulation engine.
//
// Section 5.4 of the Faucets paper describes a simulation system in which
// every entity of the grid — clients, Compute Servers, the Faucets Server,
// schedulers with their bid generators, and applications — is an object, and
// discrete-event simulation is carried out over job-submission patterns.
// This engine is that substrate: a single-threaded, deterministic event
// queue ordered by (time, sequence number).
//
// Events live in a slab of pooled slots recycled through a free list, and
// the queue is an indexed 4-ary heap with back-pointers, so cancel()
// removes the event in O(log n) instead of leaving a tombstone. The
// ordering keys (time, seq) are stored inside the heap entries themselves:
// sift comparisons stay within the contiguous heap array instead of chasing
// slot indices into the slab, which is what makes million-event queues fast
// (each slab lookup is a cache miss at that size).
//
// Most events of a grid run are scheduled a recurring delay ahead: a
// message's latency for its size, or a timer period. schedule_after() puts
// such an event in the FIFO lane of its delay. Because now() never
// decreases, each lane is already in (time, seq) order, so only a lane's
// head sits in the heap; when it leaves, the lane's next event takes its
// place. The heap still pops in its own (time, seq) order, so lanes change
// what a pop costs, never which event it returns.
//
// Handles are {slot, generation} pairs: firing or cancelling bumps the
// slot's generation, so a stale handle can neither cancel nor report active
// for a recycled slot. Closures are stored in a SmallFunction, so scheduling
// a timer with a small capture performs zero heap allocations once the pool
// is warm.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/callable.hpp"

namespace faucets::obs {
class ProfilerLane;
}  // namespace faucets::obs

namespace faucets::sim {

/// Simulated time in seconds since the start of the simulation.
using SimTime = double;

class Engine;

/// Handle to a scheduled event; allows cancellation (e.g. a server's poll
/// timer when it deregisters). Default-constructed handles are inert.
/// A handle is only meaningful while the Engine that issued it is alive.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not fired yet. Safe to call repeatedly, and
  /// a no-op once the event fired or the slot was recycled.
  void cancel() noexcept;

  /// True while the event is still queued: not yet fired, not cancelled.
  [[nodiscard]] bool active() const noexcept;

 private:
  friend class Engine;
  EventHandle(Engine* engine, std::uint32_t slot, std::uint32_t generation) noexcept
      : engine_(engine), slot_(slot), generation_(generation) {}

  Engine* engine_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

/// The event queue. Events scheduled for the same instant fire in the order
/// they were scheduled, which makes every run bit-reproducible.
class Engine {
 public:
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] SimTime now() const noexcept { return now_; }

  /// Schedule `fn` to run at absolute time `when` (>= now). Scheduling in
  /// the past, or at NaN, is clamped to `now` rather than rejected: entities
  /// routinely react "immediately". The event goes straight into the heap.
  /// Throws std::length_error past 2^24 concurrently pending events.
  EventHandle schedule_at(SimTime when, SmallFunction fn);

  /// Schedule `fn` to run at `now() + delay`. A delay >= 0 joins the FIFO
  /// lane of that exact delay, or claims an idle lane; with every lane
  /// taken by other delays, or a negative or NaN delay, the event goes to
  /// the heap as schedule_at() would. Either way it fires at the same time
  /// in the same (time, seq) order. Call schedule_at() for a delay that
  /// will not recur, such as a random jitter, so it does not hold a lane.
  EventHandle schedule_after(SimTime delay, SmallFunction fn);

  /// Run until the queue drains or `until` is reached (whichever first).
  /// Returns the number of events executed.
  std::uint64_t run(SimTime until = kForever);

  /// Execute at most one pending event. Returns false if the queue is empty
  /// or the next event lies beyond `until`.
  bool step(SimTime until = kForever);

  // Every busy lane has its head in the heap, so an empty heap means no
  // event is pending, and the heap's root is the earliest one.
  [[nodiscard]] bool empty() const noexcept { return heap_.empty(); }
  [[nodiscard]] std::size_t pending() const noexcept { return heap_.size() + buffered_; }
  [[nodiscard]] std::uint64_t executed() const noexcept { return executed_; }

  /// Time of the earliest pending event, kForever when the queue is empty.
  /// The run loop peeks it to fire a pause hook before the event executes.
  [[nodiscard]] SimTime next_time() const noexcept {
    return heap_.empty() ? kForever : heap_[0].time;
  }

  /// Total slots ever allocated in the pool (monotone; slot reuse keeps this
  /// near the high-water mark of concurrently pending events).
  [[nodiscard]] std::size_t pool_slots() const noexcept { return slots_.size(); }

  /// Attach a host-time profiler lane (DESIGN.md §12): step() brackets each
  /// dispatched handler with one timestamp pair. Null (the default) keeps
  /// the unprofiled path to a single branch per event.
  void set_profiler(obs::ProfilerLane* lane) noexcept { prof_ = lane; }

  static constexpr SimTime kForever = 1e300;

 private:
  friend class EventHandle;

  /// Slot numbers fit 24 bits (16M concurrently pending events); the
  /// insertion sequence takes the upper 40 bits of the packed key, so a
  /// plain integer compare breaks time ties in scheduling order.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint32_t kSlotMask = (1u << kSlotBits) - 1;

  /// Lane table size. A grid run keeps at most seven delays busy at once
  /// (a latency per message size and the timer periods, DESIGN.md §6.1);
  /// a lookup compares against every lane, so the table stays small.
  static constexpr std::uint32_t kLanes = 8;
  static constexpr std::uint32_t kNoLane = kLanes;
  static_assert(kLanes <= 32, "busy_lanes_ holds one bit per lane");
  /// `key` of a free slot: no queued event packs to it (that would take
  /// 2^40 scheduled events).
  static constexpr std::uint64_t kNoKey = ~std::uint64_t{0};
  /// pos_ values besides a heap position.
  static constexpr std::int32_t kFree = -1;      // not queued
  static constexpr std::int32_t kBuffered = -2;  // queued behind its lane's head

  struct Slot {
    std::uint32_t generation = 0;
    std::uint32_t lane = kNoLane;  // lane the event joined; kNoLane = heap only
    std::uint64_t key = kNoKey;    // the event's packed key while queued
    SmallFunction fn;
  };

  /// Heap entry carrying the ordering keys, so comparisons never touch the
  /// slab: 16 bytes, four children per cache line. 4-ary layout: parent
  /// (i-1)/4, children 4i+1 .. 4i+4.
  struct HeapEntry {
    SimTime time;
    std::uint64_t key;  // (seq << kSlotBits) | slot

    [[nodiscard]] std::uint32_t slot() const noexcept {
      return static_cast<std::uint32_t>(key) & kSlotMask;
    }
  };

  /// The events of one recurring delay, in (time, seq) order. The head is
  /// in the heap; the events behind it wait in a ring of power-of-two
  /// capacity that keeps its buffer when it drains. An event cancelled
  /// behind the head stays as a stale entry until the head reaches it: its
  /// slot's key no longer matches.
  struct Lane {
    std::vector<HeapEntry> ring;
    std::size_t first = 0;  // ring index of the oldest entry
    std::size_t count = 0;  // entries behind the head, stale ones included

    [[nodiscard]] HeapEntry pop_front() noexcept {
      const HeapEntry e = ring[first];
      first = (first + 1) & (ring.size() - 1);
      --count;
      return e;
    }
    void push_back(const HeapEntry& e);
  };

  [[nodiscard]] bool slot_active(std::uint32_t slot, std::uint32_t generation) const noexcept {
    return slot < slots_.size() && slots_[slot].generation == generation &&
           pos_[slot] != kFree;
  }
  void cancel_slot(std::uint32_t slot, std::uint32_t generation) noexcept;
  std::uint32_t acquire_slot(SmallFunction&& fn, std::uint32_t lane);
  [[nodiscard]] std::uint32_t find_lane(SimTime delay) noexcept;
  void push_heap(const HeapEntry& e);
  void advance_lane(std::uint32_t lane, std::size_t pos) noexcept;

  [[nodiscard]] static bool earlier(const HeapEntry& a, const HeapEntry& b) noexcept {
    if (a.time != b.time) return a.time < b.time;
    return a.key < b.key;
  }
  void place(const HeapEntry& e, std::size_t i) noexcept {
    heap_[i] = e;
    pos_[e.slot()] = static_cast<std::int32_t>(i);
  }
  void sift_up(std::size_t i) noexcept;
  void sift_down(std::size_t i) noexcept;
  void remove_heap_at(std::size_t pos) noexcept;
  void pop_root() noexcept;
  void retire_slot(std::uint32_t slot) noexcept;

  SimTime now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  obs::ProfilerLane* prof_ = nullptr;  // host-time recorder; null = off
  std::vector<Slot> slots_;         // slab of pooled callables
  std::vector<std::int32_t> pos_;   // heap position per slot, kFree or kBuffered
  std::vector<std::uint32_t> free_; // recycled slot numbers
  std::vector<HeapEntry> heap_;     // indexed 4-ary heap
  std::array<Lane, kLanes> lanes_;  // FIFO lanes of recurring delays
  std::array<SimTime, kLanes> lane_delay_{};  // each lane's delay; stale while idle
  std::uint32_t busy_lanes_ = 0;    // bit i: lane i has a head in the heap
  std::size_t buffered_ = 0;        // live events queued behind a lane head
};

inline void EventHandle::cancel() noexcept {
  if (engine_ != nullptr) engine_->cancel_slot(slot_, generation_);
}

inline bool EventHandle::active() const noexcept {
  return engine_ != nullptr && engine_->slot_active(slot_, generation_);
}

}  // namespace faucets::sim
