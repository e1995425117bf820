#include "src/sim/engine.hpp"

#include <bit>
#include <stdexcept>
#include <utility>

#include "src/obs/profiler.hpp"

namespace faucets::sim {

namespace {
constexpr std::size_t kArity = 4;
constexpr std::size_t kFirstLaneCapacity = 16;
}  // namespace

void Engine::Lane::push_back(const HeapEntry& e) {
  if (count == ring.size()) {
    std::vector<HeapEntry> grown(ring.empty() ? kFirstLaneCapacity : 2 * ring.size());
    for (std::size_t i = 0; i < count; ++i) {
      grown[i] = ring[(first + i) & (ring.size() - 1)];
    }
    ring.swap(grown);
    first = 0;
  }
  ring[(first + count) & (ring.size() - 1)] = e;
  ++count;
}

void Engine::sift_up(std::size_t i) noexcept {
  const HeapEntry e = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / kArity;
    if (!earlier(e, heap_[parent])) break;
    place(heap_[parent], i);
    i = parent;
  }
  place(e, i);
}

void Engine::sift_down(std::size_t i) noexcept {
  const std::size_t n = heap_.size();
  const HeapEntry e = heap_[i];
  for (;;) {
    const std::size_t first = kArity * i + 1;
    if (first >= n) break;
    const std::size_t last = first + kArity < n ? first + kArity : n;
    std::size_t best = first;
    for (std::size_t c = first + 1; c < last; ++c) {
      if (earlier(heap_[c], heap_[best])) best = c;
    }
    if (!earlier(heap_[best], e)) break;
    place(heap_[best], i);
    i = best;
  }
  place(e, i);
}

void Engine::remove_heap_at(std::size_t pos) noexcept {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos >= heap_.size()) return;
  place(last, pos);
  if (pos > 0 && earlier(last, heap_[(pos - 1) / kArity])) {
    sift_up(pos);
  } else {
    sift_down(pos);
  }
}

void Engine::pop_root() noexcept {
  // Plain sift-down beats Floyd's bubble-up variant here: simulation
  // workloads have massive time ties, so the displaced bottom entry often
  // belongs high in the heap and the early exit fires after a level or two.
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (heap_.empty()) return;
  place(last, 0);
  sift_down(0);
}

void Engine::push_heap(const HeapEntry& e) {
  heap_.push_back(e);
  sift_up(heap_.size() - 1);
}

void Engine::advance_lane(std::uint32_t lane_id, std::size_t pos) noexcept {
  // The lane's head at heap position `pos` leaves. Its next live event
  // sorts after it, hence after the head's heap parent: it can only sift
  // down from there.
  Lane& lane = lanes_[lane_id];
  while (lane.count > 0) {
    const HeapEntry next = lane.pop_front();
    if (slots_[next.slot()].key != next.key) continue;  // cancelled while buffered
    --buffered_;
    place(next, pos);
    sift_down(pos);
    return;
  }
  busy_lanes_ &= ~(1u << lane_id);
  remove_heap_at(pos);
}

void Engine::retire_slot(std::uint32_t slot) noexcept {
  pos_[slot] = kFree;
  Slot& s = slots_[slot];
  ++s.generation;  // invalidate handles before the slot recycles
  s.key = kNoKey;  // and any lane entry still naming it
  free_.push_back(slot);
}

std::uint32_t Engine::acquire_slot(SmallFunction&& fn, std::uint32_t lane) {
  std::uint32_t s;
  if (free_.empty()) {
    s = static_cast<std::uint32_t>(slots_.size());
    if (s > kSlotMask) {
      throw std::length_error("sim::Engine: more than 2^24 pending events");
    }
    slots_.emplace_back();
    pos_.push_back(kFree);
  } else {
    s = free_.back();
    free_.pop_back();
  }
  Slot& slot = slots_[s];
  slot.fn = std::move(fn);
  slot.lane = lane;
  slot.key = (next_seq_++ << kSlotBits) | s;
  return s;
}

std::uint32_t Engine::find_lane(SimTime delay) noexcept {
  // Branch-free over the whole table: one compare per lane, no early exit
  // for a mispredicted branch to cost. An idle lane that still holds this
  // delay is as good as any idle lane, so matching it is harmless.
  std::uint32_t match = 0;
  for (std::uint32_t i = 0; i < kLanes; ++i) {
    match |= static_cast<std::uint32_t>(lane_delay_[i] == delay) << i;
  }
  if (match != 0) return static_cast<std::uint32_t>(std::countr_zero(match));
  const std::uint32_t idle = ~busy_lanes_ & ((std::uint32_t{1} << kLanes) - 1);
  if (idle == 0) return kNoLane;
  const auto i = static_cast<std::uint32_t>(std::countr_zero(idle));
  lane_delay_[i] = delay;
  return i;
}

EventHandle Engine::schedule_at(SimTime when, SmallFunction fn) {
  if (!(when >= now_)) when = now_;  // also catches NaN
  const std::uint32_t s = acquire_slot(std::move(fn), kNoLane);
  push_heap(HeapEntry{when, slots_[s].key});
  return EventHandle{this, s, slots_[s].generation};
}

EventHandle Engine::schedule_after(SimTime delay, SmallFunction fn) {
  const std::uint32_t lane_id = delay >= 0.0 ? find_lane(delay) : kNoLane;
  if (lane_id == kNoLane) return schedule_at(now_ + delay, std::move(fn));
  const std::uint32_t s = acquire_slot(std::move(fn), lane_id);
  // now_ never decreases, so this entry sorts after every one in the lane.
  const HeapEntry e{now_ + delay, slots_[s].key};
  if ((busy_lanes_ >> lane_id) & 1u) {
    lanes_[lane_id].push_back(e);
    pos_[s] = kBuffered;
    ++buffered_;
  } else {
    busy_lanes_ |= 1u << lane_id;
    push_heap(e);
  }
  return EventHandle{this, s, slots_[s].generation};
}

void Engine::cancel_slot(std::uint32_t slot, std::uint32_t generation) noexcept {
  if (!slot_active(slot, generation)) return;
  const std::int32_t pos = pos_[slot];
  if (pos == kBuffered) {
    --buffered_;  // the lane skips the stale entry when it reaches it
  } else if (slots_[slot].lane != kNoLane) {
    advance_lane(slots_[slot].lane, static_cast<std::size_t>(pos));
  } else {
    remove_heap_at(static_cast<std::size_t>(pos));
  }
  slots_[slot].fn.reset();
  retire_slot(slot);
}

bool Engine::step(SimTime until) {
  if (heap_.empty()) return false;
  const HeapEntry top = heap_[0];
  if (top.time > until) return false;
  now_ = top.time;
  const std::uint32_t s = top.slot();
  // Detach the closure and retire the slot *before* invoking: the closure
  // may schedule (growing slots_), cancel, or even land in this very slot.
  SmallFunction fn = std::move(slots_[s].fn);
  if (slots_[s].lane != kNoLane) {
    advance_lane(slots_[s].lane, 0);
  } else {
    pop_root();
  }
  retire_slot(s);
  ++executed_;
  if (prof_ != nullptr) {
    prof_->begin_event();
    fn();
    prof_->end_event();
    return true;
  }
  fn();
  return true;
}

std::uint64_t Engine::run(SimTime until) {
  std::uint64_t n = 0;
  while (step(until)) ++n;
  if (!heap_.empty() && heap_[0].time > until && until < kForever) now_ = until;
  return n;
}

}  // namespace faucets::sim
