#include "src/sim/engine.hpp"

#include <cassert>
#include <utility>

#include "src/obs/profiler.hpp"

namespace faucets::sim {

namespace {
constexpr std::size_t kArity = 4;
}  // namespace

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

void Engine::retire_slot(std::uint32_t slot) noexcept {
  pos_[slot] = -1;
  ++slots_[slot].generation;  // invalidate handles before the slot recycles
  free_.push_back(slot);
}

EventHandle Engine::schedule_at(SimTime when, SmallFunction fn) {
  if (when < now_) when = now_;
  std::uint32_t s;
  if (free_.empty()) {
    s = static_cast<std::uint32_t>(slots_.size());
    assert(s <= kSlotMask && "event pool exceeds 2^24 pending events");
    slots_.emplace_back();
    pos_.push_back(-1);
  } else {
    s = free_.back();
    free_.pop_back();
  }
  Slot& slot = slots_[s];
  slot.fn = std::move(fn);
  pos_[s] = static_cast<std::int32_t>(heap_.size());
  heap_.push_back(HeapEntry{when, (next_seq_++ << kSlotBits) | s});
  sift_up(heap_.size() - 1);
  return EventHandle{this, s, slot.generation};
}

void Engine::cancel_slot(std::uint32_t slot, std::uint32_t generation) noexcept {
  if (!slot_active(slot, generation)) return;
  remove_heap_at(static_cast<std::size_t>(pos_[slot]));
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
  pop_root();
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
