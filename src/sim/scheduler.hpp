// Deterministic discrete-event scheduler: the heartbeat of the emulator.
//
// Events are (time, sequence) ordered; the sequence number makes ties
// deterministic (events scheduled earlier fire earlier), which in turn makes
// every experiment bit-for-bit reproducible from its seed and config.
//
// Hot-path storage is allocation-free at steady state: actions live in
// small-buffer InlineAction storage inside the queue entries, the queue is a
// plain vector heap (reservable via reserve_events), and both Gates and
// EventHandles are {slot, generation} tokens into one scheduler-owned arena
// whose slots recycle through a free list.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/contracts.hpp"
#include "common/error.hpp"
#include "common/units.hpp"
#include "sim/action.hpp"

namespace eona::sim {

class Scheduler;

/// Opaque handle to a scheduled event; allows cancellation. A {slot,
/// generation} token into the owning scheduler's arena -- the same storage
/// discipline as Gate, so per-event scheduling allocates nothing. Value
/// type; copies refer to the same event. Must not outlive the scheduler.
class EventHandle {
 public:
  EventHandle() = default;

  /// True if this handle refers to an event that has neither fired nor been
  /// cancelled.
  [[nodiscard]] bool pending() const;

 private:
  friend class Scheduler;
  static constexpr std::uint32_t kNone = 0xffffffffu;
  EventHandle(const Scheduler* sched, std::uint32_t slot, std::uint32_t gen)
      : sched_(sched), slot_(slot), gen_(gen) {}
  const Scheduler* sched_ = nullptr;
  std::uint32_t slot_ = kNone;
  std::uint32_t gen_ = 0;
};

/// Allocation-free revocation token for handle-free posts (see
/// Scheduler::post_at). A Gate is a {slot, generation} pair into a
/// scheduler-owned arena: closing the gate bumps the slot's generation, so
/// every event posted through the old generation is skipped without firing
/// -- the exact semantics of cancelling an EventHandle, minus the per-event
/// handle bookkeeping. Value type; copying copies the token, not the gate.
class Gate {
 public:
  Gate() = default;
  /// True if this token was obtained from open_gate() (says nothing about
  /// whether the gate has since been closed -- ask Scheduler::gate_open).
  [[nodiscard]] bool valid() const { return slot_ != kNone; }

 private:
  friend class Scheduler;
  static constexpr std::uint32_t kNone = 0xffffffffu;
  std::uint32_t slot_ = kNone;
  std::uint32_t gen_ = 0;
};

/// Priority-queue based event scheduler with a virtual clock.
///
/// Not thread-safe by design: the whole emulation is single-threaded and
/// deterministic (Core Guidelines CP.1 -- assume your code will run as part
/// of a multi-threaded program only where you have made that true). Sector-
/// parallel execution runs one Scheduler per sector, never sharing one.
class Scheduler {
 public:
  using Action = InlineAction;

  /// Current simulated time. Starts at 0.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Number of events that have fired so far.
  [[nodiscard]] std::uint64_t events_fired() const { return fired_; }

  /// Number of events still queued (including cancelled-but-unpopped ones).
  [[nodiscard]] std::size_t pending_events() const { return queue_.size(); }

  /// Pre-size the event queue so steady-state posting never reallocates.
  void reserve_events(std::size_t n) { queue_.reserve(n); }

  /// Pre-size the gate/handle slot arena.
  void reserve_slots(std::size_t n) {
    slot_gen_.reserve(n);
    slot_free_.reserve(n);
  }

  /// Schedule `action` to run at absolute time `when` (>= now).
  EventHandle schedule_at(TimePoint when, Action action) {
    EONA_EXPECTS(when >= now_);
    EONA_EXPECTS(action);
    std::uint32_t slot = acquire_slot();
    std::uint32_t gen = slot_gen_[slot];
    push_entry(Entry{when, next_seq_++, std::move(action), slot, gen,
                     /*owns_slot=*/true});
    return EventHandle(this, slot, gen);
  }

  /// Schedule `action` to run `delay` seconds from now (delay >= 0).
  EventHandle schedule_after(Duration delay, Action action) {
    return schedule_at(now_ + delay, std::move(action));
  }

  // --- handle-free posts ---------------------------------------------------
  // Fire-and-forget events (transfer completions, periodic ticks) dominate
  // the event stream; posting them skips even the arena slot the schedule_*
  // path claims. Ordering and tie-breaking are identical to schedule_at
  // (same sequence counter), pinned by tests/sim_scheduler_post_test.cpp.

  /// Post `action` at absolute time `when` with no cancellation handle.
  void post_at(TimePoint when, Action action) {
    EONA_EXPECTS(when >= now_);
    EONA_EXPECTS(action);
    push_entry(Entry{when, next_seq_++, std::move(action), kNoSlot, 0,
                     /*owns_slot=*/false});
  }

  /// Post `action` after `delay` seconds with no cancellation handle.
  void post_after(Duration delay, Action action) {
    post_at(now_ + delay, std::move(action));
  }

  /// Post `action` at `when`, revocable in bulk through `gate`: if the gate
  /// is closed before the event's turn, the event is skipped without firing.
  void post_at(TimePoint when, const Gate& gate, Action action) {
    EONA_EXPECTS(when >= now_);
    EONA_EXPECTS(action);
    EONA_EXPECTS(gate_open(gate));
    push_entry(Entry{when, next_seq_++, std::move(action), gate.slot_,
                     gate.gen_, /*owns_slot=*/false});
  }

  void post_after(Duration delay, const Gate& gate, Action action) {
    post_at(now_ + delay, gate, std::move(action));
  }

  /// Open a revocation gate. Gates are slots in a scheduler-owned arena;
  /// opening reuses closed slots, so steady-state churn allocates nothing.
  [[nodiscard]] Gate open_gate() {
    Gate gate;
    gate.slot_ = acquire_slot();
    gate.gen_ = slot_gen_[gate.slot_];
    return gate;
  }

  /// Close a gate: every event posted through it is skipped (idempotent;
  /// closing an already-closed or default token is a no-op). Resets `gate`
  /// to the default (invalid) token.
  void close_gate(Gate& gate) {
    if (gate.slot_ != Gate::kNone && slot_gen_[gate.slot_] == gate.gen_)
      release_slot(gate.slot_);
    gate = Gate{};
  }

  /// True while `gate` is open (events posted through it will fire).
  [[nodiscard]] bool gate_open(const Gate& gate) const {
    return gate.slot_ != Gate::kNone && slot_gen_[gate.slot_] == gate.gen_;
  }

  /// Cancel a pending event. Cancelling an already-fired or already-cancelled
  /// event is a harmless no-op (idempotent).
  void cancel(const EventHandle& handle) {
    if (handle.sched_ == this && handle.slot_ != EventHandle::kNone &&
        slot_gen_[handle.slot_] == handle.gen_)
      release_slot(handle.slot_);
  }

  /// Fire the single next pending event, advancing the clock to its time.
  /// Returns false when the queue is empty.
  bool step() {
    while (!queue_.empty()) {
      Entry entry = pop_entry();
      if (!live(entry)) continue;  // cancelled handle or closed gate
      // Release the handle slot before invoking so pending() reads false
      // from inside the action (matches the pre-arena flag semantics).
      if (entry.owns_slot) release_slot(entry.slot);
      EONA_ASSERT(entry.when >= now_);
      now_ = entry.when;
      ++fired_;
      entry.action();
      return true;
    }
    return false;
  }

  /// Run events until the queue drains or the clock would pass `deadline`.
  /// The clock is left at exactly `deadline` (events at == deadline fire).
  void run_until(TimePoint deadline) {
    EONA_EXPECTS(deadline >= now_);
    while (!empty()) {
      if (next_event_time() > deadline) break;
      step();
    }
    now_ = deadline;
  }

  /// Run until no events remain. Guarded by a generous safety valve so a
  /// buggy self-rescheduling loop fails loudly instead of hanging.
  void run_all(std::uint64_t max_events = 500'000'000) {
    while (step()) {
      if (fired_ > max_events)
        throw Error("scheduler: event budget exhausted (runaway loop?)");
    }
  }

  /// Time of the earliest pending (non-cancelled) event.
  /// Precondition: at least one pending event.
  [[nodiscard]] TimePoint next_event_time() {
    drop_cancelled();
    EONA_EXPECTS(!queue_.empty());
    return queue_.front().when;
  }

  /// Time of the earliest pending event, or `fallback` when the queue is
  /// empty. The O(1) peek barrier loops use to classify a sector as
  /// quiescent for a round (no event to run before the round's target).
  [[nodiscard]] TimePoint next_event_time_or(TimePoint fallback) {
    drop_cancelled();
    return queue_.empty() ? fallback : queue_.front().when;
  }

  [[nodiscard]] bool empty() {
    drop_cancelled();
    return queue_.empty();
  }

 private:
  friend class EventHandle;
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct Entry {
    TimePoint when;
    std::uint64_t seq;
    Action action;
    std::uint32_t slot;  ///< kNoSlot for plain posts
    std::uint32_t gen;
    bool owns_slot;  ///< true for schedule_* entries: slot freed on fire
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  [[nodiscard]] std::uint32_t acquire_slot() {
    std::uint32_t slot;
    if (!slot_free_.empty()) {
      slot = slot_free_.back();
      slot_free_.pop_back();
    } else {
      slot = static_cast<std::uint32_t>(slot_gen_.size());
      slot_gen_.push_back(0);
    }
    return slot;
  }

  void release_slot(std::uint32_t slot) {
    ++slot_gen_[slot];
    slot_free_.push_back(slot);
  }

  [[nodiscard]] bool slot_live(std::uint32_t slot, std::uint32_t gen) const {
    return slot != kNoSlot && slot_gen_[slot] == gen;
  }

  [[nodiscard]] bool live(const Entry& entry) const {
    return entry.slot == kNoSlot || slot_gen_[entry.slot] == entry.gen;
  }

  void push_entry(Entry entry) {
    queue_.push_back(std::move(entry));
    std::push_heap(queue_.begin(), queue_.end(), Later{});
  }

  [[nodiscard]] Entry pop_entry() {
    std::pop_heap(queue_.begin(), queue_.end(), Later{});
    Entry entry = std::move(queue_.back());
    queue_.pop_back();
    return entry;
  }

  void drop_cancelled() {
    while (!queue_.empty() && !live(queue_.front())) {
      std::pop_heap(queue_.begin(), queue_.end(), Later{});
      queue_.pop_back();
    }
  }

  // Binary heap over a plain vector (std::push_heap/pop_heap with Later):
  // same ordering as std::priority_queue but reservable and movable-from.
  std::vector<Entry> queue_;
  std::vector<std::uint32_t> slot_gen_;   ///< generation per arena slot
  std::vector<std::uint32_t> slot_free_;  ///< recyclable (released) slots
  TimePoint now_ = 0.0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t fired_ = 0;
};

inline bool EventHandle::pending() const {
  return sched_ != nullptr && sched_->slot_live(slot_, gen_);
}

/// Repeatedly runs an action at a fixed period until stopped. Used for
/// control loops (AppP/InfP controllers act on their own cadence).
class PeriodicTask {
 public:
  /// Starts ticking `period` seconds after `start_offset`; fires action at
  /// each tick. The first tick is at now + start_offset + period unless
  /// `fire_immediately`.
  PeriodicTask(Scheduler& sched, Duration period, Scheduler::Action action,
               Duration start_offset = 0.0, bool fire_immediately = false)
      : sched_(sched), period_(period), action_(std::move(action)) {
    EONA_EXPECTS(period > 0.0);
    EONA_EXPECTS(start_offset >= 0.0);
    gate_ = sched_.open_gate();
    Duration first = fire_immediately ? start_offset : start_offset + period_;
    sched_.post_after(first, gate_, [this] { tick(); });
  }

  PeriodicTask(const PeriodicTask&) = delete;
  PeriodicTask& operator=(const PeriodicTask&) = delete;

  ~PeriodicTask() { stop(); }

  /// Stop ticking; idempotent. Closing the gate revokes the pending tick,
  /// so the scheduler never calls back into a destroyed task.
  void stop() {
    stopped_ = true;
    sched_.close_gate(gate_);
  }

  /// Change the period for subsequent ticks (takes effect after the next
  /// already-scheduled tick fires).
  void set_period(Duration period) {
    EONA_EXPECTS(period > 0.0);
    period_ = period;
  }

  [[nodiscard]] Duration period() const { return period_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }

 private:
  void tick() {
    if (stopped_) return;
    ++ticks_;
    action_();
    if (!stopped_) sched_.post_after(period_, gate_, [this] { tick(); });
  }

  Scheduler& sched_;
  Duration period_;
  Scheduler::Action action_;
  Gate gate_;
  bool stopped_ = false;
  std::uint64_t ticks_ = 0;
};

}  // namespace eona::sim
