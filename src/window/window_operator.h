// The window operator that runs on an input queue.
//
// "The windows are calculated by a window operator running on the queue. The
// window operator will try to produce a window whenever it is asked by the
// attached workflow activity. When events expire they are pushed to an
// expired items queue which are optionally handled by another workflow
// activity."
//
// The operator maintains one logical queue per group-by key and implements
// tuple-, time- and wave-based window formation with the five-parameter
// semantics of WindowSpec. Time windows may be closed either by the arrival
// of an event belonging to a later window or by a registered timeout
// (`NextDeadline` / `OnTimeout`), exactly as the TM windowed receiver does in
// the paper.
//
// Groups live in a hash map keyed by GroupKey (GroupKeyHash). A put to an
// existing group extracts its key into a reused buffer and makes one hash
// probe. Each group's key record (`Window::group_key`) is built once, when
// the group is created, and every window of the group shares that instance.
// Two orders hold whatever the hash: Flush emits groups in ascending
// GroupKey order, and groups whose time windows share a deadline are closed
// by OnTimeout in the order they registered it.
//
// Per-group state is kept small because LRB creates a group per car and per
// (car, xway, dir, seg) and keeps every one for the whole run. A group's
// pending events sit in an EventFifo: a ring buffer over a vector, so a pop
// moves the front event out (its slot then holds no token), a steady sliding
// window moves no event, and an emptied FIFO keeps its capacity for the next
// events. The wave-window fields live in a WaveState that is allocated on
// the group's first wave put, so tuple and time groups do not carry them.
// A window that consumes its events
// (delete_used_events) moves them out of the FIFO into an exact-size vector
// instead of copying them; the FIFO keeps its buffer for the group's next
// events. A sliding window copies, since its events stay for the next one.

#ifndef CONFLUENCE_WINDOW_WINDOW_OPERATOR_H_
#define CONFLUENCE_WINDOW_WINDOW_OPERATOR_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/event.h"
#include "window/window_spec.h"

namespace cwf {

/// \brief Group-by key: the tuple of Values extracted from a record.
using GroupKey = std::vector<Value>;

/// \brief Hash of a GroupKey: each component's Value::Hash() folded in with a
/// multiply/xor-shift mix, so keys of several small ints (LRB's car, xway,
/// dir, seg) spread over the buckets instead of colliding on their sum.
struct GroupKeyHash {
  // Not noexcept on purpose: libstdc++ then stores each node's hash, so a
  // bucket walk compares stored hashes instead of rehashing every key.
  size_t operator()(const GroupKey& key) const;
};

/// \brief Stateful window formation over a (possibly partitioned) queue.
///
/// Not thread-safe; callers (receivers) serialize access.
class WindowOperator {
 public:
  explicit WindowOperator(WindowSpec spec);

  const WindowSpec& spec() const { return spec_; }

  /// \brief Insert an event; any windows it completes are appended to `out`.
  ///
  /// Returns InvalidArgument if the spec has a group-by but the event's token
  /// is not a record carrying all group-by fields.
  Status Put(const CWEvent& event, std::vector<Window>* out);

  /// \brief Earliest instant at which a pending time window must be closed by
  /// a timer; Timestamp::Max() when no timer is needed.
  Timestamp NextDeadline() const;

  /// \brief Close (and emit into `out`) every group window whose deadline is
  /// <= `now`. No-op for non-time windows.
  void OnTimeout(Timestamp now, std::vector<Window>* out);

  /// \brief Force-close any non-empty pending window in every group
  /// (end-of-stream flush).
  void Flush(std::vector<Window>* out);

  /// \brief Remove and return events that slid out of every future window.
  std::vector<CWEvent> DrainExpired();

  /// \brief Events currently buffered across all groups (tuple/time group
  /// queues plus wave buffers). A counter maintained wherever an event
  /// enters or leaves a buffer, so it costs O(1) whatever the group count.
  size_t PendingEventCount() const { return pending_; }

  /// \brief Number of distinct group-by partitions seen so far.
  size_t GroupCount() const { return groups_.size(); }

  /// \brief Total windows produced over the operator's lifetime.
  uint64_t windows_produced() const { return windows_produced_; }

 private:
  /// Ring buffer of a group's pending events: the live events are the
  /// size_ slots from head_ on, wrapping at the end of slots_. Popping moves
  /// the front events out and advances head_, so a popped slot holds no
  /// token; an emptied FIFO starts over at slot 0 and keeps its capacity.
  /// Push and pop move no other event, and a full ring doubles, so both
  /// stay amortized O(1) whatever the window size.
  class EventFifo {
   public:
    bool empty() const { return size_ == 0; }
    size_t size() const { return size_; }
    const CWEvent& operator[](size_t i) const { return slots_[Slot(i)]; }

    void push_back(const CWEvent& event) {
      if (size_ == slots_.size()) {
        Grow();
      }
      slots_[Slot(size_)] = event;
      ++size_;
    }

    /// Append copies of the first `count` events to `out`.
    void CopyFront(size_t count, std::vector<CWEvent>* out) const {
      const size_t first = std::min(count, slots_.size() - head_);
      out->insert(out->end(), slots_.begin() + head_,
                  slots_.begin() + head_ + first);
      if (first < count) {
        out->insert(out->end(), slots_.begin(),
                    slots_.begin() + (count - first));
      }
    }

    /// Move the first `count` events to the end of `out` and pop them.
    void MoveFront(size_t count, std::vector<CWEvent>* out) {
      const size_t first = std::min(count, slots_.size() - head_);
      out->insert(out->end(), std::make_move_iterator(slots_.begin() + head_),
                  std::make_move_iterator(slots_.begin() + head_ + first));
      if (first < count) {
        out->insert(out->end(), std::make_move_iterator(slots_.begin()),
                    std::make_move_iterator(slots_.begin() + (count - first)));
      }
      head_ = size_ == count ? 0 : Slot(count);
      size_ -= count;
    }

   private:
    /// Index in slots_ of the i-th live event (i < slots_.size()).
    size_t Slot(size_t i) const {
      const size_t slot = head_ + i;
      return slot < slots_.size() ? slot : slot - slots_.size();
    }

    /// Double the ring (to one slot when empty), live events first.
    void Grow() {
      const size_t live = size_;
      std::vector<CWEvent> next;
      next.reserve(slots_.empty() ? 1 : 2 * slots_.size());
      MoveFront(live, &next);
      next.resize(next.capacity());
      slots_.swap(next);
      size_ = live;
    }

    std::vector<CWEvent> slots_;
    size_t head_ = 0;
    size_t size_ = 0;
  };

  /// A wave group's synchronization state: events buffered per (sub-)wave
  /// until the wave is complete; completed waves queue up in completion
  /// order.
  struct WaveState {
    std::map<WaveTag, std::vector<CWEvent>> wave_buffers;
    std::map<WaveTag, uint32_t> wave_last_serial;
    std::vector<WaveTag> completed_waves;
    /// Greatest wave already consumed into a produced window; arrivals at
    /// or behind it (wave-tag monotonicity invariant) abort via CWF_DCHECK.
    WaveTag consumed_wave_frontier;
    bool has_consumed_frontier = false;
  };

  struct GroupState {
    EventFifo queue;
    // Tuple windows with step > size: events between windows to skip.
    size_t skip_next = 0;
    // -- time windows --
    bool start_set = false;
    Timestamp window_start;  // inclusive; window covers [start, start+size)
    /// The group's key record, built once when the group is created (nil
    /// without a group-by).
    Token group_key_token;
    /// Deadline currently registered in deadline_index_ (Max = none), and
    /// its entry there while registered.
    Timestamp registered_deadline = Timestamp::Max();
    std::multimap<Timestamp, GroupState*>::iterator deadline_entry;
    /// Allocated by the group's first PutWave; null for tuple/time groups.
    std::unique_ptr<WaveState> wave;
  };

  /// Fill `key` (cleared, capacity kept) with the group-by values in order.
  Status ExtractKey(const CWEvent& event, GroupKey* key) const;

  void PutTuple(GroupState* g, const CWEvent& event, std::vector<Window>* out);
  void PutTime(GroupState* g, const CWEvent& event, std::vector<Window>* out);
  void PutWave(GroupState* g, const CWEvent& event, std::vector<Window>* out);

  /// Emit the current time window of `g` and slide it forward by `step`.
  void CloseTimeWindow(GroupState* g, std::vector<Window>* out);

  /// Re-register `g`'s formation deadline in deadline_index_ after any
  /// mutation (keeps NextDeadline()/OnTimeout() off the O(groups) path).
  void UpdateDeadline(GroupState* g);

  /// A window of `g`'s first `count` events (an exact-size vector): moved
  /// out of the queue, and off pending_, when `consume`; copied otherwise.
  Window MakeWindow(GroupState* g, size_t count, bool consume);

  WindowSpec spec_;
  /// Node-based, so GroupState addresses stay stable across rehashing;
  /// groups are never erased.
  std::unordered_map<GroupKey, GroupState, GroupKeyHash> groups_;
  /// Put's key buffer, reused so a put allocates no key.
  GroupKey scratch_key_;
  /// Pending time-window deadlines, earliest first; equal deadlines keep
  /// insertion (registration) order.
  std::multimap<Timestamp, GroupState*> deadline_index_;
  std::vector<CWEvent> expired_;
  /// Events in every group's queue and wave buffers: PendingEventCount().
  size_t pending_ = 0;
  uint64_t windows_produced_ = 0;
};

}  // namespace cwf

#endif  // CONFLUENCE_WINDOW_WINDOW_OPERATOR_H_
