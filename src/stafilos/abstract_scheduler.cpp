#include "stafilos/abstract_scheduler.h"

#include <algorithm>

namespace cwf {
namespace {

/// Min-heap comparator over (key_ts, key_seq): std::push_heap builds a
/// max-heap, so invert.
struct HeapCmp {
  bool operator()(const ReadyWindow& a, const ReadyWindow& b) const {
    if (a.key_ts != b.key_ts) {
      return a.key_ts > b.key_ts;
    }
    return a.key_seq > b.key_seq;
  }
};

}  // namespace

const char* ActorStateName(ActorState state) {
  switch (state) {
    case ActorState::kActive:
      return "ACTIVE";
    case ActorState::kWaiting:
      return "WAITING";
    case ActorState::kInactive:
      return "INACTIVE";
  }
  return "?";
}

Status AbstractScheduler::Initialize(SchedulerHost* host,
                                     const std::vector<Actor*>& actors) {
  if (host == nullptr) {
    return Status::InvalidArgument("scheduler needs a host");
  }
  host_ = host;
  entries_.clear();
  iterations_ = 0;
  internal_firings_since_source_ = 0;
  ready_counter_ = 0;
  source_rr_cursor_ = 0;
  queued_events_ = 0;
  entries_.reserve(actors.size());
  for (Actor* actor : actors) {
    Entry entry;
    entry.actor = actor;
    entry.is_source = actor->IsSource();
    auto it = designer_priorities_.find(actor->name());
    if (it != designer_priorities_.end()) {
      entry.designer_priority = it->second;
    }
    entries_.push_back(std::move(entry));
  }
  for (Entry& entry : entries_) {
    OnRegister(&entry);
    RecomputeState(&entry);
  }
  return Status::OK();
}

AbstractScheduler::Entry* AbstractScheduler::Find(const Actor* actor) {
  for (Entry& entry : entries_) {
    if (entry.actor == actor) {
      return &entry;
    }
  }
  return nullptr;
}

const AbstractScheduler::Entry* AbstractScheduler::Find(
    const Actor* actor) const {
  for (const Entry& entry : entries_) {
    if (entry.actor == actor) {
      return &entry;
    }
  }
  return nullptr;
}

void AbstractScheduler::SetState(Entry* entry, ActorState state) {
  if (entry->state != ActorState::kActive && state == ActorState::kActive) {
    entry->ready_order = ++ready_counter_;
  }
  entry->state = state;
}

void AbstractScheduler::RecomputeAllStates() {
  for (Entry& entry : entries_) {
    RecomputeState(&entry);
  }
}

bool AbstractScheduler::SourceHasData(const Entry& entry) const {
  return entry.is_source && host_ != nullptr &&
         host_->SourceHasData(entry.actor);
}

void AbstractScheduler::Enqueue(Actor* target, ReadyWindow window) {
  Entry* entry = Find(target);
  CWF_CHECK_MSG(entry != nullptr,
                "Enqueue for unregistered actor " << target->name());
  if (shedding_.max_queued_windows_per_actor > 0 &&
      entry->queue.size() + entry->period_buffer.size() >=
          shedding_.max_queued_windows_per_actor) {
    // Drop-tail load shedding: the newest window is sacrificed to bound the
    // queueing delay of everything already admitted.
    ++shed_windows_;
    shed_events_ += window.window.events.size();
    return;
  }
  window.key_ts = window.window.OldestTimestamp();
  window.key_seq =
      window.window.events.empty() ? 0 : window.window.events.front().seq;
  host_->NotifyEventsArrived(target, window.window.events.size());
  queued_events_ += window.window.events.size();
  if (BufferToNextPeriod()) {
    entry->period_buffer.push_back(std::move(window));
  } else {
    entry->queue.push_back(std::move(window));
    std::push_heap(entry->queue.begin(), entry->queue.end(), HeapCmp());
  }
  RecomputeState(entry);
}

std::optional<ReadyWindow> AbstractScheduler::PopWindow(Actor* actor) {
  Entry* entry = Find(actor);
  if (entry == nullptr || entry->queue.empty()) {
    return std::nullopt;
  }
  std::pop_heap(entry->queue.begin(), entry->queue.end(), HeapCmp());
  ReadyWindow out = std::move(entry->queue.back());
  entry->queue.pop_back();
  queued_events_ -= std::min(queued_events_, out.window.events.size());
  return out;
}

Actor* AbstractScheduler::GetNextActor() {
  // Source readiness depends on the clock; refresh source states first.
  for (Entry& entry : entries_) {
    if (entry.is_source) {
      RecomputeState(&entry);
    }
  }

  // Regular-interval source dispatch: every `source_interval_` internal
  // firings, a source with pending data runs next (round-robin among
  // sources), smoothing the flow of data into the workflow.
  if (source_interval_ > 0 &&
      internal_firings_since_source_ >=
          static_cast<uint64_t>(source_interval_)) {
    const size_t n = entries_.size();
    for (size_t k = 0; k < n; ++k) {
      Entry& entry = entries_[(source_rr_cursor_ + k) % n];
      if (entry.is_source && SourceHasData(entry)) {
        source_rr_cursor_ = (source_rr_cursor_ + k + 1) % n;
        return entry.actor;
      }
    }
  }

  Entry* best = nullptr;
  for (Entry& entry : entries_) {
    if (entry.state != ActorState::kActive) {
      continue;
    }
    if (best == nullptr || HigherPriority(entry, *best)) {
      best = &entry;
    }
  }
  return best == nullptr ? nullptr : best->actor;
}

void AbstractScheduler::OnIterationEnd() {
  ++iterations_;
  for (Entry& entry : entries_) {
    entry.fired_this_iteration = false;
    if (BufferToNextPeriod() && !entry.period_buffer.empty()) {
      for (ReadyWindow& w : entry.period_buffer) {
        entry.queue.push_back(std::move(w));
        std::push_heap(entry.queue.begin(), entry.queue.end(), HeapCmp());
      }
      entry.period_buffer.clear();
    }
  }
  RecomputeAllStates();
}

void AbstractScheduler::OnActorFired(Actor* actor, Duration cost, bool fired) {
  (void)fired;
  Entry* entry = Find(actor);
  CWF_CHECK(entry != nullptr);
  entry->fired_this_iteration = true;
  if (entry->is_source) {
    internal_firings_since_source_ = 0;
  } else {
    ++internal_firings_since_source_;
  }
  ChargeCost(entry, cost);
  RecomputeState(entry);
}

ActorState AbstractScheduler::GetState(const Actor* actor) const {
  const Entry* entry = Find(actor);
  return entry == nullptr ? ActorState::kInactive : entry->state;
}

size_t AbstractScheduler::QueuedWindows(const Actor* actor) const {
  const Entry* entry = Find(actor);
  return entry == nullptr ? 0 : entry->queue.size();
}

size_t AbstractScheduler::BufferedWindows(const Actor* actor) const {
  const Entry* entry = Find(actor);
  return entry == nullptr ? 0 : entry->period_buffer.size();
}

bool AbstractScheduler::HasImmediateWork() { return GetNextActor() != nullptr; }

}  // namespace cwf
