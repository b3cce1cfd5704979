#include "window/window_operator.h"

#include <algorithm>

namespace cwf {

WindowOperator::WindowOperator(WindowSpec spec) : spec_(std::move(spec)) {
  Status st = spec_.Validate();
  CWF_CHECK_MSG(st.ok(), "invalid WindowSpec: " << st.ToString());
  // Every group lives for the whole run (LRB keeps one per car and per
  // car/segment), so its fixed footprint is a per-group memory cost.
  static_assert(sizeof(GroupState) <= 128, "GroupState outgrew 128 bytes");
}

size_t GroupKeyHash::operator()(const GroupKey& key) const {
  uint64_t h = key.size();
  for (const Value& v : key) {
    h = (h ^ v.Hash()) * 0xBF58476D1CE4E5B9ULL;
    h ^= h >> 31;
  }
  return static_cast<size_t>(h);
}

Status WindowOperator::ExtractKey(const CWEvent& event, GroupKey* key) const {
  key->clear();
  if (spec_.group_by.empty()) {
    return Status::OK();
  }
  if (!event.token.is_record()) {
    return Status::InvalidArgument(
        "group-by window requires record tokens, got " +
        event.token.ToString());
  }
  const RecordPtr& rec = event.token.AsRecord();
  for (const std::string& field : spec_.group_by) {
    auto value = rec->Get(field);
    if (!value.ok()) {
      return Status::InvalidArgument("group-by field '" + field +
                                     "' missing from " + rec->ToString());
    }
    key->push_back(std::move(value).value());
  }
  return Status::OK();
}

Window WindowOperator::MakeWindow(GroupState* g, size_t count, bool consume) {
  Window w;
  w.group_key = g->group_key_token;
  // The ring may hold the events in two runs; one allocation takes both.
  w.events.reserve(count);
  if (consume) {
    g->queue.MoveFront(count, &w.events);
    pending_ -= count;
  } else {
    g->queue.CopyFront(count, &w.events);
  }
  return w;
}

Status WindowOperator::Put(const CWEvent& event, std::vector<Window>* out) {
  CWF_RETURN_NOT_OK(ExtractKey(event, &scratch_key_));
  auto [it, created] = groups_.try_emplace(scratch_key_);
  GroupState* g = &it->second;
  if (created && !spec_.group_by.empty()) {
    auto key_rec = std::make_shared<Record>();
    for (size_t i = 0; i < scratch_key_.size(); ++i) {
      key_rec->Set(spec_.group_by[i], scratch_key_[i]);
    }
    g->group_key_token = Token(RecordPtr(std::move(key_rec)));
  }

  switch (spec_.unit) {
    case WindowUnit::kTuples:
      PutTuple(g, event, out);
      break;
    case WindowUnit::kTime:
      PutTime(g, event, out);
      UpdateDeadline(g);
      break;
    case WindowUnit::kWaves:
      PutWave(g, event, out);
      break;
  }
  return Status::OK();
}

void WindowOperator::PutTuple(GroupState* g, const CWEvent& event,
                              std::vector<Window>* out) {
  if (g->skip_next > 0) {
    // step > size: this event falls in the gap between windows and will
    // never be part of one.
    --g->skip_next;
    expired_.push_back(event);
    return;
  }
  const size_t size = static_cast<size_t>(spec_.size);
  const size_t step = static_cast<size_t>(spec_.step);
  g->queue.push_back(event);
  ++pending_;
  while (g->queue.size() >= size) {
    // Consumption semantics (delete_used_events): the produced window uses
    // up its events.
    out->push_back(MakeWindow(g, size, spec_.delete_used_events));
    ++windows_produced_;
    if (!spec_.delete_used_events) {
      // Slide by `step`; whatever falls before the new window start has left
      // every future window and expires. If the step reaches past the queue
      // (step > size), remember how many upcoming events to skip.
      const size_t drop = std::min(step, g->queue.size());
      g->skip_next = step - drop;
      g->queue.MoveFront(drop, &expired_);
      pending_ -= drop;
    }
  }
}

void WindowOperator::PutTime(GroupState* g, const CWEvent& event,
                             std::vector<Window>* out) {
  const Duration size = spec_.size;
  const Duration step = spec_.step;
  if (!g->start_set) {
    // Epoch-align the first window so tumbling minutes land on minute
    // boundaries regardless of when the first event of the group arrives.
    g->window_start =
        Timestamp((event.timestamp.micros() / step) * step);
    g->start_set = true;
  }
  for (;;) {
    if (event.timestamp < g->window_start) {
      // Straggler: before the (possibly just advanced) current window.
      expired_.push_back(event);
      return;
    }
    if (event.timestamp < g->window_start + size) {
      g->queue.push_back(event);
      ++pending_;
      return;
    }
    if (g->queue.empty()) {
      // Nothing pending: fast-forward the window to cover the new event.
      const int64_t target = event.timestamp.micros();
      g->window_start = Timestamp((target / step) * step);
      // Ensure the event is inside [start, start+size).
      while (g->window_start + size <= event.timestamp) {
        g->window_start += step;
      }
      continue;
    }
    CloseTimeWindow(g, out);
  }
}

void WindowOperator::CloseTimeWindow(GroupState* g, std::vector<Window>* out) {
  if (!g->queue.empty()) {
    out->push_back(
        MakeWindow(g, g->queue.size(), spec_.delete_used_events));
    ++windows_produced_;
  }
  g->window_start += spec_.step;
  if (!spec_.delete_used_events) {
    size_t expire = 0;
    while (expire < g->queue.size() &&
           g->queue[expire].timestamp < g->window_start) {
      ++expire;
    }
    g->queue.MoveFront(expire, &expired_);
    pending_ -= expire;
  }
}

void WindowOperator::UpdateDeadline(GroupState* g) {
  Timestamp deadline = Timestamp::Max();
  if (spec_.unit == WindowUnit::kTime && spec_.formation_timeout >= 0 &&
      g->start_set && !g->queue.empty()) {
    deadline = g->window_start + spec_.size + spec_.formation_timeout;
  }
  if (deadline == g->registered_deadline) {
    return;
  }
  if (g->registered_deadline != Timestamp::Max()) {
    deadline_index_.erase(g->deadline_entry);
  }
  if (deadline != Timestamp::Max()) {
    g->deadline_entry = deadline_index_.emplace(deadline, g);
  }
  g->registered_deadline = deadline;
}

void WindowOperator::PutWave(GroupState* g, const CWEvent& event,
                             std::vector<Window>* out) {
  // The wave an event synchronizes under is its parent tag (events t.3.1 …
  // t.3.m synchronize as sub-wave t.3); a root external event is a complete
  // singleton wave by itself.
  WaveTag wave_id =
      event.wave.depth() == 0 ? event.wave : event.wave.Parent();
  if (!g->wave) {
    g->wave = std::make_unique<WaveState>();
  }
  WaveState& ws = *g->wave;
  // Wave-tag monotonicity: an event may not arrive for a wave that was
  // already consumed into a produced window — it could never be
  // synchronized, and its resurrected buffer would strand forever. Pending
  // (buffered or completed-but-unwindowed) waves legitimately interleave.
  CWF_DCHECK_MSG(
      !ws.has_consumed_frontier || ws.consumed_wave_frontier < wave_id ||
          ws.wave_buffers.count(wave_id) > 0 ||
          std::find(ws.completed_waves.begin(), ws.completed_waves.end(),
                    wave_id) != ws.completed_waves.end(),
      "wave-tag monotonicity violated: event "
          << event.wave.ToString() << " regresses behind consumed wave "
          << ws.consumed_wave_frontier.ToString());
  auto& buffer = ws.wave_buffers[wave_id];
  buffer.push_back(event);
  ++pending_;
  if (event.last_in_wave) {
    ws.wave_last_serial[wave_id] =
        event.wave.depth() == 0 ? 1 : event.wave.path().back();
  }
  auto last_it = ws.wave_last_serial.find(wave_id);
  if (last_it != ws.wave_last_serial.end() &&
      buffer.size() >= last_it->second) {
    ws.completed_waves.push_back(wave_id);
    ws.wave_last_serial.erase(last_it);
  }

  const size_t size = static_cast<size_t>(spec_.size);
  const size_t step = static_cast<size_t>(spec_.step);
  while (ws.completed_waves.size() >= size) {
    Window w;
    w.group_key = g->group_key_token;
    for (size_t i = 0; i < size; ++i) {
      const auto& events = ws.wave_buffers[ws.completed_waves[i]];
      w.events.insert(w.events.end(), events.begin(), events.end());
    }
    out->push_back(std::move(w));
    ++windows_produced_;
    const size_t drop =
        spec_.delete_used_events ? size
                                 : std::min(step, ws.completed_waves.size());
    for (size_t i = 0; i < drop; ++i) {
      const WaveTag& dropped = ws.completed_waves[i];
      if (!ws.has_consumed_frontier || ws.consumed_wave_frontier < dropped) {
        ws.consumed_wave_frontier = dropped;
        ws.has_consumed_frontier = true;
      }
      auto& events = ws.wave_buffers[dropped];
      pending_ -= events.size();
      if (!spec_.delete_used_events) {
        expired_.insert(expired_.end(), events.begin(), events.end());
      }
      ws.wave_buffers.erase(dropped);
    }
    ws.completed_waves.erase(ws.completed_waves.begin(),
                             ws.completed_waves.begin() + drop);
  }
}

Timestamp WindowOperator::NextDeadline() const {
  return deadline_index_.empty() ? Timestamp::Max()
                                 : deadline_index_.begin()->first;
}

void WindowOperator::OnTimeout(Timestamp now, std::vector<Window>* out) {
  if (spec_.unit != WindowUnit::kTime || spec_.formation_timeout < 0) {
    return;
  }
  while (!deadline_index_.empty() && deadline_index_.begin()->first <= now) {
    GroupState* g = deadline_index_.begin()->second;
    while (g->start_set && !g->queue.empty() &&
           g->window_start + spec_.size + spec_.formation_timeout <= now) {
      const size_t before = out->size();
      CloseTimeWindow(g, out);
      for (size_t i = before; i < out->size(); ++i) {
        (*out)[i].closed_by_timeout = true;
      }
    }
    UpdateDeadline(g);
  }
}

void WindowOperator::Flush(std::vector<Window>* out) {
  // The hash map has no order; flush is rare, so sort for ascending keys.
  std::vector<std::pair<const GroupKey*, GroupState*>> ordered;
  ordered.reserve(groups_.size());
  for (auto& [key, g] : groups_) {
    ordered.emplace_back(&key, &g);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) { return *a.first < *b.first; });
  for (const auto& entry : ordered) {
    GroupState& g = *entry.second;
    if (spec_.unit == WindowUnit::kWaves) {
      if (!g.wave) {
        continue;
      }
      // Emit any complete-but-unwindowed waves as one final bundle.
      WaveState& ws = *g.wave;
      Window w;
      w.group_key = g.group_key_token;
      for (const WaveTag& tag : ws.completed_waves) {
        auto& events = ws.wave_buffers[tag];
        w.events.insert(w.events.end(), events.begin(), events.end());
      }
      if (!w.events.empty()) {
        out->push_back(std::move(w));
        ++windows_produced_;
      }
      for (const auto& [tag, events] : ws.wave_buffers) {
        pending_ -= events.size();
      }
      ws.completed_waves.clear();
      ws.wave_buffers.clear();
      ws.wave_last_serial.clear();
      continue;
    }
    if (!g.queue.empty()) {
      // Flush empties the queue either way, so the window takes the events.
      out->push_back(MakeWindow(&g, g.queue.size(), /*consume=*/true));
      ++windows_produced_;
    }
    UpdateDeadline(&g);
  }
}

std::vector<CWEvent> WindowOperator::DrainExpired() {
  std::vector<CWEvent> out;
  out.swap(expired_);
  return out;
}

}  // namespace cwf
