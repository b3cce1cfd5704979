#include "directors/ddf_director.h"

#include "core/wait_graph.h"

#include "stream/stream_source.h"

namespace cwf {

DDFDirector::DDFDirector(DDFOptions options) : options_(options) {}

std::unique_ptr<Receiver> DDFDirector::CreateReceiver(InputPort* port) {
  return std::make_unique<WindowedReceiver>(port, port->spec());
}

void DDFDirector::FireTimeouts(Timestamp now) {
  for (const auto& actor : workflow_->actors()) {
    for (const auto& port : actor->input_ports()) {
      for (size_t c = 0; c < port->ChannelCount(); ++c) {
        Receiver* r = port->receiver(c);
        if (r != nullptr && r->NextDeadline() <= now) {
          r->OnTimeout(now);
        }
      }
    }
  }
}

Result<size_t> DDFDirector::FireReadyOnce() {
  size_t fired = 0;
  for (const auto& actor : workflow_->actors()) {
    Actor* a = actor.get();
    if (IsHalted(a)) {
      continue;
    }
    auto ready = a->Prefire();
    if (!ready.ok()) {
      return ready.status();
    }
    if (!ready.value()) {
      continue;
    }
    a->BeginFiring();
    ScopedCurrentActor current_actor(a);
    const Timestamp fire_start = clock_->Now();
    CWF_RETURN_NOT_OK(a->Fire());
    size_t emitted = 0;
    CWF_RETURN_NOT_OK(FlushActorOutputs(a, &emitted));
    a->IncrementFirings();
    ++total_firings_;
    ++fired;
    auto cont = a->Postfire();
    if (!cont.ok()) {
      return cont.status();
    }
    obs::FiringRecord record;
    record.actor = a;
    record.consumed = a->firing_context().events_consumed;
    record.emitted = emitted;
    record.start = fire_start;
    record.end = clock_->Now();
    record.cost = record.end - record.start;
    const FiringContext& fc = a->firing_context();
    record.wave = fc.valid ? &fc.wave : nullptr;
    telemetry_.RecordFiring(record);
    if (!cont.value()) {
      MarkHalted(a);
    }
  }
  return fired;
}

Status DDFDirector::Run(Timestamp until) {
  if (!initialized_) {
    return Status::FailedPrecondition("DDFDirector::Run before Initialize");
  }
  uint64_t fired_this_run = 0;
  for (;;) {
    FireTimeouts(clock_->Now());
    CWF_ASSIGN_OR_RETURN(size_t fired, FireReadyOnce());
    fired_this_run += fired;
    if (options_.max_firings_per_run != 0 &&
        fired_this_run > options_.max_firings_per_run) {
      return Status::ResourceExhausted(
          "DDF fired more than max_firings_per_run; livelock?");
    }
    if (fired > 0) {
      continue;
    }
    // Quiescent at the current instant. Advance virtual time to the next
    // scheduled wakeup if one exists within the horizon.
    const Timestamp next = NextWakeup();
    if (!clock_->is_virtual() || next == Timestamp::Max() || next > until ||
        next <= clock_->Now()) {
      break;
    }
    clock_->AdvanceTo(next);
  }
  return Status::OK();
}

}  // namespace cwf
