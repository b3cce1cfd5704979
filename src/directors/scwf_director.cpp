#include "directors/scwf_director.h"

#include "core/wait_graph.h"

#include <chrono>
#include <thread>

namespace cwf {

SCWFDirector::SCWFDirector(std::unique_ptr<AbstractScheduler> scheduler)
    : scheduler_(std::move(scheduler)) {
  CWF_CHECK_MSG(scheduler_ != nullptr, "SCWFDirector needs a scheduler");
}

Status SCWFDirector::Initialize(Workflow* workflow, Clock* clock,
                                const CostModel* cost_model) {
  if (clock != nullptr && clock->is_virtual() && cost_model == nullptr) {
    return Status::InvalidArgument(
        "virtual-clock execution requires a cost model");
  }
  all_receivers_.clear();
  total_firings_ = 0;
  director_iterations_ = 0;
  CWF_RETURN_NOT_OK(Director::Initialize(workflow, clock, cost_model));
  // Fresh statistics per initialization (stale cost/selectivity figures
  // must not steer the scheduler of a relaunched workflow).
  stats_.Initialize(*workflow);
  std::vector<Actor*> actors;
  actors.reserve(workflow->actors().size());
  for (const auto& actor : workflow->actors()) {
    actors.push_back(actor.get());
  }
  CWF_RETURN_NOT_OK(scheduler_->Initialize(this, actors));
  return Status::OK();
}

std::unique_ptr<Receiver> SCWFDirector::CreateReceiver(InputPort* port) {
  auto receiver = std::make_unique<TMWindowedReceiver>(
      port, port->spec(),
      [this](TMWindowedReceiver* r, Window w) {
        OnWindowReady(r, std::move(w));
      });
  all_receivers_.push_back(receiver.get());
  return receiver;
}

void SCWFDirector::OnWindowReady(TMWindowedReceiver* receiver, Window window) {
  ReadyWindow rw;
  rw.receiver = receiver;
  rw.window = std::move(window);
  scheduler_->Enqueue(receiver->port()->actor(), std::move(rw));
}

bool SCWFDirector::SourceHasData(const Actor* actor) const {
  if (const auto* src = dynamic_cast<const TimedSource*>(actor)) {
    return src->NextPendingArrival() <= clock_->Now();
  }
  // Non-stream sources (generators with no timing) are always ready unless
  // halted.
  return !IsHalted(actor);
}

Status SCWFDirector::FireTimeouts(Timestamp now) {
  for (Receiver* r : all_receivers_) {
    if (r->NextDeadline() <= now) {
      r->OnTimeout(now);  // produced windows flow through OnWindowReady
    }
  }
  // Composites holding expired inner deadlines must run even with no queued
  // window; dispatch them directly.
  for (const auto& actor : workflow_->actors()) {
    if (!IsHalted(actor.get()) && actor->NextDeadline() <= now) {
      CWF_RETURN_NOT_OK(DispatchActor(actor.get()));
    }
  }
  return Status::OK();
}

Status SCWFDirector::DispatchActor(Actor* actor) {
  // Profile cells were resolved at Bind; the branch keeps the disabled cost
  // to one relaxed load (no map lookup).
  const obs::WorkflowTelemetry::ActorProfileSites sites =
      obs::ProfilingEnabled() ? telemetry_.ProfileSitesFor(actor)
                              : obs::WorkflowTelemetry::ActorProfileSites{};
  // Deliver queued windows onto the actor's receiver buffers until its
  // firing precondition holds (one window in the common single-input case).
  bool can_fire = false;
  {
    CWF_PROFILE_SCOPE(sites.prefire);
    auto ready = actor->Prefire();
    if (!ready.ok()) {
      return ready.status();
    }
    can_fire = ready.value();
    while (!can_fire) {
      std::optional<ReadyWindow> rw = scheduler_->PopWindow(actor);
      if (!rw.has_value()) {
        break;
      }
      rw->receiver->DeliverBuffered(std::move(rw->window));
      auto again = actor->Prefire();
      if (!again.ok()) {
        return again.status();
      }
      can_fire = again.value();
    }
  }

  Duration cost = 0;
  bool fired = false;
  if (can_fire) {
    actor->BeginFiring();
    // Attribute CHECK-fail context (token/record accessors) to this actor.
    ScopedCurrentActor current_actor(actor);
    const Timestamp fire_start = clock_->Now();
    size_t emitted = 0;
    {
      CWF_PROFILE_SCOPE(sites.fire);
      CWF_RETURN_NOT_OK(actor->Fire());
      CWF_RETURN_NOT_OK(FlushActorOutputs(actor, &emitted));
    }
    const size_t consumed = actor->firing_context().events_consumed;
    if (clock_->is_virtual()) {
      cost = cost_model_->FiringCost(actor->name(), consumed, emitted);
      clock_->AdvanceBy(cost + cost_model_->scheduled_dispatch_overhead);
    } else {
      cost = clock_->Now() - fire_start;
    }
    actor->IncrementFirings();
    ++total_firings_;
    fired = true;
    // Surface the receiver high-water marks (max over input receivers) as
    // the cwf_actor_queue_hwm gauge, the runtime counterpart of the
    // planner's per-channel bound. The gauge is its only reader, so the
    // walk runs only when metrics are live.
    if (telemetry_.metrics_active()) {
      uint64_t high_water = 0;
      for (const auto& port : actor->input_ports()) {
        for (size_t c = 0; c < port->ChannelCount(); ++c) {
          const Receiver* r = port->receiver(c);
          if (r != nullptr && r->high_water_mark() > high_water) {
            high_water = r->high_water_mark();
          }
        }
      }
      telemetry_.RecordQueueDepth(actor, high_water);
    }
    auto cont = [&] {
      CWF_PROFILE_SCOPE(sites.postfire);
      return actor->Postfire();
    }();
    if (!cont.ok()) {
      return cont.status();
    }
    obs::FiringRecord record;
    record.actor = actor;
    record.cost = cost;
    record.consumed = consumed;
    record.emitted = emitted;
    record.start = fire_start;
    record.end = clock_->Now();
    const FiringContext& fc = actor->firing_context();
    record.wave = fc.valid ? &fc.wave : nullptr;
    stats_.OnFiring(actor, cost, consumed, emitted);
    telemetry_.RecordFiring(record);
    if (!cont.value()) {
      MarkHalted(actor);
    }
  }
  scheduler_->OnActorFired(actor, cost, fired);
  return Status::OK();
}

Status SCWFDirector::Run(Timestamp until) {
  if (!initialized_) {
    return Status::FailedPrecondition("SCWFDirector::Run before Initialize");
  }
  static const obs::ProfileSite* dispatch_site = obs::Profiler::Global().Site(
      "<scheduler>", obs::ProfilePhase::kSchedulerDispatch);
  CWF_PROFILE_WALL_SCOPE();
  constexpr uint64_t kMaxIdleIterations = 1000000;
  uint64_t idle_iterations = 0;
  for (;;) {
    // ---- one director iteration ----
    scheduler_->OnIterationStart();
    ++director_iterations_;
    while (clock_->Now() <= until) {
      Actor* next = nullptr;
      {
        // Scheduler-dispatch phase: timer service + policy pick + decision
        // bookkeeping. Deadline-driven dispatches inside FireTimeouts nest
        // their own prefire/fire scopes and are subtracted from this one.
        CWF_PROFILE_SCOPE(dispatch_site);
        CWF_RETURN_NOT_OK(FireTimeouts(clock_->Now()));
        next = scheduler_->GetNextActor();
        if (next != nullptr &&
            (telemetry_.metrics_active() || obs::TracingEnabled())) {
          telemetry_.RecordDecision(next, scheduler_->TotalQueuedEvents(),
                                    clock_->Now());
        }
      }
      if (next == nullptr) {
        break;
      }
      if (IsHalted(next)) {
        // Drop its pending work so the scheduler does not spin on it.
        while (scheduler_->PopWindow(next).has_value()) {
        }
        scheduler_->OnActorFired(next, 0, false);
        continue;
      }
      CWF_RETURN_NOT_OK(DispatchActor(next));
    }
    scheduler_->OnIterationEnd();

    if (clock_->Now() > until) {
      break;
    }
    if (scheduler_->HasImmediateWork()) {
      idle_iterations = 0;
      continue;
    }
    if (scheduler_->TotalQueuedEvents() > 0) {
      // Nothing ACTIVE yet but events remain queued (e.g. every quantum
      // actor is WAITING): keep iterating — the policy's end-of-iteration
      // maintenance (re-quantification, period release) will activate them.
      if (++idle_iterations > kMaxIdleIterations) {
        return Status::ResourceExhausted(
            "scheduler '" + std::string(scheduler_->name()) +
            "' made no progress over " + std::to_string(kMaxIdleIterations) +
            " iterations with events queued");
      }
      continue;
    }
    idle_iterations = 0;
    // Quiescent: advance (or wait) to the next timer if any.
    const Timestamp next = NextWakeup();
    if (next == Timestamp::Max() || next > until) {
      break;
    }
    if (clock_->is_virtual()) {
      if (next > clock_->Now()) {
        clock_->AdvanceTo(next);
      }
    } else {
      const Duration gap = next - clock_->Now();
      if (gap > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(
            std::min<Duration>(gap, Millis(10))));
      }
    }
  }
  return Status::OK();
}

}  // namespace cwf
