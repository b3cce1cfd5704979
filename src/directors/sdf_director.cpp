#include "directors/sdf_director.h"

#include "core/wait_graph.h"

#include <utility>

#include "analysis/sdf_balance.h"

namespace cwf {

Status SDFDirector::Initialize(Workflow* workflow, Clock* clock,
                               const CostModel* cost_model) {
  CWF_RETURN_NOT_OK(Director::Initialize(workflow, clock, cost_model));
  CWF_ASSIGN_OR_RETURN(analysis::SdfSolution solution,
                       analysis::SolveSdf(*workflow));
  repetitions_ = std::move(solution.repetitions);
  schedule_ = std::move(solution.schedule);
  return Status::OK();
}

std::unique_ptr<Receiver> SDFDirector::CreateReceiver(InputPort* port) {
  return std::make_unique<WindowedReceiver>(port, port->spec());
}

Result<int64_t> SDFDirector::Repetitions(const Actor* actor) const {
  auto it = repetitions_.find(actor);
  if (it == repetitions_.end()) {
    return Status::NotFound("actor '" + actor->name() +
                            "' not in SDF repetition vector");
  }
  return it->second;
}

Status SDFDirector::Run(Timestamp until) {
  if (!initialized_) {
    return Status::FailedPrecondition("SDFDirector::Run before Initialize");
  }
  (void)until;
  // Execute schedule iterations while at least one actor of the iteration
  // can actually fire (runtime data may run short of the static rates —
  // e.g. boundary inputs of a composite — in which case ready actors fire
  // and starved ones are skipped; a pass firing nothing terminates).
  for (;;) {
    size_t fired = 0;
    for (Actor* a : schedule_) {
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
    if (fired == 0) {
      break;
    }
  }
  return Status::OK();
}

}  // namespace cwf
