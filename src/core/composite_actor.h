// Hierarchical composition: an actor whose behaviour is an inner workflow
// run by its own (inner) director.
//
// This mirrors the paper's two-level Linear Road structure: the top level is
// governed by a continuous-workflow director (PNCWF or a STAFiLOS SCWF)
// while second-level sub-workflows ("detect stopped cars", "count cars per
// segment", …) are governed by SDF or DDF directors.
//
// Boundary semantics: events crossing into the composite keep their outer
// stamps; events produced by the inner workflow are re-stamped at the
// boundary as outputs of the composite's firing (the composite is one task
// in the outer wave hierarchy).

#ifndef CONFLUENCE_CORE_COMPOSITE_ACTOR_H_
#define CONFLUENCE_CORE_COMPOSITE_ACTOR_H_

#include <memory>
#include <optional>
#include <vector>

#include "core/actor.h"
#include "core/director.h"
#include "core/workflow.h"

namespace cwf {

/// \brief Receiver that simply accumulates events for boundary collection.
class CollectorReceiver : public Receiver {
 public:
  using Receiver::Receiver;

  Status Put(const CWEvent& event) override {
    events_.push_back(event);
    return Status::OK();
  }
  bool HasWindow() const override { return false; }
  std::optional<Window> Get() override { return std::nullopt; }
  size_t ReadyWindowCount() const override { return 0; }

  /// \brief Remove and return everything collected so far.
  std::vector<CWEvent> Drain() {
    std::vector<CWEvent> out;
    out.swap(events_);
    return out;
  }

 private:
  std::vector<CWEvent> events_;
};

/// \brief An actor implemented by an inner workflow + director.
class CompositeActor : public Actor {
 public:
  /// \brief `inner_director` defines the inner model of computation (SDF or
  /// DDF in the paper's usage).
  CompositeActor(std::string name, std::unique_ptr<Director> inner_director);
  ~CompositeActor() override;

  /// \brief The inner workflow to populate before initialization.
  Workflow* inner() { return &inner_workflow_; }
  const Workflow* inner() const { return &inner_workflow_; }

  Director* inner_director() { return inner_director_.get(); }
  const Director* inner_director() const { return inner_director_.get(); }

  /// \brief Declare an outer input port relaying into `inner_port` of an
  /// inner actor. `outer_spec` is the window semantics applied at the outer
  /// boundary (default: pass each event through individually).
  InputPort* ExposeInput(const std::string& name, InputPort* inner_port,
                         WindowSpec outer_spec = WindowSpec::SingleEvent());

  /// \brief Declare an outer output port fed by `inner_port` of an inner
  /// actor.
  OutputPort* ExposeOutput(const std::string& name, OutputPort* inner_port);

  Status Initialize(ExecutionContext* ctx) override;

  /// \brief Ready when an outer window is available *or* an inner timed
  /// window's formation deadline has passed (the inner workflow must run to
  /// close it even without new input).
  Result<bool> Prefire() override;

  /// \brief Earliest inner wakeup (source arrival or window deadline).
  Timestamp NextDeadline() const override {
    return inner_director_->NextWakeup();
  }

  /// \brief Relay ready outer windows inward, run the inner workflow to
  /// quiescence, relay collected inner outputs outward.
  Status Fire() override;

  Status Wrapup() override;

  /// \brief The inner input port an outer input port relays into, or
  /// nullptr when `outer` is not one of this composite's exposed inputs.
  /// The schema pass uses the boundary map to propagate types across the
  /// composite (outer channel type → inner port, inner resolved output
  /// type → outer port).
  InputPort* BoundInnerInput(const InputPort* outer) const;

  /// \brief The inner output port feeding an outer output port, or nullptr.
  OutputPort* BoundInnerOutput(const OutputPort* outer) const;

 private:
  struct InputBinding {
    InputPort* outer = nullptr;
    InputPort* inner = nullptr;
    Receiver* inner_receiver = nullptr;  // owned by the inner port
    /// Inner-port channel holding the boundary receiver, claimed on the
    /// first Initialize and reused by later ones.
    std::optional<size_t> channel;
  };
  struct OutputBinding {
    OutputPort* outer = nullptr;
    OutputPort* inner = nullptr;
    std::unique_ptr<InputPort> collector_port;
    std::unique_ptr<CollectorReceiver> collector;
  };

  Workflow inner_workflow_;
  std::unique_ptr<Director> inner_director_;
  std::vector<InputBinding> input_bindings_;
  std::vector<OutputBinding> output_bindings_;
};

}  // namespace cwf

#endif  // CONFLUENCE_CORE_COMPOSITE_ACTOR_H_
