// Hot-standby controller replica (controller high availability). The
// standby does not talk to any switch: it mirrors the primary's
// *advertisement / subscription intent* by recording the primary's command
// stream (Controller::setIntentObserver) into a replicated log. On
// promotion it replays that log against a fresh Controller whose control
// channel is muted — the replay rebuilds trees, path registry, and
// per-switch flow mirror purely in memory, with zero wire traffic — after
// which the FailoverManager reconciles the mirrored intent against actual
// switch state and repairs only the delta (no global flush).
//
// Replay fidelity rests on two primary-side properties: requests are
// processed strictly sequentially, and registration ids come from monotonic
// counters. Replaying the full history from an *empty* controller therefore
// reproduces ids and derived state exactly (asserted per command). A
// mid-stream snapshot would not — tree shapes depend on the operation
// interleaving — so a standby must attach before the primary registers
// anything (asserted at construction).
#pragma once

#include <memory>
#include <vector>

#include "controller/controller.hpp"
#include "controller/intent_log.hpp"

namespace pleroma::ctrl {

class StandbyController {
 public:
  /// Attaches to (and starts following) `primary`, which must not have
  /// processed any registration yet. Copies the primary's event space,
  /// scope, and configuration so the promoted replica is built against the
  /// same deployment parameters.
  explicit StandbyController(Controller& primary);

  /// Standby for an already-promoted controller (failover churn): inherits
  /// the predecessor standby's log — which `promoted` was built from — and
  /// follows `promoted` from there, so a second failover replays the full
  /// combined history.
  StandbyController(Controller& promoted, const StandbyController& predecessor);

  /// Detaches the observer from the followed controller. Lifetime
  /// contract: a still-following standby must be destroyed (or promoted,
  /// which stops following) before the controller it follows.
  ~StandbyController();
  StandbyController(const StandbyController&) = delete;
  StandbyController& operator=(const StandbyController&) = delete;

  /// Builds the promoted replica: a fresh Controller over the same network
  /// and scope whose channel is muted while the whole log replays (one
  /// MutationScope, so a periodic reconciler cannot audit the half-built
  /// mirror). The returned controller's mirror equals the dead primary's
  /// intent; its channel is unmuted and ready for reconciliation. The
  /// standby stops following its source controller.
  std::unique_ptr<Controller> promote();

  std::size_t logSize() const noexcept { return log_.size(); }
  const std::vector<IntentCommand>& log() const noexcept { return log_; }

 private:
  void follow(Controller& source);
  static void replay(Controller& target, const IntentCommand& cmd);

  dz::EventSpace space_;
  net::Network& network_;
  Scope scope_;
  ControllerConfig config_;
  Controller* source_;  ///< the controller being followed (observer owner)
  std::vector<IntentCommand> log_;
};

}  // namespace pleroma::ctrl
