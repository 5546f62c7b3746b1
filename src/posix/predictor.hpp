// SpeculationPlanner: prediction-driven speculation budgeting.
//
// The paper's PI model (§4.2) ranks alternatives statically; this is its
// online form — a CBS-style controller in the spirit of constant-bandwidth
// servers with per-task runtime prediction. At race start the planner reads
// each arm's wall-time quantiles and success rate from the per-arm history
// store (obs/history.hpp, fed by race<T>() via RaceOptions::site_id) and
// partitions the arms:
//
//   launch  — the predicted PI gain exceeds the arm's bandwidth charge:
//             the leader (cheapest expected cost = predicted wall divided
//             by success rate), every arm within hedge_ratio of it, and —
//             unconditionally — every arm with no usable history yet
//             (exploration: a cold arm must run to earn a prediction).
//   hedge   — an arm predicted much slower than the leader is deferred via
//             the hedged.hpp machinery: its child sleeps until the leader
//             has overrun its own predicted quantile (times stage_slack),
//             then runs. A fast leader commit eliminates the sleeper for
//             nearly free; a slow leader still gets its backup.
//   skip    — only under governor-reported memory/CPU pressure: dominated
//             arms (history says they essentially never win) have their
//             guard short-circuited to FAIL without running the method.
//
// Separately, each warm arm gets an early-kill deadline — its own
// historical ALTX_PRED_KILL_Q quantile (default p99). The race's own wait
// loop (AltGroup::alt_wait) escalates arms past their deadline as
// ChildFate::kPredictedLoser, with or without a governor, while the parent
// is inside alt_wait — never an arm with no history and never the race's
// last running arm (a hedge still asleep in its deferral does not count,
// nor does a skipped arm).
//
// The plan is a pure function of (config, history snapshot, pressure):
// given a fixed store it is deterministic, and with a cold store it
// degenerates to "launch everything" — exactly the predict-off plan — which
// is what makes the policy observation-equivalent to the unconditional
// semantics (every arm still runs, merely later or under a deadline that
// spares the last survivor).
//
// Env knobs (all read once, see PredictorConfig::from_env; off by default):
//   ALTX_PRED=1                 enable planning for every race with a site_id
//   ALTX_PRED_LAUNCH_Q          leader quantile used as its expected wall
//                               (default 0.5)
//   ALTX_PRED_KILL_Q            early-kill quantile (default 0.99)
//   ALTX_PRED_HEDGE_RATIO       hedge arms whose expected cost (wall over
//                               success rate) is this many times the
//                               leader's (default 4.0)
//   ALTX_PRED_STAGE_SLACK       stage delay = leader quantile x this
//                               (default 1.25)
//   ALTX_PRED_MIN_SAMPLES       history floor before an arm is predictable
//                               (default 3)
//   ALTX_PRED_MIN_SUCCESS       under pressure, skip hedged arms whose
//                               success rate is below this (default 0.02)
//   ALTX_PRED_MAX_STAGE_MS      clamp on the stage delay (default 10000)
#pragma once

#include <cstdint>
#include <vector>

#include "obs/history.hpp"

namespace altx::posix {

class SpeculationGovernor;

struct PredictorConfig {
  bool enabled = false;     // ALTX_PRED=1
  double launch_q = 0.5;    // leader's expected-wall quantile
  double kill_q = 0.99;     // early-kill quantile
  double hedge_ratio = 4.0; // bandwidth charge: hedge past leader x ratio
  double stage_slack = 1.25;
  std::uint32_t min_samples = 3;
  double min_success = 0.02;
  std::uint64_t max_stage_ms = 10'000;

  /// When false the planner never emits kSkip, whatever the pressure says.
  /// The checker runs with skips off: a skip short-circuits a guard, which
  /// is only oracle-admissible when the history is real, not injected.
  bool skip_enabled = true;

  /// Reads the ALTX_PRED_* knobs.
  static PredictorConfig from_env();
};

enum class ArmDecision : std::uint8_t {
  kLaunch = 0,  // fork and run immediately
  kHedge = 1,   // fork, but sleep out the stage delay before running
  kSkip = 2,    // fork, but short-circuit the guard to FAIL (pressure only)
};

const char* to_string(ArmDecision decision);

/// The plan for one alternative (1-based arm index).
struct ArmPlan {
  std::uint32_t arm = 0;
  ArmDecision decision = ArmDecision::kLaunch;
  std::uint64_t predicted_wall_ns = 0;  // launch_q quantile (0 = no history)
  std::uint64_t kill_after_ns = 0;      // kill_q quantile (0 = never killed)
  std::uint64_t stage_after_ns = 0;     // hedge only: deferral sleep
  double success_rate = 0.0;
  std::uint32_t samples = 0;
};

struct SpeculationPlan {
  /// True when at least one arm had usable history — predictions are in
  /// play. False (cold store, no store, site 0, predictor disabled) means
  /// the plan is all-launch with no deadlines: identical to predict-off.
  bool active = false;

  std::vector<ArmPlan> arms;  // one per alternative, index order
  int leader = 0;             // 1-based arm the plan bets on (0 = none)
  int launched = 0;
  int hedged = 0;
  int skipped = 0;

  [[nodiscard]] const ArmPlan* plan_for(std::uint32_t arm) const noexcept {
    const std::size_t i = arm - 1;
    return arm >= 1 && i < arms.size() ? &arms[i] : nullptr;
  }
};

class SpeculationPlanner {
 public:
  /// `store` may be nullptr (plans are then always inactive); the planner
  /// never writes to it. The store must outlive the planner.
  explicit SpeculationPlanner(PredictorConfig cfg,
                              const obs::HistoryStore* store);

  [[nodiscard]] const PredictorConfig& config() const { return cfg_; }

  /// Partitions `n_alts` arms of `site_id`. `under_pressure` is the
  /// governor's report (effective budget below base); it only ever enables
  /// kSkip. Pure: same (site, store contents, pressure) → same plan.
  [[nodiscard]] SpeculationPlan plan(std::uint64_t site_id, int n_alts,
                                     bool under_pressure) const;

  /// True when ALTX_PRED=1 (cached after the first call).
  static bool env_enabled() noexcept;

  /// The env-configured planner over the global history store; nullptr
  /// unless ALTX_PRED=1. Built on first use.
  static SpeculationPlanner* global() noexcept;

 private:
  PredictorConfig cfg_;
  const obs::HistoryStore* store_;
};

/// The governor's pressure signal as the planner consumes it: the effective
/// token budget has been shrunk below the configured base. False without a
/// governor (no pressure source = no skipping).
[[nodiscard]] bool governor_under_pressure(const SpeculationGovernor* gov);

}  // namespace altx::posix
