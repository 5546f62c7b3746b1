#include "posix/predictor.hpp"

#include <algorithm>
#include <cstdlib>
#include <memory>

#include "posix/governor.hpp"

namespace altx::posix {

namespace {

double penv_double(const char* name, double fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return std::strtod(s, nullptr);
}

std::uint64_t penv_u64(const char* name, std::uint64_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return std::strtoull(s, nullptr, 0);
}

double clamp_q(double q) { return std::clamp(q, 0.0, 1.0); }

}  // namespace

const char* to_string(ArmDecision decision) {
  switch (decision) {
    case ArmDecision::kLaunch: return "launch";
    case ArmDecision::kHedge: return "hedge";
    case ArmDecision::kSkip: return "skip";
  }
  return "?";
}

PredictorConfig PredictorConfig::from_env() {
  PredictorConfig c;
  c.enabled = penv_u64("ALTX_PRED", 0) != 0;
  c.launch_q = clamp_q(penv_double("ALTX_PRED_LAUNCH_Q", c.launch_q));
  c.kill_q = clamp_q(penv_double("ALTX_PRED_KILL_Q", c.kill_q));
  c.hedge_ratio =
      std::max(1.0, penv_double("ALTX_PRED_HEDGE_RATIO", c.hedge_ratio));
  c.stage_slack =
      std::max(0.0, penv_double("ALTX_PRED_STAGE_SLACK", c.stage_slack));
  c.min_samples = static_cast<std::uint32_t>(
      penv_u64("ALTX_PRED_MIN_SAMPLES", c.min_samples));
  c.min_success =
      clamp_q(penv_double("ALTX_PRED_MIN_SUCCESS", c.min_success));
  c.max_stage_ms = penv_u64("ALTX_PRED_MAX_STAGE_MS", c.max_stage_ms);
  return c;
}

SpeculationPlanner::SpeculationPlanner(PredictorConfig cfg,
                                       const obs::HistoryStore* store)
    : cfg_(cfg), store_(store) {}

SpeculationPlan SpeculationPlanner::plan(std::uint64_t site_id, int n_alts,
                                         bool under_pressure) const {
  SpeculationPlan p;
  if (n_alts <= 0) return p;
  p.arms.resize(static_cast<std::size_t>(n_alts));
  for (int i = 0; i < n_alts; ++i) {
    p.arms[static_cast<std::size_t>(i)].arm =
        static_cast<std::uint32_t>(i) + 1;
  }
  p.launched = n_alts;
  if (store_ == nullptr || site_id == 0) return p;  // all-launch, inactive

  // Gather each arm's prediction. An arm below the sample floor stays cold:
  // predicted_wall_ns == 0 marks "no usable history".
  bool any_warm = false;
  for (ArmPlan& a : p.arms) {
    const obs::ArmStats* st = store_->find(site_id, a.arm);
    if (st == nullptr || st->total < cfg_.min_samples) continue;
    a.samples = st->total;
    a.success_rate = st->success_rate();
    a.predicted_wall_ns = std::max<std::uint64_t>(
        1, st->wall_quantile(cfg_.launch_q));
    a.kill_after_ns = std::max<std::uint64_t>(1, st->wall_quantile(cfg_.kill_q));
    any_warm = true;
  }
  if (!any_warm) return p;  // cold store ≡ predict-off plan
  p.active = true;

  // The leader: the warm arm with the lowest expected cost — predicted wall
  // inflated by unreliability (a 10 ms arm that wins half the time costs
  // 20 ms per answer in expectation). Ties break to the lowest arm index,
  // which keeps plans deterministic for a fixed store.
  double best = 0.0;
  for (const ArmPlan& a : p.arms) {
    if (a.predicted_wall_ns == 0) continue;
    const double cost = static_cast<double>(a.predicted_wall_ns) /
                        std::max(a.success_rate, 0.01);
    if (p.leader == 0 || cost < best) {
      best = cost;
      p.leader = static_cast<int>(a.arm);
    }
  }
  const ArmPlan& leader = p.arms[static_cast<std::size_t>(p.leader - 1)];
  const std::uint64_t stage_ns = std::min<std::uint64_t>(
      static_cast<std::uint64_t>(
          static_cast<double>(leader.predicted_wall_ns) * cfg_.stage_slack),
      cfg_.max_stage_ms * 1'000'000ULL);

  // Partition the rest. Cold arms always launch (exploration); warm arms
  // launch while their expected cost is within hedge_ratio of the leader's
  // (the PI gain of having them race covers their bandwidth charge), hedge
  // beyond it, and — under pressure only — skip when history says they
  // essentially never win. The comparison must use the same
  // unreliability-inflated cost as the leader election, not raw walls: a
  // perpetual loser's recorded wall is censored at elimination time (it
  // died when the leader committed), so by wall alone it looks exactly as
  // fast as the leader and would never be hedged.
  for (ArmPlan& a : p.arms) {
    if (static_cast<int>(a.arm) == p.leader) continue;
    if (a.predicted_wall_ns == 0) continue;  // cold: launch
    const double cost = static_cast<double>(a.predicted_wall_ns) /
                        std::max(a.success_rate, 0.01);
    const double ratio = cost / best;
    if (ratio <= cfg_.hedge_ratio) continue;  // cheap enough: launch
    if (under_pressure && cfg_.skip_enabled &&
        a.success_rate < cfg_.min_success) {
      a.decision = ArmDecision::kSkip;
      a.kill_after_ns = 0;  // nothing to kill: the arm does no work
    } else {
      a.decision = ArmDecision::kHedge;
      a.stage_after_ns = stage_ns;
      // The sleep does not count against the arm: its kill deadline starts
      // after the deferral, measured from fork like the wait loop does.
      a.kill_after_ns += stage_ns;
    }
  }
  for (const ArmPlan& a : p.arms) {
    switch (a.decision) {
      case ArmDecision::kLaunch: break;
      case ArmDecision::kHedge: ++p.hedged; break;
      case ArmDecision::kSkip: ++p.skipped; break;
    }
  }
  p.launched = n_alts - p.hedged - p.skipped;
  return p;
}

bool SpeculationPlanner::env_enabled() noexcept {
  static const bool on = penv_u64("ALTX_PRED", 0) != 0;
  return on;
}

SpeculationPlanner* SpeculationPlanner::global() noexcept {
  static const std::unique_ptr<SpeculationPlanner> g = [] {
    const PredictorConfig c = PredictorConfig::from_env();
    if (!c.enabled) return std::unique_ptr<SpeculationPlanner>();
    // The global planner reads whatever history store the process has; a
    // null store just means every plan comes back inactive until
    // ALTX_HISTORY (or a test) provides one.
    return std::make_unique<SpeculationPlanner>(c,
                                                obs::HistoryStore::global());
  }();
  return g.get();
}

bool governor_under_pressure(const SpeculationGovernor* gov) {
  if (gov == nullptr) return false;
  const GovernorConfig& c = gov->config();
  return c.tokens > 0 && gov->effective_tokens() < c.tokens;
}

}  // namespace altx::posix
