// SpeculationGovernor: resource governance for speculative arms.
//
// The paper's bet (§3.1) assumes spare capacity is free; a production
// process racing N alternatives per block can fork-bomb itself — losers
// burn CPU and dirty pages until elimination, and nothing bounds the
// *aggregate* when many blocks race concurrently. The governor is the
// containment layer (Randell's recovery-block confinement, plus the hedged
// -request discipline of Dean & Barroso) with three duties:
//
//   1. Per-arm quotas. Children get RLIMIT_CPU / RLIMIT_AS at fork, and the
//      race's own wait loop (AltGroup::alt_wait, one ppoll over the result
//      pipe and the arms' pidfds) escalates SIGTERM → SIGKILL on arms that
//      exceed a wall-clock or CPU budget (live CPU read from
//      /proc/<pid>/stat; the final bill still comes from wait4 at reap).
//      The governor holds the budgets; it runs no thread of its own, so
//      budgets hold while the parent is inside alt_wait — in every process
//      that races, forked arms and altxd workers included.
//
//   2. Global admission control. A token budget caps concurrent speculative
//      children across *all* blocks of the process tree (the pool lives in
//      MAP_SHARED memory, so nested blocks inside forked arms draw from the
//      same pool). A block that cannot get its n tokens within the bounded
//      admission wait is denied — AdmissionTimeout — and the supervisor
//      degrades it to serialized execution: the arms run one at a time,
//      each still fork-isolated, so the paper's §3.4 source/sink discipline
//      survives degradation. Single-token requests wait much longer and may
//      finally overdraft the pool: one child is the paper's own sequential
//      semantics — the floor, never zero — so the governor can throttle
//      speculation to sequential but can never wedge the program.
//
//   3. Pressure-driven shedding. /proc/pressure/{memory,cpu} PSI (fallback:
//      /proc/meminfo MemAvailable; fake-able via ALTX_PSI_PATH for tests)
//      is sampled lazily — from admit() and from the wait loops, at most
//      once per pressure_interval across the process tree — and shrinks the
//      effective token budget as stall fractions climb. At the kill
//      threshold a racing parent sheds its own lowest-PI live arm (the
//      highest alternative index — alternatives are PI-ordered per §4.2),
//      never its last live arm; the shared pool grants one shed per
//      pressure_interval to the whole tree.
//
// Everything is opt-in: without ALTX_GOV_* in the environment (or a
// programmatic config) global() is nullptr and every call site costs one
// null check.
//
// Env knobs (see GovernorConfig::from_env):
//   ALTX_GOV_TOKENS         concurrent speculative children cap (0 = off)
//   ALTX_GOV_ADMIT_WAIT_MS  bounded admission wait for multi-arm blocks
//   ALTX_GOV_WALL_MS        per-arm wall-clock budget (0 = none)
//   ALTX_GOV_CPU_MS         per-arm CPU budget (0 = none)
//   ALTX_GOV_POLL_MS        live-CPU sample period of the wait loop
//   ALTX_GOV_RLIMIT_CPU_S   child RLIMIT_CPU seconds (0 = unset)
//   ALTX_GOV_RLIMIT_AS_MB   child RLIMIT_AS MiB (0 = unset)
//   ALTX_KILL_GRACE_MS      SIGTERM → SIGKILL escalation grace (default 0)
//   ALTX_PSI_PATH           read PSI from this file instead of /proc
//   ALTX_GOV_PSI_SHED       stall %% where the budget starts shrinking
//   ALTX_GOV_PSI_KILL       stall %% where live arms are shed
#pragma once

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <string>

#include "common/error.hpp"

namespace altx::posix {

struct GovernorConfig {
  /// Concurrent speculative children across every block (0 = admission off).
  int tokens = 0;

  /// How long a multi-arm (n >= 2) admission request may queue before it is
  /// denied and the block degrades. Requests wider than `tokens` can never
  /// fit and are denied without queueing.
  std::chrono::milliseconds admit_wait{250};

  /// Patience for single-token requests before the liveness overdraft.
  std::chrono::milliseconds serial_admit_wait{30'000};

  /// Per-arm budgets, enforced by each race's wait loop; 0 disables the
  /// respective check.
  std::chrono::milliseconds arm_wall_budget{0};
  std::chrono::milliseconds arm_cpu_budget{0};

  /// SIGTERM → SIGKILL escalation window for budget, shed and predicted
  /// kills (0 = straight SIGKILL, the pre-governor behavior).
  std::chrono::milliseconds kill_grace{0};

  /// Hard kernel-side backstops applied in the child right after fork.
  std::uint64_t rlimit_cpu_s = 0;   // RLIMIT_CPU, seconds (0 = leave alone)
  std::uint64_t rlimit_as_mb = 0;   // RLIMIT_AS, MiB (0 = leave alone)

  /// Pressure monitoring. psi_path overrides the /proc sources (tests point
  /// it at a fixture file); thresholds are avg10 stall percentages.
  std::string psi_path;
  double psi_shed_pct = 60.0;   // budget starts shrinking here
  double psi_kill_pct = 90.0;   // lowest-PI arms are shed here
  double mem_floor_pct = 8.0;   // meminfo fallback: MemAvailable floor

  /// Live-CPU sample period of the wait loop (only with arm_cpu_budget).
  /// Wall, predicted-kill and race deadlines need no sampling: they fire
  /// exactly at the loop's ppoll timeout.
  std::chrono::milliseconds poll_interval{5};
  /// PSI sample period, and the tree-wide minimum gap between two sheds.
  std::chrono::milliseconds pressure_interval{100};

  /// Reads the ALTX_GOV_* / ALTX_KILL_GRACE_MS / ALTX_PSI_PATH knobs.
  static GovernorConfig from_env();

  /// True when any duty (admission, budgets, rlimits) is configured.
  [[nodiscard]] bool any_enabled() const {
    return tokens > 0 || arm_wall_budget.count() > 0 ||
           arm_cpu_budget.count() > 0 || rlimit_cpu_s > 0 || rlimit_as_mb > 0;
  }
};

/// Thrown by alt_spawn when the admission wait expired without tokens. The
/// supervisor treats it as the degrade signal, not an error: the block runs
/// serialized instead.
class AdmissionTimeout : public SystemError {
 public:
  explicit AdmissionTimeout(int requested)
      : SystemError("governor admission (requested " +
                        std::to_string(requested) + " tokens)",
                    EAGAIN) {}
};

enum class Admission : std::uint8_t {
  kGranted,    // tokens taken from the pool
  kOverdraft,  // single-token liveness grant past the pool cap
  kDenied,     // wait expired (n >= 2 only)
};

enum class GovKillReason : std::uint8_t {
  kWall = 0,  // wall-clock budget exceeded
  kCpu = 1,   // CPU budget exceeded
  kShed = 2,  // pressure shed (lowest-PI live arm)
  kPredicted = 3,  // elapsed wall overran the arm's own historical kill
                   // quantile (predictor's early-kill rule)
};

const char* to_string(GovKillReason reason);

/// What the pressure sources said, one sample.
struct PressureSample {
  bool valid = false;
  double mem_stall_pct = 0.0;    // PSI memory "some" avg10
  double cpu_stall_pct = 0.0;    // PSI cpu "some" avg10
  double mem_available_pct = -1; // meminfo fallback; -1 = unknown
};

/// Parses PSI ("some avg10=X ...") from `psi_override` when non-empty, else
/// /proc/pressure/{memory,cpu}, else the /proc/meminfo fallback. Exposed
/// for tests.
[[nodiscard]] PressureSample read_pressure(const std::string& psi_override);

struct GovernorStats {
  std::uint64_t admitted = 0;
  std::uint64_t waited = 0;      // admissions that had to queue first
  std::uint64_t denied = 0;
  std::uint64_t overdrafts = 0;
  std::uint64_t reclaimed = 0;   // tokens returned from dead holders
  std::uint64_t kills_wall = 0;
  std::uint64_t kills_cpu = 0;
  std::uint64_t kills_shed = 0;
  std::uint64_t kills_predicted = 0;
  std::uint64_t term_escalations = 0;  // SIGTERMs that needed the SIGKILL
  std::uint64_t degradations = 0;      // blocks run serialized
  std::uint64_t pressure_shrinks = 0;  // budget reductions applied
  int in_flight = 0;
  int max_in_flight = 0;       // high-water mark, including overdrafts
  int effective_tokens = 0;    // budget after pressure shrink
};

class SpeculationGovernor {
 public:
  explicit SpeculationGovernor(GovernorConfig cfg);
  ~SpeculationGovernor();

  SpeculationGovernor(const SpeculationGovernor&) = delete;
  SpeculationGovernor& operator=(const SpeculationGovernor&) = delete;

  [[nodiscard]] const GovernorConfig& config() const { return cfg_; }
  [[nodiscard]] bool admission_enabled() const { return cfg_.tokens > 0; }

  /// Takes n tokens, queueing up to the configured wait. kDenied only for
  /// n >= 2 — a single-token request waits serial_admit_wait and then
  /// overdrafts, so sequential progress is always possible.
  Admission admit(int n);

  /// Returns n tokens to the pool.
  void release(int n);

  /// Returns the tokens held by processes that no longer exist. Normally a
  /// process releases what it admitted as it reaps; a process SIGKILLed
  /// mid-block (altxd tearing down a worker cohort) never does, and its
  /// tokens would leak from the shared pool forever. Each admit records the
  /// caller's holding in a per-pid ledger inside the MAP_SHARED pool; this
  /// scans the ledger, probes each holder with kill(pid, 0), and returns
  /// dead holders' tokens. Call it from the pool's supervisor after any
  /// forced teardown (and periodically). Returns the tokens reclaimed.
  int reconcile_dead_holders();

  /// Child side, right after fork: applies RLIMIT_CPU / RLIMIT_AS.
  void apply_child_rlimits() const;

  /// Samples the pressure sources and re-derives the effective budget now
  /// (admit() and the wait loops use sample_pressure; tests call this).
  void poll_pressure_now();

  /// poll_pressure_now, unless any process of the tree sampled within the
  /// last pressure_interval.
  void sample_pressure(std::uint64_t now_ns);

  /// The last sample is at the kill threshold and no process of the tree
  /// shed an arm within pressure_interval: claims the shed slot. The caller
  /// has already picked its victim among its own arms.
  [[nodiscard]] bool claim_shed(std::uint64_t now_ns);

  /// Tallies for kills the wait loops carry out (shared across the tree).
  void count_kill(GovKillReason reason);
  void count_escalation();  // a SIGTERM grace expired into SIGKILL

  /// The token budget after pressure shrink (floor 1; = tokens when calm).
  [[nodiscard]] int effective_tokens() const;

  /// Supervisor marks a governor-driven serialized degradation.
  void note_degraded();

  [[nodiscard]] GovernorStats stats() const;

  /// The env-configured process governor, built on first use; nullptr when
  /// no ALTX_GOV_* knob is set. Race options resolve a null governor field
  /// to this.
  static SpeculationGovernor* global();

 private:
  struct SharedPool;   // MAP_SHARED counters (fork-wide truth)

  void apply_pressure(const PressureSample& s);

  GovernorConfig cfg_;
  SharedPool* pool_ = nullptr;  // shared mapping; survives fork
  pid_t owner_pid_ = -1;        // process that maps (and unmaps) the pool
};

}  // namespace altx::posix
