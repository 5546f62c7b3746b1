// alt_spawn / alt_wait over real POSIX processes (paper section 3.2).
//
// The paper's two primitives, implemented with the same UNIX machinery the
// authors measured:
//
//   alt_spawn(n)  — forks n alternates; returns 0 in the parent and 1..n in
//                   the children (the switch() idiom of section 3.2). Every
//                   child gets a COW view of the parent's whole address
//                   space, courtesy of fork().
//
//   alt_wait(t)   — in the parent: waits (bounded by the TIMEOUT) for the
//                   first child to synchronize, absorbs its result (and, when
//                   an AltHeap is attached, its dirty pages), then eliminates
//                   the siblings. In a child: attempts the synchronization.
//
// At-most-once synchronization is a 0-1 semaphore built from a pipe: the
// parent deposits a single token byte; the first child to read it commits;
// later children find the pipe empty and are "too late" (section 3.2.1) —
// they terminate themselves.
//
// Supervision: every child's fate is classified when it is reaped
// (committed / aborted / too-late / crashed(signal) / hung / eliminated),
// and a failed alt_wait distinguishes "every guard failed" from "deadline
// passed with children still live" — the information a retry policy needs
// (see posix/supervisor.hpp). An optional FaultInjector is consulted at the
// children's sync points and before each fork, so the real backend can run
// the same seeded fault matrix as the simulator.
//
// One wait loop per race: alt_spawn opens a pidfd per child, and alt_wait
// is a single ppoll over the result pipe and those pidfds. Its timeout is
// the earliest of the race deadline, each arm's wall budget and predicted-
// kill deadline, a pending SIGTERM grace, and the next CPU / pressure
// sample; a child is reaped the moment its pidfd turns readable. Budgets,
// predicted kills and pressure sheds therefore hold while the parent is
// inside alt_wait, in whatever process runs the race. The loop never
// SIGKILLs an arm that has reached its sync point (a claim word in the
// arm's census slot decides who got there first), and it ends a hedge's
// deferral once no arm is running.
//
// Observability: when tracing is enabled (ALTX_TRACE, or programmatically —
// see obs/trace.hpp), every group takes a fresh race id and both sides
// narrate into the shared ring: the parent emits race_begin / fork /
// child_fate / race_decided, each child emits guard_start and its own
// synchronization outcome (commit_attempt, commit_won, too_late,
// guard_fail). Child events survive SIGKILL — the ring is a MAP_SHARED
// mapping created before the forks. Disabled, each site costs one
// predicted branch.
#pragma once

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/bytes.hpp"
#include "posix/alt_heap.hpp"
#include "posix/fault.hpp"
#include "posix/fd.hpp"
#include "posix/governor.hpp"
#include "posix/reap.hpp"

namespace altx::posix {

/// When losing siblings are terminated, relative to alt_wait returning.
enum class Eliminate {
  kSynchronous,   // killed and reaped before alt_wait returns
  kAsynchronous,  // killed immediately, reaped later (finish()/destructor)
};

/// Classification of one child's end, assigned when it is reaped.
enum class ChildFate : std::uint8_t {
  kRunning,     // not yet exited (or not yet reaped)
  kCommitted,   // took the token and delivered its result (the winner)
  kTooLate,     // synchronized after the token was gone (section 3.2.1)
  kAborted,     // guard failed: child_abort
  kCrashed,     // died of a signal we did not send, or an unexpected exit —
                // includes a commit lost between token and result delivery
  kHung,        // still live at the deadline; killed by the parent
  kEliminated,  // healthy loser killed by the parent after a winner emerged
  kOverBudget,  // killed under the governor's rules: wall/CPU budget blown
                // or shed under memory pressure — contained, not crashed
  kPredictedLoser,  // killed by the prediction rule: elapsed wall
                    // overran the arm's own historical kill quantile
                    // (ALTX_PRED_KILL_Q) while a sibling was still running
};

const char* to_string(ChildFate fate);

struct ChildStatus {
  pid_t pid = -1;
  ChildFate fate = ChildFate::kRunning;
  int signal = 0;      // terminating signal when fate == kCrashed (0 = exit)
  int exit_code = -1;  // raw exit status when the child exited normally

  /// Resource bill from wait4 at reap time — valid for every fate,
  /// including losers we SIGKILLed (the kernel keeps the ledger for us).
  ChildUsage usage;

  /// Dirty-page census the child reported just before its sync point
  /// (kChildPages), read back from the shared census arena. Zero for a
  /// child that died before reaching a sync point — a mid-guard SIGKILL
  /// leaves its COW cost unknowable.
  std::uint64_t dirty_pages = 0;
  std::uint64_t dirty_bytes = 0;

  /// Parent-side wall clamps: CLOCK_MONOTONIC right after fork() returned
  /// the pid, and at reap. reap_ns - spawn_ns is the arm's wall time as the
  /// history store records it (for losers it includes the elimination lag —
  /// the price actually paid for launching the arm).
  std::uint64_t spawn_ns = 0;
  std::uint64_t reap_ns = 0;
};

/// Why alt_wait returned nullopt — or that it did not.
enum class WaitVerdict : std::uint8_t {
  kUndecided,  // alt_wait has not (successfully) completed
  kWinner,     // a child committed; the AltWinner was returned
  kAllFailed,  // every child exited without committing (guards failed,
               // crashed, or lost their commit) before the deadline
  kTimeout,    // the deadline passed with at least one child still live
};

const char* to_string(WaitVerdict verdict);

struct AltGroupOptions {
  Eliminate elimination = Eliminate::kSynchronous;
  AltHeap* heap = nullptr;        // optional shared-state arena to absorb
  FaultInjector* fault = nullptr; // optional seeded fault plan

  /// Resource governor: admission at spawn, child rlimits, and the budgets
  /// and pressure rules alt_wait enforces. nullptr resolves to
  /// SpeculationGovernor::global() — the env-configured process governor,
  /// itself nullptr when no ALTX_GOV_* knob is set, so ungoverned runs cost
  /// one null check.
  SpeculationGovernor* governor = nullptr;

  /// SIGTERM → SIGKILL grace for survivor elimination. Negative (the
  /// default) resolves from ALTX_KILL_GRACE_MS; 0 keeps the historical
  /// straight-SIGKILL behavior.
  std::chrono::milliseconds kill_grace{-1};

  /// Per-child predicted-kill deadlines (ns of elapsed wall), indexed by
  /// child number - 1, enforced by alt_wait with or without a governor.
  /// 0 (or an empty vector) = this child has no history and is never
  /// predicted-killed. Filled by race<T>() from the SpeculationPlanner.
  std::vector<std::uint64_t> pred_kill_ns;

  /// Per-child hedge deferral (ns the child sleeps before running its
  /// method), same indexing; kNeverRuns for an arm whose guard the plan
  /// short-circuits to FAIL. An arm still asleep, or never to run, does not
  /// count as running for the predicted-kill rule, which never takes a
  /// race's last running arm.
  std::vector<std::uint64_t> pred_stage_ns;
  static constexpr std::uint64_t kNeverRuns = ~std::uint64_t{0};
};

struct AltWinner {
  int index = 0;       // 1-based alternative number (alt_spawn's return)
  Bytes result;        // bytes the winner passed to child_commit
  std::size_t pages_absorbed = 0;
};

/// What the speculation cost, rolled up over every reaped child of one
/// block (paper section 3.1's bet, measured): the winner's work is the
/// price of the answer, everything else is the price of getting it fast.
struct SpeculationReport {
  std::uint64_t total_cpu_ns = 0;     // every child, winners and losers
  std::uint64_t winner_cpu_ns = 0;    // the committed child (0 = no winner)
  std::uint64_t wasted_cpu_ns = 0;    // total - winner: the losers' bill
  std::uint64_t discarded_pages = 0;  // losers' dirty COW pages, as reported
  std::uint64_t discarded_bytes = 0;  //   before their sync points
  int children_costed = 0;            // reaped children in this rollup

  /// total work / winner work — 1.0 is free speculation, N is "we paid for
  /// N alternatives to get one answer". 0 when there is no winner to
  /// normalize by (FAIL / timeout: every cycle was wasted).
  [[nodiscard]] double overhead_ratio() const {
    if (winner_cpu_ns == 0) return 0.0;
    return static_cast<double>(total_cpu_ns) /
           static_cast<double>(winner_cpu_ns);
  }
};

class AltGroup {
 public:
  explicit AltGroup(AltGroupOptions options = {});
  ~AltGroup();

  AltGroup(const AltGroup&) = delete;
  AltGroup& operator=(const AltGroup&) = delete;

  /// Forks n alternates. Returns 0 in the parent, 1..n in each child.
  /// In children, the process must finish via child_commit or child_abort.
  /// On a mid-loop fork() failure the partial cohort is killed and reaped
  /// before SystemError is thrown, so the caller can retry with a fresh
  /// group and no process leaks.
  int alt_spawn(int n);

  /// Child side: attempt the synchronization with a result payload. If this
  /// child is first, its payload (and dirty heap pages) reach the parent;
  /// otherwise it is too late. Never returns. Consults the FaultInjector
  /// first: the child may crash, hang, stall, or lose the commit here.
  [[noreturn]] void child_commit(const Bytes& result);

  /// Child side: the guard failed; abort without synchronizing. Never
  /// returns. Also a FaultInjector sync point.
  [[noreturn]] void child_abort();

  /// Child side: a hedge's deferral. Sleeps up to `ns`, or until the
  /// parent's wait loop ends it early because no sibling is running any
  /// more (the deferral then only delays the race).
  void child_defer(std::uint64_t ns);

  /// Parent side: waits for a winner. Returns std::nullopt when every child
  /// aborted or the timeout expired (the FAIL arm); verdict() then says
  /// which. Idempotent: a second call returns the same verdict.
  std::optional<AltWinner> alt_wait(std::chrono::milliseconds timeout);

  /// Reaps any remaining children (no-op when elimination was synchronous).
  void finish();

  /// Number of children that aborted (available after alt_wait).
  [[nodiscard]] int aborted_children() const { return aborted_; }

  /// Per-child classification. Fates are final once the child is reaped:
  /// after a synchronous alt_wait (or finish()) no kRunning entries remain.
  [[nodiscard]] const std::vector<ChildStatus>& child_statuses() const {
    return status_;
  }

  /// How many children ended with `fate` so far.
  [[nodiscard]] int count_fate(ChildFate fate) const;

  /// Why the last alt_wait came out the way it did.
  [[nodiscard]] WaitVerdict verdict() const { return verdict_kind_; }

  /// The speculation ledger over the children reaped so far: wasted CPU,
  /// discarded COW pages, overhead ratio. Complete after a synchronous
  /// alt_wait (or finish()); with asynchronous elimination it covers
  /// whatever has been reaped when asked.
  [[nodiscard]] SpeculationReport speculation_report() const;

  /// The trace id grouping this block's events (0 when tracing is off).
  [[nodiscard]] std::uint32_t race_id() const { return race_id_; }

 private:
  /// One census slot per child in a MAP_SHARED arena: the child writes its
  /// dirty-page count just before its sync point (where a fault injector
  /// may SIGKILL it), the parent reads it at rollup. `ready` is the
  /// publication flag — a torn write is never read.
  struct CensusSlot {
    std::uint64_t dirty_pages;
    std::uint64_t dirty_bytes;
    std::atomic<std::uint32_t> ready;
    std::atomic<std::uint32_t> wake;  // futex word: parent ends a deferral
    /// Who got to the sync point first: 0 neither, 1 the child (it may take
    /// the token), 2 the parent (it is SIGKILLing the child).
    std::atomic<std::uint32_t> claim;
  };

  /// Parent-side state of one forked child.
  struct Arm {
    pid_t pid = -1;
    Fd pidfd;                // readable once the child has exited
    bool reaped = false;
    bool killed = false;     // we eliminated it (timeout or a winner)
    bool syncing = false;    // a kill found it synchronizing: spared
    std::optional<GovKillReason> gov_kill;  // budget / shed / predicted kill
    std::uint64_t term_deadline_ns = 0;     // SIGTERM sent; SIGKILL due then
    std::uint64_t pred_kill_ns = 0;         // predicted-kill deadline, elapsed
    std::uint64_t stage_ns = 0;             // hedge deferral before it runs
  };

  void kill_survivors();
  void reap_all();
  bool reap(std::size_t i, int flags);  // wait4 + record_exit
  /// One ppoll over `fd` (when >= 0) and every unreaped child's pidfd until
  /// `wake_ns`; reaps each child whose pidfd is readable.
  void poll_and_reap(int fd, std::uint64_t wake_ns);
  /// Applies the budget, predicted-kill and pressure rules at `now`;
  /// returns when they next need a look.
  std::uint64_t police_arms(std::uint64_t now);
  void kill_arm(std::size_t i, GovKillReason reason, std::uint64_t now);
  /// Claims arm i's sync point before a SIGKILL; false when the child has
  /// claimed it first (it may hold the token: killing it loses the commit).
  bool condemn(std::size_t i);
  void emit_kill(std::size_t i, std::uint64_t stage) const;
  [[nodiscard]] bool all_reaped() const;
  void release_remaining_tokens();  // admission tokens not yet returned
  void record_exit(std::size_t i, int status, const ChildUsage& usage);
  void publish_census();         // child side, before the sync point
  void finalize_accounting();    // parent side, once every child is reaped

  AltGroupOptions opts_;
  std::vector<Arm> arms_;
  std::vector<ChildStatus> status_;
  std::uint64_t next_cpu_ns_ = 0;       // next live-CPU sample (budgeted)
  std::uint64_t next_pressure_ns_ = 0;  // next pressure look (governed)
  CensusSlot* census_ = nullptr;  // shared arena, one slot per child
  std::size_t census_slots_ = 0;
  bool accounted_ = false;  // kSpecReport emitted / metrics rolled up
  Pipe token_;   // 0-1 semaphore: one byte, first reader commits
  Pipe result_;  // winner -> parent: index + payload + heap patch
  int my_index_ = 0;  // 0 in parent
  std::uint64_t child_run_t0_ = 0;  // child side: arm_run span begin
  int tokens_held_ = 0;      // admission tokens taken for this cohort
  int tokens_released_ = 0;  // ... of which already returned (1 per reap)
  std::uint32_t race_id_ = 0;        // trace id; children inherit it
  std::uint64_t start_ns_ = 0;       // alt_spawn timestamp (traced runs)
  std::uint64_t fault_attempt_ = 0;  // attempt id children consult
  bool spawned_ = false;
  bool decided_ = false;
  std::optional<AltWinner> verdict_;
  WaitVerdict verdict_kind_ = WaitVerdict::kUndecided;
  int aborted_ = 0;
};

}  // namespace altx::posix
