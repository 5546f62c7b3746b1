#include "posix/alt_group.hpp"

#include <linux/futex.h>
#include <poll.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/phase.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"
#include "posix/governor.hpp"

namespace altx::posix {

namespace {

constexpr int kExitAbort = 42;    // guard failed, no synchronization
constexpr int kExitTooLate = 43;  // lost the race for the commit token

// In-place fork() EAGAIN retries: transient pid exhaustion (a sibling
// cohort mid-teardown, a fork storm elsewhere in the tree) usually clears
// in milliseconds, and abandoning the whole cohort to the supervisor's
// much slower backoff for it would be out of proportion.
constexpr int kForkRetries = 3;

constexpr std::uint64_t kNever = std::numeric_limits<std::uint64_t>::max();

std::uint64_t to_ns(std::chrono::milliseconds d) {
  return d.count() > 0
             ? static_cast<std::uint64_t>(std::chrono::nanoseconds(d).count())
             : 0;
}

/// A sampling period: never below 1 ms, so a zero knob cannot spin the loop.
std::uint64_t period_ns(std::chrono::milliseconds d) {
  return std::max<std::uint64_t>(to_ns(d), 1'000'000ULL);
}

timespec to_timespec(std::uint64_t ns) {
  return {static_cast<time_t>(ns / 1'000'000'000ULL),
          static_cast<long>(ns % 1'000'000'000ULL)};
}

}  // namespace

const char* to_string(ChildFate fate) {
  switch (fate) {
    case ChildFate::kRunning: return "running";
    case ChildFate::kCommitted: return "committed";
    case ChildFate::kTooLate: return "too_late";
    case ChildFate::kAborted: return "aborted";
    case ChildFate::kCrashed: return "crashed";
    case ChildFate::kHung: return "hung";
    case ChildFate::kEliminated: return "eliminated";
    case ChildFate::kOverBudget: return "over_budget";
    case ChildFate::kPredictedLoser: return "predicted_loser";
  }
  return "?";
}

const char* to_string(WaitVerdict verdict) {
  switch (verdict) {
    case WaitVerdict::kUndecided: return "undecided";
    case WaitVerdict::kWinner: return "winner";
    case WaitVerdict::kAllFailed: return "all_failed";
    case WaitVerdict::kTimeout: return "timeout";
  }
  return "?";
}

AltGroup::AltGroup(AltGroupOptions options) : opts_(options) {
  if (opts_.governor == nullptr) {
    opts_.governor = SpeculationGovernor::global();
  }
  if (opts_.kill_grace.count() < 0) {
    const char* s = std::getenv("ALTX_KILL_GRACE_MS");
    opts_.kill_grace = std::chrono::milliseconds(
        s != nullptr ? std::strtoll(s, nullptr, 0) : 0);
    if (opts_.kill_grace.count() < 0) opts_.kill_grace = {};
  }
}

AltGroup::~AltGroup() {
  if (my_index_ != 0) return;  // children never own the group
  try {
    kill_survivors();
    reap_all();
    release_remaining_tokens();
    finalize_accounting();
  } catch (...) {
    // Destructors must not throw; losing a reap here only leaks a zombie
    // until process exit.
  }
  if (census_ != nullptr) {
    ::munmap(census_, census_slots_ * sizeof(CensusSlot));
    census_ = nullptr;
  }
}

int AltGroup::alt_spawn(int n) {
  ALTX_REQUIRE(!spawned_, "AltGroup: alt_spawn called twice");
  ALTX_REQUIRE(n >= 1, "AltGroup: need at least one alternative");
  spawned_ = true;
  if (opts_.fault != nullptr) fault_attempt_ = opts_.fault->begin_attempt();
  // The race id exists before admission so the queueing time is part of
  // this race's timeline — admission wait is wall time the caller pays.
  if (obs::enabled()) {
    race_id_ = obs::next_race_id();
    start_ns_ = obs::now_ns();
    obs::emit(obs::EventKind::kRaceBegin, race_id_, 0,
              static_cast<std::uint64_t>(n));
  }
  if (opts_.governor != nullptr) {
    // Admission before any fork: either the whole cohort runs or none of it
    // does. kDenied (n >= 2 after the bounded wait) is the degrade signal —
    // the supervisor catches AdmissionTimeout and serializes the block.
    obs::ScopedPhase admission(obs::Phase::kAdmissionWait, race_id_);
    if (opts_.governor->admit(n) == Admission::kDenied) {
      spawned_ = false;  // nothing happened; the group may be retried
      throw AdmissionTimeout(n);
    }
    tokens_held_ = n;
  }
  obs::ScopedPhase fork_phase(obs::Phase::kFork, race_id_);
  obs::prof_prewarm();  // stack bounds for the children's samplers

  token_ = Pipe::create(/*nonblocking_read=*/true);
  result_ = Pipe::create();
  // Deposit the single commit token: the 0-1 semaphore of section 3.2.1.
  // ALTX_TEST_BREAK_AT_MOST_ONCE is a test-only sabotage knob for the
  // equivalence checker (src/check/): it deposits a second token, so two
  // children can both "win" — the at-most-once-commit violation altx-check
  // must catch, shrink, and replay. Never set it outside tests.
  const std::uint8_t token = 1;
  write_all(token_.write_end.get(), &token, 1);
  if (std::getenv("ALTX_TEST_BREAK_AT_MOST_ONCE") != nullptr) {
    write_all(token_.write_end.get(), &token, 1);
  }

  // The census arena: one MAP_SHARED slot per child, created before any
  // fork so every child inherits the same mapping. A child deposits its
  // dirty-page count here just before its sync point; the numbers survive a
  // SIGKILL that the pipe-based result path would lose. On mmap failure the
  // arena is simply absent and accounting degrades to rusage-only.
  census_slots_ = static_cast<std::size_t>(n);
  void* arena = ::mmap(nullptr, census_slots_ * sizeof(CensusSlot),
                       PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS,
                       -1, 0);
  if (arena == MAP_FAILED) {
    census_ = nullptr;
    census_slots_ = 0;
  } else {
    census_ = static_cast<CensusSlot*>(arena);  // MAP_ANONYMOUS: zeroed
  }

  // Cohort bookkeeping grows in lockstep with the forks so that a mid-loop
  // failure can kill and reap exactly the children that exist.
  arms_.reserve(static_cast<std::size_t>(n));
  status_.reserve(static_cast<std::size_t>(n));

  auto abandon_cohort = [this] {
    kill_survivors();
    reap_all();
    release_remaining_tokens();
  };

  for (int i = 1; i <= n; ++i) {
    const std::uint64_t fork_t0 = obs::enabled() ? obs::now_ns() : 0;
    pid_t pid = -1;
    for (int try_n = 0;; ++try_n) {
      const bool injected =
          opts_.fault != nullptr &&
          opts_.fault->fork_fails(fault_attempt_, i, try_n);
      if (!injected) {
        pid = ::fork();
        if (pid >= 0) break;
      }
      const int err = injected ? EAGAIN : errno;
      // EAGAIN is pid/memory exhaustion and is often transient (a sibling
      // cohort mid-teardown); retry in place, briefly and jittered, before
      // abandoning the cohort to the supervisor's coarser backoff.
      if (err != EAGAIN || try_n >= kForkRetries) {
        abandon_cohort();
        throw SystemError(injected ? "fork (injected fault)" : "fork", err);
      }
      const double u =
          Rng((fault_attempt_ << 32) ^
              (static_cast<std::uint64_t>(i) * 0x9e3779b97f4a7c15ULL) ^
              static_cast<std::uint64_t>(try_n))
              .uniform();
      ::usleep(static_cast<useconds_t>(1'000 + u * 9'000));
      if (obs::enabled()) {
        obs::MetricsRegistry::global().counter("fork_eagain_retries").add();
      }
    }
    if (pid == 0) {
      // Child: a COW copy of everything the parent had. The parent's open
      // fork span is cancelled — only the parent emits its end.
      fork_phase.cancel();
      my_index_ = i;
      arms_.clear();  // closes the sibling pidfds this child inherited
      status_.clear();
      if (opts_.governor != nullptr) opts_.governor->apply_child_rlimits();
      if (opts_.heap != nullptr) opts_.heap->begin_tracking();
      obs::set_current_race(race_id_);
      obs::prof_arm_child(race_id_, i);
      obs::emit(obs::EventKind::kGuardStart, race_id_,
                static_cast<std::int16_t>(i));
      child_run_t0_ = obs::phase_begin(obs::Phase::kArmRun, race_id_,
                                       static_cast<std::int16_t>(i));
      return i;
    }
    if (obs::enabled()) {
      const std::uint64_t fork_ns = obs::now_ns() - fork_t0;
      obs::emit(obs::EventKind::kFork, race_id_, static_cast<std::int16_t>(i),
                static_cast<std::uint64_t>(pid), fork_ns);
      obs::MetricsRegistry::global().histogram("fork_latency_ns").record(fork_ns);
    }
    const std::size_t j = static_cast<std::size_t>(i) - 1;
    Arm& arm = arms_.emplace_back();
    arm.pid = pid;
    arm.pred_kill_ns =
        j < opts_.pred_kill_ns.size() ? opts_.pred_kill_ns[j] : 0;
    arm.stage_ns = j < opts_.pred_stage_ns.size() ? opts_.pred_stage_ns[j] : 0;
    ChildStatus st;
    st.pid = pid;
    st.spawn_ns = obs::now_ns();
    status_.push_back(st);
    // The pidfd is how alt_wait sees this child exit. Without one the child
    // could neither be watched nor policed: fail like a failed fork.
    const long pidfd = ::syscall(SYS_pidfd_open, pid, 0);
    if (pidfd < 0) {
      const int err = errno;
      abandon_cohort();
      throw SystemError("pidfd_open", err);
    }
    arm.pidfd = Fd(static_cast<int>(pidfd));
  }
  return 0;
}

void AltGroup::child_commit(const Bytes& result) {
  ALTX_REQUIRE(my_index_ != 0, "child_commit called in the parent");
  // The guard held — recorded before the fault sync point, so the trace
  // still explains a child that the injector kills on its way in.
  obs::emit(obs::EventKind::kGuardResult, race_id_,
            static_cast<std::int16_t>(my_index_), 1);
  obs::phase_end(obs::Phase::kArmRun, race_id_,
                 static_cast<std::int16_t>(my_index_), child_run_t0_);
  child_run_t0_ = 0;
  publish_census();  // before the sync point: survives an injected SIGKILL
  bool drop = false;
  if (opts_.fault != nullptr) {
    // May crash / hang / stall right here — the instant before
    // synchronization, the worst place a real fault can strike.
    drop = opts_.fault->at_sync_point(fault_attempt_, my_index_) ==
           FaultKind::kDropCommit;
  }
  // A parent that condemned this arm (a budget, shed or predicted kill) has
  // its SIGKILL on the way; the token must stay for the siblings. Claiming
  // first makes the parent spare this arm instead.
  if (census_ != nullptr) {
    std::uint32_t racing = 0;
    if (!census_[my_index_ - 1].claim.compare_exchange_strong(racing, 1)) {
      for (;;) ::pause();
    }
  }
  // Try to take the token. First reader commits; everyone else is too late.
  obs::emit(obs::EventKind::kCommitAttempt, race_id_,
            static_cast<std::int16_t>(my_index_));
  std::uint8_t token = 0;
  const ssize_t got = ::read(token_.read_end.get(), &token, 1);
  if (got != 1) {
    obs::emit(obs::EventKind::kTooLate, race_id_,
              static_cast<std::int16_t>(my_index_));
    _exit(kExitTooLate);
  }
  obs::emit(obs::EventKind::kCommitWon, race_id_,
            static_cast<std::int16_t>(my_index_),
            static_cast<std::uint64_t>(result.size()));
  if (drop) {
    // Injected: the commit is lost between synchronizing and publishing.
    // Nobody else can ever win (the token is gone) — the block must fail
    // and the supervisor must notice. Exits with an unexpected status so
    // the parent classifies this child as crashed.
    _exit(77);
  }

  Bytes frame;
  ByteWriter w(frame);
  w.u32(static_cast<std::uint32_t>(my_index_));
  w.blob(result.data(), result.size());
  if (opts_.heap != nullptr) {
    w.u8(1);
    obs::ScopedPhase diff(obs::Phase::kPageDiff, race_id_,
                          static_cast<std::int16_t>(my_index_));
    const Bytes patch = opts_.heap->serialize_dirty();
    diff.end();
    w.blob(patch.data(), patch.size());
  } else {
    w.u8(0);
  }
  {
    obs::ScopedPhase pipe(obs::Phase::kResultPipe, race_id_,
                          static_cast<std::int16_t>(my_index_));
    write_frame(result_.write_end.get(), frame);
  }
  _exit(0);
}

void AltGroup::child_abort() {
  ALTX_REQUIRE(my_index_ != 0, "child_abort called in the parent");
  obs::emit(obs::EventKind::kGuardResult, race_id_,
            static_cast<std::int16_t>(my_index_), 0);
  obs::phase_end(obs::Phase::kArmRun, race_id_,
                 static_cast<std::int16_t>(my_index_), child_run_t0_);
  child_run_t0_ = 0;
  publish_census();  // before the sync point: survives an injected SIGKILL
  if (opts_.fault != nullptr) {
    // The abort path is a sync point too: a guard that fails can still
    // crash or hang on its way out. kDropCommit degenerates to the abort.
    (void)opts_.fault->at_sync_point(fault_attempt_, my_index_);
  }
  obs::emit(obs::EventKind::kGuardFail, race_id_,
            static_cast<std::int16_t>(my_index_));
  _exit(kExitAbort);
}

void AltGroup::child_defer(std::uint64_t ns) {
  ALTX_REQUIRE(my_index_ != 0, "child_defer called in the parent");
  std::atomic<std::uint32_t>* wake =
      census_ != nullptr ? &census_[my_index_ - 1].wake : nullptr;
  const std::uint64_t until = obs::now_ns() + ns;
  for (std::uint64_t now = obs::now_ns(); now < until; now = obs::now_ns()) {
    const timespec ts = to_timespec(until - now);
    if (wake == nullptr) {
      ::nanosleep(&ts, nullptr);
    } else if (wake->load(std::memory_order_acquire) != 0) {
      return;
    } else {
      ::syscall(SYS_futex, wake, FUTEX_WAIT, 0, &ts, nullptr, 0);
    }
  }
}

std::optional<AltWinner> AltGroup::alt_wait(std::chrono::milliseconds timeout) {
  ALTX_REQUIRE(my_index_ == 0, "alt_wait: only the parent waits");
  ALTX_REQUIRE(spawned_, "alt_wait before alt_spawn");
  if (decided_) return verdict_;

  const std::uint64_t deadline_ns = obs::now_ns() + to_ns(timeout);

  // The parent's view of the arms racing: from here until the first result
  // byte is readable (or the race is called off). The later phases —
  // result_pipe, absorb, eliminate, decide — each close before the next
  // opens, so the parent-side spans tile the race wall time.
  obs::ScopedPhase arm_phase(obs::Phase::kArmRun, race_id_);

  auto try_read_result = [&]() -> bool {
    if (!wait_readable(result_.read_end.get(), 0)) return false;
    arm_phase.end();
    std::optional<Bytes> frame;
    {
      obs::ScopedPhase pipe(obs::Phase::kResultPipe, race_id_);
      frame = read_frame(result_.read_end.get());
    }
    if (!frame.has_value()) return false;
    ByteReader r(*frame);
    AltWinner win;
    win.index = static_cast<int>(r.u32());
    win.result = r.blob();
    if (r.u8() == 1) {
      const Bytes patch = r.blob();
      if (opts_.heap != nullptr) {
        obs::ScopedPhase absorb(obs::Phase::kAbsorb, race_id_);
        win.pages_absorbed = opts_.heap->apply_patch(patch);
      }
    }
    verdict_ = std::move(win);
    verdict_kind_ = WaitVerdict::kWinner;
    return true;
  };

  // The paper's rendezvous as one ppoll: the result pipe, every live arm's
  // pidfd, and a timeout at the race deadline or the next budget,
  // predicted-kill, grace or sample instant, whichever comes first.
  while (true) {
    if (try_read_result()) break;
    if (all_reaped()) {
      // Everyone is gone; a commit may still sit in the pipe (the winner
      // exits after writing).
      if (!try_read_result()) verdict_kind_ = WaitVerdict::kAllFailed;
      break;
    }
    const std::uint64_t now = obs::now_ns();
    if (now >= deadline_ns) {
      // TIMEOUT: presume no alternative will succeed (section 3.2). A commit
      // that raced in before the kill is still honoured — it won.
      arm_phase.end();
      {
        obs::ScopedPhase elim(obs::Phase::kEliminate, race_id_);
        kill_survivors();
      }
      if (!try_read_result()) verdict_kind_ = WaitVerdict::kTimeout;
      break;
    }
    poll_and_reap(result_.read_end.get(),
                  std::min(deadline_ns, police_arms(now)));
  }

  decided_ = true;
  arm_phase.end();  // idempotent: already closed on the result/timeout paths
  if (!all_reaped()) {
    obs::ScopedPhase elim(obs::Phase::kEliminate, race_id_);
    kill_survivors();
    if (opts_.elimination == Eliminate::kSynchronous) reap_all();
  }
  const std::uint64_t decide_t0 =
      obs::phase_begin(obs::Phase::kDecide, race_id_, 0);
  finalize_accounting();  // no-op while losers are still unreaped
  obs::phase_end(obs::Phase::kDecide, race_id_, 0, decide_t0);
  if (obs::enabled()) {
    obs::emit(obs::EventKind::kRaceDecided, race_id_, 0,
              static_cast<std::uint64_t>(verdict_kind_),
              verdict_.has_value() ? static_cast<std::uint64_t>(verdict_->index)
                                   : 0,
              verdict_.has_value() ? verdict_->pages_absorbed : 0);
    auto& metrics = obs::MetricsRegistry::global();
    if (verdict_.has_value()) {
      metrics.histogram("commit_latency_ns").record(obs::now_ns() - start_ns_);
      metrics.counter("pages_absorbed").add(verdict_->pages_absorbed);
    } else if (verdict_kind_ == WaitVerdict::kTimeout) {
      metrics.counter("race_timeouts").add();
    } else {
      metrics.counter("race_all_failed").add();
    }
  }
  return verdict_;
}

void AltGroup::finish() {
  reap_all();
  release_remaining_tokens();
  finalize_accounting();
}

int AltGroup::count_fate(ChildFate fate) const {
  int n = 0;
  for (const auto& st : status_) {
    if (st.fate == fate) ++n;
  }
  return n;
}

bool AltGroup::all_reaped() const {
  return std::all_of(arms_.begin(), arms_.end(),
                     [](const Arm& a) { return a.reaped; });
}

std::uint64_t AltGroup::police_arms(std::uint64_t now) {
  SpeculationGovernor* gov = opts_.governor;
  const GovernorConfig* gc = gov != nullptr ? &gov->config() : nullptr;
  const std::uint64_t wall_ns = gc != nullptr ? to_ns(gc->arm_wall_budget) : 0;
  const std::uint64_t cpu_ns = gc != nullptr ? to_ns(gc->arm_cpu_budget) : 0;
  const bool sample_cpu = cpu_ns > 0 && now >= next_cpu_ns_;
  if (sample_cpu) next_cpu_ns_ = now + period_ns(gc->poll_interval);
  // Arms alive and unthreatened, and those of them past their hedge
  // deferral. The shed rule never takes the last live arm and the
  // predicted rule never the last running one: a stalled host or a
  // mispredicting model must degrade a race to sequential, never wedge it,
  // and a leader that overruns is not traded for a backup still asleep or
  // for an arm the plan skipped (it can only FAIL).
  int live = 0;
  int running = 0;
  std::uint64_t wake = kNever;
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    const Arm& a = arms_[i];
    if (a.reaped || a.killed || a.gov_kill.has_value()) continue;
    ++live;
    if (now - status_[i].spawn_ns >= a.stage_ns) {
      ++running;
    } else if (a.stage_ns != AltGroupOptions::kNeverRuns) {
      // The census changes when this hedge wakes.
      wake = std::min(wake, status_[i].spawn_ns + a.stage_ns);
    }
  }
  if (running == 0 && live > 0 && census_ != nullptr) {
    // Every running arm is gone and only hedges remain, asleep: their
    // deferral gave a leader a head start, and there is no leader left.
    for (std::size_t i = 0; i < arms_.size(); ++i) {
      Arm& a = arms_[i];
      if (a.reaped || a.killed || a.gov_kill.has_value() ||
          a.stage_ns == AltGroupOptions::kNeverRuns) {
        continue;
      }
      census_[i].wake.store(1, std::memory_order_release);
      ::syscall(SYS_futex, &census_[i].wake, FUTEX_WAKE, 1, nullptr, nullptr,
                0);
      a.stage_ns = now - status_[i].spawn_ns;
      ++running;
    }
  }
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    Arm& a = arms_[i];
    if (a.reaped || a.killed || a.syncing) continue;
    if (a.gov_kill.has_value()) {
      if (a.term_deadline_ns == 0) continue;  // SIGKILLed; reaped on exit
      if (now < a.term_deadline_ns) {
        wake = std::min(wake, a.term_deadline_ns);
        continue;
      }
      a.term_deadline_ns = 0;
      if (condemn(i)) {
        ::kill(a.pid, SIGKILL);  // grace expired: escalate
        if (gov != nullptr) gov->count_escalation();
        emit_kill(i, /*stage=*/1);
      }
      continue;
    }
    const std::uint64_t age = now - status_[i].spawn_ns;
    const bool predictable = a.pred_kill_ns > 0 && running >= 2;
    std::optional<GovKillReason> why;
    if (wall_ns > 0 && age >= wall_ns) {
      why = GovKillReason::kWall;
    } else if (predictable && age >= a.pred_kill_ns) {
      // Predicted early kill: this arm has overrun its own historical kill
      // quantile. Arms with no history carry pred_kill_ns == 0.
      why = GovKillReason::kPredicted;
    } else if (sample_cpu) {
      const auto cpu = proc_cpu_ns(a.pid);
      if (cpu.has_value() && *cpu > cpu_ns) why = GovKillReason::kCpu;
    }
    if (why.has_value()) {
      kill_arm(i, *why, now);
      if (a.syncing) continue;
      --live;
      if (now - status_[i].spawn_ns >= a.stage_ns) --running;
      if (a.term_deadline_ns != 0) wake = std::min(wake, a.term_deadline_ns);
      continue;
    }
    const std::uint64_t spawn = status_[i].spawn_ns;
    if (wall_ns > 0) wake = std::min(wake, spawn + wall_ns);
    if (predictable) wake = std::min(wake, spawn + a.pred_kill_ns);
  }
  if (cpu_ns > 0 && live > 0) wake = std::min(wake, next_cpu_ns_);
  // Governed races (an admission or budget duty) watch pressure and shed.
  if (gov != nullptr && (gc->tokens > 0 || wall_ns > 0 || cpu_ns > 0)) {
    if (now >= next_pressure_ns_) {
      next_pressure_ns_ = now + period_ns(gc->pressure_interval);
      gov->sample_pressure(now);
      // At the kill threshold shed this race's lowest-PI live arm (the
      // highest index — alternatives are PI-ordered), never its last one:
      // shedding a loser is indistinguishable from elimination, starving
      // the whole block would trade an outcome for memory.
      for (std::size_t i = arms_.size(); live >= 2 && i-- > 0;) {
        const Arm& a = arms_[i];
        if (a.reaped || a.killed || a.syncing || a.gov_kill.has_value()) {
          continue;
        }
        if (gov->claim_shed(now)) {
          kill_arm(i, GovKillReason::kShed, now);
          if (a.term_deadline_ns != 0) {
            wake = std::min(wake, a.term_deadline_ns);
          }
        }
        break;
      }
    }
    wake = std::min(wake, next_pressure_ns_);
  }
  return wake;
}

void AltGroup::kill_arm(std::size_t i, GovKillReason reason,
                        std::uint64_t now) {
  Arm& a = arms_[i];
  const std::uint64_t grace_ns =
      opts_.governor != nullptr ? to_ns(opts_.governor->config().kill_grace)
                                : 0;
  // A SIGTERM may still let a commit through (the grace window); a SIGKILL
  // must not land on an arm that is synchronizing.
  if (grace_ns == 0 && !condemn(i)) {
    a.syncing = true;
    return;
  }
  a.gov_kill = reason;  // classifies the fate at reap, whatever comes next
  if (opts_.governor != nullptr) opts_.governor->count_kill(reason);
  if (grace_ns > 0) {
    ::kill(a.pid, SIGTERM);
    a.term_deadline_ns = now + grace_ns;
  } else {
    ::kill(a.pid, SIGKILL);
  }
  emit_kill(i, grace_ns > 0 ? 0 : 1);
  if (obs::enabled()) {
    auto& m = obs::MetricsRegistry::global();
    m.counter(std::string("gov_kills_") + to_string(reason)).add();
    if (reason == GovKillReason::kPredicted) m.counter("pred_kills").add();
  }
}

bool AltGroup::condemn(std::size_t i) {
  if (census_ == nullptr) return true;
  std::uint32_t racing = 0;
  return census_[i].claim.compare_exchange_strong(racing, 2);
}

void AltGroup::emit_kill(std::size_t i, std::uint64_t stage) const {
  // Predicted kills get their own event kind (the trace ties them back to
  // the arm's history quantile); every other reason keeps kGovKill.
  const Arm& a = arms_[i];
  const bool predicted = *a.gov_kill == GovKillReason::kPredicted;
  obs::emit(predicted ? obs::EventKind::kPredKill : obs::EventKind::kGovKill,
            race_id_, static_cast<std::int16_t>(i + 1),
            static_cast<std::uint64_t>(a.pid),
            predicted ? a.pred_kill_ns
                      : static_cast<std::uint64_t>(*a.gov_kill),
            stage);
}

void AltGroup::poll_and_reap(int fd, std::uint64_t wake_ns) {
  std::vector<pollfd> fds;
  std::vector<std::size_t> who;  // fds[base + k] is arms_[who[k]]'s pidfd
  fds.reserve(arms_.size() + 1);
  if (fd >= 0) fds.push_back({fd, POLLIN, 0});
  const std::size_t base = fds.size();
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    if (arms_[i].reaped || !arms_[i].pidfd.valid()) continue;
    fds.push_back({arms_[i].pidfd.get(), POLLIN, 0});
    who.push_back(i);
  }
  const std::uint64_t now = obs::now_ns();
  const timespec ts = to_timespec(wake_ns > now ? wake_ns - now : 0);
  if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0) {
    if (errno == EINTR) return;
    throw_errno("ppoll");
  }
  for (std::size_t k = 0; k < who.size(); ++k) {
    if (fds[base + k].revents == 0) continue;
    // Readable means exited: reap now, so reap_ns (and the wall the
    // history learns) is exact. A pidfd whose exit wait4 cannot collect
    // (reaped elsewhere) leaves the poll set instead of spinning it.
    if (!reap(who[k], WNOHANG)) arms_[who[k]].pidfd.reset();
  }
}

void AltGroup::kill_survivors() {
  // Graceful elimination sends SIGTERM first, so a loser with cleanup to do
  // (flush a log, drop a lock file) gets the grace window, then SIGKILLs
  // whatever is still standing. Children reaped during the window keep the
  // normal fate pipeline — a SIGTERM death is still "we killed it".
  const bool graceful = opts_.kill_grace.count() > 0;
  for (Arm& a : arms_) {
    if (a.reaped) continue;
    ::kill(a.pid, graceful ? SIGTERM : SIGKILL);
    a.killed = true;
  }
  if (!graceful) return;
  const std::uint64_t deadline_ns = obs::now_ns() + to_ns(opts_.kill_grace);
  while (!all_reaped() && obs::now_ns() < deadline_ns) {
    poll_and_reap(-1, deadline_ns);
  }
  for (const Arm& a : arms_) {
    if (!a.reaped) ::kill(a.pid, SIGKILL);  // grace expired
  }
}

void AltGroup::reap_all() {
  for (std::size_t i = 0; i < arms_.size(); ++i) {
    if (!arms_[i].reaped) reap(i, 0);
  }
}

bool AltGroup::reap(std::size_t i, int flags) {
  int status = 0;
  struct rusage ru {};
  if (wait4_eintr(arms_[i].pid, &status, flags, &ru) != arms_[i].pid) {
    return false;
  }
  record_exit(i, status, decode_rusage(ru));
  return true;
}

void AltGroup::release_remaining_tokens() {
  if (opts_.governor == nullptr || tokens_released_ >= tokens_held_) return;
  opts_.governor->release(tokens_held_ - tokens_released_);
  tokens_released_ = tokens_held_;
}

void AltGroup::record_exit(std::size_t i, int status,
                           const ChildUsage& usage) {
  Arm& arm = arms_[i];
  arm.reaped = true;
  arm.pidfd.reset();
  ChildStatus& st = status_[i];
  st.usage = usage;
  st.reap_ns = obs::now_ns();
  const std::optional<GovKillReason>& gov_kill = arm.gov_kill;
  if (opts_.governor != nullptr) {
    if (tokens_released_ < tokens_held_) {
      // One token back per reaped child: a block winding down frees budget
      // for queued blocks before its own teardown completes.
      opts_.governor->release(1);
      ++tokens_released_;
    }
  }
  const ExitInfo info = decode_wait_status(status);
  if (info.exited) {
    st.exit_code = info.exit_code;
    if (st.exit_code == 0) {
      st.fate = ChildFate::kCommitted;
    } else if (st.exit_code == kExitAbort) {
      st.fate = ChildFate::kAborted;
      ++aborted_;
    } else if (st.exit_code == kExitTooLate) {
      st.fate = ChildFate::kTooLate;
    } else {
      st.fate = ChildFate::kCrashed;  // an exit no protocol path produces
    }
  } else if (info.signaled) {
    st.signal = info.signal;
    if ((arm.killed || gov_kill.has_value()) && verdict_.has_value() &&
        static_cast<std::size_t>(verdict_->index) == i + 1) {
      // A kill we sent (to eliminate or to police it) caught the winner
      // between writing its result and _exit(0). The answer was already
      // accepted, so this is a commit — classifying it otherwise would bill
      // the winner's CPU and pages as speculation waste.
      st.fate = ChildFate::kCommitted;
    } else if (gov_kill.has_value()) {
      // The wait loop policed it: over budget (wall / CPU), shed under
      // pressure, or past its own historical kill quantile. Distinct
      // from kCrashed so the supervisor and the ledger can tell containment
      // from failure.
      st.fate = *gov_kill == GovKillReason::kPredicted
                    ? ChildFate::kPredictedLoser
                    : ChildFate::kOverBudget;
    } else if (arm.killed) {
      // We sent the kill. Before a verdict it was a deadline kill (the
      // child was hung past the TIMEOUT); after one, routine elimination.
      // A child that died of its own SIGKILL in the race window between
      // our poll and our kill is indistinguishable — attributed to us.
      st.fate = verdict_.has_value() ? ChildFate::kEliminated
                                     : ChildFate::kHung;
    } else {
      st.fate = ChildFate::kCrashed;
    }
  } else {
    st.fate = ChildFate::kCrashed;
  }
  // Pick up the child's dirty-page census if it published one before dying.
  // The acquire pairs with the child's release store: a torn slot is never
  // read, it just counts as "no census" (zeros).
  if (census_ != nullptr && i < census_slots_ &&
      census_[i].ready.load(std::memory_order_acquire) != 0) {
    st.dirty_pages = census_[i].dirty_pages;
    st.dirty_bytes = census_[i].dirty_bytes;
  }
  if (obs::enabled()) {
    // The terminal fate event: exactly one per reaped child, parent-side,
    // so it exists even when the child died before its first instruction.
    obs::emit(obs::EventKind::kChildFate, race_id_,
              static_cast<std::int16_t>(i + 1),
              static_cast<std::uint64_t>(st.fate),
              static_cast<std::uint64_t>(st.signal),
              static_cast<std::uint64_t>(static_cast<std::uint32_t>(
                  st.exit_code)));
    // The kernel's bill for this child, from wait4 — valid even when the
    // child never ran a line of the protocol.
    obs::emit(obs::EventKind::kChildUsage, race_id_,
              static_cast<std::int16_t>(i + 1), usage.cpu_ns, usage.maxrss_kb,
              (usage.minor_faults << 32) |
                  (usage.major_faults & 0xffffffffULL));
    auto& metrics = obs::MetricsRegistry::global();
    metrics.counter(std::string("fate_") + to_string(st.fate)).add();
  }
}

void AltGroup::publish_census() {
  std::uint64_t pages = 0;
  std::uint64_t bytes = 0;
  if (opts_.heap != nullptr) {
    pages = static_cast<std::uint64_t>(opts_.heap->dirty_pages().size());
    bytes = pages * static_cast<std::uint64_t>(opts_.heap->page_size());
  }
  if (census_ != nullptr && my_index_ >= 1 &&
      static_cast<std::size_t>(my_index_) <= census_slots_) {
    CensusSlot& slot = census_[static_cast<std::size_t>(my_index_) - 1];
    slot.dirty_pages = pages;
    slot.dirty_bytes = bytes;
    slot.ready.store(1, std::memory_order_release);
  }
  obs::emit(obs::EventKind::kChildPages, race_id_,
            static_cast<std::int16_t>(my_index_), pages, bytes);
}

SpeculationReport AltGroup::speculation_report() const {
  SpeculationReport rep;
  for (std::size_t i = 0; i < status_.size(); ++i) {
    if (!arms_[i].reaped) continue;
    const ChildStatus& st = status_[i];
    rep.total_cpu_ns += st.usage.cpu_ns;
    ++rep.children_costed;
    if (st.fate == ChildFate::kCommitted) {
      // The winner's pages were absorbed, not discarded; its CPU is the
      // price of the answer itself.
      rep.winner_cpu_ns += st.usage.cpu_ns;
    } else {
      rep.discarded_pages += st.dirty_pages;
      rep.discarded_bytes += st.dirty_bytes;
    }
  }
  rep.wasted_cpu_ns = rep.total_cpu_ns - rep.winner_cpu_ns;
  return rep;
}

void AltGroup::finalize_accounting() {
  if (accounted_ || !spawned_ || my_index_ != 0) return;
  if (!all_reaped()) return;  // ledger incomplete; try again at next reap
  accounted_ = true;
  if (!obs::enabled()) return;
  const SpeculationReport rep = speculation_report();
  obs::emit(obs::EventKind::kSpecReport, race_id_, 0, rep.wasted_cpu_ns,
            rep.discarded_pages, rep.winner_cpu_ns);
  auto& metrics = obs::MetricsRegistry::global();
  metrics.counter("spec_wasted_cpu_ns").add(rep.wasted_cpu_ns);
  metrics.counter("spec_discarded_pages").add(rep.discarded_pages);
  metrics.counter("spec_discarded_bytes").add(rep.discarded_bytes);
  metrics.histogram("spec_overhead_ratio_x100")
      .record(static_cast<std::uint64_t>(rep.overhead_ratio() * 100.0));
}

}  // namespace altx::posix
