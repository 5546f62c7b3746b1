// altx_bench: closed-loop benchmark of altx through its public API.
//
//   altx_bench --workload W --seed N --seconds S --trace 0|1 --t0-ns T
//              [--corrupt CHECK]
//
// One workload per process. The process sets up (arena, history, daemon),
// runs warm-up blocks, then runs whole rounds of seeded blocks until S
// seconds have passed, checking every block's output against values the
// benchmark computes itself. With --trace 0 it prints the end-to-end
// metrics, measured dark. With --trace 1 it runs the same workload dark for
// half the time (timing the layers from outside: arm stamps, RaceReport,
// JobOutcome), then turns tracing on for the other half and reduces the
// program's own phase spans, then times direct calls into the layer the
// workload exercises. The last line of stdout is one JSON object.
//
// --corrupt names one expectation to falsify; the run must then report
// correct=false (see selftest.py).

#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/history.hpp"
#include "obs/phase.hpp"
#include "obs/trace.hpp"
#include "posix/alt_heap.hpp"
#include "posix/predictor.hpp"
#include "posix/race.hpp"
#include "server/client.hpp"
#include "server/registry.hpp"
#include "server/server.hpp"

namespace {

using altx::Bytes;
namespace posix = altx::posix;
namespace obs = altx::obs;
namespace srv = altx::server;

std::uint64_t mono_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

void sleep_us(std::uint64_t us) {
  timespec ts{static_cast<time_t>(us / 1'000'000),
              static_cast<long>(us % 1'000'000) * 1000L};
  while (::nanosleep(&ts, &ts) != 0) {
  }
}

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Seeded stream: the same seed gives the same inputs.
struct Rng {
  std::uint64_t s;
  std::uint64_t next() { return s = splitmix(s); }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
};

/// A round's block kinds in seeded order: `counts[k]` blocks of kind k.
/// Every round has the same make-up, so every run attempts the same mix.
std::vector<int> shuffled_round(Rng& rng, const std::vector<int>& counts) {
  std::vector<int> kinds;
  for (std::size_t k = 0; k < counts.size(); ++k) {
    kinds.insert(kinds.end(), static_cast<std::size_t>(counts[k]),
                 static_cast<int>(k));
  }
  for (std::size_t i = kinds.size(); i > 1; --i) {
    std::swap(kinds[i - 1], kinds[rng.below(i)]);
  }
  return kinds;
}

std::uint64_t cpu_ns(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  auto tv = [](const timeval& t) {
    return static_cast<std::uint64_t>(t.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(t.tv_usec) * 1000ULL;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// Peak RSS of this process image: VmHWM from /proc/self/status. Not
/// ru_maxrss, which execve carries over from the launching process (the
/// Python launcher's own ~14 MiB would mask the benchmark's peak).
double max_rss_mib() {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Arm stamps: the arms are the benchmark's own code, so they write
// CLOCK_MONOTONIC into a MAP_SHARED slot array the parent owns. Slot i is
// arm i (1-based).

struct ArmStamp {
  std::atomic<std::uint64_t> start;
  std::atomic<std::uint64_t> end;
};
constexpr int kMaxArms = 4;
ArmStamp* g_stamps = nullptr;

void map_stamps() {
  void* p = ::mmap(nullptr, sizeof(ArmStamp) * (kMaxArms + 1),
                   PROT_READ | PROT_WRITE, MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::runtime_error("mmap(stamps)");
  g_stamps = static_cast<ArmStamp*>(p);
}

void clear_stamps() {
  for (int i = 0; i <= kMaxArms; ++i) {
    g_stamps[i].start.store(0, std::memory_order_relaxed);
    g_stamps[i].end.store(0, std::memory_order_relaxed);
  }
}

void stamp_start(int arm) {
  g_stamps[arm].start.store(mono_ns(), std::memory_order_relaxed);
}
void stamp_end(int arm) {
  g_stamps[arm].end.store(mono_ns(), std::memory_order_relaxed);
}

/// Every local arm overwrites this; the parent's copy must never change.
constexpr std::uint64_t kSentinel = 0x5e47196e1a7c0ffeULL;
volatile std::uint64_t g_overwritten = kSentinel;

// ---------------------------------------------------------------------------
// What one run collects.

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::uint64_t t0_ns = 0;
  std::string corrupt;
};

/// Log-linear histogram of non-negative values with 1/512 relative
/// resolution and fixed memory. A run keeps no per-block samples: samples
/// that grow with the run grow the page tables every fork copies, and block
/// latency then climbs with the sample count (measured: about +30 % over a
/// 20 s fork_race run with the samples in std::vector).
class Histogram {
 public:
  void record(double x) {
    if (counts_.empty()) counts_.assign(kBuckets, 0);
    ++counts_[index(x <= 0 ? 0 : static_cast<std::uint64_t>(x * kScale))];
    ++n_;
  }

  void clear() {
    std::fill(counts_.begin(), counts_.end(), 0);
    n_ = 0;
  }

  /// The q-quantile, interpolated by rank inside its bucket.
  [[nodiscard]] double quantile(double q) const {
    if (n_ == 0) return 0.0;
    const double target = q * static_cast<double>(n_);
    double cum = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      if (counts_[i] == 0) continue;
      const double c = counts_[i];
      if (cum + c >= target) {
        const auto [lo, width] = bounds(i);
        const double frac = std::clamp((target - cum) / c, 0.0, 1.0);
        return (static_cast<double>(lo) + frac * static_cast<double>(width)) /
               kScale;
      }
      cum += c;
    }
    return 0.0;
  }

 private:
  static constexpr int kSub = 512;  // buckets per octave
  static constexpr int kSubBits = 9;
  static constexpr int kOctaves = 40;
  static constexpr std::size_t kBuckets = kSub * (kOctaves + 1);
  static constexpr double kScale = 1000.0;  // resolve 1/1000 of the unit

  static std::size_t index(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = 63 - __builtin_clzll(v);  // >= kSubBits
    const int shift = std::min(e - kSubBits, kOctaves - 1);
    const std::uint64_t m = std::min<std::uint64_t>(v >> shift, 2 * kSub - 1);
    return static_cast<std::size_t>(kSub * (shift + 1) + (m - kSub));
  }
  static std::pair<std::uint64_t, std::uint64_t> bounds(std::size_t i) {
    if (i < kSub) return {i, 1};
    const int shift = static_cast<int>(i / kSub) - 1;
    const std::uint64_t m = kSub + i % kSub;
    return {m << shift, std::uint64_t{1} << shift};
  }

  std::vector<std::uint32_t> counts_;
  std::uint64_t n_ = 0;
};

/// Length of one window of the timed phase.
constexpr double kWindowS = 2.0;

/// Per-phase accumulation (dark or traced half of a run).
struct Tally {
  Histogram lat_ms;  // caller-side wall per block
  std::uint64_t attempted = 0;
  std::uint64_t blocks = 0;  // completed, so timed
  std::uint64_t failed = 0;
  std::uint64_t t_begin = 0;
  std::uint64_t child0 = 0, child1 = 0;
  std::uint64_t spec_cpu_ns = 0;  // sum of RaceReport::spec.total_cpu_ns
  std::uint64_t children = 0;     // children costed in those reports

  // Bench-side spans (µs) and RaceReport counts.
  Histogram spawn_us, settle_us, arm_us, fail_detect_us;
  std::uint64_t eliminated = 0, too_late = 0, aborted = 0;
  std::uint64_t wasted_cpu_ns = 0, pages_absorbed = 0;
  std::uint64_t hedged = 0, skipped = 0;

  // Daemon outcome split (µs).
  Histogram queue_us, exec_us, rpc_us;

  // Phase span sums from the trace (traced half only).
  std::uint64_t phase_races = 0;
  std::uint64_t phase_ns[obs::kPhaseCount] = {};
  std::uint64_t child_phase_ns[obs::kPhaseCount] = {};
  std::uint64_t trace_dropped = 0;

  // The timed phase in windows of about kWindowS: block_p90_ms,
  // blocks_per_s and cpu_ms_per_block are medians of per-window figures, so
  // load from outside that covers less than half of the windows does not
  // move them.
  Histogram win_lat;
  std::uint64_t win_t0 = 0, win_cpu0 = 0, win_blocks = 0;
  std::vector<double> win_p90_ms, win_rate, win_cpu_ms;

  void block_done(double ms) {
    lat_ms.record(ms);
    win_lat.record(ms);
    ++blocks;
    ++win_blocks;
  }
  void open_window(std::uint64_t now, std::uint64_t cpu) {
    win_lat.clear();
    win_blocks = 0;
    win_t0 = now;
    win_cpu0 = cpu;
  }
  void close_window(std::uint64_t now) {
    const std::uint64_t cpu = cpu_ns(RUSAGE_SELF) + cpu_ns(RUSAGE_CHILDREN);
    const double n = static_cast<double>(std::max<std::uint64_t>(win_blocks, 1));
    win_p90_ms.push_back(win_lat.quantile(0.9));
    win_rate.push_back(static_cast<double>(win_blocks) * 1e9 /
                       static_cast<double>(now - win_t0));
    win_cpu_ms.push_back(static_cast<double>(cpu - win_cpu0) / 1e6 / n);
    open_window(now, cpu);
  }

  void open() {
    t_begin = mono_ns();
    child0 = cpu_ns(RUSAGE_CHILDREN);
    open_window(t_begin, cpu_ns(RUSAGE_SELF) + child0);
  }
  void close() { child1 = cpu_ns(RUSAGE_CHILDREN); }
};

/// Check bookkeeping: a failed check makes the run incorrect and counts the
/// block as failed; `corrupt` falsifies one expectation once.
struct Checker {
  std::string corrupt;
  bool correct = true;
  std::map<std::string, std::uint64_t> failures;

  /// True (once) when `name` is the expectation this run must falsify.
  bool take(const char* name) {
    if (corrupt != name) return false;
    corrupt.clear();
    return true;
  }
  bool expect(bool ok, const char* name) {
    if (!ok) {
      correct = false;
      ++failures[name];
    }
    return ok;
  }
};

/// Folds a trace snapshot into the tally and clears the ring. Called only
/// between blocks, when no arm is alive (daemon workers are idle).
void drain_trace(Tally& t) {
  const std::vector<obs::Record> recs = obs::snapshot();
  t.trace_dropped += obs::dropped();
  for (const auto& [id, pb] : obs::reduce_critical_path(recs)) {
    (void)id;
    if (!pb.decided) continue;
    ++t.phase_races;
    for (int p = 0; p < obs::kPhaseCount; ++p) {
      t.phase_ns[p] += pb.phase_ns[p];
      t.child_phase_ns[p] += pb.child_ns[p];
    }
  }
  obs::reset();
}

// ---------------------------------------------------------------------------
// Local workloads: one block = one posix::race<> call.

/// The value arm `arm` of block `b` computes; the parent recomputes it.
std::uint64_t arm_value(std::uint64_t seed, std::uint64_t b, int arm) {
  return splitmix(seed ^ splitmix(b * 8 + static_cast<std::uint64_t>(arm)));
}

using Alts = std::vector<posix::AlternativeFn<std::uint64_t>>;
using Result = std::optional<posix::RaceResult<std::uint64_t>>;

/// One local block: clears the arm stamps, times race() as its caller sees
/// it, and records the wall, the stamped spans and the RaceReport counts.
/// False (the block failed) when race() throws.
bool timed_race(Tally& t, const Alts& alts, posix::RaceOptions ro,
                Result& r) {
  posix::RaceReport rep;
  ro.report = &rep;
  clear_stamps();
  const std::uint64_t t_call = mono_ns();
  try {
    r = posix::race<std::uint64_t>(alts, ro);
  } catch (const std::exception&) {
    ++t.failed;
    return false;
  }
  const std::uint64_t t_ret = mono_ns();
  t.block_done(static_cast<double>(t_ret - t_call) / 1e6);
  t.spec_cpu_ns += rep.spec.total_cpu_ns;
  t.children += static_cast<std::uint64_t>(rep.spec.children_costed);
  t.eliminated += static_cast<std::uint64_t>(rep.eliminated);
  t.too_late += static_cast<std::uint64_t>(rep.too_late);
  t.aborted += static_cast<std::uint64_t>(rep.aborted);
  t.wasted_cpu_ns += rep.spec.wasted_cpu_ns;
  t.hedged += static_cast<std::uint64_t>(rep.pred_hedged);
  t.skipped += static_cast<std::uint64_t>(rep.pred_skipped);
  const int winner = r ? r->winner : 0;
  if (winner >= 1 && winner <= kMaxArms) {
    const std::uint64_t s = g_stamps[winner].start.load();
    const std::uint64_t e = g_stamps[winner].end.load();
    if (s >= t_call && e >= s && t_ret >= e) {
      t.spawn_us.record(static_cast<double>(s - t_call) / 1e3);
      t.arm_us.record(static_cast<double>(e - s) / 1e3);
      t.settle_us.record(static_cast<double>(t_ret - e) / 1e3);
    }
  } else if (!r) {
    std::uint64_t last = 0;
    for (std::size_t a = 1; a <= alts.size(); ++a) {
      last = std::max(last, g_stamps[a].end.load());
    }
    if (last >= t_call && t_ret >= last) {
      t.fail_detect_us.record(static_cast<double>(t_ret - last) / 1e3);
    }
  }
  return true;
}

// fork_race --------------------------------------------------------------
// Two arms, no arena/history/daemon: one commits at once, the other after
// ~1 ms. Which position holds the fast arm is seeded, 16/16 per round.

constexpr std::uint64_t kSlowArmUs = 1000;

struct ForkRace {
  std::uint64_t seed;
  Checker& chk;
  std::uint64_t b = 0;  // global block counter (warm-up included)

  void block(Tally& t, int fast_arm) {
    ++t.attempted;
    const std::uint64_t blk = b++;
    Alts alts;
    for (int arm = 1; arm <= 2; ++arm) {
      const bool fast = arm == fast_arm;
      alts.push_back([arm, fast, blk,
                      seed = seed]() -> std::optional<std::uint64_t> {
        stamp_start(arm);
        g_overwritten = blk;
        if (!fast) sleep_us(kSlowArmUs);
        const std::uint64_t v = arm_value(seed, blk, arm);
        stamp_end(arm);
        return v;
      });
    }
    Result r;
    if (!timed_race(t, alts, {}, r)) return;
    bool ok = chk.expect(r.has_value(), "fork_race.no_fail");
    if (ok) {
      std::uint64_t want = arm_value(seed, blk, r->winner);
      if (chk.take("fork_value")) want ^= 1;
      ok = chk.expect(r->winner >= 1 && r->winner <= 2 && r->value == want,
                      "fork_race.value");
    }
    std::uint64_t sentinel = kSentinel;
    if (chk.take("fork_global")) sentinel ^= 1;
    ok = chk.expect(g_overwritten == sentinel, "fork_race.global") && ok;
    if (!ok) ++t.failed;
  }

  void round(Tally& t, Rng& rng) {
    for (int k : shuffled_round(rng, {16, 16})) block(t, k + 1);
  }
};

// heap_absorb ---------------------------------------------------------------
// Two arms over a 32 MiB AltHeap arena. Each arm writes its own seeded set
// of 200-400 pages; the fast arm commits at once, the slow one ~1 ms later.
// The benchmark applies exactly the winner's writes to a shadow copy kept
// in ordinary memory (MADV_DONTFORK: the arms never see it, so it adds
// nothing to fork), then compares the pages either arm touched.

constexpr std::size_t kArenaPages = 8192;

struct Write {
  std::uint32_t page;
  std::uint32_t word;  // 8-byte word index within the page
  std::uint64_t value;
};

struct HeapAbsorb {
  Checker& chk;
  posix::AltHeap heap{kArenaPages};
  std::uint8_t* shadow = nullptr;
  std::size_t page_size = heap.page_size();
  std::uint64_t b = 0;

  explicit HeapAbsorb(Checker& c) : chk(c) {
    const std::size_t bytes = heap.size_bytes();
    void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("mmap(shadow)");
    ::madvise(p, bytes, MADV_DONTFORK);
    shadow = static_cast<std::uint8_t*>(p);
    // Populate both so fork copies the same page tables on every block.
    std::memset(heap.base(), 0, bytes);
    std::memset(shadow, 0, bytes);
  }
  ~HeapAbsorb() { ::munmap(shadow, heap.size_bytes()); }
  HeapAbsorb(const HeapAbsorb&) = delete;
  HeapAbsorb& operator=(const HeapAbsorb&) = delete;

  std::vector<Write> write_set(Rng& rng) const {
    const std::size_t n = 200 + rng.below(201);
    std::vector<Write> ws(n);
    for (Write& w : ws) {
      w.page = static_cast<std::uint32_t>(rng.below(kArenaPages));
      w.word = static_cast<std::uint32_t>(rng.below(page_size / 8));
      w.value = rng.next() | 1;  // never the arena's initial zero
    }
    return ws;
  }

  static void apply(std::uint8_t* base, std::size_t page_size,
                    const std::vector<Write>& ws) {
    for (const Write& w : ws) {
      std::memcpy(base + w.page * page_size + w.word * 8, &w.value, 8);
    }
  }

  void block(Tally& t, Rng& rng, int fast_arm) {
    ++t.attempted;
    const std::uint64_t blk = b++;
    const std::vector<Write> sets[2] = {write_set(rng), write_set(rng)};
    auto* base = static_cast<std::uint8_t*>(heap.base());
    const std::size_t psz = page_size;
    Alts alts;
    for (int arm = 1; arm <= 2; ++arm) {
      const bool fast = arm == fast_arm;
      const std::vector<Write>* ws = &sets[arm - 1];
      alts.push_back([arm, fast, ws, base, psz,
                      blk]() -> std::optional<std::uint64_t> {
        stamp_start(arm);
        g_overwritten = blk;
        apply(base, psz, *ws);
        if (!fast) sleep_us(kSlowArmUs);
        stamp_end(arm);
        return blk;
      });
    }
    posix::RaceOptions ro;
    ro.heap = &heap;
    Result r;
    if (!timed_race(t, alts, ro, r)) return;
    if (!chk.expect(r.has_value() && r->value == blk &&
                        (r->winner == 1 || r->winner == 2),
                    "heap_absorb.winner")) {
      ++t.failed;
      return;
    }
    t.pages_absorbed += r->pages_absorbed;
    const std::vector<Write>& won = sets[r->winner - 1];
    apply(shadow, psz, won);
    std::vector<std::uint32_t> pages;
    for (const Write& w : won) pages.push_back(w.page);
    std::sort(pages.begin(), pages.end());
    pages.erase(std::unique(pages.begin(), pages.end()), pages.end());
    std::size_t want_pages = pages.size();
    if (chk.take("heap_pages")) ++want_pages;
    bool ok = chk.expect(r->pages_absorbed == want_pages, "heap_absorb.pages");
    if (chk.take("heap_shadow")) shadow[won.front().page * psz] ^= 0x01;
    // Every page either arm wrote: the winner's must match, a loser's
    // write must not show.
    for (const auto& ws : sets) {
      for (const Write& w : ws) {
        const std::size_t off = w.page * psz;
        if (std::memcmp(base + off, shadow + off, psz) != 0) {
          ok = chk.expect(false, "heap_absorb.shadow");
          break;
        }
      }
    }
    ok = chk.expect(g_overwritten == kSentinel, "heap_absorb.global") && ok;
    if (!ok) ++t.failed;
  }

  void round(Tally& t, Rng& rng) {
    for (int k : shuffled_round(rng, {8, 8})) block(t, rng, k + 1);
  }

  /// End of run: the whole arena equals the shadow.
  void final_check() {
    chk.expect(std::memcmp(heap.base(), shadow, heap.size_bytes()) == 0,
               "heap_absorb.arena");
  }
};

// recovery_blocks -----------------------------------------------------------
// Three arms at a fixed site with predict=true over a history warmed during
// set-up. Arm 1 answers at once, arms 2 and 3 after 2 and 3 ms. Guard
// outcomes are seeded per round of 25 blocks:
//   16 blocks: every guard holds;
//    7 blocks: arm 1's guard fails, arms 2 and 3 hold;
//    2 blocks: every guard fails, so FAIL is the correct output.
// The median falls in the arm-1 mode (64 %), p90 in the 2-3 ms mode.

constexpr std::uint64_t kRecoverySite = 0x6a1f0c5e2b9d4417ULL;
constexpr std::uint64_t kArmUs[4] = {0, 0, 2000, 3000};

struct RecoveryBlocks {
  std::uint64_t seed;
  Checker& chk;
  std::uint64_t b = 0;

  void block(Tally& t, int kind) {
    ++t.attempted;
    const std::uint64_t blk = b++;
    bool holds[4] = {false, kind == 0, kind != 2, kind != 2};
    Alts alts;
    for (int arm = 1; arm <= 3; ++arm) {
      const bool ok = holds[arm];
      alts.push_back([arm, ok, blk,
                      seed = seed]() -> std::optional<std::uint64_t> {
        stamp_start(arm);
        g_overwritten = blk;
        if (kArmUs[arm] > 0) sleep_us(kArmUs[arm]);
        stamp_end(arm);
        if (!ok) return std::nullopt;
        return arm_value(seed, blk, arm);
      });
    }
    posix::RaceOptions ro;
    ro.site_id = kRecoverySite;
    ro.predict = true;
    Result r;
    if (!timed_race(t, alts, ro, r)) return;
    bool want_fail = kind == 2;
    if (want_fail && chk.take("recovery_fail")) want_fail = false;
    bool ok = chk.expect(r.has_value() != want_fail, "recovery_blocks.fail");
    if (ok && r) {
      const bool in_range = r->winner >= 1 && r->winner <= 3;
      if (in_range && chk.take("recovery_value")) holds[r->winner] = false;
      ok = chk.expect(in_range && holds[r->winner] &&
                          r->value == arm_value(seed, blk, r->winner),
                      "recovery_blocks.value");
    }
    ok = chk.expect(g_overwritten == kSentinel, "recovery_blocks.global") && ok;
    if (!ok) ++t.failed;
  }

  void round(Tally& t, Rng& rng) {
    for (int k : shuffled_round(rng, {16, 7, 2})) block(t, k);
  }
};

// daemon_jobs ---------------------------------------------------------------
// An in-process altxd with one worker per CPU (at most 4) and one client
// connection keeping a window of twice the workers in flight. Each job is
// three stock-handler arms in seeded order: echo(payload),
// sleep_ms(1 ms + payload) and fail. Jobs are waited in submit order; a
// round of 256 jobs ends with the window drained.

struct Daemon {
  srv::Server server;
  std::thread loop;
  std::optional<srv::Client> client;

  explicit Daemon(const srv::ServerConfig& cfg) : server(cfg) {
    server.start();
    loop = std::thread([this] { server.run(); });
    try {
      client.emplace(srv::Client::connect_unix(cfg.socket_path));
    } catch (...) {
      server.request_stop();
      loop.join();
      throw;
    }
  }
  ~Daemon() {
    client.reset();
    server.request_stop();
    loop.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
};

struct DaemonJobs {
  Checker& chk;
  int workers = 1;
  int window = 2;
  std::uint64_t results = 0;  // results this client received
  std::string socket_path;
  std::unique_ptr<Daemon> d;

  explicit DaemonJobs(Checker& c) : chk(c) {
    // One worker, with one job queued behind the one it runs. Each job's
    // race forks three arms; with one worker per CPU (4) the guest was
    // ~80 % busy and whole runs settled at either ~3400 or ~1100 jobs/s,
    // with 2 workers at ~3000 or ~1900: the run measured where the
    // scheduler put the fleet more than the daemon.
    workers = 1;
    window = 2 * workers;
    ::mkdir(".bench_run", 0755);
    socket_path = ".bench_run/altxd-" + std::to_string(::getpid()) + ".sock";
    srv::register_builtin_handlers(srv::HandlerRegistry::global());
  }

  void start() {
    srv::ServerConfig cfg;
    cfg.socket_path = socket_path;
    cfg.workers = workers;
    cfg.per_client_running = workers;
    cfg.per_client_queue = 4 * window;
    cfg.heap_pages = 0;
    d = std::make_unique<Daemon>(cfg);
    results = 0;
  }
  void stop() { d.reset(); }

  struct Job {
    srv::JobSpec spec;
    std::uint64_t id = 0;
    std::uint64_t t_submit = 0;
  };

  Job make_job(Rng& rng) {
    Job j;
    j.spec.timeout_ms = 10'000;
    Bytes payload(16 + rng.below(49));
    for (auto& x : payload) x = static_cast<std::uint8_t>(rng.next());
    Bytes sleep_args(4);
    const std::uint32_t ms = 1;
    std::memcpy(sleep_args.data(), &ms, 4);
    sleep_args.insert(sleep_args.end(), payload.begin(), payload.end());
    std::vector<srv::JobArm> arms = {{"echo", payload},
                                     {"sleep_ms", sleep_args},
                                     {"fail", {}}};
    for (std::size_t i = arms.size(); i > 1; --i) {
      std::swap(arms[i - 1], arms[rng.below(i)]);
    }
    j.spec.arms = std::move(arms);
    return j;
  }

  void finish(Tally& t, Job& j) {
    srv::JobOutcome out;
    try {
      out = d->client->wait(j.id, std::chrono::milliseconds(30'000));
    } catch (const std::exception&) {
      ++t.failed;
      return;
    }
    const std::uint64_t t_ret = mono_ns();
    ++results;
    const double wall_us = static_cast<double>(t_ret - j.t_submit) / 1e3;
    if (out.status != srv::JobStatus::kWon) {
      // Denied, timed out or errored: a failed block, not a wrong one.
      ++t.failed;
      return;
    }
    t.block_done(wall_us / 1e3);
    const double q = static_cast<double>(out.queue_ns) / 1e3;
    const double e = static_cast<double>(out.exec_ns) / 1e3;
    t.queue_us.record(q);
    t.exec_us.record(e);
    t.rpc_us.record(wall_us - q - e);
    const std::size_t w = out.winner;
    bool ok = w >= 1 && w <= j.spec.arms.size() &&
              j.spec.arms[w - 1].handler != "fail";
    if (ok) {
      Bytes want = j.spec.arms[w - 1].args;
      if (chk.take("daemon_echo")) want[want.size() - 1] ^= 0x01;
      ok = out.value == want;
    }
    if (!chk.expect(ok, "daemon_jobs.echo")) ++t.failed;
  }

  void round(Tally& t, Rng& rng) {
    std::vector<Job> jobs;
    for (int i = 0; i < 256; ++i) jobs.push_back(make_job(rng));
    std::size_t next = 0, done = 0;
    auto submit = [&] {
      Job& j = jobs[next++];
      ++t.attempted;
      j.t_submit = mono_ns();
      j.id = d->client->submit(j.spec);
    };
    while (next < jobs.size() && next < static_cast<std::size_t>(window)) {
      submit();
    }
    while (done < jobs.size()) {
      finish(t, jobs[done++]);
      if (next < jobs.size()) submit();
    }
  }

  /// The daemon's completed count equals this client's count of results.
  void final_check() {
    const srv::WireStats st = d->client->stats();
    std::uint64_t mine = results;
    if (chk.take("daemon_completed")) ++mine;
    chk.expect(st.completed == mine, "daemon_jobs.completed");
  }

  std::uint64_t respawns() { return d->client->stats().worker_respawns; }
};

// ---------------------------------------------------------------------------
// Direct layer calls (traced runs only).

struct HeapMicro {
  double begin_tracking_us = 0, track_us = 0, serialize_us = 0, apply_us = 0;
};

/// Least-squares slope of y over x.
double slope(const std::vector<double>& x, const std::vector<double>& y) {
  const double mx = mean(x), my = mean(y);
  double num = 0, den = 0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    num += (x[i] - mx) * (y[i] - my);
    den += (x[i] - mx) * (x[i] - mx);
  }
  return den == 0 ? 0 : num / den;
}

/// Sweeps AltHeap's tracking, serialisation and absorb over dirty-page
/// counts on one arena size; per-page costs are slopes, begin_tracking
/// is the median call. Prints the sweep's line.
HeapMicro heap_micro(std::size_t arena_pages) {
  const std::vector<std::size_t> counts = {16, 64, 256};
  constexpr int kReps = 15;
  posix::AltHeap heap(arena_pages), sink(arena_pages);
  std::memset(heap.base(), 0, heap.size_bytes());
  std::memset(sink.base(), 0, sink.size_bytes());
  const std::size_t psz = heap.page_size();
  auto* base = static_cast<std::uint8_t*>(heap.base());
  std::vector<double> xs, track, ser, app, begin;
  for (std::size_t k : counts) {
    std::vector<double> tr, se, ap;
    for (int rep = 0; rep < kReps; ++rep) {
      const std::uint64_t t0 = mono_ns();
      heap.begin_tracking();
      const std::uint64_t t1 = mono_ns();
      const std::size_t stride = arena_pages / k;
      for (std::size_t i = 0; i < k; ++i) base[i * stride * psz] += 1;
      const std::uint64_t t2 = mono_ns();
      const Bytes patch = heap.serialize_dirty();
      const std::uint64_t t3 = mono_ns();
      heap.end_tracking();
      const std::uint64_t t4 = mono_ns();
      sink.apply_patch(patch);
      const std::uint64_t t5 = mono_ns();
      begin.push_back(static_cast<double>(t1 - t0) / 1e3);
      tr.push_back(static_cast<double>(t2 - t1) / 1e3);
      se.push_back(static_cast<double>(t3 - t2) / 1e3);
      ap.push_back(static_cast<double>(t5 - t4) / 1e3);
    }
    xs.push_back(static_cast<double>(k));
    track.push_back(median(tr));
    ser.push_back(median(se));
    app.push_back(median(ap));
  }
  HeapMicro m;
  m.begin_tracking_us = median(begin);
  m.track_us = slope(xs, track);
  m.serialize_us = slope(xs, ser);
  m.apply_us = slope(xs, app);
  std::printf("alt_heap sweep, %zu KiB arena: begin_tracking %.1f us; per "
              "page: track %.3f, serialize %.3f, apply %.3f us\n",
              arena_pages * psz / 1024, m.begin_tracking_us, m.track_us,
              m.serialize_us, m.apply_us);
  return m;
}

/// Median µs of one call, timed over batches.
template <typename F>
double per_call_us(F&& f, int batch, int batches) {
  std::vector<double> v;
  for (int i = 0; i < batches; ++i) {
    const std::uint64_t t0 = mono_ns();
    for (int j = 0; j < batch; ++j) f(j);
    v.push_back(static_cast<double>(mono_ns() - t0) / 1e3 / batch);
  }
  return median(v);
}

// ---------------------------------------------------------------------------
// Command line and the run itself.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "altx_bench: %s\nusage: altx_bench --workload "
               "fork_race|heap_absorb|recovery_blocks|daemon_jobs --seed N "
               "--seconds S --trace 0|1 [--t0-ns T] [--corrupt CHECK]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (a == "--trace") {
      o.trace = std::atoi(v);
    } else if (a == "--t0-ns") {
      o.t0_ns = std::strtoull(v, nullptr, 10);
    } else if (a == "--corrupt") {
      static const char* const kChecks[] = {
          "fork_value",    "fork_global",    "heap_shadow",
          "heap_pages",    "recovery_fail",  "recovery_value",
          "daemon_echo",   "daemon_completed", "cpu_total"};
      o.corrupt = v;
      if (std::find(std::begin(kChecks), std::end(kChecks), o.corrupt) ==
          std::end(kChecks)) {
        usage(("unknown --corrupt " + o.corrupt).c_str());
      }
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (o.workload != "fork_race" && o.workload != "heap_absorb" &&
      o.workload != "recovery_blocks" && o.workload != "daemon_jobs") {
    usage(("unknown workload '" + o.workload + "'").c_str());
  }
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  if (o.trace != 0 && o.trace != 1) usage("--trace is 0 or 1");
  return o;
}

/// Runs whole rounds until `seconds` have passed, in windows of about
/// kWindowS that each end on a round boundary.
template <typename RoundFn>
void timed(Tally& t, double seconds, RoundFn&& round) {
  const int windows = std::max(1, static_cast<int>(seconds / kWindowS));
  t.win_p90_ms.reserve(static_cast<std::size_t>(windows));
  t.win_rate.reserve(static_cast<std::size_t>(windows));
  t.win_cpu_ms.reserve(static_cast<std::size_t>(windows));
  t.open();
  const auto span = static_cast<std::uint64_t>(seconds * 1e9);
  for (int w = 1; w <= windows; ++w) {
    const std::uint64_t end = t.t_begin + span * w / windows;
    std::uint64_t now = 0;
    do {
      round();
    } while ((now = mono_ns()) < end);
    t.close_window(now);
  }
  t.close();
}

/// Local workloads: RaceReport's CPU bill agrees with RUSAGE_CHILDREN over
/// the same blocks. Both come from the same kernel ledger; the allowance
/// is rounding: each child's bill is truncated to whole µs twice (user and
/// system), and getrusage truncates the running total once more.
bool cpu_agrees(const Tally& t, Checker& chk) {
  std::uint64_t spec = t.spec_cpu_ns;
  if (chk.take("cpu_total")) spec += 1'000'000'000ULL;
  const std::uint64_t ru = t.child1 - t.child0;
  const std::uint64_t diff = spec > ru ? spec - ru : ru - spec;
  const std::uint64_t allow = 2000 * (t.children + 1);
  std::printf("cpu_total: RaceReport %" PRIu64 " ns, RUSAGE_CHILDREN %" PRIu64
              " ns, %" PRIu64 " children, |diff| %" PRIu64
              " ns (allowed %" PRIu64 ")\n",
              spec, ru, t.children, diff, allow);
  return chk.expect(diff <= allow, "cpu_total");
}

/// Everything one run measured, for the two reports below.
struct Run {
  Tally dark, traced;
  double setup_s = 0;
  double warmup_s = 0;  // the warm-up blocks' share of setup_s
  std::uint64_t respawns = 0;
  bool heap = false, recovery = false;
};

std::vector<Metric> end_to_end(const Run& r) {
  const Tally& d = r.dark;
  return {
      {"setup_s", r.setup_s, "s"},
      {"block_p50_ms", d.lat_ms.quantile(0.5), "ms"},
      {"block_p90_ms", median(d.win_p90_ms), "ms"},
      {"blocks_per_s", median(d.win_rate), "1/s"},
      {"cpu_ms_per_block", median(d.win_cpu_ms), "ms"},
      {"max_rss_mib", max_rss_mib(), "MiB"},
  };
}

/// Layer metrics. Spans and counts come from the dark half, phase means
/// from the traced half; direct calls run only for the layer the workload
/// exercises (0 elsewhere).
std::vector<Metric> per_layer(const Run& r) {
  const Tally& d = r.dark;
  const Tally& t = r.traced;
  const double blocks =
      static_cast<double>(std::max<std::uint64_t>(d.blocks, 1));
  auto per_block = [&](std::uint64_t n) {
    return static_cast<double>(n) / blocks;
  };
  const double races =
      static_cast<double>(std::max<std::uint64_t>(t.phase_races, 1));
  auto phase = [&](const std::uint64_t* ns, obs::Phase p) {
    return static_cast<double>(ns[static_cast<int>(p)]) / 1e3 / races;
  };

  // Two arena sizes; the metrics are the workload's 32 MiB arena, the
  // 1 MiB sweep is printed beside them.
  HeapMicro hm;
  if (r.heap) {
    heap_micro(256);
    hm = heap_micro(kArenaPages);
  }
  double plan_us = 0, record_us = 0;
  if (r.recovery) {
    posix::PredictorConfig pc = posix::PredictorConfig::from_env();
    pc.enabled = true;
    const posix::SpeculationPlanner planner(pc, obs::history());
    std::size_t arms = 0;
    plan_us = per_call_us(
        [&](int) { arms += planner.plan(kRecoverySite, 3, false).arms.size(); },
        200, 25);
    if (arms == 0) throw std::runtime_error("planner returned no arms");
    // A separate key of the same warm store: the workload's site keeps its
    // history.
    record_us = per_call_us(
        [&](int j) {
          obs::history()->record(kRecoverySite + 1,
                                 static_cast<std::uint32_t>(j % 3) + 1,
                                 300'000 + static_cast<std::uint64_t>(j),
                                 100'000, j % 2 == 0);
        },
        200, 25);
  }
  return {
      {"alt_group.spawn_us", d.spawn_us.quantile(0.5), "us"},
      {"alt_group.settle_us", d.settle_us.quantile(0.5), "us"},
      {"alt_group.fail_detect_us", d.fail_detect_us.quantile(0.5), "us"},
      {"alt_group.arm_us", d.arm_us.quantile(0.5), "us"},
      {"alt_group.eliminated_per_block", per_block(d.eliminated), "count"},
      {"alt_group.too_late_per_block", per_block(d.too_late), "count"},
      {"alt_group.aborted_per_block", per_block(d.aborted), "count"},
      {"alt_group.wasted_cpu_ms_per_block", per_block(d.wasted_cpu_ns) / 1e6,
       "ms"},
      {"alt_heap.begin_tracking_us", hm.begin_tracking_us, "us"},
      {"alt_heap.track_us_per_page", hm.track_us, "us"},
      {"alt_heap.serialize_us_per_page", hm.serialize_us, "us"},
      {"alt_heap.apply_us_per_page", hm.apply_us, "us"},
      {"alt_heap.pages_absorbed_per_block", per_block(d.pages_absorbed),
       "count"},
      {"predictor.plan_us", plan_us, "us"},
      {"history.record_us", record_us, "us"},
      {"predictor.hedged_per_block", per_block(d.hedged), "count"},
      {"predictor.skipped_per_block", per_block(d.skipped), "count"},
      {"server.queue_us", d.queue_us.quantile(0.5), "us"},
      {"server.exec_us", d.exec_us.quantile(0.5), "us"},
      {"server.rpc_us", d.rpc_us.quantile(0.5), "us"},
      {"server.worker_respawns", static_cast<double>(r.respawns), "count"},
      {"obs.trace_overhead_us",
       (t.lat_ms.quantile(0.5) - d.lat_ms.quantile(0.5)) * 1e3, "us"},
      {"obs.trace_dropped", static_cast<double>(t.trace_dropped), "count"},
      {"phase.fork_us", phase(t.phase_ns, obs::Phase::kFork), "us"},
      {"phase.arm_run_us", phase(t.phase_ns, obs::Phase::kArmRun), "us"},
      {"phase.result_pipe_us", phase(t.phase_ns, obs::Phase::kResultPipe),
       "us"},
      {"phase.page_diff_us", phase(t.child_phase_ns, obs::Phase::kPageDiff),
       "us"},
      {"phase.absorb_us", phase(t.phase_ns, obs::Phase::kAbsorb), "us"},
      {"phase.eliminate_us", phase(t.phase_ns, obs::Phase::kEliminate), "us"},
  };
}

/// Set-up, warm-up, the dark half (or whole) and, traced, the second half.
Run run(const Options& o, Checker& chk, std::uint64_t t0) {
  Run r;
  Rng rng{splitmix(o.seed ^ 0xa17b0c4e5d3f2a19ULL)};
  Tally warm;
  map_stamps();

  // Each workload supplies its set-up, one round, and end-of-run checks.
  std::unique_ptr<ForkRace> fr;
  std::unique_ptr<HeapAbsorb> ha;
  std::unique_ptr<RecoveryBlocks> rb;
  std::unique_ptr<DaemonJobs> dj;
  std::function<void(Tally&)> round;
  int warm_rounds = 0;
  if (o.workload == "fork_race") {
    fr = std::make_unique<ForkRace>(ForkRace{o.seed, chk});
    round = [&](Tally& t) { fr->round(t, rng); };
    warm_rounds = 40;
  } else if (o.workload == "heap_absorb") {
    ha = std::make_unique<HeapAbsorb>(chk);
    round = [&](Tally& t) { ha->round(t, rng); };
    warm_rounds = 5;
  } else if (o.workload == "recovery_blocks") {
    obs::history_enable_for_test(obs::HistoryStore::kDefaultCapacity);
    rb = std::make_unique<RecoveryBlocks>(RecoveryBlocks{o.seed, chk});
    round = [&](Tally& t) { rb->round(t, rng); };
    warm_rounds = 12;
  } else {
    dj = std::make_unique<DaemonJobs>(chk);
    dj->start();
    round = [&](Tally& t) { dj->round(t, rng); };
    warm_rounds = 4;
  }
  r.heap = ha != nullptr;
  r.recovery = rb != nullptr;

  const std::uint64_t t_warm = mono_ns();
  for (int i = 0; i < warm_rounds; ++i) round(warm);
  const std::uint64_t t_timed = mono_ns();
  r.setup_s = static_cast<double>(t_timed - t0) / 1e9;
  r.warmup_s = static_cast<double>(t_timed - t_warm) / 1e9;

  timed(r.dark, o.trace ? o.seconds / 2 : o.seconds, [&] { round(r.dark); });
  if (dj) {
    dj->final_check();
    r.respawns = dj->respawns();
  } else {
    cpu_agrees(r.dark, chk);
  }

  if (o.trace) {
    // Tracing is one-way per process: it is turned on for the second half.
    // The daemon restarts so that its zygote and workers inherit the ring.
    if (dj) dj->stop();
    obs::enable_for_test(1 << 16);
    if (dj) {
      dj->start();
      for (int i = 0; i < warm_rounds; ++i) round(warm);
      drain_trace(warm);
    }
    timed(r.traced, o.seconds / 2, [&] {
      round(r.traced);
      drain_trace(r.traced);
    });
    if (dj) {
      dj->final_check();
      r.respawns += dj->respawns();
    } else {
      cpu_agrees(r.traced, chk);
    }
  }
  if (ha) ha->final_check();
  if (dj) dj->stop();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const std::uint64_t t_main = mono_ns();
  const Options o = parse(argc, argv);
  Checker chk;
  chk.corrupt = o.corrupt;
  Run r;
  std::vector<Metric> out;
  try {
    r = run(o, chk, o.t0_ns != 0 ? o.t0_ns : t_main);
    out = o.trace ? per_layer(r) : end_to_end(r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "altx_bench: %s\n", e.what());
    return 1;
  }

  const std::uint64_t attempted = r.dark.attempted + r.traced.attempted;
  const std::uint64_t failed = r.dark.failed + r.traced.failed;
  std::printf("blocks attempted %" PRIu64 ", failed %" PRIu64 "\n", attempted,
              failed);
  std::printf("setup: %.3f s, of which warm-up blocks %.3f s\n", r.setup_s,
              r.warmup_s);
  if (!o.trace) {
    std::printf("windows (blocks/s, p90 ms, CPU ms/block):");
    for (std::size_t i = 0; i < r.dark.win_rate.size(); ++i) {
      std::printf(" %.0f/%.3f/%.3f", r.dark.win_rate[i], r.dark.win_p90_ms[i],
                  r.dark.win_cpu_ms[i]);
    }
    std::printf("\n");
  }
  for (const auto& [name, n] : chk.failures) {
    std::printf("check failed: %s (%" PRIu64 " times)\n", name.c_str(), n);
  }
  for (const Metric& m : out) {
    std::printf("%-36s %14.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              chk.correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < out.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", out[i].name.c_str(), out[i].value,
                out[i].unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
