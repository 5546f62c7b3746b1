// The one reap path: wait4 with EINTR retry and rusage capture.
//
// Every place that used to loop on waitpid (AltGroup's opportunistic poll,
// its final reap, await_all's cohort teardown) goes through here, for two
// reasons. First, dedup: the EINTR dance and the WIFEXITED/WIFSIGNALED
// decoding were copied at each site. Second — the speculation-efficiency
// ledger needs it — waitpid discards exactly the numbers the accounting
// wants: wait4's rusage is the only way to learn how much CPU a SIGKILLed
// loser burned, because the loser itself is no longer around to ask.
#pragma once

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <optional>

namespace altx::posix {

/// One child's resource bill, decoded from wait4's rusage. Fields are the
/// subset the speculation ledger consumes; all zero when the kernel gave no
/// usage (it always does for reaped children on Linux).
struct ChildUsage {
  std::uint64_t cpu_ns = 0;      // user + system time
  std::uint64_t maxrss_kb = 0;   // peak resident set, KiB
  std::uint64_t minor_faults = 0;
  std::uint64_t major_faults = 0;
};

[[nodiscard]] inline ChildUsage decode_rusage(const struct rusage& ru) {
  ChildUsage u;
  const auto tv_ns = [](const struct timeval& tv) {
    return static_cast<std::uint64_t>(tv.tv_sec) * 1'000'000'000ULL +
           static_cast<std::uint64_t>(tv.tv_usec) * 1'000ULL;
  };
  u.cpu_ns = tv_ns(ru.ru_utime) + tv_ns(ru.ru_stime);
  u.maxrss_kb = static_cast<std::uint64_t>(ru.ru_maxrss);
  u.minor_faults = static_cast<std::uint64_t>(ru.ru_minflt);
  u.major_faults = static_cast<std::uint64_t>(ru.ru_majflt);
  return u;
}

/// wait4 retrying on EINTR. Same contract as waitpid(pid, status, flags):
/// returns the reaped pid, 0 when WNOHANG found nothing, -1 on error.
/// `usage` (optional) receives the child's rusage on a successful reap.
inline pid_t wait4_eintr(pid_t pid, int* status, int flags,
                         struct rusage* usage = nullptr) {
  while (true) {
    const pid_t r = ::wait4(pid, status, flags, usage);
    if (r >= 0 || errno != EINTR) return r;
  }
}

/// Live CPU (user + system, ns) of a still-running child from
/// /proc/<pid>/stat. wait4's rusage only exists once the child is reaped;
/// the wait loop needs the bill *before* death to enforce a CPU
/// budget, and /proc is the only place the kernel publishes it for a live
/// process. nullopt when the pid is gone or /proc is unreadable.
[[nodiscard]] inline std::optional<std::uint64_t> proc_cpu_ns(pid_t pid) {
  char path[64];
  std::snprintf(path, sizeof path, "/proc/%d/stat", static_cast<int>(pid));
  std::FILE* f = std::fopen(path, "r");
  if (f == nullptr) return std::nullopt;
  char buf[1024];
  const std::size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
  std::fclose(f);
  if (n == 0) return std::nullopt;
  buf[n] = '\0';
  // The comm field is parenthesised and may contain spaces; parse from the
  // last ')' so a hostile process name cannot shift the columns.
  const char* p = nullptr;
  for (const char* q = buf; *q != '\0'; ++q) {
    if (*q == ')') p = q;
  }
  if (p == nullptr) return std::nullopt;
  unsigned long long utime = 0;
  unsigned long long stime = 0;
  // After ") " come: state ppid pgrp session tty tpgid flags minflt cminflt
  // majflt cmajflt utime stime (fields 3..15 of proc(5)).
  if (std::sscanf(p + 1,
                  " %*c %*d %*d %*d %*d %*d %*u %*u %*u %*u %*u %llu %llu",
                  &utime, &stime) != 2) {
    return std::nullopt;
  }
  const long hz = ::sysconf(_SC_CLK_TCK);
  if (hz <= 0) return std::nullopt;
  return (utime + stime) * (1'000'000'000ULL / static_cast<std::uint64_t>(hz));
}

/// A wait(2) status decoded once, instead of WIF* logic at every call site.
struct ExitInfo {
  bool exited = false;    // WIFEXITED
  bool signaled = false;  // WIFSIGNALED
  int exit_code = -1;     // WEXITSTATUS when exited
  int signal = 0;         // WTERMSIG when signaled
};

[[nodiscard]] inline ExitInfo decode_wait_status(int status) {
  ExitInfo info;
  if (WIFEXITED(status)) {
    info.exited = true;
    info.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    info.signaled = true;
    info.signal = WTERMSIG(status);
  }
  return info;
}

}  // namespace altx::posix
