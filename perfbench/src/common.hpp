// Shared plumbing of sfbench: clocks, child processes with
// their resource usage, command-line options, and the JSON line every
// subcommand prints for perfbench/run.py to reduce.
#pragma once

#include <sched.h>
#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "eval/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
[[nodiscard]] inline double ms_since(Clock::time_point a) {
  return ms_between(a, Clock::now());
}

// Host CPU clocks. This host is a virtual machine whose steal time comes in
// phases lasting tens of seconds and stretches wall times up to 2.5x; with
// paravirtual time accounting the kernel leaves steal out of these clocks,
// so the benchmark times its operations with them.

/// CPU time of the calling thread, in ms.
[[nodiscard]] double thread_cpu_ms();
/// CPU time of this process (all threads), in ms.
[[nodiscard]] double process_cpu_ms();
/// CPU time of another process (all threads, exited ones included), in ms.
[[nodiscard]] double process_cpu_ms(pid_t pid);

/// Moves the calling thread to the next CPU it may run on, in turn, at each
/// hop(). Each vCPU of this host drifts between a fast and a slow speed on
/// its own (see perfbench/README.md), and a thread the scheduler leaves on
/// one vCPU for a whole run takes that vCPU's phases with it; hopping
/// spreads every operation over all of them. The destructor restores the
/// thread's CPU mask.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;
  void hop();

 private:
  cpu_set_t allowed_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
};

/// Times the layer calls of a replay: each call returns its thread CPU time
/// (the layer metric), and its wall time counts towards the share of the
/// replay's wall time that timed calls cover.
class Probe {
 public:
  template <class F>
  double operator()(F&& fn) {
    const auto w0 = Clock::now();
    const double c0 = thread_cpu_ms();
    fn();
    const double cpu = thread_cpu_ms() - c0;
    covered_ms_ += ms_since(w0);
    return cpu;
  }
  /// Share of the wall time since construction covered by timed calls.
  [[nodiscard]] double coverage() const {
    return covered_ms_ / ms_since(start_);
  }

 private:
  Clock::time_point start_ = Clock::now();
  double covered_ms_ = 0;
};

/// `--key value` options of a subcommand. Every option takes a value.
class Options {
 public:
  Options(int argc, char** argv, int first);
  [[nodiscard]] std::uint64_t u64(const std::string& key,
                                  std::uint64_t fallback) const;
  [[nodiscard]] double num(const std::string& key, double fallback) const;
  /// Throws when a required option is missing.
  [[nodiscard]] std::string need(const std::string& key) const;

 private:
  std::map<std::string, std::string> values_;
};

/// A finished child process.
struct ChildResult {
  double wall_ms = 0;        ///< posix_spawn to wait4 return
  double cpu_ms = 0;         ///< user + system CPU time of the child
  double maxrss_mb = 0;      ///< ru_maxrss of the child
  std::uint64_t minflt = 0;  ///< minor page faults of the child
  int status = 0;            ///< raw wait status
  [[nodiscard]] bool ok() const;
};

/// The environment with every SFRV_* variable removed, so the program runs
/// with its default engine, backend, opt level and verifier setting.
[[nodiscard]] std::vector<std::string> clean_environment();

/// Start `argv` with stdout and stderr sent to /dev/null. Throws on failure.
[[nodiscard]] pid_t spawn(const std::vector<std::string>& argv);
/// Wait for a child started at `started` and collect its usage.
[[nodiscard]] ChildResult wait_child(pid_t pid, Clock::time_point started);
/// spawn + wait_child.
[[nodiscard]] ChildResult run_child(const std::vector<std::string>& argv);
/// Run `argv` and capture its stdout (stderr to /dev/null).
[[nodiscard]] std::string capture_child(const std::vector<std::string>& argv,
                                        ChildResult* usage = nullptr);

/// Peak resident memory of this process in MB.
[[nodiscard]] double self_peak_rss_mb();
/// A memory field of /proc/<pid>/status ("VmRSS", "VmHWM") in KB.
[[nodiscard]] double process_memory_kb(pid_t pid, const std::string& field);

[[nodiscard]] std::string read_file(const std::string& path);

/// 64-bit FNV-1a, used to compare reply bytes without keeping them.
[[nodiscard]] std::uint64_t fnv1a(std::string_view bytes,
                                  std::uint64_t h = 0xcbf29ce484222325ull);

/// Host-double signal-to-quantization-noise ratio in dB, written from the
/// definition the report documents: 10 log10(sum ref^2 / sum (ref-out)^2),
/// with non-finite outputs counted as full-signal noise and identical
/// signals capped at 99 dB.
[[nodiscard]] double sqnr_db(const std::vector<double>& ref,
                             const std::vector<double>& out);

/// Helpers for the result line.
[[nodiscard]] sfrv::eval::Json json_numbers(const std::vector<double>& v);
[[nodiscard]] sfrv::eval::Json json_strings(const std::vector<std::string>& v);

}  // namespace perfbench
