#include "common.hpp"

#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <time.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

extern char** environ;

namespace perfbench {

Options::Options(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      throw std::runtime_error("expected --option value, got: " + key);
    }
    values_[key.substr(2)] = argv[++i];
  }
}

std::uint64_t Options::u64(const std::string& key,
                           std::uint64_t fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::size_t used = 0;
  const auto v = std::stoull(it->second, &used);
  if (used != it->second.size()) {
    throw std::runtime_error("--" + key + ": not an integer: " + it->second);
  }
  return v;
}

double Options::num(const std::string& key, double fallback) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  std::size_t used = 0;
  const double v = std::stod(it->second, &used);
  if (used != it->second.size()) {
    throw std::runtime_error("--" + key + ": not a number: " + it->second);
  }
  return v;
}

std::string Options::need(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

namespace {

double clock_ms(clockid_t id) {
  timespec ts{};
  if (::clock_gettime(id, &ts) != 0) throw std::runtime_error("clock_gettime");
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double timeval_ms(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 +
         static_cast<double>(tv.tv_usec) / 1e3;
}

}  // namespace

double thread_cpu_ms() { return clock_ms(CLOCK_THREAD_CPUTIME_ID); }
double process_cpu_ms() { return clock_ms(CLOCK_PROCESS_CPUTIME_ID); }
double process_cpu_ms(pid_t pid) {
  clockid_t id{};
  if (::clock_getcpuclockid(pid, &id) != 0) {
    throw std::runtime_error("no CPU clock for pid " + std::to_string(pid));
  }
  return clock_ms(id);
}

bool ChildResult::ok() const {
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

CpuRotation::CpuRotation() {
  CPU_ZERO(&allowed_);
  if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) {
    throw std::runtime_error(std::string("sched_getaffinity: ") +
                             std::strerror(errno));
  }
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  (void)sched_setaffinity(0, sizeof allowed_, &allowed_);
}

void CpuRotation::hop() {
  if (cpus_.size() < 2) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_++ % cpus_.size()], &one);
  if (sched_setaffinity(0, sizeof one, &one) != 0) {
    throw std::runtime_error(std::string("sched_setaffinity: ") +
                             std::strerror(errno));
  }
}

std::vector<std::string> clean_environment() {
  std::vector<std::string> env;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "SFRV_", 5) != 0) env.emplace_back(*e);
  }
  return env;
}

namespace {

std::vector<char*> c_strings(std::vector<std::string>& v) {
  std::vector<char*> out;
  out.reserve(v.size() + 1);
  for (auto& s : v) out.push_back(s.data());
  out.push_back(nullptr);
  return out;
}

pid_t spawn_with_stdout(const std::vector<std::string>& argv, int out_fd) {
  std::vector<std::string> args = argv;
  std::vector<std::string> env = clean_environment();
  auto cargs = c_strings(args);
  auto cenv = c_strings(env);
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  if (out_fd >= 0) {
    posix_spawn_file_actions_adddup2(&fa, out_fd, STDOUT_FILENO);
  } else {
    posix_spawn_file_actions_addopen(&fa, STDOUT_FILENO, "/dev/null",
                                     O_WRONLY, 0);
  }
  posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, "/dev/null", O_WRONLY,
                                   0);
  pid_t pid = -1;
  const int rc =
      posix_spawn(&pid, cargs[0], &fa, nullptr, cargs.data(), cenv.data());
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) {
    throw std::runtime_error("cannot start " + argv[0] + ": " +
                             std::strerror(rc));
  }
  return pid;
}

}  // namespace

pid_t spawn(const std::vector<std::string>& argv) {
  return spawn_with_stdout(argv, -1);
}

ChildResult wait_child(pid_t pid, Clock::time_point started) {
  ChildResult r;
  struct rusage ru {};
  for (;;) {
    const pid_t got = ::wait4(pid, &r.status, 0, &ru);
    if (got == pid) break;
    if (got < 0 && errno == EINTR) continue;
    throw std::runtime_error("wait4 failed");
  }
  r.wall_ms = ms_since(started);
  r.cpu_ms = timeval_ms(ru.ru_utime) + timeval_ms(ru.ru_stime);
  r.maxrss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  r.minflt = static_cast<std::uint64_t>(ru.ru_minflt);
  return r;
}

ChildResult run_child(const std::vector<std::string>& argv) {
  const auto t0 = Clock::now();
  const pid_t pid = spawn(argv);
  return wait_child(pid, t0);
}

std::string capture_child(const std::vector<std::string>& argv,
                          ChildResult* usage) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  const auto t0 = Clock::now();
  pid_t pid = -1;
  try {
    pid = spawn_with_stdout(argv, fds[1]);
  } catch (...) {
    ::close(fds[0]);
    ::close(fds[1]);
    throw;
  }
  ::close(fds[1]);
  std::string out;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fds[0], buf, sizeof buf);
    if (n > 0) {
      out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  ::close(fds[0]);
  const ChildResult r = wait_child(pid, t0);
  if (usage != nullptr) *usage = r;
  if (!r.ok()) {
    throw std::runtime_error(argv[0] + " exited with status " +
                             std::to_string(r.status));
  }
  return out;
}

double self_peak_rss_mb() {
  struct rusage ru {};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double process_memory_kb(pid_t pid, const std::string& field) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  const std::string key = field + ":";
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) == 0) return std::stod(line.substr(key.size()));
  }
  throw std::runtime_error("no " + field + " for pid " + std::to_string(pid));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

double sqnr_db(const std::vector<double>& ref, const std::vector<double>& out) {
  double signal = 0;
  double noise = 0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    const double o = i < out.size() ? out[i] : 0.0;
    const double err = std::isfinite(o) ? ref[i] - o : ref[i];
    signal += ref[i] * ref[i];
    noise += err * err;
  }
  if (noise == 0) return 99.0;
  if (signal == 0) return -99.0;
  return 10.0 * std::log10(signal / noise);
}

sfrv::eval::Json json_numbers(const std::vector<double>& v) {
  sfrv::eval::JsonArray a;
  a.reserve(v.size());
  for (const double x : v) a.emplace_back(x);
  return sfrv::eval::Json(std::move(a));
}

sfrv::eval::Json json_strings(const std::vector<std::string>& v) {
  sfrv::eval::JsonArray a;
  a.reserve(v.size());
  for (const auto& s : v) a.emplace_back(s);
  return sfrv::eval::Json(std::move(a));
}

}  // namespace perfbench
