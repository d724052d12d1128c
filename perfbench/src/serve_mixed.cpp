// serve-mixed: a `sfrv-eval --serve` daemon on a Unix socket with a fresh
// --cache-dir and -j 2, driven through eval::run_remote by two concurrent
// closed-loop clients in this process. Set-up starts the daemon and stores
// the warm set. The stream is made of whole rounds of thirteen requests,
// in seeded order:
//
//   11 warm repeats - the smoke matrix, nn-smoke and the nine
//                     single-benchmark smoke subsets: plan, store hits,
//                     serialization, framing
//   1 fresh         - a single-benchmark smoke subset at a load latency no
//                     earlier request used: the executor simulates it and
//                     the store writes it to disk
//   1 variant       - the previous round's fresh spec (a warm subset in the
//                     first round) under another engine/backend pair:
//                     identical results that today's CellKey still misses
//
// 85% of the requests are warm, so the median latency sits well inside the
// warm mode, and the 95th-percentile tail inside the cold one.
//
// It is the only workload on the service, executor and serialization
// paths, and uses the cell store for reads and writes side by side.
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <condition_variable>
#include <csignal>
#include <cstdio>
#include <deque>
#include <functional>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <thread>

#include "checks.hpp"
#include "eval/campaign.hpp"
#include "eval/cellstore.hpp"
#include "eval/service.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr int kJobs = 2;
constexpr int kClients = 2;
constexpr std::size_t kNone = static_cast<std::size_t>(-1);
constexpr std::size_t kRoundSize = 13;
/// Round after which the daemon's peak resident memory is read.
constexpr std::size_t kRssRound = 200;

const std::vector<std::string>& smoke_benchmarks() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const auto& b : eval::eval_suite(eval::SuiteScale::Smoke)) {
      n.push_back(b.bench.name);
    }
    return n;
  }();
  return names;
}

eval::CampaignSpec smoke_subset(const std::string& bench) {
  eval::CampaignSpec s = eval::CampaignSpec::smoke();
  s.name = "smoke-" + bench;
  s.benchmarks = {bench};
  s.tuner_study = false;
  return s;
}

/// The warm set, in the order set-up sends it: the smoke matrix, nn-smoke,
/// then every single-benchmark smoke subset (served from the matrix's cells).
std::vector<eval::CampaignSpec> warm_set() {
  std::vector<eval::CampaignSpec> w;
  eval::CampaignSpec smoke = eval::CampaignSpec::smoke();
  smoke.tuner_study = false;
  w.push_back(smoke);
  eval::CampaignSpec nn = eval::CampaignSpec::nn(eval::SuiteScale::Smoke);
  nn.name = "nn-smoke";
  w.push_back(nn);
  for (const auto& b : smoke_benchmarks()) w.push_back(smoke_subset(b));
  return w;
}

/// Engine/backend pairs other than the default predecoded/grs.
const std::vector<std::pair<sim::Engine, fp::MathBackend>>& variant_pairs() {
  static const std::vector<std::pair<sim::Engine, fp::MathBackend>> pairs = [] {
    std::vector<std::pair<sim::Engine, fp::MathBackend>> p;
    for (const auto e : {sim::Engine::Predecoded, sim::Engine::Reference,
                         sim::Engine::Fused, sim::Engine::Jit}) {
      for (const auto b : {fp::MathBackend::Grs, fp::MathBackend::Fast}) {
        if (e == sim::Engine::Predecoded && b == fp::MathBackend::Grs) continue;
        p.emplace_back(e, b);
      }
    }
    return p;
  }();
  return pairs;
}

struct Request {
  RequestClass cls = RequestClass::Warm;
  std::size_t spec_id = 0;
};

/// The seeded request stream, shared by the clients. Specs are registered
/// by id; the warm set holds ids 0..warm-1. Rounds do not overlap: a round
/// starts once every request of the previous one has been answered, so the
/// CPU time spent between two round boundaries belongs to one round.
class Stream {
 public:
  /// Called at every round boundary, with the lock held.
  using RoundHook = std::function<void(std::size_t rounds_done)>;

  Stream(std::uint64_t seed, const std::vector<eval::CampaignSpec>& warm,
         int first_latency)
      : rng_(seed), specs_(warm.begin(), warm.end()), warm_(warm.size()),
        next_latency_(first_latency) {}

  /// End at the first round boundary after `until` once `min_rounds`
  /// rounds are done.
  void set_end(Clock::time_point until, std::size_t min_rounds) {
    until_ = until;
    min_rounds_ = min_rounds;
  }
  void on_round_end(RoundHook hook) { hook_ = std::move(hook); }

  /// Next request and its spec; nullopt when the stream has ended.
  std::optional<std::pair<Request, eval::CampaignSpec>> next() {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (ended_) return std::nullopt;
      if (pos_ < round_.size()) break;
      if (in_flight_ > 0) {
        cv_.wait(lock);
        continue;
      }
      if (rounds_ > 0 && hook_) hook_(rounds_);
      if (rounds_ >= min_rounds_ && Clock::now() >= until_) {
        ended_ = true;
        cv_.notify_all();
        return std::nullopt;
      }
      make_round();
    }
    const Request r = round_[pos_++];
    ++in_flight_;
    return std::make_pair(r, specs_[r.spec_id]);
  }

  void completed() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
    }
    cv_.notify_all();
  }

  [[nodiscard]] const eval::CampaignSpec& spec(std::size_t id) const {
    const std::lock_guard<std::mutex> lock(mu_);
    return specs_[id];
  }

 private:
  std::size_t add(eval::CampaignSpec s) {
    specs_.push_back(std::move(s));
    return specs_.size() - 1;
  }

  /// A round holds every warm spec once, then a variant and a fresh spec
  /// whose benchmark and engine/backend pair rotate with the round number,
  /// so every seed runs the same mix; the seed only orders the round and
  /// places the load latencies.
  void make_round() {
    round_.clear();
    pos_ = 0;
    const std::size_t singles = warm_ - 2;
    for (std::size_t i = 0; i < warm_; ++i) {
      round_.push_back({RequestClass::Warm, i});
    }
    // The previous round's fresh spec has been answered (rounds do not
    // overlap), so the variant repeats stored content.
    eval::CampaignSpec v = specs_[prev_fresh_ != kNone ? prev_fresh_
                                                       : 2 + rounds_ % singles];
    const auto& pair = variant_pairs()[rounds_ % variant_pairs().size()];
    v.engine = pair.first;
    v.backend = pair.second;
    round_.push_back({RequestClass::Variant, add(std::move(v))});
    eval::CampaignSpec f = smoke_subset(smoke_benchmarks()[rounds_ % singles]);
    f.mem.load_latency = next_latency_++;
    prev_fresh_ = add(std::move(f));
    round_.push_back({RequestClass::Fresh, prev_fresh_});
    std::shuffle(round_.begin(), round_.end(), rng_);
    ++rounds_;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::mt19937_64 rng_;
  std::deque<eval::CampaignSpec> specs_;
  const std::size_t warm_;
  int next_latency_;
  std::vector<Request> round_;
  std::size_t pos_ = 0;
  std::size_t rounds_ = 0;
  std::size_t in_flight_ = 0;
  std::size_t prev_fresh_ = kNone;
  bool ended_ = false;
  std::size_t min_rounds_ = 1;
  Clock::time_point until_{};
  RoundHook hook_;
};

struct Reply {
  Request req;
  bool failed = false;
  std::size_t bytes = 0;
  ReplySummary summary;
};

Reply send(const std::string& addr, const Request& req,
           const eval::CampaignSpec& spec) {
  Reply r;
  r.req = req;
  r.summary.cls = req.cls;
  try {
    const eval::ClientResult cr = eval::run_remote(addr, spec, kJobs);
    r.bytes = cr.json.size() + cr.md.size();
    r.summary.cells = cr.cells;
    r.summary.hits = cr.hits;
    r.summary.misses = cr.misses;
    r.summary.json_hash = fnv1a(cr.json);
    r.summary.md_hash = fnv1a(cr.md);
  } catch (const std::exception&) {
    r.failed = true;
  }
  return r;
}

/// Drive the stream with `clients` closed-loop clients until it ends.
std::vector<Reply> drive(Stream& stream, const std::string& addr, int clients) {
  std::vector<Reply> replies;
  std::mutex mu;
  auto client = [&] {
    while (auto next = stream.next()) {
      Reply r = send(addr, next->first, next->second);
      {
        const std::lock_guard<std::mutex> lock(mu);
        replies.push_back(std::move(r));
      }
      stream.completed();
    }
  };
  std::vector<std::thread> threads;
  for (int i = 1; i < clients; ++i) threads.emplace_back(client);
  client();
  for (auto& t : threads) t.join();
  return replies;
}

/// A running daemon. The destructor shuts it down if stop() was not called.
class Daemon {
 public:
  Daemon(const RunContext& ctx, const fs::path& dir) {
    fs::create_directories(dir);
    // A relative socket path keeps it under the 108-byte sun_path limit
    // however deep the checkout is.
    addr_ = fs::relative(dir / "d.sock").string();
    if (addr_.find('/') == std::string::npos) addr_ = "./" + addr_;
    fs::remove(addr_);
    started_ = Clock::now();
    pid_ = spawn({ctx.sfrv_eval, "--serve", addr_, "--cache-dir",
                  (dir / "cells").string(), "-j", std::to_string(kJobs)});
    wait_ready();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() {
    if (pid_ > 0) {
      try {
        stop();
      } catch (...) {
        ::kill(pid_, SIGKILL);
        int status = 0;
        ::waitpid(pid_, &status, 0);
      }
    }
  }

  [[nodiscard]] const std::string& address() const { return addr_; }
  [[nodiscard]] pid_t pid() const { return pid_; }

  /// Ask the daemon to exit and wait for it.
  void stop() {
    eval::shutdown_remote(addr_);
    const pid_t pid = pid_;
    pid_ = -1;
    (void)wait_child(pid, started_);
  }

 private:
  void wait_ready() {
    const auto t0 = Clock::now();
    for (;;) {
      const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
      sockaddr_un sa{};
      sa.sun_family = AF_UNIX;
      std::snprintf(sa.sun_path, sizeof sa.sun_path, "%s", addr_.c_str());
      const bool up =
          ::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof sa) == 0;
      ::close(fd);
      if (up) return;
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("daemon exited during start-up");
      }
      if (ms_since(t0) > 60000) throw std::runtime_error("daemon did not start");
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  std::string addr_;
  pid_t pid_ = -1;
  Clock::time_point started_;
};

/// Serialized in-process run of `spec`, the byte-identity oracle.
struct InProcess {
  ExpectedReply expected;
  std::uint64_t instructions = 0;
  std::uint64_t cycles = 0;
  double energy_pj = 0;
};
InProcess run_in_process(const eval::CampaignSpec& spec) {
  const eval::EvalReport report = eval::run_campaign(spec, kJobs);
  InProcess p;
  p.expected.cells = report.cells.size();
  p.expected.json_hash = fnv1a(eval::to_json(report).dump(2) + "\n");
  p.expected.md_hash = fnv1a(eval::render_markdown(report));
  for (const auto& c : report.cells) {
    p.instructions += c.instructions;
    p.cycles += c.cycles;
    p.energy_pj += c.energy.total();
  }
  return p;
}

/// Warm-set fill through the daemon; the replies join the checked ones.
std::vector<Reply> fill_warm(const Daemon& d,
                             const std::vector<eval::CampaignSpec>& warm) {
  std::vector<Reply> out;
  for (std::size_t i = 0; i < warm.size(); ++i) {
    // The matrix is unseen content; nn-smoke shares its vl-0 cells with the
    // matrix; the subsets are served from the matrix's cells.
    const RequestClass cls = i == 0   ? RequestClass::Fresh
                             : i == 1 ? RequestClass::Overlap
                                      : RequestClass::Warm;
    Reply r = send(d.address(), {cls, i}, warm[i]);
    if (r.failed) throw std::runtime_error("warm-set request failed");
    out.push_back(std::move(r));
  }
  return out;
}

}  // namespace

eval::Json run_serve_mixed(const RunContext& ctx) {
  const fs::path dir = fs::path(ctx.work_dir) / "serve-mixed";
  const std::vector<eval::CampaignSpec> warm = warm_set();
  std::vector<double> setup_ms;
  std::vector<Reply> checked;

  // Four set-ups, two before the stream (the second daemon serves it) and
  // two after it, so one slow host phase cannot own all of them.
  // Set-up time is the CPU time of the new daemon up to the stored warm
  // set, plus this process's while it starts the daemon and sends the set.
  auto set_up = [&]() {
    fs::remove_all(dir);
    const double self0 = process_cpu_ms();
    auto d = std::make_unique<Daemon>(ctx, dir);
    for (auto& r : fill_warm(*d, warm)) checked.push_back(std::move(r));
    setup_ms.push_back(process_cpu_ms(d->pid()) + process_cpu_ms() - self0);
    return d;
  };
  set_up()->stop();
  std::unique_ptr<Daemon> daemon = set_up();

  // One operation is one round: the CPU time the daemon and this process
  // (both clients) spend on it. The daemon's memory grows with the requests
  // it has served, so its peak is read at a fixed round, not at the end of
  // a run whose length in rounds depends on speed.
  std::mt19937_64 rng(ctx.seed);
  Stream stream(ctx.seed, warm, 2 + static_cast<int>(rng() % 64));
  const pid_t pid = daemon->pid();
  std::vector<double> round_cpu_ms;
  std::vector<double> round_wall_ms;
  double peak_kb = 0;
  double last_cpu = process_cpu_ms(pid) + process_cpu_ms();
  auto last_wall = Clock::now();
  stream.on_round_end([&](std::size_t done) {
    const double cpu = process_cpu_ms(pid) + process_cpu_ms();
    round_cpu_ms.push_back(cpu - last_cpu);
    round_wall_ms.push_back(ms_since(last_wall));
    last_cpu = cpu;
    last_wall = Clock::now();
    if (done == kRssRound) peak_kb = process_memory_kb(pid, "VmHWM");
  });
  const auto start = Clock::now();
  stream.set_end(start + std::chrono::duration_cast<Clock::duration>(
                             std::chrono::duration<double>(ctx.seconds)),
                 std::max<std::size_t>(ctx.min_ops, kRssRound));
  std::vector<Reply> replies = drive(stream, daemon->address(), kClients);
  daemon->stop();
  daemon.reset();
  for (int i = 0; i < 2; ++i) set_up()->stop();

  // Checks, outside the timed region.
  std::vector<std::string> errors;
  std::map<std::size_t, InProcess> oracle;
  auto expected = [&](std::size_t id) -> const InProcess& {
    auto it = oracle.find(id);
    if (it == oracle.end()) it = oracle.emplace(id, run_in_process(stream.spec(id))).first;
    return it->second;
  };
  std::uint64_t failed = 0;
  std::uint64_t miss_instructions = 0;
  for (const Reply& r : replies) {
    if (r.failed) {
      ++failed;
      continue;
    }
    if (r.req.cls != RequestClass::Warm) {
      miss_instructions += expected(r.req.spec_id).instructions;
    }
    checked.push_back(r);
  }
  for (const Reply& r : checked) {
    const std::string what = std::string(class_name(r.req.cls)) + " request " +
                             stream.spec(r.req.spec_id).name;
    for (auto& e : check_reply(what, r.summary, expected(r.req.spec_id).expected)) {
      errors.push_back(std::move(e));
    }
  }
  const InProcess& matrix = expected(0);
  const InProcess& nn = expected(1);
  fs::remove_all(dir);

  return eval::Json(eval::JsonObject{
      {"ops_ms", json_numbers(round_cpu_ms)},
      {"ops_wall_ms", json_numbers(round_wall_ms)},
      {"setup_ms", json_numbers(setup_ms)},
      {"peak_rss_mb", json_numbers({peak_kb / 1024.0})},
      {"attempted", eval::Json(static_cast<std::uint64_t>(replies.size()))},
      {"failed", eval::Json(failed)},
      {"requests_per_op", eval::Json(static_cast<std::uint64_t>(kRoundSize))},
      {"sim_cycles", eval::Json(matrix.cycles + nn.cycles)},
      {"sim_energy_uj", eval::Json((matrix.energy_pj + nn.energy_pj) / 1e6)},
      {"miss_instructions", eval::Json(miss_instructions)},
      {"errors", json_strings(errors)},
  });
}

// ---- traced replay ----------------------------------------------------------

eval::Json replay_serve_mixed(const RunContext& ctx) {
  const fs::path dir = fs::path(ctx.work_dir) / "serve-replay";
  const std::vector<eval::CampaignSpec> warm = warm_set();
  std::mt19937_64 rng(ctx.seed);
  eval::JsonArray replays;
  int latency = 2 + static_cast<int>(rng() % 64);
  const auto start = Clock::now();
  while (replays.empty() || ms_since(start) < 1000.0 * ctx.seconds) {
    fs::remove_all(dir);
    Daemon daemon(ctx, dir);
    (void)fill_warm(daemon, warm);

    Probe probe;
    // Serialization of the full smoke report.
    eval::EvalReport report;
    (void)probe([&] { report = eval::run_campaign(warm[0], kJobs); });
    const double serialize_ms = probe([&] {
      (void)eval::to_json(report).dump(2);
      (void)eval::render_markdown(report);
    });

    // Cell store: disk-backed inserts, then memory hits, of the smoke cells.
    std::vector<eval::PlannedCell> planned;
    (void)probe([&] { planned = eval::plan_campaign(warm[0]); });
    eval::CellStore store((dir / "probe-store").string());
    const double insert_ms = probe([&] {
      for (std::size_t i = 0; i < planned.size(); ++i) {
        store.insert(planned[i].key, report.cells[i]);
      }
    });
    std::size_t found = 0;
    const double hit_ms = probe([&] {
      for (const auto& p : planned) found += store.lookup(p.key).has_value();
    });
    if (found != planned.size()) throw std::runtime_error("probe store lost cells");

    // Executor: the same unseen smoke cells at -j 1 and -j 2, in wall time
    // (the point of -j 2 is to finish sooner on more CPU).
    eval::CampaignSpec fresh = warm[0];
    fresh.mem.load_latency = latency++;
    (void)probe([&] { (void)eval::plan_campaign(fresh); });
    auto wall_of = [&](int jobs) {
      const auto t0 = Clock::now();
      (void)probe([&] { (void)eval::run_campaign(fresh, jobs); });
      return ms_since(t0);
    };
    const double j1_ms = wall_of(1);
    const double j2_ms = wall_of(2);

    // One client through five rounds of the stream: with one request in
    // flight, the daemon's CPU time between send and reply is the request's.
    // Memory growth per request is taken over the last three rounds, after
    // the daemon's allocator has settled.
    Stream stream(rng(), warm, 1000 + latency);
    stream.set_end(Clock::now(), 5);
    std::vector<double> warm_ms;
    std::vector<double> cold_ms;
    std::uint64_t hits = 0;
    std::uint64_t lookups = 0;
    double bytes = 0;
    double rss0 = 0;
    std::size_t n = 0;
    while (auto next = stream.next()) {
      Reply r;
      double daemon_ms = 0;
      const double client_ms = probe([&] {
        const double d0 = process_cpu_ms(daemon.pid());
        r = send(daemon.address(), next->first, next->second);
        daemon_ms = process_cpu_ms(daemon.pid()) - d0;
      });
      stream.completed();
      if (r.failed) throw std::runtime_error("replay request failed");
      (r.req.cls == RequestClass::Warm ? warm_ms : cold_ms)
          .push_back(daemon_ms + client_ms);
      hits += r.summary.hits;
      lookups += r.summary.hits + r.summary.misses;
      bytes += static_cast<double>(r.bytes);
      if (++n == 2 * kRoundSize) rss0 = process_memory_kb(daemon.pid(), "VmRSS");
    }
    const double rss1 = process_memory_kb(daemon.pid(), "VmRSS");
    const double requests = static_cast<double>(n);
    replays.emplace_back(eval::JsonObject{
        {"serialize_ms", eval::Json(serialize_ms)},
        {"insert_us", eval::Json(1000.0 * insert_ms / static_cast<double>(planned.size()))},
        {"hit_us", eval::Json(1000.0 * hit_ms / static_cast<double>(planned.size()))},
        {"executor_cells_per_s",
         eval::Json(static_cast<double>(planned.size()) / (j2_ms / 1000.0))},
        {"speedup_j2", eval::Json(j1_ms / j2_ms)},
        {"hit_ratio", eval::Json(static_cast<double>(hits) / static_cast<double>(lookups))},
        {"reply_bytes", eval::Json(bytes / requests)},
        {"warm_ms", json_numbers(warm_ms)},
        {"cold_ms", json_numbers(cold_ms)},
        {"rss_kb_per_request",
         eval::Json((rss1 - rss0) / (requests - 2.0 * kRoundSize))},
        {"coverage", eval::Json(probe.coverage())},
    });
    daemon.stop();
  }
  fs::remove_all(dir);
  return eval::Json(eval::JsonObject{{"replays", eval::Json(std::move(replays))}});
}

}  // namespace perfbench
