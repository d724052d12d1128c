// Service tier: a loopback daemon on a Unix-domain socket, exercised
// through the public client API and raw frames. Checks the byte-identity
// contract (remote == local, warm == cold), the per-run telemetry, error
// propagation for bad specs and unparsable frames, that connection and
// worker threads do not accumulate, and clean shutdown.
#include "eval/service.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "eval/campaign.hpp"
#include "eval/executor.hpp"
#include "eval/json.hpp"
#include "eval/report.hpp"

namespace sfrv::eval {
namespace {

namespace fs = std::filesystem;

CampaignSpec tiny_campaign() {
  CampaignSpec spec = CampaignSpec::smoke();
  spec.benchmarks = {"gemm", "atax"};
  spec.type_configs = {
      {"float16", kernels::TypeConfig::uniform(ir::ScalarType::F16)},
  };
  spec.modes = {ir::CodegenMode::Scalar, ir::CodegenMode::ManualVec};
  spec.tuner_study = false;
  return spec;
}

/// One cheap cell: requests after the first are served from the store.
CampaignSpec one_cell_campaign() {
  CampaignSpec spec = tiny_campaign();
  spec.benchmarks = {"gemm"};
  spec.modes = {ir::CodegenMode::Scalar};
  return spec;
}

/// A numeric field of /proc/self/status ("Threads:", "VmSize:" in kB).
long status_field(const std::string& key) {
  std::ifstream in("/proc/self/status");
  for (std::string line; std::getline(in, line);) {
    if (line.rfind(key, 0) == 0) return std::stol(line.substr(key.size()));
  }
  ADD_FAILURE() << key << " not in /proc/self/status";
  return -1;
}

/// Poll until the process runs at most `want` threads: a connection
/// handler exits moments after its client hangs up.
long wait_threads_at_most(long want) {
  long n = status_field("Threads:");
  for (int i = 0; i < 500 && n > want; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    n = status_field("Threads:");
  }
  return n;
}

/// Send `body` as one frame on a fresh connection and return the body of
/// the daemon's first reply frame ("" if it hung up without one).
std::string raw_request(const std::string& address, const std::string& body) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_un sa{};
  sa.sun_family = AF_UNIX;
  std::strncpy(sa.sun_path, address.c_str(), sizeof(sa.sun_path) - 1);
  EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)), 0);
  const auto n = static_cast<std::uint32_t>(body.size());
  std::string frame = {static_cast<char>(n >> 24), static_cast<char>(n >> 16),
                       static_cast<char>(n >> 8), static_cast<char>(n)};
  frame += body;
  for (std::size_t off = 0; off < frame.size();) {
    const ssize_t w =
        ::send(fd, frame.data() + off, frame.size() - off, MSG_NOSIGNAL);
    if (w <= 0) break;
    off += static_cast<std::size_t>(w);
  }
  const auto read_n = [fd](std::size_t len) {
    std::string out(len, '\0');
    for (std::size_t off = 0; off < len;) {
      const ssize_t r = ::recv(fd, out.data() + off, len - off, 0);
      if (r <= 0) return std::string();
      off += static_cast<std::size_t>(r);
    }
    return out;
  };
  const std::string hdr = read_n(4);
  std::string reply;
  if (hdr.size() == 4) {
    const auto b = [&hdr](int i) {
      return static_cast<std::uint32_t>(static_cast<unsigned char>(hdr[i]));
    };
    reply = read_n(b(0) << 24 | b(1) << 16 | b(2) << 8 | b(3));
  }
  ::close(fd);
  return reply;
}

/// Daemon on a temp-dir Unix socket for one test's lifetime. run_remote
/// retries the dial until the listener is up.
struct Daemon {
  std::string address;
  std::thread thread;

  Daemon() {
    static int counter = 0;
    address = (fs::temp_directory_path() /
               ("sfrv-eval-test-" + std::to_string(::getpid()) + "-" +
                std::to_string(counter++) + ".sock"))
                  .string();
    ServeOptions opts;
    opts.address = address;
    opts.jobs = 2;
    opts.verbose = false;
    thread = std::thread([opts] { serve(opts); });
    wait_ready();
  }

  void wait_ready() const {
    // The listener needs a beat to bind; probe with an empty connection.
    for (int i = 0; i < 200; ++i) {
      if (fs::exists(address)) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    FAIL() << "daemon did not come up on " << address;
  }

  ~Daemon() {
    if (thread.joinable()) {
      try {
        shutdown_remote(address);
      } catch (const std::exception&) {
        // Already shut down by the test body.
      }
      thread.join();
    }
  }
};

TEST(EvalService, RemoteRunMatchesLocalByteForByte) {
  const CampaignSpec spec = tiny_campaign();
  const EvalReport local = run_campaign(spec, 2);
  const std::string local_json = to_json(local).dump(2) + "\n";
  const std::string local_md = render_markdown(local);

  Daemon daemon;
  std::size_t streamed = 0;
  const ClientResult cold = run_remote(
      daemon.address, spec, 2, false,
      [&](std::size_t, std::size_t total, bool) {
        ++streamed;
        EXPECT_EQ(total, local.cells.size());
      });
  EXPECT_EQ(cold.json, local_json);
  EXPECT_EQ(cold.md, local_md);
  EXPECT_EQ(cold.cells, local.cells.size());
  EXPECT_EQ(streamed, local.cells.size());
  EXPECT_EQ(cold.misses, local.cells.size());

  // Warm rerun against the daemon's shared store: all hits, same bytes.
  const ClientResult warm = run_remote(daemon.address, spec, 2);
  EXPECT_EQ(warm.json, local_json);
  EXPECT_EQ(warm.md, local_md);
  EXPECT_EQ(warm.hits, local.cells.size());
  EXPECT_EQ(warm.misses, 0u);
}

TEST(EvalService, ConcurrentClientsShareTheStore) {
  const CampaignSpec spec = tiny_campaign();
  Daemon daemon;
  ClientResult a, b;
  std::thread ta([&] { a = run_remote(daemon.address, spec, 1); });
  std::thread tb([&] { b = run_remote(daemon.address, spec, 1); });
  ta.join();
  tb.join();
  EXPECT_EQ(a.json, b.json);
  EXPECT_EQ(a.md, b.md);
  // Between them every cell was computed at least once; a sequential third
  // client is fully served.
  const ClientResult c = run_remote(daemon.address, spec, 1);
  EXPECT_EQ(c.hits, c.cells);
  EXPECT_EQ(c.misses, 0u);
}

TEST(EvalService, ServerErrorsPropagateAndTheDaemonSurvives) {
  Daemon daemon;
  CampaignSpec bad = tiny_campaign();
  bad.benchmarks = {"no-such-benchmark"};
  EXPECT_THROW((void)run_remote(daemon.address, bad, 1), std::runtime_error);
  // The daemon outlives the bad request.
  const ClientResult ok = run_remote(daemon.address, tiny_campaign(), 1);
  EXPECT_GT(ok.cells, 0u);
}

TEST(EvalService, DeeplyNestedFrameGetsAnErrorFrame) {
  // 100k nested '[' used to overflow the connection thread's stack in the
  // JSON parser and kill the daemon.
  Daemon daemon;
  const Json reply =
      Json::parse(raw_request(daemon.address, std::string(100'000, '[')));
  EXPECT_EQ(reply.at("type").as_string(), "error");
  EXPECT_NE(reply.at("message").as_string().find("Json parse error"),
            std::string::npos);
  const ClientResult ok = run_remote(daemon.address, one_cell_campaign(), 1);
  EXPECT_EQ(ok.cells, 1u);
}

TEST(EvalService, UnknownEngineGetsAnErrorFrame) {
  // "fused" named the removed superblock engine; a spec naming it is an
  // unknown engine like any other.
  Daemon daemon;
  CampaignSpec spec = one_cell_campaign();
  spec.engine = sim::Engine::Predecoded;
  std::string body = Json(JsonObject{{"type", Json("run")},
                                     {"spec", spec_to_json(spec)},
                                     {"jobs", Json(1)}})
                         .dump();
  const std::string from = "\"engine\":\"predecoded\"";
  const auto at = body.find(from);
  ASSERT_NE(at, std::string::npos) << body;
  body.replace(at, from.size(), "\"engine\":\"fused\"");
  const Json reply = Json::parse(raw_request(daemon.address, body));
  EXPECT_EQ(reply.at("type").as_string(), "error");
  EXPECT_NE(reply.at("message").as_string().find("unknown engine name: fused"),
            std::string::npos);
  const ClientResult ok = run_remote(daemon.address, one_cell_campaign(), 1);
  EXPECT_EQ(ok.cells, 1u);
}

TEST(EvalService, ConnectionThreadsAreJoinedAsClientsComeAndGo) {
  Daemon daemon;
  const long idle = wait_threads_at_most(status_field("Threads:"));
  const CampaignSpec spec = one_cell_campaign();
  (void)run_remote(daemon.address, spec, 2);  // computes; the rest hit
  ASSERT_EQ(wait_threads_at_most(idle), idle);
  const long vm_before = status_field("VmSize:");
  for (int i = 0; i < 50; ++i) {
    const ClientResult r = run_remote(daemon.address, spec, 2);
    ASSERT_EQ(r.hits, 1u);
  }
  EXPECT_EQ(wait_threads_at_most(idle), idle);
  // A handler that is never joined keeps its whole stack mapped (8 MiB by
  // default), so 50 of them would grow the address space by 400 MiB.
  EXPECT_LT(status_field("VmSize:") - vm_before, 128 * 1024)
      << "kB of address space kept by finished connections";
}

TEST(EvalService, RequestJobsAreClampedToTheHost) {
  const int hw = static_cast<int>(
      std::max(1u, std::thread::hardware_concurrency()));
  EXPECT_EQ(clamp_request_jobs(1), 1);
  EXPECT_EQ(clamp_request_jobs(hw), hw);
  EXPECT_EQ(clamp_request_jobs(hw + 3), hw);
  EXPECT_EQ(clamp_request_jobs(0), 1);
  EXPECT_EQ(clamp_request_jobs(-7), 1);
  EXPECT_EQ(clamp_request_jobs(std::numeric_limits<std::int64_t>::max()), hw);
  // A request over the host's width still runs (clamped, not rejected).
  Daemon daemon;
  const ClientResult r = run_remote(daemon.address, one_cell_campaign(), hw + 3);
  EXPECT_EQ(r.cells, 1u);
}

TEST(Executor, StartsNoMoreWorkersThanTasks) {
  EXPECT_EQ(worker_count(2, 8), 2);
  EXPECT_EQ(worker_count(100, 4), 4);
  EXPECT_EQ(worker_count(0, 8), 1);
  EXPECT_EQ(worker_count(5, 0), 1);
  EXPECT_EQ(worker_count(5, -3), 1);
}

TEST(EvalService, ShutdownStopsTheDaemon) {
  Daemon daemon;
  shutdown_remote(daemon.address);
  daemon.thread.join();
  // A further connection attempt must fail fast.
  EXPECT_THROW((void)run_remote(daemon.address, tiny_campaign(), 1),
               std::runtime_error);
}

TEST(EvalService, RejectsBadAddresses) {
  EXPECT_THROW((void)run_remote("not-a-port", tiny_campaign(), 1),
               std::runtime_error);
  EXPECT_THROW((void)run_remote("localhost:0", tiny_campaign(), 1),
               std::runtime_error);
  ServeOptions opts;
  opts.address = "999999";
  EXPECT_THROW(serve(opts), std::runtime_error);
}

}  // namespace
}  // namespace sfrv::eval
