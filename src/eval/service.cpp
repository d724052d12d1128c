#include "eval/service.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <list>
#include <optional>
#include <stdexcept>
#include <thread>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "eval/report.hpp"

namespace sfrv::eval {

namespace {

/// Frames larger than this are a protocol violation, not a workload: even a
/// full table3 report is a few MB.
constexpr std::uint32_t kMaxFrameBytes = 256u << 20;

[[noreturn]] void fail(const std::string& what) {
  throw std::runtime_error("eval service: " + what +
                           (errno != 0 ? std::string(": ") + std::strerror(errno)
                                       : std::string()));
}

struct Addr {
  bool is_unix = false;
  std::string path;        // unix
  std::string host;        // tcp, dotted IPv4
  std::uint16_t port = 0;  // tcp
};

/// "PORT" -> 127.0.0.1:PORT; "HOST:PORT" -> tcp; anything with '/' -> unix.
Addr parse_address(const std::string& address) {
  Addr a;
  if (address.find('/') != std::string::npos) {
    a.is_unix = true;
    a.path = address;
    if (a.path.size() >= sizeof(sockaddr_un{}.sun_path)) {
      errno = 0;
      fail("unix socket path too long: " + address);
    }
    return a;
  }
  const auto colon = address.rfind(':');
  std::string host = colon == std::string::npos ? std::string("127.0.0.1")
                                                : address.substr(0, colon);
  const std::string port =
      colon == std::string::npos ? address : address.substr(colon + 1);
  if (host == "localhost") host = "127.0.0.1";
  errno = 0;
  char* end = nullptr;
  const long p = std::strtol(port.c_str(), &end, 10);
  if (port.empty() || *end != '\0' || p < 1 || p > 65535) {
    errno = 0;
    fail("invalid port in address: " + address);
  }
  a.host = host;
  a.port = static_cast<std::uint16_t>(p);
  return a;
}

/// EINTR-safe full write (MSG_NOSIGNAL: a vanished peer is an error return,
/// never a SIGPIPE that would kill the daemon).
bool write_all(int fd, const void* buf, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(buf);
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

/// EINTR-safe full read; false on clean EOF at a frame boundary or error.
bool read_all(int fd, void* buf, std::size_t n) {
  auto* p = static_cast<std::uint8_t*>(buf);
  while (n > 0) {
    const ssize_t r = ::recv(fd, p, n, 0);
    if (r < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (r == 0) return false;
    p += r;
    n -= static_cast<std::size_t>(r);
  }
  return true;
}

bool send_frame(int fd, const Json& msg) {
  const std::string body = msg.dump();
  const auto n = static_cast<std::uint32_t>(body.size());
  const std::uint8_t hdr[4] = {static_cast<std::uint8_t>(n >> 24),
                               static_cast<std::uint8_t>(n >> 16),
                               static_cast<std::uint8_t>(n >> 8),
                               static_cast<std::uint8_t>(n)};
  return write_all(fd, hdr, sizeof(hdr)) && write_all(fd, body.data(), n);
}

/// One frame's body; nullopt on clean EOF, throws on an oversized or
/// truncated frame.
std::optional<std::string> recv_body(int fd) {
  std::uint8_t hdr[4];
  if (!read_all(fd, hdr, sizeof(hdr))) return std::nullopt;
  const std::uint32_t n = (static_cast<std::uint32_t>(hdr[0]) << 24) |
                          (static_cast<std::uint32_t>(hdr[1]) << 16) |
                          (static_cast<std::uint32_t>(hdr[2]) << 8) |
                          static_cast<std::uint32_t>(hdr[3]);
  if (n > kMaxFrameBytes) {
    errno = 0;
    fail("frame exceeds size cap: " + std::to_string(n));
  }
  std::string body(n, '\0');
  if (!read_all(fd, body.data(), n)) {
    errno = 0;
    fail("connection closed mid-frame");
  }
  return body;
}

/// nullopt on clean EOF; throws on oversized, truncated, or malformed frames.
std::optional<Json> recv_frame(int fd) {
  std::optional<std::string> body = recv_body(fd);
  if (!body) return std::nullopt;
  return Json::parse(*body);
}

int dial(const std::string& address) {
  const Addr a = parse_address(address);
  int fd = -1;
  if (a.is_unix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) fail("socket");
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, a.path.c_str(), sizeof(sa.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      ::close(fd);
      fail("connect " + a.path);
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail("socket");
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(a.port);
    if (::inet_pton(AF_INET, a.host.c_str(), &sa.sin_addr) != 1) {
      ::close(fd);
      errno = 0;
      fail("cannot parse host (numeric IPv4 or localhost): " + a.host);
    }
    if (::connect(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      ::close(fd);
      fail("connect " + address);
    }
  }
  return fd;
}

int listen_on(const Addr& a) {
  int fd = -1;
  if (a.is_unix) {
    fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0) fail("socket");
    ::unlink(a.path.c_str());  // stale socket from a previous daemon
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, a.path.c_str(), sizeof(sa.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      ::close(fd);
      fail("bind " + a.path);
    }
  } else {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) fail("socket");
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in sa{};
    sa.sin_family = AF_INET;
    sa.sin_port = htons(a.port);
    if (::inet_pton(AF_INET, a.host.c_str(), &sa.sin_addr) != 1) {
      ::close(fd);
      errno = 0;
      fail("cannot parse host (numeric IPv4 or localhost): " + a.host);
    }
    if (::bind(fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
      ::close(fd);
      fail("bind port " + std::to_string(a.port));
    }
  }
  if (::listen(fd, 16) != 0) {
    ::close(fd);
    fail("listen");
  }
  return fd;
}

/// Serve one "run" frame: plan + store-partition + execute, streaming cells.
void handle_run(int fd, const Json& msg, CellStore& store, int default_jobs) {
  const CampaignSpec spec = spec_from_json(msg.at("spec"));
  int jobs = default_jobs;
  if (const Json* j = msg.find("jobs")) jobs = clamp_request_jobs(j->as_int());
  const bool wall_clock =
      msg.find("wall_clock") != nullptr && msg.at("wall_clock").as_bool();

  const auto t0 = std::chrono::steady_clock::now();
  EvalReport report = run_campaign(
      spec, jobs, &store,
      [&](std::size_t index, std::size_t total, const CellResult& cell,
          bool cached) {
        // A dead client mid-stream surfaces at the "done" write; streaming
        // failures here must not abort the campaign (the store still wants
        // the remaining cells).
        (void)send_frame(fd, Json(JsonObject{
                                 {"type", Json("cell")},
                                 {"index", Json(static_cast<std::int64_t>(index))},
                                 {"total", Json(static_cast<std::int64_t>(total))},
                                 {"cached", Json(cached)},
                                 {"cell", cell_to_json(cell)},
                             }));
      });
  if (wall_clock) {
    const auto t1 = std::chrono::steady_clock::now();
    report.wall_ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    report.has_cache = true;
  }

  const std::string json = to_json(report).dump(2) + "\n";
  const std::string md = render_markdown(report);
  if (!send_frame(fd, Json(JsonObject{
                      {"type", Json("done")},
                      {"json", Json(json)},
                      {"md", Json(md)},
                      {"hits", Json(report.cache.hits)},
                      {"misses", Json(report.cache.misses)},
                      {"cells",
                       Json(static_cast<std::int64_t>(report.cells.size()))},
                  }))) {
    errno = 0;
    fail("client vanished before the report was delivered");
  }
}

}  // namespace

int clamp_request_jobs(std::int64_t jobs) {
  const auto hw = static_cast<std::int64_t>(
      std::max(1u, std::thread::hardware_concurrency()));
  return static_cast<int>(std::clamp<std::int64_t>(jobs, 1, hw));
}

void serve(const ServeOptions& opts) {
  const Addr addr = parse_address(opts.address);
  const int listen_fd = listen_on(addr);
  CellStore store(opts.cache_dir);
  if (opts.verbose) {
    std::fprintf(stderr, "sfrv-eval: serving on %s (jobs=%d, cache=%s)\n",
                 opts.address.c_str(), opts.jobs,
                 opts.cache_dir.empty() ? "memory" : opts.cache_dir.c_str());
  }

  std::atomic<bool> stop{false};

  auto handle_client = [&](int fd) {
    for (;;) {
      std::optional<std::string> body;
      try {
        body = recv_body(fd);
      } catch (const std::exception& e) {
        if (opts.verbose) {
          std::fprintf(stderr, "sfrv-eval: dropping connection: %s\n",
                       e.what());
        }
        break;
      }
      if (!body) break;  // clean EOF
      std::string type;
      try {
        const Json msg = Json::parse(*body);
        type = msg.at("type").as_string();
        if (type == "shutdown") {
          (void)send_frame(fd, Json(JsonObject{{"type", Json("bye")}}));
          stop.store(true);
          // Break the accept loop; in-flight handlers finish their runs.
          ::shutdown(listen_fd, SHUT_RDWR);
          break;
        }
        if (type != "run") {
          errno = 0;
          fail("unknown message type: " + type);
        }
        handle_run(fd, msg, store, opts.jobs);
      } catch (const std::exception& e) {
        // Campaign/spec errors go back to the requesting client; the daemon
        // and its store outlive any one bad request.
        (void)send_frame(fd, Json(JsonObject{{"type", Json("error")},
                                             {"message", Json(e.what())}}));
        if (type != "run") break;
      }
    }
    ::close(fd);
  };

  // Only this thread touches the connection list. Each handler flags its
  // own node when it is done; the accept loop joins flagged threads before
  // adding a new one, so a long-lived daemon holds at most the connections
  // that are still open plus the ones that closed since the last accept.
  struct Connection {
    std::thread thread;
    std::atomic<bool> done{false};
  };
  std::list<Connection> connections;  // stable node addresses for `done`
  const auto join_finished = [&connections] {
    for (auto it = connections.begin(); it != connections.end();) {
      if (it->done.load()) {
        it->thread.join();
        it = connections.erase(it);
      } else {
        ++it;
      }
    }
  };

  while (!stop.load()) {
    const int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stop.load()) break;
      ::close(listen_fd);
      fail("accept");
    }
    join_finished();
    Connection& c = connections.emplace_back();
    c.thread = std::thread([&handle_client, &c, fd] {
      handle_client(fd);
      c.done.store(true);
    });
  }
  for (Connection& c : connections) c.thread.join();
  ::close(listen_fd);
  if (addr.is_unix) ::unlink(addr.path.c_str());
  if (opts.verbose) {
    const auto s = store.stats();
    std::fprintf(stderr,
                 "sfrv-eval: shutting down (cells=%zu, hits=%llu, "
                 "misses=%llu)\n",
                 store.size(), static_cast<unsigned long long>(s.hits),
                 static_cast<unsigned long long>(s.misses));
  }
}

ClientResult run_remote(const std::string& address, const CampaignSpec& spec,
                        int jobs, bool wall_clock,
                        const RemoteProgress& progress) {
  const int fd = dial(address);
  ClientResult result;
  try {
    if (!send_frame(fd, Json(JsonObject{
                        {"type", Json("run")},
                        {"spec", spec_to_json(spec)},
                        {"jobs", Json(jobs)},
                        {"wall_clock", Json(wall_clock)},
                    }))) {
      fail("send request");
    }
    for (;;) {
      std::optional<Json> msg = recv_frame(fd);
      if (!msg) {
        errno = 0;
        fail("server closed the connection before \"done\"");
      }
      const std::string& type = msg->at("type").as_string();
      if (type == "cell") {
        ++result.cells;
        if (progress) {
          progress(static_cast<std::size_t>(msg->at("index").as_int()),
                   static_cast<std::size_t>(msg->at("total").as_int()),
                   msg->at("cached").as_bool());
        }
      } else if (type == "done") {
        result.json = msg->at("json").as_string();
        result.md = msg->at("md").as_string();
        result.hits = msg->at("hits").as_uint();
        result.misses = msg->at("misses").as_uint();
        break;
      } else if (type == "error") {
        errno = 0;
        fail("server error: " + msg->at("message").as_string());
      } else {
        errno = 0;
        fail("unexpected frame type: " + type);
      }
    }
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
  return result;
}

void shutdown_remote(const std::string& address) {
  const int fd = dial(address);
  if (!send_frame(fd, Json(JsonObject{{"type", Json("shutdown")}}))) {
    ::close(fd);
    fail("send shutdown");
  }
  const auto reply = recv_frame(fd);
  ::close(fd);
  if (!reply || reply->at("type").as_string() != "bye") {
    errno = 0;
    fail("daemon did not acknowledge shutdown");
  }
}

}  // namespace sfrv::eval
