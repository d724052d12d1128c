// Eval-as-a-service wire layer: a `--serve` daemon and thin clients.
//
// Transport: TCP (address "PORT" = 127.0.0.1:PORT, or "HOST:PORT" with a
// numeric IPv4 host / "localhost") or a Unix-domain socket (any address
// containing '/'). Framing: every message is one JSON document prefixed by
// its byte length as a 4-byte big-endian unsigned integer.
//
// Protocol (client-driven; one connection may issue any number of runs):
//
//   client -> server  {"type":"run", "spec": <spec_to_json>, "jobs": N,
//                      "wall_clock": bool}
//   server -> client  {"type":"cell", "index": i, "total": n,
//                      "cached": bool, "cell": <cell_to_json>}   (streamed)
//   server -> client  {"type":"done", "json": "<report JSON text>",
//                      "md": "<report Markdown text>",
//                      "hits": h, "misses": m, "cells": n}
//   server -> client  {"type":"error", "message": "..."}         (run failed)
//   client -> server  {"type":"shutdown"}
//   server -> client  {"type":"bye"}                   (then the daemon exits)
//
// Byte-identity contract: the "done" frame carries the report exactly as the
// server serialized it, so a `--connect` client writes the same bytes a
// local run would — whether the cells came from the shared store or were
// computed on demand is invisible in the output (that is the cache contract,
// and CI diffs local vs. remote vs. warm runs to enforce it).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

#include "eval/campaign.hpp"

namespace sfrv::eval {

struct ServeOptions {
  std::string address;    ///< "PORT", "HOST:PORT", or a Unix socket path
  int jobs = 1;           ///< executor shards per campaign run
  std::string cache_dir;  ///< persistent cell store directory; empty = memory
  /// Status lines (listen address, connections, runs) to stderr.
  bool verbose = true;
};

/// Run the daemon: listen on `opts.address`, serve concurrent clients
/// (thread per connection) against one shared CellStore, and return once a
/// client sends a "shutdown" frame. Throws std::runtime_error on socket
/// setup failure. A frame that fails to parse gets an "error" reply and
/// closes its connection; the daemon keeps serving.
void serve(const ServeOptions& opts);

/// The executor shards a "run" frame's `jobs` field may ask for: clamped to
/// [1, std::thread::hardware_concurrency()], so a client cannot make the
/// daemon start an arbitrary number of threads.
[[nodiscard]] int clamp_request_jobs(std::int64_t jobs);

/// What a remote campaign run hands back: the server-serialized report in
/// both formats plus the run's cell-store telemetry.
struct ClientResult {
  std::string json;          ///< report JSON text, exactly as served
  std::string md;            ///< report Markdown text, exactly as served
  std::uint64_t hits = 0;    ///< store lookups served for this run
  std::uint64_t misses = 0;  ///< cells this run had to compute
  std::size_t cells = 0;     ///< matrix size (streamed "cell" frame count)
};

/// Per-cell progress stream mirroring the "cell" frames:
/// (index, total, cached).
using RemoteProgress = std::function<void(std::size_t, std::size_t, bool)>;

/// Submit one campaign to a daemon and collect the streamed result.
/// `wall_clock` asks the server to embed its wall time + cache telemetry in
/// the report (off keeps the bytes deterministic). Throws std::runtime_error
/// on connection failure, protocol violation, or a server-side "error".
[[nodiscard]] ClientResult run_remote(const std::string& address,
                                      const CampaignSpec& spec, int jobs = 1,
                                      bool wall_clock = false,
                                      const RemoteProgress& progress = nullptr);

/// Ask the daemon to exit (waits for the "bye" acknowledgement).
void shutdown_remote(const std::string& address);

}  // namespace sfrv::eval
