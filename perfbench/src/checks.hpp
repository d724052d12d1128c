// Output checkers of the three workloads. Each is a pure function from what
// the program produced (and what the benchmark computed on its own) to a
// list of violations, so the self test can feed it corrupted inputs.
// None of them compares against a stored copy of an earlier output: they
// check properties the method must have, or recomputations made here.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "eval/json.hpp"

namespace perfbench {

using Errors = std::vector<std::string>;

// ---- campaign-cold ----------------------------------------------------------

/// Lowest acceptable SQNR (dB) of a table3 cell whose data type is `type`
/// (report type name). Floors sit well under what each format reaches on
/// the paper's kernels and well over what a broken datapath produces.
[[nodiscard]] double sqnr_floor(std::string_view type);

/// Properties of a table3 report: every cell above its SQNR floor,
/// manual-vec cycles ordered float8 < float16 < float on every benchmark
/// (the lane-count ordering of Table III), energy parts summing to the
/// total, and the Fig. 6 study picking data=float16, acc=float at full
/// accuracy.
[[nodiscard]] Errors check_campaign_report(const sfrv::eval::Json& report);

/// A report cell re-simulated by the benchmark through the Reference
/// engine, with SQNR computed here against the kernel's golden outputs.
struct CellRerun {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  double sqnr_db = 0;
};
[[nodiscard]] Errors check_rerun(const sfrv::eval::Json& cell,
                                 const CellRerun& rerun);

// ---- sim-long ---------------------------------------------------------------

/// What one simulation of a cell produced.
struct SimOutcome {
  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  std::uint8_t fflags = 0;
  std::uint64_t output_hash = 0;  ///< FNV-1a over the output arrays' bytes
};
/// Engines and backends must agree bit for bit and cycle for cycle.
[[nodiscard]] Errors check_same_outcome(const std::string& what,
                                        const SimOutcome& expected,
                                        const SimOutcome& got);
[[nodiscard]] Errors check_sqnr_floor(const std::string& what, double sqnr,
                                      double floor);

// ---- serve-mixed ------------------------------------------------------------

/// Warm: a repeat, all hits. Fresh: unseen content, all misses. Variant:
/// stored content under another engine/backend, and Overlap: a spec that
/// shares some cells with earlier ones; for these two only hits + misses =
/// cells is asserted, so the checks hold whether or not a later CellKey
/// serves them.
enum class RequestClass { Warm, Fresh, Variant, Overlap };
[[nodiscard]] std::string_view class_name(RequestClass c);

/// What the daemon sent back for one request.
struct ReplySummary {
  RequestClass cls = RequestClass::Warm;
  std::size_t cells = 0;  ///< streamed cell frames
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t json_hash = 0;
  std::uint64_t md_hash = 0;
};
/// The same spec run in-process through eval::run_campaign.
struct ExpectedReply {
  std::size_t cells = 0;
  std::uint64_t json_hash = 0;
  std::uint64_t md_hash = 0;
};
/// Byte identity with the in-process run, hits + misses = cells, a warm
/// repeat served entirely from the store, fresh content entirely computed.
[[nodiscard]] Errors check_reply(const std::string& what,
                                 const ReplySummary& reply,
                                 const ExpectedReply& expected);

}  // namespace perfbench
