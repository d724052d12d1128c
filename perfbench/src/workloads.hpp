// The benchmark's workloads and their layer-by-layer replays.
//
// Every subcommand prints one JSON object on its last stdout line with the
// raw samples of the run (operation times, set-up times, counters, check
// violations); perfbench/run.py reduces them to the metrics.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "eval/json.hpp"
#include "ir/lower.hpp"
#include "kernels/runner.hpp"
#include "sim/core.hpp"

namespace perfbench {

namespace eval = sfrv::eval;
namespace fp = sfrv::fp;
namespace ir = sfrv::ir;
namespace kernels = sfrv::kernels;
namespace sim = sfrv::sim;

/// One simulation of a lowered kernel, with the split the replays time
/// (thread CPU times, see common.hpp).
struct Simulated {
  sim::Stats stats;
  std::uint8_t fflags = 0;
  sim::jit::JitStats jit;
  std::string output_bytes;     ///< raw bytes of the output arrays, in order
  std::vector<double> outputs;  ///< the same values decoded to double
  double setup_ms = 0;          ///< Core construction + load_program
  double run_ms = 0;            ///< Core::run
  double readback_ms = 0;       ///< output arrays read and decoded
};

[[nodiscard]] Simulated simulate(const kernels::KernelSpec& spec,
                                 const ir::LoweredKernel& lowered,
                                 const sim::MemConfig& mem, sim::Engine engine,
                                 fp::MathBackend backend);

/// Where a run keeps its temporary files and finds the program.
struct RunContext {
  std::string sfrv_eval;  ///< path of the sfrv-eval binary
  std::string self;       ///< path of this binary
  std::string work_dir;   ///< temporary directory inside the checkout
  std::uint64_t seed = 0;
  double seconds = 1;
  /// Least operations a run makes, so the tail percentile it reports always
  /// has ten samples beyond it.
  std::uint64_t min_ops = 1;
};

[[nodiscard]] eval::Json run_campaign_cold(const RunContext& ctx);
[[nodiscard]] eval::Json run_sim_long(const RunContext& ctx);
[[nodiscard]] eval::Json run_serve_mixed(const RunContext& ctx);

/// Layer-by-layer replays for the traced run.
/// replay_campaign_process runs in a fresh process (cold statics and plan
/// cache) and replays one cold table3 campaign; replay_campaign starts such
/// processes next to untraced cold campaigns.
[[nodiscard]] eval::Json replay_campaign_process();
[[nodiscard]] eval::Json replay_campaign(const RunContext& ctx);
[[nodiscard]] eval::Json replay_sim_long(const RunContext& ctx);
[[nodiscard]] eval::Json replay_serve_mixed(const RunContext& ctx);

/// Checker self test: every checker must reject a corrupted input.
/// Returns the number of failures (0 = pass).
[[nodiscard]] int run_selftest();

}  // namespace perfbench
