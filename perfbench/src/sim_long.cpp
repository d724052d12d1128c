// sim-long: in-process simulation of a fixed set of large cells, built with
// kernels::make_* at sizes well above table3 and lowered at O2 during
// set-up. One operation is a full sweep: every cell once under
// predecoded/grs (the default) and once under jit/fast. Simulation and
// softfloat are nearly all of an operation, so engine, backend and
// optimizer changes show here; no suite fixture is built, so fixture and
// per-cell-setup changes must read as no change. Operations are timed in
// thread CPU time, and each cell simulation runs on the next CPU in turn
// (see common.hpp).
#include <algorithm>
#include <functional>
#include <random>
#include <stdexcept>

#include "checks.hpp"
#include "energy/model.hpp"
#include "golden.hpp"
#include "ir/opt.hpp"
#include "kernels/nn.hpp"
#include "kernels/polybench.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using ir::CodegenMode;
using ir::ScalarType;
using kernels::TypeConfig;

struct CellDef {
  const char* name;
  std::function<kernels::KernelSpec()> make;
  CodegenMode mode;
  double sqnr_floor;  ///< dB, against the benchmark's own host-double outputs
};

const std::vector<CellDef>& cell_defs() {
  static const std::vector<CellDef> defs = {
      {"gemm-96/float/scalar",
       [] { return kernels::make_gemm(TypeConfig::uniform(ScalarType::F32), 96, 96, 96); },
       CodegenMode::Scalar, 100.0},
      {"syr2k-96/float16/manual-vec",
       [] { return kernels::make_syr2k(TypeConfig::uniform(ScalarType::F16), 96, 96); },
       CodegenMode::ManualVec, 35.0},
      {"fdtd2d-8x128/float8/manual-vec",
       [] { return kernels::make_fdtd2d(TypeConfig::uniform(ScalarType::F8), 8, 128, 128); },
       CodegenMode::ManualVec, 3.0},
      {"fully_connected-256x1024/minifloat-nn/manual-vec-exsdotp",
       [] { return kernels::make_fully_connected({ScalarType::F8, ScalarType::F16}, 256, 1024); },
       CodegenMode::ManualVecExs, 8.0},
      {"conv2d-128/minifloat-nn/manual-vec-exsdotp",
       [] { return kernels::make_conv2d({ScalarType::F8, ScalarType::F16}, 128, 128, 3); },
       CodegenMode::ManualVecExs, 8.0},
      {"atax-256/posit16/manual-vec",
       [] { return kernels::make_atax(TypeConfig::uniform(ScalarType::P16), 256, 256); },
       CodegenMode::ManualVec, 35.0},
  };
  return defs;
}

struct Cell {
  const CellDef* def;
  kernels::KernelSpec spec;
  ir::LoweredKernel lowered;
};

struct EnginePair {
  const char* name;
  sim::Engine engine;
  fp::MathBackend backend;
};
constexpr EnginePair kPairs[] = {
    {"predecoded-grs", sim::Engine::Predecoded, fp::MathBackend::Grs},
    {"jit-fast", sim::Engine::Jit, fp::MathBackend::Fast},
};

struct SetUp {
  std::vector<Cell> cells;
  double build_ms = 0;
  double lower_ms = 0;
};

SetUp set_up() {
  SetUp s;
  const double t0 = thread_cpu_ms();
  for (const auto& d : cell_defs()) s.cells.push_back({&d, d.make(), {}});
  const double t1 = thread_cpu_ms();
  const ir::OptConfig o2 = ir::opt_from_name("O2");
  for (auto& c : s.cells) {
    c.lowered = ir::lower(c.spec.kernel, c.def->mode, c.spec.init, o2);
  }
  s.build_ms = t1 - t0;
  s.lower_ms = thread_cpu_ms() - t1;
  return s;
}

SimOutcome outcome(const Simulated& s) {
  return {s.stats.cycles, s.stats.instructions, s.fflags,
          fnv1a(s.output_bytes)};
}

/// Seeded visiting order of one sweep: cells shuffled, and per cell which
/// engine pair goes first.
std::vector<std::pair<std::size_t, std::size_t>> sweep_order(
    std::size_t cells, std::mt19937_64& rng) {
  std::vector<std::pair<std::size_t, std::size_t>> order;
  std::vector<std::size_t> idx(cells);
  for (std::size_t i = 0; i < cells; ++i) idx[i] = i;
  std::shuffle(idx.begin(), idx.end(), rng);
  for (const std::size_t c : idx) {
    const std::size_t first = rng() & 1u;
    order.emplace_back(c, first);
    order.emplace_back(c, 1 - first);
  }
  return order;
}

}  // namespace

eval::Json run_sim_long(const RunContext& ctx) {
  std::mt19937_64 rng(ctx.seed);
  const sim::MemConfig mem{};
  std::vector<double> setup_ms;
  SetUp su = set_up();
  setup_ms.push_back(su.build_ms + su.lower_ms);

  std::vector<double> ops_ms;
  std::vector<std::string> errors;
  // Reference outcome of each cell: its first predecoded/grs simulation.
  std::vector<SimOutcome> baseline(su.cells.size());
  std::vector<bool> have(su.cells.size(), false);
  std::uint64_t instructions_per_op = 0;

  const auto start = Clock::now();
  auto elapsed_s = [&] { return ms_since(start) / 1000.0; };
  int setups_done = 1;
  CpuRotation cpus;
  while (elapsed_s() < ctx.seconds || ops_ms.size() < ctx.min_ops) {
    // Further set-ups at 1/4, 1/2 and 3/4 of the run; the rebuilt cells
    // replace the old ones, and the checks below hold them to the same
    // outcomes.
    if (setups_done < 4 && elapsed_s() >= setups_done * ctx.seconds / 4) {
      su = set_up();
      setup_ms.push_back(su.build_ms + su.lower_ms);
      ++setups_done;
    }
    double op_ms = 0;
    std::uint64_t instructions = 0;
    for (const auto& [ci, pi] : sweep_order(su.cells.size(), rng)) {
      const Cell& c = su.cells[ci];
      const EnginePair& p = kPairs[pi];
      cpus.hop();
      const Simulated s = simulate(c.spec, c.lowered, mem, p.engine, p.backend);
      op_ms += s.setup_ms + s.run_ms;
      instructions += s.stats.instructions;
      const SimOutcome o = outcome(s);
      if (!have[ci]) {
        baseline[ci] = o;
        have[ci] = true;
      }
      for (auto& e : check_same_outcome(
               std::string(c.def->name) + " under " + p.name, baseline[ci], o)) {
        errors.push_back(std::move(e));
      }
    }
    ops_ms.push_back(op_ms);
    instructions_per_op = instructions;
  }

  // Outside the timed region: the Reference engine must agree too, and the
  // outputs must be close to the benchmark's own host-double results.
  std::uint64_t cycles = 0;
  double energy_pj = 0;
  for (std::size_t ci = 0; ci < su.cells.size(); ++ci) {
    const Cell& c = su.cells[ci];
    const Simulated s = simulate(c.spec, c.lowered, mem, sim::Engine::Reference,
                                 fp::MathBackend::Grs);
    for (auto& e : check_same_outcome(std::string(c.def->name) +
                                          " under reference",
                                      baseline[ci], outcome(s))) {
      errors.push_back(std::move(e));
    }
    for (auto& e : check_sqnr_floor(c.def->name,
                                    sqnr_db(reference_outputs(c.spec), s.outputs),
                                    c.def->sqnr_floor)) {
      errors.push_back(std::move(e));
    }
    cycles += s.stats.cycles;
    energy_pj += sfrv::energy::EnergyModel{}.breakdown(s.stats, mem).total();
  }

  return eval::Json(eval::JsonObject{
      {"ops_ms", json_numbers(ops_ms)},
      {"setup_ms", json_numbers(setup_ms)},
      {"peak_rss_mb", json_numbers({self_peak_rss_mb()})},
      {"attempted", eval::Json(static_cast<std::uint64_t>(ops_ms.size()))},
      {"failed", eval::Json(static_cast<std::uint64_t>(0))},
      {"sim_cycles", eval::Json(cycles)},
      {"sim_instructions", eval::Json(instructions_per_op)},
      {"sim_energy_uj", eval::Json(energy_pj / 1e6)},
      {"errors", json_strings(errors)},
  });
}

// ---- traced replay ----------------------------------------------------------

eval::Json replay_sim_long(const RunContext& ctx) {
  std::mt19937_64 rng(ctx.seed);
  const sim::MemConfig mem{};
  eval::JsonArray replays;
  CpuRotation cpus;
  const auto start = Clock::now();
  while (replays.empty() || ms_since(start) < 1000.0 * ctx.seconds) {
    // Untraced sweep first, on cells of its own set-up.
    double untraced_ms = 0;
    {
      const SetUp su = set_up();
      for (const auto& [ci, pi] : sweep_order(su.cells.size(), rng)) {
        cpus.hop();
        const Simulated s = simulate(su.cells[ci].spec, su.cells[ci].lowered,
                                     mem, kPairs[pi].engine, kPairs[pi].backend);
        untraced_ms += s.setup_ms + s.run_ms + s.readback_ms;
      }
    }

    Probe probe;
    SetUp su;
    (void)probe([&] { su = set_up(); });
    double setup_ms = 0;
    double energy_ms = 0;
    double sweep_ms = 0;
    double run_ms[2] = {0, 0};
    std::uint64_t instr[2] = {0, 0};
    std::uint64_t translate_ns = 0;
    std::uint64_t jit_hits = 0;
    std::uint64_t jit_lookups = 0;
    for (const auto& [ci, pi] : sweep_order(su.cells.size(), rng)) {
      Simulated s;
      cpus.hop();
      sweep_ms += probe([&] {
        s = simulate(su.cells[ci].spec, su.cells[ci].lowered, mem,
                     kPairs[pi].engine, kPairs[pi].backend);
      });
      setup_ms += s.setup_ms;
      run_ms[pi] += s.run_ms;
      instr[pi] += s.stats.instructions;
      if (kPairs[pi].engine == sim::Engine::Jit) {
        translate_ns += s.jit.translate_ns;
        jit_hits += s.jit.hits;
        jit_lookups += s.jit.lookups;
      }
      energy_ms += probe([&] {
        (void)sfrv::energy::EnergyModel{}.breakdown(s.stats, mem);
      });
    }
    replays.emplace_back(eval::JsonObject{
        {"build_ms", eval::Json(su.build_ms)},
        {"lower_ms", eval::Json(su.lower_ms)},
        {"setup_ms", eval::Json(setup_ms)},
        {"instructions", eval::Json(instr[0])},
        {"predecoded_grs_minst_per_s",
         eval::Json(static_cast<double>(instr[0]) / run_ms[0] / 1000.0)},
        {"jit_fast_minst_per_s",
         eval::Json(static_cast<double>(instr[1]) / run_ms[1] / 1000.0)},
        {"translate_ms", eval::Json(static_cast<double>(translate_ns) / 1e6)},
        {"jit_hit_ratio",
         eval::Json(jit_lookups == 0 ? 0.0
                                     : static_cast<double>(jit_hits) /
                                           static_cast<double>(jit_lookups))},
        {"energy_ms", eval::Json(energy_ms)},
        {"coverage", eval::Json(probe.coverage())},
        {"overhead", eval::Json((sweep_ms + energy_ms) / untraced_ms)},
    });
  }
  return eval::Json(eval::JsonObject{{"replays", eval::Json(std::move(replays))}});
}

}  // namespace perfbench
