// campaign-cold: one fresh `sfrv-eval --suite table3 -j 1` process per
// operation, timed from exec to exit, with the default engine, backend and
// opt level, the tuner on, and SFRV_* cleared. This is the end-to-end unit
// of the repository; it is the only workload whose critical path holds the
// suite fixture build, the per-cell guest-memory setup and the Fig. 6
// tuner study next to the simulation. Each process is timed by its CPU
// time (see common.hpp); its wall time is kept for reference.
#include <algorithm>
#include <filesystem>
#include <map>
#include <random>
#include <stdexcept>

#include "checks.hpp"
#include "energy/model.hpp"
#include "eval/campaign.hpp"
#include "kernels/qor.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

/// Re-simulate `cell` of a table3 report through the Reference engine and
/// recompute its SQNR against the kernel's golden outputs.
CellRerun rerun_reference(const eval::Json& report, const eval::Json& cell) {
  const auto& suite = eval::eval_suite(eval::SuiteScale::Full);
  const std::string& name = cell.at("benchmark").as_string();
  const auto it = std::find_if(suite.begin(), suite.end(), [&](const auto& b) {
    return b.bench.name == name;
  });
  if (it == suite.end()) throw std::runtime_error("unknown benchmark " + name);
  const kernels::TypeConfig tc{
      eval::scalar_type_from_name(cell.at("data").as_string()),
      eval::scalar_type_from_name(cell.at("acc").as_string())};
  ir::OptConfig opt = ir::opt_from_name(report.at("opt").as_string());
  opt.vl_cap = static_cast<int>(cell.at("vl").as_int());
  const kernels::KernelSpec spec = it->bench.make(tc);
  const ir::LoweredKernel lowered =
      ir::lower(spec.kernel, eval::mode_from_name(cell.at("mode").as_string()),
                spec.init, opt);
  sim::MemConfig mem;
  mem.load_latency = static_cast<int>(report.at("mem").at("load_latency").as_int());
  mem.store_latency =
      static_cast<int>(report.at("mem").at("store_latency").as_int());
  const Simulated s = simulate(spec, lowered, mem, sim::Engine::Reference,
                               fp::MathBackend::Grs);
  std::vector<double> golden;
  for (const auto& g : spec.golden) golden.insert(golden.end(), g.begin(), g.end());
  return {s.stats.cycles, s.stats.instructions, sqnr_db(golden, s.outputs)};
}

/// Reference re-simulations per run: a seeded sample of the report's cells.
constexpr std::size_t kRerunSample = 6;

}  // namespace

eval::Json run_campaign_cold(const RunContext& ctx) {
  const fs::path dir = fs::path(ctx.work_dir) / "campaign-cold";
  fs::create_directories(dir);
  const std::string report_prefix = (dir / "report").string();
  const std::vector<std::string> campaign = {
      ctx.sfrv_eval, "--suite", "table3", "-j", "1", "--out", report_prefix};
  // Set-up: a one-benchmark campaign without the tuner, which pages the
  // binary in and pays every per-process fixed cost once.
  const std::vector<std::string> setup = {
      ctx.sfrv_eval, "--suite",   "table3", "--benchmarks", "gemm",
      "--no-tuner",  "--out",     (dir / "setup").string()};

  std::vector<double> ops_ms;  // CPU time of each cold process
  std::vector<double> ops_wall_ms;
  std::vector<double> setup_ms;
  std::vector<double> rss_mb;
  std::vector<double> minflt;
  std::vector<std::string> errors;
  std::uint64_t failed = 0;
  std::string first_json;
  std::string first_md;

  // Set-up runs are spread over the run (at 0, 1/4, 1/2 and 3/4 of it) so
  // a slow host phase cannot own all of them.
  const auto start = Clock::now();
  auto elapsed_s = [&] { return ms_since(start) / 1000.0; };
  int setups_done = 0;
  while (elapsed_s() < ctx.seconds || ops_ms.size() < ctx.min_ops) {
    if (setups_done < 4 && elapsed_s() >= setups_done * ctx.seconds / 4) {
      const ChildResult s = run_child(setup);
      if (!s.ok()) throw std::runtime_error("set-up campaign failed");
      setup_ms.push_back(s.cpu_ms);
      ++setups_done;
    }
    const ChildResult r = run_child(campaign);
    if (!r.ok()) {
      ++failed;
      errors.push_back("sfrv-eval exited with status " +
                       std::to_string(r.status));
      continue;
    }
    ops_ms.push_back(r.cpu_ms);
    ops_wall_ms.push_back(r.wall_ms);
    rss_mb.push_back(r.maxrss_mb);
    minflt.push_back(static_cast<double>(r.minflt));
    // Outside the timed region: every process must write the same report.
    const std::string json = read_file(report_prefix + ".json");
    const std::string md = read_file(report_prefix + ".md");
    if (first_json.empty()) {
      first_json = json;
      first_md = md;
    } else if (json != first_json || md != first_md) {
      errors.push_back("cold campaign " + std::to_string(ops_ms.size()) +
                       " wrote a report that differs from the first");
    }
  }

  std::uint64_t cycles = 0;
  std::uint64_t instructions = 0;
  double energy_pj = 0;
  if (!first_json.empty()) {
    const eval::Json report = eval::Json::parse(first_json);
    for (auto& e : check_campaign_report(report)) errors.push_back(std::move(e));
    const auto& cells = report.at("cells").array();
    for (const auto& c : cells) {
      cycles += c.at("cycles").as_uint();
      instructions += c.at("instructions").as_uint();
      energy_pj += c.at("energy").at("total_pj").as_double();
    }
    std::mt19937_64 rng(ctx.seed);
    std::vector<std::size_t> idx(cells.size());
    for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    std::shuffle(idx.begin(), idx.end(), rng);
    idx.resize(std::min(kRerunSample, idx.size()));
    for (const std::size_t i : idx) {
      for (auto& e : check_rerun(cells[i], rerun_reference(report, cells[i]))) {
        errors.push_back(std::move(e));
      }
    }
  }
  fs::remove_all(dir);

  return eval::Json(eval::JsonObject{
      {"ops_ms", json_numbers(ops_ms)},
      {"ops_wall_ms", json_numbers(ops_wall_ms)},
      {"setup_ms", json_numbers(setup_ms)},
      {"peak_rss_mb", json_numbers(rss_mb)},
      {"minflt", json_numbers(minflt)},
      {"attempted", eval::Json(static_cast<std::uint64_t>(ops_ms.size()) + failed)},
      {"failed", eval::Json(failed)},
      {"sim_cycles", eval::Json(cycles)},
      {"sim_instructions", eval::Json(instructions)},
      {"sim_energy_uj", eval::Json(energy_pj / 1e6)},
      {"errors", json_strings(errors)},
  });
}

// ---- traced replay ----------------------------------------------------------

eval::Json replay_campaign_process() {
  Probe probe;
  const std::vector<eval::EvalBenchmark>* suite = nullptr;
  const double fixture_ms =
      probe([&] { suite = &eval::eval_suite(eval::SuiteScale::Full); });

  const eval::CampaignSpec spec = eval::CampaignSpec::table3();
  std::map<std::pair<std::string, std::string>, kernels::KernelSpec> built;
  const double build_ms = probe([&] {
    for (const auto& b : *suite) {
      for (const auto& tc : spec.type_configs) {
        built.emplace(std::make_pair(b.bench.name, tc.name), b.bench.make(tc.tc));
      }
    }
  });

  struct Cell {
    const eval::EvalBenchmark* bench;
    const kernels::KernelSpec* spec;
    ir::LoweredKernel lowered;
  };
  std::vector<Cell> cells;
  const double lower_ms = probe([&] {
    for (const auto& b : *suite) {
      for (const auto& tc : spec.type_configs) {
        const auto& ks = built.at({b.bench.name, tc.name});
        for (const auto mode : spec.modes) {
          ir::OptConfig opt = spec.opt;
          opt.vl_cap = 0;
          cells.push_back({&b, &ks, ir::lower(ks.kernel, mode, ks.init, opt)});
        }
      }
    }
  });

  // The planner with a cold plan cache: this process has planned nothing.
  const double plan_ms = probe([&] { (void)eval::plan_campaign(spec); });

  double setup_ms = 0;
  double run_ms = 0;
  double energy_ms = 0;
  double qor_ms = 0;
  std::uint64_t instructions = 0;
  for (const auto& c : cells) {
    Simulated s;
    (void)probe([&] {
      s = simulate(*c.spec, c.lowered, spec.mem, spec.engine, spec.backend);
    });
    setup_ms += s.setup_ms;
    run_ms += s.run_ms;
    qor_ms += s.readback_ms;
    instructions += s.stats.instructions;
    energy_ms += probe([&] {
      (void)sfrv::energy::EnergyModel{}.breakdown(s.stats, spec.mem);
    });
    qor_ms += probe([&] {
      std::vector<double> golden;
      for (const auto& g : c.spec->golden) {
        golden.insert(golden.end(), g.begin(), g.end());
      }
      (void)sfrv::kernels::sqnr_db(golden, s.outputs);
      if (c.bench->accuracy) {
        kernels::RunResult r;
        std::size_t off = 0;
        for (const auto& name : c.spec->output_arrays) {
          const auto n = static_cast<std::size_t>(
              c.spec->kernel.arrays[static_cast<std::size_t>(
                  c.spec->kernel.array_index(name))].elems());
          r.outputs[name].assign(s.outputs.begin() + static_cast<long>(off),
                                 s.outputs.begin() + static_cast<long>(off + n));
          off += n;
        }
        (void)c.bench->accuracy(*c.spec, r);
      }
    });
  }

  // A cold CLI run has no cell store, so the tuner simulates every
  // lattice-ordered pair of its grid.
  eval::TunerStudy study;
  const double tuner_ms = probe([&] {
    study = eval::run_tuner_study(eval::SuiteScale::Full, spec.mem, spec.engine,
                                  spec.backend, spec.opt);
  });
  std::uint64_t tuner_cells = 0;
  for (const auto& t : study.explored) {
    if (ir::comparable(t.data, t.acc)) ++tuner_cells;
  }

  const double n = static_cast<double>(cells.size());
  return eval::Json(eval::JsonObject{
      {"fixture_ms", eval::Json(fixture_ms)},
      {"build_ms", eval::Json(build_ms)},
      {"lower_ms", eval::Json(lower_ms)},
      {"plan_ms", eval::Json(plan_ms)},
      {"setup_us_per_cell", eval::Json(1000.0 * setup_ms / n)},
      {"run_ms", eval::Json(run_ms)},
      {"energy_us_per_cell", eval::Json(1000.0 * energy_ms / n)},
      {"qor_us_per_cell", eval::Json(1000.0 * qor_ms / n)},
      {"tuner_ms", eval::Json(tuner_ms)},
      {"tuner_cells_simulated", eval::Json(tuner_cells)},
      {"cells", eval::Json(static_cast<std::uint64_t>(cells.size()))},
      {"instructions", eval::Json(instructions)},
      {"coverage", eval::Json(probe.coverage())},
  });
}

eval::Json replay_campaign(const RunContext& ctx) {
  const fs::path dir = fs::path(ctx.work_dir) / "campaign-replay";
  fs::create_directories(dir);
  const std::vector<std::string> campaign = {
      ctx.sfrv_eval, "--suite", "table3", "-j", "1", "--out",
      (dir / "report").string()};
  const std::vector<std::string> replay = {ctx.self, "replay-campaign-process"};

  eval::JsonArray replays;
  std::vector<double> cold_ms;
  std::vector<double> replay_ms;
  std::vector<double> minflt;
  const auto start = Clock::now();
  while (replays.empty() || ms_since(start) < 1000.0 * ctx.seconds) {
    const ChildResult cold = run_child(campaign);
    if (!cold.ok()) throw std::runtime_error("cold campaign failed");
    cold_ms.push_back(cold.cpu_ms);
    minflt.push_back(static_cast<double>(cold.minflt));
    ChildResult usage;
    const std::string out = capture_child(replay, &usage);
    replay_ms.push_back(usage.cpu_ms);
    replays.push_back(eval::Json::parse(out));
  }
  fs::remove_all(dir);
  return eval::Json(eval::JsonObject{
      {"replays", eval::Json(std::move(replays))},
      {"cold_ms", json_numbers(cold_ms)},
      {"replay_ms", json_numbers(replay_ms)},
      {"minflt", json_numbers(minflt)},
  });
}

}  // namespace perfbench
