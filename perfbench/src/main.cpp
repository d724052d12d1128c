// sfbench: the compiled half of the repository benchmark (perfbench/run.py
// builds it and reduces its output to metrics).
//
//   sfbench campaign-cold|sim-long|serve-mixed|trace
//           --sfrv-eval PATH --work-dir DIR --seed N --seconds S [--min-ops N]
//   sfbench selftest
//
// Each workload command prints one JSON object of raw samples as its last
// stdout line; `trace` prints the layer-by-layer replays of all three
// workloads. `replay-campaign-process` is the cold child `trace` starts.
#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>

#include "workloads.hpp"

namespace {

using namespace perfbench;

RunContext context(const Options& opt, const char* self) {
  RunContext ctx;
  ctx.sfrv_eval = opt.need("sfrv-eval");
  ctx.self = std::filesystem::absolute(self).string();
  ctx.work_dir = opt.need("work-dir");
  ctx.seed = opt.u64("seed", 1);
  ctx.seconds = opt.num("seconds", 10);
  ctx.min_ops = opt.u64("min-ops", 1);
  std::filesystem::create_directories(ctx.work_dir);
  return ctx;
}

void print(const eval::Json& j) { std::printf("%s\n", j.dump().c_str()); }

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s campaign-cold|sim-long|serve-mixed|trace|selftest "
                 "[--option value]...\n",
                 argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    if (cmd == "selftest") return run_selftest() == 0 ? 0 : 1;
    if (cmd == "replay-campaign-process") {
      print(replay_campaign_process());
      return 0;
    }
    const Options opt(argc, argv, 2);
    RunContext ctx = context(opt, argv[0]);
    if (cmd == "campaign-cold") {
      print(run_campaign_cold(ctx));
    } else if (cmd == "sim-long") {
      print(run_sim_long(ctx));
    } else if (cmd == "serve-mixed") {
      print(run_serve_mixed(ctx));
    } else if (cmd == "trace") {
      // The traced run replays every workload's operation, each for a
      // third of the run, so every per-layer metric is measured whichever
      // workload is named.
      ctx.seconds /= 3;
      const eval::Json campaign = replay_campaign(ctx);
      const eval::Json sim = replay_sim_long(ctx);
      const eval::Json serve = replay_serve_mixed(ctx);
      print(eval::Json(eval::JsonObject{{"campaign-cold", campaign},
                                        {"sim-long", sim},
                                        {"serve-mixed", serve}}));
    } else {
      std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sfbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return 0;
}
