// Golden-trace conformance vectors: every kernel of the smoke suite, at
// every type configuration and code generator, is executed to completion
// and its architectural outcome — cycle and instruction counts, per-opcode
// retirement counts, load/store totals, and the bit patterns of every
// output array — is folded into a 64-bit digest. The digests are checked in
// under tests/data/golden_digests.txt and verified under ALL simulator
// engines, so any engine, decoder, lowering, or softfloat change that
// perturbs a single bit of architectural state (or a single cycle of the
// timing model) fails loudly instead of drifting silently.
//
// Regenerating after an *intentional* behavior change:
//   ./build/tests/test_golden_trace --regen
// (or SFRV_REGEN_GOLDEN=1 ./build/tests/test_golden_trace). Regeneration
// computes the vectors with the predecoded engine and rewrites the file in
// the source tree; re-run the test afterwards to confirm all engines agree.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "eval/campaign.hpp"
#include "kernels/runner.hpp"

namespace sfrv::test {
namespace {

constexpr const char* kGoldenPath =
    SFRV_SOURCE_DIR "/tests/data/golden_digests.txt";

/// FNV-1a 64 over a heterogeneous byte stream.
class Digest {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    bytes(s.data(), s.size());
    u64(s.size());
  }

  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/// The conformance matrix: the smoke suite across the campaign's type
/// configs (the paper's five plus posit8/posit16) and the scalar/auto-vec/
/// manual-vec generators, plus pinned O2 and ExSdotp-widening blocks.
struct GoldenCell {
  std::string name;  // bench/type_config/mode[/opt-level]
  const eval::EvalBenchmark* bench;
  kernels::TypeConfig tc;
  ir::CodegenMode mode;
  ir::OptConfig opt;  // pinned explicitly so SFRV_OPT cannot perturb digests
};

std::vector<GoldenCell> golden_matrix() {
  std::vector<GoldenCell> cells;
  for (const auto& b : eval::eval_suite(eval::SuiteScale::Smoke)) {
    for (const auto& tc : eval::default_type_configs()) {
      for (const auto mode :
           {ir::CodegenMode::Scalar, ir::CodegenMode::AutoVec,
            ir::CodegenMode::ManualVec}) {
        cells.push_back({b.bench.name + "/" + tc.name + "/" +
                             std::string(ir::mode_name(mode)),
                         &b, tc.tc, mode, ir::OptConfig::O0()});
      }
    }
  }
  // One unrolled configuration (float16 across all benches and modes) pins
  // the post-lowering optimizer's codegen: cycle counts, glue elimination,
  // and output bit-identity all fold into these digests.
  for (const auto& b : eval::eval_suite(eval::SuiteScale::Smoke)) {
    for (const auto mode :
         {ir::CodegenMode::Scalar, ir::CodegenMode::AutoVec,
          ir::CodegenMode::ManualVec}) {
      cells.push_back({b.bench.name + "/float16/" +
                           std::string(ir::mode_name(mode)) + "/O2",
                       &b, kernels::TypeConfig::uniform(ir::ScalarType::F16),
                       mode, ir::OptConfig::O2()});
    }
  }
  // ExSdotp rows: every benchmark under the manual-vec-exsdotp generator at
  // the four widening (data, acc) pairs the ExSdotp unit serves, one per
  // vfexsdotp opcode. Uniform configs lower identically to manual-vec, so
  // only the widening pairs add signal.
  const std::pair<const char*, kernels::TypeConfig> widening[] = {
      {"mixed8", {ir::ScalarType::F8, ir::ScalarType::F16}},
      {"mixed", {ir::ScalarType::F16, ir::ScalarType::F32}},
      {"mixed16alt", {ir::ScalarType::F16Alt, ir::ScalarType::F32}},
      {"posit-mixed", {ir::ScalarType::P8, ir::ScalarType::P16}},
  };
  for (const auto& b : eval::eval_suite(eval::SuiteScale::Smoke)) {
    for (const auto& [name, tc] : widening) {
      cells.push_back({b.bench.name + "/" + std::string(name) + "/" +
                           std::string(ir::mode_name(
                               ir::CodegenMode::ManualVecExs)),
                       &b, tc, ir::CodegenMode::ManualVecExs,
                       ir::OptConfig::O0()});
    }
  }
  // Dynamic-VL rows: the strip-mined setvl lowering pinned at representative
  // sweep points — sub-lane (vl1), full-lane (vl2) at O0 and under the O2
  // unroller, and the widening ExSdotp path. Digests fold both the outputs
  // (pinned lane order at each VL) and the setvl-loop cycle shape.
  const auto with_vl = [](ir::OptConfig opt, int cap) {
    opt.vl_cap = cap;
    return opt;
  };
  const auto f16 = kernels::TypeConfig::uniform(ir::ScalarType::F16);
  const kernels::TypeConfig mixed8{ir::ScalarType::F8, ir::ScalarType::F16};
  for (const auto& b : eval::eval_suite(eval::SuiteScale::Smoke)) {
    cells.push_back({b.bench.name + "/float16/manual-vec/vl1", &b, f16,
                     ir::CodegenMode::ManualVec,
                     with_vl(ir::OptConfig::O0(), 1)});
    cells.push_back({b.bench.name + "/float16/manual-vec/vl2", &b, f16,
                     ir::CodegenMode::ManualVec,
                     with_vl(ir::OptConfig::O0(), 2)});
    cells.push_back({b.bench.name + "/float16/manual-vec/vl2-O2", &b, f16,
                     ir::CodegenMode::ManualVec,
                     with_vl(ir::OptConfig::O2(), 2)});
    cells.push_back({b.bench.name + "/mixed8/manual-vec-exsdotp/vl2", &b,
                     mixed8, ir::CodegenMode::ManualVecExs,
                     with_vl(ir::OptConfig::O0(), 2)});
  }
  return cells;
}

/// Execute one cell under `engine` and digest its architectural outcome.
std::string run_digest(const GoldenCell& cell, sim::Engine engine) {
  const kernels::KernelSpec spec = cell.bench->bench.make(cell.tc);
  const kernels::RunResult r = kernels::run_kernel(
      spec, cell.mode, {}, isa::IsaConfig::full(), engine,
      fp::default_backend(), cell.opt);

  Digest d;
  d.u64(r.stats.cycles);
  d.u64(r.stats.instructions);
  d.u64(r.stats.load_count);
  d.u64(r.stats.store_count);
  for (std::size_t op = 0; op < isa::kNumOps; ++op) {
    if (r.stats.op_count[op] == 0) continue;
    d.u64(op);
    d.u64(r.stats.op_count[op]);
  }
  for (const auto& name : spec.output_arrays) {
    d.str(name);
    for (const double v : r.outputs.at(name)) {
      std::uint64_t bits;
      static_assert(sizeof bits == sizeof v);
      std::memcpy(&bits, &v, sizeof bits);
      d.u64(bits);
    }
  }
  return d.hex();
}

std::map<std::string, std::string> load_golden() {
  std::map<std::string, std::string> golden;
  std::ifstream in(kGoldenPath);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string name, digest;
    ls >> name >> digest;
    if (!name.empty() && !digest.empty()) golden[name] = digest;
  }
  return golden;
}

class GoldenTrace : public ::testing::TestWithParam<sim::Engine> {};

TEST_P(GoldenTrace, MatchesCheckedInDigests) {
  const sim::Engine engine = GetParam();
  const auto golden = load_golden();
  ASSERT_FALSE(golden.empty())
      << "no golden vectors at " << kGoldenPath
      << " — regenerate with: ./build/tests/test_golden_trace --regen";

  const auto cells = golden_matrix();
  EXPECT_EQ(golden.size(), cells.size())
      << "golden file is stale (matrix shape changed) — regenerate";
  for (const auto& cell : cells) {
    const auto it = golden.find(cell.name);
    ASSERT_NE(it, golden.end())
        << cell.name << " missing from golden file — regenerate";
    EXPECT_EQ(run_digest(cell, engine), it->second)
        << cell.name << " diverged under the " << sim::engine_name(engine)
        << " engine. If the behavior change is intentional, regenerate with "
           "./build/tests/test_golden_trace --regen and re-run.";
  }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, GoldenTrace,
                         ::testing::Values(sim::Engine::Reference,
                                           sim::Engine::Predecoded,
                                           sim::Engine::Jit),
                         [](const auto& info) {
                           return std::string(sim::engine_name(info.param));
                         });

int regenerate() {
  std::ofstream out(kGoldenPath, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", kGoldenPath);
    return 1;
  }
  out << "# Golden architectural-state digests (see "
         "tests/sim/test_golden_trace.cpp).\n"
         "# Regenerate: ./build/tests/test_golden_trace --regen\n";
  for (const auto& cell : golden_matrix()) {
    out << cell.name << ' ' << run_digest(cell, sim::Engine::Predecoded)
        << '\n';
  }
  std::printf("wrote %s\n", kGoldenPath);
  return out ? 0 : 1;
}

}  // namespace
}  // namespace sfrv::test

// Custom main (overrides gtest_main): --regen rewrites the golden file in
// the source tree instead of running the comparison.
int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  bool regen = std::getenv("SFRV_REGEN_GOLDEN") != nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--regen") regen = true;
  }
  if (regen) return sfrv::test::regenerate();
  return RUN_ALL_TESTS();
}
