// Dynamic vector length (setvl) conformance: grant rules at the ISA level,
// vl=0 no-op semantics, JIT trace invalidation when a block is re-entered
// under a different VL, and the strip-mined kernel lowering — O2's unrolled
// setvl loops must match O0's bit-for-bit (outputs and fflags), and
// elementwise kernels must be bit-identical across every VL choice.
#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "asmb/assembler.hpp"
#include "kernels/nn.hpp"
#include "kernels/runner.hpp"
#include "sim/core.hpp"

namespace sfrv::test {
namespace {

using asmb::Assembler;
using isa::Op;
namespace reg = asmb::reg;

constexpr sim::Engine kEngines[] = {
    sim::Engine::Reference, sim::Engine::Predecoded, sim::Engine::Jit};

sim::Core run_on(const asmb::Program& prog, sim::Engine e) {
  sim::Core core(isa::IsaConfig::full());
  core.set_engine(e);
  if (e == sim::Engine::Jit) core.set_jit_threshold(0);
  core.load_program(prog);
  EXPECT_EQ(core.run(1'000'000), sim::Core::RunResult::Halted)
      << sim::engine_name(e);
  return core;
}

TEST(Setvl, GrantRules) {
  // vl = min(AVL, VLMAX for the element width, cap when nonzero). At
  // FLEN=32, VLMAX is 4 byte lanes (ew=0) or 2 halfword lanes (ew=1).
  struct Case {
    std::uint32_t avl;
    int ew;
    int cap;
    std::uint32_t want;
  };
  const Case cases[] = {
      {0, 1, 0, 0},    // AVL 0: nothing granted
      {1, 1, 0, 1},    // sub-lane grant
      {2, 1, 0, 2},    // exactly VLMAX
      {3, 1, 0, 2},    // AVL above VLMAX clamps
      {100, 1, 0, 2},  //
      {100, 0, 0, 4},  // byte lanes: VLMAX 4
      {3, 0, 0, 3},    // non-dividing tail grant
      {100, 0, 3, 3},  // explicit cap below VLMAX
      {2, 0, 3, 2},    // AVL below the cap wins
      {1, 0, 3, 1},    //
  };
  for (const auto& c : cases) {
    Assembler a;
    a.li(reg::t1, static_cast<std::int32_t>(c.avl));
    a.setvl(reg::t2, reg::t1, c.ew, c.cap);
    a.ebreak();
    const asmb::Program prog = a.finish();
    for (const auto e : kEngines) {
      sim::Core core = run_on(prog, e);
      EXPECT_EQ(core.x(reg::t2), c.want)
          << "avl=" << c.avl << " ew=" << c.ew << " cap=" << c.cap
          << " engine=" << sim::engine_name(e);
      EXPECT_EQ(core.context().vl, c.want);
    }
  }
}

TEST(Setvl, VlZeroMakesVecMemopsNoOps) {
  Assembler a;
  const std::uint32_t buf = a.data_zero(64);
  a.la(reg::s0, buf);
  a.li(reg::t0, 0x1234abcd);
  a.sw(reg::t0, 0, reg::s0);
  // Full VL: the packed load observes the pattern.
  a.li(reg::t1, 4);
  a.setvl(reg::zero, reg::t1, 1, 0);
  a.vflh(1, 0, reg::s0);
  // VL 0: neither the load nor the store may touch anything.
  a.li(reg::t1, 0);
  a.setvl(reg::zero, reg::t1, 1, 0);
  a.vflh(1, 8, reg::s0);   // must leave f1 unchanged
  a.vfsh(1, 16, reg::s0);  // must write nothing
  a.ebreak();
  const asmb::Program prog = a.finish();

  for (const auto e : kEngines) {
    sim::Core core = run_on(prog, e);
    EXPECT_EQ(core.f_bits(1) & 0xffffffffull, 0x1234abcdull)
        << sim::engine_name(e);
    std::uint8_t tail[4] = {1, 2, 3, 4};
    core.memory().read_block(buf + 16, tail, sizeof tail);
    for (const std::uint8_t b : tail) {
      EXPECT_EQ(b, 0) << sim::engine_name(e);
    }
  }
}

TEST(Setvl, JitInvalidatesStaleVlTraces) {
  // A loop whose body re-executes under a different VL each iteration: the
  // trace compiled at vl=2 on the first pass is stale on the second (vl=1)
  // and must be unmapped and retranslated, not replayed with folded masks.
  Assembler a;
  const std::uint32_t buf = a.data_zero(64);
  a.la(reg::s0, buf);
  a.li(reg::t0, 0x40004000);  // two f16 lanes of 2.0
  a.sw(reg::t0, 0, reg::s0);
  a.li(reg::t0, 2);   // iterations
  a.li(reg::t3, 2);   // first AVL: full VL
  const auto loop = a.here();
  a.setvl(reg::zero, reg::t3, 1, 0);
  a.li(reg::t3, 1);   // second pass runs at vl=1
  // setvl is untranslatable (VL is constant within a trace), so the vector
  // body must start its own block to become a VL-keyed trace: jump to it.
  a.emit({.op = Op::JAL, .rd = reg::zero, .imm = 4});
  a.vflh(1, 0, reg::s0);
  a.fp_rrr(Op::VFADD_H, 2, 1, 1);
  a.vfsh(2, 8, reg::s0);
  a.addi(reg::t0, reg::t0, -1);
  a.bne(reg::t0, reg::zero, loop);
  a.ebreak();
  const asmb::Program prog = a.finish();

  sim::Core jit = run_on(prog, sim::Engine::Jit);
  EXPECT_GE(jit.jit_stats().vl_invalidations, 1u);

  const sim::Core ref = run_on(prog, sim::Engine::Reference);
  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(jit.f_bits(r), ref.f_bits(r)) << "f" << r;
    EXPECT_EQ(jit.x(r), ref.x(r)) << "x" << r;
  }
  EXPECT_EQ(jit.stats().cycles, ref.stats().cycles);
}

// ---- strip-mined kernel lowering -------------------------------------------

ir::OptConfig with_vl(ir::OptConfig opt, int cap) {
  opt.vl_cap = cap;
  return opt;
}

void expect_bit_identical(const kernels::RunResult& a,
                          const kernels::RunResult& b,
                          const std::vector<std::string>& outputs,
                          const std::string& what) {
  for (const auto& name : outputs) {
    const auto& va = a.outputs.at(name);
    const auto& vb = b.outputs.at(name);
    ASSERT_EQ(va.size(), vb.size()) << what << " " << name;
    for (std::size_t i = 0; i < va.size(); ++i) {
      std::uint64_t ba, bb;
      std::memcpy(&ba, &va[i], sizeof ba);
      std::memcpy(&bb, &vb[i], sizeof bb);
      EXPECT_EQ(ba, bb) << what << " " << name << "[" << i << "]";
    }
  }
  EXPECT_EQ(a.fflags, b.fflags) << what;
}

TEST(StripMine, O2MatchesO0BitForBit) {
  // The unroller may only replicate strip bodies (exhausted strips
  // self-neutralize through zero-grant setvl), never reorder element math:
  // outputs and accrued fflags must match O0 exactly at every cap, including
  // caps that do not divide the trip count (f8: 4 lanes against trips of 10).
  struct Shape {
    const char* what;
    kernels::KernelSpec spec;
    ir::CodegenMode mode;
  };
  const Shape shapes[] = {
      {"fully_connected/f16",
       kernels::make_fully_connected(
           kernels::TypeConfig::uniform(ir::ScalarType::F16), 6, 10),
       ir::CodegenMode::ManualVec},
      {"fully_connected/f8",
       kernels::make_fully_connected(
           kernels::TypeConfig::uniform(ir::ScalarType::F8), 6, 10),
       ir::CodegenMode::ManualVec},
      {"nn_train/mixed8",
       kernels::make_nn_train({ir::ScalarType::F8, ir::ScalarType::F16}, 5, 6),
       ir::CodegenMode::ManualVecExs},
  };
  for (const auto& s : shapes) {
    for (const int cap : {1, 2, 4}) {
      const auto o0 = kernels::run_kernel(
          s.spec, s.mode, {}, isa::IsaConfig::full(), sim::Engine::Predecoded,
          fp::default_backend(), with_vl(ir::OptConfig::O0(), cap));
      const auto o2 = kernels::run_kernel(
          s.spec, s.mode, {}, isa::IsaConfig::full(), sim::Engine::Predecoded,
          fp::default_backend(), with_vl(ir::OptConfig::O2(), cap));
      const std::string what =
          std::string(s.what) + " cap=" + std::to_string(cap);
      expect_bit_identical(o0, o2, s.spec.output_arrays, what);
      EXPECT_LE(o2.stats.cycles, o0.stats.cycles) << what;
    }
  }
}

TEST(StripMine, ElementwiseKernelBitIdenticalAcrossVls) {
  // conv2d accumulates each output element through the same per-element tap
  // order regardless of how elements group into lanes, so — unlike the
  // reduction kernels, whose lane order legitimately shifts with VL — its
  // outputs must be bit-identical across the legacy lowering and every cap.
  const kernels::KernelSpec spec = kernels::make_conv2d(
      kernels::TypeConfig::uniform(ir::ScalarType::F16), 6, 6, 3);
  const auto base = kernels::run_kernel(
      spec, ir::CodegenMode::ManualVec, {}, isa::IsaConfig::full(),
      sim::Engine::Predecoded, fp::default_backend(), ir::OptConfig::O0());
  for (const int cap : {1, 2, 4}) {
    const auto strip = kernels::run_kernel(
        spec, ir::CodegenMode::ManualVec, {}, isa::IsaConfig::full(),
        sim::Engine::Predecoded, fp::default_backend(),
        with_vl(ir::OptConfig::O0(), cap));
    expect_bit_identical(base, strip, spec.output_arrays,
                         "conv2d cap=" + std::to_string(cap));
  }
}

TEST(StripMine, EnginesAgreeOnStripMinedKernels) {
  // Per-VL-point conformance: the same strip-mined cell must be bit- and
  // cycle-identical across all three engines (the golden matrix pins this
  // against checked-in digests; this is the direct three-way comparison).
  const kernels::KernelSpec spec = kernels::make_fully_connected(
      {ir::ScalarType::F8, ir::ScalarType::F16}, 6, 10);
  std::vector<kernels::RunResult> runs;
  for (const auto e : kEngines) {
    runs.push_back(kernels::run_kernel(
        spec, ir::CodegenMode::ManualVecExs, {}, isa::IsaConfig::full(), e,
        fp::default_backend(), with_vl(ir::OptConfig::O0(), 2)));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    expect_bit_identical(runs[0], runs[i], spec.output_arrays,
                         std::string("engine ") +
                             std::string(sim::engine_name(kEngines[i])));
    EXPECT_EQ(runs[0].stats.cycles, runs[i].stats.cycles);
    EXPECT_EQ(runs[0].stats.instructions, runs[i].stats.instructions);
  }
}

}  // namespace
}  // namespace sfrv::test
