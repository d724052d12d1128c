// Backend selection plumbing: SFRV_BACKEND / SFRV_ENGINE environment
// contracts (invalid values warn and fall back, never throw), name round
// trips, Core::set_backend re-lowering, and the (engine x backend)
// conformance matrix on an FP-heavy program -- every pair must retire to
// bit-identical architectural state, fflags, and cycle counts.
#include <gtest/gtest.h>

#include <vector>

#include "ir/opt.hpp"
#include "sim/core.hpp"
#include "sim_util.hpp"
#include "softfloat/runtime.hpp"
#include "test_util.hpp"
#include "util/env.hpp"

namespace sfrv::test {
namespace {

using fp::MathBackend;
using sim::Engine;

TEST(BackendNames, RoundTripAndRejection) {
  EXPECT_EQ(fp::backend_name(MathBackend::Grs), "grs");
  EXPECT_EQ(fp::backend_name(MathBackend::Fast), "fast");
  EXPECT_EQ(fp::backend_from_name("grs"), MathBackend::Grs);
  EXPECT_EQ(fp::backend_from_name("fast"), MathBackend::Fast);
  EXPECT_THROW((void)fp::backend_from_name("lut"), std::runtime_error);
  EXPECT_THROW((void)fp::backend_from_name(""), std::runtime_error);
}

TEST(BackendNames, EnvContractWarnsAndFallsBack) {
  // SFRV_BACKEND: unset/empty -> Grs; valid values parse; anything else
  // falls back to Grs (with a stderr warning) instead of throwing -- the
  // resolution runs inside static initialization where a throw would abort.
  EXPECT_EQ(fp::backend_from_env(nullptr), MathBackend::Grs);
  EXPECT_EQ(fp::backend_from_env(""), MathBackend::Grs);
  EXPECT_EQ(fp::backend_from_env("grs"), MathBackend::Grs);
  EXPECT_EQ(fp::backend_from_env("fast"), MathBackend::Fast);
  EXPECT_EQ(fp::backend_from_env("FAST"), MathBackend::Grs);  // case-sensitive
  EXPECT_EQ(fp::backend_from_env("bogus"), MathBackend::Grs);
}

TEST(EngineNames, EnvContractWarnsAndFallsBack) {
  // SFRV_ENGINE: the same contract, falling back to Predecoded.
  EXPECT_EQ(sim::engine_from_env(nullptr), Engine::Predecoded);
  EXPECT_EQ(sim::engine_from_env(""), Engine::Predecoded);
  EXPECT_EQ(sim::engine_from_env("reference"), Engine::Reference);
  EXPECT_EQ(sim::engine_from_env("predecoded"), Engine::Predecoded);
  EXPECT_EQ(sim::engine_from_env("jit"), Engine::Jit);
  // The removed superblock engine's name is unknown now.
  EXPECT_EQ(sim::engine_from_env("fused"), Engine::Predecoded);
  EXPECT_EQ(sim::engine_from_env("bogus"), Engine::Predecoded);
  EXPECT_EQ(sim::engine_from_env("Fused"), Engine::Predecoded);
  EXPECT_EQ(sim::engine_from_env("JIT"), Engine::Predecoded);  // case-sensitive
}

TEST(EnvParsers, SharedHelperContractAcrossAllThreeVariables) {
  // SFRV_ENGINE / SFRV_BACKEND / SFRV_OPT all resolve through
  // util::parse_env_enum: unset or empty selects the fallback, a valid name
  // parses, anything else warns on stderr and falls back — never throws
  // (resolution runs inside static initialization). One helper, one
  // contract; an invalid value must behave identically for every variable.
  for (const char* invalid : {"bogus", " O1", "O1 ", "o1", "3", "--"}) {
    EXPECT_EQ(sim::engine_from_env(invalid), Engine::Predecoded) << invalid;
    EXPECT_EQ(fp::backend_from_env(invalid), MathBackend::Grs) << invalid;
    EXPECT_EQ(ir::opt_name(ir::opt_from_env(invalid)), "O0") << invalid;
  }
  EXPECT_EQ(ir::opt_name(ir::opt_from_env(nullptr)), "O0");
  EXPECT_EQ(ir::opt_name(ir::opt_from_env("")), "O0");
  EXPECT_EQ(ir::opt_name(ir::opt_from_env("O2")), "O2");
  // Direct helper check: fallback passes through untouched on bad input.
  const int parsed = util::parse_env_enum(
      "nope", 7, [](const char*) -> int { throw std::runtime_error("no"); },
      "SFRV_TEST", "anything");
  EXPECT_EQ(parsed, 7);
  const int ok = util::parse_env_enum(
      "13", 7, [](const char* v) { return std::atoi(v); }, "SFRV_TEST",
      "a number");
  EXPECT_EQ(ok, 13);
}

/// FP-heavy program touching every fast-path family: f8/f16 packed SIMD
/// (LUT + host-double lanes), scalar f32 arithmetic including div/sqrt,
/// converts through f8, compares, and int converts.
void fp_workout(asmb::Assembler& a) {
  using isa::Op;
  namespace reg = asmb::reg;
  a.li(reg::t0, 40);
  // Seed FP registers through integer moves (NaN-boxed by the core).
  a.li(reg::t1, 0x3c3c5a7e);
  a.emit({.op = Op::FMV_S_X, .rd = 1, .rs1 = reg::t1});
  a.li(reg::t1, 0x40404040);
  a.emit({.op = Op::FMV_S_X, .rd = 2, .rs1 = reg::t1});
  a.li(reg::t1, 0x3c003c00);
  a.emit({.op = Op::FMV_S_X, .rd = 3, .rs1 = reg::t1});
  a.li(reg::t1, 0x41c84000);
  a.emit({.op = Op::FMV_S_X, .rd = 4, .rs1 = reg::t1});
  const auto loop = a.here();
  // Packed f8 (4 lanes) and f16 (2 lanes).
  a.fp_rrr(Op::VFADD_B, 5, 1, 2);
  a.fp_rrr(Op::VFMUL_B, 6, 1, 2);
  a.fp_rrr(Op::VFDIV_B, 7, 6, 2);
  a.fp_rrr(Op::VFSQRT_B, 8, 6, 0);
  a.fp_rrr(Op::VFMIN_B, 9, 5, 6);
  a.fp_rrr(Op::VFADD_H, 10, 3, 4);
  a.fp_rrr(Op::VFMUL_H, 11, 3, 4);
  a.fp_rrr(Op::VFDIV_H, 12, 11, 3);
  a.fp_rrr(Op::VFEQ_B, reg::t2, 5, 6);
  // Scalar f32 through the host-double path, plus the GRS-fallback fma.
  a.fp_rrr(Op::FADD_S, 13, 1, 2);
  a.fp_rrr(Op::FMUL_S, 14, 1, 2);
  a.fp_rrr(Op::FDIV_S, 15, 14, 2);
  a.fp_rrr(Op::FSQRT_S, 16, 14, 0);
  a.fp_r4(Op::FMADD_S, 17, 13, 14, 15);
  // Conversions through the 8-bit LUT space and int converts.
  a.fp_rrr(Op::FCVT_B_S, 18, 13, 0);
  a.fp_rrr(Op::FCVT_H_B, 19, 18, 0);
  a.fp_rrr(Op::FCVT_S_H, 20, 19, 0);
  a.fp_rrr(Op::FCVT_W_S, reg::t3, 16, 0);
  // Rotate inputs so iterations explore different values.
  a.fp_rrr(Op::FSGNJX_S, 1, 13, 20);
  a.fp_rrr(Op::FADD_H, 3, 19, 12);
  a.addi(reg::t0, reg::t0, -1);
  a.bne(reg::t0, reg::zero, loop);
  a.ebreak();
}

struct Digest {
  std::vector<std::uint64_t> f;
  std::vector<std::uint32_t> x;
  std::uint8_t fflags;
  std::uint64_t cycles;
  std::uint64_t instructions;

  bool operator==(const Digest&) const = default;
};

Digest run_pair(Engine e, MathBackend b) {
  asmb::Assembler a;
  fp_workout(a);
  sim::Core core;
  core.set_engine(e);
  core.set_backend(b);
  core.load_program(a.finish());
  EXPECT_EQ(core.run(), sim::Core::RunResult::Halted);
  Digest d;
  for (unsigned r = 0; r < 32; ++r) d.f.push_back(core.f_bits(r));
  for (unsigned r = 0; r < 32; ++r) d.x.push_back(core.x(r));
  d.fflags = core.fflags();
  d.cycles = core.stats().cycles;
  d.instructions = core.stats().instructions;
  return d;
}

TEST(BackendConformance, EveryEngineBackendPairIsBitIdentical) {
  const Digest baseline = run_pair(Engine::Reference, MathBackend::Grs);
  ASSERT_NE(baseline.fflags, 0);  // the workout must actually raise flags
  for (const Engine e : {Engine::Reference, Engine::Predecoded, Engine::Jit}) {
    for (const MathBackend b : {MathBackend::Grs, MathBackend::Fast}) {
      const Digest d = run_pair(e, b);
      EXPECT_EQ(d, baseline) << sim::engine_name(e) << "/"
                             << fp::backend_name(b);
    }
  }
}

TEST(BackendConformance, SetBackendAfterLoadRelowers) {
  // Switching the backend after load_program must re-bind the micro-op
  // entry points (and drop the compiled traces) -- results stay identical,
  // and the accessor reflects the change.
  asmb::Assembler a;
  fp_workout(a);
  const asmb::Program prog = a.finish();

  sim::Core before;
  before.set_backend(MathBackend::Fast);
  before.load_program(prog);
  ASSERT_EQ(before.run(), sim::Core::RunResult::Halted);

  sim::Core after;
  after.set_engine(Engine::Jit);
  after.load_program(prog);
  after.set_backend(MathBackend::Fast);
  EXPECT_EQ(after.backend(), MathBackend::Fast);
  ASSERT_EQ(after.run(), sim::Core::RunResult::Halted);

  for (unsigned r = 0; r < 32; ++r) {
    EXPECT_EQ(before.f_bits(r), after.f_bits(r)) << r;
  }
  EXPECT_EQ(before.fflags(), after.fflags());
  EXPECT_EQ(before.stats().cycles, after.stats().cycles);
}

TEST(BackendConformance, DefaultBackendIsProcessWide) {
  // Core picks up fp::default_backend() (SFRV_BACKEND) so CI can steer the
  // whole suite; a fresh core and the resolved default must agree.
  sim::Core core;
  EXPECT_EQ(core.backend(), fp::default_backend());
}

}  // namespace
}  // namespace sfrv::test
