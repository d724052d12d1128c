// Randomized differential suite: the predecoded micro-op engine AND the jit
// trace-compilation engine must match the retained reference interpreter
// bit-for-bit on architectural state (x/f register files, memory,
// fflags/frm) AND on the timing model (cycles, instruction/load/store
// counts) across every extension configuration. Streams read the cycle CSR
// mid-run, so a single mis-accounted cycle also shows up as an
// architectural divergence.
//
// Each random stream runs three ways:
//  * free-run — every engine to completion at full speed (compiled traces
//    and the jit's cold path fully exercised), final state + memory
//    compared;
//  * per-instruction lockstep — run(1) on all engines, full state compared
//    after every retired instruction (this also drives the jit's bounded
//    trace path);
//  * random-chunk lockstep — run(k), k in [1, 8], so trace prefixes and
//    partial cold blocks execute between observation points and state is
//    compared at interior pcs.
// The streams' jalr groups produce dynamic targets that land mid-block
// (the +12 skip), covering mid-trace jalr entry. The jit runs twice with
// the hotness threshold forced both ways: 0 (every block compiles on first
// entry) and nonzero (early entries step cold through the predecoded
// micro-ops, later ones run compiled — the hot/cold transition happens
// mid-stream).
#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "asmb/assembler.hpp"
#include "sim/core.hpp"

namespace sfrv::test {
namespace {

using asmb::Assembler;
using isa::Cls;
using isa::IsaConfig;
using isa::Lay;
using isa::Op;
namespace reg = asmb::reg;

constexpr std::uint8_t kBaseReg = reg::s0;  // holds the scratch-buffer address
constexpr std::size_t kBufBytes = 256;

class StreamGen {
 public:
  StreamGen(const IsaConfig& cfg, std::uint64_t seed) : rng_(seed) {
    for (std::size_t k = 0; k < isa::kNumOps; ++k) {
      const Op op = static_cast<Op>(k);
      if (!cfg.supports(op)) continue;
      // ECALL/EBREAK would end the stream early.
      if (op == Op::ECALL || op == Op::EBREAK) continue;
      pool_.push_back(op);
    }
  }

  /// Emit `count` random instruction groups into `a`, followed by ebreak.
  /// JALR expands to a two-instruction auipc pair, so "skip one" forward
  /// displacements are only allowed when the following group is a single
  /// instruction (a skip landing mid-pair would read a garbage base).
  void emit_stream(Assembler& a, int count) {
    std::vector<Op> ops(static_cast<std::size_t>(count));
    for (auto& op : ops) op = pick_op();
    for (int i = 0; i < count; ++i) {
      const bool allow_skip = i + 1 < count && ops[i + 1] != Op::JALR;
      const Op op = ops[i];
      if (op == Op::JALR) {
        // Register-indirect targets are made trackable with an auipc pair:
        // target = auipc_pc + imm lands on the next instruction (+8) or
        // skips one (+12). rd may alias the base, exercising the
        // read-before-link-write ordering.
        std::uint8_t base = int_rd();
        if (base == 0) base = reg::t1;
        a.emit({.op = Op::AUIPC, .rd = base, .imm = 0});
        a.emit({.op = Op::JALR, .rd = int_rd(), .rs1 = base,
                .imm = fwd_imm(allow_skip) + 4});
        continue;
      }
      a.emit(random_inst(op, allow_skip));
    }
    a.ebreak();
  }

 private:
  Op pick_op() { return pool_[rng_() % pool_.size()]; }
  std::uint8_t xreg() { return static_cast<std::uint8_t>(rng_() & 31); }
  std::uint8_t freg() { return static_cast<std::uint8_t>(rng_() & 31); }
  /// Integer destination that never clobbers the scratch-buffer base.
  std::uint8_t int_rd() {
    const auto r = xreg();
    return r == kBaseReg ? static_cast<std::uint8_t>(r + 1) : r;
  }
  std::uint8_t rand_rm() {
    const std::uint8_t m[] = {0, 1, 2, 3, 4, isa::kRmDyn};
    return m[rng_() % 6];
  }
  std::int32_t mem_offset() {
    return static_cast<std::int32_t>(rng_() % 63) * 4;
  }
  /// Forward branch/jump displacement that stays inside the stream: +8 skips
  /// one instruction, +4 is a plain fall-through (taken or not).
  std::int32_t fwd_imm(bool allow_skip) {
    return (allow_skip && (rng_() & 1) != 0) ? 8 : 4;
  }

  isa::Inst random_inst(Op op, bool allow_skip) {
    isa::Inst i{.op = op};
    const auto cls = isa::op_class(op);
    switch (isa::layout(op)) {
      case Lay::U:
        i.rd = int_rd();
        i.imm = static_cast<std::int32_t>((rng_() & 0xfffff) << 12);
        break;
      case Lay::J:
        i.rd = int_rd();
        i.imm = fwd_imm(allow_skip);
        break;
      case Lay::Bimm:
        i.rs1 = xreg();
        i.rs2 = xreg();
        i.imm = fwd_imm(allow_skip);
        break;
      case Lay::Iimm:
        if (cls == Cls::Load || cls == Cls::FpLoad) {
          i.rd = cls == Cls::Load ? int_rd() : freg();
          i.rs1 = kBaseReg;
          i.imm = mem_offset();
        } else {
          i.rd = int_rd();
          i.rs1 = xreg();
          i.imm = static_cast<std::int32_t>(rng_() & 0xfff) - 2048;
        }
        break;
      case Lay::Simm:
        i.rs1 = kBaseReg;
        i.rs2 = cls == Cls::Store ? xreg() : freg();
        i.imm = mem_offset();
        break;
      case Lay::Shamt:
        i.rd = int_rd();
        i.rs1 = xreg();
        i.imm = static_cast<std::int32_t>(rng_() & 31);
        break;
      case Lay::R:
        i.rd = int_rd();
        i.rs1 = xreg();
        i.rs2 = xreg();
        break;
      case Lay::FullWord:
        break;  // fence
      case Lay::Csr: {
        const std::int32_t addrs[] = {0x001, 0x002, 0x003, 0xc00, 0xc02};
        i.rd = int_rd();
        i.rs1 = xreg();  // zimm for the I variants: same 5-bit range
        i.imm = addrs[rng_() % 5];
        break;
      }
      case Lay::FpRrm:
      case Lay::FpR2:
        i.rd = isa::rd_is_int(op) ? int_rd() : freg();
        i.rs1 = freg();
        i.rs2 = freg();
        i.rm = rand_rm();
        break;
      case Lay::FpR4:
        i.rd = freg();
        i.rs1 = freg();
        i.rs2 = freg();
        i.rs3 = freg();
        i.rm = rand_rm();
        break;
      case Lay::FpUnaryRm:
      case Lay::FpUnary:
        i.rd = isa::rd_is_int(op) ? int_rd() : freg();
        i.rs1 = isa::rs1_is_int(op) ? xreg() : freg();
        i.rm = rand_rm();
        break;
      case Lay::Vec:
        i.rd = isa::rd_is_int(op) ? int_rd() : freg();
        i.rs1 = freg();
        i.rs2 = freg();
        break;
      case Lay::VecUnary:
        i.rd = freg();
        i.rs1 = freg();
        break;
    }
    return i;
  }

  std::mt19937_64 rng_;
  std::vector<Op> pool_;
};

/// Seed both cores with identical random architectural state.
void seed_state(sim::Core& core, std::uint64_t seed) {
  std::mt19937_64 sr(seed ^ 0x5eed5eed5eed5eedull);
  for (unsigned r = 1; r < 32; ++r) {
    core.set_x(r, static_cast<std::uint32_t>(sr()));
  }
  for (unsigned r = 0; r < 32; ++r) core.set_f_bits(r, sr());
  core.set_fflags(static_cast<std::uint8_t>(sr() & 0x1f));
  core.set_frm(static_cast<fp::RoundingMode>(sr() % 5));
}

constexpr sim::Engine kEngines[] = {
    sim::Engine::Reference, sim::Engine::Predecoded, sim::Engine::Jit};

/// Full architectural + timing state comparison between two cores.
::testing::AssertionResult state_eq(const sim::Core& a, const sim::Core& b) {
  auto fail = [&](const char* what, std::uint64_t va, std::uint64_t vb) {
    return ::testing::AssertionFailure()
           << sim::engine_name(a.engine()) << " vs "
           << sim::engine_name(b.engine()) << ": " << what << " " << va
           << " != " << vb << " (pc=0x" << std::hex << a.pc() << ")";
  };
  if (a.pc() != b.pc()) return fail("pc", a.pc(), b.pc());
  for (unsigned r = 0; r < 32; ++r) {
    if (a.x(r) != b.x(r)) return fail("x reg", a.x(r), b.x(r));
    if (a.f_bits(r) != b.f_bits(r)) return fail("f reg", a.f_bits(r), b.f_bits(r));
  }
  if (a.fflags() != b.fflags()) return fail("fflags", a.fflags(), b.fflags());
  if (a.frm() != b.frm()) {
    return fail("frm", static_cast<std::uint64_t>(a.frm()),
                static_cast<std::uint64_t>(b.frm()));
  }
  if (a.halted() != b.halted()) return fail("halted", a.halted(), b.halted());
  const sim::Stats& sa = a.stats();
  const sim::Stats& sb = b.stats();
  if (sa.cycles != sb.cycles) return fail("cycles", sa.cycles, sb.cycles);
  if (sa.instructions != sb.instructions) {
    return fail("instructions", sa.instructions, sb.instructions);
  }
  if (sa.load_count != sb.load_count) {
    return fail("loads", sa.load_count, sb.load_count);
  }
  if (sa.store_count != sb.store_count) {
    return fail("stores", sa.store_count, sb.store_count);
  }
  return ::testing::AssertionSuccess();
}

void expect_same_memory(const sim::Core& a, const sim::Core& b,
                        std::uint32_t buf, std::uint64_t seed) {
  std::vector<std::uint8_t> ma(kBufBytes), mb(kBufBytes);
  a.memory().read_block(buf, ma.data(), kBufBytes);
  b.memory().read_block(buf, mb.data(), kBufBytes);
  EXPECT_EQ(ma, mb) << sim::engine_name(a.engine()) << " vs "
                    << sim::engine_name(b.engine()) << " seed=" << seed;
}

struct Stream {
  asmb::Program prog;
  std::uint32_t buf = 0;
};

Stream make_stream(const IsaConfig& cfg, std::uint64_t seed, int count) {
  Assembler a;
  Stream s;
  s.buf = a.data_zero(kBufBytes);
  a.la(kBaseReg, s.buf);
  StreamGen gen(cfg, seed);
  gen.emit_stream(a, count);
  s.prog = a.finish();
  return s;
}

sim::Core make_core(const IsaConfig& cfg, const Stream& s, sim::Engine e,
                    std::uint64_t seed) {
  sim::Core core(cfg);
  core.set_engine(e);
  if (e == sim::Engine::Jit) core.set_jit_threshold(0);  // always compiled
  core.load_program(s.prog);
  seed_state(core, seed);
  return core;
}

/// All differential cores for one stream: the kEngines set (jit at
/// threshold 0, every block compiled on first entry) plus a second jit
/// core with a nonzero threshold, so the hot/cold promotion happens
/// mid-stream and cold entries step through the predecoded micro-ops.
std::vector<sim::Core> make_cores(const IsaConfig& cfg, const Stream& s,
                                  std::uint64_t seed) {
  std::vector<sim::Core> cores;
  for (const auto e : kEngines) cores.push_back(make_core(cfg, s, e, seed));
  cores.push_back(make_core(cfg, s, sim::Engine::Jit, seed));
  cores.back().set_jit_threshold(3);
  return cores;
}

/// Lockstep every engine in chunks of `chunk(rng)` instructions, comparing
/// the full state at every chunk boundary.
template <typename ChunkFn>
void lockstep(const IsaConfig& cfg, const Stream& s, std::uint64_t seed,
              ChunkFn chunk) {
  std::vector<sim::Core> cores = make_cores(cfg, s, seed);
  std::mt19937_64 cr(seed ^ 0xC0DEC0DEC0DEull);
  for (std::uint64_t retired = 0; retired < 1'000'000;) {
    const std::uint64_t k = chunk(cr);
    for (auto& c : cores) c.run(k);
    retired += k;
    for (std::size_t i = 1; i < cores.size(); ++i) {
      ASSERT_TRUE(state_eq(cores[0], cores[i]))
          << "seed=" << seed << " after " << retired << " budgeted steps";
    }
    if (cores[0].halted()) break;
  }
  ASSERT_TRUE(cores[0].halted()) << "stream did not halt, seed=" << seed;
  for (std::size_t i = 1; i < cores.size(); ++i) {
    expect_same_memory(cores[0], cores[i], s.buf, seed);
  }
}

/// Run one random stream through all engines; returns executed instructions.
std::uint64_t run_stream(const IsaConfig& cfg, std::uint64_t seed, int count) {
  const Stream s = make_stream(cfg, seed, count);

  // Free-run: every engine at full speed (cold blocks + compiled traces).
  std::vector<sim::Core> cores = make_cores(cfg, s, seed);
  for (auto& c : cores) {
    EXPECT_EQ(c.run(1'000'000), sim::Core::RunResult::Halted)
        << sim::engine_name(c.engine()) << " seed=" << seed;
  }
  for (std::size_t i = 1; i < cores.size(); ++i) {
    EXPECT_TRUE(state_eq(cores[0], cores[i])) << "seed=" << seed;
    expect_same_memory(cores[0], cores[i], s.buf, seed);
  }

  // Per-instruction lockstep: state checked at every retired instruction.
  lockstep(cfg, s, seed, [](std::mt19937_64&) -> std::uint64_t { return 1; });
  // Random-chunk lockstep: trace prefixes and partial cold blocks execute
  // between observation points.
  lockstep(cfg, s, seed,
           [](std::mt19937_64& r) -> std::uint64_t { return 1 + r() % 8; });

  return cores[0].stats().instructions;
}

void run_config(const IsaConfig& cfg) {
  std::uint64_t executed = 0;
  for (std::uint64_t s = 0; s < 8; ++s) {
    executed += run_stream(cfg, 0xAB000000u + s, 1500);
  }
  EXPECT_GE(executed, 10'000u) << "stream generator under-delivers coverage";
}

TEST(AbEquivalence, FullSmallFloatConfig) { run_config(IsaConfig::full()); }

TEST(AbEquivalence, Rv32imfBaseline) { run_config(IsaConfig::rv32imf()); }

TEST(AbEquivalence, FullConfigFlen64) { run_config(IsaConfig::full(64)); }

TEST(AbEquivalence, FullConfigFlen16) { run_config(IsaConfig::full(16)); }

TEST(AbEquivalence, IntegerOnlyConfig) {
  run_config(IsaConfig({isa::Ext::I, isa::Ext::M, isa::Ext::Zicsr}, 32));
}

TEST(AbEquivalence, PositOnlyConfig) {
  // Without the IEEE smallFloat extensions the stream pool concentrates on
  // the posit scalar/vector ops and vfexsdotp.p16.p8, giving them the same
  // engine fuzz density the IEEE formats get from full().
  run_config(IsaConfig(
      {isa::Ext::I, isa::Ext::M, isa::Ext::Zicsr, isa::Ext::F,
       isa::Ext::Xposit},
      32));
}

TEST(AbEquivalence, FuzzPoolCoversPositAndExSdotp) {
  // The stream generator draws from every op full() supports: pin that the
  // PR 7 additions are actually in that pool, so the differential coverage
  // above cannot silently regress to the pre-posit op set.
  const IsaConfig cfg = IsaConfig::full();
  for (const Op op :
       {Op::FADD_P8, Op::FMADD_P16, Op::FSQRT_P8, Op::FCVT_P8_P16,
        Op::VFADD_P8, Op::VFMAC_P8, Op::VFDOTPEX_S_P8,
        Op::VFEXSDOTP_H_B, Op::VFEXSDOTP_R_H_B, Op::VFEXSDOTP_S_H,
        Op::VFEXSDOTP_S_AH, Op::VFEXSDOTP_P16_P8, Op::VFEXSDOTP_R_P16_P8}) {
    EXPECT_TRUE(cfg.supports(op)) << isa::mnemonic(op);
  }
}

TEST(AbEquivalence, FuzzPoolCoversDynamicVl) {
  // Same guard for the dynamic-VL additions: setvl (random ew/cap fields and
  // AVL values, including zero and oversize grants) and the VL-aware packed
  // memops must stay in the differential fuzz pool, so every engine's VL
  // masking, trace keying, and partial-width memory access get differential
  // coverage from the streams above.
  const IsaConfig cfg = IsaConfig::full();
  for (const Op op :
       {Op::SETVL, Op::VFLB, Op::VFLH, Op::VFSB, Op::VFSH}) {
    EXPECT_TRUE(cfg.supports(op)) << isa::mnemonic(op);
  }
}

// Deterministic guard on the canonical loop shape (packed-SIMD pairs plus
// an addi+bne back-edge). The randomized suite would still pass if the jit
// never left its cold path, so this checks both sides of it: with
// threshold 0 the loop body compiles and the hot iterations run from the
// trace; with the threshold out of reach every block entry (the first
// block, each taken back-edge, the ebreak) steps cold through the
// predecoded micro-ops; with a small threshold the promotion happens
// mid-loop. Every core stays cycle-identical to predecoded across the
// taken back-edge. The suite name predates the jit's cold path, which
// took over the superblock layer's block-at-a-time stepping.
TEST(Superblock, FusesLoopPairsAndStaysIdentical) {
  constexpr std::uint32_t kIters = 1000;
  Assembler a;
  a.li(asmb::reg::t0, kIters);
  const auto loop = a.here();
  a.fp_rrr(Op::VFADD_B, asmb::reg::fa0, asmb::reg::fa1, asmb::reg::fa2);
  a.fp_rrr(Op::VFMUL_B, asmb::reg::fa3, asmb::reg::fa1, asmb::reg::fa2);
  a.fp_rrr(Op::VFSUB_H, asmb::reg::ft0, asmb::reg::ft1, asmb::reg::ft2);
  a.fp_rrr(Op::VFMIN_H, asmb::reg::ft3, asmb::reg::ft1, asmb::reg::ft2);
  a.addi(asmb::reg::t0, asmb::reg::t0, -1);
  a.bne(asmb::reg::t0, asmb::reg::zero, loop);
  a.ebreak();
  const asmb::Program prog = a.finish();

  const auto make = [&](sim::Engine e, std::uint32_t jit_threshold) {
    sim::Core c(isa::IsaConfig::full());
    c.set_engine(e);
    c.set_jit_threshold(jit_threshold);
    c.load_program(prog);
    EXPECT_EQ(c.run(), sim::Core::RunResult::Halted) << sim::engine_name(e);
    return c;
  };
  const sim::Core uop = make(sim::Engine::Predecoded, 0);
  const sim::Core hot = make(sim::Engine::Jit, 0);
  const sim::Core cold = make(sim::Engine::Jit, 1'000'000);
  const sim::Core promoted = make(sim::Engine::Jit, 16);

  EXPECT_GE(hot.jit_stats().translations, 1u);
  EXPECT_GE(hot.jit_stats().slots, 6u);  // the loop body: 4 vec + addi + bne
  EXPECT_EQ(hot.jit_stats().interp_entries, 0u);

  EXPECT_EQ(cold.jit_stats().translations, 0u);
  EXPECT_EQ(cold.jit_stats().interp_entries, 1u + (kIters - 1) + 1u);
  EXPECT_EQ(cold.jit_stats().lookups, cold.jit_stats().interp_entries);

  EXPECT_GE(promoted.jit_stats().translations, 1u);
  EXPECT_GT(promoted.jit_stats().interp_entries, 16u);
  EXPECT_LT(promoted.jit_stats().interp_entries, kIters / 2);

  EXPECT_TRUE(state_eq(uop, hot));
  EXPECT_TRUE(state_eq(uop, cold));
  EXPECT_TRUE(state_eq(uop, promoted));
}

// Falling through the last text instruction (no ebreak) must raise the same
// fetch fault with the same fully-retired state under every engine — neither
// the jit's trace walker nor its cold path may run off the end of the text.
TEST(Superblock, FallthroughOffTextEndMatchesAllEngines) {
  Assembler a;
  a.addi(asmb::reg::t0, asmb::reg::zero, 1);
  a.addi(asmb::reg::t1, asmb::reg::zero, 2);
  a.addi(asmb::reg::t2, asmb::reg::zero, 3);
  const asmb::Program prog = a.finish();

  std::vector<sim::Core> cores;
  const auto add = [&](sim::Engine e, std::uint32_t jit_threshold) {
    sim::Core c(isa::IsaConfig::full());
    c.set_engine(e);
    c.set_jit_threshold(jit_threshold);
    c.load_program(prog);
    EXPECT_THROW(c.run(), sim::SimError) << sim::engine_name(e);
    cores.push_back(std::move(c));
  };
  for (const auto e : kEngines) add(e, 0);  // jit: trace, not cold path
  add(sim::Engine::Jit, 1'000'000);         // jit: cold path
  for (std::size_t i = 1; i < cores.size(); ++i) {
    EXPECT_TRUE(state_eq(cores[0], cores[i]));
  }
}

// A fault in the second op of an addi+lw pair in the middle of a cold jit
// block (the lw reads far out of bounds) must leave the same
// post-exception state as the predecoded engine: the block's prefix
// retired (pc, cycles, instret, register writes, the addi among them), the
// load did not. The threshold keeps the block off the trace path.
TEST(Superblock, FaultInSecondHalfOfPairRetiresFirstHalf) {
  Assembler a;
  a.li(asmb::reg::t0, 0x7ff00000);  // far outside the 8 MiB memory (1 inst)
  a.addi(asmb::reg::t3, asmb::reg::zero, 0);
  a.addi(asmb::reg::t1, asmb::reg::zero, 7);
  a.emit({.op = Op::LW, .rd = asmb::reg::t2, .rs1 = asmb::reg::t0});
  a.ebreak();
  const asmb::Program prog = a.finish();

  std::vector<sim::Core> cores;
  for (const auto e : {sim::Engine::Predecoded, sim::Engine::Jit}) {
    sim::Core c(isa::IsaConfig::full());
    c.set_engine(e);
    c.set_jit_threshold(1'000'000);  // the block stays cold
    c.load_program(prog);
    EXPECT_THROW(c.run(), std::out_of_range) << sim::engine_name(e);
    cores.push_back(std::move(c));
  }
  EXPECT_EQ(cores[1].jit_stats().interp_entries, 1u);
  EXPECT_EQ(cores[1].jit_stats().translations, 0u);
  EXPECT_EQ(cores[0].x(asmb::reg::t1), 7u);  // the prefix's writes landed
  EXPECT_EQ(cores[0].stats().instructions, 3u);  // li (1 uop) + 2 addi
  EXPECT_TRUE(state_eq(cores[0], cores[1]));
}

}  // namespace
}  // namespace sfrv::test
