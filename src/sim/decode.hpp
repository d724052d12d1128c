// Predecode layer: lowers isa::Inst into directly dispatchable micro-ops.
//
// The reference interpreter (retained in core.cpp) re-resolves three
// decisions for every executed instruction: the op-class switch in
// execute(), the per-op switch in the exec_* families, and the per-lane
// format switch inside every fp::rt_* call. DecodedOp hoists all three to
// program-load time: each instruction is lowered once into
//   * a handler pointer (`fn`) -- the only dispatch left in the hot loop,
//   * a lane plan (format, element width, SIMD lane count, .R replication),
//   * pre-bound softfloat entry points from the per-(op, format) tables in
//     softfloat/runtime.hpp (`fp1`/`fp2`),
//   * a pre-computed timing class and base cycle count.
// Core::step() then becomes a single indirect call plus a small timing
// adjustment switch.
#pragma once

#include <cstdint>
#include <vector>

#include "isa/instruction.hpp"
#include "isa/isa.hpp"
#include "sim/exec.hpp"
#include "sim/memory.hpp"
#include "sim/timing.hpp"
#include "softfloat/runtime.hpp"

namespace sfrv::sim {

/// The dynamic-outcome-dependent part of the timing model, resolved at
/// decode time so step() switches on five values instead of ~30 op classes.
enum class TimingClass : std::uint8_t { None, Load, Store, Jump, Branch };

/// Branch condition of the six RV32I branch ops, shared by the micro-op
/// branch handlers (decode.cpp) and the JIT's inlined branch slots
/// (jit.cpp) so the semantics live once.
/// (The reference interpreter keeps its own switch: it is the verbatim
/// pre-refactor oracle and intentionally shares no code with the engines
/// it checks.)
template <isa::Op B>
[[nodiscard]] constexpr bool branch_taken(std::uint32_t a, std::uint32_t b) {
  if constexpr (B == isa::Op::BEQ) return a == b;
  if constexpr (B == isa::Op::BNE) return a != b;
  if constexpr (B == isa::Op::BLT) {
    return static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b);
  }
  if constexpr (B == isa::Op::BGE) {
    return static_cast<std::int32_t>(a) >= static_cast<std::int32_t>(b);
  }
  if constexpr (B == isa::Op::BLTU) return a < b;
  if constexpr (B == isa::Op::BGEU) return a >= b;
}

/// Coarse handler-shape tag for the JIT translator (sim/jit.cpp): ops of
/// these shapes get dedicated trace tokens that call the bound softfloat
/// entry directly instead of the handler trampoline. Purely an optimization
/// hint — semantics live in `fn` and the bound table entries.
enum class HandlerKind : std::uint8_t {
  Other, VecBin, VecMac, FpBin, VecDotp, VecExsdotp,
};

struct DecodedOp {
  /// Bound softfloat entry point; the active member is fixed by `fn`.
  union FpFn {
    fp::RtBinFn bin;
    fp::RtTernFn tern;
    fp::RtUnFn un;
    fp::RtCmpFn cmp;
    fp::RtClassFn cls;
    fp::RtToI32Fn to_i32;
    fp::RtToU32Fn to_u32;
    fp::RtFromI32Fn from_i32;
    fp::RtFromU32Fn from_u32;
    fp::RtCvtFn cvt;
    fp::RtVecBinFn vbin;
    fp::RtVecTernFn vtern;
    fp::RtVecUnFn vun;
    fp::RtVecCmpFn vcmp;
    fp::RtVecDotpFn vdotp;
    void* raw;
  };

  ExecFn fn = nullptr;
  std::uint8_t rd = 0, rs1 = 0, rs2 = 0, rs3 = 0;
  std::uint8_t rm = 0;        ///< raw rm field; resolved against frm per step
  std::uint8_t width = 0;     ///< destination FP element width in bits
  std::uint8_t width2 = 0;    ///< source FP width for conversions
  std::uint8_t lanes = 0;     ///< SIMD lane count (0 for scalar ops)
  bool replicate = false;     ///< .R variant: broadcast lane 0 of rs2
  bool supported = true;      ///< false: `fn` raises SimError when reached
  fp::FpFormat fmt = fp::FpFormat::F32;
  std::int32_t imm = 0;
  FpFn fp1{.raw = nullptr};
  FpFn fp2{.raw = nullptr};
  std::uint16_t base_cycles = 1;
  TimingClass tclass = TimingClass::None;
  HandlerKind hkind = HandlerKind::Other;
  isa::Op op = isa::Op::EBREAK;  ///< for stats, tracing, and error messages
};

/// Cycles of `u` whose timing class has a static outcome, mirroring
/// Core::account(): loads, stores, and jumps fold their fixed latency or
/// penalty into one constant. Branch is the only dynamic class (taken or
/// not) and yields just the base cycles; the taken penalty stays with the
/// executor. The JIT translator and its trace checker (sim/verify.cpp) use
/// it so compiled traces book the exact cycles Core::account() would.
[[nodiscard]] std::uint16_t fixed_cycles(const DecodedOp& u,
                                         const Timing& timing,
                                         const MemConfig& mem);

/// Lower one instruction into a micro-op for the given configuration.
/// Instructions the configuration does not implement decode to a handler
/// that raises SimError on execution -- matching the reference interpreter,
/// which faults only when the PC actually reaches the instruction.
/// `backend` selects which softfloat table family (fp::rt_ops and friends)
/// the micro-op's entry points are bound from; the backends are bit- and
/// fflags-identical, so it only changes wall-clock time.
[[nodiscard]] DecodedOp decode_op(const isa::Inst& inst,
                                  const isa::IsaConfig& cfg,
                                  const Timing& timing,
                                  fp::MathBackend backend = fp::default_backend());

/// Lower a whole text segment (index i corresponds to text_base + 4*i).
[[nodiscard]] std::vector<DecodedOp> decode_program(
    const std::vector<isa::Inst>& text, const isa::IsaConfig& cfg,
    const Timing& timing, fp::MathBackend backend = fp::default_backend());

}  // namespace sfrv::sim
