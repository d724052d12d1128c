// Micro-op handlers and the Inst -> DecodedOp lowering.
//
// Handlers are small free functions over ExecContext. They must replicate the
// reference interpreter in core.cpp bit-for-bit (architectural state, fflags,
// and the timing-relevant outcome bits); the randomized A/B equivalence suite
// in tests/sim/test_ab_equivalence.cpp enforces this.
#include "sim/decode.hpp"

#include <climits>
#include <string>

namespace sfrv::sim {

namespace {

using fp::Flags;
using fp::FpFormat;
using fp::RoundingMode;
using isa::Cls;
using isa::Inst;
using isa::Op;
using U32 = std::uint32_t;
using U64 = std::uint64_t;
using I32 = std::int32_t;

// ---- integer handlers -------------------------------------------------------

void h_lui(ExecContext& c, const DecodedOp& u) {
  c.set_x(u.rd, static_cast<U32>(u.imm));
  c.pc += 4;
}

void h_auipc(ExecContext& c, const DecodedOp& u) {
  c.set_x(u.rd, c.pc + static_cast<U32>(u.imm));
  c.pc += 4;
}

void h_jal(ExecContext& c, const DecodedOp& u) {
  c.set_x(u.rd, c.pc + 4);
  c.pc += static_cast<U32>(u.imm);
}

void h_jalr(ExecContext& c, const DecodedOp& u) {
  const U32 target = (c.x[u.rs1] + static_cast<U32>(u.imm)) & ~1u;
  c.set_x(u.rd, c.pc + 4);
  c.pc = target;
}

template <Op B>
void h_branch(ExecContext& c, const DecodedOp& u) {
  if (branch_taken<B>(c.x[u.rs1], c.x[u.rs2])) {
    c.pc += static_cast<U32>(u.imm);
    c.branch_taken = true;
  } else {
    c.pc += 4;
  }
}

// ALU handlers: EXPR sees `rs1`, `rs2` (pre-read register values) and `imm`.
#define SFRV_H_ALU(NAME, EXPR)                           \
  void h_##NAME(ExecContext& c, const DecodedOp& u) {    \
    const U32 rs1 = c.x[u.rs1];                          \
    const U32 rs2 = c.x[u.rs2];                          \
    const U32 imm = static_cast<U32>(u.imm);             \
    (void)rs1;                                           \
    (void)rs2;                                           \
    (void)imm;                                           \
    c.set_x(u.rd, (EXPR));                               \
    c.pc += 4;                                           \
  }

SFRV_H_ALU(addi, rs1 + imm)
SFRV_H_ALU(sltiu, rs1 < imm ? 1 : 0)
SFRV_H_ALU(xori, rs1 ^ imm)
SFRV_H_ALU(ori, rs1 | imm)
SFRV_H_ALU(andi, rs1 & imm)
SFRV_H_ALU(slli, rs1 << (imm & 31))
SFRV_H_ALU(srli, rs1 >> (imm & 31))
SFRV_H_ALU(srai, static_cast<U32>(static_cast<I32>(rs1) >> (imm & 31)))
SFRV_H_ALU(add, rs1 + rs2)
SFRV_H_ALU(sub, rs1 - rs2)
SFRV_H_ALU(sll, rs1 << (rs2 & 31))
SFRV_H_ALU(slt, static_cast<I32>(rs1) < static_cast<I32>(rs2) ? 1 : 0)
SFRV_H_ALU(sltu, rs1 < rs2 ? 1 : 0)
SFRV_H_ALU(xorr, rs1 ^ rs2)
SFRV_H_ALU(srl, rs1 >> (rs2 & 31))
SFRV_H_ALU(sra, static_cast<U32>(static_cast<I32>(rs1) >> (rs2 & 31)))
SFRV_H_ALU(orr, rs1 | rs2)
SFRV_H_ALU(andr, rs1 & rs2)
SFRV_H_ALU(mul, rs1 * rs2)
SFRV_H_ALU(mulh,
           static_cast<U32>((static_cast<std::int64_t>(static_cast<I32>(rs1)) *
                             static_cast<std::int64_t>(static_cast<I32>(rs2))) >>
                            32))
SFRV_H_ALU(mulhsu,
           static_cast<U32>((static_cast<std::int64_t>(static_cast<I32>(rs1)) *
                             static_cast<std::int64_t>(rs2)) >>
                            32))
SFRV_H_ALU(mulhu, static_cast<U32>((static_cast<U64>(rs1) * rs2) >> 32))
SFRV_H_ALU(divu, rs2 == 0 ? ~0u : rs1 / rs2)
SFRV_H_ALU(remu, rs2 == 0 ? rs1 : rs1 % rs2)
#undef SFRV_H_ALU

void h_slti(ExecContext& c, const DecodedOp& u) {
  c.set_x(u.rd, static_cast<I32>(c.x[u.rs1]) < u.imm ? 1 : 0);
  c.pc += 4;
}

void h_div(ExecContext& c, const DecodedOp& u) {
  const auto a = static_cast<I32>(c.x[u.rs1]);
  const auto b = static_cast<I32>(c.x[u.rs2]);
  I32 q = -1;
  if (b == 0) {
    q = -1;
  } else if (a == INT32_MIN && b == -1) {
    q = INT32_MIN;
  } else {
    q = a / b;
  }
  c.set_x(u.rd, static_cast<U32>(q));
  c.pc += 4;
}

void h_rem(ExecContext& c, const DecodedOp& u) {
  const auto a = static_cast<I32>(c.x[u.rs1]);
  const auto b = static_cast<I32>(c.x[u.rs2]);
  I32 r = a;
  if (b == 0) {
    r = a;
  } else if (a == INT32_MIN && b == -1) {
    r = 0;
  } else {
    r = a % b;
  }
  c.set_x(u.rd, static_cast<U32>(r));
  c.pc += 4;
}

void h_lb(ExecContext& c, const DecodedOp& u) {
  c.set_x(u.rd, static_cast<U32>(static_cast<I32>(static_cast<std::int8_t>(
                    c.mem->load8(c.x[u.rs1] + static_cast<U32>(u.imm))))));
  c.pc += 4;
}

void h_lh(ExecContext& c, const DecodedOp& u) {
  c.set_x(u.rd, static_cast<U32>(static_cast<I32>(static_cast<std::int16_t>(
                    c.mem->load16(c.x[u.rs1] + static_cast<U32>(u.imm))))));
  c.pc += 4;
}

void h_lw(ExecContext& c, const DecodedOp& u) {
  c.set_x(u.rd, c.mem->load32(c.x[u.rs1] + static_cast<U32>(u.imm)));
  c.pc += 4;
}

void h_lbu(ExecContext& c, const DecodedOp& u) {
  c.set_x(u.rd, c.mem->load8(c.x[u.rs1] + static_cast<U32>(u.imm)));
  c.pc += 4;
}

void h_lhu(ExecContext& c, const DecodedOp& u) {
  c.set_x(u.rd, c.mem->load16(c.x[u.rs1] + static_cast<U32>(u.imm)));
  c.pc += 4;
}

void h_sb(ExecContext& c, const DecodedOp& u) {
  c.mem->store8(c.x[u.rs1] + static_cast<U32>(u.imm),
                static_cast<std::uint8_t>(c.x[u.rs2]));
  c.pc += 4;
}

void h_sh(ExecContext& c, const DecodedOp& u) {
  c.mem->store16(c.x[u.rs1] + static_cast<U32>(u.imm),
                 static_cast<std::uint16_t>(c.x[u.rs2]));
  c.pc += 4;
}

void h_sw(ExecContext& c, const DecodedOp& u) {
  c.mem->store32(c.x[u.rs1] + static_cast<U32>(u.imm), c.x[u.rs2]);
  c.pc += 4;
}

void h_fence(ExecContext& c, const DecodedOp&) { c.pc += 4; }

void h_halt(ExecContext& c, const DecodedOp&) {
  c.halted = true;
  c.pc += 4;
}

// ---- FP loads/stores --------------------------------------------------------

void h_flw(ExecContext& c, const DecodedOp& u) {
  c.write_fp(u.rd, 32, c.mem->load32(c.x[u.rs1] + static_cast<U32>(u.imm)));
  c.pc += 4;
}

void h_flh(ExecContext& c, const DecodedOp& u) {
  c.write_fp(u.rd, 16, c.mem->load16(c.x[u.rs1] + static_cast<U32>(u.imm)));
  c.pc += 4;
}

void h_flb(ExecContext& c, const DecodedOp& u) {
  c.write_fp(u.rd, 8, c.mem->load8(c.x[u.rs1] + static_cast<U32>(u.imm)));
  c.pc += 4;
}

void h_fsw(ExecContext& c, const DecodedOp& u) {
  c.mem->store32(c.x[u.rs1] + static_cast<U32>(u.imm),
                 static_cast<U32>(c.read_fp(u.rs2, 32)));
  c.pc += 4;
}

void h_fsh(ExecContext& c, const DecodedOp& u) {
  c.mem->store16(c.x[u.rs1] + static_cast<U32>(u.imm),
                 static_cast<std::uint16_t>(c.read_fp(u.rs2, 16)));
  c.pc += 4;
}

void h_fsb(ExecContext& c, const DecodedOp& u) {
  c.mem->store8(c.x[u.rs1] + static_cast<U32>(u.imm),
                static_cast<std::uint8_t>(c.read_fp(u.rs2, 8)));
  c.pc += 4;
}

// ---- CSR --------------------------------------------------------------------

U32 csr_read(ExecContext& c, I32 addr) {
  switch (addr) {
    case 0x001: return c.fflags;
    case 0x002: return c.frm;
    case 0x003: return static_cast<U32>(c.frm) << 5 | c.fflags;
    case 0xc00: return static_cast<U32>(c.stats->cycles);
    case 0xc02: return static_cast<U32>(c.stats->instructions);
    case 0xc20: return c.vl;  // read-only; SETVL is the sole writer
    case 0xc80: return static_cast<U32>(c.stats->cycles >> 32);
    case 0xc82: return static_cast<U32>(c.stats->instructions >> 32);
    default:
      throw SimError("read of unimplemented CSR", c.pc);
  }
}

void csr_write(ExecContext& c, I32 addr, U32 v) {
  switch (addr) {
    case 0x001: c.fflags = v & 0x1f; break;
    case 0x002: c.frm = v & 0x7; break;
    case 0x003:
      c.fflags = v & 0x1f;
      c.frm = (v >> 5) & 0x7;
      break;
    case 0xc00:
    case 0xc02:
    case 0xc80:
    case 0xc82:
      break;  // counters: writes ignored
    default:
      throw SimError("write of unimplemented CSR", c.pc);
  }
}

enum class CsrKind { Rw, Rs, Rc };

template <CsrKind K, bool IsImm>
void h_csr(ExecContext& c, const DecodedOp& u) {
  const U32 old = csr_read(c, u.imm);
  const U32 src = IsImm ? u.rs1 : c.x[u.rs1];
  if constexpr (K == CsrKind::Rw) {
    csr_write(c, u.imm, src);
  } else if constexpr (K == CsrKind::Rs) {
    if (u.rs1 != 0) csr_write(c, u.imm, old | src);
  } else {
    if (u.rs1 != 0) csr_write(c, u.imm, old & ~src);
  }
  if (u.rd != 0) c.x[u.rd] = old;
  c.pc += 4;
}

// ---- scalar FP --------------------------------------------------------------

/// Two-operand FP op through the pre-bound table entry (add/sub/mul/div,
/// min/max, sign injection -- all share the RtBinFn shape).
void h_fp_bin(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  const RoundingMode rm = c.resolve_rm(u.rm);
  const U64 a = c.read_fp(u.rs1, u.width);
  const U64 b = c.read_fp(u.rs2, u.width);
  c.write_fp(u.rd, u.width, u.fp1.bin(a, b, rm, fl));
  c.fflags |= fl.bits;
  c.pc += 4;
}

void h_fp_sqrt(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  c.write_fp(u.rd, u.width,
             u.fp1.un(c.read_fp(u.rs1, u.width), c.resolve_rm(u.rm), fl));
  c.fflags |= fl.bits;
  c.pc += 4;
}

// Fused multiply-add family: fp1 = fma, fp2 = sgnjn (for operand negation,
// matching the reference interpreter's rt_sgnjn-based formulation).
template <bool NegA, bool NegC>
void h_fp_fma(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  const RoundingMode rm = c.resolve_rm(u.rm);
  U64 a = c.read_fp(u.rs1, u.width);
  const U64 b = c.read_fp(u.rs2, u.width);
  U64 acc = c.read_fp(u.rs3, u.width);
  if constexpr (NegA) a = u.fp2.bin(a, a, rm, fl);
  if constexpr (NegC) acc = u.fp2.bin(acc, acc, rm, fl);
  c.write_fp(u.rd, u.width, u.fp1.tern(a, b, acc, rm, fl));
  c.fflags |= fl.bits;
  c.pc += 4;
}

void h_fp_cmp(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  const U64 a = c.read_fp(u.rs1, u.width);
  const U64 b = c.read_fp(u.rs2, u.width);
  c.set_x(u.rd, u.fp1.cmp(a, b, fl) ? 1 : 0);
  c.fflags |= fl.bits;
  c.pc += 4;
}

void h_fp_class(ExecContext& c, const DecodedOp& u) {
  c.set_x(u.rd, u.fp1.cls(c.read_fp(u.rs1, u.width)));
  c.pc += 4;
}

void h_fp_cvt_w(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  c.set_x(u.rd, static_cast<U32>(u.fp1.to_i32(c.read_fp(u.rs1, u.width),
                                              c.resolve_rm(u.rm), fl)));
  c.fflags |= fl.bits;
  c.pc += 4;
}

void h_fp_cvt_wu(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  c.set_x(u.rd,
          u.fp1.to_u32(c.read_fp(u.rs1, u.width), c.resolve_rm(u.rm), fl));
  c.fflags |= fl.bits;
  c.pc += 4;
}

void h_fp_cvt_from_w(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  c.write_fp(u.rd, u.width,
             u.fp1.from_i32(static_cast<I32>(c.x[u.rs1]), c.resolve_rm(u.rm),
                            fl));
  c.fflags |= fl.bits;
  c.pc += 4;
}

void h_fp_cvt_from_wu(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  c.write_fp(u.rd, u.width,
             u.fp1.from_u32(c.x[u.rs1], c.resolve_rm(u.rm), fl));
  c.fflags |= fl.bits;
  c.pc += 4;
}

void h_fmv_x(ExecContext& c, const DecodedOp& u) {
  // Sign-extend the raw bits to XLEN (RISC-V FMV.X.H convention).
  const int w = u.width;
  U32 v = static_cast<U32>(c.read_fp(u.rs1, w));
  if (w < 32 && (v & (1u << (w - 1))) != 0) {
    v |= static_cast<U32>(~width_mask(w));
  }
  c.set_x(u.rd, v);
  c.pc += 4;
}

void h_fmv_f(ExecContext& c, const DecodedOp& u) {
  c.write_fp(u.rd, u.width, c.x[u.rs1]);
  c.pc += 4;
}

/// FP <-> FP conversion: fp1 = pre-bound (dst, src) converter; width is the
/// destination width, width2 the source width.
void h_fp_cvt(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  c.write_fp(u.rd, u.width,
             u.fp1.cvt(c.read_fp(u.rs1, u.width2), c.resolve_rm(u.rm), fl));
  c.fflags |= fl.bits;
  c.pc += 4;
}

// Expanding operations (Xfaux): smallFloat operands, binary32 result.
// fp2 = widening converter (exact, RNE as in the reference), fp1 = the
// binary32 operation.
void h_fmulex(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  const RoundingMode rm = c.resolve_rm(u.rm);
  const U64 wa = u.fp2.cvt(c.read_fp(u.rs1, u.width2), RoundingMode::RNE, fl);
  const U64 wb = u.fp2.cvt(c.read_fp(u.rs2, u.width2), RoundingMode::RNE, fl);
  c.write_fp(u.rd, 32, u.fp1.bin(wa, wb, rm, fl));
  c.fflags |= fl.bits;
  c.pc += 4;
}

void h_fmacex(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  const RoundingMode rm = c.resolve_rm(u.rm);
  const U64 wa = u.fp2.cvt(c.read_fp(u.rs1, u.width2), RoundingMode::RNE, fl);
  const U64 wb = u.fp2.cvt(c.read_fp(u.rs2, u.width2), RoundingMode::RNE, fl);
  const U64 acc = c.read_fp(u.rd, 32);
  c.write_fp(u.rd, 32, u.fp1.tern(wa, wb, acc, rm, fl));
  c.fflags |= fl.bits;
  c.pc += 4;
}

// ---- vectorial FP -----------------------------------------------------------
// Vector ops always round with the dynamic mode (no rm operand in the
// encoding), and the lane loop lives inside the bound softfloat entry.
// Dynamic VL: only min(vl, lanes) lanes compute; the destination tail is
// merged back undisturbed (cast-and-pack is VL-agnostic, comparisons zero
// their tail mask bits), bit-for-bit the reference interpreter's rule.

void h_vec_bin(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  const int active = c.vl_active(u.lanes);
  const U64 keep = width_mask(active * u.width);
  const U64 r = u.fp1.vbin(c.f[u.rs1], c.f[u.rs2], active, u.replicate,
                           c.frm_mode(), fl);
  c.f[u.rd] = ((r & keep) | (c.f[u.rd] & ~keep)) & c.flen_mask;
  c.fflags |= fl.bits;
  c.pc += 4;
}

void h_vec_mac(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  const int active = c.vl_active(u.lanes);
  const U64 keep = width_mask(active * u.width);
  const U64 r = u.fp1.vtern(c.f[u.rs1], c.f[u.rs2], c.f[u.rd], active,
                            u.replicate, c.frm_mode(), fl);
  c.f[u.rd] = ((r & keep) | (c.f[u.rd] & ~keep)) & c.flen_mask;
  c.fflags |= fl.bits;
  c.pc += 4;
}

void h_vec_un(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  const int active = c.vl_active(u.lanes);
  const U64 keep = width_mask(active * u.width);
  const U64 r = u.fp1.vun(c.f[u.rs1], active, c.frm_mode(), fl);
  c.f[u.rd] = ((r & keep) | (c.f[u.rd] & ~keep)) & c.flen_mask;
  c.fflags |= fl.bits;
  c.pc += 4;
}

void h_vec_cmp(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  c.set_x(u.rd,
          u.fp1.vcmp(c.f[u.rs1], c.f[u.rs2], c.vl_active(u.lanes), fl));
  c.fflags |= fl.bits;
  c.pc += 4;
}

/// Lanewise same-width format conversion (vfcvt.h.ah / vfcvt.ah.h).
void h_vec_cvt(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  const RoundingMode rm = c.frm_mode();
  const int active = c.vl_active(u.lanes);
  const U64 keep = width_mask(active * u.width);
  const U64 va = c.f[u.rs1];
  U64 out = 0;
  for (int l = 0; l < active; ++l) {
    out = set_lane(out, l, u.width,
                   u.fp1.cvt(get_lane(va, l, u.width), rm, fl));
  }
  c.f[u.rd] = ((out & keep) | (c.f[u.rd] & ~keep)) & c.flen_mask;
  c.fflags |= fl.bits;
  c.pc += 4;
}

/// Cast-and-pack: convert two binary32 scalars into adjacent lanes starting
/// at lane `imm` (0 for vfcpka, 2 for vfcpkb).
void h_vec_cpk(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  const RoundingMode rm = c.frm_mode();
  const U64 s1 = c.read_fp(u.rs1, 32);
  const U64 s2 = c.read_fp(u.rs2, 32);
  U64 vd = c.f[u.rd];
  vd = set_lane(vd, u.imm + 0, u.width, u.fp1.cvt(s1, rm, fl));
  vd = set_lane(vd, u.imm + 1, u.width, u.fp1.cvt(s2, rm, fl));
  c.f[u.rd] = vd & c.flen_mask;
  c.fflags |= fl.bits;
  c.pc += 4;
}

void h_vec_dotp(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  const U64 acc = c.read_fp(u.rd, 32);
  c.write_fp(u.rd, 32,
             u.fp1.vdotp(c.f[u.rs1], c.f[u.rs2], acc, c.vl_active(u.lanes),
                         u.replicate, c.frm_mode(), fl));
  c.fflags |= fl.bits;
  c.pc += 4;
}

/// Widening sum-of-dot-products: unlike h_vec_dotp's single binary32
/// accumulator, the destination is a full vector packed in the one-step-wider
/// format, so the whole register is read and written (under VL, the wide
/// lanes past ceil(active/2) are undisturbed).
void h_vec_exsdotp(ExecContext& c, const DecodedOp& u) {
  Flags fl;
  const int active = c.vl_active(u.lanes);
  const U64 keep = width_mask((active + 1) / 2 * 2 * u.width);
  const U64 acc = c.f[u.rd];
  const U64 r = u.fp1.vdotp(c.f[u.rs1], c.f[u.rs2], acc, active, u.replicate,
                            c.frm_mode(), fl);
  c.f[u.rd] = ((r & keep) | (acc & ~keep)) & c.flen_mask;
  c.fflags |= fl.bits;
  c.pc += 4;
}

// ---- dynamic vector length --------------------------------------------------

/// setvl rd, rs1, imm: grant vl = min(AVL, VLMAX for the element width in
/// imm[2:0], optional cap in imm[8:3]). Decode pre-folds VLMAX into u.lanes
/// and the cap into u.width2. No x0 special case: AVL 0 grants vl 0.
void h_setvl(ExecContext& c, const DecodedOp& u) {
  const U32 avl = c.x[u.rs1];
  U32 vl = avl < u.lanes ? avl : u.lanes;
  if (u.width2 != 0 && vl > u.width2) vl = u.width2;
  c.vl = vl;
  c.set_x(u.rd, vl);
  c.pc += 4;
}

/// VL-governed vector load: min(vl, lanes) elements, lowest lane first, tail
/// undisturbed. rd is written only after every element load succeeded, so a
/// mid-vector fault leaves it unchanged.
template <int W>
void h_vfl(ExecContext& c, const DecodedOp& u) {
  const int active = c.vl_active(u.lanes);
  const U32 base = c.x[u.rs1] + static_cast<U32>(u.imm);
  U64 out = c.f[u.rd];
  for (int l = 0; l < active; ++l) {
    const U64 v = W == 16 ? c.mem->load16(base + 2 * l)
                          : c.mem->load8(base + static_cast<U32>(l));
    out = set_lane(out, l, W, v);
  }
  c.f[u.rd] = out & c.flen_mask;
  c.pc += 4;
}

/// VL-governed vector store, element-ordered (a fault leaves the lower
/// elements written, like any partially-completed store sequence).
template <int W>
void h_vfs(ExecContext& c, const DecodedOp& u) {
  const int active = c.vl_active(u.lanes);
  const U32 base = c.x[u.rs1] + static_cast<U32>(u.imm);
  const U64 v = c.f[u.rs2];
  for (int l = 0; l < active; ++l) {
    if constexpr (W == 16) {
      c.mem->store16(base + 2 * l,
                     static_cast<std::uint16_t>(get_lane(v, l, 16)));
    } else {
      c.mem->store8(base + static_cast<U32>(l),
                    static_cast<std::uint8_t>(get_lane(v, l, 8)));
    }
  }
  c.pc += 4;
}

// ---- fault handlers ---------------------------------------------------------

void h_unsupported(ExecContext& c, const DecodedOp& u) {
  throw SimError(std::string("unsupported instruction: ") +
                     std::string(isa::mnemonic(u.op)),
                 c.pc);
}

void h_unhandled(ExecContext& c, const DecodedOp&) {
  throw SimError("unhandled op in micro-op decoder", c.pc);
}

// ---- binding ----------------------------------------------------------------

// Case label helpers covering a scalar op family's four IEEE formats plus
// the two posit widths, and a vector op family's three packed IEEE formats
// plus the two posit widths (as in the reference interpreter). The posit
// rows bind the same handlers: rt_ops/rt_vec_ops dispatch on u.fmt.
#define SFRV_CASE4(NAME) \
  case Op::NAME##_S:     \
  case Op::NAME##_AH:    \
  case Op::NAME##_H:     \
  case Op::NAME##_B:     \
  case Op::NAME##_P8:    \
  case Op::NAME##_P16:

#define SFRV_VCASE3(NAME) \
  case Op::NAME##_H:      \
  case Op::NAME##_AH:     \
  case Op::NAME##_B:      \
  case Op::NAME##_P8:     \
  case Op::NAME##_P16:

void bind_handler(DecodedOp& u, const isa::IsaConfig& cfg,
                  fp::MathBackend backend) {
  const isa::OpFmt of = isa::op_format(u.op);
  if (of != isa::OpFmt::None) {
    u.fmt = isa::to_fp_format(of);
    u.width = static_cast<std::uint8_t>(fp::format_width(u.fmt));
    if (isa::is_vector(u.op)) {
      u.lanes = static_cast<std::uint8_t>(isa::vector_lanes(u.fmt, cfg.flen));
    }
  }
  const fp::RtOps& so = fp::rt_ops(u.fmt, backend);
  const fp::RtVecOps& vo = fp::rt_vec_ops(u.fmt, backend);
  const fp::RtOps& s32 = fp::rt_ops(FpFormat::F32, backend);

  // Binds an FP<->FP converter and the source/destination widths.
  auto cvt = [&u, backend](FpFormat to, FpFormat from) {
    u.fn = &h_fp_cvt;
    u.width = static_cast<std::uint8_t>(fp::format_width(to));
    u.width2 = static_cast<std::uint8_t>(fp::format_width(from));
    u.fp1.cvt = fp::rt_convert_fn(to, from, backend);
  };

  switch (u.op) {
    case Op::LUI: u.fn = &h_lui; break;
    case Op::AUIPC: u.fn = &h_auipc; break;
    case Op::JAL: u.fn = &h_jal; break;
    case Op::JALR: u.fn = &h_jalr; break;
    case Op::BEQ: u.fn = &h_branch<Op::BEQ>; break;
    case Op::BNE: u.fn = &h_branch<Op::BNE>; break;
    case Op::BLT: u.fn = &h_branch<Op::BLT>; break;
    case Op::BGE: u.fn = &h_branch<Op::BGE>; break;
    case Op::BLTU: u.fn = &h_branch<Op::BLTU>; break;
    case Op::BGEU: u.fn = &h_branch<Op::BGEU>; break;
    case Op::LB: u.fn = &h_lb; break;
    case Op::LH: u.fn = &h_lh; break;
    case Op::LW: u.fn = &h_lw; break;
    case Op::LBU: u.fn = &h_lbu; break;
    case Op::LHU: u.fn = &h_lhu; break;
    case Op::SB: u.fn = &h_sb; break;
    case Op::SH: u.fn = &h_sh; break;
    case Op::SW: u.fn = &h_sw; break;
    case Op::ADDI: u.fn = &h_addi; break;
    case Op::SLTI: u.fn = &h_slti; break;
    case Op::SLTIU: u.fn = &h_sltiu; break;
    case Op::XORI: u.fn = &h_xori; break;
    case Op::ORI: u.fn = &h_ori; break;
    case Op::ANDI: u.fn = &h_andi; break;
    case Op::SLLI: u.fn = &h_slli; break;
    case Op::SRLI: u.fn = &h_srli; break;
    case Op::SRAI: u.fn = &h_srai; break;
    case Op::ADD: u.fn = &h_add; break;
    case Op::SUB: u.fn = &h_sub; break;
    case Op::SLL: u.fn = &h_sll; break;
    case Op::SLT: u.fn = &h_slt; break;
    case Op::SLTU: u.fn = &h_sltu; break;
    case Op::XOR: u.fn = &h_xorr; break;
    case Op::SRL: u.fn = &h_srl; break;
    case Op::SRA: u.fn = &h_sra; break;
    case Op::OR: u.fn = &h_orr; break;
    case Op::AND: u.fn = &h_andr; break;
    case Op::MUL: u.fn = &h_mul; break;
    case Op::MULH: u.fn = &h_mulh; break;
    case Op::MULHSU: u.fn = &h_mulhsu; break;
    case Op::MULHU: u.fn = &h_mulhu; break;
    case Op::DIV: u.fn = &h_div; break;
    case Op::DIVU: u.fn = &h_divu; break;
    case Op::REM: u.fn = &h_rem; break;
    case Op::REMU: u.fn = &h_remu; break;
    case Op::FENCE: u.fn = &h_fence; break;
    case Op::ECALL:
    case Op::EBREAK: u.fn = &h_halt; break;
    case Op::CSRRW: u.fn = &h_csr<CsrKind::Rw, false>; break;
    case Op::CSRRS: u.fn = &h_csr<CsrKind::Rs, false>; break;
    case Op::CSRRC: u.fn = &h_csr<CsrKind::Rc, false>; break;
    case Op::CSRRWI: u.fn = &h_csr<CsrKind::Rw, true>; break;
    case Op::CSRRSI: u.fn = &h_csr<CsrKind::Rs, true>; break;
    case Op::CSRRCI: u.fn = &h_csr<CsrKind::Rc, true>; break;
    case Op::FLW: u.fn = &h_flw; break;
    case Op::FLH: u.fn = &h_flh; break;
    case Op::FLB: u.fn = &h_flb; break;
    case Op::FSW: u.fn = &h_fsw; break;
    case Op::FSH: u.fn = &h_fsh; break;
    case Op::FSB: u.fn = &h_fsb; break;

    case Op::SETVL:
      u.fn = &h_setvl;
      u.lanes = static_cast<std::uint8_t>(
          (cfg.flen / 8) >> (static_cast<U32>(u.imm) & 7u));  // VLMAX
      u.width2 =
          static_cast<std::uint8_t>((static_cast<U32>(u.imm) >> 3) & 63u);
      break;
    case Op::VFLH:
      u.fn = &h_vfl<16>;
      u.width = 16;
      u.lanes = static_cast<std::uint8_t>(cfg.flen / 16);
      break;
    case Op::VFLB:
      u.fn = &h_vfl<8>;
      u.width = 8;
      u.lanes = static_cast<std::uint8_t>(cfg.flen / 8);
      break;
    case Op::VFSH:
      u.fn = &h_vfs<16>;
      u.width = 16;
      u.lanes = static_cast<std::uint8_t>(cfg.flen / 16);
      break;
    case Op::VFSB:
      u.fn = &h_vfs<8>;
      u.width = 8;
      u.lanes = static_cast<std::uint8_t>(cfg.flen / 8);
      break;

    SFRV_CASE4(FADD) u.fn = &h_fp_bin; u.fp1.bin = so.add; break;
    SFRV_CASE4(FSUB) u.fn = &h_fp_bin; u.fp1.bin = so.sub; break;
    SFRV_CASE4(FMUL) u.fn = &h_fp_bin; u.fp1.bin = so.mul; break;
    SFRV_CASE4(FDIV) u.fn = &h_fp_bin; u.fp1.bin = so.div; break;
    SFRV_CASE4(FMIN) u.fn = &h_fp_bin; u.fp1.bin = so.min; break;
    SFRV_CASE4(FMAX) u.fn = &h_fp_bin; u.fp1.bin = so.max; break;
    SFRV_CASE4(FSGNJ) u.fn = &h_fp_bin; u.fp1.bin = so.sgnj; break;
    SFRV_CASE4(FSGNJN) u.fn = &h_fp_bin; u.fp1.bin = so.sgnjn; break;
    SFRV_CASE4(FSGNJX) u.fn = &h_fp_bin; u.fp1.bin = so.sgnjx; break;
    SFRV_CASE4(FSQRT) u.fn = &h_fp_sqrt; u.fp1.un = so.sqrt; break;
    SFRV_CASE4(FEQ) u.fn = &h_fp_cmp; u.fp1.cmp = so.feq; break;
    SFRV_CASE4(FLT) u.fn = &h_fp_cmp; u.fp1.cmp = so.flt; break;
    SFRV_CASE4(FLE) u.fn = &h_fp_cmp; u.fp1.cmp = so.fle; break;
    SFRV_CASE4(FCLASS) u.fn = &h_fp_class; u.fp1.cls = so.classify; break;
    SFRV_CASE4(FCVT_W) u.fn = &h_fp_cvt_w; u.fp1.to_i32 = so.to_int32; break;
    SFRV_CASE4(FCVT_WU)
    u.fn = &h_fp_cvt_wu;
    u.fp1.to_u32 = so.to_uint32;
    break;
    SFRV_CASE4(FMV_X) u.fn = &h_fmv_x; break;

    case Op::FCVT_S_W:
    case Op::FCVT_AH_W:
    case Op::FCVT_H_W:
    case Op::FCVT_B_W:
    case Op::FCVT_P8_W:
    case Op::FCVT_P16_W:
      u.fn = &h_fp_cvt_from_w;
      u.fp1.from_i32 = so.from_int32;
      break;
    case Op::FCVT_S_WU:
    case Op::FCVT_AH_WU:
    case Op::FCVT_H_WU:
    case Op::FCVT_B_WU:
    case Op::FCVT_P8_WU:
    case Op::FCVT_P16_WU:
      u.fn = &h_fp_cvt_from_wu;
      u.fp1.from_u32 = so.from_uint32;
      break;
    case Op::FMV_S_X:
    case Op::FMV_AH_X:
    case Op::FMV_H_X:
    case Op::FMV_B_X:
    case Op::FMV_P8_X:
    case Op::FMV_P16_X:
      u.fn = &h_fmv_f;
      break;

    SFRV_CASE4(FMADD)
    u.fn = &h_fp_fma<false, false>;
    u.fp1.tern = so.fma;
    u.fp2.bin = so.sgnjn;
    break;
    SFRV_CASE4(FMSUB)
    u.fn = &h_fp_fma<false, true>;
    u.fp1.tern = so.fma;
    u.fp2.bin = so.sgnjn;
    break;
    SFRV_CASE4(FNMSUB)
    u.fn = &h_fp_fma<true, false>;
    u.fp1.tern = so.fma;
    u.fp2.bin = so.sgnjn;
    break;
    SFRV_CASE4(FNMADD)
    u.fn = &h_fp_fma<true, true>;
    u.fp1.tern = so.fma;
    u.fp2.bin = so.sgnjn;
    break;

    case Op::FMULEX_S_AH:
    case Op::FMULEX_S_H:
    case Op::FMULEX_S_B:
      u.fn = &h_fmulex;
      u.width2 = u.width;
      u.width = 32;
      u.fp1.bin = s32.mul;
      u.fp2.cvt = fp::rt_convert_fn(FpFormat::F32, u.fmt, backend);
      break;
    case Op::FMACEX_S_AH:
    case Op::FMACEX_S_H:
    case Op::FMACEX_S_B:
      u.fn = &h_fmacex;
      u.width2 = u.width;
      u.width = 32;
      u.fp1.tern = s32.fma;
      u.fp2.cvt = fp::rt_convert_fn(FpFormat::F32, u.fmt, backend);
      break;

    case Op::FCVT_S_AH: cvt(FpFormat::F32, FpFormat::F16Alt); break;
    case Op::FCVT_S_H: cvt(FpFormat::F32, FpFormat::F16); break;
    case Op::FCVT_S_B: cvt(FpFormat::F32, FpFormat::F8); break;
    case Op::FCVT_AH_S: cvt(FpFormat::F16Alt, FpFormat::F32); break;
    case Op::FCVT_AH_H: cvt(FpFormat::F16Alt, FpFormat::F16); break;
    case Op::FCVT_AH_B: cvt(FpFormat::F16Alt, FpFormat::F8); break;
    case Op::FCVT_H_S: cvt(FpFormat::F16, FpFormat::F32); break;
    case Op::FCVT_H_AH: cvt(FpFormat::F16, FpFormat::F16Alt); break;
    case Op::FCVT_H_B: cvt(FpFormat::F16, FpFormat::F8); break;
    case Op::FCVT_B_S: cvt(FpFormat::F8, FpFormat::F32); break;
    case Op::FCVT_B_AH: cvt(FpFormat::F8, FpFormat::F16Alt); break;
    case Op::FCVT_B_H: cvt(FpFormat::F8, FpFormat::F16); break;

    case Op::FCVT_S_P8: cvt(FpFormat::F32, FpFormat::P8); break;
    case Op::FCVT_S_P16: cvt(FpFormat::F32, FpFormat::P16); break;
    case Op::FCVT_AH_P8: cvt(FpFormat::F16Alt, FpFormat::P8); break;
    case Op::FCVT_AH_P16: cvt(FpFormat::F16Alt, FpFormat::P16); break;
    case Op::FCVT_H_P8: cvt(FpFormat::F16, FpFormat::P8); break;
    case Op::FCVT_H_P16: cvt(FpFormat::F16, FpFormat::P16); break;
    case Op::FCVT_B_P8: cvt(FpFormat::F8, FpFormat::P8); break;
    case Op::FCVT_B_P16: cvt(FpFormat::F8, FpFormat::P16); break;
    case Op::FCVT_P8_S: cvt(FpFormat::P8, FpFormat::F32); break;
    case Op::FCVT_P8_AH: cvt(FpFormat::P8, FpFormat::F16Alt); break;
    case Op::FCVT_P8_H: cvt(FpFormat::P8, FpFormat::F16); break;
    case Op::FCVT_P8_B: cvt(FpFormat::P8, FpFormat::F8); break;
    case Op::FCVT_P8_P16: cvt(FpFormat::P8, FpFormat::P16); break;
    case Op::FCVT_P16_S: cvt(FpFormat::P16, FpFormat::F32); break;
    case Op::FCVT_P16_AH: cvt(FpFormat::P16, FpFormat::F16Alt); break;
    case Op::FCVT_P16_H: cvt(FpFormat::P16, FpFormat::F16); break;
    case Op::FCVT_P16_B: cvt(FpFormat::P16, FpFormat::F8); break;
    case Op::FCVT_P16_P8: cvt(FpFormat::P16, FpFormat::P8); break;

    SFRV_VCASE3(VFADD) u.fn = &h_vec_bin; u.fp1.vbin = vo.add; break;
    SFRV_VCASE3(VFSUB) u.fn = &h_vec_bin; u.fp1.vbin = vo.sub; break;
    SFRV_VCASE3(VFMUL) u.fn = &h_vec_bin; u.fp1.vbin = vo.mul; break;
    SFRV_VCASE3(VFDIV) u.fn = &h_vec_bin; u.fp1.vbin = vo.div; break;
    SFRV_VCASE3(VFMIN) u.fn = &h_vec_bin; u.fp1.vbin = vo.min; break;
    SFRV_VCASE3(VFMAX) u.fn = &h_vec_bin; u.fp1.vbin = vo.max; break;
    SFRV_VCASE3(VFSGNJ) u.fn = &h_vec_bin; u.fp1.vbin = vo.sgnj; break;
    SFRV_VCASE3(VFSGNJN) u.fn = &h_vec_bin; u.fp1.vbin = vo.sgnjn; break;
    SFRV_VCASE3(VFSGNJX) u.fn = &h_vec_bin; u.fp1.vbin = vo.sgnjx; break;
    SFRV_VCASE3(VFMAC) u.fn = &h_vec_mac; u.fp1.vtern = vo.mac; break;
    SFRV_VCASE3(VFADD_R)
    u.fn = &h_vec_bin;
    u.fp1.vbin = vo.add;
    u.replicate = true;
    break;
    SFRV_VCASE3(VFSUB_R)
    u.fn = &h_vec_bin;
    u.fp1.vbin = vo.sub;
    u.replicate = true;
    break;
    SFRV_VCASE3(VFMUL_R)
    u.fn = &h_vec_bin;
    u.fp1.vbin = vo.mul;
    u.replicate = true;
    break;
    SFRV_VCASE3(VFDIV_R)
    u.fn = &h_vec_bin;
    u.fp1.vbin = vo.div;
    u.replicate = true;
    break;
    SFRV_VCASE3(VFMIN_R)
    u.fn = &h_vec_bin;
    u.fp1.vbin = vo.min;
    u.replicate = true;
    break;
    SFRV_VCASE3(VFMAX_R)
    u.fn = &h_vec_bin;
    u.fp1.vbin = vo.max;
    u.replicate = true;
    break;
    SFRV_VCASE3(VFMAC_R)
    u.fn = &h_vec_mac;
    u.fp1.vtern = vo.mac;
    u.replicate = true;
    break;

    SFRV_VCASE3(VFEQ) u.fn = &h_vec_cmp; u.fp1.vcmp = vo.feq; break;
    SFRV_VCASE3(VFLT) u.fn = &h_vec_cmp; u.fp1.vcmp = vo.flt; break;
    SFRV_VCASE3(VFLE) u.fn = &h_vec_cmp; u.fp1.vcmp = vo.fle; break;

    SFRV_VCASE3(VFSQRT) u.fn = &h_vec_un; u.fp1.vun = vo.sqrt; break;
    SFRV_VCASE3(VFCVT_X) u.fn = &h_vec_un; u.fp1.vun = vo.to_int; break;
    case Op::VFCVT_H_X:
    case Op::VFCVT_AH_X:
    case Op::VFCVT_B_X:
    case Op::VFCVT_P8_X:
    case Op::VFCVT_P16_X:
      u.fn = &h_vec_un;
      u.fp1.vun = vo.from_int;
      break;

    case Op::VFCVT_H_AH:
      u.fn = &h_vec_cvt;
      u.fp1.cvt = fp::rt_convert_fn(FpFormat::F16, FpFormat::F16Alt, backend);
      break;
    case Op::VFCVT_AH_H:
      u.fn = &h_vec_cvt;
      u.fp1.cvt = fp::rt_convert_fn(FpFormat::F16Alt, FpFormat::F16, backend);
      break;

    case Op::VFCPKA_H_S:
    case Op::VFCPKA_AH_S:
    case Op::VFCPKA_B_S:
    case Op::VFCPKA_P8_S:
    case Op::VFCPKA_P16_S:
      u.fn = &h_vec_cpk;
      u.imm = 0;
      u.fp1.cvt = fp::rt_convert_fn(u.fmt, FpFormat::F32, backend);
      break;
    case Op::VFCPKB_B_S:
      u.fn = &h_vec_cpk;
      u.imm = 2;
      u.fp1.cvt = fp::rt_convert_fn(u.fmt, FpFormat::F32, backend);
      break;

    SFRV_VCASE3(VFDOTPEX_S) u.fn = &h_vec_dotp; u.fp1.vdotp = vo.dotp; break;
    SFRV_VCASE3(VFDOTPEX_S_R)
    u.fn = &h_vec_dotp;
    u.fp1.vdotp = vo.dotp;
    u.replicate = true;
    break;

    case Op::VFEXSDOTP_H_B:
    case Op::VFEXSDOTP_S_H:
    case Op::VFEXSDOTP_S_AH:
    case Op::VFEXSDOTP_P16_P8:
      u.fn = &h_vec_exsdotp;
      u.fp1.vdotp = vo.exsdotp;
      break;
    case Op::VFEXSDOTP_R_H_B:
    case Op::VFEXSDOTP_R_S_H:
    case Op::VFEXSDOTP_R_S_AH:
    case Op::VFEXSDOTP_R_P16_P8:
      u.fn = &h_vec_exsdotp;
      u.fp1.vdotp = vo.exsdotp;
      u.replicate = true;
      break;

    default:
      u.fn = &h_unhandled;
      break;
  }
}

#undef SFRV_CASE4
#undef SFRV_VCASE3

}  // namespace

DecodedOp decode_op(const Inst& inst, const isa::IsaConfig& cfg,
                    const Timing& timing, fp::MathBackend backend) {
  DecodedOp u;
  u.rd = inst.rd;
  u.rs1 = inst.rs1;
  u.rs2 = inst.rs2;
  u.rs3 = inst.rs3;
  u.rm = inst.rm;
  u.imm = inst.imm;
  u.op = inst.op;
  u.base_cycles = static_cast<std::uint16_t>(timing.base_cycles(inst.op));
  switch (isa::op_class(inst.op)) {
    case Cls::Load:
    case Cls::FpLoad: u.tclass = TimingClass::Load; break;
    case Cls::Store:
    case Cls::FpStore: u.tclass = TimingClass::Store; break;
    case Cls::Jump: u.tclass = TimingClass::Jump; break;
    case Cls::Branch: u.tclass = TimingClass::Branch; break;
    default: u.tclass = TimingClass::None; break;
  }
  if (!cfg.supports(inst.op)) {
    u.fn = &h_unsupported;
    u.supported = false;
    return u;
  }
  bind_handler(u, cfg, backend);
  // Handler-shape tag for the JIT translator, derived from the bound
  // handler so the big switch above stays single-purpose.
  if (u.fn == &h_fp_bin) {
    u.hkind = HandlerKind::FpBin;
  } else if (u.fn == &h_vec_bin) {
    u.hkind = HandlerKind::VecBin;
  } else if (u.fn == &h_vec_mac) {
    u.hkind = HandlerKind::VecMac;
  } else if (u.fn == &h_vec_dotp) {
    u.hkind = HandlerKind::VecDotp;
  } else if (u.fn == &h_vec_exsdotp) {
    u.hkind = HandlerKind::VecExsdotp;
  }
  return u;
}

std::uint16_t fixed_cycles(const DecodedOp& u, const Timing& timing,
                           const MemConfig& mem) {
  int cyc = u.base_cycles;
  switch (u.tclass) {
    case TimingClass::Load: cyc += mem.load_latency - 1; break;
    case TimingClass::Store: cyc += mem.store_latency - 1; break;
    case TimingClass::Jump: cyc += timing.jump_penalty; break;
    default: break;
  }
  return static_cast<std::uint16_t>(cyc);
}

std::vector<DecodedOp> decode_program(const std::vector<Inst>& text,
                                      const isa::IsaConfig& cfg,
                                      const Timing& timing,
                                      fp::MathBackend backend) {
  std::vector<DecodedOp> uops;
  uops.reserve(text.size());
  for (const Inst& i : text) uops.push_back(decode_op(i, cfg, timing, backend));
  return uops;
}

}  // namespace sfrv::sim
