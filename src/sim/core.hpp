// RV32IMF + smallFloat functional simulator with a RISCY-like timing model.
//
// Substitution note (DESIGN.md section 2): this core stands in for the PULP
// virtual platform. It executes the same instruction stream a RISCY + FPnew
// core would, produces bit-accurate FP results through the soft-float
// library, and accounts cycles with the in-order single-issue model of
// timing.hpp. FP registers are FLEN bits wide; packed-SIMD lanes follow
// paper Table II.
//
// Scalar sub-FLEN results are written NaN-boxed (upper bits all ones, the
// RISC-V convention); reads take the low bits without a box check because the
// vectorial extension legitimately leaves packed data in the registers (the
// same relaxation the PULP FPU makes when Xfvec is enabled).
//
// Three execution engines share the architectural state (ExecContext):
//  * Engine::Predecoded (default): load_program lowers the text into
//    micro-ops (sim/decode.hpp) carrying a resolved handler pointer, lane
//    plan, pre-bound softfloat entry points, and timing class; step() is a
//    single indirect call plus a 5-way timing adjustment.
//  * Engine::Jit: threaded-code trace compilation (sim/jit.hpp) — hot
//    straight-line runs are translated into specialized trace slots with
//    constants, timing, and fast-math entries folded in at translation
//    time; cold blocks step through the predecoded micro-ops up to their
//    terminator until they cross the hotness threshold. Bit- and
//    cycle-identical to Predecoded; step() on a Jit core executes one
//    plain predecoded micro-op, and tracing falls back to per-step
//    execution so traces stay equal.
//  * Engine::Reference: the original switch-tree interpreter, retained both
//    as the oracle for the differential suite and as the baseline the
//    dispatch bench measures against.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>

#include "asmb/program.hpp"
#include "isa/isa.hpp"
#include "sim/decode.hpp"
#include "sim/exec.hpp"
#include "sim/jit.hpp"
#include "sim/memory.hpp"
#include "sim/stats.hpp"
#include "sim/timing.hpp"

namespace sfrv::sim {

/// Execution engine selection (see Core's header comment).
enum class Engine : std::uint8_t {
  Predecoded = 0,
  Reference = 1,
  Jit = 3,
  /// Source-compatibility alias for the removed superblock engine. Its one
  /// user is perfbench/src/serve_mixed.cpp, which the benchmark program
  /// compiles into the same binary as its other workloads; drop the alias
  /// once that file stops naming it. No engine name parses to it, and it
  /// runs as Jit.
  Fused = Jit,
};

/// Stable lowercase engine names ("predecoded", "reference", "jit") used by
/// the CLI, the eval report JSON, and the SFRV_ENGINE variable.
[[nodiscard]] std::string_view engine_name(Engine e);
/// Parse an engine name; throws std::runtime_error on an unknown one.
[[nodiscard]] Engine engine_from_name(std::string_view name);
/// Resolve an SFRV_ENGINE-style environment value: null/empty selects
/// Predecoded, an invalid value warns on stderr and falls back to Predecoded
/// (never throws). Exposed separately from default_engine() so the
/// invalid-value contract is directly testable (fp::backend_from_env is the
/// SFRV_BACKEND counterpart).
[[nodiscard]] Engine engine_from_env(const char* value);
/// Process-wide default engine: the SFRV_ENGINE environment variable
/// (reference|predecoded|jit, read once) or Engine::Predecoded. Lets CI
/// run the whole test suite and campaigns under each engine. An invalid
/// value falls back to Predecoded with a stderr warning — never throws
/// (it runs inside static initialization via default arguments).
[[nodiscard]] Engine default_engine();

namespace detail {
/// The memberwise-copyable state of a Core, split into a base so Core's
/// copy/move operations can delegate the member list to the compiler and
/// only fix up the context's environment pointers afterwards.
struct CoreState {
  isa::IsaConfig cfg_;
  Memory mem_;
  Timing timing_;
  Stats stats_;
  ExecContext ctx_;
  Engine engine_ = Engine::Predecoded;
  fp::MathBackend backend_ = fp::default_backend();

  std::uint32_t text_base_ = 0;
  std::vector<isa::Inst> decoded_;   // predecoded text (no self-modifying code)
  std::vector<DecodedOp> uops_;      // micro-op cache (same indexing)
  jit::JitProgram jit_;              // translation cache (Engine::Jit)

  std::ostream* trace_ = nullptr;
};
}  // namespace detail

class Core : private detail::CoreState {
 public:
  explicit Core(isa::IsaConfig cfg = isa::IsaConfig::full(),
                MemConfig mem_cfg = {}, Timing timing = {});

  // Copies/moves re-point the context's environment pointers at this
  // instance's Memory/Stats (the context otherwise keeps aiming at the
  // source Core's members).
  Core(const Core& other) : detail::CoreState(other) { rebind_context(); }
  Core(Core&& other) noexcept : detail::CoreState(std::move(other)) {
    rebind_context();
  }
  Core& operator=(const Core& other) {
    if (this != &other) {
      detail::CoreState::operator=(other);
      rebind_context();
    }
    return *this;
  }
  Core& operator=(Core&& other) noexcept {
    if (this != &other) {
      detail::CoreState::operator=(std::move(other));
      rebind_context();
    }
    return *this;
  }
  ~Core() = default;

  using Engine = sim::Engine;
  /// Select the execution engine.
  void set_engine(Engine e) { engine_ = e; }
  [[nodiscard]] Engine engine() const { return engine_; }

  /// Select the softfloat math backend (fp::MathBackend). The predecoded and
  /// jit engines bind their micro-op entry points from the selected table
  /// family, so switching after load_program re-lowers the text (and drops
  /// every compiled trace). The reference interpreter is the frozen
  /// pre-refactor oracle and always computes through the Grs routines; the
  /// backends are bit- and fflags-identical, so architectural results never
  /// depend on this choice (the conformance suites enforce it).
  void set_backend(fp::MathBackend b);
  [[nodiscard]] fp::MathBackend backend() const { return backend_; }

  /// Copy a program image into memory, point the PC at its entry, set up the
  /// stack pointer, and predecode the text into the micro-op cache.
  void load_program(const asmb::Program& prog);

  enum class RunResult { Halted, MaxStepsReached };

  /// Execute until ebreak/ecall or the step limit.
  RunResult run(std::uint64_t max_steps = 400'000'000);

  /// Execute a single instruction.
  void step();

  [[nodiscard]] bool halted() const { return ctx_.halted; }
  [[nodiscard]] std::uint32_t exit_code() const { return ctx_.x[10]; }

  // ---- architectural state (owned by the ExecContext) ----
  [[nodiscard]] std::uint32_t pc() const { return ctx_.pc; }
  void set_pc(std::uint32_t pc) { ctx_.pc = pc; }
  [[nodiscard]] std::uint32_t x(unsigned i) const { return ctx_.x[i & 31]; }
  void set_x(unsigned i, std::uint32_t v) { ctx_.set_x(i, v); }
  /// Raw FP register bits (low `flen` bits are valid).
  [[nodiscard]] std::uint64_t f_bits(unsigned i) const {
    return ctx_.f[i & 31];
  }
  void set_f_bits(unsigned i, std::uint64_t v) {
    ctx_.f[i & 31] = v & ctx_.flen_mask;
  }
  [[nodiscard]] std::uint8_t fflags() const { return ctx_.fflags; }
  void set_fflags(std::uint8_t v) { ctx_.fflags = v & 0x1f; }
  [[nodiscard]] fp::RoundingMode frm() const { return ctx_.frm_mode(); }
  void set_frm(fp::RoundingMode rm) {
    ctx_.frm = static_cast<std::uint8_t>(rm);
  }

  [[nodiscard]] Memory& memory() { return mem_; }
  [[nodiscard]] const Memory& memory() const { return mem_; }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  void clear_stats() { stats_.clear(); }
  [[nodiscard]] const isa::IsaConfig& config() const { return cfg_; }
  [[nodiscard]] const Timing& timing() const { return timing_; }

  /// Direct access to the execution context (for piecewise engine tests).
  [[nodiscard]] ExecContext& context() { return ctx_; }
  /// The predecoded micro-op cache (index = (pc - text_base) / 4).
  [[nodiscard]] const std::vector<DecodedOp>& uops() const { return uops_; }

  // ---- Engine::Jit knobs and telemetry (sim/jit.hpp) ----
  /// Hotness threshold: a block interprets until it has been entered more
  /// than `t` times, then compiles (0 compiles on first entry). Wall-clock
  /// only; simulated results never depend on it.
  void set_jit_threshold(std::uint32_t t) { jit_.set_threshold(t); }
  [[nodiscard]] std::uint32_t jit_threshold() const {
    return jit_.threshold();
  }
  /// Translation-cache capacity in traces (flush-all eviction when full).
  void set_jit_cache_cap(std::uint32_t cap) { jit_.set_cache_cap(cap); }
  /// Compiled traces currently cached.
  [[nodiscard]] std::size_t jit_cache_size() const { return jit_.size(); }
  [[nodiscard]] const jit::JitStats& jit_stats() const {
    return jit_.stats();
  }

  /// Stream instruction-level trace output (nullptr disables).
  void set_trace(std::ostream* os) { trace_ = os; }

 private:
  void rebind_context() {
    ctx_.mem = &mem_;
    ctx_.mem_base = mem_.data();
    ctx_.mem_size = mem_.size();
    ctx_.stats = &stats_;
  }

  /// pc -> micro-op index with the fetch checks of step(); throws SimError.
  [[nodiscard]] std::uint32_t fetch_index(std::uint32_t pc) const;
  /// One micro-op through the predecoded path (trace, execute, account).
  void step_predecoded(std::uint32_t idx);
  /// Post-execution bookkeeping for one retired micro-op: dynamic-outcome
  /// timing, cycle/instret counters, per-op and per-pc attribution. Shared
  /// by the predecoded engine and the jit's cold path (the identity
  /// contract).
  void account(const DecodedOp& u, std::uint32_t idx);

  // Trace-compilation engine (Engine::Jit, see sim/jit.hpp).
  RunResult run_jit(std::uint64_t max_steps);
  /// Execute one compiled trace (full when budget covers it, bounded
  /// otherwise). Returns retired instructions.
  std::uint64_t exec_trace(jit::Trace& t, std::uint64_t budget);
  /// Step the cold block at text index `idx` through the predecoded
  /// micro-ops until a block-ending op (branch, jump, system, unsupported)
  /// retires or `budget` (>= 1) instructions have. Returns retired
  /// instructions.
  std::uint64_t run_cold_block(std::uint32_t idx, std::uint64_t budget);

  // Reference interpreter (the retained pre-refactor execute path).
  void step_reference(std::uint32_t idx);
  void execute(const isa::Inst& i);
  void exec_int(const isa::Inst& i);
  void exec_fp_scalar(const isa::Inst& i);
  void exec_fp_vector(const isa::Inst& i);
  void exec_csr(const isa::Inst& i);
  [[nodiscard]] std::uint32_t csr_read(std::int32_t addr) const;
  void csr_write(std::int32_t addr, std::uint32_t v);

  [[nodiscard]] std::uint64_t mask_flen(std::uint64_t v) const {
    return v & ctx_.flen_mask;
  }
  [[nodiscard]] std::uint64_t read_fp(unsigned reg, int width) const {
    return ctx_.read_fp(reg, width);
  }
  void write_fp(unsigned reg, int width, std::uint64_t bits) {
    ctx_.write_fp(reg, width, bits);
  }
  [[nodiscard]] fp::RoundingMode resolve_rm(std::uint8_t rm_field) const {
    return ctx_.resolve_rm(rm_field);
  }
};

}  // namespace sfrv::sim
