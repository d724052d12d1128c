// Shared verification primitives: the SFRV_VERIFY runtime switch, the
// diagnostic record every checker emits, and the exception that carries a
// batch of diagnostics attributed to the pipeline pass that introduced them.
//
// The checkers themselves live next to the structures they validate —
// ir/verify.{hpp,cpp} for the lowered Inst stream, sim/verify.{hpp,cpp} for
// compiled JIT traces — and this header is
// the only thing the two layers share, so neither grows a dependency on the
// other. See docs/verification.md for the invariant catalogue.
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sfrv::verify {

/// One invariant violation. `index` is the text index (pc = text_base +
/// 4 * index) of the offending instruction, or -1 when the violation is not
/// anchored to a single instruction (e.g. a malformed inner_ranges list).
/// `pass` is stamped by the thrower (the hook that knows which pipeline
/// stage produced the structure), not by the checker.
struct Diag {
  std::string pass;
  std::int64_t index = -1;
  std::string message;
};

/// Render one diagnostic the way VerifyError::what() prints it.
inline std::string render(const Diag& d) {
  std::string s = "[";
  if (!d.pass.empty()) {
    s += "pass ";
    s += d.pass;
    s += ", ";
  }
  if (d.index >= 0) {
    s += "text index " + std::to_string(d.index);
  } else {
    s += "no text anchor";
  }
  s += "] ";
  s += d.message;
  return s;
}

/// Thrown by the verification hooks when a checker reports violations. The
/// pass name identifies the pipeline stage that *introduced* the violation:
/// lower / unroll / strength-reduction / dead-glue-elim for the IR side,
/// translation for the simulator side.
class VerifyError : public std::runtime_error {
 public:
  VerifyError(std::string pass, std::vector<Diag> diags)
      : std::runtime_error(compose(pass, diags)),
        pass_(std::move(pass)),
        diags_(std::move(diags)) {
    for (Diag& d : diags_) d.pass = pass_;
  }

  [[nodiscard]] const std::string& pass() const { return pass_; }
  [[nodiscard]] const std::vector<Diag>& diags() const { return diags_; }

 private:
  static std::string compose(const std::string& pass,
                             const std::vector<Diag>& diags) {
    std::string s = "verify: invariant violation introduced by pass '" + pass +
                    "' (" + std::to_string(diags.size()) + " diagnostic" +
                    (diags.size() == 1 ? "" : "s") + ")";
    for (const Diag& d : diags) {
      Diag stamped = d;
      stamped.pass = pass;
      s += "\n  " + render(stamped);
    }
    return s;
  }

  std::string pass_;
  std::vector<Diag> diags_;
};

namespace detail {
inline std::atomic<int>& verify_state() {
  static std::atomic<int> state{-1};  // -1 = not yet read from environment
  return state;
}
}  // namespace detail

/// Whether the per-pass verification hooks run. Defaults to the SFRV_VERIFY
/// environment variable (read once); `set_enabled` (the --verify flag,
/// tests) overrides it for the rest of the process. Unrecognized values warn
/// and fall back to off, matching the SFRV_ENGINE/SFRV_BACKEND convention.
inline bool enabled() {
  int v = detail::verify_state().load(std::memory_order_relaxed);
  if (v < 0) {
    int parsed = 0;
    const char* e = std::getenv("SFRV_VERIFY");
    if (e != nullptr && *e != '\0') {
      const std::string_view s(e);
      if (s == "1" || s == "on" || s == "true") {
        parsed = 1;
      } else if (s != "0" && s != "off" && s != "false") {
        std::fprintf(stderr,
                     "sfrv: ignoring invalid SFRV_VERIFY value '%s' "
                     "(expected 0|1|on|off|true|false); verification off\n",
                     e);
      }
    }
    // A concurrent first call parses the same environment: both writes store
    // the same value, so the race is benign.
    detail::verify_state().store(parsed, std::memory_order_relaxed);
    v = parsed;
  }
  return v > 0;
}

inline void set_enabled(bool on) {
  detail::verify_state().store(on ? 1 : 0, std::memory_order_relaxed);
}

}  // namespace sfrv::verify
