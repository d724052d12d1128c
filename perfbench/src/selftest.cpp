// Checker self test: a valid input must pass each checker, and every
// corruption of it (a changed cycle count, a flipped report byte, a wrong
// hit count, ...) must be rejected.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <string>

#include "checks.hpp"
#include "golden.hpp"
#include "kernels/nn.hpp"
#include "kernels/polybench.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using eval::Json;
using eval::JsonArray;
using eval::JsonObject;

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}
void expect_pass(const Errors& e, const std::string& what) {
  expect(e.empty(), what + (e.empty() ? "" : " (" + e.front() + ")"));
}
void expect_reject(const Errors& e, const std::string& what) {
  expect(!e.empty(), what + " is rejected");
}

Json cell(const std::string& bench, const std::string& tc, std::uint64_t cycles,
          double sqnr) {
  return Json(JsonObject{
      {"benchmark", Json(bench)},
      {"type_config", Json(tc)},
      {"data", Json(tc)},
      {"acc", Json(tc)},
      {"mode", Json("manual-vec")},
      {"vl", Json(0)},
      {"cycles", Json(cycles)},
      {"instructions", Json(cycles / 2)},
      {"energy", Json(JsonObject{{"total_pj", Json(10.0)},
                                 {"base_pj", Json(4.0)},
                                 {"leakage_pj", Json(3.0)},
                                 {"unit_pj", Json(2.0)},
                                 {"memory_pj", Json(1.0)}})},
      {"sqnr_db", Json(sqnr)},
  });
}

/// A two-benchmark, three-config manual-vec report with a tuner study.
Json report(const std::function<void(JsonArray& cells, JsonObject& best)>& edit) {
  JsonArray cells = {cell("gemm", "float", 300, 130), cell("gemm", "float16", 200, 55),
                     cell("gemm", "float8", 100, 11), cell("atax", "float", 30, 130),
                     cell("atax", "float16", 20, 55), cell("atax", "float8", 10, 11)};
  JsonObject best = {{"data", Json("float16")}, {"acc", Json("float")},
                     {"qor", Json(1.0)}};
  edit(cells, best);
  return Json(JsonObject{
      {"opt", Json("O0")},
      {"benchmarks", Json(JsonArray{Json("gemm"), Json("atax")})},
      {"type_configs",
       Json(JsonArray{Json("float"), Json("float16"), Json("float8")})},
      {"modes", Json(JsonArray{Json("manual-vec")})},
      {"vls", Json(JsonArray{Json(0)})},
      {"cells", Json(std::move(cells))},
      {"tuner", Json(JsonObject{{"found", Json(true)},
                                {"qor_threshold", Json(1.0)},
                                {"best", Json(std::move(best))}})},
  });
}

/// Replace `key` of a JSON object in place.
void set(Json& obj, const std::string& key, Json value) {
  JsonObject o = obj.object();
  for (auto& [k, v] : o) {
    if (k == key) v = std::move(value);
  }
  obj = Json(std::move(o));
}

void campaign_checks() {
  expect_pass(check_campaign_report(report([](auto&, auto&) {})),
              "campaign: valid report");
  expect_reject(check_campaign_report(report([](JsonArray& c, auto&) {
                  set(c[1], "cycles", Json(std::uint64_t{300}));
                })),
                "campaign: float16 manual-vec cycles changed to equal float");
  expect_reject(check_campaign_report(report([](JsonArray& c, auto&) {
                  set(c[5], "cycles", Json(std::uint64_t{25}));
                })),
                "campaign: float8 manual-vec cycles above float16");
  expect_reject(check_campaign_report(report([](JsonArray& c, auto&) {
                  Json e = c[0].at("energy");
                  set(e, "unit_pj", Json(2.5));
                  set(c[0], "energy", e);
                })),
                "campaign: energy part changed");
  expect_reject(check_campaign_report(report([](JsonArray& c, auto&) {
                  set(c[2], "sqnr_db", Json(2.0));
                })),
                "campaign: float8 SQNR below floor");
  expect_reject(check_campaign_report(report([](auto&, JsonObject& b) {
                  b[0].second = Json("float8");
                })),
                "campaign: tuner picked float8 data");
  expect_reject(check_campaign_report(report([](auto&, JsonObject& b) {
                  b[2].second = Json(0.95);
                })),
                "campaign: tuner pick below full accuracy");
  expect_reject(check_campaign_report(report([](JsonArray& c, auto&) {
                  c.pop_back();
                })),
                "campaign: a cell missing");

  const Json c = cell("gemm", "float16", 200, 55.25);
  expect_pass(check_rerun(c, {200, 100, 55.25}), "rerun: matching cell");
  expect_reject(check_rerun(c, {201, 100, 55.25}), "rerun: cycle count off by one");
  expect_reject(check_rerun(c, {200, 99, 55.25}), "rerun: instruction count off by one");
  expect_reject(check_rerun(c, {200, 100, 55.0}), "rerun: different SQNR");
}

double max_abs_diff(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return 1e300;
  double d = 0;
  for (std::size_t i = 0; i < a.size(); ++i) d = std::max(d, std::fabs(a[i] - b[i]));
  return d;
}

void sim_checks() {
  std::string bytes = "\x01\x02\x03\x04";
  const SimOutcome good{1000, 800, 1, fnv1a(bytes)};
  expect_pass(check_same_outcome("sim", good, good), "sim: identical outcome");
  SimOutcome bad = good;
  ++bad.cycles;
  expect_reject(check_same_outcome("sim", good, bad), "sim: cycle count off by one");
  bad = good;
  bad.fflags = 0;
  expect_reject(check_same_outcome("sim", good, bad), "sim: different fflags");
  bad = good;
  bytes[2] ^= 0x40;
  bad.output_hash = fnv1a(bytes);
  expect_reject(check_same_outcome("sim", good, bad), "sim: flipped output byte");
  expect_pass(check_sqnr_floor("sim", 40.0, 35.0), "sim: SQNR above floor");
  expect_reject(check_sqnr_floor("sim", 30.0, 35.0), "sim: SQNR below floor");

  // The benchmark's own reference outputs agree with the kernel builders'
  // golden outputs, and move when an input is corrupted.
  using kernels::TypeConfig;
  const auto f32 = TypeConfig::uniform(ir::ScalarType::F32);
  const std::vector<std::function<kernels::KernelSpec()>> makers = {
      [&] { return kernels::make_gemm(f32, 6, 5, 4); },
      [&] { return kernels::make_atax(f32, 6, 7); },
      [&] { return kernels::make_syr2k(f32, 6, 5); },
      [&] { return kernels::make_fdtd2d(f32, 3, 6, 7); },
      [&] { return kernels::make_conv2d(f32, 5, 6, 3); },
      [&] { return kernels::make_fully_connected(f32, 5, 9); }};
  for (const auto& make : makers) {
    kernels::KernelSpec s = make();
    std::vector<double> golden;
    for (const auto& g : s.golden) golden.insert(golden.end(), g.begin(), g.end());
    expect(max_abs_diff(golden, reference_outputs(s)) < 1e-12,
           "reference outputs: " + s.kernel.name + " matches the kernel definition");
    s.init[0][1] += 0.5;
    expect(max_abs_diff(golden, reference_outputs(s)) > 1e-3,
           "reference outputs: " + s.kernel.name + " follows a changed input");
  }
}

void serve_checks() {
  const std::string json = "{\"cells\": [1, 2, 3]}\n";
  const std::string md = "| a | b |\n";
  const ExpectedReply exp{28, fnv1a(json), fnv1a(md)};
  const ReplySummary warm{RequestClass::Warm, 28, 28, 0, fnv1a(json), fnv1a(md)};
  expect_pass(check_reply("serve", warm, exp), "serve: warm repeat, all hits");
  ReplySummary r = warm;
  std::string flipped = json;
  flipped[5] ^= 0x01;
  r.json_hash = fnv1a(flipped);
  expect_reject(check_reply("serve", r, exp), "serve: flipped report JSON byte");
  r = warm;
  r.md_hash = fnv1a(md + " ");
  expect_reject(check_reply("serve", r, exp), "serve: changed Markdown");
  r = warm;
  r.hits = 27;
  r.misses = 1;
  expect_reject(check_reply("serve", r, exp), "serve: warm repeat with a miss");
  r = warm;
  r.hits = 27;
  expect_reject(check_reply("serve", r, exp), "serve: hits + misses != cells");
  r = warm;
  r.cells = 27;
  expect_reject(check_reply("serve", r, exp), "serve: missing cell frame");
  const ReplySummary fresh{RequestClass::Fresh, 28, 0, 28, fnv1a(json), fnv1a(md)};
  expect_pass(check_reply("serve", fresh, exp), "serve: unseen content, all misses");
  r = fresh;
  r.hits = 1;
  r.misses = 27;
  expect_reject(check_reply("serve", r, exp), "serve: unseen content with a hit");
  const ReplySummary variant{RequestClass::Variant, 28, 5, 23, fnv1a(json), fnv1a(md)};
  expect_pass(check_reply("serve", variant, exp), "serve: variant, any hit/miss split");
}

}  // namespace

int run_selftest() {
  campaign_checks();
  sim_checks();
  serve_checks();
  std::printf("%d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
