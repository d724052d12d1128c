#include "checks.hpp"

#include <cmath>
#include <map>
#include <stdexcept>

namespace perfbench {

using sfrv::eval::Json;

double sqnr_floor(std::string_view type) {
  static const std::map<std::string_view, double> floors = {
      {"float", 100.0},  {"float16", 40.0}, {"float16alt", 28.0},
      {"float8", 6.0},   {"posit8", 10.0},  {"posit16", 45.0},
  };
  const auto it = floors.find(type);
  if (it == floors.end()) {
    throw std::runtime_error("no SQNR floor for type " + std::string(type));
  }
  return it->second;
}

namespace {

std::string cell_name(const Json& c) {
  return c.at("benchmark").as_string() + "/" + c.at("type_config").as_string() +
         "/" + c.at("mode").as_string() + "/vl" +
         std::to_string(c.at("vl").as_int());
}

}  // namespace

Errors check_campaign_report(const Json& report) {
  Errors errs;
  const auto& cells = report.at("cells").array();
  const std::size_t expected_cells =
      report.at("benchmarks").array().size() *
      report.at("type_configs").array().size() *
      report.at("modes").array().size() * report.at("vls").array().size();
  if (cells.empty() || cells.size() != expected_cells) {
    errs.push_back("report has " + std::to_string(cells.size()) +
                   " cells, matrix needs " + std::to_string(expected_cells));
  }

  // benchmark -> type config -> manual-vec cycles
  std::map<std::string, std::map<std::string, std::uint64_t>> manual;
  for (const auto& c : cells) {
    const std::string name = cell_name(c);
    const double sqnr = c.at("sqnr_db").as_double();
    const double floor = sqnr_floor(c.at("data").as_string());
    if (!(sqnr >= floor)) {
      errs.push_back(name + ": SQNR " + std::to_string(sqnr) +
                     " dB below floor " + std::to_string(floor));
    }
    const Json& e = c.at("energy");
    const double parts = e.at("base_pj").as_double() +
                         e.at("leakage_pj").as_double() +
                         e.at("unit_pj").as_double() +
                         e.at("memory_pj").as_double();
    const double total = e.at("total_pj").as_double();
    if (!(total > 0) || std::fabs(parts - total) > 1e-9 * total + 1e-6) {
      errs.push_back(name + ": energy parts sum to " + std::to_string(parts) +
                     " pJ, total says " + std::to_string(total));
    }
    if (c.at("mode").as_string() == "manual-vec" && c.at("vl").as_int() == 0) {
      manual[c.at("benchmark").as_string()][c.at("type_config").as_string()] =
          c.at("cycles").as_uint();
    }
  }
  for (const auto& bench : report.at("benchmarks").array()) {
    const std::string& b = bench.as_string();
    const auto it = manual.find(b);
    if (it == manual.end() || !it->second.count("float") ||
        !it->second.count("float16") || !it->second.count("float8")) {
      errs.push_back(b + ": manual-vec float/float16/float8 cells missing");
      continue;
    }
    const auto f32 = it->second.at("float");
    const auto f16 = it->second.at("float16");
    const auto f8 = it->second.at("float8");
    if (!(f8 < f16 && f16 < f32)) {
      errs.push_back(b + ": manual-vec cycles not ordered float8 < float16 < "
                         "float (" + std::to_string(f8) + ", " +
                     std::to_string(f16) + ", " + std::to_string(f32) + ")");
    }
  }

  const Json* tuner = report.find("tuner");
  if (tuner == nullptr) {
    errs.push_back("report has no tuner study");
  } else {
    const Json& best = tuner->at("best");
    if (!tuner->at("found").as_bool() ||
        best.at("data").as_string() != "float16" ||
        best.at("acc").as_string() != "float" ||
        best.at("qor").as_double() != 1.0 ||
        tuner->at("qor_threshold").as_double() != 1.0) {
      errs.push_back("tuner picked data=" + best.at("data").as_string() +
                     " acc=" + best.at("acc").as_string() + " at accuracy " +
                     std::to_string(best.at("qor").as_double()) +
                     ", expected float16/float at 1.0");
    }
  }
  return errs;
}

Errors check_rerun(const Json& cell, const CellRerun& rerun) {
  Errors errs;
  const std::string name = cell_name(cell);
  if (cell.at("cycles").as_uint() != rerun.cycles) {
    errs.push_back(name + ": report says " +
                   std::to_string(cell.at("cycles").as_uint()) +
                   " cycles, Reference engine gives " +
                   std::to_string(rerun.cycles));
  }
  if (cell.at("instructions").as_uint() != rerun.instructions) {
    errs.push_back(name + ": report says " +
                   std::to_string(cell.at("instructions").as_uint()) +
                   " instructions, Reference engine gives " +
                   std::to_string(rerun.instructions));
  }
  const double sqnr = cell.at("sqnr_db").as_double();
  if (!(std::fabs(sqnr - rerun.sqnr_db) <= 1e-6 * std::fabs(sqnr) + 1e-9)) {
    errs.push_back(name + ": report SQNR " + std::to_string(sqnr) +
                   " dB, recomputed " + std::to_string(rerun.sqnr_db));
  }
  return errs;
}

Errors check_same_outcome(const std::string& what, const SimOutcome& expected,
                          const SimOutcome& got) {
  Errors errs;
  if (got.cycles != expected.cycles) {
    errs.push_back(what + ": cycles " + std::to_string(got.cycles) +
                   " != " + std::to_string(expected.cycles));
  }
  if (got.instructions != expected.instructions) {
    errs.push_back(what + ": instructions " +
                   std::to_string(got.instructions) +
                   " != " + std::to_string(expected.instructions));
  }
  if (got.fflags != expected.fflags) {
    errs.push_back(what + ": fflags " + std::to_string(got.fflags) +
                   " != " + std::to_string(expected.fflags));
  }
  if (got.output_hash != expected.output_hash) {
    errs.push_back(what + ": output bytes differ");
  }
  return errs;
}

Errors check_sqnr_floor(const std::string& what, double sqnr, double floor) {
  if (sqnr >= floor) return {};
  return {what + ": SQNR " + std::to_string(sqnr) + " dB below floor " +
          std::to_string(floor)};
}

std::string_view class_name(RequestClass c) {
  switch (c) {
    case RequestClass::Warm: return "warm";
    case RequestClass::Fresh: return "fresh";
    case RequestClass::Variant: return "variant";
    case RequestClass::Overlap: return "overlap";
  }
  return "?";
}

Errors check_reply(const std::string& what, const ReplySummary& reply,
                   const ExpectedReply& expected) {
  Errors errs;
  if (reply.cells != expected.cells) {
    errs.push_back(what + ": " + std::to_string(reply.cells) +
                   " cell frames, spec has " + std::to_string(expected.cells));
  }
  if (reply.hits + reply.misses != expected.cells) {
    errs.push_back(what + ": hits " + std::to_string(reply.hits) +
                   " + misses " + std::to_string(reply.misses) +
                   " != cells " + std::to_string(expected.cells));
  }
  if (reply.cls == RequestClass::Warm && reply.hits != expected.cells) {
    errs.push_back(what + ": repeated request got " +
                   std::to_string(reply.misses) + " misses");
  }
  if (reply.cls == RequestClass::Fresh && reply.misses != expected.cells) {
    errs.push_back(what + ": unseen content got " +
                   std::to_string(reply.hits) + " hits");
  }
  if (reply.json_hash != expected.json_hash) {
    errs.push_back(what + ": report JSON differs from the in-process run");
  }
  if (reply.md_hash != expected.md_hash) {
    errs.push_back(what + ": report Markdown differs from the in-process run");
  }
  return errs;
}

}  // namespace perfbench
