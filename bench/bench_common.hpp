// Shared scaffolding for the experiment binaries (bench_e*): standard
// algorithm rosters and a uniform report banner, so every reproduced
// table/figure prints the same way and EXPERIMENTS.md can quote it.
#pragma once

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "analysis/acceptance.hpp"
#include "bounds/harmonic.hpp"
#include "bounds/ll_bound.hpp"
#include "bounds/scaled_periods.hpp"
#include "common/json.hpp"
#include "common/table.hpp"
#include "partition/baselines.hpp"
#include "partition/rmts.hpp"
#include "partition/rmts_light.hpp"
#include "partition/spa.hpp"

namespace rmts::bench {

/// Experiment banner: id, the paper claim being reproduced, and the
/// workload description, so raw bench output is self-describing.
inline void banner(const std::string& id, const std::string& claim,
                   const std::string& workload) {
  std::cout << "##### " << id << " #####\n"
            << "# claim:    " << claim << '\n'
            << "# workload: " << workload << '\n';
}

// Compile flags CMake handed the bench binaries (rmts_bench injects the
// definition); empty when built outside that function.
#ifndef RMTS_BENCH_FLAGS
#define RMTS_BENCH_FLAGS ""
#endif

namespace detail {

/// JSON string escaping for non-numeric cells: the shared escaper from
/// common/json.hpp, which also covers control characters so BENCH_e*.json
/// stays valid JSON for any cell content.
using rmts::json_escape;

/// Host CPU model from /proc/cpuinfo, so committed BENCH_*.json numbers
/// carry the machine they were measured on.
inline std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon == std::string::npos) break;
      const std::size_t first = line.find_first_not_of(" \t", colon + 1);
      if (first != std::string::npos) return line.substr(first);
    }
  }
  return "unknown";
}

/// Emits a cell as a bare JSON number when it parses as one, else as a
/// string, so plotting scripts get typed values without a schema.  "inf"
/// and "nan" parse via strtod but are not JSON numbers, so only finite
/// values pass through bare.
inline std::string json_cell(const std::string& cell) {
  if (!cell.empty()) {
    char* end = nullptr;
    const double value = std::strtod(cell.c_str(), &end);
    if (end == cell.c_str() + cell.size() && std::isfinite(value)) return cell;
  }
  return '"' + json_escape(cell) + '"';
}

}  // namespace detail

/// Machine-readable companion to the text tables: every bench_e* collects
/// its Table(s) here and write() lands them in BENCH_<experiment>.json as
/// one object per row keyed by the table header.  Always written next to
/// the binary's working directory, mirroring the BENCH_e8/e16 convention.
class JsonReport {
 public:
  JsonReport(std::string experiment, std::string description)
      : experiment_(std::move(experiment)),
        description_(std::move(description)) {}

  /// Registers a rendered table under `name` ("rows" for single-table
  /// benches).  Cell values are copied; call after the table is complete.
  void add_table(const std::string& name, const Table& table) {
    tables_.emplace_back(name, table);
  }

  /// Writes BENCH_<experiment>.json and echoes the path to stdout.
  void write() const {
    const std::string path = "BENCH_" + experiment_ + ".json";
    std::ofstream json(path);
    json << "{\n  \"experiment\": \"" << detail::json_escape(experiment_)
         << "\",\n  \"description\": \"" << detail::json_escape(description_)
         << "\",\n  \"environment\": {\"compiler\": \""
         << detail::json_escape(__VERSION__) << "\", \"flags\": \""
         << detail::json_escape(RMTS_BENCH_FLAGS) << "\", \"cpu\": \""
         << detail::json_escape(detail::cpu_model()) << "\"}";
    for (const auto& [name, table] : tables_) {
      json << ",\n  \"" << detail::json_escape(name) << "\": [\n";
      const auto& header = table.header();
      for (std::size_t r = 0; r < table.rows().size(); ++r) {
        const auto& row = table.rows()[r];
        json << "    {";
        for (std::size_t c = 0; c < header.size(); ++c) {
          if (c != 0) json << ", ";
          json << '"' << detail::json_escape(header[c])
               << "\": " << detail::json_cell(c < row.size() ? row[c] : "");
        }
        json << (r + 1 < table.rows().size() ? "},\n" : "}\n");
      }
      json << "  ]";
    }
    json << "\n}\n";
    std::cout << "results written to " << path << '\n';
  }

 private:
  std::string experiment_;
  std::string description_;
  std::vector<std::pair<std::string, Table>> tables_;
};

inline std::shared_ptr<const Rmts> rmts_ll() {
  return std::make_shared<Rmts>(std::make_shared<LiuLaylandBound>());
}

inline std::shared_ptr<const Rmts> rmts_hc() {
  return std::make_shared<Rmts>(std::make_shared<HarmonicChainBound>(),
                                "RM-TS[HC]");
}

inline std::shared_ptr<const PartitionedRm> prm_ffd_rta() {
  return std::make_shared<PartitionedRm>(FitPolicy::kFirstFit,
                                         TaskOrder::kDecreasingUtilization,
                                         Admission::kExactRta);
}

inline std::shared_ptr<const PartitionedRm> prm_ffd_ll() {
  return std::make_shared<PartitionedRm>(FitPolicy::kFirstFit,
                                         TaskOrder::kDecreasingUtilization,
                                         Admission::kLiuLayland);
}

}  // namespace rmts::bench
