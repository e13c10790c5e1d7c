// tools/perseas-mc — command-line front end for the crash-consistency model
// checker (perseas::mc).  See docs/ANALYSIS.md § Model checking.
//
// Exit codes: 0 = all explored schedules consistent (or self-test caught the
// seeded bug), 1 = violations found (or self-test failed to find any),
// 2 = usage / option errors (an unregistered --point, or a --point/--hit
// filter that selects no discovered schedule, included).

#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/failure_points.hpp"
#include "mc/model_checker.hpp"
#include "mc/report.hpp"
#include "mc/workload.hpp"

namespace {

constexpr const char* kUsage = R"(usage: perseas-mc [options]

Explores every failure point the workload reaches, crashing at each
(point, hit, kind) combination and checking the recovered database against
an executable reference model.

  --engine=NAME       perseas | rvm-disk | rvm-rio | rvm-nvram | vista
                      (default perseas)
  --workload=NAME     debit-credit | synthetic | interleaved | scripted
                      (default debit-credit; interleaved keeps transaction
                      pairs open concurrently on two slots)
  --script-file=PATH  workload script for --workload=scripted
  --txns=N            transactions per exploration (default 4)
  --db-size=N         database bytes (default 1024)
  --seed=N            workload seed (default 0x1998)
  --nested=N          0 or 1: also crash inside recovery (default 0)
  --kinds=K[,K...]    software | power | hardware (default: all the engine
                      can recover from)
  --report=PATH       write the perseas-mc/1 JSON report ("-" = stdout)
  --no-minimize       skip counterexample minimization
  --list-points       run discovery only and print the reachable points
  --point=P --hit=H --kind=K
                      reproduce one schedule from a report (P is a registered
                      point, or "post-workload" for the after-workload
                      durability sweep; a filter that selects nothing is a
                      usage error)
  --selftest          seed the deliberate skip-flag-clear bug and require the
                      checker to find a minimized counterexample
  --help              this text
)";

struct CliError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

std::uint64_t parse_u64(const std::string& flag, const std::string& value) {
  try {
    std::size_t end = 0;
    const std::uint64_t v = std::stoull(value, &end, 0);
    if (end != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw CliError(flag + ": expected a number, got '" + value + "'");
  }
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw CliError("--script-file: cannot open '" + path + "'");
  std::ostringstream body;
  body << in.rdbuf();
  return body.str();
}

std::vector<perseas::sim::FailureKind> parse_kinds(const std::string& list) {
  std::vector<perseas::sim::FailureKind> kinds;
  std::istringstream tokens(list);
  std::string token;
  while (std::getline(tokens, token, ',')) {
    const auto kind = perseas::mc::failure_kind_from_name(token);
    if (!kind) throw CliError("--kinds: unknown failure kind '" + token + "'");
    kinds.push_back(*kind);
  }
  if (kinds.empty()) throw CliError("--kinds: empty list");
  return kinds;
}

void print_summary(const perseas::mc::McResult& result) {
  std::cout << "perseas-mc: engine=" << result.engine << " workload=" << result.workload
            << " txns=" << result.txns << " nested=" << result.nested << "\n"
            << "  points discovered: " << perseas::mc::hit_rows(result.points).size()
            << "  recovery points: " << perseas::mc::hit_rows(result.recovery_points).size()
            << "\n"
            << "  explorations: " << result.explorations << " (crashed " << result.crashed
            << ", not reached " << result.not_reached << ", nested "
            << result.nested_explorations << ", minimization " << result.minimization_runs
            << ")\n";
  for (const auto& v : result.violations) {
    std::cout << "  VIOLATION [" << v.invariant << "] point=" << v.point << " hit=" << v.hit
              << " kind=" << perseas::sim::to_string(v.kind);
    if (v.nested) std::cout << " nested=" << v.nested_point << "#" << v.nested_hit;
    std::cout << " txn=" << v.txn;
    if (v.minimized_txns != 0) std::cout << " minimized-txns=" << v.minimized_txns;
    std::cout << "\n    " << v.detail << "\n";
  }
  std::cout << (result.ok() ? "  OK: every explored schedule is consistent\n"
                            : "  FAIL: " + std::to_string(result.violations.size()) +
                                  " violation(s)\n");
}

}  // namespace

int main(int argc, char** argv) {
  perseas::mc::McOptions options;
  std::string report_path;
  std::string script_file;
  bool selftest = false;
  bool list_points = false;

  try {
    for (int i = 1; i < argc; ++i) {
      std::string arg = argv[i];
      std::string value;
      if (const auto eq = arg.find('='); eq != std::string::npos) {
        value = arg.substr(eq + 1);
        arg.resize(eq);
      }
      if (arg == "--help" || arg == "-h") {
        std::cout << kUsage;
        return 0;
      } else if (arg == "--engine") {
        options.engine = value;
      } else if (arg == "--workload") {
        options.workload = value;
      } else if (arg == "--script-file") {
        script_file = value;
      } else if (arg == "--txns") {
        options.txns = parse_u64(arg, value);
      } else if (arg == "--db-size") {
        options.db_size = parse_u64(arg, value);
      } else if (arg == "--seed") {
        options.seed = parse_u64(arg, value);
      } else if (arg == "--nested") {
        options.nested = static_cast<unsigned>(parse_u64(arg, value));
      } else if (arg == "--kinds") {
        options.kinds = parse_kinds(value);
      } else if (arg == "--report") {
        report_path = value;
      } else if (arg == "--no-minimize") {
        options.minimize = false;
      } else if (arg == "--list-points") {
        list_points = true;
      } else if (arg == "--point") {
        if (value != perseas::mc::kPostWorkload && !perseas::core::points::PointId::find(value)) {
          throw CliError("--point: '" + value +
                         "' is not a registered failure point (src/core/failure_points.hpp)");
        }
        options.only_point = value;
      } else if (arg == "--hit") {
        options.only_hit = parse_u64(arg, value);
      } else if (arg == "--kind") {
        const auto kind = perseas::mc::failure_kind_from_name(value);
        if (!kind) throw CliError("--kind: unknown failure kind '" + value + "'");
        options.kinds = {*kind};
      } else if (arg == "--selftest") {
        selftest = true;
      } else {
        throw CliError("unknown option '" + arg + "' (see --help)");
      }
    }
    if (!script_file.empty()) options.script = read_file(script_file);
    if (selftest && options.engine != "perseas") {
      throw CliError("--selftest: the seeded bug lives in the perseas engine");
    }
    options.seed_bug = selftest;
    options.discover_only = list_points;
  } catch (const CliError& e) {
    std::cerr << "perseas-mc: " << e.what() << "\n";
    return 2;
  }

  try {
    perseas::mc::ModelChecker checker(options);
    const perseas::mc::McResult result = checker.run();

    if (list_points) {
      const auto rows = perseas::mc::hit_rows(result.points);
      std::cout << "perseas-mc: engine=" << result.engine << " workload=" << result.workload
                << " — " << rows.size() << " reachable failure points\n";
      for (const auto& row : rows) {
        std::cout << "  " << row.point.name() << "  x" << row.hits << "\n";
      }
      if (!report_path.empty()) perseas::mc::save_mc_report(result, report_path);
      return result.ok() ? 0 : 1;
    }

    print_summary(result);
    if (!report_path.empty()) perseas::mc::save_mc_report(result, report_path);

    if (selftest) {
      bool minimized = false;
      for (const auto& v : result.violations) minimized |= v.minimized_txns != 0;
      if (result.violations.empty()) {
        std::cerr << "perseas-mc: SELFTEST FAILED — seeded bug produced no violation\n";
        return 1;
      }
      if (!minimized && options.minimize && options.txns > 1) {
        std::cerr << "perseas-mc: SELFTEST FAILED — violation found but not minimized\n";
        return 1;
      }
      std::cout << "perseas-mc: selftest passed — seeded bug caught ("
                << result.violations.size() << " violation(s))\n";
      return 0;
    }
    return result.ok() ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    std::cerr << "perseas-mc: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "perseas-mc: fatal: " << e.what() << "\n";
    return 1;
  }
}
