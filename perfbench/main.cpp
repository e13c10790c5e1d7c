// perfbench: the repository benchmark's binary.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--spans <file>]
//
// Runs one workload and prints, as the last line of standard output, one
// JSON object {"correct", "attempted", "failed", "metrics"}.  With --trace 0
// the metrics are the end-to-end ones; with --trace 1 the per-layer ones
// (and the spans go to --spans).  Diagnostics go to standard error.
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "workloads.hpp"

namespace {

// Environment variables through which the library overrides its config or
// adds observers; any of them would silently change what is measured.
constexpr const char* kOverrides[] = {
    "PERSEAS_COALESCE", "PERSEAS_CC",        "PERSEAS_VALIDATE_WRITES", "PERSEAS_TRACE",
    "PERSEAS_METRICS",  "PERSEAS_BLACKBOX",  "PERSEAS_MC_SEED_BUG",
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--spans <file>]\nworkloads:",
               why);
  for (const std::string& w : perfbench::workload_names()) std::fprintf(stderr, " %s", w.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

void print_result(const perfbench::RunResult& r) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const perfbench::Metric& m : r.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(m.value) ? m.value : 0.0);
    if (!first) out += ", ";
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  bool have_workload = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (i + 1 >= argc) usage("missing value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("bad --seed");
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(value, &end);
      if (*end != '\0' || !(o.seconds > 0.0) || o.seconds > 600.0) usage("bad --seconds");
    } else if (arg == "--trace") {
      if (std::string_view(value) != "0" && std::string_view(value) != "1") usage("bad --trace");
      o.trace = value[0] == '1';
      have_trace = true;
    } else if (arg == "--spans") {
      o.spans_path = value;
    } else {
      usage("unknown argument");
    }
  }
  if (!have_workload || !have_trace) usage("--workload and --trace are required");

  for (const char* name : kOverrides) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "perfbench: %s is set; unset it, it changes the measured program\n",
                   name);
      return 2;
    }
  }

  try {
    perfbench::RunResult r = perfbench::run_workload(o);
    if (!o.trace) r.metrics.push_back({"peak_rss_mb", peak_rss_mb(), "MB"});
    print_result(r);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
