// perfbench — the repository benchmark binary. One invocation runs one
// workload for a fixed time and prints its metrics, then one JSON line:
//
//   perfbench --workload serve_mix|solve_deep|mutate_stream --seed N
//             --seconds S --trace 0|1 --work-dir DIR
//
// --trace 0 reports the end-to-end metrics with the benchmark's layer
// timing off; --trace 1 reports the per-layer metrics (and writes a Chrome
// trace-event file into DIR). perfbench/run.py builds this binary and is
// the command BENCHMARK.json names.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_common.h"
#include "workloads.h"

namespace {

void PrintJson(const perfbench::Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.wrong() == 0 ? "true" : "false",
              static_cast<unsigned long long>(report.attempted()),
              static_cast<unsigned long long>(report.failed()));
  const char* sep = "";
  for (const perfbench::Metric& m : report.metrics()) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name.c_str(), m.value, m.unit.c_str());
    sep = ", ";
  }
  std::printf("}}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload serve_mix|solve_deep|"
               "mutate_stream --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  if (argc % 2 == 0) return Usage();  // flags come in --name value pairs
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if (options.work_dir.empty() || options.seconds <= 0) return Usage();

  std::printf("%s\n", perfbench::HostStamp(options).c_str());
  perfbench::Report report;
  if (options.workload == "serve_mix") {
    perfbench::RunServeMix(options, report);
  } else if (options.workload == "solve_deep") {
    perfbench::RunSolveDeep(options, report);
  } else if (options.workload == "mutate_stream") {
    perfbench::RunMutateStream(options, report);
  } else {
    return Usage();
  }

  for (const std::string& line : report.ledger()) {
    std::printf("%s\n", line.c_str());
  }
  for (const perfbench::Metric& m : report.metrics()) {
    std::printf("metric %-26s %14.6f %-6s n=%-7llu %s\n", m.name.c_str(),
                m.value, m.unit.c_str(),
                static_cast<unsigned long long>(m.samples), m.note.c_str());
  }
  const double error_rate =
      report.attempted() > 0
          ? static_cast<double>(report.failed()) /
                static_cast<double>(report.attempted())
          : 1.0;
  std::printf("error_rate=%.6f (failed+rejected+wrong %llu of %llu "
              "attempted operations)\n",
              error_rate, static_cast<unsigned long long>(report.failed()),
              static_cast<unsigned long long>(report.attempted()));
  PrintJson(report);
  std::fflush(stdout);
  return report.failed() == 0 ? 0 : 1;
}
