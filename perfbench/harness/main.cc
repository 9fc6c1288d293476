// perfbench: runs one workload and prints every metric by name and unit,
// then, as the last line, one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// Exits 1 when any output check failed, 2 on a usage or run error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>

#include "harness/workloads.h"
#include "parallel/thread_pool.h"

namespace {

using perfbench::Metric;
using perfbench::Options;
using perfbench::Report;

const std::map<std::string, Report (*)(const Options&)> kWorkloads = {
    {"serve-fair", perfbench::run_serve_fair},
    {"serve-logged", perfbench::run_serve_logged},
    {"sweep-grid", perfbench::run_sweep_grid},
    {"scale-1m", perfbench::run_scale_1m},
};

int usage(const std::string& problem) {
  std::cerr << "perfbench: " << problem << "\n"
            << "usage: perfbench --workload <serve-fair|serve-logged|sweep-grid|scale-1m>"
               " --seed N --seconds S --trace 0|1 --work-dir DIR [--span-path FILE]\n"
               "       perfbench --list-layers\n";
  return 2;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void print_metrics(const char* title, const std::vector<Metric>& metrics) {
  std::cout << title << ":\n";
  for (const Metric& m : metrics) {
    std::cout << "  " << m.name << " = " << number(m.value) << " " << m.unit << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  bool have_workload = false, have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list-layers") {
      for (const auto& spec : perfbench::layer_specs()) {
        std::cout << spec.name << " " << spec.unit << "\n";
      }
      return 0;
    }
    if (i + 1 >= argc) return usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        opt.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value) != 0;
      } else if (arg == "--work-dir") {
        opt.work_dir = value;
      } else if (arg == "--span-path") {
        opt.span_path = value;
      } else {
        return usage("unknown option " + arg);
      }
    } catch (const std::exception&) {
      return usage("bad value '" + value + "' for " + arg);
    }
  }
  if (!have_workload || !have_seed || opt.work_dir.empty()) {
    return usage("--workload, --seed and --work-dir are required");
  }
  auto it = kWorkloads.find(opt.workload);
  if (it == kWorkloads.end()) return usage("unknown workload " + opt.workload);
  if (!(opt.seconds > 0.0)) return usage("--seconds must be positive");
  opt.cpus = grefar::ThreadPool::default_concurrency();

  Report report;
  try {
    report = it->second(opt);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << opt.workload << " failed: " << e.what() << "\n";
    return 2;
  }
  perfbench::complete_layers(report);

  std::cout << "workload " << opt.workload << ", seed " << opt.seed << ", " << opt.seconds
            << " s, trace " << opt.trace << ", " << opt.cpus << " usable cores\n";
  for (const std::string& note : report.notes) std::cout << "  " << note << "\n";
  print_metrics("end-to-end", report.end_to_end);
  std::cout << "  failed_frac = " << number(report.tally.failed_frac()) << " ratio ("
            << report.tally.failed << " of " << report.tally.attempted << ")\n";
  if (opt.trace) print_metrics("per-layer", report.per_layer);

  const bool correct = report.tally.failed == 0 && report.tally.attempted > 0;
  const std::vector<Metric>& shown = opt.trace ? report.per_layer : report.end_to_end;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(report.tally.attempted) +
                     ", \"failed\": " + std::to_string(report.tally.failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < shown.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + shown[i].name + "\": {\"value\": " + number(shown[i].value) +
            ", \"unit\": \"" + shown[i].unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return correct ? 0 : 1;
}
