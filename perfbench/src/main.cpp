// perfbench — the repository benchmark's measuring program.
//
//   perfbench --workload NAME|all --seed N --seconds S --trace 0|1
//
// Prints every metric with its unit (measure.h says what each mode
// measures) and, as the last line of standard output, one JSON object:
// {"correct", "attempted", "failed", "metrics"}. The exit code is 0 only
// when every correctness check passed.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "measure.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print(const std::string& workload, const Options& opt, const Result& r) {
  std::cout << "workload " << workload << "  seed " << opt.seed << "  trace "
            << (opt.trace ? 1 : 0) << "\n";
  for (const Metric& m : r.metrics) {
    std::printf("  %-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  if (!r.mix.empty()) {
    std::cout << "  layer mix (share of traced wall):\n";
    for (const auto& [name, share] : r.mix) {
      std::printf("    %-32s %6.2f%%\n", name.c_str(), 100.0 * share);
    }
  }
  for (const std::string& v : r.violations) std::cout << "  VIOLATION: " << v << "\n";
  std::fflush(stdout);
  std::string line = "{\"correct\": ";
  line += r.correct ? "true" : "false";
  line += ", \"attempted\": " + json_number(std::max(r.attempted, 1.0));
  line += ", \"failed\": " + json_number(r.failed);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload NAME|all --seed N --seconds S --trace 0|1\n"
               "workloads:";
  for (const std::string& w : workload_names()) std::cerr << " " << w;
  std::cerr << "\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        opt.trace = value == "1";
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!(opt.seconds > 0)) usage("--seconds must be positive");
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Options opt = parse(argc, argv);
  std::vector<std::string> names;
  if (opt.workload == "all") {
    names = workload_names();
  } else {
    names.push_back(opt.workload);
  }
  bool all_correct = true;
  try {
    for (const std::string& name : names) {
      const scenario::ScenarioSpec spec = workload_spec(name);
      const Result r = opt.trace ? measure_traced(spec, opt) : measure_end_to_end(spec, opt);
      print(name, opt, r);
      all_correct = all_correct && r.correct;
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  return all_correct ? 0 : 1;
}
