// nn_e2e: one process runs one workload for a fixed wall time and
// prints one JSON line — every metric with its unit, in-run quartiles
// and sample count, the operation counts, and any failed output check.
//
//   nn_e2e --workload W --seed S --seconds T [--trace] [--spans FILE]
//
// W is appliance-112, datapath-imix, hostile-mix or fig1-churn. With
// --trace the run is the traced per-layer ledger instead of the
// end-to-end measurement. Exit status: 0 when every check passed, 1
// when an output or validity check failed, 2 on a usage error.
// benchmark/run.py builds this program and is the intended front end.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.hpp"

namespace {

using nnbench::Metric;
using nnbench::Options;
using nnbench::Result;

const char* const kWorkloads[] = {"appliance-112", "datapath-imix",
                                  "hostile-mix", "fig1-churn"};

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_metrics(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    const Metric& m = ms[i];
    if (i > 0) out += ", ";
    out += json_string(m.name) + ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit) +
           ", \"q1\": " + json_number(m.q1) +
           ", \"q3\": " + json_number(m.q3) +
           ", \"n\": " + std::to_string(m.n) + "}";
  }
  return out + "}";
}

int usage() {
  std::fprintf(stderr,
               "usage: nn_e2e --workload W --seed S --seconds T "
               "[--trace] [--spans FILE]\n  workloads:");
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      opt.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      opt.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace") {
      opt.trace = true;
    } else if (arg == "--spans" && has_value) {
      opt.spans_path = argv[++i];
    } else {
      return usage();
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || opt.workload == w;
  if (!known || !(opt.seconds > 0)) return usage();

  Result r;
  try {
    if (opt.trace) {
      r = nnbench::run_ledger(opt);
    } else if (opt.workload == "appliance-112") {
      r = nnbench::run_appliance(opt);
    } else if (opt.workload == "fig1-churn") {
      r = nnbench::run_fig1_churn(opt);
    } else {
      r = nnbench::run_inprocess(opt, opt.workload == "hostile-mix");
    }
  } catch (const std::exception& e) {
    r.failures.push_back(std::string("exception: ") + e.what());
  }

  const bool correct = r.failures.empty() && r.failed == 0;
  std::string failures = "[";
  for (std::size_t i = 0; i < r.failures.size(); ++i) {
    if (i > 0) failures += ", ";
    failures += json_string(r.failures[i]);
  }
  failures += "]";
  std::printf(
      "{\"workload\": %s, \"seed\": %llu, \"trace\": %s, \"correct\": %s, "
      "\"attempted\": %llu, \"failed\": %llu, \"failures\": %s, "
      "\"metrics\": %s, \"diagnostics\": %s}\n",
      json_string(opt.workload).c_str(),
      static_cast<unsigned long long>(opt.seed), opt.trace ? "true" : "false",
      correct ? "true" : "false",
      static_cast<unsigned long long>(r.attempted),
      static_cast<unsigned long long>(r.failed), failures.c_str(),
      json_metrics(r.metrics).c_str(), json_metrics(r.diagnostics).c_str());
  return correct ? 0 : 1;
}
