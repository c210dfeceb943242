// perfbench — one benchmark for the ASCEND SC-ViT system.
//
//   perfbench --workload <paper-offline|fig8-dse> --seed <n> --seconds <s>
//             --trace <0|1> [--scratch <dir>]
//
// --trace 0 runs the workload and prints its end-to-end metrics; --trace 1
// runs it again with the timing decorators on (its own end-to-end numbers are
// printed as a text line, so the tracing overhead shows as the difference from
// an untraced run), then the per-layer ledger, and prints the per-layer
// metrics. The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The exit code is non-zero when any output check failed.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "workloads.h"

namespace perfbench {

void add_end_to_end(Result& r, double throughput, double p50_ms, double tail_ms, double setup_s) {
  r.end_to_end = {
      {"throughput_per_s", throughput, "1/s"},
      {"p50_ms", p50_ms, "ms"},
      {"tail_ms", tail_ms, "ms"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MiB"},
  };
}

}  // namespace perfbench

namespace {

using namespace perfbench;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <paper-offline|fig8-dse> "
               "--seed <n> --seconds <s> --trace <0|1> [--scratch <dir>]\n",
               why);
  std::exit(2);
}

/// Topology of a workload, for the fingerprint.
const char* topology(const std::string& workload) {
  return workload == "paper-offline" ? "paper: 7 layers, 4 heads, dim 256, 64 tokens, W2A2, batch 16"
                                     : "softmax DSE: m 64, Bx 2 and 4, 16 MAE rows";
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    if (flag == "--workload") a.workload = v;
    else if (flag == "--seed") a.seed = std::strtoull(v, nullptr, 10);
    else if (flag == "--seconds") a.seconds = std::atof(v);
    else if (flag == "--trace") a.trace = std::strcmp(v, "0") != 0;
    else if (flag == "--scratch") a.scratch = v;
    else usage(("unknown flag " + flag).c_str());
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  Result (*run)(const Args&) = nullptr;
  if (args.workload == "paper-offline") run = run_paper_offline;
  else if (args.workload == "fig8-dse") run = run_fig8_dse;
  else usage(("unknown workload " + args.workload).c_str());

  print_fingerprint(args.workload, topology(args.workload));
  std::printf("# seed %llu, %.3g s per measured phase, trace %d\n",
              static_cast<unsigned long long>(args.seed), args.seconds, args.trace ? 1 : 0);
  Result r;
  try {
    r = run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", args.workload.c_str(), e.what());
    return 1;
  }
  for (const Metric& m : r.end_to_end)
    std::printf("%s%s %.6g %s\n", args.trace ? "traced end-to-end " : "end-to-end ",
                m.name.c_str(), m.value, m.unit.c_str());
  std::printf("operations: attempted %llu, failed %llu\n",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed));

  if (!args.trace) {
    print_result_line(r, r.end_to_end);
    return r.correct ? 0 : 1;
  }

  std::map<std::string, double> layer;
  try {
    layer = run_ledger(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: per-layer ledger failed: %s\n", e.what());
    return 1;
  }
  for (const auto& [name, value] : r.layer) {
    std::printf("workload counter %s %.6g\n", name.c_str(), value);
    layer[name] = value;
  }
  std::vector<Metric> metrics;
  for (const auto& [name, unit] : layer_metric_units()) {
    const auto it = layer.find(name);
    metrics.push_back({name, it == layer.end() ? 0.0 : it->second, unit});
  }
  print_result_line(r, metrics);
  return r.correct ? 0 : 1;
}
