#pragma once
// workloads.h — the benchmark workloads and the traced per-layer ledger.

#include <map>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

Result run_paper_offline(const Args& args);
Result run_fig8_dse(const Args& args);

/// Per-layer micro-measurements, identical in every traced run (see
/// README.md for which end-to-end metric each one should move).
std::map<std::string, double> run_ledger(const Args& args);

/// Every per-layer metric name with its unit, in output order. The traced
/// result line carries exactly these; layers a workload does not run report 0.
std::vector<std::pair<std::string, std::string>> layer_metric_units();

/// The end-to-end metrics every workload reports, in output order.
void add_end_to_end(Result& r, double throughput, double p50_ms, double tail_ms, double setup_s);

}  // namespace perfbench
