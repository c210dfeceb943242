// fig8-dse — the paper's Fig. 8 design-space exploration: rounds of
// core::sweep_softmax_design_space at Bx = 2 and Bx = 4 (m = 64, LUT-cached,
// sweep-local cache) on one runtime::ThreadPool of nproc workers.

#include <cstdio>
#include <random>
#include <thread>

#include "core/dse.h"
#include "runtime/thread_pool.h"
#include "sc/softmax_iter.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ascend;

constexpr int kM = 64;
constexpr int kMaeRows = 16;
constexpr int kMinRounds = 40;   // enough rounds for a p75 tail
constexpr double kTailQ = 0.75;
constexpr int kSetups = 5;
constexpr int kNominal = 2916;   // 4 * 3^6 candidates per Bx
constexpr int kSampledPoints = 6; // per Bx, checked against the uncached emulator

bool dominates(const core::DsePoint& a, const core::DsePoint& b) {
  return a.adp() <= b.adp() && a.mae <= b.mae && (a.adp() < b.adp() || a.mae < b.mae);
}

bool same_result(const core::DseResult& a, const core::DseResult& b) {
  if (a.points.size() != b.points.size() || a.pareto != b.pareto) return false;
  for (std::size_t i = 0; i < a.points.size(); ++i)
    if (a.points[i].mae != b.points[i].mae || a.points[i].adp() != b.points[i].adp()) return false;
  return true;
}

void check_sweep(int bx, const core::DseResult& res, std::uint64_t seed, Result& r) {
  const std::string tag = "Bx=" + std::to_string(bx) + ": ";
  if (res.nominal_candidates != kNominal)
    r.fail(tag + std::to_string(res.nominal_candidates) + " nominal candidates, expected 2916");
  if (res.points.empty() || res.pareto.empty()) r.fail(tag + "empty sweep");
  std::vector<char> on_front(res.points.size(), 0);
  for (std::size_t idx : res.pareto) on_front[idx] = 1;
  for (std::size_t i = 0; i < res.points.size(); ++i) {
    if (on_front[i]) {
      for (const core::DsePoint& q : res.points)
        if (dominates(q, res.points[i])) {
          r.fail(tag + "a Pareto point is dominated");
          return;
        }
      continue;
    }
    bool covered = false;  // weakly dominated by some Pareto point
    for (std::size_t idx : res.pareto)
      covered = covered || (res.points[idx].adp() <= res.points[i].adp() &&
                            res.points[idx].mae <= res.points[i].mae);
    if (!covered) {
      r.fail(tag + "a point is dominated by no Pareto point");
      return;
    }
  }
  // MAE of sampled designs, bit-identical to the uncached emulator protocol.
  std::mt19937_64 pick(seed * 31 + static_cast<std::uint64_t>(bx));
  for (int s = 0; s < kSampledPoints; ++s) {
    const core::DsePoint& p = res.points[pick() % res.points.size()];
    const double ref = sc::softmax_sc_mae(p.cfg, kMaeRows, seed);
    if (ref != p.mae) r.fail(tag + "cached MAE differs from sc::softmax_sc_mae");
  }
}

}  // namespace

Result run_fig8_dse(const Args& args) {
  Result r;
  const int workers = std::max(1u, std::thread::hardware_concurrency());
  const std::uint64_t mae_seed = args.seed;

  // Set-up: a worker pool plus one warm-up sweep (first touch of every
  // allocation path), repeated; the median is reported.
  std::vector<double> setups;
  std::unique_ptr<runtime::ThreadPool> pool;
  for (int i = 0; i < kSetups; ++i) {
    pool.reset();
    const auto t0 = Clock::now();
    pool = std::make_unique<runtime::ThreadPool>(workers);
    core::DseOptions opts;
    opts.pool = pool.get();
    (void)core::sweep_softmax_design_space(2, kM, kMaeRows, mae_seed, opts);
    setups.push_back(std::chrono::duration<double>(Clock::now() - t0).count());
  }
  std::printf("fig8-dse: set-up %s\n", describe(summarize(setups), "s").c_str());

  core::DseOptions opts;
  opts.pool = pool.get();
  std::vector<double> round_ms, sweep_s;
  core::DseResult first2, first4;
  std::uint64_t designs = 0;
  int rounds = 0;
  bool deterministic = true;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(args.seconds));
  while (Clock::now() < deadline || rounds < kMinRounds) {
    const auto t0 = Clock::now();
    core::DseResult res2 = core::sweep_softmax_design_space(2, kM, kMaeRows, mae_seed, opts);
    const auto t1 = Clock::now();
    core::DseResult res4 = core::sweep_softmax_design_space(4, kM, kMaeRows, mae_seed, opts);
    const auto t2 = Clock::now();
    round_ms.push_back(ms_between(t0, t2));
    sweep_s.push_back(ms_between(t0, t1) / 1e3);
    sweep_s.push_back(ms_between(t1, t2) / 1e3);
    designs += res2.points.size() + res4.points.size();
    if (rounds == 0) {
      first2 = std::move(res2);
      first4 = std::move(res4);
    } else if (!same_result(first2, res2) || !same_result(first4, res4)) {
      deterministic = false;
    }
    ++rounds;
  }
  const double wall_s = std::chrono::duration<double>(Clock::now() - start).count();
  r.attempted = static_cast<std::uint64_t>(rounds);
  const Summary lat = summarize(round_ms);
  std::printf("fig8-dse: %d rounds (Bx=2 + Bx=4), %llu designs in %.2f s (%.0f designs/s); round %s\n",
              rounds, static_cast<unsigned long long>(designs), wall_s,
              static_cast<double>(designs) / wall_s, describe(lat, "ms").c_str());
  std::printf("fig8-dse: Bx=2 %zu evaluated, %d infeasible, %zu Pareto (paper: 12); "
              "Bx=4 %zu evaluated, %d infeasible, %zu Pareto (paper: 21)\n",
              first2.points.size(), first2.infeasible, first2.pareto.size(), first4.points.size(),
              first4.infeasible, first4.pareto.size());

  if (!deterministic) r.fail("sweep results differ between rounds");
  check_sweep(2, first2, mae_seed, r);
  check_sweep(4, first4, mae_seed, r);
  if (!tail_supported(lat.n, kTailQ)) r.fail("too few rounds for the p75 tail");

  if (args.trace) {
    r.layer["core.sweep_s"] = median(sweep_s);
    r.layer["core.designs_evaluated"] = static_cast<double>(designs);
  }
  // Designs per second from the median round, which a few host stalls per run
  // do not move (the wall-clock average is printed above).
  const double designs_per_round = static_cast<double>(first2.points.size() + first4.points.size());
  add_end_to_end(r, designs_per_round / (lat.p50 / 1e3), lat.p50, quantile(round_ms, kTailQ),
                 median(setups));
  return r;
}

}  // namespace perfbench
