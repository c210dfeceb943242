#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <thread>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "nn/gemm.h"
#include "sc/gate_si.h"
#include "sc/softmax_iter.h"
#include "vit/dataset.h"
#include "vit/servable.h"

namespace perfbench {

using ascend::vit::VisionTransformer;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t idx = static_cast<std::size_t>(std::llround(pos));
  return v[std::min(idx, v.size() - 1)];
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

bool tail_supported(std::size_t n, double q) {
  return n >= 40 && static_cast<double>(n) * (1.0 - q) >= 10.0;
}

Summary summarize(const std::vector<double>& v) {
  Summary s;
  s.n = v.size();
  s.p50 = median(v);
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.75}) {
    if (tail_supported(s.n, q)) {
      s.tail_q = q;
      s.tail = quantile(v, q);
      break;
    }
  }
  return s;
}

std::string describe(const Summary& s, const char* unit) {
  char buf[160];
  if (s.tail_q > 0)
    std::snprintf(buf, sizeof(buf), "p50 %.4g %s, p%g %.4g %s (n=%zu)", s.p50, unit,
                  s.tail_q * 100.0, s.tail, unit, s.n);
  else
    std::snprintf(buf, sizeof(buf), "p50 %.4g %s (n=%zu, too few for a tail)", s.p50, unit, s.n);
  return buf;
}

void Result::fail(const std::string& why) {
  correct = false;
  std::printf("CHECK FAILED: %s\n", why.c_str());
  std::fflush(stdout);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

void print_fingerprint(const std::string& workload, const std::string& topology) {
  const char* omp_env = std::getenv("OMP_NUM_THREADS");
  const char* fast = std::getenv("ASCEND_FAST");
#ifdef _OPENMP
  const int omp_threads = omp_get_max_threads();
#else
  const int omp_threads = 0;
#endif
#ifdef NDEBUG
  const char* build = "release";
#else
  const char* build = "debug";
#endif
  std::printf(
      "# fingerprint {\"workload\": \"%s\", \"nproc\": %u, \"gemm_kernel\": \"%s\", "
      "\"omp_max_threads\": %d, \"OMP_NUM_THREADS\": \"%s\", \"fast_mode\": %d, "
      "\"compiler\": \"%s\", \"build\": \"%s\", \"topology\": \"%s\"}\n",
      workload.c_str(), std::thread::hardware_concurrency(), ascend::nn::gemm::kernel_name(),
      omp_threads, omp_env ? omp_env : "unset",
      fast != nullptr && fast[0] != '\0' && fast[0] != '0' ? 1 : 0, __VERSION__, build,
      topology.c_str());
}

void print_result_line(const Result& r, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[96];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

nn::Tensor make_images(int n, int classes, int image_size, std::uint64_t seed) {
  return ascend::vit::make_synthetic_vision(n, classes, seed, image_size).images;
}

nn::Tensor take_rows(const nn::Tensor& pool, int first, int count) {
  const int cols = pool.dim(1);
  nn::Tensor out({count, cols});
  for (int r = 0; r < count; ++r) {
    const int src = (first + r) % pool.dim(0);
    std::copy(pool.data() + static_cast<std::size_t>(src) * cols,
              pool.data() + static_cast<std::size_t>(src + 1) * cols,
              out.data() + static_cast<std::size_t>(r) * cols);
  }
  return out;
}

std::vector<float> row_vector(const nn::Tensor& t, int r) {
  const int cols = t.dim(1);
  return std::vector<float>(t.data() + static_cast<std::size_t>(r) * cols,
                            t.data() + static_cast<std::size_t>(r + 1) * cols);
}

std::unique_ptr<VisionTransformer> make_calibrated_model(const ascend::vit::VitConfig& cfg,
                                                         std::uint64_t seed,
                                                         const nn::Tensor& calib) {
  auto model = std::make_unique<VisionTransformer>(cfg, seed);
  model->apply_precision(ascend::vit::PrecisionSpec::w2a2r16());
  // Latch the LSQ steps under the SC nonlinear blocks the model is served
  // with: steps latched under exact softmax/GELU are too coarse for the SC
  // activations, and the residual stream of the SC variants collapses to 0.
  auto hooks = ascend::vit::make_sc_servable_in_place(*model, sc_config());
  (void)model->forward(calib, /*training=*/false);
  return model;
}

ascend::vit::ScInferenceConfig sc_config() {
  ascend::vit::ScInferenceConfig cfg;  // iterative softmax at the default design point
  cfg.use_sc_gelu = true;
  cfg.gelu_bsl = 8;
  cfg.gelu_range = 6.0;
  return cfg;
}

void install_emulator_hooks(VisionTransformer& model, const ascend::vit::ScInferenceConfig& cfg) {
  if (cfg.use_sc_softmax) {
    ascend::sc::SoftmaxIterConfig sm = cfg.softmax;
    sm.m = model.config().tokens();
    model.set_softmax_hook([sm](const nn::Tensor& scores) {
      const int rows = scores.dim(0), m = scores.dim(1);
      nn::Tensor out({rows, m});
      std::vector<double> row(static_cast<std::size_t>(m));
      for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < m; ++c) row[static_cast<std::size_t>(c)] = scores.at(r, c);
        const std::vector<double> y = ascend::sc::softmax_iterative_sc(row, sm);
        for (int c = 0; c < m; ++c) out.at(r, c) = static_cast<float>(y[static_cast<std::size_t>(c)]);
      }
      return out;
    });
  }
  if (cfg.use_sc_gelu) {
    auto block = std::make_shared<const ascend::sc::GateAssistedSI>(
        ascend::sc::make_gelu_block(cfg.gelu_bsl, -cfg.gelu_range, cfg.gelu_range, 16));
    model.set_gelu_hook([block](const nn::Tensor& x) {
      nn::Tensor y(x.shape());
      for (std::size_t i = 0; i < x.size(); ++i) y[i] = static_cast<float>(block->transfer(x[i]));
      return y;
    });
  }
}

int argmax_row(const float* logits, int n) {
  int best = 0;
  for (int i = 1; i < n; ++i)
    if (logits[i] > logits[best]) best = i;
  return best;
}

double max_abs_diff(const float* a, const float* b, int n) {
  double d = 0.0;
  for (int i = 0; i < n; ++i) d = std::max(d, std::fabs(static_cast<double>(a[i]) - b[i]));
  return d;
}

void ForwardLog::record(const ForwardRecord& r) {
  std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(r);
}

void ForwardLog::enter() {
  const int now = ++in_flight_;
  int seen = peak_.load();
  while (now > seen && !peak_.compare_exchange_weak(seen, now)) {
  }
}

std::vector<ForwardRecord> ForwardLog::records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

nn::Tensor TimedServable::infer(const nn::Tensor& batch) const {
  log_.enter();
  ForwardRecord rec;
  rec.rows = batch.dim(0);
  rec.start = Clock::now();
  try {
    nn::Tensor out = inner_->infer(batch);
    rec.end = Clock::now();
    log_.leave();
    log_.record(rec);
    return out;
  } catch (...) {
    log_.leave();
    throw;
  }
}

void add_forward_metrics(const ForwardLog& log, Result& r) {
  std::vector<double> fwd_ms;
  double rows = 0;
  for (const ForwardRecord& rec : log.records()) {
    fwd_ms.push_back(ms_between(rec.start, rec.end));
    rows += rec.rows;
  }
  const Summary s = summarize(fwd_ms);
  std::printf("  runtime.forward_ms: %s\n", describe(s, "ms").c_str());
  r.layer["runtime.forward_ms"] = s.p50;
  r.layer["runtime.batches"] = static_cast<double>(fwd_ms.size());
  r.layer["runtime.batch_fill"] = fwd_ms.empty() ? 0.0 : rows / static_cast<double>(fwd_ms.size());
  r.layer["runtime.in_flight_peak"] = log.peak();
}

}  // namespace perfbench
