#pragma once
// common.h — shared pieces of the perfbench driver: command line, statistics,
// host fingerprint, result reporting, seeded inputs, the timing decorator
// Servable, and the reference hooks that emulate the SC circuits per
// activation (the ground truth the checks compare against).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "nn/tensor.h"
#include "runtime/servable.h"
#include "vit/config.h"
#include "vit/model.h"
#include "vit/sc_inference.h"

namespace perfbench {

namespace nn = ascend::nn;
using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double ms_since(Clock::time_point a) { return ms_between(a, Clock::now()); }

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string scratch = ".";  ///< directory for the run's checkpoint files
};

// ---------------------------------------------------------------------------
// Statistics. Every timing is reported as a median plus the highest
// percentile that still has at least ten samples beyond it, with the sample
// count; below forty samples there is no tail.

struct Summary {
  std::size_t n = 0;
  double p50 = 0.0;
  double tail_q = 0.0;  ///< percentile of `tail` (0 when there is no tail)
  double tail = 0.0;
};

/// Value at quantile q (nearest rank on the sorted copy).
double quantile(std::vector<double> v, double q);
double median(const std::vector<double>& v);
/// Whether `n` samples leave at least ten beyond quantile q (and n >= 40).
bool tail_supported(std::size_t n, double q);
Summary summarize(const std::vector<double>& v);
std::string describe(const Summary& s, const char* unit);

// ---------------------------------------------------------------------------
// Result of one workload run.

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  /// Per-layer values the workload itself produced (traced runs only); the
  /// ledger adds the micro-measured layers.
  std::map<std::string, double> layer;
  void fail(const std::string& why);
};

double peak_rss_mb();
void print_fingerprint(const std::string& workload, const std::string& topology);
/// The final stdout line: {"correct", "attempted", "failed", "metrics"}.
void print_result_line(const Result& r, const std::vector<Metric>& metrics);

// ---------------------------------------------------------------------------
// Inputs. Everything the program sees is generated from the workload seed.

/// [n, channels*size*size] synthetic images (the repo's CIFAR stand-in).
nn::Tensor make_images(int n, int classes, int image_size, std::uint64_t seed);
/// Rows [first, first+count) of `pool`, wrapping around.
nn::Tensor take_rows(const nn::Tensor& pool, int first, int count);
std::vector<float> row_vector(const nn::Tensor& t, int r);

/// A W2-A2-R16 model of topology `cfg`, weights from `seed`, with its LSQ
/// steps latched by one calibration forward over `calib` under the SC
/// nonlinear blocks of sc_config().
std::unique_ptr<ascend::vit::VisionTransformer> make_calibrated_model(
    const ascend::vit::VitConfig& cfg, std::uint64_t seed, const nn::Tensor& calib);

/// The SC configuration every SC variant serves: the iterative softmax at its
/// default design point (m follows the token count) plus the gate-assisted SI
/// GELU at 8-bit BSL.
ascend::vit::ScInferenceConfig sc_config();

/// Installs per-activation circuit emulation on `model` (bench-side, apart
/// from the servable hooks): every softmax row through
/// sc::softmax_iterative_sc and every GELU input through
/// GateAssistedSI::transfer, serially.
void install_emulator_hooks(ascend::vit::VisionTransformer& model,
                            const ascend::vit::ScInferenceConfig& cfg);

int argmax_row(const float* logits, int n);
double max_abs_diff(const float* a, const float* b, int n);

// ---------------------------------------------------------------------------
// Traced runs: a Servable decorator that times every forward.

struct ForwardRecord {
  Clock::time_point start, end;
  int rows = 0;
};

class ForwardLog {
 public:
  void record(const ForwardRecord& r);
  void enter();
  void leave() { --in_flight_; }
  int peak() const { return peak_.load(); }
  std::vector<ForwardRecord> records() const;

 private:
  mutable std::mutex mu_;
  std::vector<ForwardRecord> records_;  // guarded by mu_
  std::atomic<int> in_flight_{0};
  std::atomic<int> peak_{0};
};

class TimedServable final : public ascend::runtime::Servable {
 public:
  TimedServable(std::shared_ptr<const ascend::runtime::Servable> inner, ForwardLog& log)
      : inner_(std::move(inner)), log_(log) {}
  nn::Tensor infer(const nn::Tensor& batch) const override;
  int input_dim() const override { return inner_->input_dim(); }
  int output_dim() const override { return inner_->output_dim(); }
  const std::string& variant_id() const override { return inner_->variant_id(); }

 private:
  std::shared_ptr<const ascend::runtime::Servable> inner_;
  ForwardLog& log_;
};

/// runtime.forward_ms / batch_fill / batches / in_flight_peak from a log.
void add_forward_metrics(const ForwardLog& log, Result& r);

}  // namespace perfbench
