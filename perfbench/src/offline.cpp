// paper-offline — offline SC inference at the paper topology (7 layers,
// 4 heads, dim 256, 64 tokens), W2A2, served as `sc-lut` from a cold-started
// checkpoint. nproc callers drive InferenceEngine::predict_batch with batches
// of kBatch images (a closed loop: each caller waits for its batch).

#include <algorithm>
#include <cmath>
#include <atomic>
#include <cstdio>
#include <numeric>
#include <random>
#include <thread>

#include "runtime/engine.h"
#include "runtime/registry.h"
#include "runtime/tf_cache.h"
#include "vit/servable.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ascend;

constexpr int kPool = 64;         // distinct images
constexpr int kBatch = 16;        // images per predict_batch call
constexpr int kMinCalls = 40;     // enough calls for a p75 tail
constexpr double kTailQ = 0.75;
constexpr int kSetups = 5;
constexpr int kCheckImages = 2;   // emulator-reference sample
// sc-lut serves its linears through the packed-ternary kernels, the reference
// forward through dense fake-quantized GEMMs: the two agree to float rounding.
constexpr double kEmulatorTol = 1e-3;

struct Served {
  std::unique_ptr<runtime::TfCache> cache;  // outlives the servables below
  std::shared_ptr<runtime::ModelRegistry> registry;
  std::unique_ptr<runtime::InferenceEngine> engine;
};

Served cold_start(const std::string& path, const vit::ScInferenceConfig& sc, ForwardLog* log,
                  const nn::Tensor& warm, double* seconds) {
  const auto t0 = Clock::now();
  Served s;
  // A fresh LUT cache per start: every set-up pays the softmax/GELU table
  // builds, as a new process would.
  s.cache = std::make_unique<runtime::TfCache>();
  vit::ScServableOptions so;
  so.cache = s.cache.get();
  runtime::RegisterFromFileOptions ro;
  ro.sc_config = &sc;
  ro.sc_options = &so;
  s.registry = std::make_shared<runtime::ModelRegistry>();
  s.registry->register_from_file("sc-lut", path, runtime::VariantKind::kScLut, ro);
  if (log) s.registry->publish(std::make_shared<TimedServable>(s.registry->get("sc-lut"), *log));
  runtime::EngineOptions eo;
  eo.default_variant = "sc-lut";
  s.engine = std::make_unique<runtime::InferenceEngine>(s.registry, eo);
  (void)s.engine->predict_batch(warm, "sc-lut");
  *seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  return s;
}

}  // namespace

Result run_paper_offline(const Args& args) {
  Result r;
  const vit::VitConfig cfg = vit::VitConfig::paper_topology();
  const vit::ScInferenceConfig sc = sc_config();

  // Inputs: the image pool, split into kPool / kBatch fixed batches by a
  // seeded permutation, and a calibrated checkpoint.
  const nn::Tensor pool = make_images(kPool, cfg.classes, cfg.image_size, args.seed * 7919 + 1);
  std::vector<int> order(kPool);
  std::iota(order.begin(), order.end(), 0);
  std::shuffle(order.begin(), order.end(), std::mt19937_64(args.seed));
  std::vector<nn::Tensor> batches;
  for (int b = 0; b < kPool / kBatch; ++b) {
    nn::Tensor t({kBatch, pool.dim(1)});
    for (int i = 0; i < kBatch; ++i) {
      const std::vector<float> row = row_vector(pool, order[static_cast<std::size_t>(b * kBatch + i)]);
      std::copy(row.begin(), row.end(), t.data() + static_cast<std::size_t>(i) * pool.dim(1));
    }
    batches.push_back(std::move(t));
  }
  const std::string ckpt = args.scratch + "/paper.ckpt";
  make_calibrated_model(cfg, args.seed, batches[0])->save(ckpt);

  ForwardLog log;
  std::vector<double> setups;
  Served served;
  const nn::Tensor warm = take_rows(batches[1], 0, 1);
  for (int i = 0; i < kSetups; ++i) {
    double s = 0;
    // Tear the previous start down first, engine before the LUTs it serves.
    served.engine.reset();
    served.registry.reset();
    served.cache.reset();
    served = cold_start(ckpt, sc, args.trace && i + 1 == kSetups ? &log : nullptr, warm, &s);
    setups.push_back(s);
  }
  std::printf("paper-offline: set-up %s\n", describe(summarize(setups), "s").c_str());

  // Served logits per batch, computed before the run, for the label check.
  const auto servable = served.registry->get("sc-lut");
  std::vector<nn::Tensor> served_logits;
  for (const nn::Tensor& b : batches) served_logits.push_back(servable->infer(b));
  for (const nn::Tensor& lg : served_logits)
    for (std::size_t i = 0; i < lg.size(); ++i)
      if (!std::isfinite(lg[i])) {
        r.fail("served sc-lut logits are not finite");
        break;
      }

  // Load: closed loop, nproc callers, until --seconds passed and at least
  // kMinCalls calls completed.
  const int callers = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<int> issued{0}, completed{0}, errors{0};
  std::mutex mu;
  std::vector<double> latency_ms;
  std::vector<std::pair<int, std::vector<int>>> labels;  // (batch index, labels)
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(args.seconds));
  Clock::time_point last_end = start;
  std::vector<std::thread> threads;
  for (int c = 0; c < callers; ++c)
    threads.emplace_back([&] {
      while (Clock::now() < deadline || completed.load() < kMinCalls) {
        const int i = issued++;
        const int b = i % static_cast<int>(batches.size());
        const auto t0 = Clock::now();
        try {
          std::vector<int> got = served.engine->predict_batch(batches[static_cast<std::size_t>(b)], "sc-lut");
          const auto t1 = Clock::now();
          std::lock_guard<std::mutex> lock(mu);
          latency_ms.push_back(ms_between(t0, t1));
          labels.emplace_back(b, std::move(got));
          last_end = std::max(last_end, t1);
        } catch (const std::exception& e) {
          ++errors;
          std::printf("predict_batch failed: %s\n", e.what());
        }
        ++completed;
      }
    });
  for (auto& t : threads) t.join();

  const double wall_s = std::chrono::duration<double>(last_end - start).count();
  const double images = static_cast<double>(latency_ms.size()) * kBatch;
  r.attempted = static_cast<std::uint64_t>(issued.load());
  r.failed = static_cast<std::uint64_t>(errors.load());
  const Summary lat = summarize(latency_ms);
  std::printf("paper-offline: %d callers x batch %d, %.0f images in %.2f s (%.1f images/s); "
              "call latency %s\n",
              callers, kBatch, images, wall_s, images / wall_s, describe(lat, "ms").c_str());

  // Check 1: predict_batch labels == argmax of the served logits.
  std::size_t mismatched = 0;
  for (const auto& [b, got] : labels) {
    const nn::Tensor& lg = served_logits[static_cast<std::size_t>(b)];
    for (int i = 0; i < kBatch; ++i)
      if (got[static_cast<std::size_t>(i)] !=
          argmax_row(lg.data() + static_cast<std::size_t>(i) * cfg.classes, cfg.classes))
        ++mismatched;
  }
  if (mismatched) r.fail(std::to_string(mismatched) + " predict_batch labels differ from the served logits' argmax");

  // Check 2: sc-lut logits against the circuit emulators (the ground truth),
  // through the training-path forward of an independently loaded model.
  {
    auto ref_model = vit::VisionTransformer::load(ckpt);
    install_emulator_hooks(*ref_model, sc);
    const nn::Tensor sample = take_rows(batches[0], 0, kCheckImages);
    const nn::Tensor ref = ref_model->forward(sample, /*training=*/false);
    double diff = 0, scale = 0;
    for (int i = 0; i < kCheckImages; ++i) {
      const float* a = served_logits[0].data() + static_cast<std::size_t>(i) * cfg.classes;
      const float* e = ref.data() + static_cast<std::size_t>(i) * cfg.classes;
      diff = std::max(diff, max_abs_diff(a, e, cfg.classes));
      for (int c = 0; c < cfg.classes; ++c) scale = std::max(scale, static_cast<double>(std::fabs(e[c])));
      if (argmax_row(a, cfg.classes) != argmax_row(e, cfg.classes))
        r.fail("sc-lut argmax differs from the emulator reference on image " + std::to_string(i));
    }
    if (!(scale > 0) || !std::isfinite(diff)) r.fail("emulator reference logits are degenerate");
    std::printf("paper-offline: sc-lut vs emulator max |dlogit| %.3g (logit scale %.3g, tolerance %.0e x scale)\n",
                diff, scale, kEmulatorTol);
    if (!(diff <= kEmulatorTol * std::max(scale, 1.0)))
      r.fail("sc-lut logits differ from the emulator reference beyond tolerance");
  }
  if (!tail_supported(lat.n, kTailQ)) r.fail("too few calls for the p75 tail");

  if (args.trace) add_forward_metrics(log, r);
  // Throughput by Little's law over the closed loop: callers x batch / median
  // call latency, which a few host stalls per run do not move (the wall-clock
  // average is printed above).
  add_end_to_end(r, callers * kBatch / (lat.p50 / 1e3), lat.p50, quantile(latency_ms, kTailQ),
                 median(setups));
  return r;
}

}  // namespace perfbench
