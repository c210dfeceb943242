// ledger.cpp — the per-layer ledger of a traced run: each metric times calls
// into one module's public functions, from the benchmark's own code. The
// same measurements run in every traced workload; the workload-produced
// counters (runtime.forward_ms, core.sweep_s, ...) are
// merged in by main.cpp.
//
// nn/vit ops are timed on real activations: one training-path forward
// (training=false) yields block_outputs(), and each block's ops are then
// replayed through the public infer calls of that block's layers, in the
// order VisionTransformer::infer runs them. Times are microseconds per
// forward, summed over layers.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "hw/cost_model.h"
#include "nn/gemm.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "runtime/registry.h"
#include "runtime/tf_cache.h"
#include "runtime/thread_pool.h"
#include "sc/gate_si.h"
#include "sc/softmax_iter.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/shard_set.h"
#include "vit/servable.h"
#include "workloads.h"

namespace perfbench {
namespace {

using namespace ascend;
using nn::Tensor;

const char* const kOps[] = {"patch_embed", "norm", "qkv",  "scores", "softmax", "attn_v",
                            "proj",        "fc1",  "gelu", "fc2",    "requant", "head",
                            "msa",         "mlp",  "block", "forward"};
const char* const kGemmOps[] = {"qkv", "scores", "attn_v", "proj", "fc1", "fc2"};
const char* const kPaperTag = "paper-sc-lut";
const char* const kBenchTags[] = {"fp32", "w2a2-packed", "sc-lut", "sc-emulated"};

double us_since(Clock::time_point t) { return ms_since(t) * 1e3; }

/// How a variant runs its nonlinear blocks (mirrors the servable hooks).
struct Nonlinear {
  enum Kind { kExact, kLut, kEmulated } kind = kExact;
  sc::SoftmaxIterConfig softmax;
  const runtime::SoftmaxLut* softmax_lut = nullptr;
  const runtime::GateSiLut* gelu_lut = nullptr;
  std::shared_ptr<const sc::GateAssistedSI> gelu_block;
  runtime::ThreadPool* pool = nullptr;
};

Tensor softmax_op(const Nonlinear& nl, const Tensor& scores) {
  if (nl.kind == Nonlinear::kExact) return nn::softmax_rows(scores);
  const int rows = scores.dim(0), m = scores.dim(1);
  Tensor out = Tensor::uninitialized({rows, m});
  nl.pool->parallel_for(0, rows, [&](int lo, int hi) {
    std::vector<double> row(static_cast<std::size_t>(m)), y(static_cast<std::size_t>(m));
    for (int r = lo; r < hi; ++r) {
      for (int c = 0; c < m; ++c) row[static_cast<std::size_t>(c)] = scores.at(r, c);
      if (nl.kind == Nonlinear::kLut)
        (*nl.softmax_lut)(row.data(), y.data());
      else
        y = sc::softmax_iterative_sc(row, nl.softmax);
      for (int c = 0; c < m; ++c) out.at(r, c) = static_cast<float>(y[static_cast<std::size_t>(c)]);
    }
  });
  return out;
}

Tensor gelu_op(const Nonlinear& nl, const Tensor& x) {
  if (nl.kind == Nonlinear::kExact) return nn::Gelu().infer(x);
  Tensor y = Tensor::uninitialized(x.shape());
  nl.pool->parallel_for(0, static_cast<int>(x.size()), [&](int lo, int hi) {
    for (int i = lo; i < hi; ++i) {
      const std::size_t s = static_cast<std::size_t>(i);
      y[s] = static_cast<float>(nl.kind == Nonlinear::kLut ? (*nl.gelu_lut)(x[s])
                                                           : nl.gelu_block->transfer(x[s]));
    }
  });
  return y;
}

Tensor patchify(const Tensor& images, const vit::VitConfig& cfg) {
  const int b = images.dim(0), hw = cfg.image_size, p = cfg.patch_size, grid = hw / p;
  const int t = cfg.tokens(), pd = cfg.patch_dim();
  Tensor out({b * t, pd});
  for (int img = 0; img < b; ++img)
    for (int gy = 0; gy < grid; ++gy)
      for (int gx = 0; gx < grid; ++gx) {
        const float* src = images.data() + static_cast<std::size_t>(img) * cfg.channels * hw * hw;
        float* dst = out.data() + (static_cast<std::size_t>(img) * t + gy * grid + gx) * pd;
        int idx = 0;
        for (int c = 0; c < cfg.channels; ++c)
          for (int py = 0; py < p; ++py)
            for (int px = 0; px < p; ++px) dst[idx++] = src[(c * hw + gy * p + py) * hw + gx * p + px];
      }
  return out;
}

/// Activations kept from a walk for the LUT/emulator micro-measurements.
struct Samples {
  Tensor scores;  ///< block 0 attention scores [B*H*T, T]
  Tensor hidden;  ///< block 0 fc1 output (GELU input)
};

/// Per-op microseconds per forward (median over `reps` walks after one
/// warm-up walk).
std::map<std::string, double> walk(vit::VisionTransformer& m, const Tensor& images,
                                   const Nonlinear& nl, int reps, Samples* samples) {
  const vit::VitConfig& cfg = m.config();
  const int B = images.dim(0), T = cfg.tokens(), D = cfg.dim, H = cfg.heads, dh = D / H;
  (void)m.forward(images, /*training=*/false);
  const std::vector<Tensor> outs = m.block_outputs();
  (void)m.infer(images);  // re-freeze the snapshots the training forward thawed
  const Tensor patches = patchify(images, cfg);
  const float inv_sqrt_dh = 1.0f / std::sqrt(static_cast<float>(dh));

  std::map<std::string, std::vector<double>> per_rep;
  for (int rep = 0; rep <= reps; ++rep) {
    std::map<std::string, double> t;
    auto timed = [&](const char* op, auto&& fn) {
      const auto t0 = Clock::now();
      Tensor out = fn();
      t[op] += us_since(t0);
      return out;
    };
    Tensor x0 = timed("patch_embed", [&] { return m.patch_embed().infer(patches); });
    for (int b = 0; b < B; ++b)
      for (int i = 0; i < T * D; ++i)
        x0[static_cast<std::size_t>(b) * T * D + i] += m.pos_embed().value[static_cast<std::size_t>(i)];
    for (int l = 0; l < cfg.layers; ++l) {
      const Tensor& xin = l == 0 ? x0 : outs[static_cast<std::size_t>(l - 1)];
      vit::EncoderBlock& blk = m.blocks()[static_cast<std::size_t>(l)];
      const Tensor a = timed("norm", [&] { return blk.norm1().infer(xin); });
      const Tensor qkv = timed("qkv", [&] { return blk.msa().qkv().infer(a); });
      const Tensor scores = timed("scores", [&] {
        Tensor s({B * H * T, T});
        for (int g = 0; g < B * H; ++g) {
          const float* base = qkv.data() + static_cast<std::size_t>(g / H) * T * 3 * D +
                              static_cast<std::size_t>(g % H) * dh;
          float* sp = s.data() + static_cast<std::size_t>(g) * T * T;
          nn::gemm::gemm_nt(T, T, dh, base, 3 * D, base + D, 3 * D, sp, T);
          for (int i = 0; i < T * T; ++i) sp[i] *= inv_sqrt_dh;
        }
        return s;
      });
      const Tensor attn = timed("softmax", [&] { return softmax_op(nl, scores); });
      const Tensor ctx = timed("attn_v", [&] {
        Tensor c({B * T, D});
        for (int g = 0; g < B * H; ++g) {
          const float* v = qkv.data() + static_cast<std::size_t>(g / H) * T * 3 * D + 2 * D +
                           static_cast<std::size_t>(g % H) * dh;
          nn::gemm::gemm_nn(T, dh, T, attn.data() + static_cast<std::size_t>(g) * T * T, T, v,
                            3 * D, c.data() + static_cast<std::size_t>(g / H) * T * D + (g % H) * dh, D);
        }
        return c;
      });
      const Tensor o = timed("proj", [&] { return blk.msa().proj().infer(ctx); });
      const Tensor sum1 = nn::add(xin, o);
      const Tensor x1 = timed("requant", [&] { return blk.residual_quant1().infer(sum1); });
      const Tensor b = timed("norm", [&] { return blk.norm2().infer(x1); });
      const Tensor h = timed("fc1", [&] { return blk.mlp().fc1().infer(b); });
      const Tensor g = timed("gelu", [&] { return gelu_op(nl, h); });
      const Tensor f = timed("fc2", [&] { return blk.mlp().fc2().infer(g); });
      const Tensor sum2 = nn::add(x1, f);
      (void)timed("requant", [&] { return blk.residual_quant2().infer(sum2); });
      (void)timed("msa", [&] { return blk.msa().infer(a, B, T); });
      (void)timed("mlp", [&] { return blk.mlp().infer(b); });
      (void)timed("block", [&] { return blk.infer(xin, B, T); });
      if (samples && l == 0 && rep == 0) {
        samples->scores = scores;
        samples->hidden = h;
      }
    }
    const Tensor fin = timed("norm", [&] { return m.final_norm().infer(outs.back()); });
    Tensor pooled({B, D});
    for (int b = 0; b < B; ++b)
      for (int t = 0; t < T; ++t)
        for (int d = 0; d < D; ++d)
          pooled.at(b, d) += fin[(static_cast<std::size_t>(b) * T + t) * D + d] / static_cast<float>(T);
    (void)timed("head", [&] { return m.head().infer(pooled); });
    (void)timed("forward", [&] { return m.infer(images); });
    if (rep == 0) continue;  // warm-up walk
    for (const auto& [op, us] : t) per_rep[op].push_back(us);
  }
  std::map<std::string, double> out;
  for (const auto& [op, v] : per_rep) out[op] = median(v);
  return out;
}

void put_walk(std::map<std::string, double>& out, const std::string& tag,
              const std::map<std::string, double>& us) {
  std::printf("  nn ops (%s), us per forward:", tag.c_str());
  for (const char* op : kOps) {
    const auto it = us.find(op);
    const double v = it == us.end() ? 0.0 : it->second;
    out[std::string("nn.") + op + "_us." + tag] = v;
    std::printf(" %s %.4g", op, v);
  }
  std::printf("\n");
}

/// Median per-call cost of `fn` over `batches` batches of `per_batch` calls.
template <typename Fn>
double per_call_ns(int batches, int per_batch, Fn&& fn) {
  std::vector<double> v;
  for (int b = 0; b < batches; ++b) {
    const auto t0 = Clock::now();
    for (int i = 0; i < per_batch; ++i) fn(i);
    v.push_back(ms_since(t0) * 1e6 / per_batch);
  }
  return median(v);
}

}  // namespace

std::vector<std::pair<std::string, std::string>> layer_metric_units() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const char* op : kOps) out.emplace_back(std::string("nn.") + op + "_us." + kPaperTag, "us");
  for (const char* op : kGemmOps) out.emplace_back(std::string("nn.") + op + "_gflops." + kPaperTag, "GFLOP/s");
  for (const char* tag : kBenchTags)
    for (const char* op : kOps) out.emplace_back(std::string("nn.") + op + "_us." + tag, "us");
  out.insert(out.end(), {{"nn.gemm_peak_gflops", "GFLOP/s"},
                         {"runtime.tf_cache.softmax_build_ms", "ms"},
                         {"runtime.tf_cache.softmax_row_us", "us"},
                         {"runtime.tf_cache.gelu_ns", "ns"},
                         {"runtime.forward_ms", "ms"},
                         {"runtime.batch_fill", "images"},
                         {"runtime.batches", "count"},
                         {"runtime.in_flight_peak", "count"},
                         {"runtime.pool_parallel_for_us", "us"},
                         {"serialize.cold_start_ms", "ms"},
                         {"serve.idle_rtt_us", "us"},
                         {"serve.encode_ns", "ns"},
                         {"serve.decode_ns", "ns"},
                         {"sc.softmax_row_us", "us"},
                         {"sc.gelu_transfer_ns", "ns"},
                         {"hw.cost_softmax_iter_us", "us"},
                         {"core.sweep_s", "s"},
                         {"core.designs_evaluated", "count"}});
  return out;
}

std::map<std::string, double> run_ledger(const Args& args) {
  std::map<std::string, double> out;
  const int ncpu = static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
  runtime::ThreadPool pool(ncpu);
  const vit::ScInferenceConfig sc = sc_config();
  std::printf("per-layer ledger:\n");

  // --- nn / vit at the paper topology: sc-lut, batch 16 ---------------------
  const vit::VitConfig paper = vit::VitConfig::paper_topology();
  const Tensor paper_images = make_images(16, paper.classes, paper.image_size, args.seed * 7919 + 5);
  auto paper_model = make_calibrated_model(paper, args.seed, paper_images);
  const std::string ckpt = args.scratch + "/ledger.ckpt";
  paper_model->save(ckpt);
  runtime::TfCache cache;
  Samples samples;
  {
    vit::ScServableOptions so;
    so.pool = &pool;
    so.cache = &cache;
    auto hooks = vit::make_sc_servable_in_place(*paper_model, sc, so);
    Nonlinear nl;
    nl.kind = Nonlinear::kLut;
    nl.softmax = sc.softmax;
    nl.softmax.m = paper.tokens();
    nl.softmax_lut = &cache.softmax(nl.softmax);
    nl.gelu_lut = &cache.gelu(sc.gelu_bsl, -sc.gelu_range, sc.gelu_range, 16);
    nl.pool = &pool;
    const auto us = walk(*paper_model, paper_images, nl, 3, &samples);
    put_walk(out, kPaperTag, us);
    const double n_tok = 16.0 * paper.tokens(), d = paper.dim, L = paper.layers;
    const double hid = d * paper.mlp_ratio, heads_rows = 16.0 * paper.heads * paper.tokens();
    const double dh = d / paper.heads;
    const std::map<std::string, double> flops = {
        {"qkv", 2 * n_tok * d * 3 * d * L},       {"scores", 2 * heads_rows * paper.tokens() * dh * L},
        {"attn_v", 2 * heads_rows * paper.tokens() * dh * L}, {"proj", 2 * n_tok * d * d * L},
        {"fc1", 2 * n_tok * d * hid * L},         {"fc2", 2 * n_tok * hid * d * L}};
    for (const char* op : kGemmOps)
      out[std::string("nn.") + op + "_gflops." + kPaperTag] = flops.at(op) / (us.at(op) * 1e3);
  }

  // --- nn / vit at the bench topology, batch 1, every served variant --------
  {
    const vit::VitConfig bench = vit::VitConfig::bench_topology(10);
    const Tensor images = make_images(4, bench.classes, bench.image_size, args.seed * 7919 + 6);
    auto base = make_calibrated_model(bench, args.seed, images);
    const Tensor one = take_rows(images, 0, 1);
    for (const char* tag : kBenchTags) {
      const std::string t = tag;
      auto m = base->clone_for_serving();
      if (t == "fp32") m->apply_precision(vit::PrecisionSpec::fp());
      Nonlinear nl;
      nl.pool = &pool;
      std::shared_ptr<runtime::Servable> hooks;
      if (t == "sc-lut" || t == "sc-emulated") {
        vit::ScServableOptions so;
        so.pool = &pool;
        so.cache = &cache;
        so.use_tf_cache = t == "sc-lut";
        hooks = vit::make_sc_servable_in_place(*m, sc, so);
        nl.kind = t == "sc-lut" ? Nonlinear::kLut : Nonlinear::kEmulated;
        nl.softmax = sc.softmax;
        nl.softmax.m = bench.tokens();
        nl.softmax_lut = &cache.softmax(nl.softmax);
        nl.gelu_lut = &cache.gelu(sc.gelu_bsl, -sc.gelu_range, sc.gelu_range, 16);
        nl.gelu_block = std::make_shared<const sc::GateAssistedSI>(
            sc::make_gelu_block(sc.gelu_bsl, -sc.gelu_range, sc.gelu_range, 16));
      }
      put_walk(out, t, walk(*m, one, nl, 5, nullptr));
    }
  }

  // --- gemm peak: serial gemm_nn at a fixed shape on the auto tier ----------
  {
    const int M = 512, N = 512, K = 256;
    std::vector<float> a(static_cast<std::size_t>(M) * K), b(static_cast<std::size_t>(K) * N),
        c(static_cast<std::size_t>(M) * N);
    for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<float>((i * 37 % 113) - 56) / 64.0f;
    for (std::size_t i = 0; i < b.size(); ++i) b[i] = static_cast<float>((i * 53 % 127) - 63) / 64.0f;
    const double ns = per_call_ns(15, 2, [&](int) {
      std::fill(c.begin(), c.end(), 0.0f);
      nn::gemm::gemm_nn(M, N, K, a.data(), K, b.data(), N, c.data(), N);
    });
    out["nn.gemm_peak_gflops"] = 2.0 * M * N * K / ns;
  }

  // --- runtime.tf_cache and sc: LUT vs emulator on the real activations -----
  {
    sc::SoftmaxIterConfig smc = sc.softmax;
    smc.m = paper.tokens();
    std::vector<double> build_ms;
    for (int i = 0; i < 5; ++i) {
      const auto t0 = Clock::now();
      runtime::SoftmaxLut lut(smc);
      build_ms.push_back(ms_since(t0));
    }
    out["runtime.tf_cache.softmax_build_ms"] = median(build_ms);
    const runtime::SoftmaxLut& lut = cache.softmax(smc);
    const int m = samples.scores.dim(1);
    const int rows = std::min(samples.scores.dim(0), 1024);
    std::vector<std::vector<double>> row_data(static_cast<std::size_t>(rows));
    for (int r = 0; r < rows; ++r)
      for (int c = 0; c < m; ++c) row_data[static_cast<std::size_t>(r)].push_back(samples.scores.at(r, c));
    std::vector<double> y(static_cast<std::size_t>(m));
    out["runtime.tf_cache.softmax_row_us"] =
        per_call_ns(5, rows, [&](int r) { lut(row_data[static_cast<std::size_t>(r)].data(), y.data()); }) / 1e3;
    out["sc.softmax_row_us"] =
        per_call_ns(3, 64, [&](int r) { y = sc::softmax_iterative_sc(row_data[static_cast<std::size_t>(r)], smc); }) / 1e3;

    const runtime::GateSiLut& glut = cache.gelu(sc.gelu_bsl, -sc.gelu_range, sc.gelu_range, 16);
    const sc::GateAssistedSI gblock = sc::make_gelu_block(sc.gelu_bsl, -sc.gelu_range, sc.gelu_range, 16);
    const int n = static_cast<int>(std::min<std::size_t>(samples.hidden.size(), 65536));
    volatile double sink = 0;
    out["runtime.tf_cache.gelu_ns"] = per_call_ns(5, n, [&](int i) { sink = sink + glut(samples.hidden[static_cast<std::size_t>(i)]); });
    out["sc.gelu_transfer_ns"] = per_call_ns(5, std::min(n, 8192), [&](int i) {
      sink = sink + gblock.transfer(samples.hidden[static_cast<std::size_t>(i)]);
    });
  }

  // --- runtime thread pool: empty-body parallel_for dispatch ----------------
  out["runtime.pool_parallel_for_us"] =
      per_call_ns(40, 50, [&](int) { pool.parallel_for(0, ncpu, [](int, int) {}); }) / 1e3;

  // --- serialize: checkpoint cold start (packed-ternary, mmap) --------------
  {
    std::vector<double> ms;
    for (int i = 0; i < 5; ++i) {
      runtime::ModelRegistry reg;
      const auto t0 = Clock::now();
      reg.register_from_file("w2a2-packed", ckpt, runtime::VariantKind::kPackedTernary);
      ms.push_back(ms_since(t0));
    }
    out["serialize.cold_start_ms"] = median(ms);
  }

  // --- serve: protocol codec and one request on an idle front door ----------
  {
    serve::RequestFrame f;
    f.request_id = 42;
    f.options.variant = "sc-lut";
    f.payload = row_vector(make_images(1, 10, 32, args.seed), 0);
    std::vector<std::uint8_t> bytes;
    out["serve.encode_ns"] = per_call_ns(50, 100, [&](int) {
      bytes.clear();
      serve::append_request(bytes, f);
    });
    out["serve.decode_ns"] = per_call_ns(50, 100, [&](int) {
      std::size_t consumed = 0;
      serve::RequestFrame got;
      serve::Status err{};
      std::uint64_t err_id = 0;
      (void)serve::decode_request(bytes.data(), bytes.size(), consumed, got, err, err_id);
    });

    vit::VitConfig tiny;
    tiny.image_size = 16;
    tiny.patch_size = 8;
    tiny.dim = 32;
    tiny.layers = 2;
    tiny.heads = 2;
    vit::VisionTransformer model(tiny, args.seed);
    serve::ShardSetOptions so;
    so.shards = 1;
    so.engine.max_pending = 64;
    so.engine.threads = 1;
    so.engine.max_delay = std::chrono::microseconds(500);  // as bench_serve_frontdoor
    so.engine.default_variant = "fp32";
    serve::ShardSet shards([&](int, runtime::ModelRegistry& reg) { reg.publish(vit::make_fp32_servable(model)); },
                           so);
    serve::Server server(shards);
    serve::Client client("127.0.0.1", server.port());
    serve::RequestFrame req;
    req.payload = row_vector(make_images(1, 10, 16, args.seed), 0);
    std::vector<double> rtt_us;
    for (int i = 0; i < 320; ++i) {
      req.request_id = static_cast<std::uint64_t>(i);
      const auto t0 = Clock::now();
      if (client.request(req).status != serve::Status::kOk) throw std::runtime_error("idle request failed");
      if (i >= 20) rtt_us.push_back(us_since(t0));
    }
    out["serve.idle_rtt_us"] = median(rtt_us);
    client.drain_server();
    server.wait_drained();
  }

  // --- hw: the softmax block's cost model over a slice of the DSE grid ------
  {
    std::vector<sc::SoftmaxIterConfig> cfgs;
    for (int by : {4, 8, 16, 32})
      for (int k : {2, 3, 4})
        for (int s1 : {32, 64, 128})
          for (int s2 : {2, 8, 16}) {
            sc::SoftmaxIterConfig c;
            c.bx = 2;
            c.by = by;
            c.k = k;
            c.s1 = s1;
            c.s2 = s2;
            c.alpha_x = 8.0;
            try {
              c.validate();
              cfgs.push_back(c);
            } catch (const std::invalid_argument&) {
            }
          }
    volatile double sink = 0;
    out["hw.cost_softmax_iter_us"] =
        per_call_ns(5, static_cast<int>(cfgs.size()), [&](int i) {
          sink = sink + hw::cost_softmax_iter(cfgs[static_cast<std::size_t>(i)]).area_um2();
        }) / 1e3;
  }

  for (const char* key : {"nn.gemm_peak_gflops", "runtime.tf_cache.softmax_build_ms",
                          "runtime.tf_cache.softmax_row_us", "runtime.tf_cache.gelu_ns",
                          "sc.softmax_row_us", "sc.gelu_transfer_ns", "runtime.pool_parallel_for_us",
                          "serialize.cold_start_ms", "serve.encode_ns", "serve.decode_ns",
                          "serve.idle_rtt_us", "hw.cost_softmax_iter_us"})
    std::printf("  %s %.4g\n", key, out[key]);
  return out;
}

}  // namespace perfbench
