// Kernel-layer throughput bench: times the packed popcount path against the
// int8/int32 scalar baseline it replaced, the blocked GEMV/GEMM encoders
// against the naive row-major loop, the scalar vs SIMD backends against each
// other, and the in-place bit-plane class update against a per-update
// build_planes rebuild. Writes BENCH_kernels.json and prints the >= 2x
// batch-predict check (packed popcount vs int8 scalar at D = 4096,
// single-threaded).
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "hdc/classifier.hpp"
#include "hdc/encoder.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/kernels/kernels.hpp"
#include "hdc/kernels/packed.hpp"
#include "hdc/random.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace edgehd;
using namespace edgehd::hdc;
namespace kernels = edgehd::hdc::kernels;

constexpr std::size_t kDim = 4096;
constexpr std::size_t kClasses = 10;
constexpr std::size_t kQueries = 512;
constexpr std::size_t kFeatures = 64;
constexpr std::size_t kBatch = 256;

/// Runs `fn` until ~0.4 s has elapsed (minimum 3 iterations) and returns
/// seconds per iteration.
template <typename Fn>
double time_per_iter(Fn&& fn) {
  using clock = std::chrono::steady_clock;
  fn();  // warm-up
  std::size_t iters = 0;
  const auto begin = clock::now();
  double elapsed = 0.0;
  while (elapsed < 0.4 || iters < 3) {
    fn();
    ++iters;
    elapsed = std::chrono::duration<double>(clock::now() - begin).count();
  }
  return elapsed / static_cast<double>(iters);
}

volatile std::int64_t g_sink_i64 = 0;
volatile double g_sink_f64 = 0.0;

struct Result {
  std::string name;
  double baseline_sps = 0.0;  ///< samples (or ops) per second, old path
  double packed_sps = 0.0;    ///< same work on the kernel path
  double speedup = 0.0;
};

/// The classifier predict loop exactly as it existed before the kernel
/// layer: per-query, per-class cosine(int8, int32) with the norm recomputed
/// every call.
std::vector<std::size_t> predict_batch_int8_scalar(
    const HDClassifier& clf, const std::vector<BipolarHV>& queries) {
  std::vector<std::size_t> out(queries.size());
  std::vector<double> sims(clf.num_classes());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    for (std::size_t c = 0; c < clf.num_classes(); ++c) {
      sims[c] = cosine(queries[i], clf.class_accumulator(c));
    }
    out[i] = static_cast<std::size_t>(
        std::max_element(sims.begin(), sims.end()) - sims.begin());
  }
  return out;
}

Result bench_batch_predict() {
  Rng rng(1);
  HDClassifier clf(kClasses, kDim);
  for (std::size_t c = 0; c < kClasses; ++c) {
    for (int i = 0; i < 64; ++i) clf.add_sample(c, rng.sign_vector(kDim));
  }
  std::vector<BipolarHV> queries(kQueries);
  for (auto& q : queries) q = rng.sign_vector(kDim);
  std::vector<kernels::PackedQuery> packed(kQueries);
  for (std::size_t i = 0; i < kQueries; ++i) {
    packed[i] = kernels::pack_query(queries[i]);
  }
  runtime::ThreadPool pool(1);
  clf.warm_cache();

  const double t_base = time_per_iter([&] {
    g_sink_i64 = static_cast<std::int64_t>(
        predict_batch_int8_scalar(clf, queries).back());
  });
  const double t_packed = time_per_iter([&] {
    g_sink_i64 = static_cast<std::int64_t>(clf.predict_batch(packed, pool).back().label);
  });

  Result r{"batch_predict_d4096_k10_1thread",
           static_cast<double>(kQueries) / t_base,
           static_cast<double>(kQueries) / t_packed, 0.0};
  r.speedup = r.packed_sps / r.baseline_sps;
  return r;
}

Result bench_packed_dot() {
  Rng rng(2);
  const auto a = rng.sign_vector(kDim);
  const auto b = rng.sign_vector(kDim);
  const auto pa = kernels::pack_hv(a);
  const auto pb = kernels::pack_hv(b);
  constexpr int kReps = 512;
  const double t_base = time_per_iter([&] {
    std::int64_t s = 0;
    for (int i = 0; i < kReps; ++i) {
      s += dot(std::span<const std::int8_t>(a), std::span<const std::int8_t>(b));
    }
    g_sink_i64 = s;
  });
  const double t_packed = time_per_iter([&] {
    std::int64_t s = 0;
    for (int i = 0; i < kReps; ++i) s += kernels::packed_dot(pa, pb);
    g_sink_i64 = s;
  });
  Result r{"packed_dot_d4096", kReps / t_base, kReps / t_packed, 0.0};
  r.speedup = r.packed_sps / r.baseline_sps;
  return r;
}

/// Dense encode: the historical row-major naive loop vs the blocked GEMV
/// kernel (whatever backend is active).
Result bench_gemv_encode() {
  Rng rng(3);
  const RbfEncoder enc(kFeatures, kDim, 7);
  const auto x = rng.gaussian_vector(kFeatures);
  // Naive baseline: same draws, row-major storage, scalar loop.
  Rng w_rng(derive_seed(7, 0));
  std::vector<float> row_major(kDim * kFeatures);
  const float scale = 1.0F / (2.0F * std::sqrt(static_cast<float>(kFeatures)));
  for (auto& w : row_major) w = w_rng.gaussian() * scale;

  Rng b_rng(derive_seed(7, 1));
  std::vector<float> bias(kDim);
  for (auto& b : bias) b = b_rng.uniform(0.0F, 6.2831853F);

  // Full historical encode: row-major projection loop + cos*sin + sign.
  const double t_base = time_per_iter([&] {
    std::int64_t sink = 0;
    for (std::size_t i = 0; i < kDim; ++i) {
      const float* row = row_major.data() + i * kFeatures;
      float proj = 0.0F;
      for (std::size_t j = 0; j < kFeatures; ++j) proj += row[j] * x[j];
      const float h = std::cos(proj + bias[i]) * std::sin(proj);
      sink += h < 0.0F ? -1 : 1;
    }
    g_sink_i64 = sink;
  });
  const double t_kernel = time_per_iter([&] {
    g_sink_i64 = enc.encode(x).back();
  });
  // Per-sample rates (the kernel side also pays cos/sin + sign).
  Result r{"dense_encode_d4096_n64", 1.0 / t_base, 1.0 / t_kernel, 0.0};
  r.speedup = r.packed_sps / r.baseline_sps;
  return r;
}

/// encode_batch GEMM vs per-sample GEMV encode, single-threaded.
Result bench_gemm_encode_batch() {
  Rng rng(4);
  const RbfEncoder enc(kFeatures, kDim, 7);
  std::vector<std::vector<float>> xs(kBatch);
  for (auto& x : xs) x = rng.gaussian_vector(kFeatures);
  runtime::ThreadPool pool(1);
  const double t_per_sample = time_per_iter([&] {
    std::int64_t s = 0;
    for (const auto& x : xs) s += enc.encode(x).back();
    g_sink_i64 = s;
  });
  const double t_batch = time_per_iter([&] {
    g_sink_i64 = enc.encode_batch(xs, pool).back().back();
  });
  Result r{"encode_batch_gemm_d4096_n64_b256",
           static_cast<double>(kBatch) / t_per_sample,
           static_cast<double>(kBatch) / t_batch, 0.0};
  r.speedup = r.packed_sps / r.baseline_sps;
  return r;
}

/// Scalar vs SIMD backend on the same packed predict workload.
Result bench_simd_vs_scalar() {
  Rng rng(5);
  HDClassifier clf(kClasses, kDim);
  for (std::size_t c = 0; c < kClasses; ++c) {
    for (int i = 0; i < 64; ++i) clf.add_sample(c, rng.sign_vector(kDim));
  }
  std::vector<kernels::PackedQuery> packed(kQueries);
  for (auto& q : packed) q = kernels::pack_query(rng.sign_vector(kDim));
  runtime::ThreadPool pool(1);
  clf.warm_cache();

  kernels::force_backend(kernels::Backend::kScalar);
  const double t_scalar = time_per_iter([&] {
    g_sink_i64 = static_cast<std::int64_t>(clf.predict_batch(packed, pool).back().label);
  });
  const bool have_simd = kernels::force_backend(kernels::Backend::kSimd);
  const double t_simd = have_simd ? time_per_iter([&] {
    g_sink_i64 = static_cast<std::int64_t>(clf.predict_batch(packed, pool).back().label);
  })
                                  : t_scalar;
  Result r{"predict_scalar_vs_simd_backend",
           static_cast<double>(kQueries) / t_scalar,
           static_cast<double>(kQueries) / t_simd, 0.0};
  r.speedup = r.packed_sps / r.baseline_sps;
  return r;
}

/// One perceptron class update at D = 4096: the accumulator step plus a
/// build_planes rebuild (the retrain path before incremental planes) vs the
/// same step plus an in-place kernels::add_query ripple. Each op is one
/// signed update; +q / -q pairs keep the magnitudes from drifting.
Result bench_class_update() {
  Rng rng(6);
  AccumHV acc(kDim, 0);
  for (int i = 0; i < 64; ++i) bundle_into(acc, rng.sign_vector(kDim));
  constexpr std::size_t kUpdates = 64;
  std::vector<BipolarHV> qs(kUpdates);
  std::vector<kernels::PackedQuery> packed(kUpdates);
  for (std::size_t i = 0; i < kUpdates; ++i) {
    qs[i] = rng.sign_vector(kDim);
    packed[i] = kernels::pack_query(qs[i]);
  }
  const double t_rebuild = time_per_iter([&] {
    std::int64_t s = 0;
    for (const auto& q : qs) {
      bundle_into(acc, q);
      s += static_cast<std::int64_t>(kernels::build_planes(acc).nplanes);
      unbundle_from(acc, q);
      s += static_cast<std::int64_t>(kernels::build_planes(acc).nplanes);
    }
    g_sink_i64 = s;
  });
  kernels::PackedPlanes planes = kernels::build_planes(acc);
  const double t_ripple = time_per_iter([&] {
    for (std::size_t i = 0; i < kUpdates; ++i) {
      bundle_into(acc, qs[i]);
      kernels::add_query(planes, packed[i], 1);
      unbundle_from(acc, qs[i]);
      kernels::add_query(planes, packed[i], -1);
    }
    g_sink_i64 = static_cast<std::int64_t>(planes.nplanes);
  });
  Result r{"class_update_d4096", 2.0 * kUpdates / t_rebuild,
           2.0 * kUpdates / t_ripple, 0.0};
  r.speedup = r.packed_sps / r.baseline_sps;
  return r;
}

}  // namespace

int main() {
  std::printf("bench_kernels: backend=%s  D=%zu K=%zu queries=%zu\n",
              kernels::backend_name(), kDim, kClasses, kQueries);

  std::vector<Result> results;
  results.push_back(bench_packed_dot());
  results.push_back(bench_gemv_encode());
  results.push_back(bench_gemm_encode_batch());
  results.push_back(bench_batch_predict());
  results.push_back(bench_simd_vs_scalar());  // leaves SIMD (or scalar) active
  results.push_back(bench_class_update());

  for (const auto& r : results) {
    std::printf("  %-36s  baseline %12.0f /s   kernel %12.0f /s   speedup %5.2fx\n",
                r.name.c_str(), r.baseline_sps, r.packed_sps, r.speedup);
  }

  const auto& predict = results[3];
  const bool pass = predict.speedup >= 2.0;
  std::printf("acceptance: batch predict packed-vs-int8 speedup %.2fx (>= 2x): %s\n",
              predict.speedup, pass ? "PASS" : "FAIL");

  std::FILE* f = std::fopen("BENCH_kernels.json", "w");
  if (f != nullptr) {
    std::fprintf(f, "{\n  \"backend\": \"%s\",\n  \"dim\": %zu,\n",
                 kernels::backend_name(), kDim);
    std::fprintf(f, "  \"results\": [\n");
    for (std::size_t i = 0; i < results.size(); ++i) {
      const auto& r = results[i];
      std::fprintf(f,
                   "    {\"name\": \"%s\", \"baseline_per_sec\": %.1f, "
                   "\"kernel_per_sec\": %.1f, \"speedup\": %.3f}%s\n",
                   r.name.c_str(), r.baseline_sps, r.packed_sps, r.speedup,
                   i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ],\n  \"batch_predict_speedup_ok\": %s\n}\n",
                 pass ? "true" : "false");
    std::fclose(f);
    std::printf("wrote BENCH_kernels.json\n");
  }
  return pass ? 0 : 1;
}
