// Bit-identity suite for the compute-kernel layer (src/hdc/kernels).
//
// The dispatch contract says every backend — scalar reference, AVX2, NEON —
// produces bit-identical results, floats included, and that the packed
// representations agree exactly with the int8/int32 scalar algebra. These
// tests enforce both halves:
//   * packed forms vs the unpacked reference (dot, planes, wire bytes),
//     across awkward dimensions (empty, size 1, word boundaries, primes);
//   * scalar_table() vs simd_table() on every kernel, bitwise;
//   * incremental plane updates vs a build_planes rebuild, from the edges of
//     each plane width through appended planes, on every backend;
//   * the classifier's norm/plane cache vs direct cosine after every
//     mutating entry point;
//   * end-to-end train → retrain → predict equality between
//     force_backend(kScalar) and force_backend(kSimd) across 1/2/8 workers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "hdc/classifier.hpp"
#include "hdc/encoder.hpp"
#include "hdc/hypervector.hpp"
#include "hdc/kernels/kernels.hpp"
#include "hdc/kernels/packed.hpp"
#include "hdc/random.hpp"
#include "hdc/wire.hpp"
#include "runtime/thread_pool.hpp"

namespace {

using namespace edgehd::hdc;
namespace kernels = edgehd::hdc::kernels;

/// Restores the auto-dispatched backend when a test that forces one exits.
struct BackendGuard {
  ~BackendGuard() { kernels::force_backend(kernels::Backend::kSimd); }
};

/// memcmp wrapper that tolerates the n == 0 / nullptr case of empty vectors.
bool bits_equal_f32(const float* a, const float* b, std::size_t n) {
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

/// Tri-state query with zeros (the degraded-operation "silence" convention).
std::vector<std::int8_t> tri_state_vector(Rng& rng, std::size_t n) {
  std::vector<std::int8_t> v(n);
  for (auto& x : v) {
    const auto r = rng.index(4);
    x = r == 0 ? std::int8_t{0} : (r % 2 != 0 ? std::int8_t{1} : std::int8_t{-1});
  }
  return v;
}

const std::vector<std::size_t> kDims = {0,   1,   2,   63,   64,  65,
                                        100, 127, 128, 1000, 4096};

class KernelDims : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KernelDims, PackUnpackRoundtrip) {
  Rng rng(11);
  const auto hv = rng.sign_vector(GetParam());
  const auto packed = kernels::pack_hv(hv);
  EXPECT_EQ(packed.dim, GetParam());
  EXPECT_EQ(packed.words.size(), kernels::packed_words(GetParam()));
  EXPECT_EQ(kernels::unpack_hv(packed), hv);
}

TEST_P(KernelDims, PackedBytesMatchWireCodec) {
  Rng rng(12);
  const auto hv = rng.sign_vector(GetParam());
  const auto wire = pack_bipolar(hv);
  const auto packed = kernels::pack_hv(hv);
  std::vector<std::uint8_t> bytes(wire_bytes_bipolar(GetParam()), 0);
  kernels::packed_to_bytes(packed, bytes.data());
  EXPECT_EQ(bytes, wire);
  const auto back = kernels::packed_from_bytes(bytes, GetParam());
  EXPECT_EQ(back.words, packed.words);
}

TEST_P(KernelDims, PackedDotMatchesScalarDot) {
  Rng rng(13);
  const auto a = rng.sign_vector(GetParam());
  const auto b = rng.sign_vector(GetParam());
  EXPECT_EQ(kernels::packed_dot(kernels::pack_hv(a), kernels::pack_hv(b)),
            dot(std::span<const std::int8_t>(a), std::span<const std::int8_t>(b)));
}

TEST_P(KernelDims, PackedHammingMatchesScalarHamming) {
  Rng rng(14);
  const auto a = rng.sign_vector(GetParam());
  const auto b = rng.sign_vector(GetParam());
  EXPECT_DOUBLE_EQ(kernels::packed_hamming(kernels::pack_hv(a), kernels::pack_hv(b)),
                   hamming(a, b));
}

TEST_P(KernelDims, PlanesDotMatchesInt64Reference) {
  Rng rng(15);
  const auto q = tri_state_vector(rng, GetParam());
  AccumHV acc(GetParam());
  for (auto& v : acc) {
    v = static_cast<std::int32_t>(rng.index(2001)) - 1000;
  }
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    expected += static_cast<std::int64_t>(q[i]) * acc[i];
  }
  EXPECT_EQ(kernels::planes_dot(kernels::pack_query(q), kernels::build_planes(acc)),
            expected);
}

INSTANTIATE_TEST_SUITE_P(Dims, KernelDims, ::testing::ValuesIn(kDims));

TEST(Planes, ExtremeMagnitudesUseAllThirtyThreePlanes) {
  // INT32_MIN needs 33-bit two's complement under the wire width rule
  // (sign bit + 32 magnitude bits); the high planes must read the
  // sign-extended bits, not shift past the 32-bit value.
  AccumHV acc = {std::numeric_limits<std::int32_t>::min(),
                 std::numeric_limits<std::int32_t>::max(), -1, 0, 1};
  std::vector<std::int8_t> q = {1, 1, -1, -1, 1};
  const auto planes = kernels::build_planes(acc);
  EXPECT_EQ(planes.nplanes, 33U);
  std::int64_t expected = 0;
  for (std::size_t i = 0; i < acc.size(); ++i) {
    expected += static_cast<std::int64_t>(q[i]) * acc[i];
  }
  EXPECT_EQ(kernels::planes_dot(kernels::pack_query(q), planes), expected);
}

TEST(Planes, ZeroAccumulatorDotsToZero) {
  AccumHV acc(100, 0);
  Rng rng(16);
  const auto q = rng.sign_vector(100);
  EXPECT_EQ(kernels::planes_dot(kernels::pack_query(q), kernels::build_planes(acc)),
            0);
}

// ---- incremental plane updates (planes_add / add_query) --------------------

/// `acc` as exactly `nplanes` two's-complement planes (build_planes picks the
/// wire width, one plane wider than -2^k needs).
kernels::PackedPlanes planes_at_width(std::span<const std::int32_t> acc,
                                      std::size_t nplanes) {
  kernels::PackedPlanes p;
  p.dim = acc.size();
  p.nplanes = nplanes;
  const std::size_t words = kernels::packed_words(p.dim);
  p.planes.assign(nplanes * words, 0);
  for (std::size_t i = 0; i < p.dim; ++i) {
    const auto u = static_cast<std::uint64_t>(static_cast<std::int64_t>(acc[i]));
    for (std::size_t b = 0; b < nplanes; ++b) {
      if ((u >> b) & 1U) {
        p.planes[b * words + i / 64] |= std::uint64_t{1} << (i % 64);
      }
    }
  }
  return p;
}

/// Lane i read back from the planes (the top plane weighs -2^(nplanes-1)).
std::int64_t lane_value(const kernels::PackedPlanes& p, std::size_t i) {
  const std::size_t words = kernels::packed_words(p.dim);
  std::int64_t v = 0;
  for (std::size_t b = 0; b < p.nplanes; ++b) {
    if (((p.planes[b * words + i / 64] >> (i % 64)) & 1U) == 0) continue;
    const std::int64_t weight = std::int64_t{1} << b;
    v += b + 1 == p.nplanes ? -weight : weight;
  }
  return v;
}

/// True when no plane has a bit set past `dim`.
bool padding_clear(const kernels::PackedPlanes& p) {
  if (p.dim % 64 == 0) return true;
  const std::size_t words = kernels::packed_words(p.dim);
  const std::uint64_t pad = ~((std::uint64_t{1} << (p.dim % 64)) - 1);
  for (std::size_t b = 0; b < p.nplanes; ++b) {
    if ((p.planes[b * words + words - 1] & pad) != 0) return false;
  }
  return true;
}

/// Seeded add/subtract sequence on the active backend. Stage k (1..20)
/// starts every lane at +(2^k - 1), -(2^k - 1) or -2^k — the edges of the
/// (k+1)-bit range — packed at exactly k + 1 planes, then adds random
/// tri-state queries with random signs. After every step the planes must
/// decode to the reference accumulator, dot like a build_planes rebuild and
/// keep their padding clear. Returns every step's plane words and, via
/// `growths`, how many steps appended a plane.
std::vector<std::vector<std::uint64_t>> run_plane_updates(
    std::size_t dim, std::uint64_t seed, std::size_t& growths) {
  Rng rng(seed);
  std::vector<std::vector<std::uint64_t>> trace;
  growths = 0;
  for (std::size_t k = 1; k <= 20; ++k) {
    const std::int32_t edge = (std::int32_t{1} << k) - 1;
    AccumHV acc(dim);
    for (auto& v : acc) {
      const auto r = rng.index(3);
      v = r == 0 ? edge : (r == 1 ? -edge : -edge - 1);
    }
    auto planes = planes_at_width(acc, k + 1);
    for (int step = 0; step < 8; ++step) {
      const auto q = tri_state_vector(rng, dim);
      const int sign = rng.index(2) == 0 ? 1 : -1;
      const std::size_t before = planes.nplanes;
      kernels::add_query(planes, kernels::pack_query(q), sign);
      for (std::size_t i = 0; i < dim; ++i) acc[i] += sign * q[i];
      EXPECT_LE(planes.nplanes, before + 1);
      if (planes.nplanes > before) ++growths;
      for (std::size_t i = 0; i < dim; ++i) {
        EXPECT_EQ(lane_value(planes, i), acc[i])
            << "dim " << dim << " stage " << k << " step " << step << " lane " << i;
      }
      const auto probe = kernels::pack_query(tri_state_vector(rng, dim));
      EXPECT_EQ(kernels::planes_dot(probe, planes),
                kernels::planes_dot(probe, kernels::build_planes(acc)))
          << "dim " << dim << " stage " << k << " step " << step;
      EXPECT_TRUE(padding_clear(planes))
          << "dim " << dim << " stage " << k << " step " << step;
      trace.push_back(planes.planes);
    }
  }
  return trace;
}

class PlaneUpdates : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PlaneUpdates, RandomSequencesMatchRebuildAndGrowPlanes) {
  std::size_t growths = 0;
  const auto trace = run_plane_updates(GetParam(), 81, growths);
  EXPECT_EQ(trace.size(), 160U);
  // Every stage starts at the edge of its range, so planes are appended.
  EXPECT_GT(growths, 0U);
  // Stage 20 ends at 21 or 22 planes.
  const std::size_t words = kernels::packed_words(GetParam());
  EXPECT_GE(trace.back().size(), 21 * words);
}

TEST_P(PlaneUpdates, ScalarAndSimdTablesWriteIdenticalPlanes) {
  if (kernels::simd_table() == nullptr) {
    GTEST_SKIP() << "no SIMD backend in this binary/CPU";
  }
  BackendGuard guard;
  std::size_t scalar_growths = 0;
  std::size_t simd_growths = 0;
  ASSERT_TRUE(kernels::force_backend(kernels::Backend::kScalar));
  const auto scalar = run_plane_updates(GetParam(), 82, scalar_growths);
  ASSERT_TRUE(kernels::force_backend(kernels::Backend::kSimd));
  const auto simd = run_plane_updates(GetParam(), 82, simd_growths);
  EXPECT_EQ(scalar, simd);
  EXPECT_EQ(scalar_growths, simd_growths);
}

INSTANTIATE_TEST_SUITE_P(Dims, PlaneUpdates,
                         ::testing::Values(1, 63, 64, 65, 333, 4096));

TEST(Planes, PlanesAddWrapsModuloWidthAndSkipsOverlappingLanes) {
  // Arbitrary plane words (every 5-bit value occurs), overlapping masks:
  // each table must give (v + inc - dec) mod 2^5 per lane and report the
  // wrap exactly when a lane steps past 15 or below -16. Six words cover a
  // full 4-word SIMD block plus a tail.
  const std::size_t words = 6, nplanes = 5;
  Rng rng(83);
  std::vector<const kernels::KernelTable*> tables = {&kernels::scalar_table()};
  if (kernels::simd_table() != nullptr) tables.push_back(kernels::simd_table());
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<std::uint64_t> planes(words * nplanes), inc(words), dec(words);
    for (auto& w : planes) w = rng.engine()();
    for (auto& w : inc) w = rng.engine()();
    for (auto& w : dec) w = rng.engine()();
    kernels::PackedPlanes before{words * 64, nplanes, planes};
    bool expect_wrap = false;
    std::vector<std::int64_t> expected(words * 64);
    for (std::size_t i = 0; i < words * 64; ++i) {
      const std::int64_t up = (inc[i / 64] >> (i % 64)) & 1U;
      const std::int64_t down = (dec[i / 64] >> (i % 64)) & 1U;
      std::int64_t v = lane_value(before, i) + up - down;
      if (v > 15 || v < -16) {
        expect_wrap = true;
        v = v > 15 ? v - 32 : v + 32;
      }
      expected[i] = v;
    }
    std::vector<std::vector<std::uint64_t>> outs;
    for (const auto* t : tables) {
      auto out = planes;
      EXPECT_EQ(t->planes_add(out.data(), words, nplanes, inc.data(), dec.data()),
                expect_wrap)
          << t->name << " trial " << trial;
      const kernels::PackedPlanes after{words * 64, nplanes, out};
      for (std::size_t i = 0; i < words * 64; ++i) {
        ASSERT_EQ(lane_value(after, i), expected[i])
            << t->name << " trial " << trial << " lane " << i;
      }
      outs.push_back(std::move(out));
    }
    for (std::size_t t = 1; t < outs.size(); ++t) EXPECT_EQ(outs[t], outs[0]);
  }
}

TEST(Planes, TrimDropsOnlyRedundantSignPlanes) {
  // Values padded out to 12 planes come back at the narrowest
  // two's-complement width (2 at least) that holds their min and max.
  Rng rng(84);
  for (const std::size_t dim : {std::size_t{1}, std::size_t{65}, std::size_t{333}}) {
    for (const std::size_t hi : {0U, 1U, 5U, 8U, 100U}) {
      AccumHV acc(dim);
      std::int64_t lo = 0, top = 0;
      for (auto& v : acc) {
        v = static_cast<std::int32_t>(rng.index(2 * hi + 2)) -
            static_cast<std::int32_t>(hi) - 1;
        lo = std::min<std::int64_t>(lo, v);
        top = std::max<std::int64_t>(top, v);
      }
      std::size_t width = 2;
      while (top >= (std::int64_t{1} << (width - 1)) ||
             lo < -(std::int64_t{1} << (width - 1))) {
        ++width;
      }
      auto planes = planes_at_width(acc, 12);
      kernels::trim_planes(planes);
      EXPECT_EQ(planes.nplanes, width) << "dim " << dim << " hi " << hi;
      EXPECT_EQ(planes.planes.size(), width * kernels::packed_words(dim));
      for (std::size_t i = 0; i < dim; ++i) EXPECT_EQ(lane_value(planes, i), acc[i]);
    }
  }
}

TEST(Planes, AddQueryValidatesShape) {
  AccumHV acc(10, 3);
  auto planes = kernels::build_planes(acc);
  const auto q = kernels::pack_query(BipolarHV(11, 1));
  EXPECT_THROW(kernels::add_query(planes, q, 1), std::invalid_argument);
  kernels::PackedPlanes empty;
  empty.dim = 11;
  EXPECT_THROW(kernels::add_query(empty, q, 1), std::invalid_argument);
}

// ---- scalar vs SIMD table, kernel by kernel --------------------------------

class BackendEquality : public ::testing::TestWithParam<std::size_t> {
 protected:
  void SetUp() override {
    if (kernels::simd_table() == nullptr) {
      GTEST_SKIP() << "no SIMD backend in this binary/CPU";
    }
  }
};

TEST_P(BackendEquality, BitKernelsAgree) {
  const auto& s = kernels::scalar_table();
  const auto& v = *kernels::simd_table();
  const std::size_t dim = GetParam();
  const std::size_t words = kernels::packed_words(dim);
  Rng rng(21);
  std::vector<std::uint64_t> a(words), b(words);
  for (auto& w : a) w = rng.engine()();
  for (auto& w : b) w = rng.engine()();
  EXPECT_EQ(s.popcount_words(a.data(), words), v.popcount_words(a.data(), words));
  EXPECT_EQ(s.xor_popcount(a.data(), b.data(), words),
            v.xor_popcount(a.data(), b.data(), words));
}

TEST_P(BackendEquality, PackSignsAgree) {
  const auto& s = kernels::scalar_table();
  const auto& v = *kernels::simd_table();
  const std::size_t dim = GetParam();
  if (dim == 0) return;
  const std::size_t words = kernels::packed_words(dim);
  Rng rng(22);
  const auto q = tri_state_vector(rng, dim);
  std::vector<std::uint64_t> sp(words), sn(words), vp(words), vn(words);
  s.pack_signs(q.data(), dim, sp.data(), sn.data());
  v.pack_signs(q.data(), dim, vp.data(), vn.data());
  EXPECT_EQ(sp, vp);
  EXPECT_EQ(sn, vn);
  // The neg-mask-less variant too (pack_hv's path).
  s.pack_signs(q.data(), dim, sp.data(), nullptr);
  v.pack_signs(q.data(), dim, vp.data(), nullptr);
  EXPECT_EQ(sp, vp);
}

TEST_P(BackendEquality, PlanesDotAgrees) {
  const auto& s = kernels::scalar_table();
  const auto& v = *kernels::simd_table();
  const std::size_t dim = GetParam();
  if (dim == 0) return;
  Rng rng(23);
  const auto q = kernels::pack_query(tri_state_vector(rng, dim));
  AccumHV acc(dim);
  for (auto& x : acc) x = static_cast<std::int32_t>(rng.index(513)) - 256;
  const auto planes = kernels::build_planes(acc);
  EXPECT_EQ(s.planes_dot(q.pos.data(), q.neg.data(), planes.planes.data(),
                         kernels::packed_words(dim), planes.nplanes),
            v.planes_dot(q.pos.data(), q.neg.data(), planes.planes.data(),
                         kernels::packed_words(dim), planes.nplanes));
}

TEST_P(BackendEquality, GemvIsBitIdenticalToScalar) {
  const auto& s = kernels::scalar_table();
  const auto& v = *kernels::simd_table();
  const std::size_t rows = GetParam();
  const std::size_t cols = 37;
  Rng rng(24);
  std::vector<float> wm(rows * cols);
  for (auto& x : wm) x = rng.gaussian();
  const auto blocked = kernels::BlockedMatrixF32::from_row_major(wm.data(), rows, cols);
  std::vector<float> x(cols);
  for (auto& f : x) f = rng.gaussian();
  std::vector<float> so(rows, 0.0F), vo(rows, 0.0F);
  s.gemv_f32(blocked.data(), rows, cols, x.data(), so.data());
  v.gemv_f32(blocked.data(), rows, cols, x.data(), vo.data());
  // Bitwise comparison: bit identity, not just numeric closeness.
  EXPECT_TRUE(bits_equal_f32(so.data(), vo.data(), rows));
}

TEST_P(BackendEquality, GemmIsBitIdenticalToScalar) {
  const auto& s = kernels::scalar_table();
  const auto& v = *kernels::simd_table();
  const std::size_t rows = GetParam();
  const std::size_t cols = 19;
  const std::size_t count = 7;  // exercises the 4-sample block + the tail
  Rng rng(25);
  std::vector<float> wm(rows * cols);
  for (auto& x : wm) x = rng.gaussian();
  const auto blocked = kernels::BlockedMatrixF32::from_row_major(wm.data(), rows, cols);
  std::vector<std::vector<float>> xs(count, std::vector<float>(cols));
  for (auto& x : xs) {
    for (auto& f : x) f = rng.gaussian();
  }
  std::vector<std::vector<float>> so(count, std::vector<float>(rows, 0.0F));
  std::vector<std::vector<float>> vo(count, std::vector<float>(rows, 0.0F));
  std::vector<const float*> xp(count);
  std::vector<float*> sp(count), vp(count);
  for (std::size_t i = 0; i < count; ++i) {
    xp[i] = xs[i].data();
    sp[i] = so[i].data();
    vp[i] = vo[i].data();
  }
  s.gemm_f32(blocked.data(), rows, cols, xp.data(), sp.data(), count);
  v.gemm_f32(blocked.data(), rows, cols, xp.data(), vp.data(), count);
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_TRUE(bits_equal_f32(so[i].data(), vo[i].data(), rows));
  }
}

TEST_P(BackendEquality, SparseGemvIsBitIdenticalToScalar) {
  const auto& s = kernels::scalar_table();
  const auto& v = *kernels::simd_table();
  const std::size_t rows = GetParam();
  const std::size_t n = 53;
  const std::size_t window = 11;
  Rng rng(26);
  std::vector<float> wm(rows * window);
  for (auto& x : wm) x = rng.gaussian();
  const auto blocked =
      kernels::BlockedMatrixF32::from_row_major(wm.data(), rows, window);
  std::vector<std::uint32_t> starts(rows);
  for (auto& st : starts) st = static_cast<std::uint32_t>(rng.index(n));
  std::vector<float> xx(2 * n);
  for (std::size_t i = 0; i < n; ++i) xx[i] = xx[n + i] = rng.gaussian();
  std::vector<float> so(rows, 0.0F), vo(rows, 0.0F);
  s.sparse_gemv_f32(blocked.data(), starts.data(), rows, window, xx.data(), so.data());
  v.sparse_gemv_f32(blocked.data(), starts.data(), rows, window, xx.data(), vo.data());
  EXPECT_TRUE(bits_equal_f32(so.data(), vo.data(), rows));
}

INSTANTIATE_TEST_SUITE_P(Dims, BackendEquality, ::testing::ValuesIn(kDims));

// ---- GEMV vs the plain row-major reference ---------------------------------

TEST(Gemv, MatchesNaiveRowMajorAccumulationBitwise) {
  const std::size_t rows = 101, cols = 29;
  Rng rng(31);
  std::vector<float> wm(rows * cols);
  for (auto& x : wm) x = rng.gaussian();
  const auto blocked = kernels::BlockedMatrixF32::from_row_major(wm.data(), rows, cols);
  std::vector<float> x(cols);
  for (auto& f : x) f = rng.gaussian();
  std::vector<float> out(rows, 0.0F);
  kernels::scalar_table().gemv_f32(blocked.data(), rows, cols, x.data(), out.data());
  for (std::size_t r = 0; r < rows; ++r) {
    float acc = 0.0F;  // the historical encoder loop: ascending j, fp32
    for (std::size_t j = 0; j < cols; ++j) acc += wm[r * cols + j] * x[j];
    EXPECT_EQ(std::bit_cast<std::uint32_t>(out[r]), std::bit_cast<std::uint32_t>(acc))
        << "row " << r;
  }
}

TEST(Gemv, BlockedLayoutZeroPadsTailRows) {
  const std::size_t rows = 13, cols = 3;  // 13 % 8 != 0
  std::vector<float> wm(rows * cols, 1.0F);
  const auto m = kernels::BlockedMatrixF32::from_row_major(wm.data(), rows, cols);
  EXPECT_EQ(m.rows(), rows);
  EXPECT_EQ(m.cols(), cols);
  // Storage covers two full 8-row blocks; rows 13..15 must be zero.
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) EXPECT_EQ(m.at(r, c), 1.0F);
  }
}

// ---- encoder equivalence across backends and worker counts -----------------

TEST(EncoderKernels, DenseAndSparseEncodersAgreeAcrossBackendsAndWorkers) {
  if (kernels::simd_table() == nullptr) {
    GTEST_SKIP() << "no SIMD backend in this binary/CPU";
  }
  BackendGuard guard;
  const std::size_t n = 17, d = 203, samples = 33;
  Rng rng(41);
  std::vector<std::vector<float>> xs(samples, std::vector<float>(n));
  for (auto& x : xs) {
    for (auto& f : x) f = rng.gaussian();
  }
  const RbfEncoder dense(n, d, 5);
  const SparseRbfEncoder sparse(n, d, 6, 0.7F);

  std::vector<std::vector<BipolarHV>> dense_runs, sparse_runs;
  for (const auto backend : {kernels::Backend::kScalar, kernels::Backend::kSimd}) {
    kernels::force_backend(backend);
    for (const std::size_t workers : {1U, 2U, 8U}) {
      edgehd::runtime::ThreadPool pool(workers);
      dense_runs.push_back(dense.encode_batch(xs, pool));
      sparse_runs.push_back(sparse.encode_batch(xs, pool));
    }
    // The serial single-sample path must agree with the batch too.
    std::vector<BipolarHV> serial(samples);
    for (std::size_t i = 0; i < samples; ++i) serial[i] = dense.encode(xs[i]);
    dense_runs.push_back(std::move(serial));
  }
  for (std::size_t i = 1; i < dense_runs.size(); ++i) {
    EXPECT_EQ(dense_runs[i], dense_runs[0]) << "dense run " << i;
  }
  for (std::size_t i = 1; i < sparse_runs.size(); ++i) {
    EXPECT_EQ(sparse_runs[i], sparse_runs[0]) << "sparse run " << i;
  }
}

TEST(EncoderKernels, EncodeRealIsBitIdenticalAcrossBackends) {
  if (kernels::simd_table() == nullptr) {
    GTEST_SKIP() << "no SIMD backend in this binary/CPU";
  }
  BackendGuard guard;
  const std::size_t n = 23, d = 129;
  Rng rng(42);
  std::vector<float> x(n);
  for (auto& f : x) f = rng.gaussian();
  const RbfEncoder enc(n, d, 5, 0.0F, RbfForm::kCos);
  kernels::force_backend(kernels::Backend::kScalar);
  const RealHV scalar_hv = enc.encode_real(x);
  kernels::force_backend(kernels::Backend::kSimd);
  const RealHV simd_hv = enc.encode_real(x);
  ASSERT_EQ(scalar_hv.size(), simd_hv.size());
  EXPECT_TRUE(bits_equal_f32(scalar_hv.data(), simd_hv.data(), d));
}

// ---- classifier cache correctness ------------------------------------------

double direct_cosine(const HDClassifier& clf, std::size_t c,
                     std::span<const std::int8_t> q) {
  return cosine(q, clf.class_accumulator(c));
}

void expect_sims_match_direct(const HDClassifier& clf,
                              std::span<const std::int8_t> q) {
  const auto sims = clf.similarities(q);
  for (std::size_t c = 0; c < clf.num_classes(); ++c) {
    EXPECT_EQ(sims[c], direct_cosine(clf, c, q)) << "class " << c;
  }
}

TEST(ClassifierCache, SimilaritiesTrackEveryMutator) {
  const std::size_t dim = 200, k = 3;
  Rng rng(51);
  HDClassifier clf(k, dim);
  const auto q = rng.sign_vector(dim);

  expect_sims_match_direct(clf, q);  // empty model: all-zero classes

  clf.add_sample(0, rng.sign_vector(dim));
  clf.add_sample(1, rng.sign_vector(dim));
  expect_sims_match_direct(clf, q);

  AccumHV acc(dim);
  for (auto& v : acc) v = static_cast<std::int32_t>(rng.index(21)) - 10;
  clf.add_accumulator(2, acc);
  expect_sims_match_direct(clf, q);

  clf.set_class_accumulator(1, acc);
  expect_sims_match_direct(clf, q);

  clf.feedback_negative(0, q);
  clf.apply_residuals();
  expect_sims_match_direct(clf, q);

  std::vector<AccumHV> ext(k, AccumHV(dim, 0));
  ext[2][7] = 5;
  clf.apply_external_residuals(ext);
  expect_sims_match_direct(clf, q);

  HDClassifier other(k, dim);
  other.add_sample(0, rng.sign_vector(dim));
  clf.merge(other);
  expect_sims_match_direct(clf, q);

  // Retraining mutates through its own path.
  edgehd::runtime::ThreadPool pool(2);
  std::vector<BipolarHV> hvs;
  std::vector<std::size_t> labels;
  for (std::size_t i = 0; i < 12; ++i) {
    hvs.push_back(rng.sign_vector(dim));
    labels.push_back(i % k);
  }
  clf.train_batch(hvs, labels, pool);
  expect_sims_match_direct(clf, q);
  clf.retrain(hvs, labels);
  expect_sims_match_direct(clf, q);
}

TEST(ClassifierCache, TriStateQueriesMatchDirectCosine) {
  // Zeroed components (Figure-12 erasures) must contribute nothing, exactly
  // like the scalar multiply-accumulate they replace.
  const std::size_t dim = 333, k = 4;
  Rng rng(52);
  HDClassifier clf(k, dim);
  for (std::size_t i = 0; i < 20; ++i) {
    clf.add_sample(i % k, rng.sign_vector(dim));
  }
  const auto q = tri_state_vector(rng, dim);
  expect_sims_match_direct(clf, q);
}

// ---- permute ----------------------------------------------------------------

TEST(Permute, MatchesModuloReference) {
  Rng rng(61);
  for (const std::size_t n : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                              std::size_t{100}}) {
    const auto v = rng.sign_vector(n);
    for (const std::size_t shift : {std::size_t{0}, std::size_t{1}, n / 2,
                                    n - 1, n, n + 3}) {
      BipolarHV expected(n);
      for (std::size_t i = 0; i < n; ++i) expected[(i + shift) % n] = v[i];
      EXPECT_EQ(permute(v, shift), expected) << "n=" << n << " shift=" << shift;
    }
  }
  EXPECT_TRUE(permute(std::vector<std::int8_t>{}, 3).empty());
}

// ---- end-to-end: train → predict under both backends ------------------------

struct E2eOutcome {
  std::vector<std::size_t> labels;
  std::vector<double> confidences;
  std::vector<double> sims;
  bool operator==(const E2eOutcome&) const = default;
};

E2eOutcome run_pipeline(std::size_t workers) {
  const std::size_t n = 12, d = 250, k = 3, train_n = 90, test_n = 30;
  Rng data_rng(71);
  std::vector<std::vector<float>> centers(k, std::vector<float>(n));
  for (auto& c : centers) {
    for (auto& f : c) f = 2.0F * data_rng.gaussian();
  }
  auto draw = [&](std::size_t count, std::vector<std::vector<float>>& xs,
                  std::vector<std::size_t>& ys) {
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t c = i % k;
      std::vector<float> x(n);
      for (std::size_t j = 0; j < n; ++j) {
        x[j] = centers[c][j] + 0.5F * data_rng.gaussian();
      }
      xs.push_back(std::move(x));
      ys.push_back(c);
    }
  };
  std::vector<std::vector<float>> train_x, test_x;
  std::vector<std::size_t> train_y, test_y;
  draw(train_n, train_x, train_y);
  draw(test_n, test_x, test_y);

  edgehd::runtime::ThreadPool pool(workers);
  const SparseRbfEncoder enc(n, d, 9, 0.5F);
  const auto train_hv = enc.encode_batch(train_x, pool);
  const auto test_hv = enc.encode_batch(test_x, pool);
  HDClassifier clf(k, d);
  clf.train_batch(train_hv, train_y, pool);
  clf.retrain(train_hv, train_y);

  E2eOutcome out;
  for (const auto& pred : clf.predict_batch(test_hv, pool)) {
    out.labels.push_back(pred.label);
    out.confidences.push_back(pred.confidence);
    out.sims.insert(out.sims.end(), pred.similarities.begin(),
                    pred.similarities.end());
  }
  return out;
}

TEST(EndToEnd, ScalarAndSimdBackendsAgreeAcrossWorkerCounts) {
  BackendGuard guard;
  ASSERT_TRUE(kernels::force_backend(kernels::Backend::kScalar));
  const E2eOutcome reference = run_pipeline(1);
  // Sanity: the pipeline actually learns something on separable blobs.
  std::size_t distinct = 1;
  for (std::size_t i = 1; i < reference.labels.size(); ++i) {
    if (reference.labels[i] != reference.labels[0]) ++distinct;
  }
  EXPECT_GT(distinct, 1U);

  for (const auto backend : {kernels::Backend::kScalar, kernels::Backend::kSimd}) {
    if (backend == kernels::Backend::kSimd && kernels::simd_table() == nullptr) {
      continue;
    }
    kernels::force_backend(backend);
    for (const std::size_t workers : {1U, 2U, 8U}) {
      EXPECT_EQ(run_pipeline(workers), reference)
          << "backend=" << (backend == kernels::Backend::kScalar ? "scalar" : "simd")
          << " workers=" << workers;
    }
  }
}

}  // namespace
