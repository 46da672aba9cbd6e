// AVX2+FMA backend — the only TU compiled with -mavx2 -mfma (and
// -ffp-contract=off, so the *only* fused operations are the explicit
// _mm256_fmadd_pd intrinsics below; scalar tail code stays mul+add unless it
// calls std::fma on purpose).
//
// Determinism invariant shared by every GEMM entry here: an output element
// c[i,j] is produced by one accumulator lane folding
//     acc = fma(a[i,k], b[k,j], acc)   for k = 0, 1, …, K-1
// seeded by the init mode. The fold never depends on the row range, the
// 4-row blocking, the 8-column panel, or whether the packed or unpacked
// variant ran — so results are bitwise identical across thread counts,
// m-size paths, and batched-vs-per-sample call shapes. The single exception
// is the n==1 column-output path, which uses a fixed 4-accumulator dot
// (function of K alone — still deterministic and shape-consistent, it just
// folds in a different fixed order than the n>1 kernels).
//
// Elementwise kernels use no FMA and only correctly-rounded lane ops, so
// they are bitwise-equal to the scalar backend (tested exactly). The fused
// LSTM cell is the exception: it is fast_math-gated like the GEMMs, and
// trades libm for a polynomial exp (≤ 1e-14 absolute on sigmoid and tanh).
#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <cmath>
#include <cstring>

#include "nn/kernels/kernel_table.h"

namespace head::nn::kernels::internal {

namespace {

constexpr int kMr = 4;  // microkernel rows (broadcast lanes)
// Rows of the widest strip: 12 accumulators, two B halves and a broadcast
// fill 15 of the 16 ymm registers. Run only where a 4 + 2 split would
// stream B twice (the last six rows of an m ≡ 2 mod 4 block — the whole
// of a B = 1 LST-GAT gate GEMM, m = 6).
constexpr int kMrWide = 6;
static_assert(kPanelWidth == 8, "microkernel assumes 8-column panels");

/// Lane mask for the first `count` (0..4) lanes of a 4-double vector.
inline __m256i TailMask(int count) {
  alignas(32) static const long long kMasks[5][4] = {
      {0, 0, 0, 0},
      {-1, 0, 0, 0},
      {-1, -1, 0, 0},
      {-1, -1, -1, 0},
      {-1, -1, -1, -1},
  };
  return _mm256_load_si256(reinterpret_cast<const __m256i*>(kMasks[count]));
}

/// Fixed-structure dot product: 4 independent 4-lane accumulators over
/// 16-element strides, combined pairwise, then a scalar fma tail. The fold
/// shape depends only on k, so every caller gets the same bits for the
/// same operands.
inline double Dot4(int k, const double* a, const double* b) {
  __m256d acc0 = _mm256_setzero_pd();
  __m256d acc1 = _mm256_setzero_pd();
  __m256d acc2 = _mm256_setzero_pd();
  __m256d acc3 = _mm256_setzero_pd();
  int i = 0;
  for (; i + 16 <= k; i += 16) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
    acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4),
                           _mm256_loadu_pd(b + i + 4), acc1);
    acc2 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 8),
                           _mm256_loadu_pd(b + i + 8), acc2);
    acc3 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 12),
                           _mm256_loadu_pd(b + i + 12), acc3);
  }
  for (; i + 4 <= k; i += 4) {
    acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i),
                           acc0);
  }
  const __m256d sum =
      _mm256_add_pd(_mm256_add_pd(acc0, acc1), _mm256_add_pd(acc2, acc3));
  const __m128d lo = _mm256_castpd256_pd128(sum);
  const __m128d hi = _mm256_extractf128_pd(sum, 1);
  const __m128d pair = _mm_add_pd(lo, hi);
  double s = _mm_cvtsd_f64(_mm_add_sd(pair, _mm_unpackhi_pd(pair, pair)));
  for (; i < k; ++i) s = std::fma(a[i], b[i], s);
  return s;
}

// ---- The register-blocked microkernel behind every n > 1 route ----

#define HEAD_KERNEL_INLINE [[gnu::always_inline]] inline

/// One 8-column row slice of the accumulator block, as two 4-lane halves.
struct Lanes {
  __m256d lo, hi;
};

/// Lane masks for the live columns of a partial 8-column panel.
struct PanelMask {
  __m256i lo, hi;
};

inline PanelMask MaskFor(int cols) {
  const int lo = cols < 4 ? cols : 4;
  return {TailMask(lo), TailMask(cols - lo)};
}

HEAD_KERNEL_INLINE Lanes LoadFull(const double* p) {
  return {_mm256_loadu_pd(p), _mm256_loadu_pd(p + 4)};
}

HEAD_KERNEL_INLINE Lanes LoadMasked(const double* p, PanelMask m) {
  return {_mm256_maskload_pd(p, m.lo), _mm256_maskload_pd(p + 4, m.hi)};
}

HEAD_KERNEL_INLINE Lanes Load(const double* p, bool full, PanelMask m) {
  return full ? LoadFull(p) : LoadMasked(p, m);
}

HEAD_KERNEL_INLINE void Store(double* p, Lanes v, bool full, PanelMask m) {
  if (full) {
    _mm256_storeu_pd(p, v.lo);
    _mm256_storeu_pd(p + 4, v.hi);
  } else {
    _mm256_maskstore_pd(p, m.lo, v.lo);
    _mm256_maskstore_pd(p + 4, m.hi, v.hi);
  }
}

HEAD_KERNEL_INLINE void Fma(double a, Lanes b, Lanes& acc) {
  const __m256d va = _mm256_set1_pd(a);
  acc.lo = _mm256_fmadd_pd(va, b.lo, acc.lo);
  acc.hi = _mm256_fmadd_pd(va, b.hi, acc.hi);
}

/// One R×8 output block (R ≤ 6 rows, one 8-column panel), the body shared
/// by the packed and the in-place routes. The 2R accumulators are named
/// locals touched only at compile-time row indices, so they stay in ymm
/// registers at -O2 as well as -O3. (An `acc[4][2]` array walked by a
/// runtime row loop is not: at -O2 GCC 12 keeps it on the stack and every
/// fma reads and writes memory.) R > 4 is instantiated for full panels
/// only: the partial panel's two mask registers would not fit.
///
/// A is read in place: row r, step kk is a[r·a_row_stride + kk·a_k_stride].
/// B step kk is the 8 doubles at b + kk·ldb: either a zero-padded packed
/// panel (ldb = 8) or row-major B itself (ldb = n). `cols` < 8 marks the
/// partial last panel, whose C stores are masked; with kMaskB its B and
/// bias loads are masked too (unpadded operands). K > 0 fixes k at compile
/// time. Each output lane folds fma(a[r,kk], b[kk,j], acc) over kk
/// ascending from the init seed — the file-header invariant.
template <int R, bool kMaskB, int K>
HEAD_KERNEL_INLINE void MicroKernel(int k, const double* a,
                                    size_t a_row_stride, size_t a_k_stride,
                                    const double* b, size_t ldb,
                                    const double* bias, GemmInit init,
                                    double* c, size_t ldc, int cols) {
  static_assert(R >= 1 && R <= kMrWide);
  const bool full = cols == kPanelWidth;
  const PanelMask mask = full ? PanelMask{} : MaskFor(cols);
  Lanes c0{}, c1{}, c2{}, c3{}, c4{}, c5{};
  if (init == GemmInit::kBias) {
    c0 = kMaskB ? LoadMasked(bias, mask) : LoadFull(bias);
    c1 = c2 = c3 = c4 = c5 = c0;
  } else if (init == GemmInit::kAccumulate) {
    c0 = Load(c, full, mask);
    if constexpr (R > 1) c1 = Load(c + ldc, full, mask);
    if constexpr (R > 2) c2 = Load(c + 2 * ldc, full, mask);
    if constexpr (R > 3) c3 = Load(c + 3 * ldc, full, mask);
    if constexpr (R > 4) c4 = Load(c + 4 * ldc, full, mask);
    if constexpr (R > 5) c5 = Load(c + 5 * ldc, full, mask);
  }
  const int steps = K > 0 ? K : k;
  // -O2 does not unroll this loop by itself; its control rivals the 2R
  // fmas of one step (64³: ~24 GFLOP/s without the pragma, ~32 with it).
#pragma GCC unroll 8
  for (int kk = 0; kk < steps; ++kk) {
    const double* bk = b + static_cast<size_t>(kk) * ldb;
    const Lanes bv = kMaskB ? LoadMasked(bk, mask) : LoadFull(bk);
    const double* ak = a + static_cast<size_t>(kk) * a_k_stride;
    Fma(ak[0], bv, c0);
    if constexpr (R > 1) Fma(ak[a_row_stride], bv, c1);
    if constexpr (R > 2) Fma(ak[2 * a_row_stride], bv, c2);
    if constexpr (R > 3) Fma(ak[3 * a_row_stride], bv, c3);
    if constexpr (R > 4) Fma(ak[4 * a_row_stride], bv, c4);
    if constexpr (R > 5) Fma(ak[5 * a_row_stride], bv, c5);
  }
  Store(c, c0, full, mask);
  if constexpr (R > 1) Store(c + ldc, c1, full, mask);
  if constexpr (R > 2) Store(c + 2 * ldc, c2, full, mask);
  if constexpr (R > 3) Store(c + 3 * ldc, c3, full, mask);
  if constexpr (R > 4) Store(c + 4 * ldc, c4, full, mask);
  if constexpr (R > 5) Store(c + 5 * ldc, c5, full, mask);
}

/// One R-row strip of C across every 8-column panel. kInPlaceB: B is
/// row-major (k×n) and unpadded, so the last partial panel masks its B and
/// bias loads; otherwise B and bias are the zero-padded packed panels.
template <int R, bool kInPlaceB, int K>
void RowStrip(int n, int k, const double* a, size_t a_row_stride,
              size_t a_k_stride, const double* b, const double* bias,
              GemmInit init, double* c) {
  const size_t ldb = kInPlaceB ? static_cast<size_t>(n) : kPanelWidth;
  const size_t panel_step =
      kInPlaceB ? kPanelWidth : static_cast<size_t>(k) * kPanelWidth;
  for (int j0 = 0, p = 0; j0 < n; j0 += kPanelWidth, ++p) {
    const int cols = n - j0 < kPanelWidth ? n - j0 : kPanelWidth;
    const double* bpanel = b + static_cast<size_t>(p) * panel_step;
    const double* bias_j = bias == nullptr ? nullptr : bias + j0;
    if constexpr (R > kMr) {
      const size_t ldc = static_cast<size_t>(n);
      if (cols == kPanelWidth) {
        MicroKernel<R, false, K>(k, a, a_row_stride, a_k_stride, bpanel, ldb,
                                 bias_j, init, c + j0, ldc, kPanelWidth);
      } else {
        // The partial panel of a wide strip runs as 4 + (R − 4) rows.
        MicroKernel<kMr, kInPlaceB, K>(k, a, a_row_stride, a_k_stride,
                                       bpanel, ldb, bias_j, init, c + j0, ldc,
                                       cols);
        MicroKernel<R - kMr, kInPlaceB, K>(
            k, a + kMr * a_row_stride, a_row_stride, a_k_stride, bpanel, ldb,
            bias_j, init, c + kMr * ldc + j0, ldc, cols);
      }
    } else if (kInPlaceB && cols < kPanelWidth) {
      MicroKernel<R, kInPlaceB, K>(k, a, a_row_stride, a_k_stride, bpanel,
                                   ldb, bias_j, init, c + j0,
                                   static_cast<size_t>(n), cols);
    } else {
      MicroKernel<R, false, K>(k, a, a_row_stride, a_k_stride, bpanel, ldb,
                               bias_j, init, c + j0, static_cast<size_t>(n),
                               cols);
    }
  }
}

/// C(m×n) ⟵ init ⊕ A·B in 4-row strips plus one strip of the m mod 4 rows
/// left over, each at its own R (no zero-padded rows, no scalar tail); the
/// last six rows of an m ≡ 2 (mod 4) block run as one 6-row strip.
template <bool kInPlaceB, int K = 0>
void GemmBlocked(int m, int n, int k, const double* a, size_t a_row_stride,
                 size_t a_k_stride, const double* b, const double* bias,
                 GemmInit init, double* c) {
  for (int i0 = 0; i0 < m; i0 += kMr) {
    const double* ai = a + static_cast<size_t>(i0) * a_row_stride;
    double* ci = c + static_cast<size_t>(i0) * n;
    if (m - i0 == kMrWide) {
      RowStrip<kMrWide, kInPlaceB, K>(n, k, ai, a_row_stride, a_k_stride, b,
                                      bias, init, ci);
      return;
    }
    switch (m - i0 < kMr ? m - i0 : kMr) {
      case 4:
        RowStrip<4, kInPlaceB, K>(n, k, ai, a_row_stride, a_k_stride, b, bias,
                                  init, ci);
        break;
      case 3:
        RowStrip<3, kInPlaceB, K>(n, k, ai, a_row_stride, a_k_stride, b, bias,
                                  init, ci);
        break;
      case 2:
        RowStrip<2, kInPlaceB, K>(n, k, ai, a_row_stride, a_k_stride, b, bias,
                                  init, ci);
        break;
      default:
        RowStrip<1, kInPlaceB, K>(n, k, ai, a_row_stride, a_k_stride, b, bias,
                                  init, ci);
        break;
    }
  }
}

// ---- Unpacked row-range kernels (small-m path: B read in place) ----

void Avx2GemmNN(int m, int n, int k, const double* a, const double* b,
                const double* bias, GemmInit init, double* c) {
  if (n == 1) {
    for (int i = 0; i < m; ++i) {
      const double s = Dot4(k, a + static_cast<size_t>(i) * k, b);
      switch (init) {
        case GemmInit::kZero: c[i] = s; break;
        case GemmInit::kBias: c[i] = s + bias[0]; break;
        case GemmInit::kAccumulate: c[i] += s; break;
      }
    }
    return;
  }
  GemmBlocked</*kInPlaceB=*/true>(m, n, k, a, /*a_row_stride=*/k,
                                  /*a_k_stride=*/1, b, bias, init, c);
}

void Avx2GemmTN(int m, int n, int k, const double* a, int lda, const double* b,
                GemmInit init, double* c) {
  if (n == 1) {
    if (init != GemmInit::kAccumulate) {
      std::memset(c, 0, static_cast<size_t>(m) * sizeof(double));
    }
    const int m4 = m & ~3;
    for (int kk = 0; kk < k; ++kk) {
      const double bk = b[kk];
      const __m256d vb = _mm256_set1_pd(bk);
      const double* arow = a + static_cast<size_t>(kk) * lda;
      int i = 0;
      for (; i < m4; i += 4) {
        const __m256d vo = _mm256_loadu_pd(c + i);
        _mm256_storeu_pd(c + i,
                         _mm256_fmadd_pd(vb, _mm256_loadu_pd(arow + i), vo));
      }
      for (; i < m; ++i) c[i] = std::fma(bk, arow[i], c[i]);
    }
    return;
  }
  // Output rows are A columns: rows walk stride 1, k walks stride lda. The
  // dispatch layer prefers the packed path for this variant.
  GemmBlocked</*kInPlaceB=*/true>(
      m, n, k, a, /*a_row_stride=*/1, /*a_k_stride=*/lda, b, /*bias=*/nullptr,
      init == GemmInit::kAccumulate ? init : GemmInit::kZero, c);
}

void Avx2GemmNT(int m, int n, int k, const double* a, const double* b,
                double* c) {
  // Row-dot form; the dispatch layer routes n>1 through the packed path
  // (transpose-packed B), so this runs only for direct table calls.
  for (int i = 0; i < m; ++i) {
    const double* arow = a + static_cast<size_t>(i) * k;
    double* orow = c + static_cast<size_t>(i) * n;
    for (int j = 0; j < n; ++j) {
      orow[j] = Dot4(k, arow, b + static_cast<size_t>(j) * k);
    }
  }
}

// ---- Packed-panel path ----

void Avx2PackB(int n, int k, const double* b, bool transposed, double* bp) {
  const int panels = (n + kPanelWidth - 1) / kPanelWidth;
  for (int p = 0; p < panels; ++p) {
    const int j0 = p * kPanelWidth;
    const int jw = n - j0 < kPanelWidth ? n - j0 : kPanelWidth;
    double* panel = bp + static_cast<size_t>(p) * k * kPanelWidth;
    if (!transposed) {
      for (int kk = 0; kk < k; ++kk) {
        const double* src = b + static_cast<size_t>(kk) * n + j0;
        double* dst = panel + static_cast<size_t>(kk) * kPanelWidth;
        int j = 0;
        for (; j < jw; ++j) dst[j] = src[j];
        for (; j < kPanelWidth; ++j) dst[j] = 0.0;
      }
    } else {
      // Source is (n×k) row-major; panel column j is source row j0+j.
      for (int kk = 0; kk < k; ++kk) {
        double* dst = panel + static_cast<size_t>(kk) * kPanelWidth;
        int j = 0;
        for (; j < jw; ++j) dst[j] = b[static_cast<size_t>(j0 + j) * k + kk];
        for (; j < kPanelWidth; ++j) dst[j] = 0.0;
      }
    }
  }
}

void Avx2PackBias(int n, const double* bias, double* bias_p) {
  const int panels = (n + kPanelWidth - 1) / kPanelWidth;
  const int padded = panels * kPanelWidth;
  std::memcpy(bias_p, bias, static_cast<size_t>(n) * sizeof(double));
  for (int j = n; j < padded; ++j) bias_p[j] = 0.0;
}

/// Packed path. A is read in place through its strides (the microkernel
/// broadcasts one element per row and step, so packing A buys nothing).
/// Contiguous A with k ≤ 8 takes a compile-time-k instance: at 32 fmas per
/// 4×8 block, runtime loop control would rival the arithmetic. Which
/// instance runs is purely a performance choice (see file header).
void Avx2GemmPacked(int m, int n, int k, const double* a, int a_row_stride,
                    int a_k_stride, const double* bp, const double* bias_p,
                    GemmInit init, double* c) {
  const size_t rs = static_cast<size_t>(a_row_stride);
  const size_t ks = static_cast<size_t>(a_k_stride);
  if (a_k_stride == 1 && a_row_stride == k) {
    switch (k) {
      case 1: return GemmBlocked<false, 1>(m, n, k, a, rs, ks, bp, bias_p, init, c);
      case 2: return GemmBlocked<false, 2>(m, n, k, a, rs, ks, bp, bias_p, init, c);
      case 3: return GemmBlocked<false, 3>(m, n, k, a, rs, ks, bp, bias_p, init, c);
      case 4: return GemmBlocked<false, 4>(m, n, k, a, rs, ks, bp, bias_p, init, c);
      case 5: return GemmBlocked<false, 5>(m, n, k, a, rs, ks, bp, bias_p, init, c);
      case 6: return GemmBlocked<false, 6>(m, n, k, a, rs, ks, bp, bias_p, init, c);
      case 7: return GemmBlocked<false, 7>(m, n, k, a, rs, ks, bp, bias_p, init, c);
      case 8: return GemmBlocked<false, 8>(m, n, k, a, rs, ks, bp, bias_p, init, c);
      default: break;
    }
  }
  GemmBlocked<false>(m, n, k, a, rs, ks, bp, bias_p, init, c);
}

// ---- Elementwise (bitwise-equal to scalar: no FMA, correctly-rounded
// lane ops, scalar tails running the same expressions) ----

void Avx2Axpy(int n, double alpha, const double* x, double* y) {
  const __m256d va = _mm256_set1_pd(alpha);
  const int n4 = n & ~3;
  int i = 0;
  for (; i < n4; i += 4) {
    const __m256d prod = _mm256_mul_pd(va, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void Avx2ActForward(ActKind kind, double leaky_slope, int n, double* x) {
  const int n4 = n & ~3;
  switch (kind) {
    case ActKind::kNone:
      return;
    case ActKind::kRelu: {
      // max(x, +0) matches the scalar branch bitwise: x == -0.0 and x == NaN
      // both map to +0.0 (vmaxpd returns the second operand on equal/NaN).
      const __m256d zero = _mm256_setzero_pd();
      int i = 0;
      for (; i < n4; i += 4) {
        _mm256_storeu_pd(x + i, _mm256_max_pd(_mm256_loadu_pd(x + i), zero));
      }
      for (; i < n; ++i) x[i] = x[i] > 0.0 ? x[i] : 0.0;
      return;
    }
    case ActKind::kLeakyRelu: {
      const __m256d zero = _mm256_setzero_pd();
      const __m256d slope = _mm256_set1_pd(leaky_slope);
      int i = 0;
      for (; i < n4; i += 4) {
        const __m256d v = _mm256_loadu_pd(x + i);
        const __m256d pos = _mm256_cmp_pd(v, zero, _CMP_GT_OQ);
        _mm256_storeu_pd(
            x + i, _mm256_blendv_pd(_mm256_mul_pd(slope, v), v, pos));
      }
      for (; i < n; ++i) x[i] = x[i] > 0.0 ? x[i] : leaky_slope * x[i];
      return;
    }
    case ActKind::kTanh:
      // libm transcendentals stay scalar so every backend produces the same
      // bits; the fusion win is the saved graph node + output traversal.
      for (int i = 0; i < n; ++i) x[i] = std::tanh(x[i]);
      return;
    case ActKind::kSigmoid:
      for (int i = 0; i < n; ++i) x[i] = 1.0 / (1.0 + std::exp(-x[i]));
      return;
  }
}

void Avx2ActBackward(ActKind kind, double leaky_slope, int n, const double* y,
                     const double* gout, double* gin) {
  const int n4 = n & ~3;
  switch (kind) {
    case ActKind::kNone:
      if (gin != gout) std::memcpy(gin, gout, n * sizeof(double));
      return;
    case ActKind::kRelu: {
      const __m256d zero = _mm256_setzero_pd();
      int i = 0;
      for (; i < n4; i += 4) {
        const __m256d pos =
            _mm256_cmp_pd(_mm256_loadu_pd(y + i), zero, _CMP_GT_OQ);
        _mm256_storeu_pd(gin + i,
                         _mm256_and_pd(_mm256_loadu_pd(gout + i), pos));
      }
      for (; i < n; ++i) gin[i] = y[i] > 0.0 ? gout[i] : 0.0;
      return;
    }
    case ActKind::kLeakyRelu: {
      const __m256d zero = _mm256_setzero_pd();
      const __m256d slope = _mm256_set1_pd(leaky_slope);
      int i = 0;
      for (; i < n4; i += 4) {
        const __m256d g = _mm256_loadu_pd(gout + i);
        const __m256d pos =
            _mm256_cmp_pd(_mm256_loadu_pd(y + i), zero, _CMP_GT_OQ);
        _mm256_storeu_pd(gin + i,
                         _mm256_blendv_pd(_mm256_mul_pd(slope, g), g, pos));
      }
      for (; i < n; ++i) {
        gin[i] = y[i] > 0.0 ? gout[i] : leaky_slope * gout[i];
      }
      return;
    }
    case ActKind::kTanh: {
      const __m256d one = _mm256_set1_pd(1.0);
      int i = 0;
      for (; i < n4; i += 4) {
        const __m256d vy = _mm256_loadu_pd(y + i);
        const __m256d d = _mm256_sub_pd(one, _mm256_mul_pd(vy, vy));
        _mm256_storeu_pd(gin + i, _mm256_mul_pd(_mm256_loadu_pd(gout + i), d));
      }
      for (; i < n; ++i) gin[i] = gout[i] * (1.0 - y[i] * y[i]);
      return;
    }
    case ActKind::kSigmoid: {
      const __m256d one = _mm256_set1_pd(1.0);
      int i = 0;
      for (; i < n4; i += 4) {
        const __m256d vy = _mm256_loadu_pd(y + i);
        const __m256d d = _mm256_mul_pd(vy, _mm256_sub_pd(one, vy));
        _mm256_storeu_pd(gin + i, _mm256_mul_pd(_mm256_loadu_pd(gout + i), d));
      }
      for (; i < n; ++i) gin[i] = gout[i] * (y[i] * (1.0 - y[i]));
      return;
    }
  }
}

void Avx2RowwiseMax(int rows, int cols, const double* a, double* out,
                    int* argmax) {
  // The TD-target matrices are (B×|A|=3): scalar comparison is the whole
  // job; the first-argmax tie-break rules out a lane-parallel sweep anyway.
  for (int r = 0; r < rows; ++r) {
    const double* arow = a + static_cast<size_t>(r) * cols;
    int best = 0;
    for (int cc = 1; cc < cols; ++cc) {
      if (arow[cc] > arow[best]) best = cc;
    }
    out[r] = arow[best];
    if (argmax != nullptr) argmax[r] = best;
  }
}

void Avx2AdamStep(int n, double lr, double beta1, double beta2, double eps,
                  double bc1, double bc2, const double* g, double* m,
                  double* v, double* value) {
  const __m256d vb1 = _mm256_set1_pd(beta1);
  const __m256d vb1c = _mm256_set1_pd(1.0 - beta1);
  const __m256d vb2 = _mm256_set1_pd(beta2);
  const __m256d vb2c = _mm256_set1_pd(1.0 - beta2);
  const __m256d vbc1 = _mm256_set1_pd(bc1);
  const __m256d vbc2 = _mm256_set1_pd(bc2);
  const __m256d vlr = _mm256_set1_pd(lr);
  const __m256d veps = _mm256_set1_pd(eps);
  const int n4 = n & ~3;
  int j = 0;
  for (; j < n4; j += 4) {
    const __m256d vg = _mm256_loadu_pd(g + j);
    const __m256d vm = _mm256_add_pd(_mm256_mul_pd(vb1, _mm256_loadu_pd(m + j)),
                                     _mm256_mul_pd(vb1c, vg));
    // ((1-beta2)·g)·g — same association as the scalar backend, so the
    // second moment stays bitwise identical across ISAs.
    const __m256d vgg = _mm256_mul_pd(_mm256_mul_pd(vb2c, vg), vg);
    const __m256d vv =
        _mm256_add_pd(_mm256_mul_pd(vb2, _mm256_loadu_pd(v + j)), vgg);
    _mm256_storeu_pd(m + j, vm);
    _mm256_storeu_pd(v + j, vv);
    const __m256d m_hat = _mm256_div_pd(vm, vbc1);
    const __m256d v_hat = _mm256_div_pd(vv, vbc2);
    const __m256d denom = _mm256_add_pd(_mm256_sqrt_pd(v_hat), veps);
    const __m256d step = _mm256_div_pd(_mm256_mul_pd(vlr, m_hat), denom);
    _mm256_storeu_pd(value + j,
                     _mm256_sub_pd(_mm256_loadu_pd(value + j), step));
  }
  for (; j < n; ++j) {
    m[j] = beta1 * m[j] + (1.0 - beta1) * g[j];
    v[j] = beta2 * v[j] + (1.0 - beta2) * g[j] * g[j];
    const double m_hat = m[j] / bc1;
    const double v_hat = v[j] / bc2;
    value[j] -= lr * m_hat / (std::sqrt(v_hat) + eps);
  }
}

// ---- Fused LSTM cell (fast_math only): polynomial transcendentals ----
//
// exp(x) by Cody–Waite reduction: n = round(x·log2 e), r = x − n·ln2 with
// ln2 split in two (n·ln2_hi is exact for |n| < 2^11), e^r by its degree-13
// Taylor polynomial (|r| ≤ ln2/2, truncation < 1e-17 relative), times 2^n
// built in the exponent field. x is clamped to [−708, 709] first; beyond
// it the result saturates to 0 or +inf. The clamp's operand order keeps a
// NaN (vminpd/vmaxpd return the second operand when either is NaN), and the
// polynomial then carries it through. Every step is lane-wise, so a lane's
// bits depend on its input alone.

HEAD_KERNEL_INLINE __m256d ExpPoly(__m256d x) {
  const __m256d kHi = _mm256_set1_pd(709.0);
  const __m256d kLo = _mm256_set1_pd(-708.0);
  const __m256d xc = _mm256_max_pd(kLo, _mm256_min_pd(kHi, x));
  const __m256d n = _mm256_round_pd(
      _mm256_mul_pd(xc, _mm256_set1_pd(1.4426950408889634)),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(n, _mm256_set1_pd(6.93147180369123816490e-01),
                               xc);
  r = _mm256_fnmadd_pd(n, _mm256_set1_pd(1.90821492927058770002e-10), r);
  // Estrin's scheme: pairs, then powers r², r⁴, r⁸ — 16 cycles of FMA
  // latency where Horner's 13 dependent steps take 52.
  const auto pair = [&](double lo, double hi) {
    return _mm256_fmadd_pd(_mm256_set1_pd(hi), r, _mm256_set1_pd(lo));
  };
  const __m256d r2 = _mm256_mul_pd(r, r);
  const __m256d r4 = _mm256_mul_pd(r2, r2);
  const __m256d r8 = _mm256_mul_pd(r4, r4);
  const __m256d q0 =
      _mm256_fmadd_pd(pair(1.0 / 2, 1.0 / 6), r2, pair(1.0, 1.0));
  const __m256d q1 = _mm256_fmadd_pd(pair(1.0 / 720, 1.0 / 5040), r2,
                                     pair(1.0 / 24, 1.0 / 120));
  const __m256d q2 = _mm256_fmadd_pd(pair(1.0 / 3628800, 1.0 / 39916800),
                                     r2, pair(1.0 / 40320, 1.0 / 362880));
  const __m256d q3 = pair(1.0 / 479001600, 1.0 / 6227020800);
  const __m256d p = _mm256_fmadd_pd(
      _mm256_fmadd_pd(q3, r4, q2), r8, _mm256_fmadd_pd(q1, r4, q0));
  // 2^n for n in [−1022, 1023]: (n + 1023) in the exponent field.
  const __m256i bits = _mm256_slli_epi64(
      _mm256_add_epi64(_mm256_cvtepi32_epi64(_mm256_cvtpd_epi32(n)),
                       _mm256_set1_epi64x(1023)),
      52);
  __m256d y = _mm256_mul_pd(p, _mm256_castsi256_pd(bits));
  y = _mm256_blendv_pd(y, _mm256_set1_pd(HUGE_VAL),
                       _mm256_cmp_pd(x, kHi, _CMP_GT_OQ));
  return _mm256_blendv_pd(y, _mm256_setzero_pd(),
                          _mm256_cmp_pd(x, kLo, _CMP_LT_OQ));
}

/// 1/(1 + e^(−x)): 1 for x > 708, +0 for x < −709, NaN for NaN.
HEAD_KERNEL_INLINE __m256d SigmoidPoly(__m256d x) {
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d e = ExpPoly(_mm256_xor_pd(x, _mm256_set1_pd(-0.0)));
  return _mm256_div_pd(one, _mm256_add_pd(one, e));
}

/// sign(x)·(1 − e)/(1 + e) with e = e^(−2|x|): exactly ±1 once e < 2^−54,
/// ±0 at ±0, NaN for NaN.
HEAD_KERNEL_INLINE __m256d TanhPoly(__m256d x) {
  const __m256d sign_bit = _mm256_set1_pd(-0.0);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d ax = _mm256_andnot_pd(sign_bit, x);
  const __m256d e = ExpPoly(_mm256_mul_pd(ax, _mm256_set1_pd(-2.0)));
  const __m256d t =
      _mm256_div_pd(_mm256_sub_pd(one, e), _mm256_add_pd(one, e));
  return _mm256_or_pd(t, _mm256_and_pd(x, sign_bit));
}

/// Loads `count` (1..4) lanes; the rest read as +0 and are never stored.
HEAD_KERNEL_INLINE __m256d LoadLanes(const double* p, int count) {
  return count == 4 ? _mm256_loadu_pd(p)
                    : _mm256_maskload_pd(p, TailMask(count));
}

HEAD_KERNEL_INLINE void StoreLanes(double* p, __m256d v, int count) {
  if (count == 4) {
    _mm256_storeu_pd(p, v);
  } else {
    _mm256_maskstore_pd(p, TailMask(count), v);
  }
}

void Avx2LstmCell(int rows, int hidden, const double* gates,
                  const double* c_prev, double* acts, double* c) {
  const size_t h = static_cast<size_t>(hidden);
  for (int r = 0; r < rows; ++r) {
    const double* pre = gates + r * 4 * h;
    double* act = acts + r * 4 * h;
    const double* cp = c_prev + r * h;
    double* cn = c + r * h;
    for (size_t j = 0; j < h; j += 4) {
      const int lanes = h - j < 4 ? static_cast<int>(h - j) : 4;
      const __m256d i = SigmoidPoly(LoadLanes(pre + j, lanes));
      const __m256d f = SigmoidPoly(LoadLanes(pre + h + j, lanes));
      const __m256d g = TanhPoly(LoadLanes(pre + 2 * h + j, lanes));
      const __m256d o = SigmoidPoly(LoadLanes(pre + 3 * h + j, lanes));
      StoreLanes(act + j, i, lanes);
      StoreLanes(act + h + j, f, lanes);
      StoreLanes(act + 2 * h + j, g, lanes);
      StoreLanes(act + 3 * h + j, o, lanes);
      // (f·c_prev) + (i·g), unfused, as on the scalar backend.
      StoreLanes(cn + j,
                 _mm256_add_pd(_mm256_mul_pd(f, LoadLanes(cp + j, lanes)),
                               _mm256_mul_pd(i, g)),
                 lanes);
    }
  }
}

void Avx2LstmHidden(int rows, int hidden, const double* acts, const double* c,
                    double* tanh_c, double* h_out) {
  const size_t h = static_cast<size_t>(hidden);
  for (int r = 0; r < rows; ++r) {
    const double* o = acts + r * 4 * h + 3 * h;
    const size_t base = r * h;
    for (size_t j = 0; j < h; j += 4) {
      const int lanes = h - j < 4 ? static_cast<int>(h - j) : 4;
      const __m256d t = TanhPoly(LoadLanes(c + base + j, lanes));
      StoreLanes(tanh_c + base + j, t, lanes);
      StoreLanes(h_out + base + j,
                 _mm256_mul_pd(LoadLanes(o + j, lanes), t), lanes);
    }
  }
}

}  // namespace

const KernelTable kAvx2Table = {
    /*name=*/"avx2",
    /*gemm_nn=*/Avx2GemmNN,
    /*gemm_tn=*/Avx2GemmTN,
    /*gemm_nt=*/Avx2GemmNT,
    /*pack_b=*/Avx2PackB,
    /*pack_bias=*/Avx2PackBias,
    /*gemm_packed=*/Avx2GemmPacked,
    /*axpy=*/Avx2Axpy,
    /*act_forward=*/Avx2ActForward,
    /*act_backward=*/Avx2ActBackward,
    /*rowwise_max=*/Avx2RowwiseMax,
    /*adam_step=*/Avx2AdamStep,
    /*lstm_cell=*/Avx2LstmCell,
    /*lstm_hidden=*/Avx2LstmHidden,
};

}  // namespace head::nn::kernels::internal

#endif  // __AVX2__ && __FMA__
