#include "nn/matrix.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PRUNER_NNKERNEL_X86 1
#include <immintrin.h>
#endif

#include "support/logging.hpp"

namespace pruner {

namespace nnkernel {

namespace {

/**
 * Register-block shape of the scalar fallback kernel. 4x16 doubles of C
 * live in accumulators across the whole k loop (16 doubles = two cache
 * lines per C row), and a 64-wide hidden layer is exactly four j tiles, so
 * the B panel touched by one (i0, j0) tile — at most
 * 128 k x 16 doubles = 16 KiB — stays L1-resident while the four A rows
 * are streamed once.
 */
constexpr size_t kBlockI = 4;
constexpr size_t kBlockJ = 16;

/** Scalar store epilogue shared by the kernel tiers (see matmul()). */
inline void
storeRow(const double* acc, double* crow, const double* bias, size_t nr,
         bool relu)
{
    for (size_t jj = 0; jj < nr; ++jj) {
        double v = acc[jj];
        if (bias != nullptr) {
            v += bias[jj];
        }
        if (relu) {
            v = v > 0.0 ? v : 0.0;
        }
        crow[jj] = v;
    }
}

void
matmulScalarTile(const double* a, size_t m, size_t k, size_t lda,
                 const double* b, size_t n, size_t ldb, double* c,
                 size_t ldc, const double* bias, bool relu)
{
    size_t i0 = 0;
    for (; i0 + kBlockI <= m; i0 += kBlockI) {
        const double* a0 = a + i0 * lda;
        for (size_t j0 = 0; j0 < n; j0 += kBlockJ) {
            const size_t nr = std::min(kBlockJ, n - j0);
            double acc[kBlockI][kBlockJ] = {};
            for (size_t kk = 0; kk < k; ++kk) {
                const double* brow = b + kk * ldb + j0;
                for (size_t ii = 0; ii < kBlockI; ++ii) {
                    const double aik = a0[ii * lda + kk];
                    for (size_t jj = 0; jj < nr; ++jj) {
                        acc[ii][jj] += aik * brow[jj];
                    }
                }
            }
            const double* bj = bias != nullptr ? bias + j0 : nullptr;
            for (size_t ii = 0; ii < kBlockI; ++ii) {
                storeRow(acc[ii], c + (i0 + ii) * ldc + j0, bj, nr, relu);
            }
        }
    }
    // Remainder rows: one C row of accumulators at a time.
    for (; i0 < m; ++i0) {
        const double* arow = a + i0 * lda;
        for (size_t j0 = 0; j0 < n; j0 += kBlockJ) {
            const size_t nr = std::min(kBlockJ, n - j0);
            double acc[kBlockJ] = {};
            for (size_t kk = 0; kk < k; ++kk) {
                const double aik = arow[kk];
                const double* brow = b + kk * ldb + j0;
                for (size_t jj = 0; jj < nr; ++jj) {
                    acc[jj] += aik * brow[jj];
                }
            }
            storeRow(acc, c + i0 * ldc + j0,
                     bias != nullptr ? bias + j0 : nullptr, nr, relu);
        }
    }
}

#ifdef PRUNER_NNKERNEL_X86

/**
 * AVX2 4x8 micro-kernel. Deliberately built from separate _mm256_mul_pd /
 * _mm256_add_pd (the "avx2" target carries no FMA, so the compiler cannot
 * contract them): every C element sees exactly the scalar kernel's
 * mul-round-add-round sequence over ascending k, hence identical bytes at
 * ~3x the scalar tile's throughput. 8 YMM accumulators + 2 B panels + 1
 * broadcast stay within the 16 architectural YMM registers.
 */
__attribute__((target("avx2"))) void
matmulAvx2(const double* a, size_t m, size_t k, size_t lda, const double* b,
           size_t n, size_t ldb, double* c, size_t ldc, const double* bias,
           bool relu)
{
    size_t i0 = 0;
    for (; i0 + 4 <= m; i0 += 4) {
        const double* a0 = a + i0 * lda;
        size_t j0 = 0;
        for (; j0 + 8 <= n; j0 += 8) {
            __m256d acc00 = _mm256_setzero_pd();
            __m256d acc01 = _mm256_setzero_pd();
            __m256d acc10 = _mm256_setzero_pd();
            __m256d acc11 = _mm256_setzero_pd();
            __m256d acc20 = _mm256_setzero_pd();
            __m256d acc21 = _mm256_setzero_pd();
            __m256d acc30 = _mm256_setzero_pd();
            __m256d acc31 = _mm256_setzero_pd();
            for (size_t kk = 0; kk < k; ++kk) {
                const double* brow = b + kk * ldb + j0;
                const __m256d b0 = _mm256_loadu_pd(brow);
                const __m256d b1 = _mm256_loadu_pd(brow + 4);
                __m256d av = _mm256_set1_pd(a0[0 * lda + kk]);
                acc00 = _mm256_add_pd(acc00, _mm256_mul_pd(av, b0));
                acc01 = _mm256_add_pd(acc01, _mm256_mul_pd(av, b1));
                av = _mm256_set1_pd(a0[1 * lda + kk]);
                acc10 = _mm256_add_pd(acc10, _mm256_mul_pd(av, b0));
                acc11 = _mm256_add_pd(acc11, _mm256_mul_pd(av, b1));
                av = _mm256_set1_pd(a0[2 * lda + kk]);
                acc20 = _mm256_add_pd(acc20, _mm256_mul_pd(av, b0));
                acc21 = _mm256_add_pd(acc21, _mm256_mul_pd(av, b1));
                av = _mm256_set1_pd(a0[3 * lda + kk]);
                acc30 = _mm256_add_pd(acc30, _mm256_mul_pd(av, b0));
                acc31 = _mm256_add_pd(acc31, _mm256_mul_pd(av, b1));
            }
            if (bias != nullptr) {
                const __m256d bias0 = _mm256_loadu_pd(bias + j0);
                const __m256d bias1 = _mm256_loadu_pd(bias + j0 + 4);
                acc00 = _mm256_add_pd(acc00, bias0);
                acc01 = _mm256_add_pd(acc01, bias1);
                acc10 = _mm256_add_pd(acc10, bias0);
                acc11 = _mm256_add_pd(acc11, bias1);
                acc20 = _mm256_add_pd(acc20, bias0);
                acc21 = _mm256_add_pd(acc21, bias1);
                acc30 = _mm256_add_pd(acc30, bias0);
                acc31 = _mm256_add_pd(acc31, bias1);
            }
            if (relu) {
                // vmaxpd(v, +0.0) returns +0.0 for v <= 0 and for NaN:
                // bitwise-equal to the scalar (v > 0 ? v : 0.0).
                const __m256d zero = _mm256_setzero_pd();
                acc00 = _mm256_max_pd(acc00, zero);
                acc01 = _mm256_max_pd(acc01, zero);
                acc10 = _mm256_max_pd(acc10, zero);
                acc11 = _mm256_max_pd(acc11, zero);
                acc20 = _mm256_max_pd(acc20, zero);
                acc21 = _mm256_max_pd(acc21, zero);
                acc30 = _mm256_max_pd(acc30, zero);
                acc31 = _mm256_max_pd(acc31, zero);
            }
            _mm256_storeu_pd(c + (i0 + 0) * ldc + j0, acc00);
            _mm256_storeu_pd(c + (i0 + 0) * ldc + j0 + 4, acc01);
            _mm256_storeu_pd(c + (i0 + 1) * ldc + j0, acc10);
            _mm256_storeu_pd(c + (i0 + 1) * ldc + j0 + 4, acc11);
            _mm256_storeu_pd(c + (i0 + 2) * ldc + j0, acc20);
            _mm256_storeu_pd(c + (i0 + 2) * ldc + j0 + 4, acc21);
            _mm256_storeu_pd(c + (i0 + 3) * ldc + j0, acc30);
            _mm256_storeu_pd(c + (i0 + 3) * ldc + j0 + 4, acc31);
        }
        for (; j0 < n; ++j0) {
            for (size_t ii = 0; ii < 4; ++ii) {
                double acc = 0.0;
                for (size_t kk = 0; kk < k; ++kk) {
                    acc += a0[ii * lda + kk] * b[kk * ldb + j0];
                }
                storeRow(&acc, c + (i0 + ii) * ldc + j0,
                         bias != nullptr ? bias + j0 : nullptr, 1, relu);
            }
        }
    }
    for (; i0 < m; ++i0) {
        const double* arow = a + i0 * lda;
        size_t j0 = 0;
        for (; j0 + 8 <= n; j0 += 8) {
            __m256d acc0 = _mm256_setzero_pd();
            __m256d acc1 = _mm256_setzero_pd();
            for (size_t kk = 0; kk < k; ++kk) {
                const double* brow = b + kk * ldb + j0;
                const __m256d av = _mm256_set1_pd(arow[kk]);
                acc0 = _mm256_add_pd(
                    acc0, _mm256_mul_pd(av, _mm256_loadu_pd(brow)));
                acc1 = _mm256_add_pd(
                    acc1, _mm256_mul_pd(av, _mm256_loadu_pd(brow + 4)));
            }
            if (bias != nullptr) {
                acc0 = _mm256_add_pd(acc0, _mm256_loadu_pd(bias + j0));
                acc1 = _mm256_add_pd(acc1, _mm256_loadu_pd(bias + j0 + 4));
            }
            if (relu) {
                const __m256d zero = _mm256_setzero_pd();
                acc0 = _mm256_max_pd(acc0, zero);
                acc1 = _mm256_max_pd(acc1, zero);
            }
            _mm256_storeu_pd(c + i0 * ldc + j0, acc0);
            _mm256_storeu_pd(c + i0 * ldc + j0 + 4, acc1);
        }
        for (; j0 < n; ++j0) {
            double acc = 0.0;
            for (size_t kk = 0; kk < k; ++kk) {
                acc += arow[kk] * b[kk * ldb + j0];
            }
            storeRow(&acc, c + i0 * ldc + j0,
                     bias != nullptr ? bias + j0 : nullptr, 1, relu);
        }
    }
}

/**
 * AVX-512 4x16 micro-kernel: the widest tier, same separate-mul-then-add
 * contract as the AVX2 kernel ("avx512f" carries FMA in hardware, but the
 * explicit _mm512_mul_pd / _mm512_add_pd intrinsics pin the two roundings).
 */
// GCC implements _mm512_max_pd through a masked builtin whose unused
// pass-through source is _mm512_undefined_pd(), tripping a false-positive
// -Wmaybe-uninitialized at -O2.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
__attribute__((target("avx512f"))) void
matmulAvx512(const double* a, size_t m, size_t k, size_t lda,
             const double* b, size_t n, size_t ldb, double* c, size_t ldc,
             const double* bias, bool relu)
{
    size_t i0 = 0;
    for (; i0 + 4 <= m; i0 += 4) {
        const double* a0 = a + i0 * lda;
        size_t j0 = 0;
        for (; j0 + 16 <= n; j0 += 16) {
            __m512d acc00 = _mm512_setzero_pd();
            __m512d acc01 = _mm512_setzero_pd();
            __m512d acc10 = _mm512_setzero_pd();
            __m512d acc11 = _mm512_setzero_pd();
            __m512d acc20 = _mm512_setzero_pd();
            __m512d acc21 = _mm512_setzero_pd();
            __m512d acc30 = _mm512_setzero_pd();
            __m512d acc31 = _mm512_setzero_pd();
            for (size_t kk = 0; kk < k; ++kk) {
                const double* brow = b + kk * ldb + j0;
                const __m512d b0 = _mm512_loadu_pd(brow);
                const __m512d b1 = _mm512_loadu_pd(brow + 8);
                __m512d av = _mm512_set1_pd(a0[0 * lda + kk]);
                acc00 = _mm512_add_pd(acc00, _mm512_mul_pd(av, b0));
                acc01 = _mm512_add_pd(acc01, _mm512_mul_pd(av, b1));
                av = _mm512_set1_pd(a0[1 * lda + kk]);
                acc10 = _mm512_add_pd(acc10, _mm512_mul_pd(av, b0));
                acc11 = _mm512_add_pd(acc11, _mm512_mul_pd(av, b1));
                av = _mm512_set1_pd(a0[2 * lda + kk]);
                acc20 = _mm512_add_pd(acc20, _mm512_mul_pd(av, b0));
                acc21 = _mm512_add_pd(acc21, _mm512_mul_pd(av, b1));
                av = _mm512_set1_pd(a0[3 * lda + kk]);
                acc30 = _mm512_add_pd(acc30, _mm512_mul_pd(av, b0));
                acc31 = _mm512_add_pd(acc31, _mm512_mul_pd(av, b1));
            }
            if (bias != nullptr) {
                const __m512d bias0 = _mm512_loadu_pd(bias + j0);
                const __m512d bias1 = _mm512_loadu_pd(bias + j0 + 8);
                acc00 = _mm512_add_pd(acc00, bias0);
                acc01 = _mm512_add_pd(acc01, bias1);
                acc10 = _mm512_add_pd(acc10, bias0);
                acc11 = _mm512_add_pd(acc11, bias1);
                acc20 = _mm512_add_pd(acc20, bias0);
                acc21 = _mm512_add_pd(acc21, bias1);
                acc30 = _mm512_add_pd(acc30, bias0);
                acc31 = _mm512_add_pd(acc31, bias1);
            }
            if (relu) {
                const __m512d zero = _mm512_setzero_pd();
                acc00 = _mm512_max_pd(acc00, zero);
                acc01 = _mm512_max_pd(acc01, zero);
                acc10 = _mm512_max_pd(acc10, zero);
                acc11 = _mm512_max_pd(acc11, zero);
                acc20 = _mm512_max_pd(acc20, zero);
                acc21 = _mm512_max_pd(acc21, zero);
                acc30 = _mm512_max_pd(acc30, zero);
                acc31 = _mm512_max_pd(acc31, zero);
            }
            _mm512_storeu_pd(c + (i0 + 0) * ldc + j0, acc00);
            _mm512_storeu_pd(c + (i0 + 0) * ldc + j0 + 8, acc01);
            _mm512_storeu_pd(c + (i0 + 1) * ldc + j0, acc10);
            _mm512_storeu_pd(c + (i0 + 1) * ldc + j0 + 8, acc11);
            _mm512_storeu_pd(c + (i0 + 2) * ldc + j0, acc20);
            _mm512_storeu_pd(c + (i0 + 2) * ldc + j0 + 8, acc21);
            _mm512_storeu_pd(c + (i0 + 3) * ldc + j0, acc30);
            _mm512_storeu_pd(c + (i0 + 3) * ldc + j0 + 8, acc31);
        }
        if (j0 < n) {
            // Column remainder: defer to the AVX2 path on the same rows.
            matmulAvx2(a + i0 * lda, 4, k, lda, b + j0, n - j0, ldb,
                       c + i0 * ldc + j0, ldc,
                       bias != nullptr ? bias + j0 : nullptr, relu);
        }
    }
    if (i0 < m) {
        matmulAvx2(a + i0 * lda, m - i0, k, lda, b, n, ldb, c + i0 * ldc,
                   ldc, bias, relu);
    }
}
#pragma GCC diagnostic pop

/**
 * Segment-blocked dW kernels (see matmulTNSegBlocked): C panels live in
 * registers across the whole segment run — per (i, j) panel the
 * accumulator is loaded once, every segment folds in through a local
 * partial register, and the panel is stored once, replacing one C
 * load/add/store pass PER SEGMENT with one per pack. The per-element
 * rounding chain (partial over ascending r, one add per segment, segments
 * ascending) is exactly the composed per-segment naive reference
 * (matmulTNSegBlockedNaive).
 */
__attribute__((target("avx2"))) void
matmulTNSegBlockedAvx2(const double* a, size_t lda, const double* b,
                       size_t ldb, const size_t* seg_rows, size_t nsegs,
                       size_t acols, size_t bcols, double* c, size_t ldc)
{
    size_t i0 = 0;
    for (; i0 + 4 <= acols; i0 += 4) {
        double* c0 = c + (i0 + 0) * ldc;
        double* c1 = c + (i0 + 1) * ldc;
        double* c2 = c + (i0 + 2) * ldc;
        double* c3 = c + (i0 + 3) * ldc;
        size_t j = 0;
        for (; j + 4 <= bcols; j += 4) {
            __m256d acc0 = _mm256_loadu_pd(c0 + j);
            __m256d acc1 = _mm256_loadu_pd(c1 + j);
            __m256d acc2 = _mm256_loadu_pd(c2 + j);
            __m256d acc3 = _mm256_loadu_pd(c3 + j);
            const double* ap = a + i0;
            const double* bp = b + j;
            for (size_t s = 0; s < nsegs; ++s) {
                __m256d p0 = _mm256_setzero_pd();
                __m256d p1 = _mm256_setzero_pd();
                __m256d p2 = _mm256_setzero_pd();
                __m256d p3 = _mm256_setzero_pd();
                for (size_t r = 0; r < seg_rows[s]; ++r) {
                    const __m256d bv = _mm256_loadu_pd(bp);
                    p0 = _mm256_add_pd(
                        p0, _mm256_mul_pd(_mm256_set1_pd(ap[0]), bv));
                    p1 = _mm256_add_pd(
                        p1, _mm256_mul_pd(_mm256_set1_pd(ap[1]), bv));
                    p2 = _mm256_add_pd(
                        p2, _mm256_mul_pd(_mm256_set1_pd(ap[2]), bv));
                    p3 = _mm256_add_pd(
                        p3, _mm256_mul_pd(_mm256_set1_pd(ap[3]), bv));
                    ap += lda;
                    bp += ldb;
                }
                acc0 = _mm256_add_pd(acc0, p0);
                acc1 = _mm256_add_pd(acc1, p1);
                acc2 = _mm256_add_pd(acc2, p2);
                acc3 = _mm256_add_pd(acc3, p3);
            }
            _mm256_storeu_pd(c0 + j, acc0);
            _mm256_storeu_pd(c1 + j, acc1);
            _mm256_storeu_pd(c2 + j, acc2);
            _mm256_storeu_pd(c3 + j, acc3);
        }
        for (; j < bcols; ++j) {
            double acc0 = c0[j];
            double acc1 = c1[j];
            double acc2 = c2[j];
            double acc3 = c3[j];
            const double* ap = a + i0;
            const double* bp = b + j;
            for (size_t s = 0; s < nsegs; ++s) {
                double p0 = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;
                for (size_t r = 0; r < seg_rows[s]; ++r) {
                    const double bv = bp[0];
                    p0 += ap[0] * bv;
                    p1 += ap[1] * bv;
                    p2 += ap[2] * bv;
                    p3 += ap[3] * bv;
                    ap += lda;
                    bp += ldb;
                }
                acc0 += p0;
                acc1 += p1;
                acc2 += p2;
                acc3 += p3;
            }
            c0[j] = acc0;
            c1[j] = acc1;
            c2[j] = acc2;
            c3[j] = acc3;
        }
    }
    for (; i0 < acols; ++i0) {
        double* crow = c + i0 * ldc;
        size_t j = 0;
        for (; j + 4 <= bcols; j += 4) {
            __m256d acc = _mm256_loadu_pd(crow + j);
            const double* ap = a + i0;
            const double* bp = b + j;
            for (size_t s = 0; s < nsegs; ++s) {
                __m256d p = _mm256_setzero_pd();
                for (size_t r = 0; r < seg_rows[s]; ++r) {
                    p = _mm256_add_pd(
                        p, _mm256_mul_pd(_mm256_set1_pd(ap[0]),
                                         _mm256_loadu_pd(bp)));
                    ap += lda;
                    bp += ldb;
                }
                acc = _mm256_add_pd(acc, p);
            }
            _mm256_storeu_pd(crow + j, acc);
        }
        for (; j < bcols; ++j) {
            double acc = crow[j];
            const double* ap = a + i0;
            const double* bp = b + j;
            for (size_t s = 0; s < nsegs; ++s) {
                double p = 0.0;
                for (size_t r = 0; r < seg_rows[s]; ++r) {
                    p += ap[0] * bp[0];
                    ap += lda;
                    bp += ldb;
                }
                acc += p;
            }
            crow[j] = acc;
        }
    }
}

/** AVX-512 tier of the segment-blocked dW kernel: 8-row C blocks with
 *  8-wide ZMM j panels, falling back to 4-row blocks, 4-wide YMM
 *  sub-panels and a scalar column tail, then a 1-row i remainder. */
__attribute__((target("avx512f"))) void
matmulTNSegBlockedAvx512(const double* a, size_t lda, const double* b,
                         size_t ldb, const size_t* seg_rows, size_t nsegs,
                         size_t acols, size_t bcols, double* c, size_t ldc)
{
    size_t i0 = 0;
    for (; i0 + 8 <= acols; i0 += 8) {
        // 8-row x 8-wide ZMM tile: one shared B load feeds eight
        // broadcast mul+add chains, halving B traffic per flop versus
        // the 4-row tile and giving each add chain 2x latency slack.
        size_t j = 0;
        for (; j + 8 <= bcols; j += 8) {
            __m512d acc0 = _mm512_loadu_pd(c + (i0 + 0) * ldc + j);
            __m512d acc1 = _mm512_loadu_pd(c + (i0 + 1) * ldc + j);
            __m512d acc2 = _mm512_loadu_pd(c + (i0 + 2) * ldc + j);
            __m512d acc3 = _mm512_loadu_pd(c + (i0 + 3) * ldc + j);
            __m512d acc4 = _mm512_loadu_pd(c + (i0 + 4) * ldc + j);
            __m512d acc5 = _mm512_loadu_pd(c + (i0 + 5) * ldc + j);
            __m512d acc6 = _mm512_loadu_pd(c + (i0 + 6) * ldc + j);
            __m512d acc7 = _mm512_loadu_pd(c + (i0 + 7) * ldc + j);
            const double* ap = a + i0;
            const double* bp = b + j;
            for (size_t s = 0; s < nsegs; ++s) {
                __m512d p0 = _mm512_setzero_pd();
                __m512d p1 = _mm512_setzero_pd();
                __m512d p2 = _mm512_setzero_pd();
                __m512d p3 = _mm512_setzero_pd();
                __m512d p4 = _mm512_setzero_pd();
                __m512d p5 = _mm512_setzero_pd();
                __m512d p6 = _mm512_setzero_pd();
                __m512d p7 = _mm512_setzero_pd();
                for (size_t r = 0; r < seg_rows[s]; ++r) {
                    const __m512d bv = _mm512_loadu_pd(bp);
                    p0 = _mm512_add_pd(
                        p0, _mm512_mul_pd(_mm512_set1_pd(ap[0]), bv));
                    p1 = _mm512_add_pd(
                        p1, _mm512_mul_pd(_mm512_set1_pd(ap[1]), bv));
                    p2 = _mm512_add_pd(
                        p2, _mm512_mul_pd(_mm512_set1_pd(ap[2]), bv));
                    p3 = _mm512_add_pd(
                        p3, _mm512_mul_pd(_mm512_set1_pd(ap[3]), bv));
                    p4 = _mm512_add_pd(
                        p4, _mm512_mul_pd(_mm512_set1_pd(ap[4]), bv));
                    p5 = _mm512_add_pd(
                        p5, _mm512_mul_pd(_mm512_set1_pd(ap[5]), bv));
                    p6 = _mm512_add_pd(
                        p6, _mm512_mul_pd(_mm512_set1_pd(ap[6]), bv));
                    p7 = _mm512_add_pd(
                        p7, _mm512_mul_pd(_mm512_set1_pd(ap[7]), bv));
                    ap += lda;
                    bp += ldb;
                }
                acc0 = _mm512_add_pd(acc0, p0);
                acc1 = _mm512_add_pd(acc1, p1);
                acc2 = _mm512_add_pd(acc2, p2);
                acc3 = _mm512_add_pd(acc3, p3);
                acc4 = _mm512_add_pd(acc4, p4);
                acc5 = _mm512_add_pd(acc5, p5);
                acc6 = _mm512_add_pd(acc6, p6);
                acc7 = _mm512_add_pd(acc7, p7);
            }
            _mm512_storeu_pd(c + (i0 + 0) * ldc + j, acc0);
            _mm512_storeu_pd(c + (i0 + 1) * ldc + j, acc1);
            _mm512_storeu_pd(c + (i0 + 2) * ldc + j, acc2);
            _mm512_storeu_pd(c + (i0 + 3) * ldc + j, acc3);
            _mm512_storeu_pd(c + (i0 + 4) * ldc + j, acc4);
            _mm512_storeu_pd(c + (i0 + 5) * ldc + j, acc5);
            _mm512_storeu_pd(c + (i0 + 6) * ldc + j, acc6);
            _mm512_storeu_pd(c + (i0 + 7) * ldc + j, acc7);
        }
        // Column tail (<8 remaining): two 4-row passes. Each C element's
        // add chain is independent per (i, j), so splitting the row
        // block here changes no byte.
        for (size_t h = i0; h < i0 + 8; h += 4) {
            double* c0 = c + (h + 0) * ldc;
            double* c1 = c + (h + 1) * ldc;
            double* c2 = c + (h + 2) * ldc;
            double* c3 = c + (h + 3) * ldc;
            size_t jj = j;
            for (; jj + 4 <= bcols; jj += 4) {
                __m256d acc0 = _mm256_loadu_pd(c0 + jj);
                __m256d acc1 = _mm256_loadu_pd(c1 + jj);
                __m256d acc2 = _mm256_loadu_pd(c2 + jj);
                __m256d acc3 = _mm256_loadu_pd(c3 + jj);
                const double* ap = a + h;
                const double* bp = b + jj;
                for (size_t s = 0; s < nsegs; ++s) {
                    __m256d p0 = _mm256_setzero_pd();
                    __m256d p1 = _mm256_setzero_pd();
                    __m256d p2 = _mm256_setzero_pd();
                    __m256d p3 = _mm256_setzero_pd();
                    for (size_t r = 0; r < seg_rows[s]; ++r) {
                        const __m256d bv = _mm256_loadu_pd(bp);
                        p0 = _mm256_add_pd(
                            p0, _mm256_mul_pd(_mm256_set1_pd(ap[0]), bv));
                        p1 = _mm256_add_pd(
                            p1, _mm256_mul_pd(_mm256_set1_pd(ap[1]), bv));
                        p2 = _mm256_add_pd(
                            p2, _mm256_mul_pd(_mm256_set1_pd(ap[2]), bv));
                        p3 = _mm256_add_pd(
                            p3, _mm256_mul_pd(_mm256_set1_pd(ap[3]), bv));
                        ap += lda;
                        bp += ldb;
                    }
                    acc0 = _mm256_add_pd(acc0, p0);
                    acc1 = _mm256_add_pd(acc1, p1);
                    acc2 = _mm256_add_pd(acc2, p2);
                    acc3 = _mm256_add_pd(acc3, p3);
                }
                _mm256_storeu_pd(c0 + jj, acc0);
                _mm256_storeu_pd(c1 + jj, acc1);
                _mm256_storeu_pd(c2 + jj, acc2);
                _mm256_storeu_pd(c3 + jj, acc3);
            }
            for (; jj < bcols; ++jj) {
                double acc0 = c0[jj];
                double acc1 = c1[jj];
                double acc2 = c2[jj];
                double acc3 = c3[jj];
                const double* ap = a + h;
                const double* bp = b + jj;
                for (size_t s = 0; s < nsegs; ++s) {
                    double p0 = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;
                    for (size_t r = 0; r < seg_rows[s]; ++r) {
                        const double bv = bp[0];
                        p0 += ap[0] * bv;
                        p1 += ap[1] * bv;
                        p2 += ap[2] * bv;
                        p3 += ap[3] * bv;
                        ap += lda;
                        bp += ldb;
                    }
                    acc0 += p0;
                    acc1 += p1;
                    acc2 += p2;
                    acc3 += p3;
                }
                c0[jj] = acc0;
                c1[jj] = acc1;
                c2[jj] = acc2;
                c3[jj] = acc3;
            }
        }
    }
    for (; i0 + 4 <= acols; i0 += 4) {
        double* c0 = c + (i0 + 0) * ldc;
        double* c1 = c + (i0 + 1) * ldc;
        double* c2 = c + (i0 + 2) * ldc;
        double* c3 = c + (i0 + 3) * ldc;
        // 4-row x 8-wide-ZMM register tile. Wider tiles (two ZMM panels
        // per row) measured slower on this host despite the extra
        // add-latency slack — the 12 live accumulator/partial registers
        // push GCC into reordering that loses the shared-broadcast win.
        size_t j = 0;
        for (; j + 8 <= bcols; j += 8) {
            __m512d acc0 = _mm512_loadu_pd(c0 + j);
            __m512d acc1 = _mm512_loadu_pd(c1 + j);
            __m512d acc2 = _mm512_loadu_pd(c2 + j);
            __m512d acc3 = _mm512_loadu_pd(c3 + j);
            const double* ap = a + i0;
            const double* bp = b + j;
            for (size_t s = 0; s < nsegs; ++s) {
                __m512d p0 = _mm512_setzero_pd();
                __m512d p1 = _mm512_setzero_pd();
                __m512d p2 = _mm512_setzero_pd();
                __m512d p3 = _mm512_setzero_pd();
                for (size_t r = 0; r < seg_rows[s]; ++r) {
                    const __m512d bv = _mm512_loadu_pd(bp);
                    p0 = _mm512_add_pd(
                        p0, _mm512_mul_pd(_mm512_set1_pd(ap[0]), bv));
                    p1 = _mm512_add_pd(
                        p1, _mm512_mul_pd(_mm512_set1_pd(ap[1]), bv));
                    p2 = _mm512_add_pd(
                        p2, _mm512_mul_pd(_mm512_set1_pd(ap[2]), bv));
                    p3 = _mm512_add_pd(
                        p3, _mm512_mul_pd(_mm512_set1_pd(ap[3]), bv));
                    ap += lda;
                    bp += ldb;
                }
                acc0 = _mm512_add_pd(acc0, p0);
                acc1 = _mm512_add_pd(acc1, p1);
                acc2 = _mm512_add_pd(acc2, p2);
                acc3 = _mm512_add_pd(acc3, p3);
            }
            _mm512_storeu_pd(c0 + j, acc0);
            _mm512_storeu_pd(c1 + j, acc1);
            _mm512_storeu_pd(c2 + j, acc2);
            _mm512_storeu_pd(c3 + j, acc3);
        }
        for (; j + 4 <= bcols; j += 4) {
            __m256d acc0 = _mm256_loadu_pd(c0 + j);
            __m256d acc1 = _mm256_loadu_pd(c1 + j);
            __m256d acc2 = _mm256_loadu_pd(c2 + j);
            __m256d acc3 = _mm256_loadu_pd(c3 + j);
            const double* ap = a + i0;
            const double* bp = b + j;
            for (size_t s = 0; s < nsegs; ++s) {
                __m256d p0 = _mm256_setzero_pd();
                __m256d p1 = _mm256_setzero_pd();
                __m256d p2 = _mm256_setzero_pd();
                __m256d p3 = _mm256_setzero_pd();
                for (size_t r = 0; r < seg_rows[s]; ++r) {
                    const __m256d bv = _mm256_loadu_pd(bp);
                    p0 = _mm256_add_pd(
                        p0, _mm256_mul_pd(_mm256_set1_pd(ap[0]), bv));
                    p1 = _mm256_add_pd(
                        p1, _mm256_mul_pd(_mm256_set1_pd(ap[1]), bv));
                    p2 = _mm256_add_pd(
                        p2, _mm256_mul_pd(_mm256_set1_pd(ap[2]), bv));
                    p3 = _mm256_add_pd(
                        p3, _mm256_mul_pd(_mm256_set1_pd(ap[3]), bv));
                    ap += lda;
                    bp += ldb;
                }
                acc0 = _mm256_add_pd(acc0, p0);
                acc1 = _mm256_add_pd(acc1, p1);
                acc2 = _mm256_add_pd(acc2, p2);
                acc3 = _mm256_add_pd(acc3, p3);
            }
            _mm256_storeu_pd(c0 + j, acc0);
            _mm256_storeu_pd(c1 + j, acc1);
            _mm256_storeu_pd(c2 + j, acc2);
            _mm256_storeu_pd(c3 + j, acc3);
        }
        for (; j < bcols; ++j) {
            double acc0 = c0[j];
            double acc1 = c1[j];
            double acc2 = c2[j];
            double acc3 = c3[j];
            const double* ap = a + i0;
            const double* bp = b + j;
            for (size_t s = 0; s < nsegs; ++s) {
                double p0 = 0.0, p1 = 0.0, p2 = 0.0, p3 = 0.0;
                for (size_t r = 0; r < seg_rows[s]; ++r) {
                    const double bv = bp[0];
                    p0 += ap[0] * bv;
                    p1 += ap[1] * bv;
                    p2 += ap[2] * bv;
                    p3 += ap[3] * bv;
                    ap += lda;
                    bp += ldb;
                }
                acc0 += p0;
                acc1 += p1;
                acc2 += p2;
                acc3 += p3;
            }
            c0[j] = acc0;
            c1[j] = acc1;
            c2[j] = acc2;
            c3[j] = acc3;
        }
    }
    for (; i0 < acols; ++i0) {
        double* crow = c + i0 * ldc;
        size_t j = 0;
        for (; j + 8 <= bcols; j += 8) {
            __m512d acc = _mm512_loadu_pd(crow + j);
            const double* ap = a + i0;
            const double* bp = b + j;
            for (size_t s = 0; s < nsegs; ++s) {
                __m512d p = _mm512_setzero_pd();
                for (size_t r = 0; r < seg_rows[s]; ++r) {
                    p = _mm512_add_pd(
                        p, _mm512_mul_pd(_mm512_set1_pd(ap[0]),
                                         _mm512_loadu_pd(bp)));
                    ap += lda;
                    bp += ldb;
                }
                acc = _mm512_add_pd(acc, p);
            }
            _mm512_storeu_pd(crow + j, acc);
        }
        for (; j + 4 <= bcols; j += 4) {
            __m256d acc = _mm256_loadu_pd(crow + j);
            const double* ap = a + i0;
            const double* bp = b + j;
            for (size_t s = 0; s < nsegs; ++s) {
                __m256d p = _mm256_setzero_pd();
                for (size_t r = 0; r < seg_rows[s]; ++r) {
                    p = _mm256_add_pd(
                        p, _mm256_mul_pd(_mm256_set1_pd(ap[0]),
                                         _mm256_loadu_pd(bp)));
                    ap += lda;
                    bp += ldb;
                }
                acc = _mm256_add_pd(acc, p);
            }
            _mm256_storeu_pd(crow + j, acc);
        }
        for (; j < bcols; ++j) {
            double acc = crow[j];
            const double* ap = a + i0;
            const double* bp = b + j;
            for (size_t s = 0; s < nsegs; ++s) {
                double p = 0.0;
                for (size_t r = 0; r < seg_rows[s]; ++r) {
                    p += ap[0] * bp[0];
                    ap += lda;
                    bp += ldb;
                }
                acc += p;
            }
            crow[j] = acc;
        }
    }
}

#endif // PRUNER_NNKERNEL_X86

using MatmulFn = void (*)(const double*, size_t, size_t, size_t,
                          const double*, size_t, size_t, double*, size_t,
                          const double*, bool);

/**
 * One-time dispatch self-check: a kernel tier is only used if it
 * reproduces the naive golden kernel bit for bit on a case that covers
 * the main tile and every remainder path. This demotes a tier that a
 * compiler silently broke (e.g. contracting the explicit mul+add
 * intrinsics into FMAs under -ffp-contract=fast) instead of letting it
 * violate the engine's byte-identity guarantee.
 */
bool
matchesNaiveKernel(MatmulFn fn)
{
    // m = 9, n = 27 reaches every path of every tier: full 4-row blocks
    // plus a row remainder, a full vector j-panel plus a sub-panel and a
    // scalar column remainder (for the AVX-512 tier that includes its
    // delegations into the AVX2 kernel's main 4x8 block).
    constexpr size_t m = 9, k = 9, n = 27;
    double a[m * k], b[k * n], fast[m * n], naive[m * n];
    uint64_t state = 0x9E3779B97F4A7C15ull;
    auto next = [&state]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        // Doubles in ~[-1, 1] with full mantissas: any contraction of the
        // mul/add roundings shows up immediately.
        return static_cast<double>(static_cast<int64_t>(state >> 11)) /
               static_cast<double>(1ll << 52);
    };
    for (double& v : a) {
        v = next();
    }
    for (double& v : b) {
        v = next();
    }
    fn(a, m, k, k, b, n, n, fast, n, nullptr, false);
    matmulNaive(a, m, k, k, b, n, n, naive, n);
    if (std::memcmp(fast, naive, sizeof(fast)) != 0) {
        return false;
    }
    // Fused bias+relu epilogue vs the standalone passes.
    double bias[n];
    for (double& v : bias) {
        v = next();
    }
    fn(a, m, k, k, b, n, n, fast, n, bias, true);
    for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < n; ++j) {
            double v = naive[i * n + j] + bias[j];
            naive[i * n + j] = v > 0.0 ? v : 0.0;
        }
    }
    return std::memcmp(fast, naive, sizeof(fast)) == 0;
}

/** Frozen composed-ops per-segment partial, the multi-row step of
 *  matmulTNSegBlockedNaive: per element, the exact matmulTN chain
 *  (ascending r, zero-skip) then one add into C. */
void
matmulTNAddPartialNaive(const double* a, size_t rows, size_t acols,
                        size_t lda, const double* b, size_t bcols,
                        size_t ldb, double* c, size_t ldc)
{
    for (size_t i = 0; i < acols; ++i) {
        double* crow = c + i * ldc;
        for (size_t j = 0; j < bcols; ++j) {
            double acc = 0.0;
            for (size_t r = 0; r < rows; ++r) {
                const double ari = a[r * lda + i];
                if (ari == 0.0) {
                    continue;
                }
                acc += ari * b[r * ldb + j];
            }
            crow[j] += acc;
        }
    }
}

using MatmulTNSegFn = void (*)(const double*, size_t, const double*,
                               size_t, const size_t*, size_t, size_t,
                               size_t, double*, size_t);

/**
 * Self-check for the segment-blocked dW kernel: a segment mix of one-row
 * runs and 2/3/4-row segments, zeros planted in A (the composed naive
 * reference's skip paths), accumulated twice so the second pass starts
 * from a non-zero C. acols = 7 covers the 4-row C block and the 3-row
 * remainder; bcols = 15 covers the 8- and 4-wide vector panels and the
 * scalar column tail; a second round runs at the models' layer width
 * (64 columns). Compared bit for bit against matmulTNSegBlockedNaive.
 */
bool
matchesSegBlockedReference(MatmulTNSegFn fn)
{
    constexpr size_t segs[] = {1, 1, 3, 1, 2, 4, 2, 1};
    constexpr size_t nsegs = sizeof(segs) / sizeof(segs[0]);
    constexpr size_t rows = 15; // sum of segs
    constexpr size_t acols = 7, bcols = 15;
    double a[rows * acols], b[rows * bcols];
    double fast[acols * bcols] = {}, naive[acols * bcols] = {};
    uint64_t state = 0x5DEECE66D2B79F31ull;
    auto next = [&state]() {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return static_cast<double>(static_cast<int64_t>(state >> 11)) /
               static_cast<double>(1ll << 52);
    };
    for (size_t e = 0; e < rows * acols; ++e) {
        a[e] = e % 5 == 0 ? 0.0 : next(); // exercise the zero-skip paths
    }
    for (double& v : b) {
        v = next();
    }
    for (int pass = 0; pass < 2; ++pass) {
        fn(a, acols, b, bcols, segs, nsegs, acols, bcols, fast, bcols);
        matmulTNSegBlockedNaive(a, acols, b, bcols, segs, nsegs, acols,
                                bcols, naive, bcols);
        if (std::memcmp(fast, naive, sizeof(fast)) != 0) {
            return false;
        }
    }
    // Second round at the models' layer width (64 columns), plus a
    // one-row-only segment list: the collapsed-run shape whose reference
    // path is the direct matmulTNAccNaive accumulation.
    constexpr size_t ones[] = {1, 1, 1, 1, 1};
    constexpr size_t wide = 64;
    double bw[rows * wide], fastw[acols * wide] = {},
                            naivew[acols * wide] = {};
    for (double& v : bw) {
        v = next();
    }
    for (int pass = 0; pass < 2; ++pass) {
        fn(a, acols, bw, wide, segs, nsegs, acols, wide, fastw, wide);
        matmulTNSegBlockedNaive(a, acols, bw, wide, segs, nsegs, acols,
                                wide, naivew, wide);
        if (std::memcmp(fastw, naivew, sizeof(fastw)) != 0) {
            return false;
        }
        fn(a, acols, bw, wide, ones, 5, acols, wide, fastw, wide);
        matmulTNSegBlockedNaive(a, acols, bw, wide, ones, 5, acols, wide,
                                naivew, wide);
        if (std::memcmp(fastw, naivew, sizeof(fastw)) != 0) {
            return false;
        }
    }
    // Third round with ten A columns: one 8-row i block plus a two-row
    // remainder, against both the ragged and layer-width column counts.
    constexpr size_t acols2 = 10;
    double a2[rows * acols2];
    for (size_t e = 0; e < rows * acols2; ++e) {
        a2[e] = e % 5 == 0 ? 0.0 : next();
    }
    double fast2[acols2 * bcols] = {}, naive2[acols2 * bcols] = {};
    double fast2w[acols2 * wide] = {}, naive2w[acols2 * wide] = {};
    for (int pass = 0; pass < 2; ++pass) {
        fn(a2, acols2, b, bcols, segs, nsegs, acols2, bcols, fast2, bcols);
        matmulTNSegBlockedNaive(a2, acols2, b, bcols, segs, nsegs, acols2,
                                bcols, naive2, bcols);
        if (std::memcmp(fast2, naive2, sizeof(fast2)) != 0) {
            return false;
        }
        fn(a2, acols2, bw, wide, segs, nsegs, acols2, wide, fast2w, wide);
        matmulTNSegBlockedNaive(a2, acols2, bw, wide, segs, nsegs, acols2,
                                wide, naive2w, wide);
        if (std::memcmp(fast2w, naive2w, sizeof(fast2w)) != 0) {
            return false;
        }
    }
    return true;
}

/** A dispatched kernel plus its tier name (see nnkernel::kernelTiers). */
struct PickedMatmul
{
    MatmulFn fn;
    const char* tier;
};
struct PickedMatmulTNSeg
{
    MatmulTNSegFn fn;
    const char* tier;
};

/** CPU-supported tiers rejected by their startup self-check (see
 *  kernelTierDemotions). Atomic: first-use dispatch can race across the
 *  pool's worker threads. */
std::atomic<size_t> g_tier_demotions{0};

void
noteTierDemotion()
{
    g_tier_demotions.fetch_add(1, std::memory_order_relaxed);
}

#ifdef PRUNER_NNKERNEL_X86

PickedMatmul
pickKernel()
{
    // The AVX-512 tier delegates its remainders to the AVX2 kernel, so
    // both must pass before it is accepted.
    if (__builtin_cpu_supports("avx512f")) {
        if (matchesNaiveKernel(matmulAvx512) &&
            matchesNaiveKernel(matmulAvx2)) {
            return {matmulAvx512, "avx512"};
        }
        noteTierDemotion();
    }
    if (__builtin_cpu_supports("avx2")) {
        if (matchesNaiveKernel(matmulAvx2)) {
            return {matmulAvx2, "avx2"};
        }
        noteTierDemotion();
    }
    return {matmulScalarTile, "scalar"};
}

PickedMatmulTNSeg
pickKernelTNSeg()
{
    if (__builtin_cpu_supports("avx512f")) {
        if (matchesSegBlockedReference(matmulTNSegBlockedAvx512)) {
            return {matmulTNSegBlockedAvx512, "avx512"};
        }
        noteTierDemotion();
    }
    if (__builtin_cpu_supports("avx2")) {
        if (matchesSegBlockedReference(matmulTNSegBlockedAvx2)) {
            return {matmulTNSegBlockedAvx2, "avx2"};
        }
        noteTierDemotion();
    }
    return {matmulTNSegBlockedNaive, "naive"};
}

#else

PickedMatmul
pickKernel()
{
    return {matmulScalarTile, "scalar"};
}

PickedMatmulTNSeg
pickKernelTNSeg()
{
    return {matmulTNSegBlockedNaive, "naive"};
}

#endif

/** Once-per-process dispatch caches (the self-check runs on first use). */
const PickedMatmul&
pickedKernel()
{
    static const PickedMatmul kernel = pickKernel();
    return kernel;
}

const PickedMatmulTNSeg&
pickedKernelTNSeg()
{
    static const PickedMatmulTNSeg kernel = pickKernelTNSeg();
    return kernel;
}

} // namespace

KernelTiers
kernelTiers()
{
    // matmulNT runs on the matmul kernel and the TN-accumulate on the
    // segment-blocked one, so their fields report those two tiers.
    const char* mm = pickedKernel().tier;
    const char* seg = pickedKernelTNSeg().tier;
    return {mm, mm, seg, seg};
}

size_t
kernelTierDemotions()
{
    kernelTiers(); // force every kernel's dispatch self-check
    return g_tier_demotions.load(std::memory_order_relaxed);
}

void
matmul(const double* a, size_t m, size_t k, size_t lda, const double* b,
       size_t n, size_t ldb, double* c, size_t ldc, const double* bias,
       bool relu)
{
    pickedKernel().fn(a, m, k, lda, b, n, ldb, c, ldc, bias, relu);
}

void
matmulNaive(const double* a, size_t m, size_t k, size_t lda, const double* b,
            size_t n, size_t ldb, double* c, size_t ldc)
{
    for (size_t i = 0; i < m; ++i) {
        double* crow = c + i * ldc;
        std::fill(crow, crow + n, 0.0);
        const double* arow = a + i * lda;
        for (size_t kk = 0; kk < k; ++kk) {
            const double aik = arow[kk];
            if (aik == 0.0) {
                continue;
            }
            const double* brow = b + kk * ldb;
            for (size_t j = 0; j < n; ++j) {
                crow[j] += aik * brow[j];
            }
        }
    }
}

void
matmulNT(const double* a, size_t m, size_t k, size_t lda, const double* b,
         size_t n, size_t ldb, double* c, size_t ldc)
{
    // Copy B into a per-thread B^T scratch (it only grows, so a warm
    // thread allocates nothing) and run matmul on it.
    thread_local std::vector<double> bt;
    if (bt.size() < k * n) {
        bt.resize(k * n);
    }
    for (size_t j = 0; j < n; ++j) {
        const double* brow = b + j * ldb;
        for (size_t kk = 0; kk < k; ++kk) {
            bt[kk * n + j] = brow[kk];
        }
    }
    matmul(a, m, k, lda, bt.data(), n, n, c, ldc);
}

void
matmulNTNaive(const double* a, size_t m, size_t k, size_t lda,
              const double* b, size_t n, size_t ldb, double* c, size_t ldc)
{
    for (size_t i = 0; i < m; ++i) {
        const double* arow = a + i * lda;
        double* crow = c + i * ldc;
        for (size_t j = 0; j < n; ++j) {
            const double* brow = b + j * ldb;
            double acc = 0.0;
            for (size_t kk = 0; kk < k; ++kk) {
                acc += arow[kk] * brow[kk];
            }
            crow[j] = acc;
        }
    }
}

void
matmulTNAccNaive(const double* a, size_t rows, size_t acols, size_t lda,
                 const double* b, size_t bcols, size_t ldb, double* c,
                 size_t ldc)
{
    for (size_t r = 0; r < rows; ++r) {
        const double* arow = a + r * lda;
        const double* brow = b + r * ldb;
        for (size_t i = 0; i < acols; ++i) {
            const double ari = arow[i];
            if (ari == 0.0) {
                continue;
            }
            double* crow = c + i * ldc;
            for (size_t j = 0; j < bcols; ++j) {
                crow[j] += ari * brow[j];
            }
        }
    }
}

void
matmulTNSegBlocked(const double* a, size_t lda, const double* b, size_t ldb,
                   const size_t* seg_rows, size_t nsegs, size_t acols,
                   size_t bcols, double* c, size_t ldc)
{
    const MatmulTNSegFn fn = pickedKernelTNSeg().fn;
    // Cache-block the segment list: the tier kernels walk every segment
    // once per C tile, so a pack larger than L2 would stream DRAM once
    // per tile. Splitting the run at whole-segment boundaries keeps each
    // chunk's A/B slices cache-resident; byte-identity is unaffected
    // because C passes through memory exactly (each chunk call resumes
    // the same per-element add chain the unchunked walk performs).
    const size_t bytes_per_row = (lda + ldb) * sizeof(double);
    const size_t kChunkBudget = size_t{384} * 1024;
    const size_t target_rows =
        std::max<size_t>(kChunkBudget / std::max<size_t>(bytes_per_row, 1),
                         64);
    size_t s = 0;
    while (s < nsegs) {
        size_t rows = 0;
        size_t count = 0;
        while (s + count < nsegs && (count == 0 || rows < target_rows)) {
            rows += seg_rows[s + count];
            ++count;
        }
        fn(a, lda, b, ldb, seg_rows + s, count, acols, bcols, c, ldc);
        a += rows * lda;
        b += rows * ldb;
        s += count;
    }
}

void
matmulTNSegBlockedNaive(const double* a, size_t lda, const double* b,
                        size_t ldb, const size_t* seg_rows, size_t nsegs,
                        size_t acols, size_t bcols, double* c, size_t ldc)
{
    for (size_t s = 0; s < nsegs; ++s) {
        const size_t rows = seg_rows[s];
        if (rows == 1) {
            // One-row segment: the batched backward's pre-seg-blocked
            // dispatch accumulated these straight into C.
            matmulTNAccNaive(a, 1, acols, lda, b, bcols, ldb, c, ldc);
        } else {
            matmulTNAddPartialNaive(a, rows, acols, lda, b, bcols, ldb, c,
                                    ldc);
        }
        a += rows * lda;
        b += rows * ldb;
    }
}

void
softmaxRows(double* data, size_t rows, size_t cols)
{
    if (cols == 0) {
        return; // nothing to normalize; avoids reading r[0] of empty rows
    }
    for (size_t i = 0; i < rows; ++i) {
        double* r = data + i * cols;
        double mx = r[0];
        for (size_t j = 1; j < cols; ++j) {
            mx = std::max(mx, r[j]);
        }
        double sum = 0.0;
        for (size_t j = 0; j < cols; ++j) {
            r[j] = std::exp(r[j] - mx);
            sum += r[j];
        }
        for (size_t j = 0; j < cols; ++j) {
            r[j] /= sum;
        }
    }
}

} // namespace nnkernel

namespace {

/** Satellite guard: rows * cols must not wrap size_t. */
void
checkShapeFits(size_t rows, size_t cols)
{
    PRUNER_CHECK_MSG(cols == 0 ||
                         rows <= std::numeric_limits<size_t>::max() / cols,
                     "Matrix shape " << rows << "x" << cols
                                     << " overflows size_t");
}

} // namespace

Matrix::Matrix(size_t rows, size_t cols, double fill)
    : rows_(rows), cols_(cols)
{
    checkShapeFits(rows, cols);
    data_.assign(rows * cols, fill);
}

void
Matrix::zero()
{
    std::fill(data_.begin(), data_.end(), 0.0);
}

void
Matrix::resize(size_t rows, size_t cols)
{
    checkShapeFits(rows, cols);
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
}

void
Matrix::appendRows(const Matrix& src, size_t src_row, size_t n_rows)
{
    PRUNER_CHECK_MSG(&src != this,
                     "appendRows source must not alias the destination "
                     "(growth may reallocate the shared buffer)");
    PRUNER_CHECK_MSG(src.cols_ == cols_,
                     "appendRows column mismatch: dst has "
                         << cols_ << " cols, src has " << src.cols_);
    PRUNER_CHECK_MSG(src_row + n_rows <= src.rows_,
                     "appendRows rows [" << src_row << ", "
                                         << src_row + n_rows
                                         << ") out of src range "
                                         << src.rows_);
    const size_t r0 = rows_;
    resize(rows_ + n_rows, cols_);
    if (n_rows > 0 && cols_ > 0) {
        std::memcpy(row(r0), src.row(src_row),
                    n_rows * cols_ * sizeof(double));
    }
}

Matrix
Matrix::sliceRows(size_t row0, size_t n_rows) const
{
    PRUNER_CHECK_MSG(row0 + n_rows <= rows_,
                     "sliceRows [" << row0 << ", " << row0 + n_rows
                                   << ") out of range " << rows_);
    Matrix out(n_rows, cols_);
    if (n_rows > 0 && cols_ > 0) {
        std::memcpy(out.row(0), row(row0), n_rows * cols_ * sizeof(double));
    }
    return out;
}

Matrix
Matrix::randn(size_t rows, size_t cols, Rng& rng, double scale)
{
    Matrix m(rows, cols);
    for (double& v : m.data_) {
        v = rng.normal() * scale;
    }
    return m;
}

Matrix
Matrix::matmul(const Matrix& a, const Matrix& b)
{
    Matrix c;
    matmulInto(a, b, c);
    return c;
}

void
Matrix::matmulInto(const Matrix& a, const Matrix& b, Matrix& c)
{
    PRUNER_CHECK_MSG(a.cols_ == b.rows_,
                     "matmul shape mismatch: [" << a.rows_ << "x" << a.cols_
                                                << "] * [" << b.rows_ << "x"
                                                << b.cols_ << "]");
    PRUNER_CHECK_MSG(&c != &a && &c != &b,
                     "matmulInto output must not alias an input");
    c.resize(a.rows_, b.cols_);
    nnkernel::matmul(a.data_.data(), a.rows_, a.cols_, a.cols_,
                     b.data_.data(), b.cols_, b.cols_, c.data_.data(),
                     c.cols_);
}

Matrix
Matrix::matmulNT(const Matrix& a, const Matrix& b)
{
    PRUNER_CHECK_MSG(a.cols_ == b.cols_,
                     "matmulNT shape mismatch: [" << a.rows_ << "x"
                                                  << a.cols_ << "] * ["
                                                  << b.rows_ << "x"
                                                  << b.cols_ << "]^T");
    Matrix c(a.rows_, b.rows_);
    nnkernel::matmulNT(a.data_.data(), a.rows_, a.cols_, a.cols_,
                       b.data_.data(), b.rows_, b.cols_, c.data_.data(),
                       c.cols_);
    return c;
}

Matrix
Matrix::matmulTN(const Matrix& a, const Matrix& b)
{
    PRUNER_CHECK_MSG(a.rows_ == b.rows_,
                     "matmulTN shape mismatch: [" << a.rows_ << "x"
                                                  << a.cols_ << "]^T * ["
                                                  << b.rows_ << "x"
                                                  << b.cols_ << "]");
    Matrix c(a.cols_, b.cols_);
    nnkernel::matmulTNAccNaive(a.data_.data(), a.rows_, a.cols_, a.cols_,
                               b.data_.data(), b.cols_, b.cols_,
                               c.data_.data(), c.cols_);
    return c;
}

void
Matrix::add(const Matrix& other)
{
    PRUNER_CHECK_MSG(rows_ == other.rows_ && cols_ == other.cols_,
                     "add shape mismatch: [" << rows_ << "x" << cols_
                                             << "] += [" << other.rows_
                                             << "x" << other.cols_ << "]");
    for (size_t i = 0; i < data_.size(); ++i) {
        data_[i] += other.data_[i];
    }
}

void
Matrix::addScaled(const Matrix& other, double scale)
{
    PRUNER_CHECK_MSG(rows_ == other.rows_ && cols_ == other.cols_,
                     "addScaled shape mismatch: ["
                         << rows_ << "x" << cols_ << "] += s * ["
                         << other.rows_ << "x" << other.cols_ << "]");
    for (size_t i = 0; i < data_.size(); ++i) {
        data_[i] += scale * other.data_[i];
    }
}

void
Matrix::addRowVector(const Matrix& bias)
{
    PRUNER_CHECK_MSG(bias.rows_ == 1 && bias.cols_ == cols_,
                     "addRowVector expects a [1x" << cols_ << "] bias, got ["
                                                  << bias.rows_ << "x"
                                                  << bias.cols_ << "]");
    for (size_t i = 0; i < rows_; ++i) {
        double* r = row(i);
        for (size_t j = 0; j < cols_; ++j) {
            r[j] += bias.data_[j];
        }
    }
}

void
Matrix::hadamard(const Matrix& other)
{
    PRUNER_CHECK_MSG(rows_ == other.rows_ && cols_ == other.cols_,
                     "hadamard shape mismatch: [" << rows_ << "x" << cols_
                                                  << "] .* ["
                                                  << other.rows_ << "x"
                                                  << other.cols_ << "]");
    for (size_t i = 0; i < data_.size(); ++i) {
        data_[i] *= other.data_[i];
    }
}

void
Matrix::scale(double s)
{
    for (double& v : data_) {
        v *= s;
    }
}

Matrix
Matrix::colSum() const
{
    Matrix out(1, cols_);
    for (size_t i = 0; i < rows_; ++i) {
        const double* r = row(i);
        for (size_t j = 0; j < cols_; ++j) {
            out.data_[j] += r[j];
        }
    }
    return out;
}

Matrix
Matrix::colMean() const
{
    Matrix out = colSum();
    if (rows_ > 0) {
        out.scale(1.0 / static_cast<double>(rows_));
    }
    return out;
}

void
Matrix::softmaxRows()
{
    nnkernel::softmaxRows(data_.data(), rows_, cols_);
}

double
Matrix::norm() const
{
    double acc = 0.0;
    for (double v : data_) {
        acc += v * v;
    }
    return std::sqrt(acc);
}

} // namespace pruner
