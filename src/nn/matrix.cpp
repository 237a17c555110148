#include "nn/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <type_traits>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PRUNER_NNKERNEL_X86 1
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

/** Store epilogue of the scalar fallback tile (see matmul()). */
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
 * Lane types of the x86 register tiles. They are GCC vector extensions, so
 * one tile template compiles to ZMM code inside a target("avx512f")
 * entry point and to YMM code inside a target("avx2") one, and plain
 * double runs the same template as the scalar column tail. Element-wise
 * `acc + a * b` on them is a separately rounded vmulpd then vaddpd:
 * -ffp-contract=off (CMakeLists.txt) keeps GCC from fusing the pair into
 * an FMA, which "avx512f" would otherwise allow.
 */
typedef double Lanes8 __attribute__((vector_size(64)));
typedef double Lanes4 __attribute__((vector_size(32)));

template <class V>
constexpr size_t kLanes = sizeof(V) / sizeof(double);

/**
 * matmul register tile: R rows x P panels of V lanes of C, held in
 * accumulators across the whole k loop. Each lane is one C element's
 * +0-seeded chain of separately rounded multiplies and adds in ascending
 * k (matmulNaive's chain), and the epilogue is storeRow's bias add and
 * rectification; `v > 0 ? v : 0` maps NaN and -0.0 to +0.0 like the
 * scalar form. The unroll pragmas keep the accumulators in registers at
 * -O2, which does not fully unroll these loops by itself.
 */
template <size_t R, size_t P, class V>
[[gnu::always_inline]] inline void
matmulTile(const double* a, size_t k, size_t lda, const double* b,
           size_t ldb, double* c, size_t ldc, const double* bias, bool relu)
{
    constexpr size_t L = kLanes<V>;
    V acc[R][P] = {};
    for (size_t kk = 0; kk < k; ++kk) {
        V bv[P] = {};
#pragma GCC unroll 2
        for (size_t p = 0; p < P; ++p) {
            std::memcpy(&bv[p], b + kk * ldb + p * L, sizeof(V));
        }
#pragma GCC unroll 4
        for (size_t r = 0; r < R; ++r) {
            const double ark = a[r * lda + kk];
#pragma GCC unroll 2
            for (size_t p = 0; p < P; ++p) {
                acc[r][p] = acc[r][p] + ark * bv[p];
            }
        }
    }
#pragma GCC unroll 4
    for (size_t r = 0; r < R; ++r) {
#pragma GCC unroll 2
        for (size_t p = 0; p < P; ++p) {
            V v = acc[r][p];
            if (bias != nullptr) {
                V bp = {};
                std::memcpy(&bp, bias + p * L, sizeof(V));
                v = v + bp;
            }
            if (relu) {
                v = v > 0 ? v : 0;
            }
            std::memcpy(c + r * ldc + p * L, &v, sizeof(V));
        }
    }
}

/** R rows of matmul from column j0 on: tiles of the widest lane type
 *  first, then of each narrower one. A vector tile is two panels wide
 *  (8 accumulators + 2 B panels + 1 broadcast at R = 4, within the 16
 *  YMM registers); a scalar tile is one column. */
template <size_t R, class V, class... Narrower>
[[gnu::always_inline]] inline void
matmulRows(const double* a, size_t k, size_t lda, const double* b,
           size_t n, size_t ldb, double* c, size_t ldc, const double* bias,
           bool relu, size_t j0)
{
    constexpr size_t P = std::is_same_v<V, double> ? 1 : 2;
    for (; j0 + P * kLanes<V> <= n; j0 += P * kLanes<V>) {
        matmulTile<R, P, V>(a, k, lda, b + j0, ldb, c + j0, ldc,
                            bias != nullptr ? bias + j0 : nullptr, relu);
    }
    if constexpr (sizeof...(Narrower) > 0) {
        matmulRows<R, Narrower...>(a, k, lda, b, n, ldb, c, ldc, bias, relu,
                                   j0);
    }
}

/** An x86 matmul tier over lane types V...: 4-row blocks, then single
 *  rows, each across the column panels of matmulRows. */
template <class... V>
[[gnu::always_inline]] inline void
matmulTiles(const double* a, size_t m, size_t k, size_t lda,
            const double* b, size_t n, size_t ldb, double* c, size_t ldc,
            const double* bias, bool relu)
{
    size_t i0 = 0;
    for (; i0 + 4 <= m; i0 += 4) {
        matmulRows<4, V...>(a + i0 * lda, k, lda, b, n, ldb, c + i0 * ldc,
                            ldc, bias, relu, 0);
    }
    for (; i0 < m; ++i0) {
        matmulRows<1, V...>(a + i0 * lda, k, lda, b, n, ldb, c + i0 * ldc,
                            ldc, bias, relu, 0);
    }
}

/** AVX-512 matmul tier: 4x16 ZMM tiles, then 4x8 YMM tiles and scalar
 *  columns for the column remainder; single rows the same way. */
__attribute__((target("avx512f"))) void
matmulAvx512(const double* a, size_t m, size_t k, size_t lda,
             const double* b, size_t n, size_t ldb, double* c, size_t ldc,
             const double* bias, bool relu)
{
    matmulTiles<Lanes8, Lanes4, double>(a, m, k, lda, b, n, ldb, c, ldc,
                                        bias, relu);
}

/** AVX2 matmul tier: 4x8 YMM tiles, then scalar columns. */
__attribute__((target("avx2"))) void
matmulAvx2(const double* a, size_t m, size_t k, size_t lda, const double* b,
           size_t n, size_t ldb, double* c, size_t ldc, const double* bias,
           bool relu)
{
    matmulTiles<Lanes4, double>(a, m, k, lda, b, n, ldb, c, ldc, bias,
                                relu);
}

/**
 * Segment-blocked dW register tile (see matmulTNSegBlocked): R rows x one
 * panel of V lanes of C live in registers across the whole segment run.
 * The panel is loaded once, every segment folds in through a local
 * +0-seeded partial (terms in ascending r, separate roundings) with one
 * add, and the panel is stored once, replacing one C load/add/store pass
 * PER SEGMENT with one per pack. A segment with repeats adds its last
 * row's product once more per repeat. The per-element rounding chain is
 * exactly the composed per-segment naive reference
 * (matmulTNSegBlockedNaive).
 */
template <size_t R, class V>
[[gnu::always_inline]] inline void
segTile(const double* a, size_t lda, const double* b, size_t ldb,
        const size_t* seg_rows, const size_t* seg_repeats, size_t nsegs,
        double* c, size_t ldc)
{
    V acc[R] = {};
#pragma GCC unroll 8
    for (size_t r = 0; r < R; ++r) {
        std::memcpy(&acc[r], c + r * ldc, sizeof(V));
    }
    for (size_t s = 0; s < nsegs; ++s) {
        V part[R] = {};
        for (size_t row = 0; row < seg_rows[s]; ++row) {
            V bv = {};
            std::memcpy(&bv, b, sizeof(V));
#pragma GCC unroll 8
            for (size_t r = 0; r < R; ++r) {
                part[r] = part[r] + a[r] * bv;
            }
            a += lda;
            b += ldb;
        }
        const size_t reps = seg_repeats != nullptr ? seg_repeats[s] : 0;
        if (reps > 0) {
            // The last row's products, each the value its pass above
            // added, added again once per repeat.
            const double* al = a - lda;
            V bv = {};
            std::memcpy(&bv, b - ldb, sizeof(V));
            V prod[R];
#pragma GCC unroll 8
            for (size_t r = 0; r < R; ++r) {
                prod[r] = al[r] * bv;
            }
            for (size_t k = 0; k < reps; ++k) {
#pragma GCC unroll 8
                for (size_t r = 0; r < R; ++r) {
                    part[r] = part[r] + prod[r];
                }
            }
        }
#pragma GCC unroll 8
        for (size_t r = 0; r < R; ++r) {
            acc[r] = acc[r] + part[r];
        }
    }
#pragma GCC unroll 8
    for (size_t r = 0; r < R; ++r) {
        std::memcpy(c + r * ldc, &acc[r], sizeof(V));
    }
}

/** R rows of the segment-blocked kernel from column j on: one-panel tiles
 *  of the widest lane type first, then of each narrower one. Returns the
 *  first column no tile covered. */
template <size_t R, class V, class... Narrower>
[[gnu::always_inline]] inline size_t
segRows(const double* a, size_t lda, const double* b, size_t ldb,
        const size_t* seg_rows, const size_t* seg_repeats, size_t nsegs,
        size_t bcols, double* c, size_t ldc, size_t j)
{
    for (; j + kLanes<V> <= bcols; j += kLanes<V>) {
        segTile<R, V>(a, lda, b + j, ldb, seg_rows, seg_repeats, nsegs,
                      c + j, ldc);
    }
    if constexpr (sizeof...(Narrower) > 0) {
        return segRows<R, Narrower...>(a, lda, b, ldb, seg_rows,
                                       seg_repeats, nsegs, bcols, c, ldc,
                                       j);
    } else {
        return j;
    }
}

/** An x86 segment-blocked tier over lane types Wide, Narrow...: 8-row
 *  blocks where the lanes are ZMM, then 4-row blocks, then single rows. */
template <class Wide, class... Narrow>
[[gnu::always_inline]] inline void
segTiles(const double* a, size_t lda, const double* b, size_t ldb,
         const size_t* seg_rows, const size_t* seg_repeats, size_t nsegs,
         size_t acols, size_t bcols, double* c, size_t ldc)
{
    size_t i0 = 0;
    if constexpr (kLanes<Wide> == 8) {
        // 8-row tile: one shared B load feeds eight broadcast mul+add
        // chains, halving B traffic per flop versus the 4-row tile and
        // giving each add chain 2x latency slack. Its 16 live accumulator
        // and partial registers need the 32 of AVX-512. The narrower
        // column tail runs as two 4-row passes; each C element's chain is
        // independent per (i, j), so splitting the block changes no byte.
        for (; i0 + 8 <= acols; i0 += 8) {
            const size_t j = segRows<8, Wide>(a + i0, lda, b, ldb, seg_rows,
                                              seg_repeats, nsegs, bcols,
                                              c + i0 * ldc, ldc, 0);
            for (size_t h = i0; h < i0 + 8; h += 4) {
                segRows<4, Narrow...>(a + h, lda, b, ldb, seg_rows,
                                      seg_repeats, nsegs, bcols,
                                      c + h * ldc, ldc, j);
            }
        }
    }
    // One panel per row: wider 4-row tiles (two ZMM panels per row)
    // measured slower despite the extra add-latency slack, because the 12
    // live accumulator/partial registers push GCC into reordering that
    // loses the shared-broadcast win.
    for (; i0 + 4 <= acols; i0 += 4) {
        segRows<4, Wide, Narrow...>(a + i0, lda, b, ldb, seg_rows,
                                    seg_repeats, nsegs, bcols, c + i0 * ldc,
                                    ldc, 0);
    }
    for (; i0 < acols; ++i0) {
        segRows<1, Wide, Narrow...>(a + i0, lda, b, ldb, seg_rows,
                                    seg_repeats, nsegs, bcols, c + i0 * ldc,
                                    ldc, 0);
    }
}

/** AVX-512 segment-blocked tier: 8-, 4- and 1-row blocks over ZMM, YMM
 *  and scalar panels. */
__attribute__((target("avx512f"))) void
matmulTNSegBlockedAvx512(const double* a, size_t lda, const double* b,
                         size_t ldb, const size_t* seg_rows, size_t nsegs,
                         size_t acols, size_t bcols, double* c, size_t ldc,
                         const size_t* seg_repeats)
{
    segTiles<Lanes8, Lanes4, double>(a, lda, b, ldb, seg_rows, seg_repeats,
                                     nsegs, acols, bcols, c, ldc);
}

/** AVX2 segment-blocked tier: 4- and 1-row blocks over YMM and scalar
 *  panels. */
__attribute__((target("avx2"))) void
matmulTNSegBlockedAvx2(const double* a, size_t lda, const double* b,
                       size_t ldb, const size_t* seg_rows, size_t nsegs,
                       size_t acols, size_t bcols, double* c, size_t ldc,
                       const size_t* seg_repeats)
{
    segTiles<Lanes4, double>(a, lda, b, ldb, seg_rows, seg_repeats, nsegs,
                             acols, bcols, c, ldc);
}

#endif // PRUNER_NNKERNEL_X86

using MatmulFn = void (*)(const double*, size_t, size_t, size_t,
                          const double*, size_t, size_t, double*, size_t,
                          const double*, bool);

/**
 * One-time dispatch self-check: a kernel tier is only used if it
 * reproduces the naive golden kernel bit for bit on a case that covers
 * the main tile and every remainder path. This demotes a tier that a
 * compiler silently broke (e.g. contracting the tiles' mul+add pairs into
 * FMAs under -ffp-contract=fast) instead of letting it violate the
 * engine's byte-identity guarantee.
 */
bool
matchesNaiveKernel(MatmulFn fn)
{
    // m = 9, n = 27 reaches every tile of every tier: two 4-row blocks
    // plus a single row, each over 16 + 8 + 3 columns on the AVX-512 tier
    // (ZMM, YMM and scalar tiles) and 3 x 8 + 3 on the AVX2 tier.
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
 *  (ascending r, zero-skip) then one add into C. The segment is walked
 *  as its expanded logical rows: after the stored rows, the last one's
 *  term again once per repeat. */
void
matmulTNAddPartialNaive(const double* a, size_t rows, size_t repeats,
                        size_t acols, size_t lda, const double* b,
                        size_t bcols, size_t ldb, double* c, size_t ldc)
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
            for (size_t k = 0; k < repeats; ++k) {
                const double ari = a[(rows - 1) * lda + i];
                if (ari == 0.0) {
                    continue;
                }
                acc += ari * b[(rows - 1) * ldb + j];
            }
            crow[j] += acc;
        }
    }
}

using MatmulTNSegFn = void (*)(const double*, size_t, const double*,
                               size_t, const size_t*, size_t, size_t,
                               size_t, double*, size_t, const size_t*);

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
        fn(a, acols, b, bcols, segs, nsegs, acols, bcols, fast, bcols,
           nullptr);
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
        fn(a, acols, bw, wide, segs, nsegs, acols, wide, fastw, wide,
           nullptr);
        matmulTNSegBlockedNaive(a, acols, bw, wide, segs, nsegs, acols,
                                wide, naivew, wide);
        if (std::memcmp(fastw, naivew, sizeof(fastw)) != 0) {
            return false;
        }
        fn(a, acols, bw, wide, ones, 5, acols, wide, fastw, wide, nullptr);
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
        fn(a2, acols2, b, bcols, segs, nsegs, acols2, bcols, fast2, bcols,
           nullptr);
        matmulTNSegBlockedNaive(a2, acols2, b, bcols, segs, nsegs, acols2,
                                bcols, naive2, bcols);
        if (std::memcmp(fast2, naive2, sizeof(fast2)) != 0) {
            return false;
        }
        fn(a2, acols2, bw, wide, segs, nsegs, acols2, wide, fast2w, wide,
           nullptr);
        matmulTNSegBlockedNaive(a2, acols2, bw, wide, segs, nsegs, acols2,
                                wide, naive2w, wide);
        if (std::memcmp(fast2w, naive2w, sizeof(fast2w)) != 0) {
            return false;
        }
    }
    // Fourth round with tail repeats, the training packs' padding: the
    // first four segments (six rows), three of them with their last row
    // repeated, one-row segments with and without repeats among them,
    // accumulated onto a non-zero C. Thirteen A columns reach the 8-, 4-
    // and 1-row blocks of every tier in one call. Row 1, the second
    // segment's one stored row, is all zero in A: the repeated zero terms
    // take the reference's skip path.
    constexpr size_t reps[] = {1, 3, 2, 0};
    constexpr size_t acols3 = 13;
    double a3[6 * acols3], fast3[acols3 * bcols], naive3[acols3 * bcols];
    for (size_t e = 0; e < 6 * acols3; ++e) {
        const bool zero = e % 5 == 0 || (e >= acols3 && e < 2 * acols3);
        a3[e] = zero ? 0.0 : next();
    }
    for (size_t e = 0; e < acols3 * bcols; ++e) {
        fast3[e] = naive3[e] = next();
    }
    fn(a3, acols3, b, bcols, segs, 4, acols3, bcols, fast3, bcols, reps);
    matmulTNSegBlockedNaive(a3, acols3, b, bcols, segs, 4, acols3, bcols,
                            naive3, bcols, reps);
    return std::memcmp(fast3, naive3, sizeof(fast3)) == 0;
}

/** A dispatched kernel plus its tier name (see nnkernel::kernelTiers). */
template <class Fn>
struct Picked
{
    Fn fn;
    const char* tier;
};

/** Both kernels' tiers, picked once per process on first use. */
struct Dispatch
{
    Picked<MatmulFn> matmul{matmulScalarTile, "scalar"};
    Picked<MatmulTNSegFn> seg{matmulTNSegBlockedNaive, "naive"};
    /** CPU-supported tiers rejected by their self-check (see
     *  kernelTierDemotions). */
    size_t demotions = 0;
};

/**
 * Self-checks every tier the CPU supports, narrowest first, so each kernel
 * ends on the widest tier that passes and every tier that fails is counted
 * as a demotion, also one a passing wider tier would have hidden.
 */
Dispatch
pickTiers()
{
    Dispatch d;
#ifdef PRUNER_NNKERNEL_X86
    auto check = [&d](auto& picked, auto fn, auto passes, const char* tier) {
        if (passes(fn)) {
            picked = {fn, tier};
        } else {
            ++d.demotions;
        }
    };
    if (__builtin_cpu_supports("avx2")) {
        check(d.matmul, matmulAvx2, matchesNaiveKernel, "avx2");
        check(d.seg, matmulTNSegBlockedAvx2, matchesSegBlockedReference,
              "avx2");
    }
    if (__builtin_cpu_supports("avx512f")) {
        check(d.matmul, matmulAvx512, matchesNaiveKernel, "avx512");
        check(d.seg, matmulTNSegBlockedAvx512, matchesSegBlockedReference,
              "avx512");
    }
#endif
    return d;
}

const Dispatch&
dispatch()
{
    static const Dispatch d = pickTiers();
    return d;
}

} // namespace

KernelTiers
kernelTiers()
{
    // matmulNT runs on the matmul kernel and the TN-accumulate on the
    // segment-blocked one, so their fields report those two tiers.
    const Dispatch& d = dispatch();
    return {d.matmul.tier, d.matmul.tier, d.seg.tier, d.seg.tier};
}

size_t
kernelTierDemotions()
{
    return dispatch().demotions;
}

void
matmul(const double* a, size_t m, size_t k, size_t lda, const double* b,
       size_t n, size_t ldb, double* c, size_t ldc, const double* bias,
       bool relu)
{
    dispatch().matmul.fn(a, m, k, lda, b, n, ldb, c, ldc, bias, relu);
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
                   size_t bcols, double* c, size_t ldc,
                   const size_t* seg_repeats)
{
    const MatmulTNSegFn fn = dispatch().seg.fn;
    // Cache-block the segment list: the tier kernels walk every segment
    // once per C tile, so a pack larger than L2 would stream DRAM once
    // per tile. Splitting the run at whole-segment boundaries keeps each
    // chunk's A/B slices cache-resident; byte-identity is unaffected
    // because C passes through memory exactly (each chunk call resumes
    // the same per-element add chain the unchunked walk performs). Chunks
    // are sized and advanced by stored rows; repeats read no more memory.
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
        fn(a, lda, b, ldb, seg_rows + s, count, acols, bcols, c, ldc,
           seg_repeats != nullptr ? seg_repeats + s : nullptr);
        a += rows * lda;
        b += rows * ldb;
        s += count;
    }
}

void
matmulTNSegBlockedNaive(const double* a, size_t lda, const double* b,
                        size_t ldb, const size_t* seg_rows, size_t nsegs,
                        size_t acols, size_t bcols, double* c, size_t ldc,
                        const size_t* seg_repeats)
{
    for (size_t s = 0; s < nsegs; ++s) {
        const size_t rows = seg_rows[s];
        const size_t repeats = seg_repeats != nullptr ? seg_repeats[s] : 0;
        if (rows + repeats == 1) {
            // One-row segment: the batched backward's pre-seg-blocked
            // dispatch accumulated these straight into C.
            matmulTNAccNaive(a, 1, acols, lda, b, bcols, ldb, c, ldc);
        } else {
            matmulTNAddPartialNaive(a, rows, repeats, acols, lda, b, bcols,
                                    ldb, c, ldc);
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
