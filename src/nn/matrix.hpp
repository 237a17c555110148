#pragma once

/**
 * @file matrix.hpp
 * Dense row-major matrix used by the tiny neural-network library.
 *
 * The learned cost models in this reproduction are small (hidden width 64,
 * a handful of layers), so a cache-friendly implementation is plenty: the
 * whole training loop for a cost model runs in seconds. The inference hot
 * path (batched candidate scoring) additionally goes through the tiled
 * kernels in pruner::nnkernel, which accumulate every output element over k
 * in strictly ascending order — exactly like the naive triple loop — so
 * batched and per-candidate results are byte-identical.
 */

#include <cstddef>
#include <vector>

#include "support/rng.hpp"

namespace pruner {

namespace nnkernel {

/**
 * Raw register-blocked GEMM: C[m,n] = A[m,k] * B[k,n], row-major with the
 * given row strides. C is overwritten (no need to pre-zero) and must not
 * alias A or B. Each C element is a single accumulator over k in ascending
 * order with separate multiply and add roundings (no FMA contraction), so
 * the result is bitwise identical to the naive triple loop for any m — the
 * property the batched inference engine's byte-identity guarantee rests
 * on. Dispatches at runtime to the AVX-512 or AVX2 instantiation of one
 * register-tile template (separate vector multiply and add, never FMA)
 * where available, falling back to a 4x16 scalar register tile; tile
 * sizes are tuned for the 64-wide hidden layers of the cost models (see
 * matrix.cpp).
 *
 * Optional fused epilogue, applied in the store step instead of as extra
 * memory passes: when @p bias is non-null, bias[j] is added to each
 * element; when @p relu, elements rectify as (v > 0 ? v : 0). Both match
 * the standalone passes (addRowVector, ReLU::infer) byte for byte — the
 * same per-element operations, just without re-touching C.
 */
void matmul(const double* a, size_t m, size_t k, size_t lda, const double* b,
            size_t n, size_t ldb, double* c, size_t ldc,
            const double* bias = nullptr, bool relu = false);

/**
 * Raw C[m,n] = A[m,k] * B[n,k]^T: copies B into a per-thread B^T scratch
 * and makes one call through the matmul() dispatch, so it has no tier of
 * its own. matmul()'s tiers are self-checked to build every element as a
 * +0-seeded chain over ascending k with separate multiply and add
 * roundings, which is exactly matmulNTNaive()'s loop, so the bytes equal
 * it for any m. Used by the attention cores (Q K^T, dA = dctx V^T) and
 * the batched backward's dX = dY W^T GEMMs. C must not alias A or B.
 */
void matmulNT(const double* a, size_t m, size_t k, size_t lda,
              const double* b, size_t n, size_t ldb, double* c, size_t ldc);

/** The pre-dispatch NT product, preserved verbatim (scalar accumulator
 *  per element over ascending k): the frozen golden kernel matmulNT() is
 *  differentially checked against. */
void matmulNTNaive(const double* a, size_t m, size_t k, size_t lda,
                   const double* b, size_t n, size_t ldb, double* c,
                   size_t ldc);

/** The frozen naive accumulating transposed-A loop: C[i,j] += sum_r
 *  A[r,i] * B[r,j] over @p rows rows, r outer with a zero-skip on A[r,i].
 *  Matrix::matmulTN is this loop on a zeroed C, and it is the one-row
 *  step of matmulTNSegBlockedNaive(). C is accumulated into. */
void matmulTNAccNaive(const double* a, size_t rows, size_t acols,
                      size_t lda, const double* b, size_t bcols, size_t ldb,
                      double* c, size_t ldc);

/**
 * Segment-blocked dW reduction: one call covers a whole contiguous
 * segment run. A and B are the packed [sum(seg_rows), acols/bcols]
 * operands; segment s spans the next seg_rows[s] rows of both. For every
 * C element the kernel loads the accumulator ONCE, then for each segment
 * (ascending) builds the segment's partial sum_r A[r,i] * B[r,j] in a
 * local register (terms in ascending r, separate mul/add roundings) and
 * folds it in with a single add, and finally stores ONCE — the exact
 * per-element rounding chain of `grad.add(Matrix::matmulTN(x_seg,
 * dy_seg))` per segment. A one-row partial is a single product, so a
 * one-row segment also equals the direct accumulation of
 * matmulTNAccNaive(); and one segment of t rows into a zeroed C equals
 * Matrix::matmulTN, because a +0-seeded partial is never -0.0 and
 * +0 + p == p (the attention backward's dV and dK rest on this).
 * Replaces the per-segment load/add/store C traffic of the batched
 * backward with one C pass per pack. Inputs must be finite; C must hold
 * no -0.0 entries (gradient buffers start zeroed and accumulate sums,
 * which cannot produce -0.0 under round-to-nearest). Dispatched with a
 * startup self-check against the composed per-segment naive kernels and
 * demoted on mismatch.
 *
 * With @p seg_repeats (one count per segment, or nullptr for none),
 * segment s's last stored row stands for 1 + seg_repeats[s] logical rows
 * (see SegmentTable): the kernel computes that row's product once and
 * adds it to the partial once per logical row, separately rounded adds
 * with no FMA, which is the chain of the expanded segment. seg_rows and
 * the A/B operands count stored rows only.
 */
void matmulTNSegBlocked(const double* a, size_t lda, const double* b,
                        size_t ldb, const size_t* seg_rows, size_t nsegs,
                        size_t acols, size_t bcols, double* c, size_t ldc,
                        const size_t* seg_repeats = nullptr);

/** The frozen composed reference for matmulTNSegBlocked: per segment, the
 *  matmulTNAddPartialNaive chain (multi-row) or the matmulTNAccNaive
 *  direct accumulation (one-row) — mirroring the batched backward's
 *  pre-seg-blocked per-segment dispatch. A segment with repeats is
 *  walked as its expanded logical rows. */
void matmulTNSegBlockedNaive(const double* a, size_t lda, const double* b,
                             size_t ldb, const size_t* seg_rows,
                             size_t nsegs, size_t acols, size_t bcols,
                             double* c, size_t ldc,
                             const size_t* seg_repeats = nullptr);

/**
 * The pre-batching GEMM, preserved verbatim (ikj loop, zero-skip,
 * accumulation in C): the frozen golden kernel behind every model's
 * predictReference() path. Produces the same bytes as matmul() for finite
 * inputs — the differential tests pit the two implementations against
 * each other on every batch. C is overwritten.
 */
void matmulNaive(const double* a, size_t m, size_t k, size_t lda,
                 const double* b, size_t n, size_t ldb, double* c,
                 size_t ldc);

/** Tier names of the GEMM kernels on this host (e.g. "avx512", "avx2",
 *  "scalar", "naive") — the result of the startup self-check dispatch,
 *  for observability (/metrics labels, tune reports). Two kernels are
 *  dispatched: matmul and matmulTNSegBlocked. matmul_nt reports the
 *  matmul tier that matmulNT runs on, and matmul_tn_acc the
 *  segment-blocked tier that the attention backward's TN-accumulate runs
 *  on. Forces the dispatch on first call. */
struct KernelTiers
{
    const char* matmul;
    const char* matmul_nt;
    const char* matmul_tn_acc;
    const char* matmul_tn_seg;
};
KernelTiers kernelTiers();

/** Number of kernel tiers the CPU supports but the startup self-check
 *  rejected. Every supported tier of both kernels is checked, not only
 *  the widest, so a failing tier counts even when a wider one passes and
 *  is picked. Zero on a healthy host: a nonzero value means a
 *  toolchain/codegen change broke a vector kernel's byte-identity
 *  contract, and a kernel whose widest tier failed silently fell back.
 *  Forces the dispatch of every kernel on first call; feeds the
 *  kernel_tier_demotions_total metric and the tuneReport warning row. */
size_t kernelTierDemotions();

/** Row-wise softmax in place on a raw row-major [rows, cols] block,
 *  numerically stable (each row is shifted by its max). Matrix::softmaxRows
 *  and the attention training forward's flat score blocks both run it, so
 *  the two produce the same bytes. A zero-column block is a no-op. */
void softmaxRows(double* data, size_t rows, size_t cols);

} // namespace nnkernel

/** Row-major dense matrix of doubles. */
class Matrix
{
  public:
    Matrix() = default;
    Matrix(size_t rows, size_t cols, double fill = 0.0);

    size_t rows() const { return rows_; }
    size_t cols() const { return cols_; }
    size_t size() const { return data_.size(); }
    bool empty() const { return data_.empty(); }

    double& at(size_t r, size_t c) { return data_[r * cols_ + c]; }
    double at(size_t r, size_t c) const { return data_[r * cols_ + c]; }

    double* row(size_t r) { return data_.data() + r * cols_; }
    const double* row(size_t r) const { return data_.data() + r * cols_; }

    std::vector<double>& data() { return data_; }
    const std::vector<double>& data() const { return data_; }

    /** Fill with zeros. */
    void zero();

    /**
     * Reshape to [rows, cols] with std::vector semantics: existing scalars
     * (in flat row-major order) are preserved, appended scalars are
     * value-initialized to 0.0, and capacity is never released — repeated
     * resize cycles below the high-water mark perform no heap allocation
     * (the property the inference Workspace relies on).
     */
    void resize(size_t rows, size_t cols);

    /** Append @p n_rows rows copied from @p src starting at @p src_row
     *  (column counts must match; @p src must not be this matrix). */
    void appendRows(const Matrix& src, size_t src_row, size_t n_rows);

    /** Copy of rows [row0, row0 + n_rows). */
    Matrix sliceRows(size_t row0, size_t n_rows) const;

    /** Kaiming-style init: N(0, sqrt(2/fan_in)). */
    static Matrix randn(size_t rows, size_t cols, Rng& rng, double scale);

    /** C = A * B. */
    static Matrix matmul(const Matrix& a, const Matrix& b);

    /** C = A * B into a caller-owned matrix (resized; no allocation when
     *  its capacity suffices). @p c must not alias @p a or @p b. */
    static void matmulInto(const Matrix& a, const Matrix& b, Matrix& c);

    /** C = A * B^T. */
    static Matrix matmulNT(const Matrix& a, const Matrix& b);

    /** C = A^T * B. */
    static Matrix matmulTN(const Matrix& a, const Matrix& b);

    /** this += other (same shape). */
    void add(const Matrix& other);

    /** Add a row vector (bias) to every row. */
    void addRowVector(const Matrix& bias);

    /** Elementwise product in place. */
    void hadamard(const Matrix& other);

    /** Multiply all entries by s. */
    void scale(double s);

    /** Sum over rows -> [1, cols]. */
    Matrix colSum() const;

    /** Mean over rows -> [1, cols]. */
    Matrix colMean() const;

    /** Row-wise softmax (in place), numerically stable. A zero-column
     *  matrix is a no-op (every row is an empty distribution). */
    void softmaxRows();

    /** Frobenius norm. */
    double norm() const;

  private:
    size_t rows_ = 0;
    size_t cols_ = 0;
    std::vector<double> data_;
};

} // namespace pruner
