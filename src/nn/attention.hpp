#pragma once

/**
 * @file attention.hpp
 * Single-head scaled dot-product self-attention with manual backward.
 *
 * Used by the Pattern-aware Transformer's temporal-dataflow branch and by
 * the TLP baseline's primitive-sequence encoder. One forward call processes
 * one sequence [T, D]; batching is a loop over sequences (T is at most a
 * few dozen for every feature type in this system).
 */

#include <span>

#include "nn/layers.hpp"

namespace pruner {

/**
 * Workspace-owned intermediates of one batched attention training forward
 * (see SelfAttention::forwardBatch). The matrix pointers are
 * pointer-stable workspace buffers valid until the next ws.reset(); attn
 * stores every segment's post-softmax [t, T] score block (t stored rows,
 * T logical rows) back to back in one flat buffer at offsets
 * attn_off[s]. Keep one instance alive across batches — the offset
 * vector's capacity is reused.
 */
struct AttentionBatchCache
{
    const Matrix* x = nullptr;   ///< input pack
    const Matrix* q = nullptr;   ///< Q projection pack
    const Matrix* k = nullptr;   ///< K projection pack
    const Matrix* v = nullptr;   ///< V projection pack
    const Matrix* ctx = nullptr; ///< pre-output-projection context pack
    const Matrix* attn = nullptr; ///< flat [1, sum t_s T_s] softmax blocks
    std::vector<size_t> attn_off; ///< per-segment offset into attn
};

/** y = softmax(Q K^T / sqrt(d)) V, followed by an output projection. */
class SelfAttention
{
  public:
    SelfAttention() = default;
    SelfAttention(size_t dim, Rng& rng);

    /** Forward for one sequence x: [T, dim]; caches for backward. */
    Matrix forward(const Matrix& x);

    /** Frozen pre-batching forward on the naive golden kernels (see
     *  Linear::inferReference). */
    Matrix inferReference(const Matrix& x) const;

    /**
     * Batched forward over @p segs.count() sequences packed row-wise in
     * @p x: the Q/K/V/output projections each run as one GEMM over the
     * whole pack, and only the [T, T] attention core runs per segment
     * (attention must not leak across candidates, so the scores matrix is
     * block-diagonal by construction). Intermediates come from @p ws; each
     * segment's output rows are byte-identical to inferReference() on that
     * segment alone. Returns a workspace-owned [segs.totalRows(), dim]
     * matrix.
     *
     * The one forward for inference and training. With @p cache, the
     * projection packs and every segment's softmax block are kept there
     * for backwardBatch; null means inference, which reuses one [T, T]
     * block for every segment. A segment that aliases an earlier
     * segment's rows (SegmentTable::appendAlias) is skipped: its output
     * rows were already written, and recomputing them would be a
     * byte-level no-op. The skip never fires on a contiguous table.
     * Aliased tables are inference-only: an aliased segment's softmax
     * block is never written, and backwardBatch rejects the table.
     *
     * A non-empty @p row_map lets several logical rows share one row of
     * @p x (padding-row elision, see DataflowRowMap): @p segs then
     * indexes logical rows, logical row l is x row row_map[l], and the
     * map holds segs.totalRows() entries. Q, K and V are projected once
     * per x row; each segment's Q, K and V blocks are gathered through
     * the map into scratch and run the unchanged core, and the context,
     * output projection and result keep one row per logical row. GEMM
     * rows do not depend on their position, so the result is
     * byte-identical to the forward over the expanded rows. Mapped packs
     * are inference-only: @p cache must be null.
     *
     * A segment with tail repeats (SegmentTable::append(rows, repeats))
     * stands for T = logicalRows() rows of which t = rows() are stored:
     * its K and V blocks are expanded to T rows in workspace scratch, the
     * scores and softmax are [t, T] (a repeated query row would only
     * recompute the last stored row), and the result has its t stored
     * rows, each byte-identical to that row of the expanded segment's
     * forward. A mapped pack takes no repeats.
     */
    const Matrix& forwardBatch(const Matrix& x, const SegmentTable& segs,
                               Workspace& ws,
                               AttentionBatchCache* cache = nullptr,
                               std::span<const size_t> row_map = {}) const;

    /**
     * Segment-aware batched backward: the four projections' dW/db
     * accumulate per-segment partials in segment order (see
     * Linear::backwardBatch) and their inter-layer gradients run as one
     * GEMM over the pack; only the [t, T] attention-core backward runs
     * per segment, exactly like the forward. Byte-identical parameter
     * gradients to per-record forward()+backward() over the segments in
     * pack order, a segment with repeats counting as its expanded rows
     * (with one dy row per stored row, the value each of its logical
     * rows gets): dA is [t, T], dQ = dS K_expanded, and dV and dK are
     * folded over the logical query rows for the t stored keys only
     * (nnkernel::matmulTNSegBlocked with seg_repeats). @p segs must be
     * the contiguous table @p cache was filled over; an aliased table
     * throws InternalError. Returns ws-owned dL/dx for the stored rows,
     * or nullptr when @p need_dx is false.
     */
    Matrix* backwardBatch(const Matrix& dy, const AttentionBatchCache& cache,
                          const SegmentTable& segs, Workspace& ws,
                          bool need_dx = true);

    /** Backward: dy is [T, dim]; returns dL/dx. */
    Matrix backward(const Matrix& dy);

    void collectParams(std::vector<ParamRef>& out);

    size_t dim() const { return dim_; }

  private:
    size_t dim_ = 0;
    Linear wq_, wk_, wv_, wo_;
    // Caches for backward.
    Matrix q_, k_, v_, attn_;
};

} // namespace pruner
