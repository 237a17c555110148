#pragma once

/**
 * @file workspace.hpp
 * Reusable scratch memory for batched cost-model inference.
 *
 * The batched forward pass packs every candidate's feature rows into one
 * matrix per stage (one GEMM per population instead of a GEMV per
 * candidate). All intermediates live in a Workspace: an arena of Matrix /
 * SegmentTable buffers handed out in call order and recycled by reset().
 * Buffer capacity is never released, so once a workspace has seen its
 * high-water batch shape, steady-state inference performs zero heap
 * allocations (asserted by a counting-allocator hook in
 * tests/test_batched_inference.cpp).
 *
 * A Workspace is single-threaded scratch: share one per thread (see
 * threadLocalWorkspace()), never across threads.
 */

#include <memory>
#include <vector>

#include "nn/matrix.hpp"

namespace pruner {

/**
 * Row ranges of a packed batch matrix: segment i covers rows
 * [begin(i), begin(i) + rows(i)) of the pack, one segment per candidate.
 * Variable-length segments (per-statement features) and fixed-stride ones
 * (dataflow / primitive sequences) use the same table.
 *
 * Segments normally tile the pack contiguously (append()), but a segment
 * may also alias an earlier segment's rows (appendAlias()): identical
 * blocks — e.g. the all-zero padding rows of ablated/empty-dataflow
 * candidates — are packed once and referenced many times, shrinking every
 * GEMM over the pack without changing a single output byte (identical
 * input rows produce identical output rows).
 *
 * A segment may also carry a tail repeat count r (append(rows, r)): its
 * last stored row then stands for 1 + r logical rows, so the segment has
 * logicalRows(i) = rows(i) + r rows while the pack holds rows(i) of them.
 * The training packs use it for zero padding, which every layer maps to
 * byte-identical rows. Row-wise ops run on the stored rows only; every
 * reduction over a segment's logical rows (segmentColSum, segmentColMean,
 * segmentBroadcast's mean, Linear::backwardBatch's dW and db,
 * SelfAttention's core) adds the repeated row's term once per logical
 * row, in the order the expanded segment adds it, so no byte moves.
 */
class SegmentTable
{
  public:
    void reset()
    {
        begins_.clear();
        nrows_.clear();
        repeats_.clear();
        pack_rows_ = 0;
        aliases_ = 0;
        any_repeats_ = false;
    }

    /** Append a segment covering the next @p rows rows of the pack, its
     *  last row standing for 1 + @p repeats logical rows (a segment with
     *  repeats needs at least one row). */
    void append(size_t rows, size_t repeats = 0);

    /** Append a segment aliasing existing pack rows [begin, begin + rows)
     *  — which must duplicate an earlier segment's (begin, rows) exactly
     *  (partial aliases are rejected: consumers assume an aliased block
     *  was processed under the same segment grouping). The pack does not
     *  grow. */
    void appendAlias(size_t begin, size_t rows);

    size_t count() const { return nrows_.size(); }
    size_t begin(size_t i) const { return begins_[i]; }
    /** Stored rows of segment i. */
    size_t rows(size_t i) const { return nrows_[i]; }
    /** Extra logical copies of segment i's last stored row. */
    size_t repeats(size_t i) const { return repeats_[i]; }
    /** Rows segment i stands for: rows(i) + repeats(i). */
    size_t logicalRows(size_t i) const { return nrows_[i] + repeats_[i]; }

    /** The per-segment row counts as a flat array — the seg_rows operand
     *  of nnkernel::matmulTNSegBlocked (valid for contiguous,
     *  alias-free tables; see Linear::backwardBatch's validation walk). */
    const size_t* rowsData() const { return nrows_.data(); }

    /** The per-segment repeat counts as a flat array, or nullptr when
     *  every count is 0 — the seg_repeats operand of
     *  nnkernel::matmulTNSegBlocked. */
    const size_t* repeatsData() const
    {
        return any_repeats_ ? repeats_.data() : nullptr;
    }

    /** Rows of the underlying pack (aliased segments and repeats add
     *  none). */
    size_t totalRows() const { return pack_rows_; }

    /** Segments that alias earlier rows (the dedup the batched engine
     *  got for free; feeds the model_*_alias_segments metrics). */
    size_t aliasCount() const { return aliases_; }

  private:
    std::vector<size_t> begins_, nrows_, repeats_;
    size_t pack_rows_ = 0;
    size_t aliases_ = 0;
    bool any_repeats_ = false;
};

/** Arena of reusable inference buffers (see file comment). */
class Workspace
{
  public:
    /** Start a fresh pass: all buffers become available again. Contents
     *  are preserved until re-acquired; capacity is never released. */
    void reset();

    /** Next matrix buffer, shaped [rows, cols]. Contents are unspecified
     *  (stale scalars from earlier passes) — callers must overwrite every
     *  entry or use allocZero. The reference stays valid until the
     *  workspace is destroyed (buffers are pointer-stable). */
    Matrix& alloc(size_t rows, size_t cols);

    /** Next matrix buffer, zero-filled. */
    Matrix& allocZero(size_t rows, size_t cols);

    /** Next segment table, reset to zero segments. */
    SegmentTable& allocSegments();

    /** Buffers ever created (growth events; a steady-state pass leaves
     *  this unchanged — the workspace-reuse regression tests key on it). */
    size_t matrixBuffers() const { return mats_.size(); }
    size_t segmentBuffers() const { return segs_.size(); }

    /** Total scalars currently reserved across matrix buffers. */
    size_t doublesReserved() const;

  private:
    std::vector<std::unique_ptr<Matrix>> mats_;
    std::vector<std::unique_ptr<SegmentTable>> segs_;
    size_t next_mat_ = 0;
    size_t next_seg_ = 0;
};

/** Per-thread workspace for the model predict() hot path: reentrant across
 *  pool workers (each thread owns one) and warm after the first batch. */
Workspace& threadLocalWorkspace();

/**
 * Per-segment column sums: out[i] = colSum of x rows
 * [segs.begin(i), +rows(i)), accumulated in ascending row order — the
 * same order (and therefore the same bytes) as per-candidate colSum().
 * A repeated last row is added once per logical row, so the sum is the
 * expanded segment's colSum().
 */
void segmentColSum(const Matrix& x, const SegmentTable& segs, Matrix& out);

/** Per-segment column means over the logical rows (empty segments yield
 *  zero rows), byte-equal to per-candidate colMean() of the expanded
 *  segment. */
void segmentColMean(const Matrix& x, const SegmentTable& segs, Matrix& out);

/**
 * Pooling backward for the batched trainer: every row of segment i in
 * @p out (resized to [segs.totalRows(), ncols]) receives columns
 * [src_col0, src_col0 + ncols) of src row i — the sum-pool broadcast the
 * per-record loop uses. With @p mean, each copied value is multiplied by
 * 1 / logicalRows(i) (one multiply per element, the exact op of the
 * per-record mean-pool backward). A repeated last row gets one stored
 * gradient row, the value each of its logical rows receives. Segments
 * must tile the pack (no aliases).
 */
void segmentBroadcast(const Matrix& src, size_t src_col0, size_t ncols,
                      const SegmentTable& segs, Matrix& out, bool mean);

} // namespace pruner
