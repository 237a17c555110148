#pragma once

/**
 * @file layers.hpp
 * Neural-network modules with explicit forward/backward passes.
 *
 * The library deliberately avoids a general autograd tape: every cost model
 * in this reproduction is a fixed composition of Linear / ReLU / attention /
 * pooling blocks, so hand-written backward passes are simpler, faster, and
 * easy to gradient-check.
 */

#include <vector>

#include "nn/matrix.hpp"
#include "nn/workspace.hpp"

namespace pruner {

/** A (parameter, gradient) pair registered with the optimizer. */
struct ParamRef
{
    Matrix* value = nullptr;
    Matrix* grad = nullptr;
};

/**
 * Per-layer activations of one batched training forward: acts[0] is the
 * input pack, acts[i + 1] layer i's output (post-ReLU for hidden layers).
 * The pointers refer to workspace-owned (pointer-stable) buffers and stay
 * valid until the workspace's next reset(). Callers keep one instance
 * alive across batches so steady-state passes allocate nothing.
 */
using BatchActs = std::vector<const Matrix*>;

/** Fully connected layer: y = x W + b. */
class Linear
{
  public:
    Linear() = default;

    /** Initialize with Kaiming-scaled weights. */
    Linear(size_t in, size_t out, Rng& rng);

    /** Forward pass; caches the input for backward. x: [n, in]. */
    Matrix forward(const Matrix& x);

    /** Cache-free forward into a caller-owned buffer: y = x W + b, no
     *  allocation when y's capacity suffices. The bias (and, when
     *  @p relu_after, the rectifier) is fused into the kernel's store
     *  epilogue — byte-equal to the standalone passes without re-touching
     *  y. @p y must not alias @p x. */
    void inferInto(const Matrix& x, Matrix& y, bool relu_after = false) const;

    /** The pre-batching forward, frozen on the naive golden kernel
     *  (nnkernel::matmulNaive): the byte-identity reference the batched
     *  engine is differentially tested against. */
    Matrix inferReference(const Matrix& x) const;

    /** Backward pass: accumulates dW/db, returns dL/dx. */
    Matrix backward(const Matrix& dy);

    /**
     * Segment-aware batched backward over a packed batch. dW and db
     * accumulate one per-segment partial at a time, added in ascending
     * segment order — byte-identical to running the per-record
     * `backward()` (matmulTN + colSum, then add) for each segment in
     * turn, because the partial reuses the exact accumulation order of
     * those ops (dW through nnkernel::matmulTNSegBlocked). dL/dX comes
     * back as a single nnkernel::matmulNT GEMM over the whole pack
     * (row-independent, so also byte-identical per row). A segment with
     * tail repeats counts as its expanded rows: the db chain and the dW
     * kernel add its last row's term once per logical row. @p x must be
     * the forward input pack; pass `need_dx = false` for the first layer
     * to skip the dX GEMM (returns nullptr). Intermediates live in @p ws;
     * zero heap allocations once the workspace is warm.
     */
    Matrix* backwardBatch(const Matrix& x, const Matrix& dy,
                          const SegmentTable& segs, Workspace& ws,
                          bool need_dx = true);

    /** Register parameters with an optimizer. */
    void collectParams(std::vector<ParamRef>& out);

    size_t inDim() const { return w_.rows(); }
    size_t outDim() const { return w_.cols(); }

  private:
    Matrix w_, b_;
    Matrix dw_, db_;
    Matrix x_cache_;
};

/** Elementwise rectifier. */
class ReLU
{
  public:
    Matrix forward(const Matrix& x);
    Matrix infer(const Matrix& x) const;
    Matrix backward(const Matrix& dy);

  private:
    Matrix mask_;
};

/**
 * A stack of Linear+ReLU blocks with a linear head, e.g. {40,64,64,1}.
 * The workhorse for the MLP cost model and all model branches.
 */
class Mlp
{
  public:
    Mlp() = default;
    Mlp(const std::vector<size_t>& dims, Rng& rng);

    Matrix forward(const Matrix& x);

    /** Frozen pre-batching forward on the naive golden kernel (see
     *  Linear::inferReference). */
    Matrix inferReference(const Matrix& x) const;

    /**
     * Batched forward over a packed row matrix: every layer is one GEMM
     * over all rows, with intermediates drawn from @p ws (zero heap
     * allocations once the workspace is warm). Each output row is
     * byte-identical to inferReference() on that row alone — every
     * row-level op is row-independent with an unchanged accumulation
     * order, so a pack deduplicated through an aliased SegmentTable
     * scores the same. The one forward for inference and training: with
     * @p acts, every layer boundary is recorded there for backwardBatch;
     * null means inference. Aliased tables are inference-only. No
     * module-level caching — reentrant across workspaces; keep @p acts
     * and @p ws alive until the backward runs. Returns a workspace-owned
     * matrix, valid until the next ws.reset().
     */
    const Matrix& forwardBatch(const Matrix& x, Workspace& ws,
                               BatchActs* acts = nullptr) const;

    /**
     * Segment-aware batched backward through the stack: per-layer dW/db
     * partials per segment (ascending order, see Linear::backwardBatch),
     * ReLU masking from the cached post-activations, and one dX = dY W^T
     * GEMM per layer (nnkernel::matmulNT) for the inter-layer gradients.
     * Byte-identical parameter gradients to running the per-record
     * forward()+backward() for each segment in pack order. @p segs must
     * tile the pack: aliased tables are inference-only, and this throws
     * InternalError on one. Returns ws-owned dL/dx, or nullptr when
     * @p need_dx is false.
     */
    Matrix* backwardBatch(const Matrix& dy, const BatchActs& acts,
                          const SegmentTable& segs, Workspace& ws,
                          bool need_dx = false);

    Matrix backward(const Matrix& dy);
    void collectParams(std::vector<ParamRef>& out);

    size_t inDim() const;
    size_t outDim() const;

  private:
    std::vector<Linear> linears_;
    std::vector<ReLU> relus_; // one fewer than linears_
};

} // namespace pruner
