#include "nn/attention.hpp"

#include <algorithm>
#include <cmath>

#include "support/logging.hpp"

namespace pruner {

namespace {

/** Rows [b, b + t) of @p m with the last one repeated up to @p tl rows,
 *  copied into @p out; returns out's first row. */
const double*
expandRows(const Matrix& m, size_t b, size_t t, size_t tl, Matrix& out)
{
    out.resize(tl, m.cols());
    std::copy_n(m.row(b), t * m.cols(), out.row(0));
    for (size_t i = t; i < tl; ++i) {
        std::copy_n(m.row(b + t - 1), m.cols(), out.row(i));
    }
    return out.row(0);
}

} // namespace

SelfAttention::SelfAttention(size_t dim, Rng& rng)
    : dim_(dim),
      wq_(dim, dim, rng),
      wk_(dim, dim, rng),
      wv_(dim, dim, rng),
      wo_(dim, dim, rng)
{
}

Matrix
SelfAttention::forward(const Matrix& x)
{
    PRUNER_CHECK(x.cols() == dim_);
    q_ = wq_.forward(x);
    k_ = wk_.forward(x);
    v_ = wv_.forward(x);
    attn_ = Matrix::matmulNT(q_, k_);
    attn_.scale(1.0 / std::sqrt(static_cast<double>(dim_)));
    attn_.softmaxRows();
    const Matrix ctx = Matrix::matmul(attn_, v_);
    return wo_.forward(ctx);
}

Matrix
SelfAttention::inferReference(const Matrix& x) const
{
    const Matrix q = wq_.inferReference(x);
    const Matrix k = wk_.inferReference(x);
    const Matrix v = wv_.inferReference(x);
    // Frozen on the naive NT kernel: nnkernel::matmulNT runs on the
    // dispatched matmul tiers, which produce the same bytes, but the
    // reference must not move with them.
    Matrix attn(q.rows(), k.rows());
    nnkernel::matmulNTNaive(q.row(0), q.rows(), q.cols(), q.cols(),
                            k.row(0), k.rows(), k.cols(), attn.row(0),
                            attn.cols());
    attn.scale(1.0 / std::sqrt(static_cast<double>(dim_)));
    attn.softmaxRows();
    Matrix ctx(attn.rows(), v.cols());
    nnkernel::matmulNaive(attn.row(0), attn.rows(), attn.cols(),
                          attn.cols(), v.row(0), v.cols(), v.cols(),
                          ctx.row(0), ctx.cols());
    return wo_.inferReference(ctx);
}

const Matrix&
SelfAttention::forwardBatch(const Matrix& x, const SegmentTable& segs,
                            Workspace& ws, AttentionBatchCache* cache,
                            std::span<const size_t> row_map) const
{
    PRUNER_CHECK(x.cols() == dim_);
    const bool mapped = !row_map.empty();
    PRUNER_CHECK_MSG(!mapped || cache == nullptr,
                     "a row-mapped attention pack is inference-only");
    PRUNER_CHECK_MSG(!mapped || segs.repeatsData() == nullptr,
                     "a row-mapped attention pack has no repeats");
    const size_t rows = mapped ? row_map.size() : x.rows();
    PRUNER_CHECK(segs.totalRows() == rows);
    Matrix& q = ws.alloc(x.rows(), dim_);
    Matrix& k = ws.alloc(x.rows(), dim_);
    Matrix& v = ws.alloc(x.rows(), dim_);
    wq_.inferInto(x, q);
    wk_.inferInto(x, k);
    wv_.inferInto(x, v);

    // Softmax blocks: back to back in one flat buffer when caching for the
    // backward, else one block reused segment after segment. A segment of
    // t stored rows and T logical rows has a [t, T] block: its repeated
    // last query row would only recompute the last stored row. The flat
    // buffer is allocated at its final shape, so its stale contents are
    // overwritten block by block rather than zeroed first.
    size_t total = 0;
    if (cache != nullptr) {
        cache->attn_off.resize(segs.count());
        for (size_t s = 0; s < segs.count(); ++s) {
            cache->attn_off[s] = total;
            total += segs.rows(s) * segs.logicalRows(s);
        }
    }
    Matrix& attn = ws.alloc(cache != nullptr ? 1 : 0, total);
    Matrix& ctx = ws.alloc(rows, dim_);
    // A mapped pack's per-segment Q, K and V rows, gathered through the
    // map so the core below reads them as it reads an unmapped pack's.
    Matrix* qg = mapped ? &ws.alloc(0, dim_) : nullptr;
    Matrix* kg = mapped ? &ws.alloc(0, dim_) : nullptr;
    Matrix* vg = mapped ? &ws.alloc(0, dim_) : nullptr;
    // A segment with repeats attends over its expanded keys and values.
    const bool repeats = segs.repeatsData() != nullptr;
    Matrix* kx = repeats ? &ws.alloc(0, dim_) : nullptr;
    Matrix* vx = repeats ? &ws.alloc(0, dim_) : nullptr;
    const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(dim_));
    size_t done = 0; // logical rows already attended (aliased blocks skip)
    for (size_t s = 0; s < segs.count(); ++s) {
        const size_t b = segs.begin(s);
        const size_t t = segs.rows(s);
        const size_t tl = segs.logicalRows(s);
        if (t == 0 || b + t <= done) {
            // Empty, or aliased: an aliased segment's rows are an earlier
            // segment's block, whose ctx rows this loop already wrote
            // (identical inputs, identical outputs).
            continue;
        }
        if (cache == nullptr) {
            attn.resize(t, tl);
        }
        double* ablock =
            attn.row(0) + (cache != nullptr ? cache->attn_off[s] : 0);
        const double* qb = nullptr;
        const double* kb = nullptr;
        const double* vb = nullptr;
        if (mapped) {
            qg->resize(t, dim_);
            kg->resize(t, dim_);
            vg->resize(t, dim_);
            for (size_t i = 0; i < t; ++i) {
                const size_t src = row_map[b + i];
                std::copy_n(q.row(src), dim_, qg->row(i));
                std::copy_n(k.row(src), dim_, kg->row(i));
                std::copy_n(v.row(src), dim_, vg->row(i));
            }
            qb = qg->row(0);
            kb = kg->row(0);
            vb = vg->row(0);
        } else {
            qb = q.row(b);
            kb = tl > t ? expandRows(k, b, t, tl, *kx) : k.row(b);
            vb = tl > t ? expandRows(v, b, t, tl, *vx) : v.row(b);
        }
        // Q K^T off the row-major K block (nnkernel::matmulNT): C[i][j]
        // accumulates Q[i][kk] * K[j][kk] over ascending kk, the
        // reference path's exact core.
        nnkernel::matmulNT(qb, t, dim_, dim_, kb, tl, dim_, ablock, tl);
        for (size_t e = 0; e < t * tl; ++e) {
            ablock[e] *= inv_sqrt_d;
        }
        nnkernel::softmaxRows(ablock, t, tl);
        nnkernel::matmul(ablock, t, tl, tl, vb, dim_, dim_, ctx.row(b),
                         dim_);
        done = b + t;
    }
    Matrix& out = ws.alloc(rows, dim_);
    wo_.inferInto(ctx, out);
    if (cache != nullptr) {
        cache->x = &x;
        cache->q = &q;
        cache->k = &k;
        cache->v = &v;
        cache->ctx = &ctx;
        cache->attn = &attn;
    }
    return out;
}

Matrix*
SelfAttention::backwardBatch(const Matrix& dy,
                             const AttentionBatchCache& cache,
                             const SegmentTable& segs, Workspace& ws,
                             bool need_dx)
{
    PRUNER_CHECK(cache.x != nullptr && cache.attn != nullptr);
    PRUNER_CHECK(dy.rows() == cache.x->rows() && dy.cols() == dim_);
    // dWo/dbo per segment, dctx = dY Wo^T over the whole pack.
    Matrix* dctx = wo_.backwardBatch(*cache.ctx, dy, segs, ws,
                                     /*need_dx=*/true);
    Matrix& dq = ws.alloc(dy.rows(), dim_);
    Matrix& dk = ws.alloc(dy.rows(), dim_);
    Matrix& dv = ws.alloc(dy.rows(), dim_);
    Matrix& dattn = ws.alloc(0, 0);
    const bool repeats = segs.repeatsData() != nullptr;
    Matrix* kx = repeats ? &ws.alloc(0, dim_) : nullptr;
    Matrix* vx = repeats ? &ws.alloc(0, dim_) : nullptr;
    const double inv_sqrt_d = 1.0 / std::sqrt(static_cast<double>(dim_));
    for (size_t s = 0; s < segs.count(); ++s) {
        const size_t b = segs.begin(s);
        const size_t t = segs.rows(s);
        const size_t tl = segs.logicalRows(s);
        const size_t reps = segs.repeats(s);
        if (t == 0) {
            continue;
        }
        // With repeats, the per-row GEMMs read K and V expanded to tl
        // rows, and the dV and dK folds walk the t stored query rows with
        // the last one repeated. Only the t stored keys' dV and dK rows
        // are computed: a repeated key's rows equal the last one's.
        const double* ablock = cache.attn->row(0) + cache.attn_off[s];
        const double* kb =
            tl > t ? expandRows(*cache.k, b, t, tl, *kx) : cache.k->row(b);
        const double* vb =
            tl > t ? expandRows(*cache.v, b, t, tl, *vx) : cache.v->row(b);
        // dA = dctx V^T (reference: Matrix::matmulNT).
        dattn.resize(t, tl);
        nnkernel::matmulNT(dctx->row(b), t, dim_, dim_, vb, tl, dim_,
                           dattn.row(0), tl);
        // dV = A^T dctx (reference: Matrix::matmulTN): one segment of tl
        // logical rows folded into the zeroed block, which equals
        // matmulTN.
        std::fill(dv.row(b), dv.row(b) + t * dim_, 0.0);
        nnkernel::matmulTNSegBlocked(ablock, tl, dctx->row(b), dim_, &t, 1,
                                     t, dim_, dv.row(b), dim_, &reps);
        // Softmax backward per row: dS = A .* (dA - rowsum(dA .* A)).
        for (size_t i = 0; i < t; ++i) {
            const double* arow = ablock + i * tl;
            double* drow = dattn.row(i);
            double dot = 0.0;
            for (size_t j = 0; j < tl; ++j) {
                dot += drow[j] * arow[j];
            }
            for (size_t j = 0; j < tl; ++j) {
                drow[j] = arow[j] * (drow[j] - dot);
            }
        }
        for (size_t e = 0; e < t * tl; ++e) {
            dattn.data()[e] *= inv_sqrt_d;
        }
        // dQ = dS K (reference: Matrix::matmul through the fast kernel).
        nnkernel::matmul(dattn.row(0), t, tl, tl, kb, dim_, dim_, dq.row(b),
                         dim_);
        // dK = dS^T Q (reference: Matrix::matmulTN), the same one-segment
        // fold into a zeroed block.
        std::fill(dk.row(b), dk.row(b) + t * dim_, 0.0);
        nnkernel::matmulTNSegBlocked(dattn.row(0), tl, cache.q->row(b), dim_,
                                     &t, 1, t, dim_, dk.row(b), dim_, &reps);
    }
    // Projection backward in the per-record order (wq, wk, wv), with the
    // same elementwise dx add sequence.
    Matrix* dx = wq_.backwardBatch(*cache.x, dq, segs, ws, need_dx);
    Matrix* dxk = wk_.backwardBatch(*cache.x, dk, segs, ws, need_dx);
    Matrix* dxv = wv_.backwardBatch(*cache.x, dv, segs, ws, need_dx);
    if (!need_dx) {
        return nullptr;
    }
    dx->add(*dxk);
    dx->add(*dxv);
    return dx;
}

Matrix
SelfAttention::backward(const Matrix& dy)
{
    PRUNER_CHECK(!attn_.empty());
    const Matrix dctx = wo_.backward(dy);
    // dA = dctx V^T ; dV = A^T dctx
    Matrix dattn = Matrix::matmulNT(dctx, v_);
    const Matrix dv = Matrix::matmulTN(attn_, dctx);
    // Softmax backward per row: dS = A .* (dA - rowsum(dA .* A)).
    for (size_t i = 0; i < dattn.rows(); ++i) {
        double dot = 0.0;
        const double* arow = attn_.row(i);
        double* drow = dattn.row(i);
        for (size_t j = 0; j < dattn.cols(); ++j) {
            dot += drow[j] * arow[j];
        }
        for (size_t j = 0; j < dattn.cols(); ++j) {
            drow[j] = arow[j] * (drow[j] - dot);
        }
    }
    dattn.scale(1.0 / std::sqrt(static_cast<double>(dim_)));
    const Matrix dq = Matrix::matmul(dattn, k_);
    const Matrix dk = Matrix::matmulTN(dattn, q_);
    Matrix dx = wq_.backward(dq);
    dx.add(wk_.backward(dk));
    dx.add(wv_.backward(dv));
    return dx;
}

void
SelfAttention::collectParams(std::vector<ParamRef>& out)
{
    wq_.collectParams(out);
    wk_.collectParams(out);
    wv_.collectParams(out);
    wo_.collectParams(out);
}

} // namespace pruner
