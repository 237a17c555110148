#include "nn/layers.hpp"

#include <cmath>

#include "support/logging.hpp"

namespace pruner {

Linear::Linear(size_t in, size_t out, Rng& rng)
    : w_(Matrix::randn(in, out, rng, std::sqrt(2.0 / (in + out)))),
      b_(1, out),
      dw_(in, out),
      db_(1, out)
{
}

Matrix
Linear::forward(const Matrix& x)
{
    x_cache_ = x;
    Matrix y = Matrix::matmul(x, w_);
    y.addRowVector(b_);
    return y;
}

void
Linear::inferInto(const Matrix& x, Matrix& y, bool relu_after) const
{
    PRUNER_CHECK_MSG(x.cols() == w_.rows(),
                     "inferInto shape mismatch: [" << x.rows() << "x"
                                                   << x.cols() << "] * ["
                                                   << w_.rows() << "x"
                                                   << w_.cols() << "]");
    PRUNER_CHECK_MSG(&y != &x, "inferInto output must not alias the input");
    y.resize(x.rows(), w_.cols());
    nnkernel::matmul(x.row(0), x.rows(), x.cols(), x.cols(), w_.row(0),
                     w_.cols(), w_.cols(), y.row(0), y.cols(), b_.row(0),
                     relu_after);
}

Matrix
Linear::inferReference(const Matrix& x) const
{
    PRUNER_CHECK_MSG(x.cols() == w_.rows(),
                     "inferReference shape mismatch: ["
                         << x.rows() << "x" << x.cols() << "] * ["
                         << w_.rows() << "x" << w_.cols() << "]");
    Matrix y(x.rows(), w_.cols());
    nnkernel::matmulNaive(x.row(0), x.rows(), x.cols(), x.cols(), w_.row(0),
                          w_.cols(), w_.cols(), y.row(0), y.cols());
    y.addRowVector(b_);
    return y;
}

Matrix
Linear::backward(const Matrix& dy)
{
    PRUNER_CHECK(!x_cache_.empty());
    dw_.add(Matrix::matmulTN(x_cache_, dy));
    db_.add(dy.colSum());
    return Matrix::matmulNT(dy, w_);
}

Matrix*
Linear::backwardBatch(const Matrix& x, const Matrix& dy,
                      const SegmentTable& segs, Workspace& ws, bool need_dx)
{
    PRUNER_CHECK_MSG(x.cols() == w_.rows() && dy.cols() == w_.cols() &&
                         x.rows() == dy.rows(),
                     "backwardBatch shape mismatch: x ["
                         << x.rows() << "x" << x.cols() << "], dy ["
                         << dy.rows() << "x" << dy.cols() << "], W ["
                         << w_.rows() << "x" << w_.cols() << "]");
    PRUNER_CHECK(segs.totalRows() == x.rows());
    // One partial per segment, added in segment order: the exact rounding
    // sequence of the per-record loop (`dw += matmulTN(x_r, dy_r)` builds
    // each record's full partial before the single add, so a flat
    // whole-pack accumulation would round differently). The db walk below
    // keeps that structure directly; the dW reduction hands the whole
    // pack to the segment-blocked kernel, which builds each segment's
    // partial element in a local register and folds it in with the same
    // single add — each dW element is loaded and stored ONCE per pack
    // instead of once per segment. One-row segments are single-product
    // partials, so the per-record direct-accumulation rounding chain is
    // preserved too (see matmulTNSegBlocked's contract). A segment with
    // repeats stands for its logical rows: both chains add the repeated
    // last row's term once per logical row.
    size_t s = 0;
    size_t expect_begin = 0;
    while (s < segs.count()) {
        const size_t b0 = segs.begin(s);
        // Gradient accumulation assumes each record owns its rows: an
        // aliased (deduplicated) segment table would double-count the
        // shared block. Aliased tables are inference-only; fail fast.
        PRUNER_CHECK_MSG(b0 == expect_begin,
                         "backwardBatch requires contiguous segments "
                         "(segment " << s << " begins at " << b0
                                     << ", expected " << expect_begin
                                     << " — aliased tables are "
                                        "inference-only)");
        expect_begin = b0 + segs.rows(s);
        if (segs.logicalRows(s) == 1) {
            size_t e = s + 1;
            while (e < segs.count() && segs.logicalRows(e) == 1 &&
                   segs.begin(e) == b0 + (e - s)) {
                ++e;
            }
            const size_t t = e - s;
            expect_begin = b0 + t;
            double* g = db_.row(0);
            for (size_t r = 0; r < t; ++r) {
                const double* dr = dy.row(b0 + r);
                for (size_t j = 0; j < dy.cols(); ++j) {
                    g[j] += dr[j];
                }
            }
            s = e;
            continue;
        }
        const size_t t = segs.rows(s);
        const size_t reps = segs.repeats(s);
        // db partial: the colSum chain from zero, one add per element.
        double* g = db_.row(0);
        for (size_t j = 0; j < dy.cols(); ++j) {
            double acc = 0.0;
            for (size_t r = 0; r < t; ++r) {
                acc += dy.at(b0 + r, j);
            }
            for (size_t k = 0; k < reps; ++k) {
                acc += dy.at(b0 + t - 1, j);
            }
            g[j] += acc;
        }
        ++s;
    }
    if (segs.count() > 0) {
        nnkernel::matmulTNSegBlocked(x.row(0), x.cols(), dy.row(0),
                                     dy.cols(), segs.rowsData(),
                                     segs.count(), x.cols(), dy.cols(),
                                     dw_.row(0), dw_.cols(),
                                     segs.repeatsData());
    }
    if (!need_dx) {
        return nullptr;
    }
    // dX = dY W^T over the whole pack (row-independent, so each row's
    // bytes match the per-record backward's Matrix::matmulNT).
    Matrix& dx = ws.alloc(dy.rows(), w_.rows());
    nnkernel::matmulNT(dy.row(0), dy.rows(), dy.cols(), dy.cols(), w_.row(0),
                       w_.rows(), w_.cols(), dx.row(0), dx.cols());
    return &dx;
}

void
Linear::collectParams(std::vector<ParamRef>& out)
{
    out.push_back({&w_, &dw_});
    out.push_back({&b_, &db_});
}

Matrix
ReLU::forward(const Matrix& x)
{
    mask_ = Matrix(x.rows(), x.cols());
    Matrix y = x;
    for (size_t i = 0; i < y.data().size(); ++i) {
        if (y.data()[i] > 0.0) {
            mask_.data()[i] = 1.0;
        } else {
            y.data()[i] = 0.0;
        }
    }
    return y;
}

Matrix
ReLU::infer(const Matrix& x) const
{
    Matrix y = x;
    for (double& v : y.data()) {
        v = v > 0.0 ? v : 0.0;
    }
    return y;
}

Matrix
ReLU::backward(const Matrix& dy)
{
    PRUNER_CHECK(!mask_.empty());
    Matrix dx = dy;
    dx.hadamard(mask_);
    return dx;
}

Mlp::Mlp(const std::vector<size_t>& dims, Rng& rng)
{
    PRUNER_CHECK(dims.size() >= 2);
    for (size_t i = 0; i + 1 < dims.size(); ++i) {
        linears_.emplace_back(dims[i], dims[i + 1], rng);
    }
    relus_.resize(linears_.size() - 1);
}

Matrix
Mlp::forward(const Matrix& x)
{
    Matrix h = x;
    for (size_t i = 0; i < linears_.size(); ++i) {
        h = linears_[i].forward(h);
        if (i < relus_.size()) {
            h = relus_[i].forward(h);
        }
    }
    return h;
}

Matrix
Mlp::inferReference(const Matrix& x) const
{
    Matrix h = x;
    for (size_t i = 0; i < linears_.size(); ++i) {
        h = linears_[i].inferReference(h);
        if (i < relus_.size()) {
            h = relus_[i].infer(h);
        }
    }
    return h;
}

const Matrix&
Mlp::forwardBatch(const Matrix& x, Workspace& ws, BatchActs* acts) const
{
    PRUNER_CHECK(!linears_.empty());
    if (acts != nullptr) {
        acts->assign(1, &x);
    }
    const Matrix* h = &x;
    for (size_t i = 0; i < linears_.size(); ++i) {
        Matrix& y = ws.alloc(h->rows(), linears_[i].outDim());
        linears_[i].inferInto(*h, y, /*relu_after=*/i < relus_.size());
        if (acts != nullptr) {
            acts->push_back(&y);
        }
        h = &y;
    }
    return *h;
}

Matrix*
Mlp::backwardBatch(const Matrix& dy, const BatchActs& acts,
                   const SegmentTable& segs, Workspace& ws, bool need_dx)
{
    PRUNER_CHECK(acts.size() == linears_.size() + 1);
    const Matrix* d = &dy;
    Matrix* dx = nullptr;
    for (size_t i = linears_.size(); i-- > 0;) {
        if (i < relus_.size()) {
            // ReLU backward off the cached post-activation: post > 0 iff
            // pre > 0, and the explicit multiply by the 1.0/0.0 mask is
            // the per-record ReLU::backward op (preserving d * 0.0 sign
            // semantics), so the bytes match exactly.
            const Matrix& act = *acts[i + 1];
            Matrix& masked = ws.alloc(d->rows(), d->cols());
            const auto& av = act.data();
            const auto& dv = d->data();
            auto& mv = masked.data();
            PRUNER_CHECK(av.size() == dv.size());
            for (size_t e = 0; e < dv.size(); ++e) {
                mv[e] = dv[e] * (av[e] > 0.0 ? 1.0 : 0.0);
            }
            d = &masked;
        }
        const bool want_dx = i > 0 || need_dx;
        dx = linears_[i].backwardBatch(*acts[i], *d, segs, ws, want_dx);
        d = dx;
    }
    return need_dx ? dx : nullptr;
}

Matrix
Mlp::backward(const Matrix& dy)
{
    Matrix d = dy;
    for (size_t i = linears_.size(); i-- > 0;) {
        if (i < relus_.size()) {
            d = relus_[i].backward(d);
        }
        d = linears_[i].backward(d);
    }
    return d;
}

void
Mlp::collectParams(std::vector<ParamRef>& out)
{
    for (auto& l : linears_) {
        l.collectParams(out);
    }
}

size_t
Mlp::inDim() const
{
    PRUNER_CHECK(!linears_.empty());
    return linears_.front().inDim();
}

size_t
Mlp::outDim() const
{
    PRUNER_CHECK(!linears_.empty());
    return linears_.back().outDim();
}

} // namespace pruner
