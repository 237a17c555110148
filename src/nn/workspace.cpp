#include "nn/workspace.hpp"

#include <algorithm>

#include "support/logging.hpp"

namespace pruner {

void
Workspace::reset()
{
    next_mat_ = 0;
    next_seg_ = 0;
}

Matrix&
Workspace::alloc(size_t rows, size_t cols)
{
    if (next_mat_ == mats_.size()) {
        mats_.push_back(std::make_unique<Matrix>());
    }
    Matrix& m = *mats_[next_mat_++];
    m.resize(rows, cols);
    return m;
}

Matrix&
Workspace::allocZero(size_t rows, size_t cols)
{
    Matrix& m = alloc(rows, cols);
    m.zero();
    return m;
}

SegmentTable&
Workspace::allocSegments()
{
    if (next_seg_ == segs_.size()) {
        segs_.push_back(std::make_unique<SegmentTable>());
    }
    SegmentTable& s = *segs_[next_seg_++];
    s.reset();
    return s;
}

size_t
Workspace::doublesReserved() const
{
    size_t total = 0;
    for (const auto& m : mats_) {
        total += m->data().capacity();
    }
    return total;
}

Workspace&
threadLocalWorkspace()
{
    static thread_local Workspace ws;
    return ws;
}

void
segmentColSum(const Matrix& x, const SegmentTable& segs, Matrix& out)
{
    PRUNER_CHECK_MSG(segs.totalRows() == x.rows(),
                     "segment table covers " << segs.totalRows()
                                             << " rows, pack has "
                                             << x.rows());
    out.resize(segs.count(), x.cols());
    out.zero();
    for (size_t s = 0; s < segs.count(); ++s) {
        double* o = out.row(s);
        const size_t b = segs.begin(s);
        const size_t n = segs.rows(s);
        // Logical row r is stored row min(r, n - 1): a repeated last row
        // adds its term once per logical row.
        for (size_t r = 0; r < segs.logicalRows(s); ++r) {
            const double* xr = x.row(b + std::min(r, n - 1));
            for (size_t c = 0; c < x.cols(); ++c) {
                o[c] += xr[c];
            }
        }
    }
}

void
SegmentTable::append(size_t rows, size_t repeats)
{
    PRUNER_CHECK_MSG(rows > 0 || repeats == 0,
                     "a segment with repeats needs a stored row");
    begins_.push_back(pack_rows_);
    nrows_.push_back(rows);
    repeats_.push_back(repeats);
    pack_rows_ += rows;
    any_repeats_ = any_repeats_ || repeats > 0;
}

void
SegmentTable::appendAlias(size_t begin, size_t rows)
{
    PRUNER_CHECK_MSG(begin + rows <= pack_rows_,
                     "appendAlias [" << begin << ", " << begin + rows
                                     << ") outside the packed "
                                     << pack_rows_ << " rows");
    // An alias must duplicate an earlier segment exactly: consumers
    // (e.g. the attention watermark skip) assume an aliased block was
    // already processed under the SAME segment grouping — a partial
    // alias would silently reuse outputs computed over different
    // boundaries.
    bool matches = false;
    for (size_t i = 0; i < nrows_.size() && !matches; ++i) {
        matches = begins_[i] == begin && nrows_[i] == rows;
    }
    PRUNER_CHECK_MSG(matches, "appendAlias ["
                                  << begin << ", " << begin + rows
                                  << ") does not match any earlier "
                                     "segment exactly");
    begins_.push_back(begin);
    nrows_.push_back(rows);
    repeats_.push_back(0);
    ++aliases_;
}

void
segmentBroadcast(const Matrix& src, size_t src_col0, size_t ncols,
                 const SegmentTable& segs, Matrix& out, bool mean)
{
    PRUNER_CHECK_MSG(segs.count() == src.rows(),
                     "segmentBroadcast: " << segs.count()
                                          << " segments from a src of "
                                          << src.rows() << " rows");
    PRUNER_CHECK(src_col0 + ncols <= src.cols());
    out.resize(segs.totalRows(), ncols);
    size_t expect_begin = 0;
    for (size_t s = 0; s < segs.count(); ++s) {
        const size_t b = segs.begin(s);
        const size_t n = segs.rows(s);
        // Training packs must tile the pack: an aliased (deduplicated)
        // table here would silently overwrite shared rows instead of
        // giving each record its own gradient rows.
        PRUNER_CHECK_MSG(b == expect_begin,
                         "segmentBroadcast requires contiguous segments "
                         "(segment " << s << " begins at " << b
                                     << ", expected " << expect_begin
                                     << " — aliased tables are "
                                        "inference-only)");
        expect_begin = b + n;
        if (n == 0) {
            continue;
        }
        const double* sr = src.row(s) + src_col0;
        const double inv =
            mean ? 1.0 / static_cast<double>(segs.logicalRows(s)) : 1.0;
        for (size_t r = 0; r < n; ++r) {
            double* o = out.row(b + r);
            if (mean) {
                for (size_t c = 0; c < ncols; ++c) {
                    o[c] = sr[c] * inv;
                }
            } else {
                for (size_t c = 0; c < ncols; ++c) {
                    o[c] = sr[c];
                }
            }
        }
    }
}

void
segmentColMean(const Matrix& x, const SegmentTable& segs, Matrix& out)
{
    segmentColSum(x, segs, out);
    for (size_t s = 0; s < segs.count(); ++s) {
        const size_t n = segs.logicalRows(s);
        if (n == 0) {
            continue;
        }
        const double inv = 1.0 / static_cast<double>(n);
        double* o = out.row(s);
        for (size_t c = 0; c < out.cols(); ++c) {
            o[c] *= inv;
        }
    }
}

} // namespace pruner
