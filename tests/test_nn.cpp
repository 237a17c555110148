/** Tests for src/nn: matrix ops, layers (with numerical gradient checks),
 *  attention, Adam, LambdaRank, parameter serialization. */

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "nn/attention.hpp"
#include "nn/layers.hpp"
#include "nn/loss.hpp"
#include "nn/matrix.hpp"
#include "nn/optimizer.hpp"
#include "nn/serialize.hpp"
#include "nn/workspace.hpp"
#include "support/logging.hpp"

namespace pruner {
namespace {

TEST(Matrix, MatmulAgainstHand)
{
    Matrix a(2, 3);
    Matrix b(3, 2);
    int v = 1;
    for (size_t i = 0; i < 2; ++i) {
        for (size_t j = 0; j < 3; ++j) {
            a.at(i, j) = v++;
        }
    }
    for (size_t i = 0; i < 3; ++i) {
        for (size_t j = 0; j < 2; ++j) {
            b.at(i, j) = v++;
        }
    }
    const Matrix c = Matrix::matmul(a, b);
    // a = [[1,2,3],[4,5,6]]; b = [[7,8],[9,10],[11,12]]
    EXPECT_DOUBLE_EQ(c.at(0, 0), 58.0);
    EXPECT_DOUBLE_EQ(c.at(0, 1), 64.0);
    EXPECT_DOUBLE_EQ(c.at(1, 0), 139.0);
    EXPECT_DOUBLE_EQ(c.at(1, 1), 154.0);
}

TEST(Matrix, TransposedMatmulsConsistent)
{
    Rng rng(3);
    const Matrix a = Matrix::randn(4, 5, rng, 1.0);
    const Matrix b = Matrix::randn(4, 6, rng, 1.0);
    // A^T B via matmulTN equals explicit transpose + matmul.
    Matrix at(5, 4);
    for (size_t i = 0; i < 4; ++i) {
        for (size_t j = 0; j < 5; ++j) {
            at.at(j, i) = a.at(i, j);
        }
    }
    const Matrix c1 = Matrix::matmulTN(a, b);
    const Matrix c2 = Matrix::matmul(at, b);
    for (size_t i = 0; i < c1.rows(); ++i) {
        for (size_t j = 0; j < c1.cols(); ++j) {
            EXPECT_NEAR(c1.at(i, j), c2.at(i, j), 1e-12);
        }
    }
}

TEST(Matrix, SoftmaxRowsSumToOne)
{
    Rng rng(5);
    Matrix m = Matrix::randn(4, 7, rng, 3.0);
    m.softmaxRows();
    for (size_t i = 0; i < m.rows(); ++i) {
        double sum = 0.0;
        for (size_t j = 0; j < m.cols(); ++j) {
            EXPECT_GT(m.at(i, j), 0.0);
            sum += m.at(i, j);
        }
        EXPECT_NEAR(sum, 1.0, 1e-12);
    }
}

TEST(Matrix, SoftmaxStableForLargeValues)
{
    Matrix m(1, 3);
    m.at(0, 0) = 1000.0;
    m.at(0, 1) = 1001.0;
    m.at(0, 2) = 999.0;
    m.softmaxRows();
    EXPECT_TRUE(std::isfinite(m.at(0, 0)));
    EXPECT_GT(m.at(0, 1), m.at(0, 0));
}

TEST(Matrix, SoftmaxZeroColumnsIsNoOp)
{
    // Regression: a [n, 0] matrix used to read r[0] of empty rows.
    Matrix m(3, 0);
    EXPECT_NO_THROW(m.softmaxRows());
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 0u);
    Matrix empty;
    EXPECT_NO_THROW(empty.softmaxRows());
}

TEST(Matrix, ConstructorRejectsOverflowingShape)
{
    const size_t huge = std::numeric_limits<size_t>::max() / 2;
    EXPECT_THROW(Matrix(huge, 3), InternalError);
    Matrix m(2, 2);
    EXPECT_THROW(m.resize(huge, huge), InternalError);
    // Degenerate-but-valid shapes are fine.
    EXPECT_NO_THROW(Matrix(huge, 0));
    EXPECT_NO_THROW(Matrix(0, 17));
}

TEST(Matrix, ShapeMismatchReportsDimensions)
{
    const Matrix a(2, 3);
    const Matrix b(4, 2);
    try {
        Matrix::matmul(a, b);
        FAIL() << "matmul accepted mismatched shapes";
    } catch (const InternalError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("2x3"), std::string::npos) << msg;
        EXPECT_NE(msg.find("4x2"), std::string::npos) << msg;
    }
    Matrix c(2, 3);
    try {
        c.addRowVector(Matrix(2, 3));
        FAIL() << "addRowVector accepted a non-row bias";
    } catch (const InternalError& e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("2x3"), std::string::npos) << msg;
    }
}

TEST(Matrix, TiledMatmulMatchesNaiveKernelBitwise)
{
    // The dispatched fast kernel (AVX-512 / AVX2 / scalar tile, whatever
    // this host selected) must reproduce the frozen naive kernel bit for
    // bit across shapes that exercise the main tile and every remainder
    // path — this is the foundation of the engine's byte-identity claim.
    // A second pass per shape runs the fused bias+relu epilogue against
    // matmulNaive + bias[j], then (v > 0 ? v : 0). Its biases come from
    // their own stream, so the first pass's A and B do not depend on it.
    Rng rng(101);
    Rng bias_rng(102);
    for (const auto [m, k, n] :
         {std::array<size_t, 3>{1, 1, 1}, {1, 128, 64}, {3, 7, 5},
          {4, 40, 64}, {5, 23, 17}, {9, 64, 64}, {33, 64, 23},
          {130, 31, 64}}) {
        const Matrix a = Matrix::randn(m, k, rng, 1.0);
        const Matrix b = Matrix::randn(k, n, rng, 1.0);
        const Matrix fast = Matrix::matmul(a, b);
        Matrix naive(m, n);
        nnkernel::matmulNaive(a.row(0), m, k, k, b.row(0), n, n,
                              naive.row(0), n);
        ASSERT_EQ(fast.rows(), m);
        ASSERT_EQ(fast.cols(), n);
        EXPECT_EQ(std::memcmp(fast.data().data(), naive.data().data(),
                              m * n * sizeof(double)),
                  0)
            << "kernel diverged at [" << m << "x" << k << "x" << n << "]";

        const Matrix bias = Matrix::randn(1, n, bias_rng, 1.0);
        Matrix fused(m, n);
        nnkernel::matmul(a.row(0), m, k, k, b.row(0), n, n, fused.row(0), n,
                         bias.row(0), true);
        for (size_t i = 0; i < m; ++i) {
            for (size_t j = 0; j < n; ++j) {
                const double v = naive.at(i, j) + bias.at(0, j);
                naive.at(i, j) = v > 0.0 ? v : 0.0;
            }
        }
        EXPECT_EQ(std::memcmp(fused.data().data(), naive.data().data(),
                              m * n * sizeof(double)),
                  0)
            << "bias+relu epilogue diverged at [" << m << "x" << k << "x"
            << n << "]";
    }
}

TEST(Matrix, MatmulNTMatchesNaiveKernelBitwise)
{
    // matmulNT runs on the dispatched matmul tiers over a per-thread B^T
    // copy and must reproduce the frozen naive NT loop bit for bit. The
    // shapes reach the matmul tiers' main tiles and every row and column
    // remainder, and include both attention cores (10x64 by 64x10 and
    // 28x64 by 64x28).
    Rng rng(211);
    for (const auto [m, k, n] :
         {std::array<size_t, 3>{1, 1, 1}, {1, 64, 10}, {3, 7, 5},
          {4, 64, 4}, {4, 16, 8}, {4, 10, 13}, {5, 9, 9}, {8, 8, 16},
          {9, 9, 11}, {9, 9, 15}, {10, 64, 10}, {12, 33, 23},
          {28, 64, 28}, {33, 23, 17}, {6, 64, 64}, {7, 12, 64}}) {
        const Matrix a = Matrix::randn(m, k, rng, 1.0);
        const Matrix b = Matrix::randn(n, k, rng, 1.0);
        const Matrix fast = Matrix::matmulNT(a, b);
        Matrix naive(m, n);
        nnkernel::matmulNTNaive(a.row(0), m, k, k, b.row(0), n, k,
                                naive.row(0), n);
        ASSERT_EQ(fast.rows(), m);
        ASSERT_EQ(fast.cols(), n);
        EXPECT_EQ(std::memcmp(fast.data().data(), naive.data().data(),
                              m * n * sizeof(double)),
                  0)
            << "NT kernel diverged at [" << m << "x" << k << "] * [" << n
            << "x" << k << "]^T";
    }
}

TEST(Matrix, OneSegmentSegBlockedMatchesMatmulTNBitwise)
{
    // The attention backward's dV and dK: one segment of every row folded
    // into a zeroed block by the segment-blocked kernel must equal
    // Matrix::matmulTN bit for bit, zero-skip included (a +0-seeded
    // partial is never -0.0, so +0 + partial == partial).
    Rng rng(213);
    for (const auto [rows, acols, bcols] :
         {std::array<size_t, 3>{1, 1, 1}, {4, 5, 3}, {10, 64, 64},
          {7, 16, 1}, {9, 10, 12}, {5, 12, 20}, {3, 65, 33}, {30, 64, 15},
          {13, 7, 9}}) {
        Matrix a = Matrix::randn(rows, acols, rng, 1.0);
        a.at(rows / 2, acols / 2) = 0.0; // exercise the zero-skip
        const Matrix b = Matrix::randn(rows, bcols, rng, 1.0);
        const Matrix ref = Matrix::matmulTN(a, b);
        Matrix acc(acols, bcols);
        nnkernel::matmulTNSegBlocked(a.row(0), acols, b.row(0), bcols,
                                     &rows, 1, acols, bcols, acc.row(0),
                                     bcols);
        // (Folding a second pass on top is NOT equivalent to ref+ref —
        // each term rounds against the running sum — which is why the
        // batched backward builds one partial per segment.)
        EXPECT_EQ(std::memcmp(ref.data().data(), acc.data().data(),
                              acols * bcols * sizeof(double)),
                  0)
            << "one-segment fold diverged at [" << rows << "x" << acols
            << "]^T * [" << rows << "x" << bcols << "]";
    }
}

TEST(Matrix, MatmulTNSegBlockedMatchesNaiveBitwise)
{
    // The dispatched segment-blocked dW kernel must reproduce the frozen
    // composed reference (per-segment partial + add chain) bit for bit
    // across segment lists and shapes covering the 8-row i block, the
    // 4-row and 1-row i remainders, every j-panel width (8-wide, 4-wide,
    // scalar), one-row segments, and accumulate-on-top reuse.
    Rng rng(307);
    struct Case
    {
        std::vector<size_t> segs;
        size_t acols, bcols;
    };
    const Case cases[] = {
        {{1}, 1, 1},          {{2, 1, 3}, 7, 15}, {{5, 4}, 10, 64},
        {{3, 1, 6, 2}, 16, 16}, {{1, 1, 1, 1}, 9, 12}, {{4, 7}, 64, 64},
        {{6}, 12, 33},        {{2, 9, 1}, 20, 7},
    };
    for (const auto& cs : cases) {
        size_t rows = 0;
        for (const size_t s : cs.segs) {
            rows += s;
        }
        const Matrix a = Matrix::randn(rows, cs.acols, rng, 1.0);
        const Matrix b = Matrix::randn(rows, cs.bcols, rng, 1.0);
        Matrix fast(cs.acols, cs.bcols);
        Matrix naive(cs.acols, cs.bcols);
        for (int pass = 0; pass < 2; ++pass) {
            nnkernel::matmulTNSegBlocked(a.row(0), cs.acols, b.row(0),
                                         cs.bcols, cs.segs.data(),
                                         cs.segs.size(), cs.acols, cs.bcols,
                                         fast.row(0), cs.bcols);
            nnkernel::matmulTNSegBlockedNaive(
                a.row(0), cs.acols, b.row(0), cs.bcols, cs.segs.data(),
                cs.segs.size(), cs.acols, cs.bcols, naive.row(0), cs.bcols);
            EXPECT_EQ(std::memcmp(fast.data().data(), naive.data().data(),
                                  cs.acols * cs.bcols * sizeof(double)),
                      0)
                << "seg kernel diverged at acols=" << cs.acols
                << " bcols=" << cs.bcols << " nsegs=" << cs.segs.size()
                << " pass=" << pass;
        }
    }
}

TEST(Matrix, MatmulTNSegBlockedChunksLargePacksBitwise)
{
    // A pack larger than the dispatch wrapper's chunk budget is split at
    // whole-segment boundaries so each slice stays cache-resident. C
    // passes through memory between chunk calls, resuming the same
    // per-element add chain, so the result must stay bit-identical to
    // the unchunked naive walk.
    Rng rng(311);
    constexpr size_t acols = 64, bcols = 64;
    std::vector<size_t> segs(23, 37); // 851 rows x 1 KB/row > 384 KB
    const size_t rows = segs.size() * segs.front();
    const Matrix a = Matrix::randn(rows, acols, rng, 0.5);
    const Matrix b = Matrix::randn(rows, bcols, rng, 0.5);
    Matrix fast(acols, bcols);
    Matrix naive(acols, bcols);
    for (int pass = 0; pass < 2; ++pass) {
        nnkernel::matmulTNSegBlocked(a.row(0), acols, b.row(0), bcols,
                                     segs.data(), segs.size(), acols, bcols,
                                     fast.row(0), bcols);
        nnkernel::matmulTNSegBlockedNaive(a.row(0), acols, b.row(0), bcols,
                                          segs.data(), segs.size(), acols,
                                          bcols, naive.row(0), bcols);
        EXPECT_EQ(std::memcmp(fast.data().data(), naive.data().data(),
                              acols * bcols * sizeof(double)),
                  0)
            << "chunked seg kernel diverged on pass " << pass;
    }
}

/** The logical rows of a pack with tail repeats: each segment's stored
 *  rows, then its last row copied repeats[s] more times. */
Matrix
expandRepeats(const Matrix& pack, const std::vector<size_t>& rows,
              const std::vector<size_t>& repeats)
{
    Matrix out(0, pack.cols());
    size_t b = 0;
    for (size_t s = 0; s < rows.size(); ++s) {
        out.appendRows(pack, b, rows[s]);
        for (size_t k = 0; k < repeats[s]; ++k) {
            out.appendRows(pack, b + rows[s] - 1, 1);
        }
        b += rows[s];
    }
    return out;
}

TEST(Matrix, MatmulTNSegBlockedRepeatsMatchExpandedRowsBitwise)
{
    // A segment whose last row stands for 1 + r rows (the training packs'
    // padding) must fold exactly like its expanded rows: the dispatched
    // tiers and the naive reference, both given seg_repeats, against the
    // naive reference over the expanded pack. The cases mix blocks with
    // and without repeats, one-row segments with and without them, a
    // repeated row with zeros in A, ragged and layer-width column counts,
    // and a pack past the dispatch wrapper's chunk budget.
    Rng rng(317);
    struct Case
    {
        std::vector<size_t> segs, reps;
        size_t acols, bcols;
    };
    std::vector<Case> cases = {
        {{1}, {4}, 1, 1},
        {{2, 1, 3}, {0, 5, 2}, 7, 15},
        {{10, 4, 1, 7}, {0, 6, 9, 3}, 64, 64},
        {{1, 1, 1, 1}, {0, 2, 0, 9}, 9, 12},
        {{6, 2}, {4, 8}, 10, 33},
        {{3, 5}, {7, 0}, 20, 64},
    };
    Case chunked{{}, {}, 64, 64}; // 500 rows x 1 KB/row > 384 KB
    for (size_t s = 0; s < 100; ++s) {
        chunked.segs.push_back(5);
        chunked.reps.push_back(s % 3 == 0 ? 0 : 5);
    }
    cases.push_back(chunked);
    for (const auto& cs : cases) {
        size_t rows = 0;
        std::vector<size_t> logical;
        for (size_t s = 0; s < cs.segs.size(); ++s) {
            rows += cs.segs[s];
            logical.push_back(cs.segs[s] + cs.reps[s]);
        }
        Matrix a = Matrix::randn(rows, cs.acols, rng, 1.0);
        const Matrix b = Matrix::randn(rows, cs.bcols, rng, 1.0);
        // The last segment's repeated row is all zero in A, the first
        // one's half zero: the reference's skip path, repeated.
        for (size_t c = 0; c < cs.acols; ++c) {
            a.at(rows - 1, c) = 0.0;
            if (c % 2 == 0) {
                a.at(cs.segs[0] - 1, c) = 0.0;
            }
        }
        const Matrix ax = expandRepeats(a, cs.segs, cs.reps);
        const Matrix bx = expandRepeats(b, cs.segs, cs.reps);
        Matrix fast(cs.acols, cs.bcols);
        Matrix naive(cs.acols, cs.bcols);
        Matrix expanded(cs.acols, cs.bcols);
        const size_t bytes = cs.acols * cs.bcols * sizeof(double);
        for (int pass = 0; pass < 2; ++pass) {
            nnkernel::matmulTNSegBlocked(
                a.row(0), cs.acols, b.row(0), cs.bcols, cs.segs.data(),
                cs.segs.size(), cs.acols, cs.bcols, fast.row(0), cs.bcols,
                cs.reps.data());
            nnkernel::matmulTNSegBlockedNaive(
                a.row(0), cs.acols, b.row(0), cs.bcols, cs.segs.data(),
                cs.segs.size(), cs.acols, cs.bcols, naive.row(0), cs.bcols,
                cs.reps.data());
            nnkernel::matmulTNSegBlockedNaive(
                ax.row(0), cs.acols, bx.row(0), cs.bcols, logical.data(),
                logical.size(), cs.acols, cs.bcols, expanded.row(0),
                cs.bcols);
            EXPECT_EQ(std::memcmp(fast.data().data(),
                                  expanded.data().data(), bytes),
                      0)
                << "seg kernel with repeats diverged at acols=" << cs.acols
                << " bcols=" << cs.bcols << " nsegs=" << cs.segs.size()
                << " pass=" << pass;
            EXPECT_EQ(std::memcmp(naive.data().data(),
                                  expanded.data().data(), bytes),
                      0)
                << "naive reference with repeats diverged at acols="
                << cs.acols << " bcols=" << cs.bcols << " pass=" << pass;
        }
    }
}

TEST(Matrix, SegBlockedAndTNAccNegativeZeroContract)
{
    // The naive references skip A elements that compare equal to zero —
    // including -0.0. That skip is byte-safe only because a partial sum
    // seeded at +0.0 can never become -0.0 (x + -x rounds to +0.0, and
    // -0.0 needs -0.0 + -0.0), so adding a +/-0.0 contribution leaves
    // the accumulator's bytes unchanged. Lace A with signed zeros and
    // sign-mixed values and hold the vector tiers to the naive bytes.
    Rng rng(313);
    constexpr size_t rows = 13, acols = 11, bcols = 10;
    Matrix a = Matrix::randn(rows, acols, rng, 1.0);
    for (size_t r = 0; r < rows; ++r) {
        for (size_t c = 0; c < acols; ++c) {
            if ((r + c) % 3 == 0) {
                a.at(r, c) = (r % 2 == 0) ? -0.0 : 0.0;
            } else if ((r + c) % 3 == 1) {
                a.at(r, c) = -a.at(r, c);
            }
        }
    }
    Matrix b = Matrix::randn(rows, bcols, rng, 1.0);
    for (size_t r = 0; r < rows; ++r) {
        b.at(r, r % bcols) = (r % 2 == 0) ? 0.0 : -0.0;
    }
    const std::vector<size_t> segs = {4, 1, 6, 2};
    Matrix fast(acols, bcols);
    Matrix naive(acols, bcols);
    for (int pass = 0; pass < 2; ++pass) {
        nnkernel::matmulTNSegBlocked(a.row(0), acols, b.row(0), bcols,
                                     segs.data(), segs.size(), acols, bcols,
                                     fast.row(0), bcols);
        nnkernel::matmulTNSegBlockedNaive(a.row(0), acols, b.row(0), bcols,
                                          segs.data(), segs.size(), acols,
                                          bcols, naive.row(0), bcols);
        EXPECT_EQ(std::memcmp(fast.data().data(), naive.data().data(),
                              acols * bcols * sizeof(double)),
                  0)
            << "seg kernel -0.0 contract broke on pass " << pass;
    }
    // The TN-accumulate the attention backward makes: one segment of every
    // row into a zeroed block, against the direct naive accumulation.
    Matrix acc_fast(acols, bcols);
    Matrix acc_naive(acols, bcols);
    nnkernel::matmulTNSegBlocked(a.row(0), acols, b.row(0), bcols, &rows, 1,
                                 acols, bcols, acc_fast.row(0), bcols);
    nnkernel::matmulTNAccNaive(a.row(0), rows, acols, acols, b.row(0),
                               bcols, bcols, acc_naive.row(0), bcols);
    EXPECT_EQ(std::memcmp(acc_fast.data().data(), acc_naive.data().data(),
                          acols * bcols * sizeof(double)),
              0)
        << "one-segment TN-accumulate -0.0 contract broke";
}

TEST(Kernels, NoSupportedTierIsDemoted)
{
    // A tier the CPU supports but that fails its startup self-check only
    // warns in the tune report and runs the slower tier; fail here
    // instead. Every supported tier is checked, so on an AVX-512 host this
    // guards the AVX2 tiers too. matmulNT and the TN-accumulate have no
    // tiers of their own, so their fields report the kernels they run on.
    EXPECT_EQ(nnkernel::kernelTierDemotions(), 0u);
    const nnkernel::KernelTiers tiers = nnkernel::kernelTiers();
    EXPECT_STREQ(tiers.matmul_nt, tiers.matmul);
    EXPECT_STREQ(tiers.matmul_tn_acc, tiers.matmul_tn_seg);
}

TEST(SegmentTableAlias, AliasedSegmentsShareRows)
{
    SegmentTable segs;
    segs.append(4);
    segs.append(2);
    segs.appendAlias(0, 4); // third candidate reuses the first block
    EXPECT_EQ(segs.count(), 3u);
    EXPECT_EQ(segs.totalRows(), 6u); // the pack did not grow
    EXPECT_EQ(segs.begin(2), 0u);
    EXPECT_EQ(segs.rows(2), 4u);
    segs.append(3);
    EXPECT_EQ(segs.begin(3), 6u); // appends continue at the pack end
    EXPECT_EQ(segs.totalRows(), 9u);
    EXPECT_THROW(segs.appendAlias(7, 3), InternalError); // out of range
    EXPECT_THROW(segs.appendAlias(0, 2), InternalError); // partial alias
    EXPECT_THROW(segs.appendAlias(1, 4), InternalError); // misaligned
    segs.reset();
    EXPECT_EQ(segs.count(), 0u);
    EXPECT_EQ(segs.totalRows(), 0u);
}

TEST(SegmentTableAlias, AttentionAndPoolingMatchDuplicatedBlocks)
{
    // A deduplicated pack (identical block stored once, aliased twice)
    // must produce byte-identical per-candidate outputs to the full pack
    // that stores the duplicate block explicitly.
    Rng rng(217);
    SelfAttention attn(6, rng);
    const Matrix block_a = Matrix::randn(4, 6, rng, 0.8);
    const Matrix block_b = Matrix::randn(3, 6, rng, 0.8);

    Matrix full(0, 6);
    full.appendRows(block_a, 0, 4);
    full.appendRows(block_b, 0, 3);
    full.appendRows(block_a, 0, 4); // duplicate stored explicitly
    SegmentTable full_segs;
    full_segs.append(4);
    full_segs.append(3);
    full_segs.append(4);

    Matrix deduped(0, 6);
    deduped.appendRows(block_a, 0, 4);
    deduped.appendRows(block_b, 0, 3);
    SegmentTable alias_segs;
    alias_segs.append(4);
    alias_segs.append(3);
    alias_segs.appendAlias(0, 4); // duplicate aliased

    Workspace ws_full, ws_alias;
    const Matrix& ctx_full = attn.forwardBatch(full, full_segs, ws_full);
    const Matrix& ctx_alias =
        attn.forwardBatch(deduped, alias_segs, ws_alias);
    Matrix pooled_full, pooled_alias;
    segmentColMean(ctx_full, full_segs, pooled_full);
    segmentColMean(ctx_alias, alias_segs, pooled_alias);
    ASSERT_EQ(pooled_full.rows(), 3u);
    ASSERT_EQ(pooled_alias.rows(), 3u);
    EXPECT_EQ(std::memcmp(pooled_full.data().data(),
                          pooled_alias.data().data(),
                          pooled_full.size() * sizeof(double)),
              0);
}

TEST(SegmentBroadcast, SumAndMeanMatchPerRecordBackward)
{
    Rng rng(219);
    const Matrix src = Matrix::randn(3, 8, rng, 1.0);
    SegmentTable segs;
    segs.append(2);
    segs.append(0);
    segs.append(5);
    Matrix sum_out, mean_out;
    segmentBroadcast(src, 2, 4, segs, sum_out, /*mean=*/false);
    segmentBroadcast(src, 2, 4, segs, mean_out, /*mean=*/true);
    ASSERT_EQ(sum_out.rows(), 7u);
    ASSERT_EQ(sum_out.cols(), 4u);
    for (size_t s = 0; s < segs.count(); ++s) {
        const double inv =
            segs.rows(s) > 0
                ? 1.0 / static_cast<double>(segs.rows(s))
                : 0.0;
        for (size_t r = 0; r < segs.rows(s); ++r) {
            for (size_t c = 0; c < 4; ++c) {
                EXPECT_EQ(sum_out.at(segs.begin(s) + r, c),
                          src.at(s, 2 + c));
                EXPECT_EQ(mean_out.at(segs.begin(s) + r, c),
                          src.at(s, 2 + c) * inv);
            }
        }
    }
}

TEST(SegmentRepeats, TableCountsStoredAndLogicalRows)
{
    SegmentTable segs;
    segs.append(3);
    EXPECT_EQ(segs.repeatsData(), nullptr); // no repeats: no operand
    segs.append(2, 7);
    segs.appendAlias(0, 3);
    EXPECT_EQ(segs.totalRows(), 5u); // repeats add no pack rows
    EXPECT_EQ(segs.rows(1), 2u);
    EXPECT_EQ(segs.repeats(1), 7u);
    EXPECT_EQ(segs.logicalRows(1), 9u);
    EXPECT_EQ(segs.repeats(2), 0u); // an alias carries none
    ASSERT_NE(segs.repeatsData(), nullptr);
    EXPECT_EQ(segs.repeatsData()[1], 7u);
    EXPECT_THROW(segs.append(0, 1), InternalError); // nothing to repeat
    segs.reset();
    EXPECT_EQ(segs.repeatsData(), nullptr);
}

TEST(SegmentRepeats, PoolingMatchesExpandedPack)
{
    // Column sums, means and the pooling backward over a pack with tail
    // repeats equal those over the expanded pack: the pooled rows bitwise,
    // and each stored row of the broadcast equals its expanded row. A full
    // block (no repeats) rides among the padded ones.
    Rng rng(331);
    const std::vector<size_t> rows = {10, 4, 1, 3}, reps = {0, 6, 9, 2};
    const Matrix pack = Matrix::randn(18, 5, rng, 1.0);
    const Matrix full = expandRepeats(pack, rows, reps);
    SegmentTable compact, expanded;
    for (size_t s = 0; s < rows.size(); ++s) {
        compact.append(rows[s], reps[s]);
        expanded.append(rows[s] + reps[s]);
    }
    for (const bool mean : {false, true}) {
        Matrix pc, pe;
        if (mean) {
            segmentColMean(pack, compact, pc);
            segmentColMean(full, expanded, pe);
        } else {
            segmentColSum(pack, compact, pc);
            segmentColSum(full, expanded, pe);
        }
        ASSERT_EQ(pc.rows(), rows.size());
        EXPECT_EQ(std::memcmp(pc.data().data(), pe.data().data(),
                              pc.size() * sizeof(double)),
                  0)
            << (mean ? "segmentColMean" : "segmentColSum");
    }
    const Matrix src = Matrix::randn(rows.size(), 7, rng, 1.0);
    for (const bool mean : {false, true}) {
        Matrix bc, be;
        segmentBroadcast(src, 1, 5, compact, bc, mean);
        segmentBroadcast(src, 1, 5, expanded, be, mean);
        ASSERT_EQ(bc.rows(), 18u);
        for (size_t s = 0; s < rows.size(); ++s) {
            for (size_t r = 0; r < rows[s]; ++r) {
                EXPECT_EQ(std::memcmp(bc.row(compact.begin(s) + r),
                                      be.row(expanded.begin(s) + r),
                                      5 * sizeof(double)),
                          0)
                    << "broadcast row " << r << " of segment " << s
                    << (mean ? " (mean)" : " (sum)");
            }
        }
    }
}

TEST(Matrix, ResizePreservesPrefixAndZeroFillsGrowth)
{
    Matrix m(2, 3, 1.5);
    m.resize(4, 3);
    for (size_t c = 0; c < 3; ++c) {
        EXPECT_DOUBLE_EQ(m.at(0, c), 1.5);
        EXPECT_DOUBLE_EQ(m.at(3, c), 0.0);
    }
    // Shrink-then-grow re-zeroes the tail (vector resize semantics).
    m.resize(0, 3);
    m.resize(2, 3);
    for (size_t c = 0; c < 3; ++c) {
        EXPECT_DOUBLE_EQ(m.at(1, c), 0.0);
    }
}

TEST(Matrix, AppendRowsAndSliceRowsRoundTrip)
{
    Rng rng(103);
    const Matrix src = Matrix::randn(6, 4, rng, 1.0);
    Matrix pack(0, 4);
    pack.appendRows(src, 1, 3);
    pack.appendRows(src, 4, 2);
    ASSERT_EQ(pack.rows(), 5u);
    const Matrix back = pack.sliceRows(0, 3);
    for (size_t r = 0; r < 3; ++r) {
        for (size_t c = 0; c < 4; ++c) {
            EXPECT_DOUBLE_EQ(back.at(r, c), src.at(r + 1, c));
        }
    }
    EXPECT_THROW(pack.sliceRows(4, 2), InternalError);
    Matrix wrong(0, 3);
    EXPECT_THROW(wrong.appendRows(src, 0, 1), InternalError);
}

TEST(BatchedLayers, MlpInferBatchMatchesPerRowInfer)
{
    Rng rng(107);
    Mlp mlp({5, 8, 3}, rng);
    const Matrix x = Matrix::randn(11, 5, rng, 1.0);
    Workspace ws;
    const Matrix& batched = mlp.forwardBatch(x, ws);
    const Matrix whole = mlp.inferReference(x);
    ASSERT_EQ(batched.rows(), 11u);
    ASSERT_EQ(batched.cols(), 3u);
    EXPECT_EQ(std::memcmp(batched.data().data(), whole.data().data(),
                          whole.size() * sizeof(double)),
              0);
    for (size_t r = 0; r < x.rows(); ++r) {
        const Matrix row_out = mlp.inferReference(x.sliceRows(r, 1));
        EXPECT_EQ(std::memcmp(batched.row(r), row_out.row(0),
                              3 * sizeof(double)),
                  0)
            << "row " << r;
    }
}

TEST(BatchedLayers, AttentionInferBatchMatchesPerSegmentInfer)
{
    Rng rng(109);
    SelfAttention attn(6, rng);
    const Matrix x = Matrix::randn(10, 6, rng, 0.7);
    SegmentTable segs;
    segs.append(4);
    segs.append(0);
    segs.append(2);
    segs.append(4);
    Workspace ws;
    const Matrix& batched = attn.forwardBatch(x, segs, ws);
    ASSERT_EQ(batched.rows(), x.rows());
    for (size_t s = 0; s < segs.count(); ++s) {
        if (segs.rows(s) == 0) {
            continue;
        }
        const Matrix seg_out = attn.inferReference(
            x.sliceRows(segs.begin(s), segs.rows(s)));
        EXPECT_EQ(std::memcmp(batched.row(segs.begin(s)), seg_out.row(0),
                              seg_out.size() * sizeof(double)),
                  0)
            << "segment " << s;
    }
}

/** Scalar loss used by the gradient checks: sum of outputs. */
template <typename Net>
double
forwardSum(Net& net, const Matrix& x)
{
    const Matrix y = net.forward(x);
    double s = 0.0;
    for (double v : y.data()) {
        s += v;
    }
    return s;
}

TEST(GradCheck, LinearLayer)
{
    Rng rng(7);
    Linear lin(5, 4, rng);
    std::vector<ParamRef> params;
    lin.collectParams(params);
    const Matrix x = Matrix::randn(3, 5, rng, 1.0);

    // Analytic gradients.
    for (auto& p : params) {
        p.grad->zero();
    }
    Matrix y = lin.forward(x);
    Matrix dy(y.rows(), y.cols(), 1.0);
    lin.backward(dy);

    // Numerical check on a few entries of each parameter.
    for (auto& p : params) {
        for (size_t i = 0; i < std::min<size_t>(p.value->size(), 6); ++i) {
            const double eps = 1e-6;
            const double orig = p.value->data()[i];
            p.value->data()[i] = orig + eps;
            const double plus = forwardSum(lin, x);
            p.value->data()[i] = orig - eps;
            const double minus = forwardSum(lin, x);
            p.value->data()[i] = orig;
            const double numeric = (plus - minus) / (2 * eps);
            EXPECT_NEAR(p.grad->data()[i], numeric, 1e-5);
        }
    }
}

TEST(GradCheck, MlpInputGradient)
{
    Rng rng(11);
    Mlp mlp({6, 8, 1}, rng);
    Matrix x = Matrix::randn(2, 6, rng, 1.0);
    Matrix y = mlp.forward(x);
    Matrix dy(y.rows(), y.cols(), 1.0);
    const Matrix dx = mlp.backward(dy);

    for (size_t i = 0; i < x.size(); ++i) {
        const double eps = 1e-6;
        const double orig = x.data()[i];
        x.data()[i] = orig + eps;
        const double plus = forwardSum(mlp, x);
        x.data()[i] = orig - eps;
        const double minus = forwardSum(mlp, x);
        x.data()[i] = orig;
        EXPECT_NEAR(dx.data()[i], (plus - minus) / (2 * eps), 1e-4)
            << "input grad " << i;
    }
}

TEST(GradCheck, SelfAttentionParamsAndInput)
{
    Rng rng(13);
    SelfAttention attn(6, rng);
    std::vector<ParamRef> params;
    attn.collectParams(params);
    Matrix x = Matrix::randn(4, 6, rng, 0.7);

    for (auto& p : params) {
        p.grad->zero();
    }
    Matrix y = attn.forward(x);
    Matrix dy(y.rows(), y.cols(), 1.0);
    const Matrix dx = attn.backward(dy);

    // Input gradient check.
    for (size_t i = 0; i < std::min<size_t>(x.size(), 10); ++i) {
        const double eps = 1e-6;
        const double orig = x.data()[i];
        x.data()[i] = orig + eps;
        const double plus = forwardSum(attn, x);
        x.data()[i] = orig - eps;
        const double minus = forwardSum(attn, x);
        x.data()[i] = orig;
        EXPECT_NEAR(dx.data()[i], (plus - minus) / (2 * eps), 1e-4)
            << "attention input grad " << i;
    }
    // Parameter gradient check (a few entries of each weight).
    for (auto& p : params) {
        for (size_t i = 0; i < std::min<size_t>(p.value->size(), 4); ++i) {
            const double eps = 1e-6;
            const double orig = p.value->data()[i];
            p.value->data()[i] = orig + eps;
            const double plus = forwardSum(attn, x);
            p.value->data()[i] = orig - eps;
            const double minus = forwardSum(attn, x);
            p.value->data()[i] = orig;
            EXPECT_NEAR(p.grad->data()[i], (plus - minus) / (2 * eps), 1e-4);
        }
    }
}

TEST(Adam, MinimizesQuadratic)
{
    // One 1x1 "weight", loss (w - 3)^2.
    Matrix w(1, 1, 0.0), g(1, 1, 0.0);
    Adam adam({{&w, &g}}, 0.05);
    for (int step = 0; step < 800; ++step) {
        g.at(0, 0) = 2.0 * (w.at(0, 0) - 3.0);
        adam.step();
    }
    EXPECT_NEAR(w.at(0, 0), 3.0, 0.05);
}

TEST(Adam, ClipGradNormBoundsGlobalNorm)
{
    Matrix w(2, 2), g(2, 2, 10.0);
    Adam adam(std::vector<ParamRef>{{&w, &g}});
    adam.clipGradNorm(1.0);
    EXPECT_NEAR(g.norm(), 1.0, 1e-9);
}

TEST(Loss, RelevanceLabelsInUnitInterval)
{
    const std::vector<double> latencies{2.0, 1.0, 4.0};
    std::vector<double> rel;
    latencyToRelevanceInto(latencies, rel);
    EXPECT_DOUBLE_EQ(rel[1], 1.0);
    EXPECT_DOUBLE_EQ(rel[0], 0.5);
    EXPECT_DOUBLE_EQ(rel[2], 0.25);
}

TEST(Loss, LambdaRankGradPushesBetterCandidateUp)
{
    // Candidate 0 is truly faster but scored lower: its gradient must be
    // negative (score goes UP when stepping against the gradient).
    const LossResult r = lambdaRankLoss({0.0, 1.0}, {1.0, 2.0});
    EXPECT_GT(r.loss, 0.0);
    EXPECT_LT(r.grad[0], 0.0);
    EXPECT_GT(r.grad[1], 0.0);
}

TEST(Loss, LambdaRankZeroWhenPerfectlyOrderedAndSeparated)
{
    const LossResult good = lambdaRankLoss({30.0, 0.0}, {1.0, 2.0});
    const LossResult bad = lambdaRankLoss({0.0, 30.0}, {1.0, 2.0});
    EXPECT_LT(good.loss, bad.loss);
}

TEST(Loss, GradientsSumToZero)
{
    const LossResult r =
        lambdaRankLoss({0.3, -0.2, 0.9, 0.1}, {3.0, 1.0, 2.0, 5.0});
    double sum = 0.0;
    for (double g : r.grad) {
        sum += g;
    }
    EXPECT_NEAR(sum, 0.0, 1e-12);
}

TEST(Optimizer, FlattenUnflattenRoundTrip)
{
    Rng rng(17);
    Mlp mlp({4, 5, 1}, rng);
    std::vector<ParamRef> params;
    mlp.collectParams(params);
    const auto flat = flattenParams(params);
    // Perturb, then restore.
    for (auto& p : params) {
        p.value->scale(0.0);
    }
    unflattenParams(params, flat);
    EXPECT_EQ(flattenParams(params), flat);
}

TEST(Optimizer, UnflattenRejectsWrongSize)
{
    Rng rng(19);
    Mlp mlp({4, 5, 1}, rng);
    std::vector<ParamRef> params;
    mlp.collectParams(params);
    std::vector<double> wrong(3, 0.0);
    EXPECT_THROW(unflattenParams(params, wrong), InternalError);
}

TEST(Optimizer, MomentumUpdateInterpolates)
{
    std::vector<double> siamese{1.0, 2.0};
    momentumUpdate(siamese, {3.0, 4.0}, 0.5);
    EXPECT_DOUBLE_EQ(siamese[0], 2.0);
    EXPECT_DOUBLE_EQ(siamese[1], 3.0);
    // m = 1: Siamese frozen.
    momentumUpdate(siamese, {100.0, 100.0}, 1.0);
    EXPECT_DOUBLE_EQ(siamese[0], 2.0);
}

TEST(Serialize, StringRoundTrip)
{
    // The count, then one value per line at precision 17.
    EXPECT_EQ(encodeParams({1.5, -2.25, 0.1}),
              "3\n1.5\n-2.25\n0.10000000000000001\n");
    const std::vector<double> flat{1.5, -2.25, 3.125e-7, 0.0, 0.1};
    EXPECT_EQ(decodeParams(encodeParams(flat)), flat);
    EXPECT_EQ(decodeParams(encodeParams({})), std::vector<double>{});
}

TEST(Serialize, TruncatedTextThrows)
{
    const std::string text = encodeParams({1.5, -2.25, 0.1});
    EXPECT_THROW(decodeParams(text.substr(0, text.find("0.1"))), FatalError);
    EXPECT_THROW(decodeParams(""), FatalError);
    EXPECT_THROW(decodeParams("x\n"), FatalError);
    EXPECT_THROW(decodeParams(text + "7\n"), FatalError); // trailing data
    // A count the text cannot hold never drives the allocation.
    EXPECT_THROW(decodeParams("200000000\n1\n"), FatalError);
}

TEST(Training, TinyMlpLearnsRankingSignal)
{
    // A 1-d regression the ranking loss must be able to exploit:
    // latency = feature value; the MLP score should learn to invert it.
    Rng rng(23);
    Mlp mlp({1, 8, 1}, rng);
    std::vector<ParamRef> params;
    mlp.collectParams(params);
    Adam adam(params, 1e-2);
    std::vector<double> feats, lats;
    for (int i = 0; i < 16; ++i) {
        feats.push_back(static_cast<double>(i) / 16.0);
        lats.push_back(1.0 + feats.back());
    }
    for (int epoch = 0; epoch < 200; ++epoch) {
        std::vector<double> scores;
        for (double f : feats) {
            Matrix x(1, 1);
            x.at(0, 0) = f;
            scores.push_back(mlp.inferReference(x).at(0, 0));
        }
        const LossResult loss = lambdaRankLoss(scores, lats);
        adam.zeroGrad();
        for (size_t i = 0; i < feats.size(); ++i) {
            Matrix x(1, 1);
            x.at(0, 0) = feats[i];
            mlp.forward(x);
            Matrix dy(1, 1);
            dy.at(0, 0) = loss.grad[i];
            mlp.backward(dy);
        }
        adam.step();
    }
    // After training, lower-latency candidates must score higher.
    Matrix lo(1, 1), hi(1, 1);
    lo.at(0, 0) = 0.0;
    hi.at(0, 0) = 1.0;
    EXPECT_GT(mlp.inferReference(lo).at(0, 0),
              mlp.inferReference(hi).at(0, 0));
}

} // namespace
} // namespace pruner
