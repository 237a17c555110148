#include "feature/primitive_features.hpp"

#include <cmath>

#include "support/logging.hpp"

namespace pruner {

namespace {

/** Write one candidate's kPrimitiveSteps rows into @p out at
 *  [row0, row0 + kPrimitiveSteps) (must exist, zero-filled); @p scratch
 *  holds the primitive sequence between candidates (capacity reused). */
void
writePrimitiveFeatureRows(const SubgraphTask& task, const Schedule& sch,
                          Matrix& out, size_t row0,
                          std::vector<SchedulePrimitive>& scratch)
{
    PRUNER_CHECK(out.cols() == kPrimitiveFeatureDim);
    PRUNER_CHECK(row0 + kPrimitiveSteps <= out.rows());
    sch.primitiveSequenceInto(task, scratch);
    const size_t n = std::min(scratch.size(), kPrimitiveSteps);
    for (size_t i = 0; i < n; ++i) {
        const auto& prim = scratch[i];
        double* f = out.row(row0 + i);
        size_t k = 0;
        // Primitive kind one-hot (5).
        f[k + static_cast<size_t>(prim.kind)] = 1.0;
        k += 5;
        // Axis ordinal one-hot (up to 6 axes).
        const size_t axis = std::min<size_t>(prim.axis, 5);
        f[k + axis] = 1.0;
        k += 6;
        // Factor / argument encodings — the only schedule-dependent values.
        f[k++] = std::log1p(static_cast<double>(prim.arg));
        f[k++] = static_cast<double>(prim.arg % 2 == 0);
        f[k++] = static_cast<double>(prim.arg) / 64.0;
        // Position encoding.
        f[k++] = static_cast<double>(i) / kPrimitiveSteps;
        f[k++] = i % 2 == 0 ? 1.0 : 0.0;
        PRUNER_CHECK(k == kPrimitiveFeatureDim);
    }
}

} // namespace

Matrix
extractPrimitiveFeatures(const SubgraphTask& task, const Schedule& sch)
{
    Matrix feat(kPrimitiveSteps, kPrimitiveFeatureDim);
    std::vector<SchedulePrimitive> seq;
    writePrimitiveFeatureRows(task, sch, feat, 0, seq);
    return feat;
}

void
appendPrimitiveRows(const SubgraphTask& task, const Schedule& sch,
                    Matrix& out, SegmentTable& segs,
                    std::vector<SchedulePrimitive>& scratch)
{
    const size_t row0 = out.rows();
    out.resize(row0 + kPrimitiveSteps, kPrimitiveFeatureDim);
    writePrimitiveFeatureRows(task, sch, out, row0, scratch);
    segs.append(kPrimitiveSteps);
}

void
extractPrimitiveFeaturesBatch(const SubgraphTask& task,
                              std::span<const Schedule> candidates,
                              Matrix& out, SegmentTable& segs)
{
    static thread_local std::vector<SchedulePrimitive> scratch;
    out.resize(0, kPrimitiveFeatureDim);
    segs.reset();
    for (const Schedule& sch : candidates) {
        appendPrimitiveRows(task, sch, out, segs, scratch);
    }
}

} // namespace pruner
