#pragma once

/**
 * @file primitive_features.hpp
 * TLP-style schedule-primitive sequence features.
 *
 * TLP encodes the high-level schedule primitives (Split / Reorder /
 * CacheRead / Annotate / Bind) as mostly one-hot rows; as the paper points
 * out, only a tiny fraction of values (the split factors) differ between
 * schedules of the same task, which is precisely what makes the model
 * data-hungry. We reproduce that property deliberately.
 */

#include <span>
#include <vector>

#include "ir/task.hpp"
#include "nn/matrix.hpp"
#include "nn/workspace.hpp"
#include "sched/schedule.hpp"

namespace pruner {

/** Width of one primitive row. */
constexpr size_t kPrimitiveFeatureDim = 16;

/** Fixed (padded) primitive-sequence length. */
constexpr size_t kPrimitiveSteps = 28;

/** Extract the primitive-sequence features: [kPrimitiveSteps, 16]. */
Matrix extractPrimitiveFeatures(const SubgraphTask& task,
                                const Schedule& sch);

/** Append one candidate's kPrimitiveSteps rows, padding included, to
 *  @p out as the next segment of @p segs; @p scratch holds the primitive
 *  sequence between candidates (capacity reused). */
void appendPrimitiveRows(const SubgraphTask& task, const Schedule& sch,
                         Matrix& out, SegmentTable& segs,
                         std::vector<SchedulePrimitive>& scratch);

/** Pack every candidate's primitive rows into @p out
 *  ([n * kPrimitiveSteps, 16], reshaped in place) with fixed-stride
 *  segments recorded in @p segs. */
void extractPrimitiveFeaturesBatch(const SubgraphTask& task,
                                   std::span<const Schedule> candidates,
                                   Matrix& out, SegmentTable& segs);

} // namespace pruner
