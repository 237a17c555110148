#pragma once

/**
 * @file statement_features.hpp
 * Ansor/TenSet-style per-statement features.
 *
 * The original extracts 164 hand-engineered values per innermost non-loop
 * statement. This reproduction keeps the same structure (one feature row
 * per buffer statement, log-scaled resource counts) with a compact
 * 40-dimensional layout; the learned MLP consumes rows and sum-pools over
 * statements exactly like the TenSet MLP.
 *
 * The batched inference engine packs many candidates' rows into one matrix
 * (plus a SegmentTable mapping candidates to row ranges), writing into
 * caller-provided reusable buffers: once warm, extraction allocates
 * nothing. The single-candidate and batched paths share one row writer, so
 * their values are identical by construction.
 */

#include <span>

#include "core/symbols.hpp"
#include "device/device_spec.hpp"
#include "ir/task.hpp"
#include "nn/matrix.hpp"
#include "nn/workspace.hpp"
#include "sched/schedule.hpp"

namespace pruner {

/** Width of one statement feature row. */
constexpr size_t kStatementFeatureDim = 40;

/** Extract one feature row per buffer statement: [n_statements, 40]. */
Matrix extractStatementFeatures(const SubgraphTask& task, const Schedule& sch,
                                const DeviceSpec& device);

/** Append one candidate's statement rows (from its already-extracted
 *  symbols) to @p out as the next segment of @p segs. */
void appendStatementRows(const SymbolSet& sym, const SubgraphTask& task,
                         const Schedule& sch, const DeviceSpec& device,
                         Matrix& out, SegmentTable& segs);

/** Pack every candidate's statement rows into @p out ([total_rows, 40],
 *  reshaped in place) and record per-candidate row ranges in @p segs. */
void extractStatementFeaturesBatch(const SubgraphTask& task,
                                   std::span<const Schedule> candidates,
                                   const DeviceSpec& device, Matrix& out,
                                   SegmentTable& segs);

} // namespace pruner
