#pragma once

/**
 * @file dataflow_features.hpp
 * Pruner's temporal dataflow features (paper Section 4.2, Figure 4).
 *
 * The multi-tiling pattern is abstracted as a sequence of data-block
 * movements across the memory hierarchy: accumulator initialization, one
 * global->shared stage per cached input, the shared->register compute
 * step, and the register->global write-back of the (possibly fused)
 * epilogue. Each movement is a 23-dimensional row
 * (compute:1 | mem access:21 | alloc size:1); sequences are zero-padded to
 * a fixed length, which also covers element-wise operators exactly as the
 * paper does.
 */

#include <cstdint>
#include <span>
#include <vector>

#include "core/symbols.hpp"
#include "device/device_spec.hpp"
#include "ir/task.hpp"
#include "nn/matrix.hpp"
#include "nn/workspace.hpp"
#include "sched/schedule.hpp"

namespace pruner {

/** Width of one dataflow step row (compute:1 | mem:21 | alloc:1). */
constexpr size_t kDataflowFeatureDim = 23;

/** Fixed (padded) number of dataflow steps per program. */
constexpr size_t kDataflowSteps = 10;

/** Extract the temporal dataflow feature matrix: [kDataflowSteps, 23]. */
Matrix extractDataflowFeatures(const SubgraphTask& task, const Schedule& sch,
                               const DeviceSpec& device);

/** Append one candidate's kDataflowSteps logical rows (from its
 *  already-extracted symbols) to @p out as the next segment of @p segs,
 *  the training-pack layout: the emitted steps plus one zero row that
 *  stands for all the padding (SegmentTable's tail repeats), or all
 *  kDataflowSteps rows with no repeats when every step was emitted.
 *  Every segment owns its rows; inference packs go through
 *  appendDataflowBlock. */
void appendDataflowRows(const SymbolSet& sym, const SubgraphTask& task,
                        const Schedule& sch, const DeviceSpec& device,
                        Matrix& out, SegmentTable& segs);

/** Logical -> pack row map of a padding-elided dataflow pack: entry l
 *  names the pack row that holds logical row l. */
using DataflowRowMap = std::vector<size_t>;

/** One distinct block of a dataflow pack, as the dedup index keeps it. */
struct DataflowBlockKey
{
    uint64_t hash; ///< hash of the step count and the emitted rows' bits
    size_t begin;  ///< first logical row (the segment's begin)
    size_t row;    ///< pack row of the first emitted step
    size_t steps;  ///< emitted steps
};

/** Reused scratch for the dataflow block dedup; clear() it at the start of
 *  each batch. */
using DataflowBlockIndex = std::vector<DataflowBlockKey>;

/**
 * Append one candidate's dataflow block (from its already-extracted
 * symbols) to a batch pack: its kDataflowSteps logical rows become one
 * segment of @p segs. A block bitwise identical to one packed earlier in
 * the batch — a duplicate candidate, or a low-diversity task whose
 * dataflow rows depend on few schedule knobs — is not packed again: its
 * segment aliases the earlier one (SegmentTable::appendAlias), and
 * identical input rows produce identical output rows, so no output byte
 * moves. Only the emitted steps are hashed and compared; the padding is
 * zero in every block.
 *
 * Without @p map every logical row is a pack row, padding included, and
 * @p segs indexes @p out directly. With @p map, @p out holds only the
 * emitted steps plus one shared all-zero pad row at pack row 0 (written
 * with the batch's first block), and @p map gains one entry per new
 * logical row: the pack row that holds it, 0 for every padding row.
 */
void appendDataflowBlock(const SymbolSet& sym, const SubgraphTask& task,
                         const Schedule& sch, const DeviceSpec& device,
                         Matrix& out, SegmentTable& segs,
                         DataflowBlockIndex& seen,
                         DataflowRowMap* map = nullptr);

/** Pack every candidate's dataflow rows, padding included, into @p out
 *  (reshaped in place) through appendDataflowBlock, with fixed-stride
 *  segments recorded in @p segs. */
void extractDataflowFeaturesBatch(const SubgraphTask& task,
                                  std::span<const Schedule> candidates,
                                  const DeviceSpec& device, Matrix& out,
                                  SegmentTable& segs);

} // namespace pruner
