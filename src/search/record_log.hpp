#pragma once

/**
 * @file record_log.hpp
 * The line codec for tuning records — the analog of TVM's JSON log lines.
 *
 * A tuned workload's value is the set of best schedules found; persisting
 * measured records lets a deployment apply them without re-tuning, warm-
 * start later tuning sessions (the paper's offline scenario), or build
 * datasets incrementally. The format is line-oriented text:
 *
 *   <task-key>\t<task-hash>\t<schedule-record>\t<latency-seconds>
 *
 * Numbers are always formatted and parsed in the classic ("C") locale so
 * logs written on one machine load on any other regardless of the global
 * locale. This module is only the line codec: the persistent ArtifactDb
 * (src/db/artifact_db.hpp) is the one reader and writer of record files
 * (its CRC-framed shards), and checkpoints embed the same lines.
 */

#include <string>
#include <vector>

#include "cost/cost_model.hpp"

namespace pruner {

/** Serialize one record to a single log line. */
std::string recordToLine(const MeasuredRecord& record);

/**
 * One log line parsed without resolving the task: the schedule and latency
 * are reconstructed, the task is only identified by key and hash. Used by
 * stores that index records across tasks (ArtifactDb).
 */
struct RawRecordLine
{
    std::string task_key;
    uint64_t task_hash = 0;
    Schedule sch;
    double latency = 0.0;
};

/** Parse one log line task-independently. Returns true and fills @p out on
 *  success; malformed, truncated, or non-finite lines return false. */
bool lineToRawRecord(const std::string& line, RawRecordLine* out);

/**
 * Parse one log line against a set of known tasks (records referencing
 * unknown tasks are skipped — the schedule alone cannot reconstruct a
 * task). Returns true and fills @p out on success.
 */
bool lineToRecord(const std::string& line,
                  const std::vector<SubgraphTask>& known_tasks,
                  MeasuredRecord* out);

} // namespace pruner
