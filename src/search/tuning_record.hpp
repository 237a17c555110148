#pragma once

/**
 * @file tuning_record.hpp
 * The tuning-record database R_tune of Algorithm 1: every measured
 * (task, schedule, latency) triple plus per-task incumbents.
 */

#include <unordered_map>
#include <vector>

#include "cost/cost_model.hpp"

namespace pruner {

/** Measured-history store shared by every search policy. */
class TuningRecordDb
{
  public:
    /** Insert one measurement (latency must be finite and positive). */
    void add(MeasuredRecord record);

    /** All records, in insertion order. */
    const std::vector<MeasuredRecord>& records() const { return records_; }

    /** Best measured latency for @p task; +inf if none. */
    double bestLatency(const SubgraphTask& task) const;

    /** Best schedule for @p task; nullptr if none measured yet. */
    const Schedule* bestSchedule(const SubgraphTask& task) const;

    /** True if @p sch was already measured for @p task. */
    bool measured(const SubgraphTask& task, const Schedule& sch) const;

    /** The last @p n records (training window for online updates). */
    std::vector<MeasuredRecord> recentWindow(size_t n) const;

    size_t size() const { return records_.size(); }

  private:
    struct BestEntry
    {
        double latency = 0.0;
        size_t record_index = 0;
    };

    std::vector<MeasuredRecord> records_;
    std::unordered_map<uint64_t, BestEntry> best_;
    std::unordered_map<uint64_t, char> seen_pairs_;
};

} // namespace pruner
