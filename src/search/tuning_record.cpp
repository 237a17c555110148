#include "search/tuning_record.hpp"

#include <cmath>
#include <limits>

#include "support/logging.hpp"

namespace pruner {

namespace {

uint64_t
pairKey(const SubgraphTask& task, const Schedule& sch)
{
    return hashCombine(task.hash(), sch.hash());
}

} // namespace

void
TuningRecordDb::add(MeasuredRecord record)
{
    PRUNER_CHECK_MSG(std::isfinite(record.latency) && record.latency > 0.0,
                     "records must hold successful measurements");
    const uint64_t task_key = record.task.hash();
    seen_pairs_[pairKey(record.task, record.sch)] = 1;
    auto it = best_.find(task_key);
    if (it == best_.end() || record.latency < it->second.latency) {
        best_[task_key] = {record.latency, records_.size()};
    }
    records_.push_back(std::move(record));
}

double
TuningRecordDb::bestLatency(const SubgraphTask& task) const
{
    auto it = best_.find(task.hash());
    return it == best_.end() ? std::numeric_limits<double>::infinity()
                             : it->second.latency;
}

const Schedule*
TuningRecordDb::bestSchedule(const SubgraphTask& task) const
{
    auto it = best_.find(task.hash());
    if (it == best_.end()) {
        return nullptr;
    }
    return &records_[it->second.record_index].sch;
}

bool
TuningRecordDb::measured(const SubgraphTask& task, const Schedule& sch) const
{
    return seen_pairs_.contains(pairKey(task, sch));
}

std::vector<MeasuredRecord>
TuningRecordDb::recentWindow(size_t n) const
{
    const size_t start = records_.size() > n ? records_.size() - n : 0;
    return {records_.begin() + static_cast<ptrdiff_t>(start),
            records_.end()};
}

} // namespace pruner
