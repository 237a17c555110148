#include "search/record_log.hpp"

#include <cmath>
#include <locale>
#include <sstream>

#include "support/logging.hpp"

namespace pruner {

namespace {

/** Parse a double in the classic locale (std::stod honours the global C
 *  locale, which would make logs non-portable across machines). */
bool
parseClassicDouble(const std::string& text, double* out)
{
    std::istringstream iss(text);
    iss.imbue(std::locale::classic());
    double value = 0.0;
    if (!(iss >> value)) {
        return false;
    }
    *out = value;
    return true;
}

bool
parseU64(const std::string& text, uint64_t* out)
{
    std::istringstream iss(text);
    iss.imbue(std::locale::classic());
    uint64_t value = 0;
    if (!(iss >> value)) {
        return false;
    }
    *out = value;
    return true;
}

} // namespace

std::string
recordToLine(const MeasuredRecord& record)
{
    std::ostringstream oss;
    oss.imbue(std::locale::classic());
    oss.precision(17);
    oss << record.task.key << "\t" << record.task.hash() << "\t"
        << record.sch.serialize() << "\t" << record.latency;
    return oss.str();
}

bool
lineToRawRecord(const std::string& line, RawRecordLine* out)
{
    PRUNER_CHECK(out != nullptr);
    std::istringstream iss(line);
    std::string key, hash_str, sched_str, latency_str;
    if (!std::getline(iss, key, '\t') ||
        !std::getline(iss, hash_str, '\t') ||
        !std::getline(iss, sched_str, '\t') ||
        !std::getline(iss, latency_str)) {
        return false;
    }
    uint64_t task_hash = 0;
    double latency = 0.0;
    if (!parseU64(hash_str, &task_hash) ||
        !parseClassicDouble(latency_str, &latency)) {
        return false;
    }
    if (!std::isfinite(latency) || latency <= 0.0) {
        return false;
    }
    try {
        out->sch = Schedule::deserialize(sched_str);
    } catch (const std::exception&) {
        return false;
    }
    out->task_key = std::move(key);
    out->task_hash = task_hash;
    out->latency = latency;
    return true;
}

bool
lineToRecord(const std::string& line,
             const std::vector<SubgraphTask>& known_tasks,
             MeasuredRecord* out)
{
    PRUNER_CHECK(out != nullptr);
    RawRecordLine raw;
    if (!lineToRawRecord(line, &raw)) {
        return false;
    }
    for (const auto& t : known_tasks) {
        if (t.hash() == raw.task_hash) {
            out->task = t;
            out->sch = std::move(raw.sch);
            out->latency = raw.latency;
            return true;
        }
    }
    return false;
}

} // namespace pruner
