#include "obs/trace.hpp"

#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <sstream>

#include "support/logging.hpp"

namespace pruner::obs {

namespace {

/** Sim seconds -> integer nanosecond ticks (the canonical event stamp;
 *  rounding once here keeps every export of the same event identical). */
int64_t
simToNs(double seconds)
{
    if (!std::isfinite(seconds)) {
        return 0;
    }
    return std::llround(seconds * 1e9);
}

/** Nanosecond ticks -> Chrome "ts" (microseconds with 3 decimals). */
std::string
nsToUs(int64_t ns)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%" PRId64 ".%03" PRId64, ns / 1000,
                  ns % 1000);
    return buf;
}

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out.push_back(c);
        }
    }
    return out;
}

} // namespace

const char*
traceTrackName(TraceTrack track)
{
    switch (track) {
    case TraceTrack::Main: return "main";
    case TraceTrack::Trainer: return "trainer";
    case TraceTrack::Io: return "io";
    }
    return "unknown";
}

Tracer::Tracer(bool capture_wall) : capture_wall_(capture_wall)
{
    if (capture_wall_) {
        wall_origin_ns_ =
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count();
    }
}

int64_t
Tracer::wallNow() const
{
    if (!capture_wall_) {
        return -1;
    }
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
               .count() -
           wall_origin_ns_;
}

Tracer::SpanHandle
Tracer::begin(TraceTrack track, const char* name, const char* cat,
              double sim_ts_s, TraceChannel channel)
{
    const int64_t wall = wallNow();
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(
        {'B', track, channel, simToNs(sim_ts_s), wall, name, cat, {}});
    return events_.size(); // index + 1
}

void
Tracer::end(SpanHandle handle, double sim_ts_s)
{
    if (handle == 0) {
        return;
    }
    const int64_t wall = wallNow();
    std::lock_guard<std::mutex> lock(mutex_);
    PRUNER_CHECK(handle <= events_.size());
    const Event& open = events_[handle - 1];
    PRUNER_CHECK_MSG(open.ph == 'B', "end() on a non-span handle");
    events_.push_back({'E', open.track, open.channel, simToNs(sim_ts_s),
                       wall, std::string(), std::string(), {}});
}

Tracer::SpanHandle
Tracer::instant(TraceTrack track, const char* name, const char* cat,
                double sim_ts_s, TraceChannel channel)
{
    const int64_t wall = wallNow();
    std::lock_guard<std::mutex> lock(mutex_);
    events_.push_back(
        {'i', track, channel, simToNs(sim_ts_s), wall, name, cat, {}});
    return events_.size();
}

void
Tracer::pushArg(SpanHandle handle, const char* key, std::string json_value)
{
    if (handle == 0) {
        return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    PRUNER_CHECK(handle <= events_.size());
    events_[handle - 1].args.emplace_back(key, std::move(json_value));
}

void
Tracer::argU64(SpanHandle handle, const char* key, uint64_t value)
{
    pushArg(handle, key, std::to_string(value));
}

void
Tracer::argDouble(SpanHandle handle, const char* key, double value)
{
    if (!std::isfinite(value)) {
        pushArg(handle, key,
                value > 0 ? "\"inf\""
                          : (value < 0 ? "\"-inf\"" : "\"nan\""));
        return;
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.*g",
                  std::numeric_limits<double>::max_digits10, value);
    pushArg(handle, key, buf);
}

void
Tracer::argStr(SpanHandle handle, const char* key, const std::string& value)
{
    std::string quoted(1, '"');
    quoted += jsonEscape(value);
    quoted += '"';
    pushArg(handle, key, std::move(quoted));
}

size_t
Tracer::eventCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return events_.size();
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
}

std::string
Tracer::chromeTrace(bool include_execution) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::ostringstream out;
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (size_t t = 0; t < kNumTraceTracks; ++t) {
        out << (t != 0 ? "," : "")
            << "{\"ph\":\"M\",\"pid\":1,\"tid\":" << t
            << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
            << traceTrackName(static_cast<TraceTrack>(t)) << "\"}}";
    }
    for (const Event& e : events_) {
        if (!include_execution && e.channel == TraceChannel::Execution) {
            continue;
        }
        out << ",{\"ph\":\"" << e.ph
            << "\",\"pid\":1,\"tid\":" << static_cast<int>(e.track)
            << ",\"ts\":" << nsToUs(e.ts_ns);
        if (e.ph != 'E') {
            out << ",\"name\":\"" << jsonEscape(e.name) << "\",\"cat\":\""
                << jsonEscape(e.cat) << "\"";
        }
        if (e.ph == 'i') {
            out << ",\"s\":\"t\"";
        }
        if (!e.args.empty() || e.wall_ns >= 0) {
            out << ",\"args\":{";
            bool first = true;
            for (const auto& [key, value] : e.args) {
                out << (first ? "" : ",") << "\"" << jsonEscape(key)
                    << "\":" << value;
                first = false;
            }
            if (e.wall_ns >= 0) {
                out << (first ? "" : ",") << "\"wall_us\":"
                    << nsToUs(e.wall_ns);
            }
            out << "}";
        }
        out << "}";
    }
    out << "]}";
    return out.str();
}

std::string
Tracer::collapsedStacks(bool include_execution) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Reconstruct one stack per track from the B/E stream (events are in
    // program order), attributing self time = duration minus children.
    struct Frame
    {
        std::string stack; ///< "track;a;b"
        int64_t begin_ns;
        int64_t child_ns = 0;
    };
    std::map<std::string, int64_t> self_ns;
    std::vector<Frame> stacks[kNumTraceTracks];
    for (const Event& e : events_) {
        if (!include_execution && e.channel == TraceChannel::Execution) {
            continue;
        }
        auto& stack = stacks[static_cast<size_t>(e.track)];
        if (e.ph == 'B') {
            std::string key = stack.empty()
                                  ? std::string(traceTrackName(e.track))
                                  : stack.back().stack;
            key += ';';
            key += e.name;
            stack.push_back({std::move(key), e.ts_ns, 0});
        } else if (e.ph == 'E' && !stack.empty()) {
            const Frame frame = stack.back();
            stack.pop_back();
            const int64_t dur = e.ts_ns - frame.begin_ns;
            self_ns[frame.stack] += dur - frame.child_ns;
            if (!stack.empty()) {
                stack.back().child_ns += dur;
            }
        }
    }
    std::ostringstream out;
    for (const auto& [stack, ns] : self_ns) { // map: sorted keys
        out << stack << " " << ns << "\n";
    }
    return out.str();
}

} // namespace pruner::obs
