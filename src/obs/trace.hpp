#pragma once

/**
 * @file trace.hpp
 * Tracer: nested spans and instant events stamped with *simulated* time,
 * exported as Chrome trace-event JSON (loadable in Perfetto / chrome://
 * tracing) and as a collapsed-stack flamegraph.
 *
 * Timestamps come from the SimClock, never the host clock, so the trace
 * of one tuning run is a pure function of the trajectory: byte-identical
 * at any worker count and reproducible from a recorded session log
 * (SessionReplayer regenerates it post mortem). Wall-clock is available
 * as an optional side channel (capture_wall) for local profiling; it is
 * off by default because wall stamps vary run to run and would break the
 * byte-identity contract.
 *
 * Like metrics, every event carries a channel:
 *  - Deterministic — emitted from the main loop at fixed trajectory
 *    points; included in the deterministic export (chromeTrace(false)).
 *  - Execution — existence or ordering depends on how the run executed
 *    (async-update overlap windows, pool-side events); only in the full
 *    export.
 *
 * Events are appended under one mutex in program order ('B'egin at span
 * open, 'E'nd at close, 'i' for instants), so the deterministic export
 * preserves main-loop program order exactly. Spans nest per track
 * (virtual lanes such as "main" and "trainer", not host thread ids —
 * thread ids are execution detail).
 */

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "support/sim_clock.hpp"

namespace pruner::obs {

/** Virtual trace lane (Chrome tid). */
enum class TraceTrack : uint8_t { Main = 0, Trainer = 1, Io = 2 };
constexpr size_t kNumTraceTracks = 3;
const char* traceTrackName(TraceTrack track);

/** See the file comment. */
enum class TraceChannel : uint8_t { Deterministic = 0, Execution = 1 };

/** Deterministic sim-time event sink. */
class Tracer
{
  public:
    /** @param capture_wall  also stamp events with host wall time (breaks
     *  byte-identity across runs; keep off for identity asserts). */
    explicit Tracer(bool capture_wall = false);

    /** Opaque span handle (0 = invalid / inert). */
    using SpanHandle = size_t;

    /** Open a span at simulated time @p sim_ts_s. Args may be attached to
     *  the handle until (or after) end(); they export on the begin
     *  event. */
    SpanHandle begin(TraceTrack track, const char* name, const char* cat,
                     double sim_ts_s,
                     TraceChannel channel = TraceChannel::Deterministic);

    /** Close a span (no-op for handle 0). */
    void end(SpanHandle handle, double sim_ts_s);

    /** Emit an instant event; returns a handle args can attach to. */
    SpanHandle instant(TraceTrack track, const char* name, const char* cat,
                       double sim_ts_s,
                       TraceChannel channel = TraceChannel::Deterministic);

    void argU64(SpanHandle handle, const char* key, uint64_t value);
    /** Doubles render with max_digits10 precision — deterministic for a
     *  given libc, round-trippable. */
    void argDouble(SpanHandle handle, const char* key, double value);
    void argStr(SpanHandle handle, const char* key, const std::string& value);

    size_t eventCount() const;
    void clear();

    /**
     * Chrome trace-event JSON ("traceEvents" array of B/E/i events plus
     * thread-name metadata). @p include_execution false = deterministic
     * channel only — the byte-identity view. Open Perfetto
     * (https://ui.perfetto.dev) and drag the file in; sim time shows as
     * microseconds.
     */
    std::string chromeTrace(bool include_execution = true) const;

    /**
     * Collapsed-stack flamegraph lines ("track;span;child <self_ns>"),
     * sorted, one per distinct stack — feed to flamegraph.pl or speedscope.
     * Self time is the span's sim duration minus its children's. Unclosed
     * spans are skipped.
     */
    std::string collapsedStacks(bool include_execution = false) const;

  private:
    struct Event
    {
        char ph; ///< 'B', 'E', 'i'
        TraceTrack track;
        TraceChannel channel;
        int64_t ts_ns;   ///< simulated nanoseconds
        int64_t wall_ns; ///< host ns since tracer creation; -1 = off
        std::string name;
        std::string cat;
        /** key -> pre-rendered JSON value. */
        std::vector<std::pair<std::string, std::string>> args;
    };

    void pushArg(SpanHandle handle, const char* key, std::string json_value);
    int64_t wallNow() const;

    mutable std::mutex mutex_;
    std::vector<Event> events_;
    bool capture_wall_;
    int64_t wall_origin_ns_ = 0;
};

/**
 * RAII span over a Tracer + SimClock pair. Inert when either is null —
 * the disabled-observability fast path is two pointer compares. Reads the
 * clock at construction and at close().
 */
class ScopedSpan
{
  public:
    ScopedSpan() = default;
    ScopedSpan(Tracer* tracer, TraceTrack track, const SimClock* clock,
               const char* name, const char* cat,
               TraceChannel channel = TraceChannel::Deterministic)
        : tracer_(tracer), clock_(clock)
    {
        if (tracer_ != nullptr && clock_ != nullptr) {
            handle_ = tracer_->begin(track, name, cat, clock_->now(),
                                     channel);
        }
    }
    ~ScopedSpan() { close(); }

    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

    /** End the span now (idempotent; the destructor is then a no-op). */
    void
    close()
    {
        if (handle_ != 0) {
            tracer_->end(handle_, clock_->now());
            handle_ = 0;
        }
    }

    void
    argU64(const char* key, uint64_t value)
    {
        if (handle_ != 0) {
            tracer_->argU64(handle_, key, value);
        }
    }
    void
    argDouble(const char* key, double value)
    {
        if (handle_ != 0) {
            tracer_->argDouble(handle_, key, value);
        }
    }
    void
    argStr(const char* key, const std::string& value)
    {
        if (handle_ != 0) {
            tracer_->argStr(handle_, key, value);
        }
    }

  private:
    Tracer* tracer_ = nullptr;
    const SimClock* clock_ = nullptr;
    Tracer::SpanHandle handle_ = 0;
};

} // namespace pruner::obs
