#pragma once

/**
 * @file session_log.hpp
 * Versioned, append-only event log of one tune() session — the unit of
 * deterministic session replay.
 *
 * A session log captures every decision and outcome a tuning session
 * produces, compactly enough that SessionReplayer (session_replayer.hpp)
 * can re-execute the session from the log alone and assert the re-run is
 * byte-identical: the same TuneResult values, the same simulated clock,
 * and the same model weights.
 *
 * Format: line-oriented text. The first line is the version marker
 *
 *   #pruner-session-log v1
 *
 * followed by one event per line, fields separated by tabs. Doubles are
 * encoded as their raw IEEE-754 bit pattern in hex (16 digits), so the
 * codec round-trips exactly and log equality is bit equality. Event kinds,
 * in the order a well-formed log contains them:
 *
 *   session   policy/factory identity, device and workload names, task
 *             count, whether an ArtifactDb was attached
 *   options   every TuneOptions field that shapes the trajectory
 *   constants the calibrated CostConstants (all bits)
 *   faults    the FaultPlan (rates, sigma, timeout charge, seed)
 *   policycfg policy-specific construction parameters (replayConfig())
 *   round     round index + the task indices TaskScheduler::nextTasks
 *             picked
 *   model     round index + content hash of the cost-model parameters
 *             observed at the round's install point
 *   measure   task hash, schedule hash, latency bits, fault kind — one
 *             per candidate, in deterministic batch order (cache hits
 *             included)
 *   end       TuneResult summary (all double fields as bits, counters,
 *             curve/per-task hashes, final model hash); exactly one, last
 *
 * A log without its end event is truncated (the session crashed or the
 * file was cut) and fails to parse, as does an unknown version.
 */

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace pruner {

/** Append @p value as 16 lowercase hex digits (zero-padded) to @p out —
 *  the one encoder behind hexU64(), doubleBits() and the checkpoint
 *  writer. */
void appendHex16(std::string& out, uint64_t value);

/** Encode a double as its 16-hex-digit IEEE-754 bit pattern. */
std::string doubleBits(double value);

/** Decode doubleBits(); throws FatalError on malformed input. */
double bitsToDouble(std::string_view hex);

/** Encode a uint64 as 16 hex digits. */
std::string hexU64(uint64_t value);

/** Decode hexU64(); throws FatalError on malformed input. */
uint64_t parseHexU64(std::string_view hex);

/** Space-separated token reader over one line of text, the decoder of the
 *  checkpoint payload and of explorer state blobs. Tokens are views into
 *  the line, which must outlive the reader. Throws FatalError on a
 *  missing or malformed token. */
class TokenReader
{
  public:
    explicit TokenReader(std::string_view line, size_t start = 0)
        : line_(line), pos_(start)
    {
    }

    /** The next token; FatalError when the line has none left. */
    std::string_view next();
    /** The next token as hex (parseHexU64). */
    uint64_t u64() { return parseHexU64(next()); }
    /** The next token as a doubleBits() pattern. */
    double f64() { return bitsToDouble(next()); }
    /** The next token as an unsigned decimal; FatalError when it does
     *  not fit 64 bits. */
    uint64_t dec();
    /** The next token as a decimal with an optional leading '-';
     *  FatalError when it does not fit int64_t. */
    int64_t sdec();

  private:
    std::string_view line_;
    size_t pos_;
};

/** Order-sensitive content hash of a flat parameter vector (bit_cast per
 *  element), used for the model checkpoint hashes in session logs. */
uint64_t paramsHash(const std::vector<double>& params);

/** One parsed session-log event: its kind tag plus the canonical line. */
struct SessionEvent
{
    std::string kind; ///< first tab-separated field ("round", "measure", …)
    std::string line; ///< the full canonical line (identity is bit equality)
};

/** A parsed (or under-construction) session log. */
class SessionLog
{
  public:
    static constexpr int kVersion = 1;

    /** The version marker line this codec writes. */
    static std::string versionLine();

    /** Append one canonical event line (the recorder's back end). */
    void append(std::string line);

    const std::vector<SessionEvent>& events() const { return events_; }
    size_t size() const { return events_.size(); }
    bool empty() const { return events_.empty(); }

    /** True once the terminal "end" event is present. */
    bool complete() const;

    /** First event of the given kind; nullptr if absent. */
    const SessionEvent* find(const std::string& kind) const;

    /** Whole log as text (version line + one line per event). */
    std::string serialize() const;

    /** Parse a serialize()d log. Throws FatalError on a missing or
     *  unsupported version marker, on an empty/blank event line, or on a
     *  truncated log (no terminal end event). */
    static SessionLog parse(const std::string& text);

    /** Load + parse a save()d log file; throws FatalError if unreadable.
     *  The first line without a valid CRC suffix truncates the log there,
     *  so parse() then rejects it as incomplete. */
    static SessionLog load(const std::string& path);

    /** Write serialize() to @p path atomically (tmp + rename). */
    void save(const std::string& path) const;

  private:
    std::vector<SessionEvent> events_;
};

/** Key=value field accessors for one event line. Values are the raw field
 *  text; helpers decode the common encodings. Throws FatalError when a
 *  required field is missing or malformed. */
class EventFields
{
  public:
    explicit EventFields(const std::string& line);

    const std::string& get(const std::string& key) const;
    uint64_t getU64(const std::string& key) const;
    int64_t getInt(const std::string& key) const;
    double getDoubleBits(const std::string& key) const;

  private:
    std::vector<std::pair<std::string, std::string>> fields_;
};

/** Where two session logs first diverge. */
struct ReplayDivergence
{
    size_t event_index = 0;  ///< 0-based index into events()
    std::string recorded;    ///< the recorded line ("" = log ended early)
    std::string replayed;    ///< the replayed line ("" = log ended early)
};

/** Result of comparing a replayed log against its recording. */
struct ReplayDiff
{
    bool identical = false;
    std::optional<ReplayDivergence> divergence;

    /** Human-readable one-paragraph description of the divergence. */
    std::string describe() const;
};

/** Compare two logs event by event and pinpoint the first divergence.
 *  Bit-identical logs (same events, same bytes) compare identical. */
ReplayDiff replayDiff(const SessionLog& recorded, const SessionLog& replayed);

} // namespace pruner
