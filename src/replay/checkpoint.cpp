#include "replay/checkpoint.hpp"

#include <bit>
#include <charconv>
#include <concepts>
#include <cstdio>
#include <fstream>
#include <string_view>

#include "core/moa.hpp"
#include "replay/session_log.hpp"
#include "search/explorer.hpp"
#include "search/record_log.hpp"
#include "support/io.hpp"
#include "support/logging.hpp"
#include "support/rng.hpp"

namespace pruner {

namespace {

constexpr const char* kHeaderTag = "#pruner-checkpoint";
constexpr int kVersion = 1;

/** FNV-1a over raw bytes, folded into the running hash. */
uint64_t
hashBytes(uint64_t h, const void* data, size_t n)
{
    const auto* p = static_cast<const unsigned char*>(data);
    uint64_t fnv = 1469598103934665603ull;
    for (size_t i = 0; i < n; ++i) {
        fnv ^= p[i];
        fnv *= 1099511628211ull;
    }
    return hashCombine(h, fnv);
}

uint64_t
hashStr(uint64_t h, const std::string& s)
{
    return hashBytes(h, s.data(), s.size());
}

uint64_t
hashF64(uint64_t h, double v)
{
    return hashCombine(h, std::bit_cast<uint64_t>(v));
}

/** Space-separated token reader over one payload line; tokens are views
 *  into the line. Throws FatalError (via the session_log hex decoders /
 *  PRUNER_FATAL) on malformed input, which loadCheckpoint turns into
 *  quarantine-and-start-cold. */
class Tok
{
  public:
    Tok(std::string_view line, size_t start) : line_(line), pos_(start) {}

    std::string_view
    next()
    {
        while (pos_ < line_.size() && line_[pos_] == ' ') {
            ++pos_;
        }
        const size_t begin = pos_;
        while (pos_ < line_.size() && line_[pos_] != ' ') {
            ++pos_;
        }
        if (pos_ == begin) {
            PRUNER_FATAL("checkpoint: truncated line '" << line_ << "'");
        }
        return line_.substr(begin, pos_ - begin);
    }

    uint64_t u64() { return parseHexU64(next()); }
    double f64() { return bitsToDouble(next()); }

    uint64_t
    dec()
    {
        const std::string_view t = next();
        uint64_t value = 0;
        for (const char c : t) {
            if (c < '0' || c > '9') {
                PRUNER_FATAL("checkpoint: bad integer '" << t << "'");
            }
            value = value * 10 + static_cast<uint64_t>(c - '0');
        }
        return value;
    }

    int64_t
    sdec()
    {
        while (pos_ < line_.size() && line_[pos_] == ' ') {
            ++pos_;
        }
        bool neg = false;
        if (pos_ < line_.size() && line_[pos_] == '-') {
            neg = true;
            ++pos_;
        }
        const int64_t mag = static_cast<int64_t>(dec());
        return neg ? -mag : mag;
    }

  private:
    std::string_view line_;
    size_t pos_;
};

/** 16 lowercase hex digits of a value / of a double's bit pattern. */
struct Hex
{
    uint64_t value;
};
struct Bits
{
    double value;
};

/** Append-only text builder in the ostream shape the v1 writers were
 *  written in, without the stream: integers print as a classic-locale
 *  ostream prints them (std::to_chars), Hex/Bits through appendHex16. */
struct Writer
{
    std::string text;

    Writer&
    operator<<(std::string_view s)
    {
        text.append(s);
        return *this;
    }

    Writer&
    operator<<(char c)
    {
        text.push_back(c);
        return *this;
    }

    template <std::integral T>
    Writer&
    operator<<(T value)
    {
        char buf[24];
        const auto res = std::to_chars(buf, buf + sizeof(buf), value);
        text.append(buf, res.ptr);
        return *this;
    }

    Writer&
    operator<<(Hex h)
    {
        appendHex16(text, h.value);
        return *this;
    }

    Writer&
    operator<<(Bits b)
    {
        appendHex16(text, std::bit_cast<uint64_t>(b.value));
        return *this;
    }
};

void
putRng(Writer& out, const RngState& rng)
{
    out << Hex{rng.s[0]} << " " << Hex{rng.s[1]} << " "
        << Hex{rng.s[2]} << " " << Hex{rng.s[3]} << " "
        << (rng.has_cached_normal ? 1 : 0) << " "
        << Bits{rng.cached_normal};
}

RngState
getRng(Tok& in)
{
    RngState rng;
    for (auto& word : rng.s) {
        word = in.u64();
    }
    rng.has_cached_normal = in.dec() != 0;
    rng.cached_normal = in.f64();
    return rng;
}

/** Shared by the checkpoint payload and resultSignature: one canonical
 *  line per round (all doubles as bit patterns). */
void
putRoundStats(Writer& out, const obs::RoundStats& r)
{
    out << r.round << " " << r.tasks.size();
    for (const size_t t : r.tasks) {
        out << " " << t;
    }
    out << " " << Bits{r.begin_time_s} << " "
        << Bits{r.end_time_s} << " " << Bits{r.exploration_s}
        << " " << Bits{r.training_s} << " "
        << Bits{r.measurement_s} << " " << Bits{r.compile_s}
        << " " << Bits{r.other_s} << " " << r.drafted << " "
        << r.measured << " " << r.trials << " " << r.cache_hits << " "
        << r.simulated_trials << " " << r.failed_trials << " "
        << r.injected_faults << " " << Bits{r.best_latency};
}

obs::RoundStats
getRoundStats(Tok& in)
{
    obs::RoundStats r;
    r.round = static_cast<int>(in.sdec());
    const uint64_t n_tasks = in.dec();
    r.tasks.reserve(n_tasks);
    for (uint64_t i = 0; i < n_tasks; ++i) {
        r.tasks.push_back(static_cast<size_t>(in.dec()));
    }
    r.begin_time_s = in.f64();
    r.end_time_s = in.f64();
    r.exploration_s = in.f64();
    r.training_s = in.f64();
    r.measurement_s = in.f64();
    r.compile_s = in.f64();
    r.other_s = in.f64();
    r.drafted = in.dec();
    r.measured = in.dec();
    r.trials = in.dec();
    r.cache_hits = in.dec();
    r.simulated_trials = in.dec();
    r.failed_trials = in.dec();
    r.injected_faults = in.dec();
    r.best_latency = in.f64();
    return r;
}

void
putDoubles(Writer& out, const std::vector<double>& values)
{
    out << values.size();
    for (const double v : values) {
        out << " " << Bits{v};
    }
}

/** Payload bytes to reserve for @p cp: exact for the weight vectors, the
 *  record lines and the blob, which are nearly all of it; the slack
 *  covers the short lines. */
size_t
payloadSizeHint(const TuningCheckpoint& cp)
{
    size_t n = 4096 + cp.explorer_blob.size() +
               17 * (cp.model_params.size() + cp.siamese_params.size()) +
               64 * (cp.cache_entries.size() + cp.curve.size() +
                     cp.measurer.fault_attempts.size()) +
               512 * cp.round_stats.size();
    for (const std::string& line : cp.record_lines) {
        n += line.size() + 5;
    }
    for (const auto& hist : cp.scheduler.history) {
        n += 24 + 17 * hist.size();
    }
    return n;
}

std::vector<double>
getDoubles(Tok& in)
{
    const uint64_t n = in.dec();
    std::vector<double> values;
    values.reserve(n);
    for (uint64_t i = 0; i < n; ++i) {
        values.push_back(in.f64());
    }
    return values;
}

} // namespace

uint64_t
checkpointFingerprint(const std::string& replay_factory,
                      const std::string& replay_config,
                      const std::string& device_name,
                      const Workload& workload, const TuneOptions& opts)
{
    uint64_t h = 0x70636b7074763101ull; // "pckptv1" salt
    h = hashStr(h, replay_factory);
    h = hashStr(h, replay_config);
    h = hashStr(h, device_name);
    h = hashStr(h, workload.name);
    h = hashCombine(h, workload.tasks.size());
    for (const auto& inst : workload.tasks) {
        h = hashCombine(h, inst.task.hash());
        h = hashF64(h, inst.weight);
    }
    h = hashCombine(h, static_cast<uint64_t>(opts.rounds));
    h = hashCombine(h, static_cast<uint64_t>(opts.measures_per_round));
    h = hashCombine(h, opts.seed);
    h = hashCombine(h, opts.online_training ? 1 : 0);
    h = hashCombine(h, static_cast<uint64_t>(opts.train_epochs));
    h = hashF64(h, opts.eps_greedy);
    const CostConstants& c = opts.constants;
    h = hashF64(h, c.mlp_eval_per_candidate);
    h = hashF64(h, c.pacm_eval_per_candidate);
    h = hashF64(h, c.tlp_eval_per_candidate);
    h = hashF64(h, c.sa_eval_per_candidate);
    h = hashF64(h, c.mlp_train_per_round);
    h = hashF64(h, c.pacm_train_per_round);
    h = hashF64(h, c.tlp_train_per_round);
    h = hashF64(h, c.measure_per_trial);
    h = hashF64(h, c.compile_per_trial);
    h = hashF64(h, c.task_switch_overhead);
    h = hashCombine(h, opts.measure_cache ? 1 : 0);
    h = hashCombine(h, static_cast<uint64_t>(opts.tasks_per_round));
    h = hashCombine(h, opts.warm_start_records ? 1 : 0);
    h = hashCombine(h, opts.reuse_measure_cache ? 1 : 0);
    h = hashCombine(h, opts.reuse_model_checkpoint ? 1 : 0);
    h = hashF64(h, opts.fault_plan.launch_failure_rate);
    h = hashF64(h, opts.fault_plan.timeout_rate);
    h = hashF64(h, opts.fault_plan.flaky_rate);
    h = hashF64(h, opts.fault_plan.flaky_sigma);
    h = hashF64(h, opts.fault_plan.timeout_extra_s);
    h = hashCombine(h, opts.fault_plan.seed);
    h = hashCombine(h, opts.collect_round_stats ? 1 : 0);
    h = hashStr(h, opts.explorer);
    h = hashStr(h, opts.explorer_config);
    return h;
}

void
buildCheckpoint(const CheckpointSources& src, TuningCheckpoint* out)
{
    PRUNER_CHECK(out != nullptr);
    // The db is append-only, so the record lines of an earlier save are a
    // prefix of today's: keep them and format only the records added since.
    std::vector<std::string> record_lines = std::move(out->record_lines);
    const auto& records = src.db->records();
    PRUNER_CHECK_MSG(record_lines.size() <= records.size(),
                     "checkpoint holds more record lines than the db has "
                     "records (not built from these sources)");
    record_lines.reserve(records.size());
    for (size_t i = record_lines.size(); i < records.size(); ++i) {
        record_lines.push_back(recordToLine(records[i]));
    }

    TuningCheckpoint& cp = *out;
    cp = TuningCheckpoint{};
    cp.record_lines = std::move(record_lines);
    cp.fingerprint = src.fingerprint;
    cp.next_round = src.next_round;
    cp.clock_lanes = src.clock_lanes;
    for (int c = 0; c < kNumCostCategories; ++c) {
        cp.clock_totals[static_cast<size_t>(c)] =
            src.clock->total(static_cast<CostCategory>(c));
    }
    cp.rng = src.rng->state();
    if (src.model != nullptr) {
        cp.has_model = true;
        cp.model_params = src.model->getParams();
    }
    if (src.model_rng != nullptr) {
        cp.has_model_rng = true;
        cp.model_rng = src.model_rng->state();
    }
    if (src.siamese != nullptr) {
        cp.has_siamese = true;
        cp.siamese_params = *src.siamese;
    }
    cp.measurer = src.measurer->exportState();
    cp.scheduler = src.scheduler->exportState();
    if (src.cache != nullptr) {
        cp.cache_entries = src.cache->exportEntries();
    }
    if (src.curve != nullptr) {
        cp.curve = *src.curve;
    }
    if (src.round_stats != nullptr) {
        cp.round_stats = *src.round_stats;
    }
    if (src.metrics != nullptr) {
        cp.metrics = src.metrics->snapshot();
    }
    if (src.explorer != nullptr) {
        cp.explorer_blob = src.explorer->serializeState();
    }
}

int
applyCheckpoint(const TuningCheckpoint& cp, const Workload& workload,
                const CheckpointTargets& targets)
{
    targets.clock->reset();
    for (int c = 0; c < kNumCostCategories; ++c) {
        targets.clock->charge(static_cast<CostCategory>(c),
                              cp.clock_totals[static_cast<size_t>(c)]);
    }
    targets.rng->setState(cp.rng);
    targets.measurer->restoreState(cp.measurer);
    targets.scheduler->restoreState(cp.scheduler);
    std::vector<SubgraphTask> known_tasks;
    known_tasks.reserve(workload.tasks.size());
    for (const auto& inst : workload.tasks) {
        known_tasks.push_back(inst.task);
    }
    size_t dropped = 0;
    for (const std::string& line : cp.record_lines) {
        MeasuredRecord rec;
        if (lineToRecord(line, known_tasks, &rec)) {
            targets.db->add(std::move(rec));
        } else {
            ++dropped;
        }
    }
    if (dropped > 0) {
        PRUNER_WARN("checkpoint: " << dropped
                                   << " record(s) did not resolve against "
                                      "the workload and were dropped");
    }
    if (targets.cache != nullptr) {
        targets.cache->restoreEntries(cp.cache_entries);
    }
    if (!cp.explorer_blob.empty() && targets.explorer != nullptr) {
        targets.explorer->restoreState(cp.explorer_blob);
    }
    if (cp.has_model && targets.model != nullptr) {
        targets.model->setParams(cp.model_params);
        if (cp.has_model_rng) {
            if (Rng* train_rng = targets.model->trainingRng()) {
                train_rng->setState(cp.model_rng);
            }
        }
    }
    if (cp.has_siamese && targets.moa != nullptr) {
        targets.moa->setSiameseParams(cp.siamese_params);
    }
    if (targets.metrics != nullptr) {
        targets.metrics->restore(cp.metrics);
    }
    if (targets.round_stats != nullptr) {
        targets.round_stats->restore(cp.round_stats);
    }
    if (targets.curve != nullptr) {
        *targets.curve = cp.curve;
    }
    return cp.next_round;
}

std::string
encodeCheckpoint(const TuningCheckpoint& cp)
{
    // The whole file is built in one string: the payload first (its size
    // and CRC go into the header), then the header is inserted in front of
    // it within the reserved capacity.
    constexpr size_t kHeaderMax = 80;
    Writer out;
    out.text.reserve(kHeaderMax + payloadSizeHint(cp));
    out << "fp " << Hex{cp.fingerprint} << "\n";
    out << "round " << cp.next_round << "\n";
    out << "lanes " << cp.clock_lanes << "\n";
    out << "clock";
    for (const double t : cp.clock_totals) {
        out << " " << Bits{t};
    }
    out << "\n";
    out << "rng ";
    putRng(out, cp.rng);
    out << "\n";
    if (cp.has_model) {
        out << "model ";
        putDoubles(out, cp.model_params);
        out << "\n";
    }
    if (cp.has_model_rng) {
        out << "modelrng ";
        putRng(out, cp.model_rng);
        out << "\n";
    }
    if (cp.has_siamese) {
        out << "siamese ";
        putDoubles(out, cp.siamese_params);
        out << "\n";
    }
    out << "meas ";
    putRng(out, cp.measurer.rng);
    out << " " << Hex{cp.measurer.batch_index} << " "
        << cp.measurer.fault_attempts.size();
    for (const auto& [key, attempts] : cp.measurer.fault_attempts) {
        out << " " << Hex{key} << " " << attempts;
    }
    out << "\n";
    out << "sched " << cp.scheduler.round_robin_cursor << " "
        << cp.scheduler.history.size();
    for (size_t i = 0; i < cp.scheduler.history.size(); ++i) {
        out << " " << cp.scheduler.rounds[i] << " "
            << cp.scheduler.history[i].size();
        for (const double v : cp.scheduler.history[i]) {
            out << " " << Bits{v};
        }
    }
    out << "\n";
    for (const std::string& line : cp.record_lines) {
        out << "rec\t" << line << "\n";
    }
    for (const auto& entry : cp.cache_entries) {
        out << "cache " << Hex{entry.task_hash} << " "
            << Hex{entry.sched_hash} << " " << Bits{entry.latency}
            << "\n";
    }
    for (const auto& point : cp.curve) {
        out << "curve " << Bits{point.time_s} << " "
            << Bits{point.latency_s} << "\n";
    }
    for (const auto& r : cp.round_stats) {
        out << "rstat ";
        putRoundStats(out, r);
        out << "\n";
    }
    // Deterministic channel only: the execution channel is host behaviour
    // (pool stats, async overlap) and rebuilds from the resumed run.
    const auto det = obs::MetricChannel::Deterministic;
    for (const auto& m : cp.metrics.counters) {
        if (m.channel == det) {
            out << "mc " << m.name << " " << m.value << "\n";
        }
    }
    for (const auto& g : cp.metrics.gauges) {
        if (g.channel == det) {
            out << "mg " << g.name << " " << g.value << "\n";
        }
    }
    for (const auto& hist : cp.metrics.histograms) {
        if (hist.channel != det) {
            continue;
        }
        out << "mh " << hist.name << " " << hist.bounds.size();
        for (const uint64_t b : hist.bounds) {
            out << " " << b;
        }
        for (const uint64_t b : hist.bucket_counts) {
            out << " " << b;
        }
        out << " " << hist.sum << "\n";
    }
    for (const auto& l : cp.metrics.labels) {
        if (l.channel == det) {
            out << "ml " << l.name << "\t" << l.value << "\n";
        }
    }
    if (!cp.explorer_blob.empty()) {
        out << "exp\t" << cp.explorer_blob << "\n";
    }
    out << "end\n";

    std::string& text = out.text;
    char header[kHeaderMax];
    const int header_len = std::snprintf(
        header, sizeof(header), "%s v%d crc=%08x bytes=%zu\n", kHeaderTag,
        kVersion, io::crc32(text.data(), text.size()), text.size());
    text.insert(0, header, static_cast<size_t>(header_len));
    return std::move(text);
}

TuningCheckpoint
decodeCheckpoint(const std::string& text)
{
    const size_t header_end = text.find('\n');
    if (header_end == std::string::npos) {
        PRUNER_FATAL("checkpoint: missing header line");
    }
    const std::string header = text.substr(0, header_end);
    char tag[32] = {0};
    int version = 0;
    unsigned crc = 0;
    size_t bytes = 0;
    if (std::sscanf(header.c_str(), "%31s v%d crc=%8x bytes=%zu", tag,
                    &version, &crc, &bytes) != 4 ||
        std::string(tag) != kHeaderTag) {
        PRUNER_FATAL("checkpoint: malformed header '" << header << "'");
    }
    if (version != kVersion) {
        PRUNER_FATAL("checkpoint: unsupported version " << version);
    }
    const std::string_view payload =
        std::string_view(text).substr(header_end + 1);
    if (payload.size() != bytes) {
        PRUNER_FATAL("checkpoint: payload is " << payload.size()
                                               << " bytes, header says "
                                               << bytes << " (torn write?)");
    }
    if (io::crc32(payload.data(), payload.size()) != crc) {
        PRUNER_FATAL("checkpoint: payload CRC mismatch");
    }

    TuningCheckpoint cp;
    bool saw_end = false;
    size_t pos = 0;
    while (pos < payload.size() && !saw_end) {
        size_t eol = payload.find('\n', pos);
        if (eol == std::string_view::npos) {
            eol = payload.size();
        }
        const std::string_view line = payload.substr(pos, eol - pos);
        pos = eol + 1;
        if (line.empty()) {
            continue;
        }
        const size_t sep = line.find_first_of(" \t");
        const std::string_view kind = line.substr(0, sep);
        const size_t body =
            sep == std::string_view::npos ? line.size() : sep + 1;
        Tok in(line, body);
        if (kind == "fp") {
            cp.fingerprint = in.u64();
        } else if (kind == "round") {
            cp.next_round = static_cast<int>(in.sdec());
        } else if (kind == "lanes") {
            cp.clock_lanes = in.dec();
        } else if (kind == "clock") {
            for (double& t : cp.clock_totals) {
                t = in.f64();
            }
        } else if (kind == "rng") {
            cp.rng = getRng(in);
        } else if (kind == "model") {
            cp.has_model = true;
            cp.model_params = getDoubles(in);
        } else if (kind == "modelrng") {
            cp.has_model_rng = true;
            cp.model_rng = getRng(in);
        } else if (kind == "siamese") {
            cp.has_siamese = true;
            cp.siamese_params = getDoubles(in);
        } else if (kind == "meas") {
            cp.measurer.rng = getRng(in);
            cp.measurer.batch_index = in.u64();
            const uint64_t n = in.dec();
            cp.measurer.fault_attempts.reserve(n);
            for (uint64_t i = 0; i < n; ++i) {
                const uint64_t key = in.u64();
                const auto attempts = static_cast<uint32_t>(in.dec());
                cp.measurer.fault_attempts.emplace_back(key, attempts);
            }
        } else if (kind == "sched") {
            cp.scheduler.round_robin_cursor =
                static_cast<size_t>(in.dec());
            const uint64_t n_tasks = in.dec();
            cp.scheduler.rounds.reserve(n_tasks);
            cp.scheduler.history.reserve(n_tasks);
            for (uint64_t i = 0; i < n_tasks; ++i) {
                cp.scheduler.rounds.push_back(
                    static_cast<size_t>(in.dec()));
                const uint64_t hist_len = in.dec();
                std::vector<double> hist;
                hist.reserve(hist_len);
                for (uint64_t j = 0; j < hist_len; ++j) {
                    hist.push_back(in.f64());
                }
                cp.scheduler.history.push_back(std::move(hist));
            }
        } else if (kind == "rec") {
            cp.record_lines.emplace_back(line.substr(body));
        } else if (kind == "cache") {
            MeasureCacheEntry entry;
            entry.task_hash = in.u64();
            entry.sched_hash = in.u64();
            entry.latency = in.f64();
            cp.cache_entries.push_back(entry);
        } else if (kind == "curve") {
            CurvePoint point;
            point.time_s = in.f64();
            point.latency_s = in.f64();
            cp.curve.push_back(point);
        } else if (kind == "rstat") {
            cp.round_stats.push_back(getRoundStats(in));
        } else if (kind == "mc") {
            std::string name(in.next());
            cp.metrics.counters.push_back(
                {std::move(name), obs::MetricChannel::Deterministic,
                 in.dec()});
        } else if (kind == "mg") {
            std::string name(in.next());
            cp.metrics.gauges.push_back(
                {std::move(name), obs::MetricChannel::Deterministic,
                 in.sdec()});
        } else if (kind == "mh") {
            obs::MetricsSnapshot::HistogramValue hist;
            hist.name = in.next();
            hist.channel = obs::MetricChannel::Deterministic;
            const uint64_t n_bounds = in.dec();
            hist.bounds.reserve(n_bounds);
            for (uint64_t i = 0; i < n_bounds; ++i) {
                hist.bounds.push_back(in.dec());
            }
            hist.bucket_counts.reserve(n_bounds + 1);
            for (uint64_t i = 0; i < n_bounds + 1; ++i) {
                hist.bucket_counts.push_back(in.dec());
            }
            hist.sum = in.dec();
            hist.count = 0;
            for (const uint64_t b : hist.bucket_counts) {
                hist.count += b;
            }
            cp.metrics.histograms.push_back(std::move(hist));
        } else if (kind == "ml") {
            const std::string_view rest = line.substr(body);
            const size_t tab = rest.find('\t');
            if (tab == std::string_view::npos) {
                PRUNER_FATAL("checkpoint: malformed label line");
            }
            cp.metrics.labels.push_back(
                {std::string(rest.substr(0, tab)),
                 obs::MetricChannel::Deterministic,
                 std::string(rest.substr(tab + 1))});
        } else if (kind == "exp") {
            cp.explorer_blob = line.substr(body);
        } else if (kind == "end") {
            saw_end = true;
        } else {
            PRUNER_FATAL("checkpoint: unknown line kind '" << kind << "'");
        }
    }
    if (!saw_end) {
        PRUNER_FATAL("checkpoint: missing end marker (torn payload)");
    }
    return cp;
}

bool
saveCheckpoint(const std::string& path, const TuningCheckpoint& cp,
               obs::MetricsRegistry* metrics)
{
    const std::string text = encodeCheckpoint(cp);
    if (!io::atomicWriteFile(path, text)) {
        PRUNER_WARN("checkpoint write to '"
                    << path
                    << "' failed; tuning continues (the previous "
                       "checkpoint, if any, is intact)");
        if (metrics != nullptr) {
            metrics
                ->counter("checkpoint_write_failures_total",
                          obs::MetricChannel::Execution)
                ->add(1);
        }
        return false;
    }
    if (metrics != nullptr) {
        metrics
            ->counter("checkpoint_writes_total",
                      obs::MetricChannel::Execution)
            ->add(1);
    }
    return true;
}

std::optional<TuningCheckpoint>
loadCheckpoint(const std::string& path, uint64_t expected_fingerprint,
               obs::MetricsRegistry* metrics)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        PRUNER_WARN("checkpoint '" << path
                                   << "' missing or unreadable; starting "
                                      "cold");
        return std::nullopt;
    }
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    in.close();
    TuningCheckpoint cp;
    try {
        cp = decodeCheckpoint(text);
    } catch (const std::exception& e) {
        const std::string quarantined = io::quarantineFile(path);
        PRUNER_WARN("corrupt checkpoint '"
                    << path << "' ("
                    << e.what() << ") quarantined to '"
                    << (quarantined.empty() ? "<unremovable>" : quarantined)
                    << "'; starting cold");
        if (metrics != nullptr) {
            metrics
                ->counter("checkpoint_quarantined_total",
                          obs::MetricChannel::Execution)
                ->add(1);
        }
        return std::nullopt;
    }
    if (cp.fingerprint != expected_fingerprint) {
        PRUNER_WARN("checkpoint '"
                    << path
                    << "' was written by an incompatible run "
                       "(fingerprint mismatch); starting cold");
        return std::nullopt;
    }
    if (metrics != nullptr) {
        metrics
            ->counter("checkpoint_resumes_total",
                      obs::MetricChannel::Execution)
            ->add(1);
    }
    return cp;
}

std::string
resultSignature(const TuneResult& result)
{
    Writer out;
    out << "policy " << result.policy << "\n";
    out << "final " << Bits{result.final_latency} << " "
        << Bits{result.total_time_s} << " "
        << Bits{result.exploration_s} << " "
        << Bits{result.training_s} << " "
        << Bits{result.measurement_s} << " "
        << Bits{result.compile_s} << "\n";
    out << "counters " << result.trials << " " << result.failed_trials
        << " " << result.cache_hits << " " << result.simulated_trials
        << " " << result.warm_records << " " << result.injected_faults
        << "\n";
    out << "best";
    for (const double b : result.best_per_task) {
        out << " " << Bits{b};
    }
    out << "\n";
    for (const auto& point : result.curve) {
        out << "curve " << Bits{point.time_s} << " "
            << Bits{point.latency_s} << "\n";
    }
    for (const auto& r : result.round_stats) {
        out << "rstat ";
        putRoundStats(out, r);
        out << "\n";
    }
    out << "failed " << (result.failed ? 1 : 0) << " "
        << result.failure_reason << "\n";
    return std::move(out.text);
}

} // namespace pruner
