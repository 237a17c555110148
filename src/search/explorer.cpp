#include "search/explorer.hpp"

#include <charconv>
#include <cmath>
#include <limits>
#include <sstream>

#include "cost/cost_model.hpp"
#include "cost/gbt_model.hpp"
#include "obs/metrics.hpp"
#include "replay/session_log.hpp"
#include "support/logging.hpp"

namespace pruner {

// ---------------------------------------------------------------------------
// ExplorerSpec
// ---------------------------------------------------------------------------

ExplorerSpec::ExplorerSpec(std::string key, const std::string& config)
    : key_(std::move(key)), config_(config)
{
    if (config.find('\t') != std::string::npos ||
        config.find('\n') != std::string::npos) {
        PRUNER_FATAL("explorer config must not contain tabs or newlines "
                     "(it is recorded as one session-log field)");
    }
    size_t pos = 0;
    while (pos < config.size()) {
        size_t comma = config.find(',', pos);
        if (comma == std::string::npos) {
            comma = config.size();
        }
        const std::string pair = config.substr(pos, comma - pos);
        pos = comma + 1;
        if (pair.empty()) {
            continue;
        }
        const size_t eq = pair.find('=');
        if (eq == std::string::npos || eq == 0) {
            PRUNER_FATAL("malformed explorer config pair '"
                         << pair << "' (expected key=value)");
        }
        pairs_.emplace_back(pair.substr(0, eq), pair.substr(eq + 1));
    }
}

bool
ExplorerSpec::has(const std::string& name) const
{
    for (const auto& [k, v] : pairs_) {
        if (k == name) {
            return true;
        }
    }
    return false;
}

std::string
ExplorerSpec::get(const std::string& name, const std::string& fallback) const
{
    // Last occurrence wins, so a config can override an earlier value by
    // appending.
    std::string out = fallback;
    for (const auto& [k, v] : pairs_) {
        if (k == name) {
            out = v;
        }
    }
    return out;
}

namespace {

/** Parse @p name's whole @p value as a T, or refuse it naming the key. */
template <typename T>
T
parseValue(const std::string& key, const std::string& name,
           const std::string& value, const char* what)
{
    T out{};
    const char* end = value.data() + value.size();
    const auto [stop, ec] = std::from_chars(value.data(), end, out);
    if (ec == std::errc::result_out_of_range) {
        PRUNER_FATAL("explorer '" << key << "' option '" << name << "="
                                  << value << "' is out of range");
    }
    if (ec != std::errc() || stop != end) {
        PRUNER_FATAL("explorer '" << key << "' option '" << name << "="
                                  << value << "' is not " << what);
    }
    return out;
}

} // namespace

int64_t
ExplorerSpec::getInt(const std::string& name, int64_t fallback) const
{
    if (!has(name)) {
        return fallback;
    }
    return parseValue<int64_t>(key_, name, get(name, ""), "an integer");
}

double
ExplorerSpec::getDouble(const std::string& name, double fallback) const
{
    if (!has(name)) {
        return fallback;
    }
    return parseValue<double>(key_, name, get(name, ""), "a number");
}

// ---------------------------------------------------------------------------
// Explorer base: accounting wrappers around the strategy hooks
// ---------------------------------------------------------------------------

std::vector<ScoredSchedule>
Explorer::proposeBatch(ExplorerContext& ctx)
{
    PRUNER_CHECK(ctx.task != nullptr && ctx.device != nullptr &&
                 ctx.seeds != nullptr && ctx.rng != nullptr);
    size_t evals = 0;
    size_t* caller_out = ctx.n_evaluated;
    ctx.n_evaluated = &evals;
    std::vector<ScoredSchedule> out = propose(ctx);
    ctx.n_evaluated = caller_out;
    if (caller_out != nullptr) {
        *caller_out = evals;
    }
    if (metrics_ != nullptr) {
        metrics_->counter("explorer_" + key() + "_proposals_total")->add();
        metrics_->counter("explorer_" + key() + "_candidates_total")
            ->add(out.size());
        metrics_->counter("explorer_" + key() + "_evaluations_total")
            ->add(evals);
    }
    return out;
}

void
Explorer::observe(const SubgraphTask& task, const DeviceSpec& device,
                  std::span<const Schedule> measured,
                  std::span<const double> latencies)
{
    PRUNER_CHECK(measured.size() == latencies.size());
    if (metrics_ != nullptr) {
        metrics_->counter("explorer_" + key() + "_observed_total")
            ->add(measured.size());
    }
    onObserve(task, device, measured, latencies);
}

void
Explorer::onObserve(const SubgraphTask&, const DeviceSpec&,
                    std::span<const Schedule>, std::span<const double>)
{
}

namespace {

// ---------------------------------------------------------------------------
// evolution: the default, byte-identical to the pre-interface draft loop
// ---------------------------------------------------------------------------

/** Wraps EvolutionarySearch verbatim: same construction, same run() call,
 *  same RNG consumption as the three pre-refactor call sites, so the
 *  default explorer reproduces their outputs bit for bit (asserted
 *  against frozen golden sessions in tests/test_explorer.cpp). */
class EvolutionExplorer final : public Explorer
{
  public:
    using Explorer::Explorer;

  protected:
    std::vector<ScoredSchedule>
    propose(ExplorerContext& ctx) override
    {
        EvolutionarySearch evo(*ctx.task, *ctx.device);
        return evo.run(ctx.evo, ctx.score, *ctx.seeds, *ctx.rng,
                       ctx.n_evaluated);
    }
};

// ---------------------------------------------------------------------------
// gbt: boosted-trees surrogate trained online from measured records
// ---------------------------------------------------------------------------

/** @p spec's @p name option as a count: a whole integer in [1, INT_MAX]. */
int64_t
countOption(const ExplorerSpec& spec, const std::string& name,
            int64_t fallback)
{
    const int64_t value = spec.getInt(name, fallback);
    if (value < 1 || value > std::numeric_limits<int>::max()) {
        PRUNER_FATAL("explorer '" << spec.key() << "' option '" << name
                                  << "' must be a count in [1, "
                                  << std::numeric_limits<int>::max()
                                  << "], got " << value);
    }
    return value;
}

/**
 * Runs the evolutionary walk but scores it with a gradient-boosted-trees
 * surrogate refit online from the measured records observe() delivers
 * (target -log(latency), features from the batched extractors). Until
 * min_records measurements exist the resident fitness (ctx.score) drafts
 * as usual, so early rounds are never worse than the default. The GA's
 * RNG consumption is identical either way — only the fitness values
 * differ — keeping the explorer deterministic at any worker count.
 */
class GbtExplorer final : public Explorer
{
  public:
    explicit GbtExplorer(const ExplorerSpec& spec)
        : Explorer(spec),
          window_(static_cast<size_t>(countOption(spec, "window", 1024))),
          min_records_(
              static_cast<size_t>(countOption(spec, "min_records", 48)))
    {
        GbtConfig config;
        config.n_trees =
            static_cast<int>(countOption(spec, "trees", config.n_trees));
        config.max_depth = static_cast<int>(
            countOption(spec, "depth", config.max_depth));
        config.learning_rate =
            spec.getDouble("lr", config.learning_rate);
        if (!(std::isfinite(config.learning_rate) &&
              config.learning_rate > 0.0)) {
            PRUNER_FATAL("explorer 'gbt' option 'lr' must be finite and "
                         "positive, got "
                         << config.learning_rate);
        }
        config.min_leaf = static_cast<size_t>(countOption(
            spec, "min_leaf", static_cast<int64_t>(config.min_leaf)));
        model_ = GbtModel(config);
        if (window_ < min_records_) {
            PRUNER_FATAL("explorer 'gbt' option 'window' ("
                         << window_ << ") must be at least 'min_records' ("
                         << min_records_ << ")");
        }
    }

    std::string
    serializeState() const override
    {
        // The fitted trees are a deterministic pure function of the
        // training window, so only the window persists; restore marks the
        // model dirty and the next propose refits to identical trees.
        // Doubles are written as 16-hex IEEE-754 bit patterns
        // (doubleBits), a bit-exact round trip through TokenReader.
        std::ostringstream out;
        out << "gbt1 " << hexU64(targets_.size());
        for (const double t : targets_) {
            out << ' ' << doubleBits(t);
        }
        for (size_t r = 0; r < features_.rows(); ++r) {
            const double* row = features_.row(r);
            for (size_t c = 0; c < features_.cols(); ++c) {
                out << ' ' << doubleBits(row[c]);
            }
        }
        return out.str();
    }

    void
    restoreState(const std::string& blob) override
    {
        features_ = Matrix(0, kGbtFeatureDim);
        targets_.clear();
        dirty_ = false;
        if (blob.empty()) {
            return;
        }
        TokenReader in(blob);
        if (in.next() != "gbt1") {
            PRUNER_FATAL("not a gbt explorer state blob");
        }
        // No reserve(n): the count is unchecked input, while the loop is
        // bounded by the blob's own tokens.
        const uint64_t n = in.u64();
        for (uint64_t i = 0; i < n; ++i) {
            targets_.push_back(in.f64());
        }
        features_.resize(n, kGbtFeatureDim);
        for (uint64_t r = 0; r < n; ++r) {
            double* row = features_.row(r);
            for (size_t c = 0; c < kGbtFeatureDim; ++c) {
                row[c] = in.f64();
            }
        }
        dirty_ = !targets_.empty();
    }

  protected:
    std::vector<ScoredSchedule>
    propose(ExplorerContext& ctx) override
    {
        ScoreFn fitness = ctx.score;
        if (targets_.size() >= min_records_) {
            if (dirty_) {
                model_.fit(features_, targets_);
                dirty_ = false;
            }
            const SubgraphTask* task = ctx.task;
            const DeviceSpec* device = ctx.device;
            const GbtModel* model = &model_;
            fitness = [task, device,
                       model](std::span<const Schedule> cands) {
                Matrix feats;
                extractGbtFeatures(*task, cands, *device, feats);
                std::vector<double> scores;
                model->predictBatch(feats, scores);
                return scores;
            };
        }
        EvolutionarySearch evo(*ctx.task, *ctx.device);
        return evo.run(ctx.evo, fitness, *ctx.seeds, *ctx.rng,
                       ctx.n_evaluated);
    }

    void
    onObserve(const SubgraphTask& task, const DeviceSpec& device,
              std::span<const Schedule> measured,
              std::span<const double> latencies) override
    {
        std::vector<Schedule> kept;
        std::vector<double> y;
        for (size_t i = 0; i < measured.size(); ++i) {
            if (std::isfinite(latencies[i]) && latencies[i] > 0.0) {
                kept.push_back(measured[i]);
                y.push_back(-std::log(latencies[i]));
            }
        }
        if (kept.empty()) {
            return;
        }
        Matrix feats;
        extractGbtFeatures(task, kept, device, feats);
        for (size_t i = 0; i < kept.size(); ++i) {
            features_.appendRows(feats, i, 1);
            targets_.push_back(y[i]);
        }
        if (targets_.size() > window_) {
            // Drop the oldest rows (sliding training window).
            const size_t drop = targets_.size() - window_;
            const Matrix tail =
                features_.sliceRows(drop, targets_.size() - drop);
            features_ = tail;
            targets_.erase(targets_.begin(),
                           targets_.begin() + static_cast<ptrdiff_t>(drop));
        }
        dirty_ = true;
    }

  private:
    size_t window_;
    size_t min_records_;
    GbtModel model_;
    Matrix features_{0, kGbtFeatureDim};
    std::vector<double> targets_;
    bool dirty_ = false;
};

} // namespace

void
observeWarmRecords(Explorer& explorer, const DeviceSpec& device,
                   const std::vector<MeasuredRecord>& records)
{
    size_t i = 0;
    while (i < records.size()) {
        const uint64_t task_hash = records[i].task.hash();
        std::vector<Schedule> schs;
        std::vector<double> lats;
        size_t j = i;
        while (j < records.size() &&
               records[j].task.hash() == task_hash) {
            schs.push_back(records[j].sch);
            lats.push_back(records[j].latency);
            ++j;
        }
        explorer.observe(records[i].task, device, schs, lats);
        i = j;
    }
}

std::unique_ptr<Explorer>
makeExplorer(const std::string& key, const std::string& config)
{
    if (key.empty() || key == "evolution") {
        return std::make_unique<EvolutionExplorer>(
            ExplorerSpec("evolution", config));
    }
    if (key == "gbt") {
        return std::make_unique<GbtExplorer>(ExplorerSpec(key, config));
    }
    PRUNER_FATAL("unknown explorer '" << key
                                      << "' (known: evolution, gbt)");
}

} // namespace pruner
