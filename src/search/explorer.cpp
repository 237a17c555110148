#include "search/explorer.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "cost/cost_model.hpp"
#include "cost/gbt_model.hpp"
#include "obs/metrics.hpp"
#include "replay/session_log.hpp"
#include "support/logging.hpp"

namespace pruner {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

// Checkpoint blobs: space-separated printable tokens, written with the
// session-log hexU64()/doubleBits() codec (doubles as 16-hex IEEE-754 bit
// patterns, a bit-exact round trip).

/** Cursor-based reader over a serializeState() blob. */
class BlobReader
{
  public:
    explicit BlobReader(const std::string& blob) : blob_(blob) {}

    /** Next space-delimited token; FatalError at end of blob. */
    std::string
    token()
    {
        while (pos_ < blob_.size() && blob_[pos_] == ' ') {
            ++pos_;
        }
        PRUNER_CHECK_MSG(pos_ < blob_.size(),
                         "truncated explorer state blob");
        const size_t start = pos_;
        while (pos_ < blob_.size() && blob_[pos_] != ' ') {
            ++pos_;
        }
        return blob_.substr(start, pos_ - start);
    }

    uint64_t
    u64()
    {
        const std::string t = token();
        PRUNER_CHECK_MSG(!t.empty() && t.size() <= 16,
                         "bad u64 token in explorer state blob");
        uint64_t v = 0;
        for (const char c : t) {
            int digit;
            if (c >= '0' && c <= '9') {
                digit = c - '0';
            } else if (c >= 'a' && c <= 'f') {
                digit = c - 'a' + 10;
            } else {
                PRUNER_FATAL("bad hex digit in explorer state blob");
            }
            v = (v << 4) | static_cast<uint64_t>(digit);
        }
        return v;
    }

    double
    f64()
    {
        return std::bit_cast<double>(u64());
    }

    /** Exactly @p n raw bytes (after one separating space). */
    std::string
    bytes(size_t n)
    {
        PRUNER_CHECK_MSG(pos_ < blob_.size() && blob_[pos_] == ' ',
                         "truncated explorer state blob");
        ++pos_;
        PRUNER_CHECK_MSG(pos_ + n <= blob_.size(),
                         "truncated explorer state blob");
        const size_t start = pos_;
        pos_ += n;
        return blob_.substr(start, n);
    }

    bool
    atEnd()
    {
        while (pos_ < blob_.size() && blob_[pos_] == ' ') {
            ++pos_;
        }
        return pos_ >= blob_.size();
    }

  private:
    const std::string& blob_;
    size_t pos_ = 0;
};

} // namespace

// ---------------------------------------------------------------------------
// ExplorerSpec
// ---------------------------------------------------------------------------

ExplorerSpec::ExplorerSpec(std::string key, const std::string& config)
    : key_(std::move(key)), config_(config)
{
    PRUNER_CHECK_MSG(config.find('\t') == std::string::npos &&
                         config.find('\n') == std::string::npos,
                     "explorer config must not contain tabs or newlines "
                     "(it is recorded as one session-log field)");
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
        PRUNER_CHECK_MSG(eq != std::string::npos && eq > 0,
                         "malformed explorer config pair '"
                             << pair << "' (expected key=value)");
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
    // Last occurrence wins, so a portfolio config can override a shared
    // default by appending.
    std::string out = fallback;
    for (const auto& [k, v] : pairs_) {
        if (k == name) {
            out = v;
        }
    }
    return out;
}

int64_t
ExplorerSpec::getInt(const std::string& name, int64_t fallback) const
{
    if (!has(name)) {
        return fallback;
    }
    return std::stoll(get(name, ""));
}

double
ExplorerSpec::getDouble(const std::string& name, double fallback) const
{
    if (!has(name)) {
        return fallback;
    }
    return std::stod(get(name, ""));
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

    std::unique_ptr<Explorer>
    clone() const override
    {
        return std::make_unique<EvolutionExplorer>(*this);
    }

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
// bayes: deterministic Bayesian optimization over the tiling space
// ---------------------------------------------------------------------------

/** Flatten a schedule into log2 knob space (tile factors are powers-ish
 *  of two, so log2 distances weight a 2x factor change evenly at every
 *  tile level). */
void
knobVector(const Schedule& sch, std::vector<double>& out)
{
    out.clear();
    for (const SpatialSplit& sp : sch.spatial()) {
        for (const int64_t f : sp.f) {
            out.push_back(std::log2(static_cast<double>(f)));
        }
    }
    for (const ReductionSplit& rd : sch.reduction()) {
        for (const int64_t f : rd.f) {
            out.push_back(std::log2(static_cast<double>(f)));
        }
    }
    out.push_back(std::log2(1.0 + static_cast<double>(sch.unroll())));
    out.push_back(std::log2(static_cast<double>(sch.vectorLen())));
    out.push_back(sch.cacheShared() ? 1.0 : 0.0);
}

double
normalCdf(double z)
{
    return 0.5 * std::erfc(-z / std::sqrt(2.0));
}

double
normalPdf(double z)
{
    return std::exp(-0.5 * z * z) / std::sqrt(2.0 * 3.141592653589793);
}

/**
 * Deterministic Bayesian optimization: the resident draft fitness
 * (ctx.score — PaCM/SA/the baseline's model) is the surrogate mean; the
 * posterior over an unevaluated candidate is a distance-weighted k-NN
 * estimate over the points evaluated so far, with an uncertainty that
 * grows with the candidate's log2-knob distance to the evaluated set.
 * Each iteration generates a wide structural pool (mutants of the
 * incumbent evaluated set + fresh samples), ranks it by expected
 * improvement over the best evaluated score, and spends surrogate
 * evaluations only on the top-EI slice — the acquisition decides where
 * the per-round budget (population x (iterations + 1), matching the
 * evolutionary draft) goes. Measured feedback arrives through observe():
 * the per-task measured incumbent joins the next call's initial design.
 */
class BayesExplorer final : public Explorer
{
  public:
    explicit BayesExplorer(const ExplorerSpec& spec)
        : Explorer(spec),
          topk_(static_cast<size_t>(spec.getInt("topk", 8))),
          sigma_rel_(spec.getDouble("sigma", 0.25)),
          knn_(static_cast<size_t>(spec.getInt("knn", 3)))
    {
        PRUNER_CHECK(topk_ > 0 && knn_ > 0 && sigma_rel_ >= 0.0);
    }

    std::unique_ptr<Explorer>
    clone() const override
    {
        return std::make_unique<BayesExplorer>(*this);
    }

    std::string
    serializeState() const override
    {
        std::vector<std::pair<uint64_t, const Incumbent*>> sorted;
        sorted.reserve(incumbents_.size());
        for (const auto& [hash, inc] : incumbents_) {
            sorted.emplace_back(hash, &inc);
        }
        std::sort(sorted.begin(), sorted.end());
        std::ostringstream out;
        out << "bayes1 " << hexU64(sorted.size());
        for (const auto& [hash, inc] : sorted) {
            const std::string sch = inc->sch.serialize();
            out << ' ' << hexU64(hash) << ' ' << doubleBits(inc->latency)
                << ' ' << hexU64(sch.size()) << ' ' << sch;
        }
        return out.str();
    }

    void
    restoreState(const std::string& blob) override
    {
        incumbents_.clear();
        if (blob.empty()) {
            return;
        }
        BlobReader in(blob);
        PRUNER_CHECK_MSG(in.token() == "bayes1",
                         "not a bayes explorer state blob");
        const uint64_t n = in.u64();
        for (uint64_t i = 0; i < n; ++i) {
            const uint64_t hash = in.u64();
            Incumbent inc;
            inc.latency = in.f64();
            inc.sch = Schedule::deserialize(in.bytes(in.u64()));
            incumbents_.emplace(hash, std::move(inc));
        }
    }

  protected:
    std::vector<ScoredSchedule>
    propose(ExplorerContext& ctx) override
    {
        const SubgraphTask& task = *ctx.task;
        const ScheduleSampler sampler(task, *ctx.device);
        const ScheduleMutator mutator(task, *ctx.device);
        Rng& rng = *ctx.rng;
        const size_t pop = std::max<size_t>(ctx.evo.population, 1);
        size_t evals = 0;

        struct Evaluated
        {
            Schedule sch;
            uint64_t hash;
            double mu;
            std::vector<double> knobs;
        };
        std::vector<Evaluated> evaluated;
        std::unordered_set<uint64_t> seen;
        std::vector<double> knob_scratch;

        auto evaluate = [&](std::vector<Schedule>& batch) {
            if (batch.empty()) {
                return;
            }
            const std::vector<double> mu =
                scoreChunked(ctx.score, batch, ctx.evo.score_pool,
                             ctx.evo.score_chunk);
            evals += batch.size();
            for (size_t i = 0; i < batch.size(); ++i) {
                knobVector(batch[i], knob_scratch);
                const uint64_t h = batch[i].hash();
                evaluated.push_back(
                    {std::move(batch[i]), h, mu[i], knob_scratch});
            }
            batch.clear();
        };

        // Initial design: incumbents (caller seeds + the measured best
        // this explorer observed) then random space-filling samples.
        std::vector<Schedule> init;
        auto try_seed = [&](const Schedule& sch) {
            Schedule copy = sch;
            if (!sampler.repair(copy)) {
                return;
            }
            if (!seen.insert(copy.hash()).second) {
                return;
            }
            init.push_back(std::move(copy));
        };
        for (const Schedule& seed : *ctx.seeds) {
            try_seed(seed);
        }
        if (const auto it = incumbents_.find(task.hash());
            it != incumbents_.end()) {
            try_seed(it->second.sch);
        }
        for (Schedule& sch : sampler.sampleMany(rng, pop - std::min(
                                                          pop, init.size()))) {
            if (seen.insert(sch.hash()).second) {
                init.push_back(std::move(sch));
            }
        }
        evaluate(init);

        const size_t dim =
            evaluated.empty() ? 1 : evaluated.front().knobs.size();
        for (int iter = 0; iter < ctx.evo.iterations; ++iter) {
            if (evaluated.empty()) {
                break;
            }
            // Incumbent statistics of the evaluated set.
            double best_mu = -kInf;
            double worst_mu = kInf;
            for (const Evaluated& e : evaluated) {
                best_mu = std::max(best_mu, e.mu);
                worst_mu = std::min(worst_mu, e.mu);
            }
            const double spread = std::max(best_mu - worst_mu, 1e-12);

            // Structural proposals: mutants of the current top-mu set
            // plus fresh random samples (exploration floor).
            std::vector<size_t> order(evaluated.size());
            for (size_t i = 0; i < order.size(); ++i) {
                order[i] = i;
            }
            std::sort(order.begin(), order.end(),
                      [&](size_t a, size_t b) {
                          if (evaluated[a].mu != evaluated[b].mu) {
                              return evaluated[a].mu > evaluated[b].mu;
                          }
                          return evaluated[a].hash < evaluated[b].hash;
                      });
            const size_t n_parents = std::min(topk_, order.size());
            const size_t branch = std::max<size_t>(1, 2 * pop / topk_);
            std::vector<Schedule> pool;
            std::unordered_set<uint64_t> in_pool;
            auto try_pool = [&](Schedule&& sch) {
                const uint64_t h = sch.hash();
                if (seen.count(h) != 0 || !in_pool.insert(h).second) {
                    return;
                }
                pool.push_back(std::move(sch));
            };
            for (size_t p = 0; p < n_parents; ++p) {
                const Schedule& parent = evaluated[order[p]].sch;
                for (size_t b = 0; b < branch; ++b) {
                    try_pool(mutator.mutate(parent, rng));
                }
            }
            for (Schedule& sch : sampler.sampleMany(rng, pop / 4)) {
                try_pool(std::move(sch));
            }
            if (pool.empty()) {
                break; // space exhausted around the incumbents
            }

            // Acquisition: EI from the k-NN posterior (no surrogate
            // calls yet — the surrogate budget is spent only on the
            // selected slice below).
            struct Scored
            {
                size_t index;
                uint64_t hash;
                double ei;
            };
            std::vector<Scored> acquisition;
            acquisition.reserve(pool.size());
            std::vector<std::pair<double, double>> nearest; // (d2, mu)
            for (size_t i = 0; i < pool.size(); ++i) {
                knobVector(pool[i], knob_scratch);
                nearest.clear();
                double min_d2 = kInf;
                for (const Evaluated& e : evaluated) {
                    double d2 = 0.0;
                    for (size_t j = 0; j < knob_scratch.size(); ++j) {
                        const double d = knob_scratch[j] - e.knobs[j];
                        d2 += d * d;
                    }
                    min_d2 = std::min(min_d2, d2);
                    nearest.emplace_back(d2, e.mu);
                    std::push_heap(nearest.begin(), nearest.end());
                    if (nearest.size() > knn_) {
                        std::pop_heap(nearest.begin(), nearest.end());
                        nearest.pop_back();
                    }
                }
                double wsum = 0.0;
                double musum = 0.0;
                for (const auto& [d2, mu] : nearest) {
                    const double w = 1.0 / (d2 + 1e-9);
                    wsum += w;
                    musum += w * mu;
                }
                const double mean = musum / wsum;
                const double novelty = std::min(
                    1.0,
                    std::sqrt(min_d2 / static_cast<double>(dim)));
                const double sigma = sigma_rel_ * spread * novelty;
                double ei;
                if (sigma <= 0.0) {
                    ei = std::max(0.0, mean - best_mu);
                } else {
                    const double z = (mean - best_mu) / sigma;
                    ei = (mean - best_mu) * normalCdf(z) +
                         sigma * normalPdf(z);
                }
                acquisition.push_back({i, pool[i].hash(), ei});
            }
            std::sort(acquisition.begin(), acquisition.end(),
                      [](const Scored& a, const Scored& b) {
                          if (a.ei != b.ei) {
                              return a.ei > b.ei;
                          }
                          return a.hash < b.hash; // deterministic ties
                      });

            std::vector<Schedule> chosen;
            chosen.reserve(std::min(pop, acquisition.size()));
            for (size_t i = 0; i < acquisition.size() && chosen.size() < pop;
                 ++i) {
                Schedule& sch = pool[acquisition[i].index];
                seen.insert(acquisition[i].hash);
                chosen.push_back(std::move(sch));
            }
            evaluate(chosen);
        }

        // The verify stage wants the surrogate's ranking, best first.
        std::sort(evaluated.begin(), evaluated.end(),
                  [](const Evaluated& a, const Evaluated& b) {
                      if (a.mu != b.mu) {
                          return a.mu > b.mu;
                      }
                      return a.hash < b.hash;
                  });
        std::vector<ScoredSchedule> out;
        out.reserve(std::min(evaluated.size(), ctx.evo.out_size));
        for (Evaluated& e : evaluated) {
            if (out.size() >= ctx.evo.out_size) {
                break;
            }
            out.push_back({std::move(e.sch), e.mu});
        }
        if (ctx.n_evaluated != nullptr) {
            *ctx.n_evaluated = evals;
        }
        return out;
    }

    void
    onObserve(const SubgraphTask& task, const DeviceSpec&,
              std::span<const Schedule> measured,
              std::span<const double> latencies) override
    {
        Incumbent& inc = incumbents_[task.hash()];
        for (size_t i = 0; i < measured.size(); ++i) {
            if (std::isfinite(latencies[i]) &&
                latencies[i] < inc.latency) {
                inc.latency = latencies[i];
                inc.sch = measured[i];
            }
        }
    }

  private:
    struct Incumbent
    {
        Schedule sch;
        double latency = kInf;
    };

    size_t topk_;
    double sigma_rel_;
    size_t knn_;
    /** Per-task measured incumbent (keyed by task hash). */
    std::unordered_map<uint64_t, Incumbent> incumbents_;
};

// ---------------------------------------------------------------------------
// gbt: boosted-trees surrogate trained online from measured records
// ---------------------------------------------------------------------------

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
          window_(static_cast<size_t>(spec.getInt("window", 1024))),
          min_records_(static_cast<size_t>(spec.getInt("min_records", 48)))
    {
        GbtConfig config;
        config.n_trees = static_cast<int>(
            spec.getInt("trees", config.n_trees));
        config.max_depth = static_cast<int>(
            spec.getInt("depth", config.max_depth));
        config.learning_rate =
            spec.getDouble("lr", config.learning_rate);
        config.min_leaf = static_cast<size_t>(
            spec.getInt("min_leaf", static_cast<int64_t>(config.min_leaf)));
        model_ = GbtModel(config);
        PRUNER_CHECK(window_ >= min_records_ && min_records_ > 0);
    }

    std::unique_ptr<Explorer>
    clone() const override
    {
        return std::make_unique<GbtExplorer>(*this);
    }

    std::string
    serializeState() const override
    {
        // The fitted trees are a deterministic pure function of the
        // training window, so only the window persists; restore marks the
        // model dirty and the next propose refits to identical trees.
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
        BlobReader in(blob);
        PRUNER_CHECK_MSG(in.token() == "gbt1",
                         "not a gbt explorer state blob");
        const uint64_t n = in.u64();
        targets_.reserve(n);
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

// ---------------------------------------------------------------------------
// portfolio: race registered explorers per task, commit to the winner
// ---------------------------------------------------------------------------

/**
 * Meta-explorer racing its arms on the shared per-round trial budget:
 * each draft call for a task goes to exactly one arm (round-robin,
 * race_rounds consecutive calls per arm), so racing splits a task's
 * budget across strategies instead of multiplying trials. After every
 * arm had its race window the portfolio commits to the arm with the best
 * measured latency and routes all further drafts to it. While the race
 * runs, TaskScheduler's gain ranking does the inter-task arbitration it
 * always does: tasks whose current arm improves keep earning rounds, so
 * a strong arm pulls budget toward its task naturally.
 */
class PortfolioExplorer final : public Explorer
{
  public:
    PortfolioExplorer(const ExplorerSpec& spec,
                      const ExplorerRegistry& registry)
        : Explorer(spec),
          race_rounds_(
              static_cast<size_t>(spec.getInt("race_rounds", 2)))
    {
        PRUNER_CHECK(race_rounds_ > 0);
        const std::string arms = spec.get("arms", "evolution+bayes+gbt");
        size_t pos = 0;
        while (pos <= arms.size()) {
            size_t sep = arms.find('+', pos);
            if (sep == std::string::npos) {
                sep = arms.size();
            }
            const std::string arm = arms.substr(pos, sep - pos);
            pos = sep + 1;
            if (arm.empty()) {
                continue;
            }
            PRUNER_CHECK_MSG(arm != "portfolio",
                             "portfolio arms cannot nest portfolios");
            arms_.push_back(registry.make(arm, spec.config()));
        }
        PRUNER_CHECK_MSG(!arms_.empty(),
                         "portfolio needs at least one arm "
                         "(arms=evolution+bayes+gbt)");
    }

    PortfolioExplorer(const PortfolioExplorer& other)
        : Explorer(other),
          race_rounds_(other.race_rounds_),
          state_(other.state_)
    {
        arms_.reserve(other.arms_.size());
        for (const auto& arm : other.arms_) {
            arms_.push_back(arm->clone());
        }
    }

    std::unique_ptr<Explorer>
    clone() const override
    {
        return std::make_unique<PortfolioExplorer>(*this);
    }

    std::string
    serializeState() const override
    {
        std::vector<std::pair<uint64_t, const TaskState*>> sorted;
        sorted.reserve(state_.size());
        for (const auto& [hash, st] : state_) {
            sorted.emplace_back(hash, &st);
        }
        std::sort(sorted.begin(), sorted.end());
        std::ostringstream out;
        out << "portfolio1 " << hexU64(arms_.size()) << ' '
            << hexU64(sorted.size());
        for (const auto& [hash, st] : sorted) {
            out << ' ' << hexU64(hash) << ' ' << hexU64(st->calls) << ' '
                << hexU64(st->last_arm) << ' ' << hexU64(st->winner);
            for (size_t a = 0; a < arms_.size(); ++a) {
                out << ' '
                    << doubleBits(a < st->best.size() ? st->best[a] : kInf);
            }
        }
        // Nested arm blobs, length-prefixed (they contain spaces).
        for (const auto& arm : arms_) {
            const std::string nested = arm->serializeState();
            out << ' ' << hexU64(nested.size()) << ' ' << nested;
        }
        return out.str();
    }

    void
    restoreState(const std::string& blob) override
    {
        state_.clear();
        if (blob.empty()) {
            return;
        }
        BlobReader in(blob);
        PRUNER_CHECK_MSG(in.token() == "portfolio1",
                         "not a portfolio explorer state blob");
        PRUNER_CHECK_MSG(in.u64() == arms_.size(),
                         "portfolio state blob has a different arm count");
        const uint64_t n = in.u64();
        for (uint64_t i = 0; i < n; ++i) {
            const uint64_t hash = in.u64();
            TaskState st;
            st.calls = static_cast<size_t>(in.u64());
            st.last_arm = static_cast<size_t>(in.u64());
            st.winner = static_cast<size_t>(in.u64());
            st.best.reserve(arms_.size());
            for (size_t a = 0; a < arms_.size(); ++a) {
                st.best.push_back(in.f64());
            }
            state_.emplace(hash, std::move(st));
        }
        for (const auto& arm : arms_) {
            arm->restoreState(in.bytes(in.u64()));
        }
    }

    void
    bindMetrics(obs::MetricsRegistry* metrics) override
    {
        Explorer::bindMetrics(metrics);
        for (const auto& arm : arms_) {
            arm->bindMetrics(metrics);
        }
    }

  protected:
    std::vector<ScoredSchedule>
    propose(ExplorerContext& ctx) override
    {
        TaskState& st = stateFor(ctx.task->hash());
        size_t arm;
        if (st.winner != kNoArm) {
            arm = st.winner;
        } else if (st.calls < arms_.size() * race_rounds_) {
            arm = st.calls / race_rounds_; // race phase: rotate arms
        } else {
            st.winner = pickWinner(st);
            arm = st.winner;
            if (metrics_ != nullptr) {
                metrics_
                    ->counter("portfolio_winner_" + arms_[arm]->key() +
                              "_total")
                    ->add();
            }
        }
        st.last_arm = arm;
        ++st.calls;
        if (metrics_ != nullptr) {
            metrics_
                ->counter("portfolio_arm_" + arms_[arm]->key() +
                          "_calls_total")
                ->add();
        }
        return arms_[arm]->proposeBatch(ctx);
    }

    void
    onObserve(const SubgraphTask& task, const DeviceSpec& device,
              std::span<const Schedule> measured,
              std::span<const double> latencies) override
    {
        TaskState& st = stateFor(task.hash());
        if (st.last_arm == kNoArm) {
            // Warm-started records predate the race: shared knowledge,
            // credited to no arm.
            for (const auto& arm : arms_) {
                arm->observe(task, device, measured, latencies);
            }
            return;
        }
        double& best = st.best[st.last_arm];
        for (const double latency : latencies) {
            if (std::isfinite(latency)) {
                best = std::min(best, latency);
            }
        }
        arms_[st.last_arm]->observe(task, device, measured, latencies);
    }

  private:
    static constexpr size_t kNoArm = static_cast<size_t>(-1);

    struct TaskState
    {
        size_t calls = 0;
        size_t last_arm = kNoArm;
        size_t winner = kNoArm;
        std::vector<double> best; ///< best measured latency per arm
    };

    TaskState&
    stateFor(uint64_t task_hash)
    {
        TaskState& st = state_[task_hash];
        if (st.best.empty()) {
            st.best.assign(arms_.size(), kInf);
        }
        return st;
    }

    size_t
    pickWinner(const TaskState& st) const
    {
        size_t winner = 0;
        for (size_t a = 1; a < arms_.size(); ++a) {
            if (st.best[a] < st.best[winner]) {
                winner = a; // strict <: ties keep the earliest arm
            }
        }
        return winner;
    }

    size_t race_rounds_;
    std::vector<std::unique_ptr<Explorer>> arms_;
    std::unordered_map<uint64_t, TaskState> state_;
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

// ---------------------------------------------------------------------------
// ExplorerRegistry
// ---------------------------------------------------------------------------

ExplorerRegistry::ExplorerRegistry()
{
    factories_["evolution"] = [](const ExplorerSpec& spec) {
        return std::make_unique<EvolutionExplorer>(spec);
    };
    factories_["bayes"] = [](const ExplorerSpec& spec) {
        return std::make_unique<BayesExplorer>(spec);
    };
    factories_["gbt"] = [](const ExplorerSpec& spec) {
        return std::make_unique<GbtExplorer>(spec);
    };
    factories_["portfolio"] = [](const ExplorerSpec& spec) {
        return std::make_unique<PortfolioExplorer>(spec,
                                                   instance());
    };
}

ExplorerRegistry&
ExplorerRegistry::instance()
{
    static ExplorerRegistry registry;
    return registry;
}

void
ExplorerRegistry::registerFactory(const std::string& key, Factory factory)
{
    PRUNER_CHECK(!key.empty() && factory != nullptr);
    std::lock_guard<std::mutex> lock(mutex_);
    factories_[key] = std::move(factory);
}

std::unique_ptr<Explorer>
ExplorerRegistry::make(const std::string& key,
                       const std::string& config) const
{
    const std::string resolved = key.empty() ? "evolution" : key;
    Factory factory;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = factories_.find(resolved);
        if (it == factories_.end()) {
            std::string known;
            for (const auto& [k, f] : factories_) {
                known += known.empty() ? k : ", " + k;
            }
            PRUNER_FATAL("unknown explorer '" << resolved
                                              << "' (registered: " << known
                                              << ")");
        }
        factory = it->second;
    }
    // Invoke outside the lock: a portfolio factory re-enters make() for
    // its arms.
    return factory(ExplorerSpec(resolved, config));
}

bool
ExplorerRegistry::contains(const std::string& key) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return factories_.count(key) != 0;
}

std::vector<std::string>
ExplorerRegistry::keys() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [k, f] : factories_) {
        out.push_back(k);
    }
    return out;
}

} // namespace pruner
