#pragma once

/**
 * @file explorer.hpp
 * Draft-stage explorers.
 *
 * The draft-then-verify mechanism is agnostic to *how* draft candidates
 * are proposed: the paper's evolutionary loop is the default strategy,
 * and a boosted-trees surrogate walks the same space with a fitness it
 * learns online from measurements. An Explorer abstracts the draft stage
 * behind one call:
 *
 *   proposeBatch(ctx) -> ranked candidate population
 *   observe(measured records) -> online state update
 *
 * Determinism contract (repo-wide discipline):
 *  - An explorer owns NO Rng. Every random draw flows through
 *    ExplorerContext::rng — the tuning loop's main generator — so the
 *    draft stage stays on the run's single RNG lineage and the async
 *    model trainer (which clones the cost model, never the explorer) can
 *    overlap training without perturbing exploration.
 *  - proposeBatch and observe run on the calling thread at deterministic
 *    points of the tuning loop; any pool fan-out must go through
 *    scoreChunked (values identical to serial by construction).
 *  - No wall-clock, no global mutable state: the same call sequence
 *    produces byte-identical proposals at any worker count.
 *
 * The default "evolution" explorer wraps EvolutionarySearch verbatim and
 * is byte-identical to the pre-interface draft loops (asserted against
 * frozen pre-refactor golden sessions in tests/test_explorer.cpp).
 */

#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "search/evolution.hpp"

namespace pruner {

namespace obs {
class MetricsRegistry;
} // namespace obs

/**
 * Everything a draft call needs, borrowed from the tuning loop:
 * the task and device, the incumbent seeds, the resident draft fitness
 * (Symbol-Analyzer score in Pruner's LSE, the learned cost model in the
 * Ansor-style loop), the loop's Rng, and the evolution-equivalent search
 * budget (population x (iterations + 1) fitness evaluations) every
 * explorer honours so strategies stay comparable per round.
 */
struct ExplorerContext
{
    const SubgraphTask* task = nullptr;
    const DeviceSpec* device = nullptr;
    /** Measured incumbents injected into the search (may be empty). */
    const std::vector<Schedule>* seeds = nullptr;
    /** Resident draft fitness (higher = predicted faster). Must be
     *  reentrant; explorers evaluate it through scoreChunked. */
    ScoreFn score;
    /** The tuning loop's generator (never owned by the explorer). */
    Rng* rng = nullptr;
    /** Out: fitness evaluations performed (feeds the SimClock charge). */
    size_t* n_evaluated = nullptr;
    /** Search budget, fan-out pool, chunking, and metrics sink — the
     *  same knobs the evolutionary draft ran on. */
    EvolutionConfig evo;
};

/** Parsed explorer options: "k1=v1,k2=v2" (no tabs — the string is
 *  recorded as one field of the session log's policycfg line). Explorers
 *  ignore keys they do not read. The string also arrives from a replayed
 *  session log, so every malformed value is the caller's error: a
 *  FatalError that names the option. */
class ExplorerSpec
{
  public:
    ExplorerSpec() = default;
    /** @throws FatalError on a malformed pair (no '=') or a tab. */
    ExplorerSpec(std::string key, const std::string& config);

    const std::string& key() const { return key_; }
    /** The verbatim config string ("" when none). */
    const std::string& config() const { return config_; }

    bool has(const std::string& name) const;
    std::string get(const std::string& name,
                    const std::string& fallback) const;
    /** @p name's value parsed whole (std::from_chars), @p fallback when
     *  absent. @throws FatalError on trailing text, a non-number or an
     *  out-of-range value. */
    int64_t getInt(const std::string& name, int64_t fallback) const;
    /** As getInt, for a floating-point value. */
    double getDouble(const std::string& name, double fallback) const;

  private:
    std::string key_;
    std::string config_;
    std::vector<std::pair<std::string, std::string>> pairs_;
};

/** Abstract draft-stage explorer. See the file comment for the
 *  determinism contract. */
class Explorer
{
  public:
    explicit Explorer(ExplorerSpec spec) : spec_(std::move(spec)) {}
    virtual ~Explorer() = default;

    /** Explorer key ("evolution" or "gbt"). */
    const std::string& key() const { return spec_.key(); }
    const ExplorerSpec& spec() const { return spec_; }

    /**
     * Draft one candidate population for ctx.task, best first (up to
     * ctx.evo.out_size candidates). Consumes *ctx.rng; counts fitness
     * evaluations into *ctx.n_evaluated and the per-explorer counters
     * (explorer_<key>_*_total) of the bound registry.
     */
    std::vector<ScoredSchedule> proposeBatch(ExplorerContext& ctx);

    /**
     * Feed measured outcomes back (called after every measurement batch
     * and for warm-started records; +inf latencies are failed trials).
     * Updates online state (the gbt surrogate's training window). No-op
     * by default.
     */
    void observe(const SubgraphTask& task, const DeviceSpec& device,
                 std::span<const Schedule> measured,
                 std::span<const double> latencies);

    /** Serialize all learned state into an opaque printable blob (no
     *  newlines; doubles as IEEE-754 bit patterns) for checkpointing.
     *  Stateless explorers return "". The encoding is canonical: two
     *  explorers with identical learned state serialize identically. */
    virtual std::string serializeState() const { return ""; }

    /** Restore a blob produced by serializeState() of an explorer built
     *  from the same spec; subsequent proposals match the original's.
     *  @throws FatalError on a malformed blob. */
    virtual void restoreState(const std::string& blob)
    {
        if (!blob.empty()) {
            PRUNER_FATAL("explorer '" << key()
                                      << "' cannot restore state: " << blob);
        }
    }

    /** Bind the explorer_<key>_*_total counters to @p metrics (nullptr
     *  unbinds). Pure accounting — never changes proposals. */
    void bindMetrics(obs::MetricsRegistry* metrics) { metrics_ = metrics; }

  protected:
    /** Strategy hook behind proposeBatch's accounting wrapper. */
    virtual std::vector<ScoredSchedule> propose(ExplorerContext& ctx) = 0;
    /** Strategy hook behind observe's accounting wrapper. */
    virtual void onObserve(const SubgraphTask& task,
                           const DeviceSpec& device,
                           std::span<const Schedule> measured,
                           std::span<const double> latencies);

    ExplorerSpec spec_;
    obs::MetricsRegistry* metrics_ = nullptr;
};

struct MeasuredRecord;

/** Replay warm-started records into @p explorer in insertion order,
 *  batched by consecutive same-task runs (the order TuningRecordDb
 *  preserves). Gives a stateful explorer (gbt) the same offline knowledge
 *  a warm-started cost model gets. */
void observeWarmRecords(Explorer& explorer, const DeviceSpec& device,
                        const std::vector<MeasuredRecord>& records);

/** Build the explorer named @p key: "" or "evolution" is the default
 *  evolutionary draft, "gbt" the boosted-trees surrogate. @p config is
 *  the comma-separated option string (see ExplorerSpec).
 *  @throws FatalError on any other key, naming the two valid ones, and
 *  on an option the explorer cannot use (gbt: counts must be in
 *  [1, INT_MAX], lr finite and positive, window >= min_records). */
std::unique_ptr<Explorer> makeExplorer(const std::string& key,
                                       const std::string& config = "");

} // namespace pruner
