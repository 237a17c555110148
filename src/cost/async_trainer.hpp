#pragma once

/**
 * @file async_trainer.hpp
 * Asynchronous online cost-model training: overlap the PaCM/MLP update of
 * round r with the draft stage of round r+1.
 *
 * The trainer owns a back-buffer clone of the policy's front model. When a
 * round's measurements are in, the policy hands the trainer the training
 * window; the update runs as a job on the shared verify pool against the
 * clone while the main loop drafts the next round's candidates (Pruner's
 * LSE draft stage never touches the learned model, so the overlap is
 * free). Before the next verify pass the policy calls install(), which
 * waits for the in-flight job and only then copies the back clone's
 * weights into the front model — one job is in flight at a time and
 * nothing reads the clone while it trains, so the draft and verify stages
 * can never observe torn weights.
 *
 * The update job simply calls the model's train(), so it rides the
 * batched segment-aware training engine (one GEMM per LambdaRank group,
 * forward and backward) — and because batched weights are byte-identical
 * to the per-record trainReference() path, the async==sync equality
 * proofs below are unaffected by the batched trainer.
 *
 * Determinism: the back clone inherits the front model's full state
 * (weights and RNG lineage) and is the only model that ever trains, while
 * the front model is a read-only prediction mirror refreshed at install().
 * For the plain online fine-tune path the visible weight sequence is
 * therefore identical to synchronous training — async_training changes
 * wall-clock behaviour, never tuning results. The front model must not be
 * trained elsewhere while a trainer is attached (MoA's Siamese update is
 * inherently sequential and stays synchronous).
 */

#include <future>
#include <memory>
#include <vector>

#include "cost/cost_model.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/thread_pool.hpp"

namespace pruner {

/** Back-buffer asynchronous trainer for one tuning run. */
class AsyncModelTrainer
{
  public:
    /** @param front  the model the search loop predicts with (borrowed)
     *  @param pool   worker pool the update jobs run on (borrowed) */
    AsyncModelTrainer(CostModel& front, ThreadPool& pool);

    /** Drains any in-flight update. Its weights are dropped — the run is
     *  over and nothing would predict with them. */
    ~AsyncModelTrainer();

    AsyncModelTrainer(const AsyncModelTrainer&) = delete;
    AsyncModelTrainer& operator=(const AsyncModelTrainer&) = delete;

    /** Launch one online update over a snapshot of the training window.
     *  The previous update must have been install()ed first (one job in
     *  flight at a time). */
    void beginUpdate(std::vector<MeasuredRecord> window, int epochs);

    /** Round-boundary barrier: wait for the in-flight update (if any) and
     *  install its weights into the front model. Must run before the
     *  round's first prediction; rethrows a training exception. Returns
     *  true if an update was drained. */
    bool install();

    size_t updatesLaunched() const { return launched_; }
    /** The back-buffer clone that actually trains. install() copies its
     *  weights to the front model but not its RNG lineage — checkpointing
     *  reads the training RNG from here (after an install() barrier, with
     *  no job in flight). */
    CostModel* backModel() { return back_.get(); }

    /** Attach observability sinks (all borrowed, any may be nullptr).
     *  Everything here is Execution channel: the trainer only exists when
     *  the run has a pool, so its spans/counters are worker-count
     *  dependent by construction and never enter the deterministic
     *  exposition. The "async_update" span on the trainer track covers
     *  beginUpdate() -> install() — the overlap window — in sim time. */
    void bindObs(obs::Tracer* tracer, const SimClock* clock,
                 obs::MetricsRegistry* metrics);

  private:
    CostModel* front_;
    ThreadPool* pool_;
    std::unique_ptr<CostModel> back_;
    std::future<void> inflight_;
    size_t launched_ = 0;
    obs::Tracer* tracer_ = nullptr;
    const SimClock* clock_ = nullptr;
    obs::Counter* updates_counter_ = nullptr;
    obs::Tracer::SpanHandle overlap_span_ = 0;
};

} // namespace pruner
