#include "cost/async_trainer.hpp"

#include "support/logging.hpp"

namespace pruner {

AsyncModelTrainer::AsyncModelTrainer(CostModel& front, ThreadPool& pool)
    : front_(&front), pool_(&pool), back_(front.clone())
{
}

AsyncModelTrainer::~AsyncModelTrainer()
{
    if (inflight_.valid()) {
        inflight_.wait();
    }
    if (tracer_ != nullptr && overlap_span_ != 0 && clock_ != nullptr) {
        tracer_->end(overlap_span_, clock_->now());
    }
}

void
AsyncModelTrainer::bindObs(obs::Tracer* tracer, const SimClock* clock,
                           obs::MetricsRegistry* metrics)
{
    tracer_ = tracer;
    clock_ = clock;
    updates_counter_ =
        metrics != nullptr
            ? metrics->counter("async_updates_total",
                               obs::MetricChannel::Execution)
            : nullptr;
}

void
AsyncModelTrainer::beginUpdate(std::vector<MeasuredRecord> window,
                               int epochs)
{
    PRUNER_CHECK(!inflight_.valid());
    // The window snapshot is owned by the job: the caller's record db can
    // keep growing while the update trains.
    auto snapshot = std::make_shared<std::vector<MeasuredRecord>>(
        std::move(window));
    ++launched_;
    obs::counterAdd(updates_counter_);
    if (tracer_ != nullptr && clock_ != nullptr) {
        overlap_span_ =
            tracer_->begin(obs::TraceTrack::Trainer, "async_update",
                           "train", clock_->now(),
                           obs::TraceChannel::Execution);
        tracer_->argU64(overlap_span_, "records", snapshot->size());
        tracer_->argU64(overlap_span_, "epochs",
                        static_cast<uint64_t>(epochs));
    }
    inflight_ = pool_->submit(
        [this, snapshot, epochs]() { back_->train(*snapshot, epochs); });
}

bool
AsyncModelTrainer::install()
{
    if (!inflight_.valid()) {
        return false;
    }
    // get() waits for the job and rethrows its exception; once it returns
    // the back model is idle, so its weights are read without a lock.
    inflight_.get();
    front_->setParams(back_->getParams());
    if (tracer_ != nullptr && overlap_span_ != 0 && clock_ != nullptr) {
        tracer_->end(overlap_span_, clock_->now());
        overlap_span_ = 0;
    }
    return true;
}

} // namespace pruner
