#include "obs/tune_report.hpp"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <sstream>

namespace pruner::obs {

namespace {

std::string
seconds(double s)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.2f", s);
    return buf;
}

std::string
latency(double s)
{
    if (!std::isfinite(s)) {
        return "inf";
    }
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.4g", s * 1e3);
    return std::string(buf) + " ms";
}

std::string
pct(double part, double total)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%5.1f%%",
                  total > 0.0 ? 100.0 * part / total : 0.0);
    return buf;
}

std::string
taskList(const std::vector<size_t>& tasks)
{
    std::string out;
    for (size_t i = 0; i < tasks.size(); ++i) {
        if (i != 0) {
            out += ',';
        }
        out += std::to_string(tasks[i]);
    }
    return out;
}

/** Microsecond bucket bound as a compact human unit (100us, 1ms, 10s). */
std::string
boundLabel(uint64_t us)
{
    char buf[40];
    if (us >= 1'000'000) {
        std::snprintf(buf, sizeof(buf), "%" PRIu64 "s", us / 1'000'000);
    } else if (us >= 1'000) {
        std::snprintf(buf, sizeof(buf), "%" PRIu64 "ms", us / 1'000);
    } else {
        std::snprintf(buf, sizeof(buf), "%" PRIu64 "us", us);
    }
    return buf;
}

void
renderStageHistogram(std::ostringstream& out, const char* stage,
                     const MetricsSnapshot::HistogramValue& h)
{
    char head[120];
    std::snprintf(head, sizeof(head),
                  "  %-6s rounds %-4" PRIu64 " mean %s/round:", stage,
                  h.count,
                  seconds(h.count > 0
                              ? static_cast<double>(h.sum) / 1e6 /
                                    static_cast<double>(h.count)
                              : 0.0)
                      .c_str());
    out << head;
    for (size_t i = 0; i < h.bucket_counts.size(); ++i) {
        if (h.bucket_counts[i] == 0) {
            continue;
        }
        const std::string label = i < h.bounds.size()
                                      ? "le " + boundLabel(h.bounds[i])
                                      : std::string("le +Inf");
        out << "  [" << label << "] " << h.bucket_counts[i];
    }
    out << "\n";
}

} // namespace

std::string
tuneReport(const TuneResult& result)
{
    std::ostringstream out;
    out << "== tune report: " << result.policy << " ==\n";
    if (result.failed) {
        out << "FAILED: " << result.failure_reason << "\n";
    }
    out << "final latency     " << latency(result.final_latency) << "\n";
    out << "simulated time    " << seconds(result.total_time_s) << " s\n";
    const double total = result.total_time_s;
    out << "  exploration     " << seconds(result.exploration_s) << " s  "
        << pct(result.exploration_s, total) << "\n";
    out << "  training        " << seconds(result.training_s) << " s  "
        << pct(result.training_s, total) << "\n";
    out << "  measurement     " << seconds(result.measurement_s) << " s  "
        << pct(result.measurement_s, total) << "\n";
    out << "  compile         " << seconds(result.compile_s) << " s  "
        << pct(result.compile_s, total) << "\n";
    out << "trials            " << result.trials << " ("
        << result.failed_trials << " failed, " << result.cache_hits
        << " cache hits, " << result.simulated_trials << " simulated, "
        << result.injected_faults << " injected faults)\n";
    if (result.warm_records > 0) {
        out << "warm-start        " << result.warm_records
            << " records replayed from the artifact db\n";
    }
    if (!result.round_stats.empty()) {
        out << "per-round pipeline (" << result.round_stats.size()
            << " rounds):\n";
        out << "  round tasks    draft meas trials hits  sim "
               "expl_s train_s meas_s comp_s best\n";
        for (const RoundStats& r : result.round_stats) {
            char line[200];
            std::snprintf(line, sizeof(line),
                          "  %5d %-8s %5" PRIu64 " %4" PRIu64 " %6" PRIu64
                          " %4" PRIu64 " %4" PRIu64
                          " %6.1f %7.1f %6.1f %6.1f %s",
                          r.round, taskList(r.tasks).c_str(), r.drafted,
                          r.measured, r.trials, r.cache_hits,
                          r.simulated_trials, r.exploration_s, r.training_s,
                          r.measurement_s, r.compile_s,
                          latency(r.best_latency).c_str());
            out << line << "\n";
        }
    }
    return out.str();
}

std::string
tuneReport(const TuneResult& result, const MetricsSnapshot& metrics)
{
    std::ostringstream out;
    out << tuneReport(result);
    static const struct
    {
        const char* stage;
        const char* name;
    } kStages[] = {
        {"draft", "round_draft_time_us"},
        {"verify", "round_verify_time_us"},
        {"train", "round_train_time_us"},
    };
    bool header = false;
    for (const auto& s : kStages) {
        for (const MetricsSnapshot::HistogramValue& h : metrics.histograms) {
            if (h.name != s.name || h.count == 0) {
                continue;
            }
            if (!header) {
                out << "per-stage sim-time distributions:\n";
                header = true;
            }
            renderStageHistogram(out, s.stage, h);
        }
    }

    // Kernel-tier demotions: a GEMM tier the CPU supports failed its
    // startup byte-identity self-check; if it was a kernel's widest tier,
    // the engine silently fell back to a slower one. Always worth a loud
    // line — it usually means a toolchain/codegen change (e.g. FMA
    // contraction) broke a vector kernel's bit-exactness contract on this
    // host.
    for (const MetricsSnapshot::CounterValue& c : metrics.counters) {
        if (c.name == "kernel_tier_demotions_total" && c.value > 0) {
            out << "WARNING: " << c.value
                << " GEMM kernel tier(s) demoted by the startup "
                   "self-check — a kernel whose widest tier failed fell "
                   "back to a slower tier (see nn_kernel_* labels in "
                   "/metrics)\n";
        }
    }
    return out.str();
}

} // namespace pruner::obs
