/**
 * Figure 7: search-time comparison on A100 — how long Pruner /
 * MoA-Pruner take to reach the best performance of each baseline's entire
 * search (Ansor, TenSetMLP, TLP). Reported as speedups (baseline total
 * time / Pruner time-to-match). Paper averages: ~2.6x over Ansor online,
 * ~4.7x over TenSetMLP, ~4x over TLP. A cell Pruner reaches at its first
 * curve point prints as a lower bound ("≥"), one it never reaches as "not
 * reached"; the geomeans cover measured cells only.
 */

#include <cstdio>

#include "baselines/ansor.hpp"
#include "baselines/tlp.hpp"
#include "bench_common.hpp"
#include "core/pruner_tuner.hpp"

using namespace pruner;

int main()
{
    const auto dev = DeviceSpec::a100();
    const int rounds = 16;
    bench::printScalingNote(rounds, "200 rounds (2,000 trials)");

    const std::vector<std::string> names{"R50",   "WR-50", "Mb-V2",
                                         "D-121", "ViT",   "B-base",
                                         "B-tiny"};
    Table table("Figure 7 — time for (MoA-)Pruner to reach each "
                "baseline's best, A100 (speedup over baseline total)");
    table.setHeader({"Workload", "vs Ansor (Pruner)", "vs Ansor (MoA)",
                     "vs TenSetMLP", "vs TLP"});

    std::vector<std::vector<std::string>> rows(names.size());
    std::vector<bench::SearchSpeedup> sp_ansor, sp_moa, sp_tenset, sp_tlp;

    for (size_t i = 0; i < names.size(); ++i) {
        const Workload w = bench::capTasks(workloads::byName(names[i]), 6);
        const TuneOptions opts = bench::benchOptions(dev, rounds, 47 + i);
        std::vector<double> mlp_w, tlp_w, moa_w;
        TuneResult ra, rten, rtlp, rp, rm;
        std::vector<std::function<void()>> jobs;
        jobs.push_back([&]() {
            auto p = baselines::makeAnsor(dev, 3);
            ra = p->tune(w, opts);
            moa_w = bench::pretrainPaCM(DeviceSpec::k80(), dev, {w}, 48, 6,
                                        0xF7);
        });
        jobs.push_back([&]() {
            mlp_w = bench::pretrainMlp(dev, {w}, 48, 6, 0xF1);
            auto p = baselines::makeTenSetMlp(dev, 3, mlp_w);
            rten = p->tune(w, opts);
        });
        jobs.push_back([&]() {
            tlp_w = bench::pretrainTlp(dev, {w}, 48, 6, 0xF2);
            auto p = baselines::makeTlp(dev, 3, tlp_w);
            rtlp = p->tune(w, opts);
        });
        bench::runParallel(std::move(jobs));

        std::vector<std::function<void()>> jobs2;
        jobs2.push_back([&]() {
            PrunerPolicy p(dev, {});
            rp = p.tune(w, opts);
        });
        jobs2.push_back([&]() {
            PrunerConfig c;
            c.use_moa = true;
            c.pretrained = moa_w;
            PrunerPolicy p(dev, c);
            rm = p.tune(w, opts);
        });
        bench::runParallel(std::move(jobs2));

        using bench::SearchSpeedup;
        sp_ansor.push_back(SearchSpeedup::of(ra, rp));
        sp_moa.push_back(SearchSpeedup::of(ra, rm));
        sp_tenset.push_back(SearchSpeedup::of(rten, rp));
        if (!rtlp.failed) {
            sp_tlp.push_back(SearchSpeedup::of(rtlp, rp));
        }
        table.addRow({names[i], sp_ansor.back().str(), sp_moa.back().str(),
                      sp_tenset.back().str(),
                      rtlp.failed ? "X" : sp_tlp.back().str()});
    }
    table.print();
    std::printf("\ngeomean speedups: Pruner vs Ansor %s (paper ~2.6x),\n"
                "                  MoA vs Ansor %s (paper ~4.2x),\n"
                "                  vs TenSetMLP %s (paper ~4.7x),\n"
                "                  vs TLP %s (paper ~4.05x)\n",
                bench::measuredGeomean(sp_ansor).c_str(),
                bench::measuredGeomean(sp_moa).c_str(),
                bench::measuredGeomean(sp_tenset).c_str(),
                bench::measuredGeomean(sp_tlp).c_str());
    return 0;
}
