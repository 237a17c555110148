/**
 * Table 9: search speedup of Pruner over MetaSchedule on A100 TensorCore —
 * time for Pruner to reach MetaSchedule's entire-search best, for the six
 * half-precision language models at batch 1 and 4. Paper average: 4.08x.
 * Cells reached at Pruner's first curve point print as a lower bound
 * ("≥"), unreached ones as "not reached"; the geomean covers measured
 * cells only.
 */

#include <cstdio>

#include "baselines/metaschedule.hpp"
#include "bench_common.hpp"
#include "core/pruner_tuner.hpp"

using namespace pruner;

int main()
{
    const auto dev = DeviceSpec::a100();
    const int rounds = 14;
    bench::printScalingNote(rounds, "full MetaSchedule search budgets");

    const std::vector<std::string> names{"B-tiny", "B-base", "GPT-2",
                                         "Llama", "OPT", "Mistral"};
    Table table("Table 9 — Pruner search speedup vs MetaSchedule, A100 "
                "TensorCore");
    table.setHeader({"Input", "Bert-Tiny", "Bert-Base", "GPT-2", "Llama",
                     "OPT", "Mistral"});

    std::vector<bench::SearchSpeedup> all_speedups;
    for (int batch : {1, 4}) {
        // += avoids GCC 12's -Wrestrict false positive on string
        // operator+ chains (PR105329).
        std::string input_shape = "(";
        input_shape += std::to_string(batch);
        input_shape += ", 128)";
        std::vector<std::string> row{input_shape};
        for (const auto& name : names) {
            Workload base = workloads::byName(name);
            // Half-precision variants per Table 3.
            Workload w;
            if (name == "B-tiny") {
                w = workloads::bertTiny(batch, 128, DType::Fp16Tc);
            } else if (name == "B-base") {
                w = workloads::bertBase(batch, 128, DType::Fp16Tc);
            } else if (name == "GPT-2") {
                w = workloads::gpt2(batch, 128, DType::Fp16Tc);
            } else if (name == "Llama") {
                w = workloads::llama(batch, 128, DType::Fp16Tc);
            } else if (name == "OPT") {
                w = workloads::opt13b(batch, 128, DType::Fp16Tc);
            } else {
                w = workloads::mistral7b(batch, 128, DType::Fp16Tc);
            }
            w = bench::capTasks(w, 5);
            const TuneOptions opts =
                bench::benchOptions(dev, rounds, 131 + batch);
            TuneResult rm, rp;
            std::vector<std::function<void()>> jobs;
            jobs.push_back([&]() {
                rm = baselines::makeMetaSchedule(dev, 3)->tune(w, opts);
            });
            jobs.push_back([&]() {
                PrunerPolicy p(dev, {});
                rp = p.tune(w, opts);
            });
            bench::runParallel(std::move(jobs));
            all_speedups.push_back(bench::SearchSpeedup::of(rm, rp));
            row.push_back(all_speedups.back().str());
        }
        table.addRow(row);
    }
    table.print();
    std::printf("\ngeomean speedup %s (paper average 4.08x)\n",
                bench::measuredGeomean(all_speedups).c_str());
    return 0;
}
