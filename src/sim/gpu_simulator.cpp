#include "sim/gpu_simulator.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/symbols.hpp"
#include "support/logging.hpp"

namespace pruner {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/** Deterministic hash -> [-1, 1], used for platform quirks. */
double
centeredHash(uint64_t seed, uint64_t tag, uint64_t value)
{
    const uint64_t h = splitmix64(hashCombine(hashCombine(seed, tag), value));
    return (static_cast<double>(h >> 11) * 0x1.0p-53) * 2.0 - 1.0;
}

/** log2 bin of a positive integer (0 for 1). */
uint64_t
log2Bin(int64_t v)
{
    uint64_t bin = 0;
    while (v > 1) {
        v >>= 1;
        ++bin;
    }
    return bin;
}

} // namespace

GpuSimulator::GpuSimulator(const DeviceSpec& device) : device_(device) {}

double
GpuSimulator::trueLatency(const SubgraphTask& task, const Schedule& sch) const
{
    return trueLatency(task, sch, nullptr);
}

double
GpuSimulator::trueLatency(const SubgraphTask& task, const Schedule& sch,
                          SimBreakdown* breakdown) const
{
    const auto& dev = device_;
    SimBreakdown local;
    SimBreakdown& bd = breakdown ? *breakdown : local;

    if (!sch.valid(task, dev.max_threads_per_block)) {
        bd.launch_failed = true;
        return kInf;
    }

    const SymbolSet sym = extractSymbols(task, sch);
    const double bytes_per_elem = dtypeBytes(task.dtype);
    const int64_t threads = sch.threadsPerBlock();
    const int64_t blocks = sch.numBlocks();

    // ---- Resource usage and launch limits -------------------------------
    const double smem_bytes = sym.s3_l1_alloc * bytes_per_elem;
    if (smem_bytes > static_cast<double>(dev.smem_per_block_floats) * 4.0) {
        bd.launch_failed = true;
        return kInf; // launch failure: over the shared-memory budget
    }
    // Register estimate: accumulators + operand tiles + bookkeeping. The
    // compiler always fits the kernel by spilling to local memory, so
    // register pressure degrades speed instead of failing the launch.
    const double regs_needed = sym.s1_l0_alloc + 24.0;
    const double reg_limit = std::min(
        static_cast<double>(dev.regs_per_thread),
        std::max(static_cast<double>(dev.regs_per_sm) /
                     static_cast<double>(threads),
                 16.0));
    double spill = 1.0;
    if (regs_needed > reg_limit) {
        spill = 1.0 + 0.8 * (regs_needed / reg_limit - 1.0);
    }
    bd.spill_factor = spill;
    const double regs_used = std::min(regs_needed, reg_limit);

    // ---- Occupancy -------------------------------------------------------
    const double warps_per_block =
        std::ceil(static_cast<double>(threads) / dev.warp_size);
    double bpsm = static_cast<double>(dev.max_blocks_per_sm);
    bpsm = std::min(bpsm, std::floor(static_cast<double>(
                              dev.max_threads_per_sm) /
                          static_cast<double>(threads)));
    if (smem_bytes > 0.0) {
        bpsm = std::min(
            bpsm, std::floor(static_cast<double>(dev.smem_per_sm_floats) *
                             4.0 / smem_bytes));
    }
    bpsm = std::min(bpsm, std::floor(static_cast<double>(dev.regs_per_sm) /
                                     (static_cast<double>(threads) *
                                      regs_used)));
    bpsm = std::max(bpsm, 1.0); // spilling always fits one block
    const double max_warps_per_sm =
        static_cast<double>(dev.max_threads_per_sm) / dev.warp_size;
    const double active_warps =
        std::min(bpsm * warps_per_block, max_warps_per_sm);
    const double occupancy = active_warps / max_warps_per_sm;
    bd.occupancy = occupancy;

    // ---- Wave structure --------------------------------------------------
    const double concurrent_blocks = bpsm * dev.num_sms;
    const double waves =
        std::ceil(static_cast<double>(blocks) / concurrent_blocks);
    bd.waves = waves;
    // Throughput parallelism is quantized at SM granularity: extra resident
    // blocks per SM improve latency hiding (occupancy) but do not raise the
    // per-SM peak.
    const double sms = static_cast<double>(dev.num_sms);
    const double parallel_eff =
        static_cast<double>(blocks) /
        (std::ceil(static_cast<double>(blocks) / sms) * sms);

    // ---- Compute throughput ----------------------------------------------
    double peak = dev.peak_flops;
    double issue_cost = 0.35; // shared-load issue cost relative to FMA
    if (task.dtype == DType::Fp16Tc) {
        if (dev.has_tensorcore) {
            // WMMA tiles need 16-aligned block tiles; misalignment falls
            // back to partially packed fragments.
            peak = dev.tc_peak_flops * (0.25 + 0.75 * sym.tc_alignment);
            issue_cost = 0.10; // fragments amortize shared loads
        } else {
            peak = dev.peak_flops * 2.0; // packed half2 math
        }
    }

    // Inner-loop issue balance: FMAs per shared-memory operand fetched.
    const double out_reg_tile = static_cast<double>(sch.regTilePoints());
    const double operand_regs =
        std::max(sym.s1_l0_alloc - out_reg_tile, 1.0);
    const double issue_ratio = out_reg_tile / operand_regs;
    const double issue_eff = issue_ratio / (issue_ratio + issue_cost);

    // Unroll / vthread instruction-level parallelism.
    const double u = static_cast<double>(sch.unroll());
    double unroll_eff = 1.0 - 0.18 * std::exp(-u / 24.0);
    if (u >= 512.0 && sym.s2_l0_comp < 4096.0) {
        unroll_eff *= 0.96; // instruction-cache pressure on tiny bodies
    }
    const double ilp = 1.0 +
                       0.1 * std::min<double>(sch.numVThreads(), 8.0);

    // Latency hiding for the ALU pipeline: need enough resident warps.
    // Bounded below — even one resident warp per scheduler keeps the
    // pipeline partially fed.
    const double lat_hide =
        std::clamp((occupancy * ilp) / 0.25, 0.45, 1.0);

    // Warp-granularity and scheduler quantization (as in the penalties).
    const double alpha_warp =
        sym.s4_threads / (warps_per_block * dev.warp_size);
    const double sched_eff =
        warps_per_block /
        (std::ceil(warps_per_block / dev.warp_schedulers) *
         dev.warp_schedulers);
    // Shallow blocks still fill the SM if several blocks are resident.
    const double sched_eff_adj =
        1.0 - (1.0 - sched_eff) / std::sqrt(std::min(bpsm, 8.0));

    double compute_eff = parallel_eff * alpha_warp * sched_eff_adj *
                         issue_eff * unroll_eff * lat_hide;
    compute_eff = std::max(compute_eff, 1e-4);
    const double compute_s =
        sym.totalFlops() * spill / (peak * compute_eff);
    bd.compute_s = compute_s;

    // ---- Memory traffic ---------------------------------------------------
    // Working set for the L2 model.
    double working_bytes = 0.0;
    for (const auto& tensor : task.tensors) {
        working_bytes += static_cast<double>(tensor.numElements(task)) *
                         tensor.footprint_scale * bytes_per_elem;
    }
    const double p_hit = std::clamp(
        static_cast<double>(dev.l2_cache_bytes) /
            std::max(working_bytes * 1.5, 1.0),
        0.0, 0.95);

    const double vec_eff =
        0.8 + 0.2 * std::min(sch.vectorLen(), 4) / 4.0;
    double mem_time = 0.0;
    double dram_total = 0.0, l2_total = 0.0;
    double bank_conflict = 1.0;
    const double conflict_strength =
        0.12 + 0.18 * std::abs(centeredHash(dev.fingerprint, 0xBC, 1));

    for (const auto& stmt : sym.statements) {
        if (stmt.s5_traffic <= 0.0) {
            continue;
        }
        const auto& tensor = task.tensors[stmt.tensor];
        // Shared-memory staging recovers part of the implicit-GEMM halo
        // redundancy for convolutions (footprint_scale < 1). Not
        // std::clamp: footprint_scale > 1 would put its lower bound above
        // its upper one (undefined behaviour). This is the min/max
        // libstdc++'s clamp evaluates, so every latency stays the same.
        const double halo_recovery =
            std::min(std::max(tensor.footprint_scale * 3.0,
                              tensor.footprint_scale),
                     1.0);
        const double traffic_bytes =
            stmt.s5_traffic * bytes_per_elem * halo_recovery;
        const double unique_bytes =
            static_cast<double>(tensor.numElements(task)) *
            tensor.footprint_scale * bytes_per_elem;

        double dram_bytes, l2_bytes;
        if (stmt.kind == StatementSymbols::Kind::OutputStore) {
            dram_bytes = traffic_bytes; // streaming store
            l2_bytes = 0.0;
        } else {
            const double reload = std::max(traffic_bytes - unique_bytes,
                                           0.0);
            dram_bytes = std::min(unique_bytes, traffic_bytes) +
                         (1.0 - p_hit) * reload;
            l2_bytes = p_hit * reload;
        }

        // Coalescing from the innermost contiguous run length.
        const double s7 = std::max(stmt.s7_trans_dim, 1.0);
        double coal = s7 / (std::ceil(s7 / dev.mem_transaction_floats) *
                            dev.mem_transaction_floats);
        coal = std::max(coal, 1.0 / dev.mem_transaction_floats);
        if (task.conv_stride > 1 &&
            stmt.kind == StatementSymbols::Kind::SharedLoad &&
            tensor.footprint_scale < 1.0) {
            coal /= std::sqrt(static_cast<double>(task.conv_stride));
        }

        // Shared-memory bank conflicts: power-of-two row lengths that are
        // multiples of the bank count serialize column accesses unless the
        // compiler pads (platform-dependent).
        if (stmt.kind == StatementSymbols::Kind::SharedLoad) {
            const int64_t row = static_cast<int64_t>(s7);
            if (row >= 32 && row % 32 == 0) {
                bank_conflict += conflict_strength;
            }
        }

        mem_time += dram_bytes /
                        (dev.peak_bandwidth * coal * vec_eff) +
                    l2_bytes / (dev.peak_bandwidth *
                                dev.l2_hit_bandwidth_scale * vec_eff);
        dram_total += dram_bytes;
        l2_total += l2_bytes;
    }
    bd.dram_bytes = dram_total;
    bd.l2_bytes = l2_total;
    bd.bank_conflict = bank_conflict;

    // DRAM saturation needs enough in-flight warps.
    const double mem_sat =
        std::min(1.0, std::pow(occupancy / 0.40, 0.7));
    mem_time /= std::max(mem_sat, 0.05);
    // Also the whole grid must span enough SMs to use all channels.
    const double sm_span = std::min(
        1.0, static_cast<double>(blocks) / (0.5 * dev.num_sms));
    mem_time /= std::max(sm_span, 0.05);
    bd.memory_s = mem_time;

    // ---- Combine ----------------------------------------------------------
    const double compute_total = compute_s * bank_conflict;
    const double overlap = 0.25 + 0.45 * occupancy;
    double total = std::max(compute_total, mem_time) +
                   (1.0 - overlap) * std::min(compute_total, mem_time);
    total += dev.launch_overhead_s + waves * 2e-7 +
             static_cast<double>(blocks) * 1e-9;

    // ---- Structured platform quirks ---------------------------------------
    // Coarse schedule features get a per-platform +/- few % factor. This is
    // deterministic and *learnable* (a cost model trained on this platform
    // can pick it up) but differs across platforms — the cross-platform
    // domain gap.
    const uint64_t tkey = task.hash();
    double quirk = 1.0;
    quirk *= 1.0 + 0.04 * centeredHash(dev.fingerprint, 0x01,
                                       log2Bin(threads));
    quirk *= 1.0 + 0.03 * centeredHash(dev.fingerprint, 0x02,
                                       static_cast<uint64_t>(sch.unroll()));
    quirk *= 1.0 + 0.03 * centeredHash(dev.fingerprint, 0x03,
                                       static_cast<uint64_t>(
                                           sch.vectorLen()));
    quirk *= 1.0 + 0.04 * centeredHash(dev.fingerprint, 0x04,
                                       log2Bin(sch.reductionInner()));
    quirk *= 1.0 + 0.03 * centeredHash(dev.fingerprint, 0x05,
                                       log2Bin(sch.regTilePoints()));
    // Small per-(task, schedule) idiosyncrasy: deterministic, repeatable.
    quirk *= 1.0 + 0.02 * centeredHash(dev.fingerprint, 0x06,
                                       hashCombine(tkey, sch.hash()));
    total *= quirk;

    PRUNER_CHECK(total > 0.0);
    return total;
}

double
GpuSimulator::measure(const SubgraphTask& task, const Schedule& sch,
                      Rng& rng) const
{
    const double base = trueLatency(task, sch);
    if (!std::isfinite(base)) {
        return base;
    }
    return base * std::exp(rng.normal(0.0, kMeasureNoise));
}

double
GpuSimulator::idealLatency(const SubgraphTask& task) const
{
    const auto& dev = device_;
    double peak = dev.peak_flops;
    if (task.dtype == DType::Fp16Tc) {
        peak = dev.has_tensorcore ? dev.tc_peak_flops : dev.peak_flops * 2.0;
    }
    const double compute = task.totalFlops() / (peak * 0.92);
    const double memory = task.uniqueBytes() / (dev.peak_bandwidth * 0.88);
    return std::max(compute, memory) + dev.launch_overhead_s;
}

} // namespace pruner
