/**
 * @file
 * Flat-trace engine bench: memory density and end-to-end speed.
 *
 * Two measurements, reported to stdout and BENCH_trace_layout.json:
 *
 *  1. bytes per dynamic instruction of the flat SoA kernel trace
 *     (kernel-level field arrays + one Addr arena) against an in-bench
 *     reconstruction of the old AoS layout (per-warp WarpInst vectors,
 *     each memory instruction owning a std::vector<Addr>), on the
 *     stress suite;
 *  2. hot-loop traversal time over the same dynamic instructions —
 *     the access pattern of the interval builder and collector —
 *     through the flat arrays vs through the AoS mirror (one heap
 *     block per memory instruction), which isolates the layout's
 *     effect from thread scaling;
 *  3. end-to-end single-kernel pipeline time — functional cache
 *     simulation + per-warp interval profiling + representative
 *     selection + model evaluation — serial (the "before" engine shape)
 *     vs the intra-kernel parallel collection path at 2/4/8 threads,
 *     with every parallel result verified bit-identical before times
 *     are reported; beside it, trace generation at 1 thread and at
 *     the pool size (the default job count when the bench starts).
 *
 * Options: --reps N (timing repetitions, default 3; best-of is kept)
 *          --out FILE (JSON path, default BENCH_trace_layout.json)
 */

#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "gates.hh"

#include "common/args.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "common/thread_pool.hh"
#include "core/gpumech.hh"
#include "workloads/workload.hh"

using namespace gpumech;

namespace
{

using clock_type = std::chrono::steady_clock;

/** Best-of-@p reps wall-clock time of fn(), in milliseconds. */
template <typename Fn>
double
timeMs(unsigned reps, Fn &&fn)
{
    double best = 0.0;
    for (unsigned r = 0; r < reps; ++r) {
        auto t0 = clock_type::now();
        fn();
        double ms = std::chrono::duration<double, std::milli>(
                        clock_type::now() - t0)
                        .count();
        if (r == 0 || ms < best)
            best = ms;
    }
    return best;
}

// ---- in-bench mirror of the retired AoS layout ---------------------
// Each dynamic instruction is a standalone struct owning its coalesced
// line list; each warp owns a vector of them. This is what the trace
// looked like before the flat SoA refactor, rebuilt here only to
// measure its allocated footprint.

struct AosInst
{
    std::uint32_t pc = 0;
    Opcode op = Opcode::IntAlu;
    std::uint32_t activeThreads = 0;
    DepArray deps = {noDep, noDep, noDep};
    std::vector<Addr> lines;
};

struct AosWarp
{
    std::uint32_t warpId = 0;
    std::uint32_t blockId = 0;
    std::vector<AosInst> insts;
};

std::vector<AosWarp>
mirrorAos(const KernelTrace &kernel)
{
    std::vector<AosWarp> warps;
    warps.reserve(kernel.numWarps());
    for (WarpView view : kernel.warps()) {
        AosWarp w;
        w.warpId = view.warpId();
        w.blockId = view.blockId();
        w.insts.resize(view.numInsts());
        for (std::size_t i = 0; i < view.numInsts(); ++i) {
            AosInst &inst = w.insts[i];
            inst.pc = view.pc(i);
            inst.op = view.op(i);
            inst.activeThreads = view.activeThreads(i);
            inst.deps = view.deps(i);
            inst.lines = view.lines(i).toVector();
        }
        warps.push_back(std::move(w));
    }
    return warps;
}

/** Allocated bytes of the AoS mirror (capacities, like the flat side). */
std::size_t
aosFootprint(const std::vector<AosWarp> &warps)
{
    std::size_t bytes = warps.capacity() * sizeof(AosWarp);
    for (const AosWarp &w : warps) {
        bytes += w.insts.capacity() * sizeof(AosInst);
        for (const AosInst &inst : w.insts)
            bytes += inst.lines.capacity() * sizeof(Addr);
    }
    return bytes;
}

// ---- hot-loop traversal ---------------------------------------------
// Touch every field the interval builder and collector read, in issue
// order, summing into a checksum so the walks cannot be optimized
// away and so the two layouts can be cross-checked for agreement.

std::uint64_t
walkSoa(const KernelTrace &kernel)
{
    std::uint64_t sum = 0;
    for (WarpView warp : kernel.warps()) {
        const std::uint32_t *pc = warp.pcData();
        const Opcode *op = warp.opData();
        const std::uint32_t *active = warp.activeData();
        const DepArray *deps = warp.depData();
        for (std::size_t i = 0; i < warp.numInsts(); ++i) {
            sum += pc[i] + static_cast<std::uint32_t>(op[i]) +
                   active[i];
            for (std::int32_t d : deps[i])
                sum += static_cast<std::uint64_t>(d + 1);
            for (Addr line : warp.lines(i))
                sum += line;
        }
    }
    return sum;
}

std::uint64_t
walkAos(const std::vector<AosWarp> &warps)
{
    std::uint64_t sum = 0;
    for (const AosWarp &w : warps) {
        for (const AosInst &inst : w.insts) {
            sum += inst.pc + static_cast<std::uint32_t>(inst.op) +
                   inst.activeThreads;
            for (std::int32_t d : inst.deps)
                sum += static_cast<std::uint64_t>(d + 1);
            for (Addr line : inst.lines)
                sum += line;
        }
    }
    return sum;
}

/** One full single-kernel model evaluation at a given thread count. */
GpuMechResult
runPipeline(const KernelTrace &kernel, const HardwareConfig &config,
            unsigned jobs)
{
    GpuMechProfiler profiler(kernel, config, RepSelection::Clustering,
                             2, jobs);
    return profiler.evaluate(SchedulingPolicy::RoundRobin);
}

bool
sameResult(const GpuMechResult &a, const GpuMechResult &b)
{
    return a.cpi == b.cpi && a.ipc == b.ipc &&
           a.repWarpIndex == b.repWarpIndex &&
           a.stack.total() == b.stack.total();
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    args.checkOptionNames({"out", "reps"}).orDie();
    unsigned reps = args.getUint("reps", 3);
    std::string out_path = args.get("out", "BENCH_trace_layout.json");
    // The pipeline loop below sets its own job counts; read the pool
    // size before it does.
    const unsigned pool_jobs = defaultJobs();

    std::cout << "=== Flat-trace engine: layout + end-to-end bench ===\n";
    std::cout << "hardware threads: "
              << std::thread::hardware_concurrency() << ", reps: "
              << reps << " (best-of)\n\n";

    JsonWriter json;
    json.field("bench", "ext_trace_layout");
    json.field("hardware_threads",
               static_cast<std::uint64_t>(
                   std::thread::hardware_concurrency()));
    json.field("pool_jobs", static_cast<std::uint64_t>(pool_jobs));

    HardwareConfig config = HardwareConfig::baseline();
    std::vector<Workload> suite = stressWorkloads();

    // ---- 1. bytes per dynamic instruction --------------------------
    Table mem_table({"kernel", "insts", "flat B/inst", "aos B/inst",
                     "reduction"});
    json.beginObject("layout");
    double flat_total = 0.0, aos_total = 0.0;
    std::uint64_t inst_total = 0;
    for (const Workload &w : suite) {
        KernelTrace kernel = w.generate(config);
        auto aos = mirrorAos(kernel);
        double insts = static_cast<double>(kernel.totalInsts());
        double flat_bpi =
            static_cast<double>(kernel.memoryFootprint()) / insts;
        double aos_bpi =
            static_cast<double>(aosFootprint(aos)) / insts;
        mem_table.addRow({w.name, std::to_string(kernel.totalInsts()),
                          fmtDouble(flat_bpi, 1), fmtDouble(aos_bpi, 1),
                          fmtDouble(aos_bpi / flat_bpi, 2)});
        json.beginObject(w.name);
        json.field("total_insts", kernel.totalInsts());
        json.field("flat_bytes_per_inst", flat_bpi);
        json.field("aos_bytes_per_inst", aos_bpi);
        json.field("reduction", aos_bpi / flat_bpi);
        json.endObject();
        flat_total += static_cast<double>(kernel.memoryFootprint());
        aos_total += static_cast<double>(aosFootprint(aos));
        inst_total += kernel.totalInsts();
    }
    double flat_bpi = flat_total / static_cast<double>(inst_total);
    double aos_bpi = aos_total / static_cast<double>(inst_total);
    json.field("suite_flat_bytes_per_inst", flat_bpi);
    json.field("suite_aos_bytes_per_inst", aos_bpi);
    json.field("suite_reduction", aos_bpi / flat_bpi);
    json.endObject();

    std::cout << "-- trace memory (stress suite, baseline config) --\n";
    mem_table.print(std::cout);
    std::cout << "suite: " << fmtDouble(flat_bpi, 1)
              << " B/inst flat vs " << fmtDouble(aos_bpi, 1)
              << " B/inst AoS (" << fmtDouble(aos_bpi / flat_bpi, 2)
              << "x reduction)\n\n";

    // ---- 2. hot-loop traversal: flat arrays vs AoS mirror ----------
    Table walk_table({"kernel", "soa ms", "aos ms", "speedup"});
    json.beginObject("hot_loop");
    double soa_sum = 0.0, aos_walk_sum = 0.0;
    for (const Workload &w : suite) {
        KernelTrace kernel = w.generate(config);
        auto aos = mirrorAos(kernel);
        std::uint64_t soa_check = walkSoa(kernel);
        if (soa_check != walkAos(aos))
            fatal(msg("layout walks disagree on ", w.name));
        volatile std::uint64_t sink = 0;
        double soa_ms = timeMs(reps, [&] { sink += walkSoa(kernel); });
        double aos_ms = timeMs(reps, [&] { sink += walkAos(aos); });
        walk_table.addRow({w.name, fmtDouble(soa_ms, 3),
                           fmtDouble(aos_ms, 3),
                           fmtDouble(aos_ms / soa_ms, 2)});
        json.beginObject(w.name);
        json.field("soa_ms", soa_ms);
        json.field("aos_ms", aos_ms);
        json.field("speedup", aos_ms / soa_ms);
        json.endObject();
        soa_sum += soa_ms;
        aos_walk_sum += aos_ms;
    }
    double walk_speedup = aos_walk_sum / soa_sum;
    json.field("suite_soa_ms", soa_sum);
    json.field("suite_aos_ms", aos_walk_sum);
    json.field("suite_speedup", walk_speedup);
    json.endObject();

    std::cout << "-- hot-loop traversal (interval/collector access "
                 "pattern) --\n";
    walk_table.print(std::cout);
    std::cout << "suite: flat layout walks "
              << fmtDouble(walk_speedup, 2) << "x faster than AoS\n\n";

    // ---- 3. end-to-end single-kernel pipeline ----------------------
    const std::string gen_pool_label =
        "gen j" + std::to_string(pool_jobs) + " ms";
    Table e2e_table({"kernel", "gen j1 ms", gen_pool_label, "serial ms",
                     "t2 ms", "t4 ms", "t8 ms", "t8 speedup",
                     "identical"});
    json.beginObject("end_to_end");
    double gen_j1_sum = 0.0, gen_pool_sum = 0.0, serial_sum = 0.0,
           t8_sum = 0.0;
    for (const Workload &w : suite) {
        volatile std::uint64_t gen_sink = 0;
        auto gen_ms_at = [&](unsigned jobs) {
            setDefaultJobs(jobs);
            return timeMs(reps, [&] {
                KernelTrace k = w.generate(config);
                gen_sink = gen_sink + k.totalInsts();
            });
        };
        const double gen_j1_ms = gen_ms_at(1);
        const double gen_pool_ms = gen_ms_at(pool_jobs);
        KernelTrace kernel = w.generate(config);

        setDefaultJobs(1);
        GpuMechResult baseline = runPipeline(kernel, config, 1);
        double serial_ms =
            timeMs(reps, [&] { runPipeline(kernel, config, 1); });

        double ms_at[9] = {};
        bool identical = true;
        for (unsigned t : {2u, 4u, 8u}) {
            setDefaultJobs(t);
            if (!sameResult(runPipeline(kernel, config, t), baseline))
                identical = false;
            ms_at[t] =
                timeMs(reps, [&] { runPipeline(kernel, config, t); });
        }
        if (!identical)
            fatal(msg("parallel pipeline diverged on ", w.name));

        e2e_table.addRow({w.name, fmtDouble(gen_j1_ms, 2),
                          fmtDouble(gen_pool_ms, 2),
                          fmtDouble(serial_ms, 2),
                          fmtDouble(ms_at[2], 2), fmtDouble(ms_at[4], 2),
                          fmtDouble(ms_at[8], 2),
                          fmtDouble(serial_ms / ms_at[8], 2), "yes"});
        json.beginObject(w.name);
        json.field("gen_j1_ms", gen_j1_ms);
        json.field("gen_pool_ms", gen_pool_ms);
        json.field("serial_ms", serial_ms);
        json.field("t2_ms", ms_at[2]);
        json.field("t4_ms", ms_at[4]);
        json.field("t8_ms", ms_at[8]);
        json.field("t8_speedup", serial_ms / ms_at[8]);
        json.endObject();
        gen_j1_sum += gen_j1_ms;
        gen_pool_sum += gen_pool_ms;
        serial_sum += serial_ms;
        t8_sum += ms_at[8];
    }
    double suite_speedup = serial_sum / t8_sum;
    json.field("suite_gen_j1_ms", gen_j1_sum);
    json.field("suite_gen_pool_ms", gen_pool_sum);
    json.field("suite_serial_ms", serial_sum);
    json.field("suite_t8_ms", t8_sum);
    json.field("suite_t8_speedup", suite_speedup);
    // Thread-scaling claim: vacuous on a 1-thread machine, where it
    // records "skipped" rather than a hollow "pass".
    json.field("t8_speedup_gate",
               threadScalingGate(suite_speedup >= 1.0));
    json.endObject();
    setDefaultJobs(0);

    std::cout << "-- end-to-end single-kernel pipeline (collector + "
                 "profiling + evaluation) --\n";
    e2e_table.print(std::cout);
    std::cout << "\nheadline: flat layout stores "
              << fmtDouble(aos_bpi / flat_bpi, 2)
              << "x fewer bytes per dynamic instruction and walks "
              << fmtDouble(walk_speedup, 2)
              << "x faster than the retired AoS layout; 8-thread "
                 "pipeline is "
              << fmtDouble(suite_speedup, 2)
              << "x serial over the stress suite on this machine.\n";

    std::ofstream out(out_path);
    if (!out)
        fatal(msg("cannot open ", out_path, " for writing"));
    out << json.finish() << "\n";
    std::cout << "\nwrote " << out_path << "\n";
    return 0;
}
