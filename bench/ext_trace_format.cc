/**
 * @file
 * Binary trace format bench: ingestion speed and bytes on disk.
 *
 * Materializes the stress suite as on-disk trace files in all three
 * encodings (text, .gmt raw, .gmt varint) and measures, per kernel and
 * suite-wide:
 *
 *  1. load time — text parse vs binary mmap load via the same
 *     loadTraceFile entry point (format detected by content). The
 *     tentpole target is a >10x binary-over-text load speedup on the
 *     stress suite; every decoded trace is verified bit-identical to
 *     its source (canonical text serialization) before times count.
 *
 *  2. bytes on disk — text vs .gmt raw vs .gmt varint, with the
 *     varint delta encoding's reduction of the line-pool-dominated
 *     image called out.
 *
 *  3. cold-suite end-to-end — load + collect + profile + evaluate for
 *     the whole suite from text files vs from .gmt files, the shape of
 *     a batch service re-consuming archived traces. Model results are
 *     verified equal across formats before times are reported.
 *
 * Options: --reps N (timing repetitions, default 3; best-of is kept)
 *          --out FILE (JSON path, default BENCH_trace_format.json)
 *          --dir DIR (trace file directory, default a temp dir)
 */

#include <chrono>
#include <filesystem>
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
#include "trace/gmt_format.hh"
#include "trace/trace_io.hh"
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

std::uint64_t
fileBytes(const std::string &path)
{
    return static_cast<std::uint64_t>(
        std::filesystem::file_size(path));
}

/** Load + full single-kernel model evaluation (the cold-suite body). */
GpuMechResult
coldEvaluate(const std::string &path, const HardwareConfig &config)
{
    Result<KernelTrace> kernel = loadTraceFile(path);
    if (!kernel.ok())
        fatal(msg("cold load of ", path, " failed: ",
                  kernel.status().toString()));
    return runGpuMech(kernel.value(), config, GpuMechOptions{});
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    args.checkOptionNames({"dir", "out", "reps"}).orDie();
    unsigned reps = args.getUint("reps", 3);
    std::string out_path = args.get("out", "BENCH_trace_format.json");
    std::string dir = args.get("dir", "");
    if (dir.empty()) {
        dir = (std::filesystem::temp_directory_path() /
               "gpumech_bench_gmt")
                  .string();
    }
    std::filesystem::create_directories(dir);

    std::cout << "=== Binary trace format: ingestion + size bench ===\n";
    std::cout << "hardware threads: "
              << std::thread::hardware_concurrency() << ", reps: "
              << reps << " (best-of), dir: " << dir << "\n\n";

    JsonWriter json;
    json.field("bench", "ext_trace_format");
    json.field("hardware_threads",
               static_cast<std::uint64_t>(
                   std::thread::hardware_concurrency()));

    HardwareConfig config = HardwareConfig::baseline();
    std::vector<Workload> suite = stressWorkloads();

    // ---- materialize the suite in all three encodings --------------
    struct Files
    {
        std::string name;
        std::string text, gmt, gmtVarint;
        std::string canonical; //!< text serialization, the golden form
    };
    std::vector<Files> files;
    for (const Workload &w : suite) {
        KernelTrace kernel = w.generate(config);
        Files f;
        f.name = w.name;
        f.text = dir + "/" + w.name + ".txt";
        f.gmt = dir + "/" + w.name + ".gmt";
        f.gmtVarint = dir + "/" + w.name + ".varint.gmt";
        f.canonical = traceToString(kernel);
        writeTraceFile(f.text, kernel, false).orDie();
        writeTraceFile(f.gmt, kernel, false).orDie();
        writeTraceFile(f.gmtVarint, kernel, true).orDie();
        files.push_back(std::move(f));
    }

    // ---- 1. load time: text parse vs binary mmap load --------------
    Table load_table({"kernel", "text parse ms", "gmt load ms",
                      "varint load ms", "speedup"});
    json.beginObject("load");
    double text_sum = 0.0, gmt_sum = 0.0, varint_sum = 0.0;
    for (const Files &f : files) {
        // Correctness gate: all three loads must reproduce the
        // canonical serialization bit-identically.
        for (const std::string &path : {f.text, f.gmt, f.gmtVarint}) {
            Result<KernelTrace> k = loadTraceFile(path);
            if (!k.ok())
                fatal(msg("load of ", path, " failed: ",
                          k.status().toString()));
            if (traceToString(k.value()) != f.canonical)
                fatal(msg("load of ", path,
                          " diverged from the canonical trace"));
        }
        volatile std::uint64_t sink = 0;
        double text_ms = timeMs(reps, [&] {
            sink = sink +
                   loadTraceFile(f.text).valueOrDie().totalInsts();
        });
        double gmt_ms = timeMs(reps, [&] {
            sink = sink +
                   loadTraceFile(f.gmt).valueOrDie().totalInsts();
        });
        double varint_ms = timeMs(reps, [&] {
            sink = sink +
                   loadTraceFile(f.gmtVarint).valueOrDie().totalInsts();
        });
        load_table.addRow({f.name, fmtDouble(text_ms, 2),
                           fmtDouble(gmt_ms, 2),
                           fmtDouble(varint_ms, 2),
                           fmtDouble(text_ms / gmt_ms, 1)});
        json.beginObject(f.name);
        json.field("text_parse_ms", text_ms);
        json.field("gmt_load_ms", gmt_ms);
        json.field("gmt_varint_load_ms", varint_ms);
        json.field("speedup", text_ms / gmt_ms);
        json.endObject();
        text_sum += text_ms;
        gmt_sum += gmt_ms;
        varint_sum += varint_ms;
    }
    double load_speedup = text_sum / gmt_sum;
    json.field("suite_text_parse_ms", text_sum);
    json.field("suite_gmt_load_ms", gmt_sum);
    json.field("suite_gmt_varint_load_ms", varint_sum);
    json.field("suite_speedup", load_speedup);
    // Format gate, not a thread-scaling one: binary-over-text load
    // speed is algorithmic, so it holds at any thread count.
    json.field("load_speedup_gate", gateVerdict(load_speedup >= 10.0));
    json.endObject();

    std::cout << "-- trace load (stress suite, best-of-" << reps
              << ") --\n";
    load_table.print(std::cout);
    std::cout << "suite: text parse " << fmtDouble(text_sum, 1)
              << " ms vs .gmt load " << fmtDouble(gmt_sum, 1)
              << " ms (" << fmtDouble(load_speedup, 1)
              << "x; varint " << fmtDouble(varint_sum, 1)
              << " ms)\n\n";

    // ---- 2. bytes on disk ------------------------------------------
    Table size_table({"kernel", "text B", "gmt B", "varint B",
                      "gmt/text", "varint/text"});
    json.beginObject("size");
    std::uint64_t tb = 0, gb = 0, vb = 0;
    for (const Files &f : files) {
        std::uint64_t t = fileBytes(f.text);
        std::uint64_t g = fileBytes(f.gmt);
        std::uint64_t v = fileBytes(f.gmtVarint);
        size_table.addRow(
            {f.name, std::to_string(t), std::to_string(g),
             std::to_string(v),
             fmtDouble(static_cast<double>(g) / t, 2),
             fmtDouble(static_cast<double>(v) / t, 2)});
        json.beginObject(f.name);
        json.field("text_bytes", t);
        json.field("gmt_bytes", g);
        json.field("gmt_varint_bytes", v);
        json.endObject();
        tb += t;
        gb += g;
        vb += v;
    }
    json.field("suite_text_bytes", tb);
    json.field("suite_gmt_bytes", gb);
    json.field("suite_gmt_varint_bytes", vb);
    json.endObject();

    std::cout << "-- bytes on disk --\n";
    size_table.print(std::cout);
    std::cout << "suite: text " << tb << " B, gmt " << gb
              << " B (" << fmtDouble(static_cast<double>(gb) / tb, 2)
              << "x), varint " << vb << " B ("
              << fmtDouble(static_cast<double>(vb) / tb, 2)
              << "x)\n\n";

    // ---- 3. cold-suite end-to-end ----------------------------------
    // Single-threaded so the load/parse share of the pipeline is not
    // masked by parallel collection.
    setDefaultJobs(1);
    // Model results must agree across formats before times count.
    for (const Files &f : files) {
        GpuMechResult a = coldEvaluate(f.text, config);
        GpuMechResult b = coldEvaluate(f.gmt, config);
        if (a.cpi != b.cpi || a.ipc != b.ipc)
            fatal(msg("model outputs diverged across formats on ",
                      f.name));
    }
    double cold_text_ms = timeMs(reps, [&] {
        for (const Files &f : files)
            coldEvaluate(f.text, config);
    });
    double cold_gmt_ms = timeMs(reps, [&] {
        for (const Files &f : files)
            coldEvaluate(f.gmt, config);
    });
    setDefaultJobs(0);
    double cold_speedup = cold_text_ms / cold_gmt_ms;
    json.beginObject("cold_suite");
    json.field("text_ms", cold_text_ms);
    json.field("gmt_ms", cold_gmt_ms);
    json.field("speedup", cold_speedup);
    json.endObject();

    std::cout << "-- cold suite end-to-end (load + collect + profile "
                 "+ evaluate, 1 thread) --\n";
    std::cout << "text files:  " << fmtDouble(cold_text_ms, 1)
              << " ms\n.gmt files:  " << fmtDouble(cold_gmt_ms, 1)
              << " ms  (" << fmtDouble(cold_speedup, 2) << "x)\n";

    std::cout << "\nheadline: .gmt loads "
              << fmtDouble(load_speedup, 1)
              << "x faster than text parsing, stores "
              << fmtDouble(static_cast<double>(tb) / vb, 2)
              << "x fewer bytes with varint line pools, and speeds "
                 "the cold suite up "
              << fmtDouble(cold_speedup, 2) << "x on this machine.\n";

    std::ofstream out(out_path);
    if (!out)
        fatal(msg("cannot open ", out_path, " for writing"));
    out << json.finish() << "\n";
    std::cout << "\nwrote " << out_path << "\n";

    std::filesystem::remove_all(dir);
    return 0;
}
