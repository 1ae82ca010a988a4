#include "service/engine_session.hh"

#include <chrono>
#include <cmath>
#include <fstream>
#include <mutex>
#include <sstream>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "collector/input_collector.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "timing/gpu_timing.hh"
#include "trace/gmt_format.hh"
#include "trace/trace_io.hh"

namespace gpumech
{

namespace
{

/** One reading of the session cache's hit/miss counters. */
struct CacheCounters
{
    std::size_t traceHits = 0, traceMisses = 0;
    std::size_t collectorHits = 0, collectorMisses = 0;
    std::size_t profilerHits = 0, profilerMisses = 0;
};

CacheCounters
readCounters(const InputCache &cache)
{
    CacheCounters c;
    c.traceHits = cache.traceHits();
    c.traceMisses = cache.traceMisses();
    c.collectorHits = cache.collectorHits();
    c.collectorMisses = cache.collectorMisses();
    c.profilerHits = cache.profilerHits();
    c.profilerMisses = cache.profilerMisses();
    return c;
}

/** A total failure: exit-code 1 and the given status. */
Response
fail(Status status)
{
    Response resp;
    resp.status = std::move(status);
    resp.exitCode = 1;
    return resp;
}

/** Effective per-request isolation (request deadline/plan wins). */
IsolationOptions
isolationFor(const EvalSession &session, const Request &req)
{
    IsolationOptions iso = session.isolationFor(req.timeoutMs);
    if (req.faultPlan)
        iso.faultPlan = req.faultPlan.get();
    return iso;
}

void
printModelResult(std::ostream &os, const GpuMechResult &r,
                 const HardwareConfig &config, SchedulingPolicy policy)
{
    os << "config: " << config.summary() << "\n";
    os << "policy: " << toString(policy) << "\n";
    os << "representative warp: " << r.repWarpIndex
       << " (single-warp IPC " << fmtDouble(r.repWarpPerf, 4) << ", "
       << r.repNumIntervals << " intervals)\n";
    os << "CPI multithreading: " << fmtDouble(r.cpiMultithreading, 4)
       << "\n";
    os << "CPI contention:     " << fmtDouble(r.cpiContention, 4)
       << "\n";
    os << "CPI final:          " << fmtDouble(r.cpi, 4) << "  (IPC/core "
       << fmtDouble(r.ipc, 4) << ")\n";
    os << "CPI stack:          " << r.stack.toLine() << "\n";
}

Response
handleList(std::ostream &os)
{
    Table t({"name", "suite", "ctrl-div", "mem-div", "description"});
    for (const auto &w : allWorkloads()) {
        t.addRow({w.name, w.suite, w.controlDivergent ? "yes" : "no",
                  w.memoryDivergent ? "yes" : "no", w.description});
    }
    t.print(os);
    return Response{};
}

Response
handleModel(EvalSession &session, const Workload &w, const Request &req,
            std::ostream &os)
{
    // Warm path: trace + collector + profiler come from the
    // session cache; only the (cheap) analytical evaluation runs per
    // request. evaluateAt keeps the result bit-identical to the old
    // CLI's runGpuMech (pinned by test_parallel and cli_golden).
    std::shared_ptr<const GpuMechProfiler> profiler =
        session.cache.profiler(w, req.config);
    GpuMechResult r = profiler->evaluateAt(req.config, req.policy,
                                           req.level, req.modelSfu);
    if (req.json) {
        JsonWriter json;
        json.field("kernel", profiler->kernelName());
        json.field("policy", toString(req.policy));
        json.field("level", toString(req.level));
        json.field("warps",
                   static_cast<std::uint64_t>(profiler->numWarps()));
        json.field("insts", profiler->totalInsts());
        json.field("cpi", r.cpi);
        json.field("ipc", r.ipc);
        json.field("cpi_multithreading", r.cpiMultithreading);
        json.field("cpi_contention", r.cpiContention);
        json.field("rep_warp",
                   static_cast<std::uint64_t>(r.repWarpIndex));
        json.beginObject("stack");
        for (std::size_t i = 0; i < numStallTypes; ++i) {
            json.field(toString(static_cast<StallType>(i)),
                       r.stack.cpi[i]);
        }
        json.endObject();
        os << json.finish() << "\n";
        return Response{};
    }
    os << "kernel: " << profiler->kernelName() << " ("
       << profiler->numWarps() << " warps, " << profiler->totalInsts()
       << " insts)\n";
    printModelResult(os, r, req.config, req.policy);
    return Response{};
}

Response
handleSimulate(EvalSession &session, const Workload &w,
               const Request &req, std::ostream &os)
{
    std::shared_ptr<const KernelTrace> kernel =
        session.cache.trace(w, req.config);

    GpuTiming sim(*kernel, req.config, req.policy);
    TimingStats s = sim.run();
    if (req.json) {
        JsonWriter json;
        json.field("kernel", kernel->name());
        json.field("policy", toString(req.policy));
        json.field("cycles", s.totalCycles);
        json.field("insts", s.totalInsts);
        json.field("cpi", s.cpi());
        json.field("simd_efficiency", s.simdEfficiency());
        json.beginObject("memory");
        json.field("l1_accesses", s.l1Accesses);
        json.field("l1_hits", s.l1Hits);
        json.field("l2_accesses", s.l2Accesses);
        json.field("l2_hits", s.l2Hits);
        json.field("dram_reads", s.dramReads);
        json.field("dram_writes", s.dramWrites);
        json.field("avg_dram_queue_delay", s.avgDramQueueDelay);
        json.field("mshr_peak", static_cast<std::uint64_t>(s.mshrPeak));
        json.endObject();
        json.beginObject("stall_cpi");
        json.field("compute", s.computeStallCpi());
        json.field("mem", s.memStallCpi());
        json.field("mshr", s.mshrStallCpi());
        json.field("sfu", s.sfuStallCpi());
        json.endObject();
        os << json.finish() << "\n";
        return Response{};
    }
    os << "kernel: " << kernel->name() << "\n";
    os << "config: " << req.config.summary() << "\n";
    os << "cycles: " << s.totalCycles << "\n";
    os << "CPI (per core): " << fmtDouble(s.cpi(), 4) << "\n";
    os << "L1 hit rate: "
       << fmtPercent(s.l1Accesses ? static_cast<double>(s.l1Hits) /
                                        s.l1Accesses
                                  : 0.0)
       << ", L2 hit rate: "
       << fmtPercent(s.l2Accesses ? static_cast<double>(s.l2Hits) /
                                        s.l2Accesses
                                  : 0.0)
       << "\n";
    os << "DRAM reads/writes: " << s.dramReads << "/" << s.dramWrites
       << " (avg queue " << fmtDouble(s.avgDramQueueDelay, 1)
       << " cycles)\n";
    os << "MSHR peak/allocs/merges: " << s.mshrPeak << "/"
       << s.mshrAllocs << "/" << s.mshrMerges << "\n";
    os << "SIMD efficiency: " << fmtPercent(s.simdEfficiency()) << "\n";
    os << "measured stall CPI: compute "
       << fmtDouble(s.computeStallCpi(), 2) << ", mem "
       << fmtDouble(s.memStallCpi(), 2) << ", MSHR "
       << fmtDouble(s.mshrStallCpi(), 2) << ", SFU "
       << fmtDouble(s.sfuStallCpi(), 2) << "\n";
    return Response{};
}

Response
handleSweep(EvalSession &session, const Workload &w, const Request &req,
            std::ostream &os)
{
    const Knob *knob = findKnob(req.sweepParam);
    if (knob == nullptr || !knob->accepts(Knob::Sweep)) {
        return fail(Status(StatusCode::Internal,
                           msg("sweep: no sweep parameter '",
                               req.sweepParam, "'")));
    }
    const HardwareConfig &base = req.config;
    bool mrc = req.sweepMode == SweepMode::Mrc;

    // Profile once at the base configuration; each point re-evaluates
    // (Section VI-D). A knob that reshapes the trace (warps, through
    // occupancy) profiles each point at its own configuration —
    // through the cache, so a repeated sweep is model-only. In MRC mode
    // the profiler carries a shared reuse-distance profile, so the
    // cache-geometry axes derive each cell instead of re-running the
    // functional simulation.
    //
    // The oracle and a rerun-mode geometry change read the whole trace
    // after profiling, so the trace is fetched before each profile
    // build: the build reuses it and it is generated once.
    //
    // A reshaping knob's rows read no base input; only the MRC header
    // reads the base profiler then.
    std::shared_ptr<const GpuMechProfiler> base_profiler;
    if (!knob->reshapesTrace || mrc) {
        if (req.oracle ||
            recollectsTrace(*knob, base, req.sweepValues, req.sweepMode))
            session.cache.trace(w, base);
        base_profiler = mrc ? session.cache.mrcProfiler(w, base, req.mrcRate)
                            : session.cache.profiler(w, base);
    }

    std::vector<std::string> header{req.sweepParam, "model CPI",
                                    "model IPC"};
    if (req.oracle)
        header.insert(header.end(), {"oracle CPI", "error"});
    Table t(header);

    for (double v : req.sweepValues) {
        HardwareConfig config = base;
        knob->set(config, v);
        if (Status valid = config.validate(); !valid.ok())
            return fail(valid);

        const HardwareConfig &profiled =
            knob->reshapesTrace ? config : base;
        std::shared_ptr<const KernelTrace> trace =
            req.oracle ? session.cache.trace(w, profiled) : nullptr;
        std::shared_ptr<const GpuMechProfiler> profiler =
            knob->reshapesTrace
                ? (mrc ? session.cache.mrcProfiler(w, config,
                                                   req.mrcRate)
                       : session.cache.profiler(w, config))
                : base_profiler;
        GpuMechResult r = profiler->evaluateAt(
            config, req.policy, ModelLevel::MT_MSHR_BAND, req.modelSfu);

        std::vector<std::string> row{fmtShortest(v),
                                     fmtDouble(r.cpi, 3),
                                     fmtDouble(r.ipc, 4)};
        if (req.oracle) {
            GpuTiming sim(*trace, config, req.policy);
            double oracle_cpi = sim.run().cpi();
            row.push_back(fmtDouble(oracle_cpi, 3));
            row.push_back(fmtPercent(std::abs(r.ipc - 1.0 / oracle_cpi) /
                                     (1.0 / oracle_cpi)));
        }
        t.addRow(std::move(row));
    }
    os << "kernel: " << req.kernel << ", sweeping " << req.sweepParam
       << "\n";
    // Only the non-default mode announces itself: the default (rerun)
    // output stays byte-identical to the pre-MRC CLI.
    if (mrc) {
        const CollectorResult &inputs = base_profiler->inputs();
        os << "sweep mode: mrc (rate " << fmtDouble(req.mrcRate, 4)
           << ")";
        if (inputs.mrcApproximate)
            os << ", approximate: " << inputs.mrcApproximation;
        os << "\n";
    }
    os << "\n";
    t.print(os);
    Response resp;
    if (mrc) {
        const CollectorResult &inputs = base_profiler->inputs();
        resp.mrcApproximate = inputs.mrcApproximate;
        resp.mrcApproximation = inputs.mrcApproximation;
    }
    return resp;
}

Response
handleTune(EvalSession &session, const Workload &w, const Request &req,
           std::ostream &os)
{
    // The search specification rides in req.tune; scheduling and
    // threading come from the request-level fields like every other
    // handler.
    TuneOptions options = req.tune;
    options.policy = req.policy;
    options.modelSfu = req.modelSfu;
    options.jobs = session.jobsFor(req.jobs);

    Result<TuneResult> run = runTune(session, w, req.config, options);
    if (!run.ok())
        return fail(run.status());
    const TuneResult &result = run.value();
    os << tuneResultToJson(result, req.kernel, options) << "\n";

    Response resp;
    resp.mrcApproximate = result.mrcApproximate;
    resp.mrcApproximation = result.mrcApproximation;
    return resp;
}

Response
handleCompare(EvalSession &session, const Workload &w,
              const Request &req, std::ostream &os)
{
    KernelEvaluation eval =
        evaluateKernel(w, req.config, req.policy, allModels(),
                       &session.cache, isolationFor(session, req));
    if (!eval.ok())
        return fail(eval.status);

    os << "kernel: " << req.kernel << ", oracle CPI "
       << fmtDouble(eval.oracleCpi, 3) << "\n\n";
    Table t({"model", "predicted IPC", "error"});
    for (ModelKind kind : allModels()) {
        t.addRow({toString(kind),
                  fmtDouble(eval.predictedIpc.at(kind), 4),
                  fmtPercent(eval.error(kind))});
    }
    t.print(os);
    Response resp;
    resp.stats.kernels = 1;
    return resp;
}

Response
handleStack(EvalSession &session, const Workload &w, const Request &req,
            std::ostream &os)
{
    Table t({"warps", "BASE", "DEP", "L1", "L2", "DRAM", "MSHR",
             "QUEUE", "SFU", "total CPI"});
    for (std::uint32_t warps : {8u, 16u, 24u, 32u, 48u}) {
        HardwareConfig config = req.config;
        config.warpsPerCore = warps;
        GpuMechResult r = session.cache.profiler(w, config)->evaluateAt(
            config, req.policy, ModelLevel::MT_MSHR_BAND, req.modelSfu);
        t.addRow({std::to_string(warps),
                  fmtDouble(r.stack[StallType::Base], 2),
                  fmtDouble(r.stack[StallType::Dep], 2),
                  fmtDouble(r.stack[StallType::L1], 2),
                  fmtDouble(r.stack[StallType::L2], 2),
                  fmtDouble(r.stack[StallType::Dram], 2),
                  fmtDouble(r.stack[StallType::Mshr], 2),
                  fmtDouble(r.stack[StallType::Queue], 2),
                  fmtDouble(r.stack[StallType::Sfu], 2),
                  fmtDouble(r.stack.total(), 2)});
    }
    os << "kernel: " << req.kernel << "\n\n";
    t.print(os);
    return Response{};
}

Response
handleDumpTrace(EvalSession &session, const Workload &w,
                const Request &req)
{
    const std::string &path = req.paths[0];
    std::shared_ptr<const KernelTrace> kernel =
        session.cache.trace(w, req.config);
    Status written = writeTraceFile(path, *kernel, req.varint);
    if (!written.ok())
        return fail(written);
    inform(msg("wrote ", kernel->numWarps(), " warps (",
               kernel->totalInsts(), " insts) to ", path,
               hasGmtExtension(path) ? " (binary .gmt)" : " (text)"));
    return Response{};
}

/** Pack (to .gmt) or unpack (to text) the trace file paths[0] into
 *  paths[1]. */
Response
handleConvert(const Request &req)
{
    const std::string &in = req.paths[0];
    const std::string &out = req.paths[1];
    Result<KernelTrace> loaded = loadTraceFile(in);
    if (!loaded.ok())
        return fail(loaded.status());
    KernelTrace kernel = std::move(loaded).value();
    std::ofstream os(out, std::ios::binary);
    if (!os) {
        return fail(Status(StatusCode::InvalidArgument,
                           msg("cannot open ", out, " for writing")));
    }
    const bool pack = req.verb == Verb::Pack;
    if (pack)
        writeGmt(os, kernel, GmtWriteOptions{req.varint});
    else
        writeTrace(os, kernel);
    os.flush();
    if (!os) {
        return fail(Status(StatusCode::Internal,
                           msg("write to ", out, " failed")));
    }
    if (pack) {
        inform(msg("packed ", kernel.numWarps(), " warps (",
                   kernel.totalInsts(), " insts, ", kernel.totalLines(),
                   " line addresses) into ", out,
                   req.varint ? " (varint line pool)" : ""));
    } else {
        inform(msg("unpacked ", kernel.numWarps(), " warps (",
                   kernel.totalInsts(), " insts) into ", out));
    }
    return Response{};
}

Response
handleModelTrace(EvalSession &session, const Request &req,
                 std::ostream &os)
{
    GpuMechOptions options;
    options.policy = req.policy;
    options.level = req.level;
    options.modelSfu = req.modelSfu;

    if (req.paths.size() == 1) {
        // Single file: full per-kernel report. Either format loads
        // (detected by content, not extension).
        const std::string &path = req.paths[0];
        Result<KernelTrace> loaded = loadTraceFile(path);
        if (!loaded.ok())
            return fail(loaded.status());
        KernelTrace kernel = std::move(loaded).value();
        GpuMechResult r = runGpuMech(kernel, req.config, options);
        os << "kernel: " << kernel.name() << " (from " << path
           << ")\n";
        printModelResult(os, r, req.config, req.policy);
        Response resp;
        resp.stats.kernels = 1;
        return resp;
    }

    // Multiple files: stream the set through the collector with
    // decode/collect overlap (at most two traces resident), modeling
    // each kernel as it lands and containing per-file failures.
    unsigned jobs = session.jobsFor(req.jobs);

    std::size_t failed = 0;
    Table t({"file", "kernel", "status", "CPI", "IPC/core"});
    Table failures({"file", "code", "detail"});
    streamTraceSet(
        req.paths, req.config,
        [&](StreamedTrace &&st) {
            if (!st.status.ok()) {
                ++failed;
                t.addRow({st.path, "-", "FAILED", "-", "-"});
                failures.addRow({st.path, toString(st.status.code()),
                                 st.status.message()});
                return;
            }
            GpuMechProfiler profiler(
                st.kernel, req.config, options.selection,
                options.numClusters, jobs,
                std::make_shared<const CollectorResult>(
                    std::move(st.inputs)));
            GpuMechResult r = profiler.evaluate(
                options.policy, options.level, options.modelSfu);
            t.addRow({st.path, st.kernel.name(), "ok",
                      fmtDouble(r.cpi, 3), fmtDouble(r.ipc, 4)});
        },
        jobs);
    t.print(os);
    if (failed > 0) {
        os << "\n" << failed << "/" << req.paths.size()
           << " trace files failed:\n";
        failures.print(os);
    }
    Response resp;
    resp.stats.kernels = req.paths.size();
    resp.stats.failed = failed;
    if (failed == req.paths.size()) {
        resp.exitCode = 1;
        resp.status = Status(StatusCode::Internal,
                             msg("all ", failed, " trace files failed"));
    } else if (failed > 0) {
        resp.exitCode = 2;
    }
    return resp;
}

Response
handleSuite(EvalSession &session, const Request &req, std::ostream &os)
{
    std::vector<Workload> workloads;
    {
        Result<std::vector<Workload>> found = suiteByName(req.suite);
        if (!found.ok())
            return fail(found.status());
        workloads = std::move(found).value();
    }
    IsolationOptions iso = isolationFor(session, req);
    unsigned jobs = session.jobsFor(req.jobs);

    std::size_t failed = 0;
    Table failures({"kernel", "code", "detail"});
    std::size_t total = 0;

    if (req.predict) {
        // Model-only fast path (no oracle simulation).
        GpuMechOptions options;
        options.policy = req.policy;
        options.level = req.level;
        options.modelSfu = req.modelSfu;
        auto preds = predictSuite(workloads, req.config, options, jobs,
                                  &session.cache, iso);
        total = preds.size();
        Table t({"kernel", "status", "CPI", "IPC/core"});
        for (const KernelPrediction &pred : preds) {
            if (pred.ok()) {
                t.addRow({pred.kernel, "ok",
                          fmtDouble(pred.result.cpi, 3),
                          fmtDouble(pred.result.ipc, 4)});
            } else {
                ++failed;
                t.addRow({pred.kernel, "FAILED", "-", "-"});
                failures.addRow({pred.kernel,
                                 toString(pred.status.code()),
                                 pred.status.message()});
            }
        }
        t.print(os);
        if (failed > 0) {
            os << "\n" << failed << "/" << preds.size()
               << " kernels failed:\n";
            failures.print(os);
        }
    } else {
        auto evals =
            evaluateSuite(workloads, req.config, req.policy,
                          allModels(), req.verbose, jobs,
                          &session.cache, iso);
        total = evals.size();
        Table t({"kernel", "status", "oracle CPI", "GPUMech IPC",
                 "error"});
        for (const KernelEvaluation &eval : evals) {
            if (eval.ok()) {
                t.addRow(
                    {eval.kernel, "ok", fmtDouble(eval.oracleCpi, 3),
                     fmtDouble(
                         eval.predictedIpc.at(ModelKind::MT_MSHR_BAND),
                         4),
                     fmtPercent(eval.error(ModelKind::MT_MSHR_BAND))});
            } else {
                ++failed;
                t.addRow({eval.kernel, "FAILED", "-", "-", "-"});
                failures.addRow({eval.kernel,
                                 toString(eval.status.code()),
                                 eval.status.message()});
            }
        }
        t.print(os);
        os << "\nmean error over " << evals.size() - failed
           << " succeeding kernels: "
           << fmtPercent(averageError(evals, ModelKind::MT_MSHR_BAND))
           << "\n";
        if (failed > 0) {
            os << "\n" << failed << "/" << evals.size()
               << " kernels failed:\n";
            failures.print(os);
        }
    }
    Response resp;
    resp.stats.kernels = total;
    resp.stats.failed = failed;
    if (failed == total && total > 0) {
        resp.exitCode = 1;
        resp.status = Status(StatusCode::Internal,
                             msg("all ", failed, " kernels failed"));
    } else if (failed > 0) {
        resp.exitCode = 2;
    }
    return resp;
}

/**
 * Keep freed heap pages for the next request. A cold request generates
 * a 20-40 MB trace and drops it once profiled. Under glibc's adaptive
 * thresholds, whether the next request reuses those pages or the heap
 * hands them back to the kernel and faults them in again depends on
 * where the request's last allocations landed, so it varies from run
 * to run: on a shared 4-vCPU host, one pass of the benchmark's
 * explore workload (a tune per kernel, each on a fresh engine) took
 * 56-109k minor faults. Fixing the mmap threshold at 32 MiB (the
 * adaptive ceiling) and the trim threshold at 64 MiB keeps up to
 * 64 MiB of freed heap resident for reuse: 5-6k faults per pass.
 */
void
retainFreedHeap()
{
#if defined(__GLIBC__)
    static std::once_flag once;
    std::call_once(once, [] {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, 64 << 20);
    });
#endif
}

} // namespace

EngineSession::EngineSession(const EngineOptions &options)
{
    retainFreedHeap();
    eval.jobs = options.jobs;
    eval.isolation.kernelTimeoutMs = options.kernelTimeoutMs;
}

Response
EngineSession::dispatch(const Request &req)
{
    // A single-kernel verb resolves its workload once, here.
    const Target target =
        verbTable()[static_cast<std::size_t>(req.verb)].target;
    const bool one_kernel =
        target == Target::Kernel || target == Target::KernelAndOutput;
    const Workload *w = one_kernel ? findWorkload(req.kernel) : nullptr;

    std::ostringstream os;
    Response resp =
        one_kernel && w == nullptr
            ? fail(Status(StatusCode::NotFound,
                          msg("unknown workload: ", req.kernel)))
            : run(req, w, os);
    // Model, simulate, sweep, tune and stack report their kernel, failed
    // or not; compare counts it once evaluated, dump-trace never.
    if (target == Target::Kernel && req.verb != Verb::Compare) {
        resp.stats.kernels = 1;
        resp.stats.failed = resp.ok() ? 0 : 1;
    }
    resp.output = os.str();
    // A failed request keeps whatever partial report it rendered —
    // the old CLI printed partial-suite tables before exiting 2.
    return resp;
}

Response
EngineSession::run(const Request &req, const Workload *w,
                   std::ostream &os)
{
    switch (req.verb) {
      case Verb::List:
        return handleList(os);
      case Verb::Model:
        return handleModel(eval, *w, req, os);
      case Verb::Simulate:
        return handleSimulate(eval, *w, req, os);
      case Verb::Sweep:
        return handleSweep(eval, *w, req, os);
      case Verb::Tune:
        return handleTune(eval, *w, req, os);
      case Verb::Stack:
        return handleStack(eval, *w, req, os);
      case Verb::Compare:
        return handleCompare(eval, *w, req, os);
      case Verb::DumpTrace:
        return handleDumpTrace(eval, *w, req);
      case Verb::Pack:
      case Verb::Unpack:
        return handleConvert(req);
      case Verb::ModelTrace:
        return handleModelTrace(eval, req, os);
      case Verb::Suite:
        return handleSuite(eval, req, os);
      case Verb::Ping:
        os << "pong\n";
        break;
      case Verb::Health: {
        // The engine's view (the CLI's `health`): alive and counting.
        // Served requests never get here: the connection supervisor
        // answers health itself, with its own state (supervisor.cc).
        JsonWriter json;
        json.field("healthy", true);
        json.field("requests", handled.load());
        os << json.finish() << "\n";
        break;
      }
      case Verb::Stats: {
        JsonWriter json;
        json.field("requests", handled.load());
        json.beginObject("cache");
        json.field("trace_hits",
                   static_cast<std::uint64_t>(eval.cache.traceHits()));
        json.field("trace_misses", static_cast<std::uint64_t>(
                                       eval.cache.traceMisses()));
        json.field("collector_hits", static_cast<std::uint64_t>(
                                         eval.cache.collectorHits()));
        json.field("collector_misses",
                   static_cast<std::uint64_t>(
                       eval.cache.collectorMisses()));
        json.field("profiler_hits", static_cast<std::uint64_t>(
                                        eval.cache.profilerHits()));
        json.field("profiler_misses",
                   static_cast<std::uint64_t>(
                       eval.cache.profilerMisses()));
        json.field("trace_bytes", static_cast<std::uint64_t>(
                                      eval.cache.traceBytes()));
        json.field("profiler_bytes", static_cast<std::uint64_t>(
                                         eval.cache.profilerBytes()));
        json.endObject();
        os << json.finish() << "\n";
        break;
      }
    }
    return Response{};
}

Response
EngineSession::handle(const Request &request)
{
    const auto t0 = std::chrono::steady_clock::now();
    const CacheCounters before = readCounters(eval.cache);

    Response resp;
    try {
        resp = dispatch(request);
    } catch (const StatusException &e) {
        // Single-kernel handlers have no containment boundary below
        // this one; the carried Status is a total failure.
        resp = fail(e.status());
    } catch (const std::exception &e) {
        resp = fail(Status(StatusCode::Internal,
                           msg("unhandled exception: ", e.what())));
    }

    const CacheCounters after = readCounters(eval.cache);
    resp.stats.traceHits = after.traceHits - before.traceHits;
    resp.stats.traceMisses = after.traceMisses - before.traceMisses;
    resp.stats.collectorHits =
        after.collectorHits - before.collectorHits;
    resp.stats.collectorMisses =
        after.collectorMisses - before.collectorMisses;
    resp.stats.profilerHits =
        after.profilerHits - before.profilerHits;
    resp.stats.profilerMisses =
        after.profilerMisses - before.profilerMisses;
    resp.stats.wallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - t0)
            .count();
    handled.fetch_add(1);
    return resp;
}

} // namespace gpumech
