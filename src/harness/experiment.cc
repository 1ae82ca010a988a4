#include "harness/experiment.hh"

#include "baselines/markov_chain.hh"
#include "baselines/naive_interval.hh"
#include "common/logging.hh"
#include "common/metrics.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"
#include "common/trace_span.hh"

namespace gpumech
{

namespace
{

/** Harness-level observability (no-ops while metrics are disabled). */
struct HarnessMetrics
{
    Counter kernels{"harness.kernels"};
    Counter containedFailures{"harness.contained_failures"};
    /** Margin left on the watchdog when a kernel finished in time. */
    Histogram deadlineMarginMs{"harness.deadline_margin.ms"};
};

HarnessMetrics &
harnessMetrics()
{
    static HarnessMetrics m;
    return m;
}

} // namespace

std::string
toString(SweepMode mode)
{
    switch (mode) {
      case SweepMode::Rerun:
        return "rerun";
      case SweepMode::Mrc:
        return "mrc";
    }
    return "?";
}

bool
recollectsTrace(const Knob &knob, const HardwareConfig &base,
                const std::vector<double> &values, SweepMode mode)
{
    if (mode != SweepMode::Rerun || knob.reshapesTrace)
        return false;
    for (double v : values) {
        HardwareConfig moved = base;
        knob.set(moved, v);
        if (moved.collectorKey() != base.collectorKey())
            return true;
    }
    return false;
}

std::string
toString(ModelKind kind)
{
    switch (kind) {
      case ModelKind::NaiveInterval:
        return "Naive_Interval";
      case ModelKind::MarkovChain:
        return "Markov_Chain";
      case ModelKind::MT:
        return "MT";
      case ModelKind::MT_MSHR:
        return "MT_MSHR";
      case ModelKind::MT_MSHR_BAND:
        return "MT_MSHR_BAND";
    }
    return "?";
}

const std::vector<ModelKind> &
allModels()
{
    static const std::vector<ModelKind> models = {
        ModelKind::NaiveInterval, ModelKind::MarkovChain, ModelKind::MT,
        ModelKind::MT_MSHR, ModelKind::MT_MSHR_BAND};
    return models;
}

double
KernelEvaluation::error(ModelKind kind) const
{
    if (!status.ok())
        panic(msg("error() on failed evaluation of ", kernel, ": ",
                  status.toString()));
    auto it = predictedIpc.find(kind);
    if (it == predictedIpc.end())
        panic(msg("no prediction recorded for ", toString(kind)));
    return relativeError(it->second, oracleIpc);
}

GpuMechResult
predictModel(const GpuMechProfiler &profiler, const HardwareConfig &config,
             SchedulingPolicy policy, ModelKind kind, bool model_sfu)
{
    BaselinePrediction baseline;
    switch (kind) {
      case ModelKind::NaiveInterval:
        baseline = naiveInterval(profiler.repProfile(),
                                 config.warpsPerCore, config);
        break;
      case ModelKind::MarkovChain:
        baseline = markovChain(profiler.repProfile(),
                               config.warpsPerCore, config);
        break;
      case ModelKind::MT:
        return profiler.evaluateAt(config, policy, ModelLevel::MT,
                                   model_sfu);
      case ModelKind::MT_MSHR:
        return profiler.evaluateAt(config, policy, ModelLevel::MT_MSHR,
                                   model_sfu);
      case ModelKind::MT_MSHR_BAND:
        return profiler.evaluateAt(config, policy,
                                   ModelLevel::MT_MSHR_BAND, model_sfu);
    }
    GpuMechResult r;
    r.ipc = baseline.ipc;
    r.cpi = baseline.cpi;
    return r;
}

namespace
{

/**
 * Per-kernel containment boundary. Installs the thread-local
 * isolation frame (deadline token + fault plan) around @p fn and
 * converts anything it throws into a returned Status, so one kernel's
 * failure cannot take down its siblings or the process. A fresh token
 * is minted per call: the deadline covers one kernel's evaluation,
 * not the whole suite.
 */
template <typename Fn>
Status
runContained(const std::string &kernel_name,
             const IsolationOptions &isolation, Fn &&fn)
{
    CancelToken token =
        CancelToken::withTimeoutMs(isolation.kernelTimeoutMs);
    ScopedEvalContext scope(kernel_name, token, isolation.faultPlan);
    Span span("kernel", kernel_name);
    harnessMetrics().kernels.add();
    try {
        fn();
        if (token.active() && Metrics::enabled())
            harnessMetrics().deadlineMarginMs.observe(
                token.remainingMs());
        return Status();
    } catch (const StatusException &e) {
        harnessMetrics().containedFailures.add();
        return e.status().withContext(msg("kernel ", kernel_name));
    } catch (const std::exception &e) {
        harnessMetrics().containedFailures.add();
        return Status(StatusCode::Internal,
                      msg("kernel ", kernel_name,
                          ": unexpected exception: ", e.what()));
    }
}

/** Model predictions for one kernel given its (possibly cached)
 *  profiler. */
void
predictModels(KernelEvaluation &eval, const GpuMechProfiler &profiler,
              const HardwareConfig &config, SchedulingPolicy policy,
              const std::vector<ModelKind> &models)
{
    for (ModelKind kind : models)
        eval.predictedIpc[kind] =
            predictModel(profiler, config, policy, kind).ipc;
}

} // namespace

KernelEvaluation
evaluateKernel(const Workload &workload, const HardwareConfig &config,
               SchedulingPolicy policy,
               const std::vector<ModelKind> &models, InputCache *cache,
               const IsolationOptions &isolation)
{
    KernelEvaluation eval;
    eval.kernel = workload.name;
    eval.policy = policy;

    eval.status = runContained(workload.name, isolation, [&] {
        if (cache) {
            std::shared_ptr<const KernelTrace> kernel =
                cache->trace(workload, config);
            {
                Span span("oracle", workload.name);
                GpuTiming oracle(*kernel, config, policy);
                TimingStats stats = oracle.run();
                eval.oracleCpi = stats.cpi();
            }
            eval.oracleIpc =
                eval.oracleCpi > 0.0 ? 1.0 / eval.oracleCpi : 0.0;
            predictModels(eval, *cache->profiler(workload, config),
                          config, policy, models);
            return;
        }

        evalCheckpoint(FaultSite::Parse);
        KernelTrace kernel = [&] {
            Span span("parse", workload.name);
            return workload.generate(config);
        }();
        {
            Span span("oracle", workload.name);
            GpuTiming oracle(kernel, config, policy);
            TimingStats stats = oracle.run();
            eval.oracleCpi = stats.cpi();
        }
        eval.oracleIpc =
            eval.oracleCpi > 0.0 ? 1.0 / eval.oracleCpi : 0.0;

        GpuMechProfiler profiler(kernel, config);
        predictModels(eval, profiler, config, policy, models);
    });
    return eval;
}

std::vector<KernelEvaluation>
evaluateSuite(const std::vector<Workload> &workloads,
              const HardwareConfig &config, SchedulingPolicy policy,
              const std::vector<ModelKind> &models, bool verbose,
              unsigned jobs, InputCache *cache,
              const IsolationOptions &isolation)
{
    // Each evaluation is independent: own trace, own timing oracle,
    // own profiler. Fan out over the shared pool; parallelMap keeps
    // slot order, so results match the serial path exactly. Failures
    // are contained inside evaluateKernel, so one bad kernel never
    // aborts the map.
    return parallelMap<KernelEvaluation>(
        workloads.size(),
        [&](std::size_t i) {
            if (verbose)
                inform(msg("evaluating ", workloads[i].name, " (",
                           toString(policy), ")"));
            return evaluateKernel(workloads[i], config, policy, models,
                                  cache, isolation);
        },
        1, jobs);
}

std::vector<KernelPrediction>
predictSuite(const std::vector<Workload> &workloads,
             const HardwareConfig &config,
             const GpuMechOptions &options, unsigned jobs,
             InputCache *cache, const IsolationOptions &isolation)
{
    return parallelMap<KernelPrediction>(
        workloads.size(),
        [&](std::size_t i) {
            KernelPrediction pred;
            pred.kernel = workloads[i].name;
            pred.status = runContained(
                workloads[i].name, isolation, [&] {
                    if (cache) {
                        std::shared_ptr<const GpuMechProfiler> profiler =
                            cache->profiler(workloads[i], config,
                                            options.selection,
                                            options.numClusters);
                        pred.result = profiler->evaluateAt(
                            config, options.policy, options.level,
                            options.modelSfu);
                        return;
                    }
                    evalCheckpoint(FaultSite::Parse);
                    KernelTrace kernel = [&] {
                        Span span("parse", workloads[i].name);
                        return workloads[i].generate(config);
                    }();
                    pred.result = runGpuMech(kernel, config, options);
                });
            return pred;
        },
        1, jobs);
}

std::size_t
countFailures(const std::vector<KernelEvaluation> &evals)
{
    std::size_t n = 0;
    for (const auto &eval : evals)
        n += eval.ok() ? 0 : 1;
    return n;
}

std::size_t
countFailures(const std::vector<KernelPrediction> &preds)
{
    std::size_t n = 0;
    for (const auto &pred : preds)
        n += pred.ok() ? 0 : 1;
    return n;
}

namespace
{

template <typename Entry>
std::string
summarizeFailures(const std::vector<Entry> &entries)
{
    std::string out;
    for (const auto &entry : entries) {
        if (entry.ok())
            continue;
        if (!out.empty())
            out += '\n';
        out += msg(entry.kernel, ": ", entry.status.toString());
    }
    return out;
}

} // namespace

std::string
failureSummary(const std::vector<KernelEvaluation> &evals)
{
    return summarizeFailures(evals);
}

std::string
failureSummary(const std::vector<KernelPrediction> &preds)
{
    return summarizeFailures(preds);
}

double
averageError(const std::vector<KernelEvaluation> &evals, ModelKind kind)
{
    std::vector<double> errors;
    errors.reserve(evals.size());
    for (const auto &eval : evals) {
        if (eval.ok())
            errors.push_back(eval.error(kind));
    }
    return mean(errors);
}

} // namespace gpumech
