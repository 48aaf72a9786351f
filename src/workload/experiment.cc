#include "workload/experiment.hh"

#include "core/machine.hh"
#include "frontend/recorder.hh"
#include "frontend/trace_workload.hh"
#include "policy/page_policy.hh"
#include "sim/logging.hh"
#include "workload/workload.hh"

namespace prism {

namespace {

/**
 * Execute @p app under @p cfg; with @p rec_out non-null the run is
 * recorded and the completed trace stored there.  The report (when
 * requested) carries the frontend provenance.
 */
RunMetrics
runExec(MachineConfig cfg, const AppSpec &app, RunReport *report,
        std::shared_ptr<const RecordedTrace> *rec_out)
{
    auto w = app.make();
    if (cfg.jobsIntra > 1 && !w->shardSafe()) {
        inform("jobsIntra=%u ignored: %s shares host state across "
               "processors without shard-safe discipline "
               "(Workload::shardSafe)",
               cfg.jobsIntra, w->name());
        cfg.jobsIntra = 1;
    }
    Machine m(cfg);
    TraceRecorder rec;
    if (rec_out)
        rec.attach(m, *w);
    RunMetrics r = runWorkload(m, *w);
    if (rec_out)
        *rec_out = rec.finish(m);
    if (report) {
        *report = m.report();
        if (rec_out) {
            report->frontend = enumName(FrontendKind::Record);
            report->traceWorkload = (*rec_out)->workload;
            report->traceOps = (*rec_out)->totalOps();
        }
    }
    return r;
}

/** Re-issue @p trace under @p cfg through a TraceWorkload. */
RunMetrics
runReplay(const MachineConfig &cfg,
          std::shared_ptr<const RecordedTrace> trace, RunReport *report)
{
    TraceWorkload w(std::move(trace));
    Machine m(cfg);
    RunMetrics r = runWorkload(m, w);
    if (report) {
        *report = m.report();
        report->frontend = enumName(FrontendKind::Replay);
        report->traceWorkload = w.trace().workload;
        report->traceOps = w.trace().totalOps();
    }
    return r;
}

/** Load the trace at @p path, to be replayed in place of @p app. */
std::shared_ptr<const RecordedTrace>
loadTraceFor(const std::string &path, const AppSpec &app)
{
    if (path.empty())
        fatal("frontend=replay requires a trace file (--trace-file)");
    auto trace = RecordedTrace::readFile(path);
    if (trace->workload != app.name) {
        warn("replaying trace of '%s' (from %s) in place of app '%s'",
             trace->workload.c_str(), path.c_str(), app.name.c_str());
    }
    return trace;
}

} // namespace

RunMetrics
runOnce(const RunSpec &spec, const AppSpec &app, RunReport *report)
{
    switch (spec.frontend) {
      case FrontendKind::Exec:
        return runExec(spec.machine, app, report, nullptr);
      case FrontendKind::Record: {
        if (spec.traceFile.empty())
            fatal("frontend=record requires a trace file "
                  "(--trace-file)");
        claimTracePath(spec.traceFile, app.name);
        std::shared_ptr<const RecordedTrace> trace;
        RunMetrics r = runExec(spec.machine, app, report, &trace);
        trace->writeFile(spec.traceFile);
        return r;
      }
      case FrontendKind::Replay:
        return runReplay(spec.machine,
                         loadTraceFor(spec.traceFile, app), report);
    }
    panic("unreachable frontend kind");
}

std::vector<PolicyKind>
paperPolicies()
{
    return {PolicyKind::Scoma,   PolicyKind::LaNuma,
            PolicyKind::Scoma70, PolicyKind::DynFcfs,
            PolicyKind::DynUtil, PolicyKind::DynLru};
}

MachineConfig
calibrationConfig(const MachineConfig &base)
{
    MachineConfig cfg = base;
    cfg.policy = PolicyKind::Scoma;
    cfg.clientFrameCapPerNode.clear();
    return cfg;
}

std::vector<std::uint64_t>
scoma70Caps(const RunMetrics &scoma, double cap_fraction)
{
    std::vector<std::uint64_t> caps;
    caps.reserve(scoma.clientScomaPeakPerNode.size());
    for (std::uint64_t peak : scoma.clientScomaPeakPerNode) {
        auto cap = static_cast<std::uint64_t>(
            static_cast<double>(peak) * cap_fraction);
        caps.push_back(cap > 0 ? cap : 1);
    }
    return caps;
}

MachineConfig
policyConfig(const MachineConfig &base, PolicyKind pk,
             const std::vector<std::uint64_t> &caps)
{
    MachineConfig cfg = base;
    cfg.policy = pk;
    if (policyRule(pk).capped)
        cfg.clientFrameCapPerNode = caps;
    else
        cfg.clientFrameCapPerNode.clear();
    return cfg;
}

} // namespace prism
