#include "workload/parallel_runner.hh"

#include <algorithm>
#include <utility>

#include "core/env.hh"
#include "policy/page_policy.hh"
#include "sim/logging.hh"

namespace prism {

unsigned
defaultJobs()
{
    if (const char *e = resolveEnv("PRISM_JOBS")) {
        return static_cast<unsigned>(
            parseKnobU64("PRISM_JOBS", e, 1, 1, ~0U));
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

TaskPool::TaskPool(unsigned jobs)
{
    if (jobs == 0)
        jobs = 1;
    workers_.reserve(jobs);
    for (unsigned i = 0; i < jobs; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

TaskPool::~TaskPool()
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        stop_ = true;
    }
    work_cv_.notify_all();
    for (auto &t : workers_)
        t.join();
}

void
TaskPool::submit(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        ++outstanding_;
        queue_.push_back(std::move(fn));
    }
    work_cv_.notify_one();
}

void
TaskPool::wait()
{
    std::unique_lock<std::mutex> lk(mu_);
    idle_cv_.wait(lk, [this] { return outstanding_ == 0; });
}

void
TaskPool::workerLoop()
{
    std::unique_lock<std::mutex> lk(mu_);
    while (true) {
        work_cv_.wait(lk, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty()) {
            if (stop_)
                return;
            continue;
        }
        std::function<void()> fn = std::move(queue_.front());
        queue_.pop_front();
        lk.unlock();
        fn();
        lk.lock();
        // A task counts as outstanding until it has *finished*, so a
        // parent that submits children before returning can never let
        // wait() observe an empty pool between the two.
        if (--outstanding_ == 0)
            idle_cv_.notify_all();
    }
}

std::vector<ExperimentResult>
runSweepsParallel(const RunSpec &spec, const std::vector<AppSpec> &apps,
                  std::vector<MachineVariant> variants)
{
    if (variants.empty())
        variants.push_back({"", spec.machine});
    if (spec.frontend != FrontendKind::Exec) {
        const MachineVariant &v0 = variants[0];
        for (const MachineVariant &v : variants) {
            if (v.machine.numProcs() == v0.machine.numProcs())
                continue;
            fatal("--frontend %s shares one trace per app across the "
                  "sweep, but machine '%s' has %u processors and '%s' "
                  "has %u; pick one shape with --machine",
                  enumName(spec.frontend), v0.label.c_str(),
                  v0.machine.numProcs(), v.label.c_str(),
                  v.machine.numProcs());
        }
    }
    const std::vector<PolicyKind> policies =
        spec.policies.empty() ? paperPolicies() : spec.policies;
    // Only SCOMA and the capped policies need the SCOMA run.
    const bool calibrate =
        std::any_of(policies.begin(), policies.end(), [](PolicyKind pk) {
            return pk == PolicyKind::Scoma || policyRule(pk).capped;
        });
    const std::size_t nv = variants.size();
    const std::size_t np = policies.size();
    std::vector<ExperimentResult> out(apps.size() * nv * np);
    for (std::size_t i = 0; i < out.size(); ++i) {
        out[i].app = apps[i / (nv * np)].name;
        out[i].variant = variants[i / np % nv].label;
        out[i].policy = policies[i % np];
    }

    TaskPool pool(spec.jobs);
    for (std::size_t a = 0; a < apps.size(); ++a) {
        const AppSpec &app = apps[a];
        const std::string trace =
            spec.frontend == FrontendKind::Exec
                ? std::string()
                : tracePathFor(spec.traceFile, app.name, apps.size());
        // Record captures the app's first run and executes the others;
        // replay re-issues the trace in every run.
        auto specFor = [&spec, trace](MachineConfig cfg, bool first) {
            FrontendKind f = spec.frontend;
            if (f == FrontendKind::Record && !first)
                f = FrontendKind::Exec;
            return RunSpec{.machine = std::move(cfg),
                           .frontend = f,
                           .traceFile = trace};
        };
        for (std::size_t v = 0; v < nv; ++v) {
            ExperimentResult *cells = &out[(a * nv + v) * np];
            const MachineConfig &machine = variants[v].machine;
            // One task per cell the SCOMA run does not fill.  Distinct
            // slots, so no synchronization on the results is needed.
            auto submitCells = [&pool, &app, &machine, specFor, cells, np,
                                first = v == 0 && !calibrate](
                                   const std::vector<std::uint64_t> &caps) {
                for (std::size_t p = 0; p < np; ++p) {
                    ExperimentResult *cell = &cells[p];
                    if (cell->policy == PolicyKind::Scoma)
                        continue;
                    RunSpec run = specFor(
                        policyConfig(machine, cell->policy, caps),
                        first && p == 0);
                    pool.submit([&app, run, cell] {
                        cell->metrics = runOnce(run, app, &cell->report);
                    });
                }
            };
            if (!calibrate) {
                submitCells({});
                continue;
            }
            // The SCOMA run sizes the capped cells, so they only enter
            // the queue once it finishes.
            pool.submit([&spec, &app, &machine, specFor, submitCells,
                         cells, np, first = v == 0] {
                RunReport report;
                const RunMetrics scoma = runOnce(
                    specFor(calibrationConfig(machine), first), app,
                    &report);
                for (std::size_t p = 0; p < np; ++p) {
                    if (cells[p].policy == PolicyKind::Scoma) {
                        cells[p].metrics = scoma;
                        cells[p].report = report;
                    }
                }
                submitCells(scoma70Caps(scoma, spec.capFraction));
            });
        }
    }
    pool.wait();
    return out;
}

} // namespace prism
