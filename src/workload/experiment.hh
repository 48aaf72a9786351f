/**
 * @file
 * Experiment runner: the paper's Section 4 methodology.
 *
 * For each application we first run the SCOMA configuration (infinite
 * page cache) to calibrate per-node page-cache capacities; SCOMA-70
 * and the adaptive policies then cap each node's client S-COMA frames
 * at 70% of the maximum the SCOMA run allocated on that node.  This
 * file holds one run (runOnce) and the calibration steps;
 * runSweepsParallel (workload/parallel_runner.hh) applies them to
 * every sweep grid.
 */

#ifndef PRISM_WORKLOAD_EXPERIMENT_HH
#define PRISM_WORKLOAD_EXPERIMENT_HH

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/config.hh"
#include "core/metrics.hh"
#include "frontend/frontend.hh"
#include "obs/report.hh"
#include "workload/apps.hh"

namespace prism {

/** One (application, machine variant, policy) measurement. */
struct ExperimentResult {
    std::string app;
    /** The machine variant's label; empty for a one-machine sweep. */
    std::string variant;
    PolicyKind policy{};
    RunMetrics metrics;
    /** Full structured run report (counters, latency quantiles). */
    RunReport report;
};

/**
 * One experiment request: everything runOnce and runSweepsParallel
 * need, in a single designated-initializer-friendly struct.
 *
 *   RunSpec spec{.machine = base, .jobs = opts.jobs,
 *                .frontend = opts.frontend};
 *
 * `machine` carries the policy/protocol/seed for single runs and the
 * base configuration for sweeps (sweeps derive the per-policy configs
 * themselves).  An empty `policies` means paperPolicies().  The
 * frontend selects where reference streams come from (exec | record |
 * replay, docs/TRACE.md): record captures a run's stream to
 * `traceFile` (in a sweep, each app's first run); replay loads
 * `traceFile` instead of executing the workload at all.
 */
struct RunSpec {
    MachineConfig machine;
    /** Sweep dimension; empty selects the paper's six policies. */
    std::vector<PolicyKind> policies;
    /** TaskPool workers for runSweepsParallel. */
    unsigned jobs = 1;
    /** The paper's SCOMA-70 page-cache cap fraction. */
    double capFraction = 0.70;
    FrontendKind frontend = FrontendKind::Exec;
    /** .ptrace path: written by record, read by replay.  Sweeps over
     *  several apps treat it as a per-app pattern (tracePathFor). */
    std::string traceFile;
};

/**
 * Run @p app once under @p spec.machine.  When @p report is non-null
 * it receives the structured run report, captured while the machine is
 * still alive.
 */
RunMetrics runOnce(const RunSpec &spec, const AppSpec &app,
                   RunReport *report = nullptr);

/** Config for the SCOMA calibration run (unbounded page cache). */
MachineConfig calibrationConfig(const MachineConfig &base);

/**
 * Per-node SCOMA-70 caps from a calibration run: @p cap_fraction of
 * the peak client S-COMA frames SCOMA allocated on each node (at
 * least one frame).
 */
std::vector<std::uint64_t> scoma70Caps(const RunMetrics &scoma,
                                       double cap_fraction);

/**
 * Config for policy @p pk given @p base and calibrated @p caps: a
 * capped policy (kPolicyRules) gets @p caps, any other none.
 */
MachineConfig policyConfig(const MachineConfig &base, PolicyKind pk,
                           const std::vector<std::uint64_t> &caps);

/** The paper's six configurations, Figure 7 order. */
std::vector<PolicyKind> paperPolicies();

} // namespace prism

#endif // PRISM_WORKLOAD_EXPERIMENT_HH
