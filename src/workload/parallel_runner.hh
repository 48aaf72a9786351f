/**
 * @file
 * Parallel experiment runner.
 *
 * The paper's evaluation is ~50 independent simulations (8 apps x 6
 * policies plus sensitivity sweeps), and every bench grid runs them
 * through runSweepsParallel.  Each simulation is a fully
 * deterministic, single-threaded Machine, so the sweep is
 * embarrassingly parallel — except that an application's SCOMA
 * calibration run must finish before its capped runs can be
 * configured.  TaskPool is a small thread pool whose tasks may submit
 * further tasks, which expresses that dependency naturally: the
 * calibration task enqueues the dependent per-policy runs when it
 * completes.  Results land in preallocated slots, so the output order
 * is deterministic regardless of completion order.
 *
 * Worker count: `--jobs N` > `PRISM_JOBS` > std::thread::hardware_concurrency().
 */

#ifndef PRISM_WORKLOAD_PARALLEL_RUNNER_HH
#define PRISM_WORKLOAD_PARALLEL_RUNNER_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "workload/experiment.hh"

namespace prism {

/**
 * Worker count from the environment: PRISM_JOBS if set (>= 1,
 * fatal otherwise), else the hardware thread count, else 1.
 */
unsigned defaultJobs();

/**
 * A fixed set of worker threads draining one task queue.  Tasks may
 * submit() further tasks (dependency chaining); wait() returns once
 * every task — including ones submitted mid-flight — has finished.
 */
class TaskPool
{
  public:
    /** Spawn @p jobs workers (at least one). */
    explicit TaskPool(unsigned jobs);

    /** Drains remaining tasks, then joins the workers. */
    ~TaskPool();

    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

    /** Enqueue @p fn; may be called from inside a running task. */
    void submit(std::function<void()> fn);

    /** Block until all submitted tasks (incl. nested) completed. */
    void wait();

    /** Number of worker threads. */
    unsigned jobs() const { return static_cast<unsigned>(workers_.size()); }

  private:
    void workerLoop();

    std::mutex mu_;
    std::condition_variable work_cv_;
    std::condition_variable idle_cv_;
    std::deque<std::function<void()>> queue_;
    std::vector<std::thread> workers_;
    std::size_t outstanding_ = 0;
    bool stop_ = false;
};

/** One labeled machine of a sweep grid, e.g. a cache shape. */
struct MachineVariant {
    std::string label;
    MachineConfig machine;
};

/**
 * The one sweep runner: every (app, variant, policy) cell of a grid
 * on spec.jobs workers, results in apps x variants x policies order
 * and labeled with each cell's app, variant and policy.  An empty
 * @p variants means spec.machine alone, with an empty label.  Each
 * simulation is deterministic and isolated, so the results are
 * bit-identical for any worker count.
 *
 * The paper's Section 4 rules, stated once:
 *  - Each (app, variant)'s SCOMA run (unbounded page cache) sizes its
 *    capped cells' per-node caps (spec.capFraction of its peaks) and
 *    doubles as its SCOMA cell.  A grid with neither SCOMA nor a
 *    capped policy makes no SCOMA run.
 *  - `record` captures each app's first run (variant 0's SCOMA run,
 *    or its first cell without one) to the app's trace file
 *    (tracePathFor over spec.traceFile); the other runs execute.
 *    `replay` re-issues that file in every run.  Both share one trace
 *    per app, so variants that differ in processor count are fatal
 *    before any simulation.
 */
std::vector<ExperimentResult>
runSweepsParallel(const RunSpec &spec, const std::vector<AppSpec> &apps,
                  std::vector<MachineVariant> variants = {});

} // namespace prism

#endif // PRISM_WORKLOAD_PARALLEL_RUNNER_HH
