/**
 * @file
 * Replay-determinism contract (docs/TRACE.md): for any app, replaying
 * a recording through the SAME machine configuration must produce a
 * run report byte-identical to direct execution once the provenance
 * fields are stripped — and recording itself must not perturb the
 * simulation at all.  Also covers the committed regression fixture
 * (tests/fixtures/) and replay's fail-fast config checks.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "frontend/ptrace.hh"
#include "frontend/trace_workload.hh"
#include "workload/apps.hh"
#include "workload/experiment.hh"
#include "workload/parallel_runner.hh"
#include "workload/workload.hh"

namespace prism {
namespace {

MachineConfig
smallCfg()
{
    MachineConfig cfg;
    cfg.numNodes = 4;
    cfg.procsPerNode = 2;
    return cfg;
}

/**
 * Serialize @p r without the timestamp, the frontend-provenance keys
 * and the workload-level histograms — everything that may
 * legitimately differ between an execution and a replay of the same
 * simulation.  (Workload histograms, e.g. the KV store's per-op
 * request latencies, only exist when the real workload body runs;
 * a replay re-issues the recorded reference stream through a
 * TraceWorkload, which has none.  scripts/strip_report.py applies
 * the same rule for the CI check.)
 */
std::string
strippedJson(const RunReport &r)
{
    RunReport s = r;
    s.generatedAt.clear();
    s.frontend.clear();
    s.traceWorkload.clear();
    s.traceOps = 0;
    std::erase_if(s.histograms, [](const auto &h) {
        return h.component == "workload";
    });
    std::ostringstream os;
    s.writeJson(os);
    return os.str();
}

std::string
tmpTrace(const std::string &name)
{
    return testing::TempDir() + name;
}

/**
 * The core contract, all eight applications: exec, record and replay
 * at the recorded configuration agree byte-for-byte on the stripped
 * report (same references, same cycles, same counters, same latency
 * histograms).
 */
TEST(TraceReplay, RecordAndReplayMatchExecOnEveryTinyApp)
{
    for (const AppSpec &app : standardApps(AppScale::Tiny)) {
        const std::string path =
            tmpTrace("replay_" + app.name + ".ptrace");

        RunReport exec_r, rec_r, rep_r;
        runOnce(RunSpec{.machine = smallCfg()}, app, &exec_r);
        runOnce(RunSpec{.machine = smallCfg(),
                        .frontend = FrontendKind::Record,
                        .traceFile = path},
                app, &rec_r);
        runOnce(RunSpec{.machine = smallCfg(),
                        .frontend = FrontendKind::Replay,
                        .traceFile = path},
                app, &rep_r);

        const std::string want = strippedJson(exec_r);
        EXPECT_EQ(strippedJson(rec_r), want)
            << app.name << ": recording perturbed the run";
        EXPECT_EQ(strippedJson(rep_r), want)
            << app.name << ": replay diverged from execution";

        EXPECT_EQ(exec_r.frontend, "exec");
        EXPECT_EQ(rec_r.frontend, "record");
        EXPECT_EQ(rep_r.frontend, "replay");
        EXPECT_EQ(rec_r.traceWorkload, app.name);
        EXPECT_EQ(rep_r.traceWorkload, app.name);
        EXPECT_GT(rep_r.traceOps, 0u);
        EXPECT_EQ(rep_r.traceOps, rec_r.traceOps) << app.name;
    }
}

TEST(TraceReplay, RecordingIsDeterministic)
{
    const auto apps = standardApps(AppScale::Tiny);
    const AppSpec *lu = nullptr;
    for (const auto &a : apps) {
        if (a.name == "LU")
            lu = &a;
    }
    ASSERT_NE(lu, nullptr);

    const std::string p1 = tmpTrace("rec_once.ptrace");
    const std::string p2 = tmpTrace("rec_twice.ptrace");
    runOnce(RunSpec{.machine = smallCfg(),
                    .frontend = FrontendKind::Record,
                    .traceFile = p1},
            *lu);
    runOnce(RunSpec{.machine = smallCfg(),
                    .frontend = FrontendKind::Record,
                    .traceFile = p2},
            *lu);
    auto t1 = RecordedTrace::readFile(p1);
    auto t2 = RecordedTrace::readFile(p2);
    EXPECT_EQ(t1->serialize(), t2->serialize());
    EXPECT_GT(t1->totalOps(), 0u);
    EXPECT_GT(t1->encodedBytes(), 0u);
}

TEST(TraceReplay, PolicySweepFromOneRecordingMatchesExecSweep)
{
    const auto apps = standardApps(AppScale::Tiny);
    const AppSpec *fft = nullptr;
    for (const auto &a : apps) {
        if (a.name == "FFT")
            fft = &a;
    }
    ASSERT_NE(fft, nullptr);
    const std::vector<PolicyKind> policies = {
        PolicyKind::Scoma, PolicyKind::LaNuma, PolicyKind::Scoma70,
        PolicyKind::DynLru};

    const auto exec_rs = runSweepsParallel(
        RunSpec{.machine = smallCfg(), .policies = policies}, {*fft});

    const std::string path = tmpTrace("sweep_fft.ptrace");
    const auto rec_rs = runSweepsParallel(
        RunSpec{.machine = smallCfg(),
                .policies = policies,
                .frontend = FrontendKind::Record,
                .traceFile = path},
        {*fft});
    const auto rep_rs = runSweepsParallel(
        RunSpec{.machine = smallCfg(),
                .policies = policies,
                .frontend = FrontendKind::Replay,
                .traceFile = path},
        {*fft});

    ASSERT_EQ(rec_rs.size(), exec_rs.size());
    ASSERT_EQ(rep_rs.size(), exec_rs.size());
    for (std::size_t i = 0; i < exec_rs.size(); ++i) {
        const std::string want = strippedJson(exec_rs[i].report);
        EXPECT_EQ(strippedJson(rec_rs[i].report), want)
            << "policy " << policyName(policies[i]) << " (record)";
        // FFT's reference stream is config-independent, so replaying
        // the calibration recording reproduces even the capped-policy
        // cells exactly.
        EXPECT_EQ(strippedJson(rep_rs[i].report), want)
            << "policy " << policyName(policies[i]) << " (replay)";
    }
}

TEST(TraceReplayDeath, ProcCountMismatchDies)
{
    const auto apps = standardApps(AppScale::Tiny);
    const AppSpec *fft = nullptr;
    for (const auto &a : apps) {
        if (a.name == "FFT")
            fft = &a;
    }
    ASSERT_NE(fft, nullptr);
    const std::string path = tmpTrace("mismatch_fft.ptrace");
    runOnce(RunSpec{.machine = smallCfg(),
                    .frontend = FrontendKind::Record,
                    .traceFile = path},
            *fft);

    MachineConfig bigger = smallCfg();
    bigger.procsPerNode = 4;
    EXPECT_EXIT(runOnce(RunSpec{.machine = bigger,
                                .frontend = FrontendKind::Replay,
                                .traceFile = path},
                        *fft),
                testing::ExitedWithCode(1),
                "recorded on 8 processors.*has 16");
}

TEST(TraceReplayDeath, MissingTraceFileArgumentDies)
{
    const auto apps = standardApps(AppScale::Tiny);
    EXPECT_EXIT(runOnce(RunSpec{.machine = smallCfg(),
                                .frontend = FrontendKind::Replay},
                        apps[0]),
                testing::ExitedWithCode(1), "requires a trace file");
    EXPECT_EXIT(runOnce(RunSpec{.machine = smallCfg(),
                                .frontend = FrontendKind::Record},
                        apps[0]),
                testing::ExitedWithCode(1), "requires a trace file");
}

/**
 * One trace per app serves a whole sweep, so record and replay on a
 * grid whose machines differ in processor count are fatal before any
 * simulation, naming --machine; a one-shape grid (scale_sweep
 * --machine) records and replays as usual.
 */
TEST(TraceReplayDeath, MultiShapeGridDiesBeforeAnySimulation)
{
    const auto apps = standardApps(AppScale::Tiny);
    const AppSpec *fft = nullptr;
    for (const auto &a : apps) {
        if (a.name == "FFT")
            fft = &a;
    }
    ASSERT_NE(fft, nullptr);
    MachineConfig two_nodes = smallCfg();
    two_nodes.numNodes = 2;
    const std::vector<MachineVariant> shapes = {{"4x2", smallCfg()},
                                                {"2x2", two_nodes}};

    const std::string rec = tmpTrace("multishape_rec.ptrace");
    std::remove(rec.c_str());
    EXPECT_EXIT(runSweepsParallel(RunSpec{.frontend = FrontendKind::Record,
                                          .traceFile = rec},
                                  {*fft}, shapes),
                testing::ExitedWithCode(1),
                "machine '4x2' has 8 processors and '2x2' has 4; pick "
                "one shape with --machine");
    EXPECT_FALSE(std::ifstream(rec).good())
        << "a simulation ran before the shape check";

    // One shape records, then replays to the executed results.
    const std::vector<MachineVariant> one = {shapes[1]};
    const auto exec_rs = runSweepsParallel(RunSpec{}, {*fft}, one);
    runSweepsParallel(
        RunSpec{.frontend = FrontendKind::Record, .traceFile = rec},
        {*fft}, one);
    const auto rep_rs = runSweepsParallel(
        RunSpec{.frontend = FrontendKind::Replay, .traceFile = rec},
        {*fft}, one);
    ASSERT_EQ(rep_rs.size(), exec_rs.size());
    for (std::size_t i = 0; i < exec_rs.size(); ++i) {
        EXPECT_EQ(strippedJson(rep_rs[i].report),
                  strippedJson(exec_rs[i].report))
            << policyName(exec_rs[i].policy);
    }

    // Replaying that 4-processor trace on both shapes dies the same way,
    // before the replay's own processor-count check could.
    EXPECT_EXIT(runSweepsParallel(RunSpec{.frontend = FrontendKind::Replay,
                                          .traceFile = rec},
                                  {*fft}, shapes),
                testing::ExitedWithCode(1), "pick one shape with --machine");
}

#ifdef PRISM_SOURCE_DIR
/**
 * The committed fixture: a tiny FFT recording checked into the repo.
 * Replaying it must work under every line protocol (the trace layer
 * sits entirely above the coherence protocol), and two replays must
 * agree byte-for-byte.  Regenerate with PRISM_UPDATE_GOLDEN=1 after
 * an intentional stream change (and bump kPtraceVersion if the
 * format itself changed).
 */
TEST(TraceReplay, CommittedFixtureReplaysUnderEveryProtocol)
{
    const std::string path = std::string(PRISM_SOURCE_DIR) +
                             "/tests/fixtures/fft_tiny.ptrace";

    if (std::getenv("PRISM_UPDATE_GOLDEN")) {
        const auto apps = standardApps(AppScale::Tiny);
        for (const auto &a : apps) {
            if (a.name == "FFT") {
                runOnce(RunSpec{.machine = smallCfg(),
                                .frontend = FrontendKind::Record,
                                .traceFile = path},
                        a);
            }
        }
        GTEST_SKIP() << "regenerated " << path;
    }

    auto trace = RecordedTrace::readFile(path);
    EXPECT_EQ(trace->workload, "FFT");
    ASSERT_EQ(trace->numProcs, 8u);

    for (ProtocolScheme ps :
         {ProtocolScheme::Msi, ProtocolScheme::Mesi,
          ProtocolScheme::Moesi, ProtocolScheme::Mesif}) {
        MachineConfig cfg = smallCfg();
        cfg.protocol = ps;
        auto run = [&](RunReport *r) {
            TraceWorkload w(trace);
            Machine m(cfg);
            RunMetrics metrics = runWorkload(m, w);
            *r = m.report();
            return metrics;
        };
        RunReport r1, r2;
        const RunMetrics m1 = run(&r1);
        run(&r2);
        EXPECT_GT(m1.execCycles, 0u) << enumName(ps);
        EXPECT_GT(m1.references, 0u) << enumName(ps);
        EXPECT_EQ(strippedJson(r1), strippedJson(r2))
            << enumName(ps);
    }
}

/**
 * The KV fixture: a tiny mix-B Zipfian recording of the partitioned
 * KV store.  Unlike the SPLASH kernels, KV's reference stream is
 * timing-dependent (the open-loop generator idle-pads toward its
 * arrival schedule), so the committed recording pins the stream a
 * given build produced — replays of it must stay deterministic and
 * protocol-independent just like any other trace.  Regenerate with
 * PRISM_UPDATE_GOLDEN=1 after an intentional workload change.
 */
TEST(TraceReplay, CommittedKvFixtureReplaysDeterministically)
{
    const std::string path = std::string(PRISM_SOURCE_DIR) +
                             "/tests/fixtures/kv_tiny.ptrace";

    if (std::getenv("PRISM_UPDATE_GOLDEN")) {
        const auto apps = standardApps(AppScale::Tiny);
        for (const auto &a : apps) {
            if (a.name == "KV") {
                runOnce(RunSpec{.machine = smallCfg(),
                                .frontend = FrontendKind::Record,
                                .traceFile = path},
                        a);
            }
        }
        GTEST_SKIP() << "regenerated " << path;
    }

    auto trace = RecordedTrace::readFile(path);
    EXPECT_EQ(trace->workload, "KV");
    ASSERT_EQ(trace->numProcs, 8u);

    for (ProtocolScheme ps :
         {ProtocolScheme::Mesi, ProtocolScheme::Moesi}) {
        MachineConfig cfg = smallCfg();
        cfg.protocol = ps;
        auto run = [&](RunReport *r) {
            TraceWorkload w(trace);
            Machine m(cfg);
            RunMetrics metrics = runWorkload(m, w);
            *r = m.report();
            return metrics;
        };
        RunReport r1, r2;
        const RunMetrics m1 = run(&r1);
        run(&r2);
        EXPECT_GT(m1.execCycles, 0u) << enumName(ps);
        EXPECT_GT(m1.references, 0u) << enumName(ps);
        EXPECT_EQ(strippedJson(r1), strippedJson(r2))
            << enumName(ps);
    }
}
#endif

} // namespace
} // namespace prism
