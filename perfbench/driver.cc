/**
 * @file
 * One sweep of one benchmark workload through the prism library's
 * public entry points, in the steps runPolicySweep takes:
 *
 *   calibrationConfig -> Machine::Machine -> Workload::setup ->
 *   Machine::run -> scoma70Caps / policyConfig per policy ->
 *   Machine::metrics / Machine::report
 *
 * Usage:
 *   perfbench_driver --workload <name> --seed <n> --scale small|tiny
 *                    --shards <n> --trace 0|1 --out <path>
 *
 * Host time is measured from outside the library: one span per call
 * into each step, plus (with --trace 1, sequential machines only) a
 * RefSink that splits Machine::run at the program-interface boundary.
 * Simulated work comes from the run reports.  The JSON written to
 * --out holds per-simulation spans and counts, every run report, and
 * the latency histograms merged over the sweep; perfbench/run.py turns
 * it into the benchmark's metrics.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/machine.hh"
#include "frontend/ref_sink.hh"
#include "obs/json.hh"
#include "sim/logging.hh"
#include "workload/apps.hh"
#include "workload/barnes.hh"
#include "workload/experiment.hh"
#include "workload/fft.hh"
#include "workload/kvstore.hh"
#include "workload/lu.hh"
#include "workload/mp3d.hh"
#include "workload/ocean.hh"
#include "workload/radix.hh"
#include "workload/water.hh"
#include "workload/workload.hh"

namespace {

using namespace prism;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double
seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

double
micros(Clock::time_point t)
{
    return std::chrono::duration<double, std::micro>(t - kEpoch).count();
}

template <typename W, typename P>
AppSpec
spec(std::string name, P params)
{
    return AppSpec{std::move(name),
                   [params] { return std::make_unique<W>(params); }};
}

/**
 * The eight SPLASH apps with the library's presets (apps.cc) and each
 * seeded app's seed offset by @p seed; seed 0 is the library's preset.
 * checkPresets() keeps the sizes in step with the library.
 */
std::vector<AppSpec>
splashApps(AppScale scale, std::uint64_t seed)
{
    BarnesWorkload::Params barnes;
    FftWorkload::Params fft;
    LuWorkload::Params lu;
    Mp3dWorkload::Params mp3d;
    OceanWorkload::Params ocean;
    RadixWorkload::Params radix;
    WaterParams nsq;
    WaterParams spa;
    if (scale == AppScale::Small) {
        barnes = {1024, 2, 1.0, 7};
        fft = {12};
        lu = {128, 16};
        mp3d = {4000, 2, 12, 11};
        ocean = {66, 2, 1};
        radix = {1u << 16, 1024, 30, 42};
        nsq = {216, 2, 0.45, 23, 400};
        spa = {216, 2, 0.25, 23, 1500};
    } else {
        barnes = {256, 1, 1.2, 7};
        fft = {8};
        lu = {64, 16};
        mp3d = {500, 1, 8, 11};
        ocean = {34, 1, 1};
        radix = {1u << 12, 256, 24, 42};
        nsq = {64, 1, 0.45, 23, 400};
        spa = {64, 1, 0.3, 23, 1500};
    }
    barnes.seed += seed;
    mp3d.seed += seed;
    radix.seed += seed;
    nsq.seed += seed;
    spa.seed += seed;
    return {spec<BarnesWorkload>("Barnes", barnes),
            spec<FftWorkload>("FFT", fft),
            spec<LuWorkload>("LU", lu),
            spec<Mp3dWorkload>("MP3D", mp3d),
            spec<OceanWorkload>("Ocean", ocean),
            spec<RadixWorkload>("Radix", radix),
            spec<WaterNsqWorkload>("Water-Nsq", nsq),
            spec<WaterSpaWorkload>("Water-Spa", spa)};
}

/** Fail if @p apps' sizes drifted from standardApps(@p scale). */
void
checkPresets(const std::vector<AppSpec> &apps, AppScale scale)
{
    const std::vector<AppSpec> lib = standardApps(scale);
    for (const AppSpec &a : apps) {
        const auto it =
            std::find_if(lib.begin(), lib.end(), [&a](const AppSpec &l) {
                return l.name == a.name;
            });
        if (it == lib.end())
            fatal("perfbench: app '%s' is not a library app",
                  a.name.c_str());
        const std::string ours = a.make()->sizeDesc();
        const std::string theirs = it->make()->sizeDesc();
        if (ours != theirs)
            fatal("perfbench: %s preset '%s' differs from the "
                  "library's '%s'",
                  a.name.c_str(), ours.c_str(), theirs.c_str());
    }
}

/** One benchmark workload: the apps it sweeps and its base machine. */
struct WorkloadDef {
    std::vector<AppSpec> apps;
    MachineConfig machine;
    /** KV requests each simulation issues; 0 for the SPLASH apps. */
    std::uint64_t kvRequests = 0;
};

WorkloadDef
workloadDef(const std::string &name, AppScale scale, std::uint64_t seed,
            std::uint32_t shards)
{
    WorkloadDef d;
    d.machine.seed += seed;
    if (name == "splash-fig7") {
        d.apps = splashApps(scale, seed);
        checkPresets(d.apps, scale);
        return d;
    }
    KvStoreWorkload::Params kv = kvParamsFor(scale);
    kv.seed += seed;
    d.kvRequests = kv.requests;
    if (name == "kv-zipf-1024") {
        // kvParamsFor's mix B, Zipf 0.99 with churn; scale_sweep's
        // 128x8 preset on the sharded loop.
        d.machine.numNodes = 128;
        d.machine.procsPerNode = 8;
        d.machine.jobsIntra = shards;
        d.apps = {spec<KvStoreWorkload>("KV", kv)};
    } else if (name == "kv-update-8x4") {
        kv.mix = KvMix::A;
        kv.theta = 0.0;
        d.apps = {spec<KvStoreWorkload>("KV-A-u", kv)};
    } else {
        fatal("perfbench: unknown workload '%s' (valid: splash-fig7 "
              "kv-zipf-1024 kv-update-8x4)",
              name.c_str());
    }
    return d;
}

/**
 * Splits Machine::run's host time at the program-interface boundary.
 * Each callback closes an interval: one in which no event ran is the
 * workload generator plus the Proc fast path (TLB, L1/L2 hits); any
 * other is the event loop (dispatch, bus, controller and directory,
 * network, kernel, sync).  Reads shard 0's queue, so it is only
 * attached to sequential machines.
 */
class BoundarySplit final : public RefSink
{
  public:
    explicit BoundarySplit(const EventQueue &eq) : eq_(eq) {}
    BoundarySplit(const BoundarySplit &) = delete;
    BoundarySplit &operator=(const BoundarySplit &) = delete;

    void
    begin(Clock::time_point t)
    {
        last_ = t;
        lastEvents_ = eq_.eventsExecuted();
    }

    /** Close the last interval at the end of Machine::run. */
    void end(Clock::time_point t) { close(t); }

    void access(ProcId, VAddr, bool) override { close(Clock::now()); }
    void compute(ProcId, Cycles) override { close(Clock::now()); }
    void sync(ProcId, RefOp, std::uint64_t) override { close(Clock::now()); }
    void segGet(std::uint64_t, std::uint64_t, std::uint64_t) override {}
    void segAttach(std::uint64_t, std::uint64_t) override {}

    Clock::duration fastPath{};
    Clock::duration eventLoop{};

  private:
    void
    close(Clock::time_point t)
    {
        const std::uint64_t e = eq_.eventsExecuted();
        (e == lastEvents_ ? fastPath : eventLoop) += t - last_;
        last_ = t;
        lastEvents_ = e;
    }

    const EventQueue &eq_;
    Clock::time_point last_{};
    std::uint64_t lastEvents_ = 0;
};

/** A host-time span, written out as a Chrome-trace complete event. */
struct Span {
    const char *name;
    std::size_t sim;
    Clock::time_point t0, t1;
    int probe = -1; //!< setup repetition index; -1 for the sweep
};

/** One (app, policy) simulation of the sweep. */
struct Sim {
    const AppSpec *app = nullptr; //!< into the sweep's WorkloadDef
    PolicyKind policy{};
    MachineConfig cfg;
    double buildS = 0, workloadSetupS = 0, runS = 0, reportS = 0;
    std::vector<double> setupSamples; //!< Machine ctor + setup, each
    std::uint64_t events = 0;
    bool split = false; //!< the boundary split below was measured
    double fastPathS = 0, eventLoopS = 0;
    RunMetrics metrics;
    RunReport report;
};

class Sweep
{
  public:
    Sweep(WorkloadDef def, bool traced)
        : def_(std::move(def)), traced_(traced)
    {
    }

    /** The sweep itself: calibration run, then one run per policy. */
    void
    run()
    {
        const auto t0 = Clock::now();
        for (const AppSpec &app : def_.apps) {
            const RunMetrics &scoma =
                simulate(app, PolicyKind::Scoma,
                         calibrationConfig(def_.machine));
            const std::vector<std::uint64_t> caps =
                scoma70Caps(scoma, RunSpec{}.capFraction);
            for (PolicyKind pk : paperPolicies()) {
                if (pk != PolicyKind::Scoma)
                    simulate(app, pk, policyConfig(def_.machine, pk, caps));
            }
        }
        wallS_ = seconds(Clock::now() - t0);
    }

    /**
     * Repeat each simulation's Machine::Machine + Workload::setup
     * @p extra more times, so setup time is a median of 1 + extra.
     */
    void
    probeSetup(int extra)
    {
        for (std::size_t i = 0; i < sims_.size(); ++i) {
            Sim &s = sims_[i];
            for (int k = 0; k < extra; ++k) {
                auto w = s.app->make();
                const auto t0 = Clock::now();
                Machine m(s.cfg);
                const auto t1 = Clock::now();
                w->setup(m);
                const auto t2 = Clock::now();
                spans_.push_back({"Machine::Machine", i, t0, t1, k});
                spans_.push_back({"Workload::setup", i, t1, t2, k});
                s.setupSamples.push_back(seconds(t2 - t0));
            }
        }
    }

    void write(JsonWriter &w, const std::string &workload) const;

  private:
    const RunMetrics &
    simulate(const AppSpec &app, PolicyKind pk, const MachineConfig &cfg)
    {
        const std::size_t id = sims_.size();
        Sim &s = sims_.emplace_back();
        s.app = &app;
        s.policy = pk;
        s.cfg = cfg;

        const auto t0 = Clock::now();
        {
            auto w = app.make();
            const auto t1 = Clock::now();
            Machine m(cfg);
            const auto t2 = Clock::now();
            if (m.numShards() > 1 && !w->shardSafe())
                fatal("perfbench: %s is not shard-safe", w->name());
            shards_ = std::max(shards_, m.numShards());
            std::optional<BoundarySplit> split;
            if (traced_ && m.numShards() == 1) {
                split.emplace(m.eventQueue());
                m.setRefSink(&*split);
            }
            w->setup(m);
            const auto t3 = Clock::now();
            const std::uint32_t n = m.numProcs();
            if (split)
                split->begin(t3);
            m.run([&w, n](Proc &p) { return w->body(p, p.id(), n); });
            const auto t4 = Clock::now();
            if (split) {
                split->end(t4);
                m.setRefSink(nullptr);
                s.split = true;
                s.fastPathS = seconds(split->fastPath);
                s.eventLoopS = seconds(split->eventLoop);
            }
            s.metrics = m.metrics();
            s.report = m.report();
            const auto t5 = Clock::now();

            s.buildS = seconds(t2 - t1);
            s.workloadSetupS = seconds(t3 - t2);
            s.setupSamples.push_back(seconds(t3 - t1));
            s.runS = seconds(t4 - t3);
            s.reportS = seconds(t5 - t4);
            s.events = m.eventsExecuted();
            spans_.push_back({"Machine::Machine", id, t1, t2});
            spans_.push_back({"Workload::setup", id, t2, t3});
            spans_.push_back({"Machine::run", id, t3, t4});
            spans_.push_back({"Machine::report", id, t4, t5});
            for (const auto &e : m.metricRegistry().histograms()) {
                hist_.try_emplace(e.labels.component + "." + e.labels.name,
                                  std::vector<std::uint64_t>{})
                    .first->second.merge(e.histogram());
            }
            // Machine, then workload, are torn down inside the span.
        }
        spans_.push_back({"simulation", id, t0, Clock::now()});
        return s.metrics;
    }

    WorkloadDef def_;
    bool traced_;
    std::vector<Sim> sims_;
    std::vector<Span> spans_;
    std::map<std::string, Histogram> hist_;
    std::uint32_t shards_ = 1;
    double wallS_ = 0;
};

void
Sweep::write(JsonWriter &w, const std::string &workload) const
{
    w.beginObject();
    w.kv("compiler", PERFBENCH_COMPILER);
    w.kv("build_type", PERFBENCH_BUILD_TYPE);
    w.kv("workload", workload);
    w.kv("shards", shards_);
    w.kv("wall_s", wallS_);
    w.kv("kv_requests", def_.kvRequests);

    w.key("sims");
    w.beginArray();
    for (const Sim &s : sims_) {
        std::vector<double> samples = s.setupSamples;
        std::sort(samples.begin(), samples.end());
        w.beginObject();
        w.kv("app", s.app->name);
        w.kv("policy", policyName(s.policy));
        w.kv("build_s", s.buildS);
        w.kv("workload_setup_s", s.workloadSetupS);
        w.kv("setup_s", samples[samples.size() / 2]);
        w.kv("run_s", s.runS);
        w.kv("report_s", s.reportS);
        w.kv("events", s.events);
        if (s.split) {
            w.kv("fastpath_s", s.fastPathS);
            w.kv("eventloop_s", s.eventLoopS);
        }
        w.key("report");
        s.report.writeJson(w);
        w.endObject();
    }
    w.endArray();

    // Remote reads of either kind, the SPLASH analogue of a KV read.
    std::map<std::string, Histogram> hist = hist_;
    Histogram &reads = hist.try_emplace("ctrl.latency.read2+3",
                                        std::vector<std::uint64_t>{})
                           .first->second;
    for (const char *name : {"ctrl.latency.read2", "ctrl.latency.read3"}) {
        if (const auto it = hist_.find(name); it != hist_.end())
            reads.merge(it->second);
    }

    w.key("histograms");
    w.beginObject();
    for (const auto &[name, h] : hist) {
        w.key(name);
        w.beginObject();
        w.kv("count", h.count());
        w.kv("p50", h.quantile(0.50));
        w.kv("p99", h.quantile(0.99));
        w.kv("max", h.max());
        w.endObject();
    }
    w.endObject();

    w.key("traceEvents");
    w.beginArray();
    for (const Span &sp : spans_) {
        const Sim &s = sims_[sp.sim];
        w.beginObject();
        w.kv("name", sp.name);
        w.kv("cat", sp.probe < 0 ? "sweep" : "setup-probe");
        w.kv("ph", "X");
        w.kv("ts", micros(sp.t0));
        w.kv("dur", micros(sp.t1) - micros(sp.t0));
        w.kv("pid", 1);
        w.kv("tid", sp.probe < 0 ? 1 : 2);
        w.key("args");
        w.beginObject();
        w.kv("sim", static_cast<std::uint64_t>(sp.sim));
        w.kv("app", s.app->name);
        w.kv("policy", policyName(s.policy));
        if (sp.probe >= 0)
            w.kv("probe", sp.probe);
        if (s.split && sp.probe < 0 &&
            !std::strcmp(sp.name, "Machine::run")) {
            w.kv("fastpath_s", s.fastPathS);
            w.kv("eventloop_s", s.eventLoopS);
        }
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
}

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --scale "
                 "small|tiny --shards <n> --trace 0|1 --out <path>\n",
                 argv0);
    std::exit(2);
}

std::uint64_t
parseU64(const char *flag, const char *s)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s, &end, 10);
    if (!*s || *end || *s == '-')
        fatal("perfbench: %s wants a non-negative integer, got '%s'",
              flag, s);
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, out;
    std::string scaleName = "small";
    std::uint64_t seed = 0, shards = 1, trace = 0;
    for (int i = 1; i + 1 < argc; i += 2) {
        const char *flag = argv[i];
        const char *v = argv[i + 1];
        if (!std::strcmp(flag, "--workload"))
            workload = v;
        else if (!std::strcmp(flag, "--seed"))
            seed = parseU64(flag, v);
        else if (!std::strcmp(flag, "--scale"))
            scaleName = v;
        else if (!std::strcmp(flag, "--shards"))
            shards = parseU64(flag, v);
        else if (!std::strcmp(flag, "--trace"))
            trace = parseU64(flag, v);
        else if (!std::strcmp(flag, "--out"))
            out = v;
        else
            usage(argv[0]);
    }
    if (argc % 2 == 0 || workload.empty() || out.empty() || trace > 1 ||
        shards < 1 || shards > 64 ||
        (scaleName != "small" && scaleName != "tiny"))
        usage(argv[0]);
    const AppScale scale =
        scaleName == "small" ? AppScale::Small : AppScale::Tiny;

    Sweep sweep(workloadDef(workload, scale, seed,
                            static_cast<std::uint32_t>(shards)),
                trace == 1);
    sweep.run();
    // Setup takes milliseconds per simulation, so a single sample is
    // mostly allocator and page-fault noise; report a median of nine.
    sweep.probeSetup(8);

    std::ofstream os(out);
    if (!os)
        fatal("perfbench: cannot write '%s'", out.c_str());
    JsonWriter w(os);
    sweep.write(w, workload);
    os << "\n";
    os.close();
    if (!os)
        fatal("perfbench: writing '%s' failed", out.c_str());
    return 0;
}
