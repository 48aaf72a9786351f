/**
 * @file
 * KV: a partitioned in-memory key-value store under open-loop
 * YCSB-style load — the server-traffic workload regime (skewed,
 * read-heavy, migratory hot pages) that the paper's SPLASH kernels
 * never exercise.
 *
 * The keyspace is sharded across nodes: partition p's index and value
 * slots live on pages whose static home is node p (the layout strides
 * pages by the node count, JArena-style node-local placement).  Each
 * processor is an independent open-loop request source: arrival i is
 * *scheduled* at phaseStart + i * interarrival cycles and the
 * generator never waits for a response before scheduling the next
 * arrival, so measured latency includes queueing delay
 * (coordinated-omission-free).  Keys are drawn from a seedable
 * Zipfian sampler (Gray's algorithm on sim/rng.hh) or uniformly at
 * theta = 0, with optional hot-key churn that rotates the head of the
 * distribution onto fresh keys mid-run.
 *
 * Per-request latency is tallied host-side per op type and folded
 * into the machine's KvLatency histograms ("workload" component), so
 * --report emits kv.{read,update,insert,scan}.latency with
 * p50/p95/p99.
 */

#ifndef PRISM_WORKLOAD_KVSTORE_HH
#define PRISM_WORKLOAD_KVSTORE_HH

#include <vector>

#include "core/metrics.hh"
#include "workload/apps.hh"
#include "workload/workload.hh"

namespace prism {

/** YCSB-style operation mixes. */
enum class KvMix : std::uint8_t {
    A, //!< update-heavy: 50% read / 50% update
    B, //!< read-mostly:  95% read /  5% update
    C, //!< read-only:   100% read
    D, //!< read-latest:  95% read /  5% insert
    E, //!< short scans:  95% scan /  5% insert
};

template <>
inline constexpr std::array kNames<KvMix> = {"A", "B", "C", "D", "E"};
static_assert(namedThrough(KvMix::E));
/** The PRISM_KV_MIX registry row spells the mixes in lower case. */
template <>
inline constexpr bool kFoldCase<KvMix> = true;

/**
 * Seedable Zipfian rank sampler (Gray et al.'s algorithm, as used by
 * the YCSB generator): rank 0 is the most popular, P(rank) is
 * proportional to 1/(rank+1)^theta.  theta = 0 degenerates to a
 * uniform draw.  Construction is O(n) (harmonic sum); sampling is
 * O(1) and consumes exactly one Rng draw.
 */
class ZipfianSampler
{
  public:
    ZipfianSampler(std::uint64_t n, double theta);

    /** Draw a rank in [0, n). */
    std::uint64_t operator()(Rng &rng) const;

    std::uint64_t n() const { return n_; }
    double theta() const { return theta_; }

  private:
    std::uint64_t n_;
    double theta_;
    double alpha_ = 0;
    double zetan_ = 0;
    double eta_ = 0;
};

/** The partitioned KV store workload. */
class KvStoreWorkload : public Workload
{
  public:
    struct Params {
        std::uint64_t keys = 1ULL << 17;     //!< initial keyspace
        std::uint64_t requests = 1ULL << 20; //!< total ops, all procs
        std::uint32_t valueBytes = 128;      //!< per-value payload
        KvMix mix = KvMix::B;
        double theta = 0.99;          //!< Zipfian skew; 0 = uniform
        std::uint32_t scanMax = 16;   //!< max keys per scan op
        std::uint64_t churnPeriod = 0; //!< per-proc reqs per hot-key
                                       //!< rotation; 0 disables churn
        std::uint32_t interarrival = 400; //!< cycles between arrivals
        std::uint64_t seed = 2026;
    };

    KvStoreWorkload() : KvStoreWorkload(Params{}) {}
    explicit KvStoreWorkload(const Params &p) : params_(p) {}

    const char *name() const override { return "KV"; }
    std::string sizeDesc() const override;
    void setup(Machine &m) override;
    CoTask body(Proc &p, std::uint32_t tid, std::uint32_t nt) override;

    /**
     * Shard-safe: all host state is either read-only after setup()
     * (params, sampler, layout) or written in tid-disjoint slices
     * (per-proc latency tallies, per-proc insert counters) that tid 0
     * reads only after the final barrier.
     */
    bool shardSafe() const override { return true; }

    // --- Layout (exposed for the partition-routing tests) ------------

    /** Owning partition (== static home node) of @p key. */
    std::uint32_t partOf(std::uint64_t key) const
    {
        return static_cast<std::uint32_t>(key % nParts_);
    }

    /** Simulated address of @p key 's 8-byte index slot. */
    VAddr indexAddr(std::uint64_t key) const;

    /** Simulated address of @p key 's value record. */
    VAddr valueAddr(std::uint64_t key) const;

    /** Global page number backing simulated address @p va. */
    GPage gpageOf(VAddr va) const;

    const Params &params() const { return params_; }

  private:
    std::uint64_t keyOf(std::uint64_t rank, std::uint64_t epoch) const;
    CoTask opRead(Proc &p, std::uint64_t key);
    CoTask opWrite(Proc &p, std::uint64_t key);

    Params params_;
    std::vector<ZipfianSampler> sampler_; //!< 0 or 1 (no default ctor)

    // Layout, fixed by setup().
    std::uint64_t gsid_ = 0;
    std::uint64_t nParts_ = 1;
    std::uint64_t align_ = 0; //!< pages skipped so part 0 homes on node 0
    std::uint64_t idxSlotsPerPage_ = 0;
    std::uint64_t valSlotsPerPage_ = 0;
    std::uint64_t idxPagesPerPart_ = 0;
    std::uint64_t valPagesPerPart_ = 0;
    std::uint64_t valueLines_ = 0;
    std::uint64_t insertCapPerProc_ = 0;

    // Per-proc tallies (tid-disjoint until the final barrier).
    struct Tally {
        Histogram read{latencyBounds()};
        Histogram update{latencyBounds()};
        Histogram insert{latencyBounds()};
        Histogram scan{latencyBounds()};
        std::uint64_t inserted = 0;
    };
    std::vector<Tally> tallies_;

    /** The machine's per-op-type histograms (--report), from setup(). */
    KvLatency *lat_ = nullptr;
};

/** The KV problem-size preset for @p scale (shared with kv_sweep). */
KvStoreWorkload::Params kvParamsFor(AppScale scale);

} // namespace prism

#endif // PRISM_WORKLOAD_KVSTORE_HH
