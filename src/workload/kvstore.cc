#include "workload/kvstore.hh"

#include <cmath>
#include <cstdio>

namespace prism {

namespace {

/** Cycles charged per request for parsing/hashing/dispatch. */
constexpr Cycles kRequestOverhead = 8;

/** SplitMix64 finalizer: scatters ranks across the keyspace. */
std::uint64_t
mix64(std::uint64_t z)
{
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/** Cumulative percentage thresholds for (read, update, insert). */
struct MixRatios {
    std::uint32_t read;
    std::uint32_t update;
    std::uint32_t insert; // remainder up to 100 is scan
};

MixRatios
mixRatios(KvMix m)
{
    switch (m) {
      case KvMix::A: return {50, 100, 100};
      case KvMix::B: return {95, 100, 100};
      case KvMix::C: return {100, 100, 100};
      case KvMix::D: return {95, 95, 100};
      case KvMix::E: return {0, 0, 5}; // 5% insert, 95% scan
    }
    return {100, 100, 100};
}

} // namespace

ZipfianSampler::ZipfianSampler(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    prism_assert(n_ >= 1, "Zipfian sampler over an empty keyspace");
    prism_assert(theta_ >= 0.0 && theta_ < 1.0,
                 "Zipfian theta must be in [0, 1)");
    if (theta_ == 0.0)
        return; // uniform: no harmonic precomputation needed
    double zetan = 0.0;
    for (std::uint64_t i = 1; i <= n_; ++i)
        zetan += 1.0 / std::pow(static_cast<double>(i), theta_);
    zetan_ = zetan;
    alpha_ = 1.0 / (1.0 - theta_);
    const double zeta2 = 1.0 + std::pow(0.5, theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_),
                           1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
}

std::uint64_t
ZipfianSampler::operator()(Rng &rng) const
{
    if (theta_ == 0.0)
        return rng.below(n_);
    const double u = rng.uniform();
    const double uz = u * zetan_;
    if (uz < 1.0)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return 1;
    auto rank = static_cast<std::uint64_t>(
        static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return rank < n_ ? rank : n_ - 1;
}

std::string
KvStoreWorkload::sizeDesc() const
{
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "%llu keys x %llu reqs, mix %s, zipf %.2f",
                  static_cast<unsigned long long>(params_.keys),
                  static_cast<unsigned long long>(params_.requests),
                  enumName(params_.mix), params_.theta);
    return buf;
}

void
KvStoreWorkload::setup(Machine &m)
{
    prism_assert(params_.valueBytes >= 8 &&
                     params_.valueBytes <= kPageBytes,
                 "KV valueBytes must be in [8, page size]");
    prism_assert(params_.keys >= 1 && params_.requests >= 1,
                 "KV needs at least one key and one request");

    nParts_ = m.numNodes();
    const std::uint32_t nprocs = m.numProcs();
    insertCapPerProc_ = params_.requests / nprocs + 2;
    const std::uint64_t max_keys =
        params_.keys + std::uint64_t{nprocs} * insertCapPerProc_;
    const std::uint64_t slots_per_part =
        (max_keys + nParts_ - 1) / nParts_;

    idxSlotsPerPage_ = kPageBytes / 8;
    valSlotsPerPage_ = kPageBytes / params_.valueBytes;
    idxPagesPerPart_ =
        (slots_per_part + idxSlotsPerPage_ - 1) / idxSlotsPerPage_;
    valPagesPerPart_ =
        (slots_per_part + valSlotsPerPage_ - 1) / valSlotsPerPage_;
    valueLines_ = (params_.valueBytes + 63) / 64;

    // +nParts_ pages of slack: align_ is only known once the segment
    // id is, and costs at most nParts_ - 1 pages.
    const std::uint64_t pages =
        nParts_ * (idxPagesPerPart_ + valPagesPerPart_) + nParts_;
    gsid_ = m.shmget(/*key=*/0x4B57, pages * kPageBytes);
    m.shmatAll(kSharedVsid, gsid_);

    // Partition p's pages must home on node p: staticHomeOf is
    // gpage % numNodes, so skip pages until the region base is
    // 0 mod nParts_, then stride each partition's pages by nParts_.
    const std::uint64_t base_mod =
        (gsid_ << kPageNumBits) % nParts_;
    align_ = (nParts_ - base_mod) % nParts_;

    sampler_.clear();
    sampler_.emplace_back(params_.keys, params_.theta);
    tallies_.assign(nprocs, Tally{});

    lat_ = &m.kvLatency();
}

VAddr
KvStoreWorkload::indexAddr(std::uint64_t key) const
{
    const std::uint64_t part = key % nParts_;
    const std::uint64_t slot = key / nParts_;
    const std::uint64_t page =
        align_ + (slot / idxSlotsPerPage_) * nParts_ + part;
    return VAddr{(kSharedVsid << kSegShift) + page * kPageBytes +
                 (slot % idxSlotsPerPage_) * 8};
}

VAddr
KvStoreWorkload::valueAddr(std::uint64_t key) const
{
    const std::uint64_t part = key % nParts_;
    const std::uint64_t slot = key / nParts_;
    const std::uint64_t val_base =
        align_ + nParts_ * idxPagesPerPart_;
    const std::uint64_t page =
        val_base + (slot / valSlotsPerPage_) * nParts_ + part;
    return VAddr{(kSharedVsid << kSegShift) + page * kPageBytes +
                 (slot % valSlotsPerPage_) * params_.valueBytes};
}

GPage
KvStoreWorkload::gpageOf(VAddr va) const
{
    const std::uint64_t off = va.raw - (kSharedVsid << kSegShift);
    return (gsid_ << kPageNumBits) + (off >> kPageShift);
}

std::uint64_t
KvStoreWorkload::keyOf(std::uint64_t rank, std::uint64_t epoch) const
{
    // Scramble rank -> key id (YCSB-style hashed key order) so the
    // Zipfian head is scattered across partitions; the churn epoch
    // shifts the whole mapping, rotating the hot set onto new keys.
    return mix64(rank + 1 + epoch * 0x9e3779b97f4a7c15ULL) %
           params_.keys;
}

CoTask
KvStoreWorkload::opRead(Proc &p, std::uint64_t key)
{
    co_await p.read(indexAddr(key));
    const VAddr v = valueAddr(key);
    for (std::uint64_t l = 0; l < valueLines_; ++l)
        co_await p.read(VAddr{v.raw + l * 64});
}

CoTask
KvStoreWorkload::opWrite(Proc &p, std::uint64_t key)
{
    co_await p.write(indexAddr(key));
    const VAddr v = valueAddr(key);
    for (std::uint64_t l = 0; l < valueLines_; ++l)
        co_await p.write(VAddr{v.raw + l * 64});
}

CoTask
KvStoreWorkload::body(Proc &p, std::uint32_t tid, std::uint32_t nt)
{
    // Load phase: populate the initial keyspace, keys striped by tid
    // (touches every partition from every node, as a real bulk load
    // would).  Unmeasured: runs before beginParallel.
    for (std::uint64_t k = tid; k < params_.keys; k += nt) {
        co_await opWrite(p, k);
        p.compute(1);
    }

    co_await p.barrier(0);
    if (tid == 0)
        co_await p.beginParallel();
    co_await p.barrier(0);

    const MixRatios mix = mixRatios(params_.mix);
    const std::uint64_t per = params_.requests / nt;
    const std::uint64_t reqs =
        per + (tid < params_.requests % nt ? 1 : 0);
    Rng rng(params_.seed ^ mix64(tid + 1));
    Tally &tally = tallies_[tid];
    const Tick t0 = p.localNow();

    for (std::uint64_t i = 0; i < reqs; ++i) {
        // Open-loop pacing: arrival i is scheduled in absolute time,
        // independent of how long earlier requests took.  Idle until
        // the arrival if we are ahead; if we are behind, the backlog
        // delay is part of the measured latency (no coordinated
        // omission).
        const Tick arrival =
            t0 + i * Tick{params_.interarrival};
        const Tick now = p.localNow();
        if (now < arrival)
            p.compute(arrival - now);

        const std::uint64_t epoch =
            params_.churnPeriod ? i / params_.churnPeriod : 0;
        const std::uint64_t pick = rng.below(100);
        p.compute(kRequestOverhead);

        if (pick < mix.read) {
            const std::uint64_t key = keyOf(sampler_[0](rng), epoch);
            co_await opRead(p, key);
            tally.read.sample(p.localNow() - arrival);
        } else if (pick < mix.update) {
            const std::uint64_t key = keyOf(sampler_[0](rng), epoch);
            co_await opWrite(p, key);
            tally.update.sample(p.localNow() - arrival);
        } else if (pick < mix.insert) {
            prism_assert(tally.inserted < insertCapPerProc_,
                         "KV insert capacity exceeded");
            const std::uint64_t key =
                params_.keys +
                std::uint64_t{tid} * insertCapPerProc_ +
                tally.inserted++;
            co_await p.read(indexAddr(key)); // existence probe
            co_await opWrite(p, key);
            tally.insert.sample(p.localNow() - arrival);
        } else {
            const std::uint64_t start =
                keyOf(sampler_[0](rng), epoch);
            const std::uint64_t len = rng.range(1, params_.scanMax);
            for (std::uint64_t j = 0; j < len; ++j) {
                co_await opRead(p,
                                (start + j) % params_.keys);
                p.compute(1);
            }
            tally.scan.sample(p.localNow() - arrival);
        }
    }

    co_await p.barrier(0);

    if (tid == 0) {
        // Fold the tid-disjoint tallies in tid order (deterministic
        // regardless of scheduling or shard count).
        for (const Tally &t : tallies_) {
            lat_->read.merge(t.read);
            lat_->update.merge(t.update);
            lat_->insert.merge(t.insert);
            lat_->scan.merge(t.scan);
        }
        co_await p.endParallel();
    }
}

KvStoreWorkload::Params
kvParamsFor(AppScale scale)
{
    KvStoreWorkload::Params p;
    switch (scale) {
      // interarrival targets moderate load (~0.7 utilization at the
      // SCOMA service rate), so the latency histograms measure the
      // memory system, not an unbounded arrival backlog; capped
      // policies with slower service still build real queues.
      case AppScale::Paper:
        p.keys = 1ULL << 17;
        p.requests = 1ULL << 20;
        p.churnPeriod = 8192;
        p.interarrival = 3000;
        break;
      case AppScale::Small:
        p.keys = 1ULL << 14;
        p.requests = 1ULL << 16;
        p.churnPeriod = 512;
        p.interarrival = 3000;
        break;
      case AppScale::Tiny:
        p.keys = 1ULL << 10;
        p.requests = 1ULL << 13;
        p.churnPeriod = 128;
        p.interarrival = 3000;
        break;
    }
    return p;
}

} // namespace prism
