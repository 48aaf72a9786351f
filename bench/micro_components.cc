/**
 * @file
 * Host-side component micro-benchmarks (google-benchmark): throughput
 * of the hot simulator data structures.  These measure the simulator
 * itself, not the simulated machine.
 */

#include <benchmark/benchmark.h>

#include <functional>
#include <vector>

#include "coherence/directory.hh"
#include "coherence/pit.hh"
#include "mem/cache.hh"
#include "mem/tlb.hh"
#include "os/page_table.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/shard.hh"
#include "sim/task.hh"

namespace prism {
namespace {

/**
 * A capture the size of the simulator's largest (Machine::route's
 * this + pooled Msg pointer, plus padding up to three words): big
 * enough to defeat libstdc++'s 16-byte std::function SBO, which
 * InlineCallback stores without allocating.
 */
struct FatCapture {
    std::uint64_t *sink;
    std::uint64_t a, b;
};

void
BM_CacheLookupHit(benchmark::State &state)
{
    SetAssocCache c(32 * 1024, 4, 64);
    for (std::uint64_t a = 0; a < 32 * 1024; a += 64)
        c.insert(a, Mesi::Shared);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.lookup(addr));
        addr = (addr + 64) & (32 * 1024 - 1);
    }
}
BENCHMARK(BM_CacheLookupHit);

void
BM_CacheInsertEvict(benchmark::State &state)
{
    SetAssocCache c(8 * 1024, 1, 64);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.insert(addr, Mesi::Modified));
        addr += 64;
    }
}
BENCHMARK(BM_CacheInsertEvict);

void
BM_TlbLookup(benchmark::State &state)
{
    Tlb t(128);
    for (VPage vp = 0; vp < 128; ++vp)
        t.insert(vp, vp);
    VPage vp = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.lookup(vp));
        vp = (vp + 1) & 127;
    }
}
BENCHMARK(BM_TlbLookup);

void
BM_PitReverseHinted(benchmark::State &state)
{
    EventQueue eq;
    PageRecords pages(eq, 64, 8);
    Pit pit(pages, 2, 18);
    for (FrameNum f = 0; f < 1024; ++f)
        pit.install(f, 0x1000 + f, 0, 0, f, PageMode::Scoma, 64,
                    FgTag::Invalid);
    std::uint64_t i = 0;
    for (auto _ : state) {
        bool hash = false;
        benchmark::DoNotOptimize(
            pit.reverse(0x1000 + (i & 1023), i & 1023, hash));
        ++i;
    }
}
BENCHMARK(BM_PitReverseHinted);

void
BM_PitReverseHash(benchmark::State &state)
{
    EventQueue eq;
    PageRecords pages(eq, 64, 8);
    Pit pit(pages, 2, 18);
    for (FrameNum f = 0; f < 1024; ++f)
        pit.install(f, 0x1000 + f, 0, 0, f, PageMode::Scoma, 64,
                    FgTag::Invalid);
    std::uint64_t i = 0;
    for (auto _ : state) {
        bool hash = false;
        benchmark::DoNotOptimize(
            pit.reverse(0x1000 + (i & 1023), kInvalidFrame, hash));
        ++i;
    }
}
BENCHMARK(BM_PitReverseHash);

void
BM_DirectoryAccess(benchmark::State &state)
{
    Directory d(8192, 2, 22);
    Rng rng(1);
    for (auto _ : state) {
        GLine gl = rng.below(64 * 64);
        benchmark::DoNotOptimize(d.access(gl));
    }
}
BENCHMARK(BM_DirectoryAccess);

/**
 * SharerSet hot-path micros.  The Arg is the machine width in nodes:
 * 64 exercises the inline single-word representation (the <=64-node
 * fast path every paper-sized run lives on), 1024 the pooled
 * multi-word spill.  Add/remove/test churn on one set.
 */
void
BM_SharerSet_Churn(benchmark::State &state)
{
    const std::uint32_t nodes = static_cast<std::uint32_t>(state.range(0));
    SharerSet s;
    s.add(nodes - 1); // pre-size so the loop never reallocates
    Rng rng(7);
    for (auto _ : state) {
        NodeId n = static_cast<NodeId>(rng.below(nodes));
        s.add(n);
        benchmark::DoNotOptimize(s.test(n ^ 1));
        s.remove(n);
    }
}
BENCHMARK(BM_SharerSet_Churn)->Arg(64)->Arg(1024);

/**
 * Invalidation fan-out iteration: first()/next() word-scan over a set
 * with every 8th node a member (the directory's per-line sharer
 * density under a scattered read-shared page).
 */
void
BM_SharerSet_Iterate(benchmark::State &state)
{
    const std::uint32_t nodes = static_cast<std::uint32_t>(state.range(0));
    SharerSet s;
    for (NodeId n = 0; n < nodes; n += 8)
        s.add(n);
    for (auto _ : state) {
        std::uint32_t members = 0;
        for (NodeId n = s.first(); n != kInvalidNode; n = s.next(n))
            ++members;
        benchmark::DoNotOptimize(members);
    }
    state.SetItemsProcessed(state.iterations() * (nodes / 8));
}
BENCHMARK(BM_SharerSet_Iterate)->Arg(64)->Arg(1024);

/** Snapshot-for-fan-out copy (fromRef) as the protocol handler does. */
void
BM_SharerSet_Snapshot(benchmark::State &state)
{
    const std::uint32_t nodes = static_cast<std::uint32_t>(state.range(0));
    SharerSet s;
    for (NodeId n = 0; n < nodes; n += 8)
        s.add(n);
    SharerRef ref(s.words(), s.numWords());
    for (auto _ : state) {
        SharerSet copy = SharerSet::fromRef(ref);
        copy.remove(0);
        benchmark::DoNotOptimize(copy.count());
    }
}
BENCHMARK(BM_SharerSet_Snapshot)->Arg(64)->Arg(1024);

/**
 * Directory line mutation in the page records' home blocks: a LineRef
 * over the page's record, then the state/owner/sharer stores the
 * home-side protocol handler issues per request.  The handler already
 * holds the record (its line lock lives there), so the loop resolves
 * each record once; BM_PitReverseHash times the record lookup.  Arg
 * is the machine width.
 */
void
BM_Directory_LineMutate(benchmark::State &state)
{
    const std::uint32_t nodes = static_cast<std::uint32_t>(state.range(0));
    EventQueue eq;
    PageRecords pages(eq, 64, nodes);
    std::vector<PageRecords::Ref> recs;
    for (GPage gp = 0; gp < 64; ++gp) {
        recs.push_back(pages.get(gp));
        pages.setHome(recs.back(), pages.newHome());
    }
    Rng rng(3);
    for (auto _ : state) {
        GPage gp = rng.below(64);
        std::uint32_t li = rng.below(64);
        Directory::LineRef e(*recs[gp], li);
        NodeId n = static_cast<NodeId>(rng.below(nodes));
        e.setState(DirState::Shared);
        e.addSharer(n);
        benchmark::DoNotOptimize(e.sharerCount());
        e.removeSharer(n);
    }
}
BENCHMARK(BM_Directory_LineMutate)->Arg(8)->Arg(1024);

/**
 * Page churn over a steady population: 256 pages stay homed, and each
 * iteration drops a random one, freeing its record, and homes a new
 * page in its place.
 */
void
BM_Directory_PageChurn(benchmark::State &state)
{
    const std::uint32_t nodes = static_cast<std::uint32_t>(state.range(0));
    EventQueue eq;
    PageRecords pages(eq, 64, nodes);
    std::vector<GPage> live(256);
    for (GPage gp = 0; gp < live.size(); ++gp) {
        live[gp] = gp;
        pages.setHome(pages.get(gp), pages.newHome());
    }
    GPage next = live.size();
    Rng rng(9);
    for (auto _ : state) {
        GPage &slot = live[rng.below(live.size())];
        const PageRecords::Ref r = pages.find(slot);
        pages.setHome(r, nullptr);
        pages.settle(r);
        slot = next++;
        pages.setHome(pages.get(slot), pages.newHome());
    }
}
BENCHMARK(BM_Directory_PageChurn)->Arg(8)->Arg(1024);

void
BM_EventQueueScheduleRun(benchmark::State &state)
{
    EventQueue eq;
    std::uint64_t sink = 0;
    for (auto _ : state) {
        eq.scheduleIn(1, [&sink] { ++sink; });
        eq.runOne();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(sink));
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueScheduleRun);

CoTask
resumeLoop(EventQueue &eq, const bool &stop, std::uint64_t &sink)
{
    while (!stop) {
        co_await DelayAwaiter(eq, 1);
        ++sink;
    }
}

/**
 * Wake-up throughput: a coroutine parked on DelayAwaiter and resumed
 * through its wake-up key (no callback slot), one schedule and one
 * dispatch per iteration -- the shape of every delay, lock handoff
 * and latch release in src/.
 */
void
BM_EventQueueResume(benchmark::State &state)
{
    EventQueue eq;
    bool stop = false;
    std::uint64_t sink = 0;
    CoTask loop = resumeLoop(eq, stop, sink);
    loop.start();
    for (auto _ : state)
        eq.runOne();
    stop = true;
    eq.runAll();
    state.SetItemsProcessed(static_cast<std::int64_t>(sink));
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_EventQueueResume);

/**
 * Schedule+dispatch throughput with a populated heap and fat captures:
 * the realistic hot path.  Keeps a standing population of events at
 * pseudo-random future ticks (so every push/pop walks the heap) and
 * measures one schedule + one dispatch per iteration.
 */
template <typename Queue>
void
eventQueueChurn(benchmark::State &state)
{
    Queue eq;
    Rng rng(42);
    std::uint64_t sink = 0;
    constexpr int kPopulation = 512;
    FatCapture fat{&sink, 1, 2};
    for (int i = 0; i < kPopulation; ++i) {
        eq.scheduleIn(1 + rng.below(256),
                      [fat] { *fat.sink += fat.a + fat.b; });
    }
    for (auto _ : state) {
        eq.scheduleIn(1 + rng.below(256),
                      [fat] { *fat.sink += fat.a + fat.b; });
        eq.runOne();
    }
    eq.runAll();
    state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
    benchmark::DoNotOptimize(sink);
}

void
BM_EventQueueChurn(benchmark::State &state)
{
    eventQueueChurn<EventQueue>(state);
}
BENCHMARK(BM_EventQueueChurn);

// ---------------------------------------------------------------------
// mem_path micros: the per-access memory-hierarchy hot path (TLB,
// L1/L2 tag store, page table).  scripts/check_bench_regression.py
// tracks the MemPath set in CI; docs/PERFORMANCE.md keeps the numbers
// of the retired pre-overhaul implementations.  The bodies stay
// templates, as when they also ran those, so that their generated code
// and the CI comparison across builds stay unchanged.
// ---------------------------------------------------------------------

template <typename Tlb>
void
memPathTlbHit(benchmark::State &state)
{
    Tlb t(128);
    for (VPage vp = 0; vp < 128; ++vp)
        t.insert(vp, vp);
    VPage vp = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.lookup(vp));
        vp = (vp + 1) & 127;
    }
}

template <typename Tlb>
void
memPathTlbMiss(benchmark::State &state)
{
    Tlb t(128);
    for (VPage vp = 0; vp < 128; ++vp)
        t.insert(vp, vp);
    VPage vp = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(t.lookup(0x10000 + vp));
        vp = (vp + 1) & 1023;
    }
}

template <typename Tlb>
void
memPathTlbInsertEvict(benchmark::State &state)
{
    // Rotating through 4x capacity: every insert evicts the LRU entry.
    Tlb t(64);
    VPage vp = 0;
    for (auto _ : state) {
        t.insert(vp, vp);
        vp = (vp + 1) & 255;
    }
}

template <typename Cache>
void
memPathL1Hit(benchmark::State &state)
{
    // 32 KiB 4-way L1; hit + LRU touch, the per-access fast path.
    Cache c(32 * 1024, 4, 64);
    for (std::uint64_t a = 0; a < 32 * 1024; a += 64)
        c.insert(a, Mesi::Shared);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.lookup(addr));
        c.touch(addr);
        addr = (addr + 64) & (32 * 1024 - 1);
    }
}

template <typename Cache>
void
memPathL2Hit(benchmark::State &state)
{
    // Working set fits the 256 KiB L2 but not the 32 KiB L1: each
    // access misses L1, hits L2, and refills L1 (victim churn included).
    Cache l1(32 * 1024, 4, 64);
    Cache l2(256 * 1024, 8, 64);
    for (std::uint64_t a = 0; a < 256 * 1024; a += 64)
        l2.insert(a, Mesi::Exclusive);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(l1.lookup(addr));
        benchmark::DoNotOptimize(l2.lookup(addr));
        l2.touch(addr);
        benchmark::DoNotOptimize(l1.insert(addr, Mesi::Exclusive));
        addr = (addr + 64) & (256 * 1024 - 1);
    }
}

template <typename Cache>
void
memPathInsertEvict(benchmark::State &state)
{
    Cache c(8 * 1024, 1, 64);
    std::uint64_t addr = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(c.insert(addr, Mesi::Modified));
        addr += 64;
    }
}

template <typename Cache>
void
memPathInvalidateFrameHot(benchmark::State &state)
{
    // Page tear-down with resident lines: populate a 256 KiB cache
    // with background frames, then repeatedly flush and refill one
    // fully-resident page.
    Cache c(256 * 1024, 8, 64);
    for (FrameNum f = 8; f < 40; ++f)
        for (std::uint64_t off = 0; off < kPageBytes; off += 64)
            c.insert((f << kPageShift) | off, Mesi::Shared);
    for (auto _ : state) {
        for (std::uint64_t off = 0; off < kPageBytes; off += 64)
            c.insert((3ULL << kPageShift) | off, Mesi::Modified);
        benchmark::DoNotOptimize(c.invalidateFrame(3));
    }
}

template <typename Cache>
void
memPathInvalidateFrameCold(benchmark::State &state)
{
    // Page tear-down with nothing resident: the common kernel case
    // (most frames have no cached lines).  The residency index makes
    // this O(1).
    Cache c(256 * 1024, 8, 64);
    for (FrameNum f = 8; f < 40; ++f)
        for (std::uint64_t off = 0; off < kPageBytes; off += 64)
            c.insert((f << kPageShift) | off, Mesi::Shared);
    for (auto _ : state)
        benchmark::DoNotOptimize(c.invalidateFrame(999));
}

template <typename Table>
void
memPathPageTableLookup(benchmark::State &state)
{
    Table pt;
    constexpr std::uint64_t kVsid = 0x123;
    for (std::uint64_t p = 0; p < 4096; ++p)
        pt.map((kVsid << kPageNumBits) | p, p, PageMode::Scoma);
    std::uint64_t p = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            pt.lookup((kVsid << kPageNumBits) | p));
        p = (p + 1) & 4095;
    }
}

void BM_MemPath_TlbHit(benchmark::State &s) { memPathTlbHit<Tlb>(s); }
BENCHMARK(BM_MemPath_TlbHit);

void BM_MemPath_TlbMiss(benchmark::State &s) { memPathTlbMiss<Tlb>(s); }
BENCHMARK(BM_MemPath_TlbMiss);

void BM_MemPath_TlbInsertEvict(benchmark::State &s)
{
    memPathTlbInsertEvict<Tlb>(s);
}
BENCHMARK(BM_MemPath_TlbInsertEvict);

void BM_MemPath_L1Hit(benchmark::State &s)
{
    memPathL1Hit<SetAssocCache>(s);
}
BENCHMARK(BM_MemPath_L1Hit);

void BM_MemPath_L2Hit(benchmark::State &s)
{
    memPathL2Hit<SetAssocCache>(s);
}
BENCHMARK(BM_MemPath_L2Hit);

void BM_MemPath_InsertEvict(benchmark::State &s)
{
    memPathInsertEvict<SetAssocCache>(s);
}
BENCHMARK(BM_MemPath_InsertEvict);

void BM_MemPath_InvalidateFrameHot(benchmark::State &s)
{
    memPathInvalidateFrameHot<SetAssocCache>(s);
}
BENCHMARK(BM_MemPath_InvalidateFrameHot);

void BM_MemPath_InvalidateFrameCold(benchmark::State &s)
{
    memPathInvalidateFrameCold<SetAssocCache>(s);
}
BENCHMARK(BM_MemPath_InvalidateFrameCold);

void BM_MemPath_PageTableLookup(benchmark::State &s)
{
    memPathPageTableLookup<PageTable>(s);
}
BENCHMARK(BM_MemPath_PageTableLookup);

void
BM_RngDraw(benchmark::State &state)
{
    Rng rng(7);
    for (auto _ : state)
        benchmark::DoNotOptimize(rng.below(1024));
}
BENCHMARK(BM_RngDraw);

// --- Sharded scheduler (sim/shard.hh): the fixed per-window costs ---

/**
 * One worker-team round with an empty body: two SpinBarrier crossings
 * plus the coordinator's shard-0 call, i.e. the floor every window
 * pays regardless of how much simulated work it contains.
 */
void
BM_ShardLoop_BarrierRound(benchmark::State &state)
{
    ShardWorkers team(static_cast<unsigned>(state.range(0)));
    const std::function<void(unsigned)> nop = [](unsigned) {};
    for (auto _ : state)
        team.round(nop);
}
BENCHMARK(BM_ShardLoop_BarrierRound)->Arg(2)->Arg(4)->Arg(8);

/**
 * Staging and draining one window's worth of cross-shard entries, with
 * a payload the size of Network::ShardEntry.  16 pushes + one full
 * drain per iteration.
 */
void
BM_ShardLoop_ChannelPushDrain(benchmark::State &state)
{
    struct Entry {
        std::uint64_t sendTick, arrival, srcSeq;
        std::uint32_t src, dst;
        std::uint64_t pad[3];
    };
    constexpr unsigned kShards = 4;
    ShardChannel<Entry> ch;
    ch.reset(kShards);
    std::uint64_t sink = 0;
    for (auto _ : state) {
        for (unsigned f = 0; f < kShards; ++f) {
            for (unsigned t = 0; t < kShards; ++t) {
                ch.lane(f, t).push_back(
                    Entry{sink, sink + 1, sink, f, t, {}});
            }
        }
        ch.drain([&](Entry &&e) { sink += e.arrival; });
    }
    benchmark::DoNotOptimize(sink);
    state.SetItemsProcessed(state.iterations() * kShards * kShards);
}
BENCHMARK(BM_ShardLoop_ChannelPushDrain);

/**
 * The coordinator's window advance over four shard queues, each
 * holding one self-rescheduling event: the min-next scan, the W bump,
 * and the below-limit run — the serial glue between barrier rounds.
 */
void
BM_ShardLoop_WindowAdvance(benchmark::State &state)
{
    constexpr unsigned kShards = 4;
    struct Self {
        EventQueue *q;
        Cycles l;
        std::uint64_t *sink;
        void
        operator()()
        {
            ++*sink;
            q->scheduleIn(l, *this);
        }
    };
    std::vector<EventQueue> qs(kShards);
    const Cycles lookahead = conservativeLookahead(120, 8, 300, 140, 400);
    std::uint64_t sink = 0;
    for (auto &q : qs)
        q.schedule(0, Self{&q, lookahead, &sink});
    Tick w = 0;
    for (auto _ : state) {
        Tick min_next = kTickMax;
        for (auto &q : qs)
            min_next = std::min(min_next, q.nextEventTick());
        if (min_next > w)
            w = min_next;
        const Tick limit = w + lookahead;
        for (auto &q : qs) {
            while (q.nextEventTick() < limit)
                q.runOne();
        }
    }
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_ShardLoop_WindowAdvance);

} // namespace
} // namespace prism

BENCHMARK_MAIN();
