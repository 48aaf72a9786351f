/**
 * @file
 * Quickstart: build a PRISM machine, attach a global segment, run a
 * small shared-memory program on every processor, and inspect what
 * the hardware and OS did.
 *
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/examples/quickstart
 */

#include <cstdio>

#include "core/machine.hh"
#include "workload/workload.hh"

using namespace prism;

/**
 * The per-processor program: everyone reads a read-mostly table, each
 * node's processors update their node's slot of a result array, and
 * processor 0 sums the slots at the end.
 */
static CoTask
program(Proc &p, std::uint32_t nprocs)
{
    // table: pages 0..3 (read-shared by everyone)
    // results: page 4 (one line per processor)
    auto table = [](std::uint64_t i) {
        return makeVAddr(kSharedVsid, i / 64, (i % 64) * 64);
    };
    auto result = [](std::uint32_t proc) {
        return makeVAddr(kSharedVsid, 4, proc * 64ULL);
    };

    if (p.id() == 0) { // initialize the table
        for (std::uint64_t i = 0; i < 4 * 64; ++i) {
            co_await p.write(table(i));
            p.compute(2);
        }
    }
    co_await p.barrier(0);
    if (p.id() == 0)
        co_await p.beginParallel();
    co_await p.barrier(0);

    // Everybody scans the table (read sharing: S-COMA page caches
    // replicate the pages locally) and accumulates into its own line.
    for (int pass = 0; pass < 4; ++pass) {
        for (std::uint64_t i = 0; i < 4 * 64; ++i) {
            co_await p.read(table(i));
            p.compute(1);
        }
        co_await p.write(result(p.id()));
    }
    co_await p.barrier(0);

    // Processor 0 reduces the per-processor results (communication
    // misses: each line was last written by its owner).
    if (p.id() == 0) {
        for (std::uint32_t q = 0; q < nprocs; ++q)
            co_await p.read(result(q));
        co_await p.endParallel();
    }
}

int
main()
{
    // The paper's machine: 8 nodes x 4 PowerPC-class processors.
    MachineConfig cfg;
    Machine m(cfg);

    // Globalized System V shared memory: create a segment and attach
    // it on every node at the same virtual addresses (Section 3.4).
    std::uint64_t gsid = m.shmget(/*key=*/42, /*bytes=*/8 * kPageBytes);
    m.shmatAll(kSharedVsid, gsid);

    m.run([&](Proc &p) { return program(p, m.numProcs()); });

    RunMetrics r = m.metrics();
    std::printf("PRISM quickstart (8 nodes x 4 procs)\n");
    std::printf("  parallel phase:   %llu cycles\n",
                (unsigned long long)r.execCycles);
    std::printf("  references:       %llu\n",
                (unsigned long long)r.references);
    std::printf("  remote misses:    %llu\n",
                (unsigned long long)r.remoteMisses);
    std::printf("  upgrades:         %llu\n",
                (unsigned long long)r.upgrades);
    std::printf("  page faults:      %llu\n",
                (unsigned long long)r.pageFaults);
    std::printf("  frames allocated: %llu (avg utilization %.2f)\n",
                (unsigned long long)r.framesAllocated,
                r.avgUtilization);
    std::printf("  network messages: %llu\n",
                (unsigned long long)r.networkMessages);

    // Peek at the hardware state the run left behind: the read-shared
    // table pages are replicated in every node's page cache.
    std::printf("\nper-node view of shared page 0 "
                "(home = node 0):\n");
    GPage gp0 = gsid << kPageNumBits;
    for (NodeId n = 0; n < m.numNodes(); ++n) {
        auto &pit = m.node(n).controller().pit();
        FrameNum f = pit.frameOf(gp0);
        if (f == kInvalidFrame) {
            std::printf("  node %u: not mapped\n", n);
            continue;
        }
        const Pit::Ref e = pit.entry(f);
        const bool scoma = e->mode == PageMode::Scoma;
        std::printf("  node %u: frame %llu, mode %s, %u/%u lines "
                    "valid\n",
                    n, (unsigned long long)f, enumName(e->mode),
                    scoma ? e->tags.lines() - e->tags.count(FgTag::Invalid)
                          : 0,
                    scoma ? e->tags.lines() : 0);
    }
    return 0;
}
