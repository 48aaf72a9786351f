/**
 * @file
 * Fault containment demo (paper Sections 1-3): PRISM's physical
 * addresses never address remote memory, and the PIT doubles as a
 * memory firewall.
 *
 * The demo arms a capability list on a shared page's home PIT entry
 * and then injects "wild writes" — forged writeback messages from a
 * faulty node — showing that the firewall drops them without
 * corrupting directory state, while a capable node's writeback is
 * accepted.
 */

#include <cstdio>

#include "core/machine.hh"
#include "workload/workload.hh"

using namespace prism;

int
main()
{
    MachineConfig cfg;
    Machine m(cfg);
    std::uint64_t gsid = m.shmget(99, 4 * kPageBytes);
    m.shmatAll(kSharedVsid, gsid);
    GPage gp0 = gsid << kPageNumBits;

    // Node 0 (home) materializes the page; node 1 legitimately shares.
    m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp) -> CoTask {
            if (pp.id() == 0)
                co_await pp.write(makeVAddr(kSharedVsid, 0, 0));
            co_await pp.barrier(0);
            if (pp.id() == 4)
                co_await pp.read(makeVAddr(kSharedVsid, 0, 0));
        }(p);
    });

    auto &home = m.node(0).controller();
    FrameNum hf = home.pit().frameOf(gp0);
    std::printf("page 0 homed at node 0 (frame %llu); directory line 0 "
                "state: %s\n",
                (unsigned long long)hf,
                enumName(home.dirLine(gp0, 0).state()));

    // Arm the firewall: only nodes 0 and 1 may write this page.
    home.pit().entry(hf)->capabilities.add(0);
    home.pit().entry(hf)->capabilities.add(1);
    std::printf("firewall armed: capabilities = {node 0, node 1}\n\n");

    // A faulty node 5 sprays forged writebacks at the page.
    for (std::uint32_t li = 0; li < 8; ++li) {
        Msg wild;
        wild.type = MsgType::Writeback;
        wild.src = 5;
        wild.dst = 0;
        wild.gpage = gp0;
        wild.lineIdx = li;
        wild.dirty = true;
        m.route(std::move(wild));
    }
    m.eventQueue().runAll();

    std::printf("after 8 wild writes from (faulty) node 5:\n");
    std::printf("  firewall rejects: %llu\n",
                (unsigned long long)home.stats().firewallRejects);
    std::printf("  directory line 0 state: %s (unchanged)\n",
                enumName(home.dirLine(gp0, 0).state()));

    // A legitimate writeback from node 1 — first make node 1 the
    // owner of line 1, then let its eviction write back normally.
    m.run([&](Proc &p) -> CoTask {
        return [](Proc &pp) -> CoTask {
            if (pp.id() == 4) { // node 1
                co_await pp.write(makeVAddr(kSharedVsid, 0, 64));
            }
            co_return;
        }(p);
    });
    std::printf("\nnode 1 (capable) took ownership of line 1: "
                "directory state %s, owner %u\n",
                enumName(home.dirLine(gp0, 1).state()),
                home.dirLine(gp0, 1).owner());
    std::printf("rejected writes total: %llu (only the wild ones)\n",
                (unsigned long long)home.stats().firewallRejects);
    std::printf("\nBecause LA-NUMA/S-COMA frames never expose raw "
                "remote physical addresses,\na faulty node cannot "
                "corrupt another node's memory — the containment "
                "boundary\nis the node, exactly as the paper argues.\n");
    return 0;
}
