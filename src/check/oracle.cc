#include "check/oracle.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>

#include "coherence/msg.hh"
#include "core/machine.hh"
#include "sim/logging.hh"

namespace prism {

namespace {

std::string
fmt(const char *f, ...)
{
    char buf[256];
    va_list ap;
    va_start(ap, f);
    std::vsnprintf(buf, sizeof(buf), f, ap);
    va_end(ap);
    return buf;
}

} // namespace

ProtocolOracle::ProtocolOracle(Machine &m, OracleMode mode, bool fatal)
    : m_(m), mode_(mode), fatal_(fatal), geo_(m.config().lineBytes),
      numNodes_(m.config().numNodes),
      lastRead_(m.config().numProcs(), 0)
{
}

ProtocolOracle::LineShadow &
ProtocolOracle::shadow(GLine gl)
{
    LineShadow &s = lines_[gl];
    if (s.view.empty())
        s.view.resize(numNodes_, 0);
    return s;
}

void
ProtocolOracle::report(GPage gp, std::uint32_t li, std::string what)
{
    const Tick t = m_.eventQueue().now();
    ++violationCount_;
    if (violations_.size() < kMaxRecorded) {
        warn("oracle: %s (gpage=%llx li=%u t=%llu)", what.c_str(),
             static_cast<unsigned long long>(gp), li,
             static_cast<unsigned long long>(t));
    }
    if (violationCount_ == 1)
        dumpTrace();
    if (fatal_)
        panic("protocol oracle violation: %s", what.c_str());
    if (violations_.size() < kMaxRecorded)
        violations_.push_back(OracleViolation{t, gp, li, std::move(what)});
}

void
ProtocolOracle::dumpTrace() const
{
    // The oracle forces one shard, so ring 0 holds every message.
    const TraceRing &ring = m_.messageRing();
    const std::size_t n = std::min<std::size_t>(ring.size(), 32);
    if (n == 0)
        return;
    std::fprintf(stderr, "oracle: last %zu protocol messages "
                 "(oldest first):\n", n);
    for (std::size_t i = n; i-- > 0;) {
        const TraceEvent &e = ring.recent(i);
        std::fprintf(stderr, "  t=%-10llu n%u -> n%u  %-11s gpage=%llx "
                     "li=%u\n",
                     static_cast<unsigned long long>(e.tick), e.src, e.dst,
                     enumName(static_cast<MsgType>(e.kind)),
                     static_cast<unsigned long long>(e.gpage), e.lineIdx);
    }
}

// ---------------------------------------------------------------------
// Event hooks
// ---------------------------------------------------------------------

void
ProtocolOracle::expectLatest(GPage gp, std::uint32_t li, const LineShadow &s,
                             std::uint64_t have, const char *what,
                             NodeId node)
{
    if (continuous() && have != s.seq) {
        report(gp, li,
               fmt("%s %u is stale (value %llu, latest %llu)", what, node,
                   static_cast<unsigned long long>(have),
                   static_cast<unsigned long long>(s.seq)));
    }
}

void
ProtocolOracle::onAccessCommit(NodeId node, ProcId proc, FrameNum frame,
                               std::uint64_t paddr, bool write)
{
    const Pit::Ref e = m_.node(node).controller().pit().entry(frame);
    if (!e || e->gpage == kInvalidGPage)
        return; // private memory: no protocol state to check
    const GPage gp = e->gpage;
    const std::uint32_t li = geo_.lineIndex(paddr);
    LineShadow &s = shadow(geo_.lineOf(gp, li));
    expectLatest(gp, li, s, s.view[node],
                 write ? "write commit at node" : "read commit at node", node);
    if (write) {
        ++s.seq;
        s.view[node] = s.seq;
    } else {
        lastRead_[proc] = s.view[node];
    }
    if (continuous())
        checkLine(gp, li);
}

void
ProtocolOracle::onHomeTransition(HomeHook hook, NodeId home, GPage gp,
                                 std::uint32_t li, NodeId node, bool dirty)
{
    if (hook == HomeHook::None ||
        (hook == HomeHook::LateWriteback && !dirty))
        return; // a clean late release hands nothing on
    LineShadow &s = shadow(geo_.lineOf(gp, li));
    switch (hook) {
      case HomeHook::None:
        return;
      case HomeHook::GrantFromMemory:
        expectLatest(gp, li, s, s.memSeq, "memory granted to node", node);
        s.view[node] = s.memSeq;
        return;
      case HomeHook::UpgradeGrant:
        expectLatest(gp, li, s, s.view[node], "copy upgraded at node", node);
        return;
      case HomeHook::ServeSelfOwned:
        expectLatest(gp, li, s, s.view[home], "home copy served to node",
                     node);
        // The home frame is the page's memory: the served value is
        // what memory now holds, and the requester's copy reflects it.
        s.memSeq = s.view[home];
        s.view[node] = s.view[home];
        return;
      case HomeHook::WritebackAccepted:
      case HomeHook::LateWriteback:
        expectLatest(gp, li, s, s.view[node], "writeback accepted from node",
                     node);
        if (dirty) {
            s.memSeq = s.view[node];
        } else if (continuous() && s.memSeq != s.view[node]) {
            // Clean replacement: memory must already hold the owner's
            // value, otherwise the line's last writes are lost.
            report(gp, li,
                   fmt("clean replacement by owner %u loses data "
                       "(mem=%llu owner=%llu)",
                       node, static_cast<unsigned long long>(s.memSeq),
                       static_cast<unsigned long long>(s.view[node])));
        }
        return;
      case HomeHook::MigrateFlush:
        expectLatest(gp, li, s, s.view[node],
                     "owner copy flushed into memory by home", node);
        // The flushed copy becomes the (new) home memory contents.
        s.memSeq = s.view[node];
        return;
    }
}

void
ProtocolOracle::onOwnerServe(NodeId owner, GPage gp, std::uint32_t li,
                             NodeId req, bool for_write)
{
    LineShadow &s = shadow(geo_.lineOf(gp, li));
    expectLatest(gp, li, s, s.view[owner], "owner copy forwarded by node",
                 owner);
    s.view[req] = s.view[owner];
    if (!for_write) {
        // Read downgrade: the XferNotice carries the data home.
        s.memSeq = s.view[owner];
    }
}

void
ProtocolOracle::onInvalidate(GPage gp, std::uint32_t li)
{
    if (continuous())
        checkLine(gp, li);
}

void
ProtocolOracle::onHomeInstall(NodeId home, GPage gp)
{
    for (std::uint32_t li = 0; li < geo_.linesPerPage(); ++li) {
        LineShadow &s = shadow(geo_.lineOf(gp, li));
        expectLatest(gp, li, s, s.memSeq, "memory paged in at home", home);
        s.view[home] = s.memSeq;
    }
}

// ---------------------------------------------------------------------
// Continuous structural check
// ---------------------------------------------------------------------

void
ProtocolOracle::checkLine(GPage gp, std::uint32_t li)
{
    ++checksRun_;
    NodeId owner_node = kInvalidNode;
    std::uint32_t owner_count = 0;
    SharerSet valid;
    for (NodeId n = 0; n < numNodes_; ++n) {
        Node &node = m_.node(n);
        const Pit &pit = node.controller().pit();
        const FrameNum f = pit.frameOf(gp);
        if (f == kInvalidFrame)
            continue;
        const Pit::Ref e = pit.entry(f);
        const FgTag tag =
            e->mode == PageMode::Scoma ? e->tags.get(li) : FgTag::Invalid;
        const std::uint64_t paddr =
            (f << kPageShift) |
            (static_cast<std::uint64_t>(li) << geo_.lineShift());
        Mesi strongest = Mesi::Invalid;
        for (std::uint32_t p = 0; p < node.numProcs(); ++p) {
            Proc &pr = node.proc(p);
            const Mesi s1 = pr.l1().lookup(paddr);
            const Mesi s2 = pr.l2().lookup(paddr);
            strongest = strongerLine(strongest, strongerLine(s1, s2));
        }
        // Owned counts: the MOESI owner keeps node-level ownership
        // while peer/remote Shared copies read from it.  Forward does
        // not — it is a clean designated-supplier copy, valid but not
        // owning.
        const bool owner_class =
            tag == FgTag::Exclusive || ownerClass(strongest);
        // Transit tags are in-flight transactions: their eventual
        // grants are poisoned or refreshed by the protocol, so they
        // are neither owner-class nor a valid copy here.
        const bool valid_copy = tag == FgTag::Shared ||
                                tag == FgTag::Exclusive ||
                                strongest != Mesi::Invalid;
        if (owner_class) {
            ++owner_count;
            owner_node = n;
        }
        if (valid_copy)
            valid.add(n);
    }
    SharerSet others = valid;
    if (owner_node != kInvalidNode)
        others.remove(owner_node);
    if (owner_count > 1) {
        report(gp, li,
               fmt("%u nodes hold owner-class copies simultaneously "
                   "(valid mask %s)",
                   owner_count, valid.toString().c_str()));
    } else if (owner_count == 1 && !others.empty()) {
        report(gp, li,
               fmt("owner-class copy at node %u coexists with valid "
                   "copies elsewhere (valid mask %s)",
                   owner_node, valid.toString().c_str()));
    }
}

// ---------------------------------------------------------------------
// Quiescent sweep (invariants I1-I6 + value consistency)
// ---------------------------------------------------------------------

void
ProtocolOracle::sweepQuiescent()
{
    const std::uint32_t nodes = numNodes_;

    // I1: every directory page has exactly one dynamic home.
    std::map<GPage, NodeId> dir_home;
    for (NodeId n = 0; n < nodes; ++n) {
        auto &ctrl = m_.node(n).controller();
        for (FrameNum f : ctrl.pit().globalFrames()) {
            const Pit::Ref e = ctrl.pit().entry(f);
            if (!ctrl.isDynHome(e->gpage))
                continue;
            auto [it, fresh] = dir_home.emplace(e->gpage, n);
            if (!fresh && it->second != n) {
                report(e->gpage, 0,
                       fmt("two dynamic homes (nodes %u and %u)",
                           it->second, n));
            }
        }
    }

    // Per-node views: mapped pages and processor-cache contents
    // translated to global lines.
    struct NodeView {
        std::map<GPage, const PitEntry *> mapped;
        std::map<GLine, Mesi> cached;
    };
    std::vector<NodeView> views(nodes);
    for (NodeId n = 0; n < nodes; ++n) {
        Node &node = m_.node(n);
        const Pit &pit = node.controller().pit();
        std::map<FrameNum, GPage> frame2page;
        for (FrameNum f : pit.globalFrames()) {
            const PitEntry *e = &*pit.entry(f);
            views[n].mapped[e->gpage] = e;
            frame2page[f] = e->gpage;
        }
        for (std::uint32_t pi = 0; pi < node.numProcs(); ++pi) {
            Proc &proc = node.proc(pi);
            // I6: L1 contents must be a subset of L2 (inclusion).
            for (auto [addr, s1] : proc.l1().snapshot()) {
                (void)s1;
                if (proc.l2().lookup(addr) == Mesi::Invalid) {
                    report(kInvalidGPage, 0,
                           fmt("inclusion violated: L1 line %llx of "
                               "proc %u not in L2",
                               static_cast<unsigned long long>(addr),
                               proc.id()));
                }
            }
            for (auto [addr, s2] : proc.l2().snapshot()) {
                const Mesi s1 = proc.l1().lookup(addr);
                const Mesi merged = strongerLine(s1, s2);
                auto it = frame2page.find(addr >> kPageShift);
                if (it == frame2page.end())
                    continue; // private line
                const GLine gl =
                    geo_.lineOf(it->second, geo_.lineIndex(addr));
                Mesi &cur = views[n].cached[gl];
                cur = strongerLine(cur, merged);
            }
        }
    }

    // Per-line checks against the directory (I2-I5) plus value checks.
    for (auto [gp, home] : dir_home) {
        auto &ctrl = m_.node(home).controller();
        for (std::uint32_t li = 0; li < geo_.linesPerPage(); ++li) {
            const Directory::LineRef d = ctrl.dirLine(gp, li);
            const GLine gl = geo_.lineOf(gp, li);
            auto ls = lines_.find(gl);
            const LineShadow *sh =
                ls == lines_.end() ? nullptr : &ls->second;
            for (NodeId n = 0; n < nodes; ++n) {
                auto it = views[n].mapped.find(gp);
                FgTag tag = FgTag::Invalid;
                if (it != views[n].mapped.end() &&
                    it->second->mode == PageMode::Scoma)
                    tag = it->second->tags.get(li);
                if (tag == FgTag::Transit)
                    report(gp, li,
                           fmt("Transit tag at node %u in quiescent "
                               "state", n));
                Mesi cached = Mesi::Invalid;
                auto cit = views[n].cached.find(gl);
                if (cit != views[n].cached.end())
                    cached = cit->second;

                switch (d.state()) {
                  case DirState::Owned:
                    // I2: only the owner holds copies.
                    if (n != d.owner()) {
                        if (tag != FgTag::Invalid)
                            report(gp, li,
                                   fmt("valid tag %s at non-owner node "
                                       "%u (owner %u)",
                                       enumName(tag), n, d.owner()));
                        if (cached != Mesi::Invalid)
                            report(gp, li,
                                   fmt("cached copy at non-owner node "
                                       "%u (owner %u)", n, d.owner()));
                    }
                    break;
                  case DirState::Shared:
                    // I3: no exclusive copies; tags imply sharer bits.
                    if (tag == FgTag::Exclusive)
                        report(gp, li,
                               fmt("Exclusive tag at node %u under "
                                   "Shared dir state", n));
                    if (tag == FgTag::Shared && !d.isSharer(n))
                        report(gp, li,
                               fmt("Shared tag at non-sharer node %u",
                                   n));
                    if (ownerClass(cached))
                        report(gp, li,
                               fmt("%s proc copy at node %u under "
                                   "Shared dir state",
                                   enumName(cached), n));
                    // Value: a sharer's copy must be the latest.
                    if (sh && tag != FgTag::Invalid &&
                        sh->view[n] != sh->seq)
                        report(gp, li,
                               fmt("sharer %u holds stale value "
                                   "(view=%llu latest=%llu)", n,
                                   static_cast<unsigned long long>(
                                       sh->view[n]),
                                   static_cast<unsigned long long>(
                                       sh->seq)));
                    break;
                  case DirState::Uncached:
                    // I4: no copies anywhere.
                    if (tag != FgTag::Invalid)
                        report(gp, li,
                               fmt("valid tag %s at node %u under "
                                   "Uncached dir state",
                                   enumName(tag), n));
                    if (cached != Mesi::Invalid)
                        report(gp, li,
                               fmt("cached copy at node %u under "
                                   "Uncached dir state", n));
                    break;
                }
                // I5: an owner-class (M/E/O) processor copy implies
                // node ownership.
                if (ownerClass(cached) &&
                    !(d.state() == DirState::Owned && d.owner() == n)) {
                    report(gp, li,
                           fmt("%s proc copy at node %u without node "
                               "ownership", enumName(cached), n));
                }
            }
            if (!sh)
                continue;
            // Value invariants against the directory state.
            if (d.state() == DirState::Owned) {
                if (sh->view[d.owner()] != sh->seq)
                    report(gp, li,
                           fmt("owner %u's copy is stale at quiesce "
                               "(view=%llu latest=%llu)", d.owner(),
                               static_cast<unsigned long long>(
                                   sh->view[d.owner()]),
                               static_cast<unsigned long long>(sh->seq)));
            } else if (sh->memSeq != sh->seq) {
                // Uncached/Shared: home memory holds the latest value.
                report(gp, li,
                       fmt("home memory stale at quiesce under %s "
                           "(mem=%llu latest=%llu)",
                           d.state() == DirState::Shared ? "Shared"
                                                       : "Uncached",
                           static_cast<unsigned long long>(sh->memSeq),
                           static_cast<unsigned long long>(sh->seq)));
            }
        }
    }
}

} // namespace prism
