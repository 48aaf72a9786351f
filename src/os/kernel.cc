#include "os/kernel.hh"

#include "core/machine.hh"
#include "core/node.hh"
#include "obs/trace_sink.hh"
#include "sim/stats.hh"

namespace prism {

Kernel::Kernel(Node &node)
    : node_(node), self_(node.id()), cfg_(node.config()),
      eq_(node.eventQueue()), ipc_(node.machine().ipc()),
      ctrl_(node.controller()), policy_(policyRule(cfg_.policy)),
      trace_(node.machine().traceSink())
{
}

void
Kernel::send(Msg &&m)
{
    m.src = self_;
    node_.machine().route(std::move(m));
}

void
Kernel::unlockPage(PageRecords::Ref rec)
{
    rec->pageLock.release();
    pages().settle(rec);
}

CoMutex &
Kernel::privateLock(VPage vp)
{
    return pLocks_.try_emplace(vp, eq_).first->second;
}

bool
Kernel::pageBusy(GPage gp) const
{
    auto rec = pages().find(gp);
    return rec && rec->pageLock.held();
}

// ---------------------------------------------------------------------
// Global naming and binding
// ---------------------------------------------------------------------

void
Kernel::bindSegment(std::uint64_t vsid, std::uint64_t gsid)
{
    prism_assert(ipc_.segment(gsid) != nullptr,
                 "binding to a non-existent global segment");
    vsidToGsid_[vsid] = gsid;
    gsidToVsid_[gsid] = vsid;
    ipc_.shmatAttach(gsid);
}

bool
Kernel::globalPageOf(VPage vp, GPage *gp) const
{
    const std::uint64_t vsid = vp >> kPageNumBits;
    auto it = vsidToGsid_.find(vsid);
    if (it == vsidToGsid_.end())
        return false;
    const std::uint64_t pnum = vp & ((1ULL << kPageNumBits) - 1);
    *gp = (it->second << kPageNumBits) | pnum;
    return true;
}

VPage
Kernel::vpageOf(GPage gp) const
{
    const std::uint64_t gsid = gp >> kPageNumBits;
    auto it = gsidToVsid_.find(gsid);
    prism_assert(it != gsidToVsid_.end(), "vpageOf on unbound segment");
    const std::uint64_t pnum = gp & ((1ULL << kPageNumBits) - 1);
    return (it->second << kPageNumBits) | pnum;
}

// ---------------------------------------------------------------------
// Fault path
// ---------------------------------------------------------------------

CoTask
Kernel::handleFault(VPage vp, FrameNum *out_frame)
{
    ++stats_.faults;
    eq_.snapNote(SnapKind::Fault);
    GPage gp = kInvalidGPage;
    const bool global = globalPageOf(vp, &gp);

    // Holding (or queuing on) a global page's lock keeps its record
    // live.
    const PageRecords::Ref rec = global ? pages().get(gp)
                                        : PageRecords::Ref();
    CoMutex &lk = global ? rec->pageLock : privateLock(vp);
    co_await lk.acquire();
    // Another local processor may have completed the fault meanwhile.
    if (const Pte *pte = pt_.lookup(vp)) {
        *out_frame = pte->frame;
        if (global)
            unlockPage(rec);
        else
            lk.release();
        co_return;
    }

    co_await delay(cfg_.faultKernelCycles);

    if (!global) {
        FrameNum f = realPool_.alloc();
        prism_assert(f != kInvalidFrame, "out of private frames");
        ctrl_.installLocalMapping(f);
        co_await delay(cfg_.pitCommandCycles);
        pt_.map(vp, f, PageMode::Local);
        *out_frame = f;
        ++stats_.faultsPrivate;
        lk.release();
        co_return;
    }

    // Am I (still) the page's dynamic home, or should I become it?
    const NodeId static_home = staticHomeOf(gp, cfg_.numNodes);
    bool home_path = ctrl_.isDynHome(gp);
    NodeId dyn_home_hint = kInvalidNode;
    if (!home_path && static_home == self_) {
        NodeId reg = ctrl_.registryLookup(gp);
        if (reg == kInvalidNode || reg == self_)
            home_path = true; // first mapping: static home becomes home
        else
            dyn_home_hint = reg; // migrated away; fault as a client
    }

    if (home_path) {
        co_await homeMapIn(rec);
        FrameNum hf = rec->frame;
        prism_assert(hf != kInvalidFrame, "home map-in left no frame");
        co_await delay(cfg_.pitCommandCycles);
        pt_.map(vp, hf, PageMode::Scoma);
        *out_frame = hf;
        ++stats_.faultsHome;
        unlockPage(rec);
        co_return;
    }

    // ----- Client fault -------------------------------------------------
    // Copy the home-page-status flag: a home page-out request may
    // clear it while this fault is suspended.
    CachedHome ch = rec->cachedHome;
    if (ch.dynHome == kInvalidNode) {
        // Ensure the page is paged-in at home and learn the home frame.
        const Tick pi0 = eq_.now();
        PageInWait w(eq_);
        rec->pageIn = &w;
        send(Msg(MsgType::PageInReq,
                 dyn_home_hint != kInvalidNode ? dyn_home_hint : static_home,
                 gp));
        co_await w.ev.wait();
        rec->pageIn = nullptr;
        ch = CachedHome{w.dynHome, w.homeFrame};
        rec->cachedHome = ch;
        recordTxn(latency_.pageIn, trace_, "pageIn", "paging", self_, 0,
                  pi0, eq_.now());
    } else {
        // Home-page-status flag is set: no page-in request needed.
        ++stats_.faultsCachedHome;
    }

    PageMode mode = PageMode::Scoma;
    co_await chooseClientMode(gp, &mode);

    FrameNum f;
    if (mode == PageMode::Scoma) {
        f = realPool_.alloc();
        prism_assert(f != kInvalidFrame, "out of real frames");
        if (++clientScoma_ > clientScomaPeak_)
            clientScomaPeak_ = clientScoma_;
    } else {
        f = imagPool_.alloc();
        if (policy_.revert)
            laNumaMapped_.push_back(gp);
    }

    // Links an S-COMA frame onto the PIT's page-cache LRU.
    ctrl_.installClientMapping(f, gp, static_home, ch.dynHome, ch.homeFrame,
                               mode);
    co_await delay(cfg_.pitCommandCycles);
    pt_.map(vp, f, mode);
    *out_frame = f;
    ++stats_.faultsClient;
    unlockPage(rec);
}

CoTask
Kernel::homeMapIn(PageRecords::Ref rec)
{
    if (ctrl_.isDynHome(rec->gpage))
        co_return;
    FrameNum f = realPool_.alloc();
    prism_assert(f != kInvalidFrame, "out of frames for home page");
    if (rec->onDisk) {
        co_await delay(cfg_.diskLatency);
        rec->onDisk = false;
    }
    ctrl_.installHomeMapping(f, rec->gpage);
}

// ---------------------------------------------------------------------
// Page-outs
// ---------------------------------------------------------------------

void
Kernel::archiveUtilization(FrameNum f)
{
    if (f >= kImaginaryFrameBase)
        return; // imaginary frames consume no memory
    const Pit::Ref e = ctrl_.pit().entry(f);
    if (!e)
        return;
    utilArchivedLines_ += e->accessed.popcount();
    ++utilArchivedFrames_;
}

CoTask
Kernel::pageOutClient(GPage gp, bool convert_to_lanuma)
{
    const Tick t0 = eq_.now();
    const PageRecords::Ref rec = pages().get(gp);
    co_await rec->pageLock.acquire();

    FrameNum f = rec->frame;
    if (f == kInvalidFrame) {
        unlockPage(rec);
        co_return; // already paged out
    }
    if (ctrl_.isDynHome(gp)) {
        // The page migrated TO us while it was being selected as a
        // victim: our client frame was promoted to the home frame.
        // Home frames are never client-paged-out.
        unlockPage(rec);
        co_return;
    }
    const Pit::Ref e = ctrl_.pit().entry(f);
    prism_assert(e->mode != PageMode::Local, "pageOutClient on local page");
    const PageMode mode = e->mode;
    const NodeId dyn_home = e->dynHome;

    // Unmap and shoot down local TLBs (node-local only).
    VPage vp = vpageOf(gp);
    pt_.unmap(vp);
    node_.shootdown(vp);
    co_await delay(static_cast<Cycles>(cfg_.tlbShootdownCycles) *
                   cfg_.procsPerNode);

    // Flush: write modified lines back to the home.  A stale
    // translation may still start an access while we flush, so loop
    // until the page is verifiably quiet, then remove the mapping in
    // the same event — after that, late accesses bounce (BadFrame)
    // and re-fault.
    for (;;) {
        co_await ctrl_.flushClientPage(f);
        if (ctrl_.isDynHome(gp)) {
            // A migration promoted our frame to home mid-flush; the
            // flush's writebacks were absorbed by our own (adopted)
            // directory.  Abandon the page-out; local processors
            // refault and remap the home frame.
            unlockPage(rec);
            co_return;
        }
        if (ctrl_.clientPageQuiescent(f))
            break;
        co_await delay(cfg_.retryDelay);
    }
    archiveUtilization(f);
    ctrl_.removeClientMapping(f);

    // Tell the home we no longer cache the page.
    CoEvent ack(eq_);
    rec->noticeAck = &ack;
    send(Msg(MsgType::PageOutNotice, dyn_home, gp));
    co_await ack.wait();
    rec->noticeAck = nullptr;

    // Only recycle the frame number once the home has acknowledged.
    if (mode == PageMode::Scoma) {
        --clientScoma_;
        realPool_.release(f);
    } else {
        imagPool_.release(f);
    }

    if (convert_to_lanuma) {
        rec->modeOverride = PageMode::LaNuma;
        ++stats_.conversionsToLaNuma;
    }
    ++stats_.clientPageOuts;
    eq_.snapNote(SnapKind::ClientPageOut);
    co_await delay(cfg_.pageOutKernelCycles);
    recordTxn(latency_.pageOut, trace_, "pageOut", "paging", self_, 0, t0,
              eq_.now());
    unlockPage(rec);
}

CoTask
Kernel::pageOutHome(GPage gp)
{
    const Tick t0 = eq_.now();
    const PageRecords::Ref rec = pages().get(gp);
    co_await rec->pageLock.acquire();
    if (!ctrl_.isDynHome(gp)) {
        unlockPage(rec);
        co_return;
    }
    rec->dying = true;

    const SharerSet clients = rec->home->clients;
    CoLatch latch(eq_);
    rec->homePageOut = &latch;
    std::uint32_t n = 0;
    for (NodeId c = clients.first(); c != kInvalidNode;
         c = clients.next(c)) {
        send(Msg(MsgType::HomePageOutReq, c, gp));
        ++n;
    }
    latch.expect(n);
    latch.arm();
    co_await latch.wait();
    rec->homePageOut = nullptr;

    // Wait until no protocol handler is mid-transaction on the page's
    // lines, then collect local processor copies and write to disk.
    while (!ctrl_.homePageQuiescent(gp))
        co_await delay(cfg_.retryDelay);
    FrameNum hf = rec->frame;
    prism_assert(hf != kInvalidFrame, "home page without frame");
    node_.invalidateFrame(hf);
    co_await delay(cfg_.diskLatency);

    VPage vp = vpageOf(gp);
    pt_.unmap(vp);
    node_.shootdown(vp);
    co_await delay(static_cast<Cycles>(cfg_.tlbShootdownCycles) *
                   cfg_.procsPerNode);

    archiveUtilization(hf);
    ctrl_.removeHomeMapping(hf, gp);
    realPool_.release(hf);
    rec->onDisk = true;
    rec->dying = false;
    ++stats_.homePageOuts;
    recordTxn(latency_.pageOut, trace_, "homePageOut", "paging", self_, 0,
              t0, eq_.now());
    std::vector<Msg> deferred = std::move(rec->deferredPageIn);
    rec->deferredPageIn.clear();
    unlockPage(rec);

    // Serve page-in requests that arrived while the page was dying.
    for (auto &dm : deferred)
        receive(std::move(dm));
}

// ---------------------------------------------------------------------
// Policy support
// ---------------------------------------------------------------------

CoTask
Kernel::chooseClientMode(GPage gp, PageMode *out)
{
    if (policy_.laNuma) {
        *out = cfg_.ccNumaBypass ? PageMode::CcNuma : PageMode::LaNuma;
        co_return;
    }
    // Amortized at fault time: a few LA-NUMA pages per fault.
    if (policy_.revert)
        co_await reconsiderLaNumaPages(128, 4);
    // Sticky: once mapped LA-NUMA the page stays LA-NUMA at this node.
    if (policy_.adaptive && modeOverride(gp) == PageMode::LaNuma) {
        *out = PageMode::LaNuma;
        co_return;
    }
    while (clientCacheFull()) {
        const GPage victim =
            policy_.victim == PageVictim::Lru ? lruClientPage()
            : policy_.victim == PageVictim::MostInvalid
                ? mostInvalidClientPage()
                : kInvalidGPage;
        if (victim == kInvalidGPage || pageBusy(victim)) {
            if (!policy_.adaptive)
                break; // admit over the cap
            setModeOverride(gp, PageMode::LaNuma);
            *out = PageMode::LaNuma;
            co_return;
        }
        // The freed frame backs the faulting page.
        co_await pageOutClient(victim, policy_.adaptive);
    }
    *out = PageMode::Scoma;
}

std::uint64_t
Kernel::clientCap() const
{
    return cfg_.clientFrameCapPerNode.empty()
               ? 0
               : cfg_.clientFrameCapPerNode[self_];
}

bool
Kernel::clientCacheFull() const
{
    const std::uint64_t cap = clientCap();
    return cap != 0 && clientScoma_ >= cap;
}

GPage
Kernel::lruClientPage() const
{
    const Pit::Ref e = ctrl_.pit().lruVictim();
    return e ? e->gpage : kInvalidGPage;
}

GPage
Kernel::mostInvalidClientPage() const
{
    const Pit::Ref e = ctrl_.pit().mostInvalidVictim();
    return e ? e->gpage : kInvalidGPage;
}

void
Kernel::setModeOverride(GPage gp, PageMode m)
{
    const PageRecords::Ref rec = pages().get(gp);
    rec->modeOverride = m;
    pages().settle(rec);
}

PageMode
Kernel::modeOverride(GPage gp) const
{
    auto rec = pages().find(gp);
    return rec ? rec->modeOverride : PageMode::Scoma;
}

CoTask
Kernel::reconsiderLaNumaPages(std::uint64_t threshold,
                              std::uint32_t max_scan)
{
    const Pit &pit = ctrl_.pit();
    std::uint32_t scanned = 0;
    while (scanned < max_scan && !laNumaMapped_.empty()) {
        if (reconsiderCursor_ >= laNumaMapped_.size())
            reconsiderCursor_ = 0;
        GPage gp = laNumaMapped_[reconsiderCursor_];
        const Pit::Ref e = pit.entry(pit.frameOf(gp));
        if (!e || e->mode == PageMode::Scoma) {
            // Stale entry (paged out or converted); drop from the list.
            laNumaMapped_[reconsiderCursor_] = laNumaMapped_.back();
            laNumaMapped_.pop_back();
            ++scanned;
            continue;
        }
        if (e->remoteFetches >= threshold && !pageBusy(gp)) {
            laNumaMapped_[reconsiderCursor_] = laNumaMapped_.back();
            laNumaMapped_.pop_back();
            setModeOverride(gp, PageMode::Scoma);
            ++stats_.conversionsToScoma;
            co_await pageOutClient(gp, false);
        } else {
            ++reconsiderCursor_;
        }
        ++scanned;
    }
}

// ---------------------------------------------------------------------
// Kernel message handling
// ---------------------------------------------------------------------

void
Kernel::receive(Msg m)
{
    switch (m.type) {
      case MsgType::PageInReq:
        onPageInReq(std::move(m));
        return;
      case MsgType::PageInRep: {
        auto rec = pages().find(m.gpage);
        prism_assert(rec && rec->pageIn,
                     "PageInRep without a waiting fault");
        rec->pageIn->dynHome = m.dynHome;
        rec->pageIn->homeFrame = m.homeFrame;
        rec->pageIn->ev.signal();
        return;
      }
      case MsgType::PageOutNotice:
        onPageOutNotice(std::move(m));
        return;
      case MsgType::PageOutNoticeAck: {
        auto rec = pages().find(m.gpage);
        prism_assert(rec && rec->noticeAck,
                     "PageOutNoticeAck without a waiter");
        rec->noticeAck->signal();
        return;
      }
      case MsgType::HomePageOutReq:
        onHomePageOutReq(std::move(m));
        return;
      case MsgType::HomePageOutAck: {
        auto rec = pages().find(m.gpage);
        prism_assert(rec && rec->homePageOut,
                     "HomePageOutAck without a waiter");
        rec->homePageOut->arrive();
        return;
      }
      default:
        panic("coherence message %s delivered to kernel",
              enumName(m.type));
    }
}

FireAndForget
Kernel::onPageInReq(Msg m)
{
    const GPage gp = m.gpage;
    // Forwarded requests carry the original client in `requester`.
    const NodeId client =
        m.requester != kInvalidNode ? m.requester : m.src;
    m.requester = client;
    if (!ctrl_.isDynHome(gp)) {
        const NodeId static_home = staticHomeOf(gp, cfg_.numNodes);
        if (static_home == self_) {
            NodeId reg = ctrl_.registryLookup(gp);
            if (reg != kInvalidNode && reg != self_) {
                m.dst = reg; // page migrated: forward to dynamic home
                send(std::move(m));
                co_return;
            }
            // else: fall through and become the home below
        } else {
            m.dst = static_home; // stale arrival; re-route
            send(std::move(m));
            co_return;
        }
    }
    const PageRecords::Ref rec = pages().get(gp);
    if (rec->dying) {
        rec->deferredPageIn.push_back(std::move(m));
        co_return;
    }
    co_await rec->pageLock.acquire();
    co_await homeMapIn(rec);
    rec->home->clients.add(client);
    co_await delay(cfg_.homePageInService);
    ++stats_.pageInRequestsServed;

    Msg r(MsgType::PageInRep, client, gp);
    r.homeFrame = rec->frame;
    r.dynHome = self_;
    send(std::move(r));
    unlockPage(rec);
}

FireAndForget
Kernel::onPageOutNotice(Msg m)
{
    const GPage gp = m.gpage;
    const NodeId client =
        m.requester != kInvalidNode ? m.requester : m.src;
    m.requester = client;
    if (!ctrl_.isDynHome(gp)) {
        // Stale dynamic-home knowledge at the client: re-route.
        const NodeId static_home = staticHomeOf(gp, cfg_.numNodes);
        if (static_home == self_) {
            NodeId reg = ctrl_.registryLookup(gp);
            prism_assert(reg != kInvalidNode && reg != self_,
                         "page-out notice for an unmapped page");
            m.dst = reg;
        } else {
            m.dst = static_home;
        }
        send(std::move(m));
        co_return;
    }
    // Homed here, so the record is live.
    pages().find(gp)->home->clients.remove(client);
    Cycles c = ctrl_.homeRemoveClient(gp, client);
    co_await delay(c);

    send(Msg(MsgType::PageOutNoticeAck, client, gp));
}

FireAndForget
Kernel::onHomePageOutReq(Msg m)
{
    const GPage gp = m.gpage;
    if (auto rec = pages().find(gp)) {
        // Reset the home-page-status flag (paper Section 3.3).
        rec->cachedHome = CachedHome{};
        if (!rec->pageLock.held() && rec->frame != kInvalidFrame &&
            !ctrl_.isDynHome(gp)) {
            co_await pageOutClient(gp, false);
        } else {
            pages().settle(rec);
        }
    }
    // If the page is mid-fault or mid-pageout locally, the in-flight
    // operation resolves the copy (its own notice covers us).
    send(Msg(MsgType::HomePageOutAck, m.src, gp));
}

// ---------------------------------------------------------------------
// Migration cooperation
// ---------------------------------------------------------------------

FrameNum
Kernel::migrationAllocFrame(GPage)
{
    FrameNum f = realPool_.alloc();
    prism_assert(f != kInvalidFrame, "migration frame alloc failed");
    return f;
}

void
Kernel::migrationFreeFrame(FrameNum f, GPage gp)
{
    VPage vp = vpageOf(gp);
    if (pt_.mapped(vp))
        pt_.unmap(vp);
    node_.shootdown(vp);
    node_.invalidateFrame(f);
    archiveUtilization(f);
    if (f >= kImaginaryFrameBase) {
        imagPool_.release(f);
    } else {
        if (ctrl_.pit().lruErase(f))
            --clientScoma_;
        realPool_.release(f);
    }
}

void
Kernel::adoptHomePage(GPage gp)
{
    // The controller made this node the home, so the record is live.
    const PageRecords::Ref rec = pages().find(gp);
    rec->cachedHome = CachedHome{}; // we are the home now
    // If we had a client S-COMA frame it was promoted to the home
    // frame: it no longer counts against the client page cache.
    if (rec->frame != kInvalidFrame && ctrl_.pit().lruErase(rec->frame))
        --clientScoma_;
}

// ---------------------------------------------------------------------
// Accounting
// ---------------------------------------------------------------------

double
Kernel::averageUtilization() const
{
    std::uint64_t lines = utilArchivedLines_;
    std::uint64_t frames = utilArchivedFrames_;
    std::uint32_t lines_per_page = 0;
    const Pit &pit = ctrl_.pit();
    for (FrameNum f : pit.allFrames()) {
        if (f >= kImaginaryFrameBase)
            continue;
        const Pit::Ref e = pit.entry(f);
        lines += e->accessed.popcount();
        lines_per_page = e->accessed.lines();
        ++frames;
    }
    if (!lines_per_page)
        lines_per_page = static_cast<std::uint32_t>(kPageBytes) /
                         cfg_.lineBytes;
    if (!frames)
        return 0.0;
    return static_cast<double>(lines) /
           (static_cast<double>(frames) * lines_per_page);
}

} // namespace prism
