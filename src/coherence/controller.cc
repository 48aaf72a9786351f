#include "coherence/controller.hh"

#include <utility>

#include "check/oracle.hh"
#include "core/env.hh"
#include "core/machine.hh"
#include "core/node.hh"
#include "obs/trace_sink.hh"
#include "sim/stats.hh"

namespace prism {

#define TRC(gp, li, ...)                                                  \
    do {                                                                  \
        if (log_.match(gp, li))                                           \
            ::prism::warn(__VA_ARGS__);                                   \
    } while (0)

MsgLogFilter
MsgLogFilter::fromEnv()
{
    return MsgLogFilter{
        parseKnobU64("PRISM_TRACE_GPAGE", resolveEnv("PRISM_TRACE_GPAGE"),
                     kInvalidGPage, 0, ~0ULL, 16),
        parseKnobU64("PRISM_TRACE_LI", resolveEnv("PRISM_TRACE_LI"), ~0ULL,
                     0)};
}

CoherenceController::CoherenceController(Node &node)
    : node_(node), self_(node.id()), cfg_(node.config()),
      eq_(node.eventQueue()), dram_(node.dram()), geo_(cfg_.lineBytes),
      pages_(eq_, geo_.linesPerPage(), cfg_.numNodes),
      pit_(pages_, cfg_.pitLatency, cfg_.pitHashExtra),
      dir_(cfg_.dirCacheEntries, cfg_.dirCacheHit, cfg_.dirCacheMiss),
      oracle_(node.machine().oracle()),
      trace_(node.machine().traceSink()),
      log_(node.machine().msgLogFilter()),
      mutationBudget_(cfg_.mutationSkipInvals)
{
}

DelayAwaiter
CoherenceController::occupy(Cycles c)
{
    Tick start = ctrlRes_.acquire(eq_.now(), c);
    return DelayAwaiter(eq_, start + c - eq_.now());
}

DelayAwaiter
CoherenceController::dramAccess()
{
    Tick done = dram_.access(eq_.now());
    return DelayAwaiter(eq_, done - eq_.now());
}

void
CoherenceController::send(Msg &&m)
{
    m.src = self_;
    node_.machine().route(std::move(m));
}

void
CoherenceController::forward(Msg &&m)
{
    ++stats_.forwards;
    NodeId target;
    auto rec = pages_.find(m.gpage);
    const NodeId static_home = staticHomeOf(m.gpage, cfg_.numNodes);
    if (rec && rec->movedTo != kInvalidNode) {
        target = rec->movedTo;
    } else if (static_home == self_) {
        prism_assert(rec && rec->registry != kInvalidNode,
                     "static home has no registry entry for forwarded msg");
        target = rec->registry;
        prism_assert(target != self_, "registry points at a node "
                     "without the directory page");
    } else {
        target = static_home;
    }
    m.dst = target;
    send(std::move(m));
}

void
CoherenceController::releaseLine(const PitEntry &e, std::uint32_t line_idx,
                                 bool dirty, bool keep_shared)
{
    TRC(e.gpage, line_idx, "n%u release dirty=%d keepS=%d t=%llu", self_,
        (int)dirty, (int)keep_shared, (unsigned long long)eq_.now());
    Msg m(dirty || keep_shared ? MsgType::Writeback : MsgType::ReplaceHint,
          e.dynHome, e.gpage, line_idx);
    m.dstFrameHint = e.homeFrameHint;
    m.dirty = dirty;
    m.keepShared = keep_shared;
    m.requester = self_;
    ++(m.type == MsgType::Writeback ? stats_.writebacksSent
                                    : stats_.replaceHintsSent);
    send(std::move(m));
}

void
CoherenceController::replyToRequester(const Msg &m, MsgType type,
                                      FrameNum home_frame, NodeId dyn_home,
                                      bool exclusive, std::uint32_t acks)
{
    Msg r(type, m.requester, m.gpage, m.lineIdx);
    r.requester = m.requester;
    r.dstFrameHint = m.requesterFrame;
    r.homeFrame = home_frame;
    r.dynHome = dyn_home;
    r.exclusive = exclusive;
    r.ackCount = acks;
    send(std::move(r));
}

CoTask
CoherenceController::collectFrame(FrameNum frame)
{
    const Pit::Ref e = pit_.entry(frame);
    for (std::uint32_t i = 0; i < geo_.linesPerPage(); ++i)
        co_await lineStep(clientCell(*e, i, ClientEvent::Collect), e, i);
}

CoTask
CoherenceController::invalidateLocal(GPage gpage, std::uint32_t line_idx,
                                     FrameNum frame, Cycles lookup)
{
    const GLine gl = geo_.lineOf(gpage, line_idx);
    if (ClientTxn **txn = pending_.find(gl))
        (*txn)->invalidatedMidFlight = true;
    if (FillToken *fill = fillPending_.find(gl))
        fill->invalidated = true;
    co_await delay(lookup);
    // Re-validate: the mapping may have been paged out (and the frame
    // even reused) during the lookup delay.
    const Pit::Ref e = pit_.entry(frame);
    if (!e || e->gpage != gpage)
        co_return;
    co_await lineStep(clientCell(*e, line_idx, ClientEvent::Inv), e,
                      line_idx);
}

ClientView
CoherenceController::clientView(const PitEntry &e, std::uint32_t li) const
{
    if (e.mode == PageMode::Local)
        return ClientView::Local;
    if (e.mode == PageMode::Scoma)
        return tagView(e.tags.get(li));
    const GLine gl = geo_.lineOf(e.gpage, li);
    if (pending_.count(gl) || fillPending_.count(gl))
        return ClientView::NumaTransit;
    const Mesi held = node_.heldCopy(e.frame, li);
    return held == Mesi::Invalid ? ClientView::NumaNone
           : ownerClass(held)    ? ClientView::NumaOwned
                                 : ClientView::NumaShared;
}

const ClientTransition &
CoherenceController::clientCell(ClientView v, ClientEvent ev, GPage gpage,
                                std::uint32_t li)
{
    const ClientTransition &t = kClientTable.on(v, ev, clientHits_);
    TRC(gpage, li, "n%u %s %s -> %s actions=%#x t=%llu", self_,
        enumName(v), enumName(ev), enumName(t.next),
        t.actions, (unsigned long long)eq_.now());
    return t;
}

CoTask
CoherenceController::lineStep(const ClientTransition &t, const Pit::Ref &e,
                              std::uint32_t li, InterventionResult *out)
{
    InterventionResult r{eq_.now(), 0};
    if (t.actions & (kCliSnoop | kCliProbe))
        r = node_.intervene(e->frame, li, t.snoop, eq_.now());
    if (isTagView(t.next))
        e->tags.set(li, viewTag(t.next));
    if ((t.actions & kCliNoteInval) && oracle_)
        oracle_->onInvalidate(e->gpage, li);
    if (out)
        *out = r;
    // Only a snoop is waited for; the others need no coroutine frame.
    return t.actions & kCliSnoop ? settleLine(t, e, li, r) : CoTask();
}

CoTask
CoherenceController::settleLine(const ClientTransition &t, Pit::Ref e,
                                std::uint32_t li, InterventionResult r)
{
    co_await until(r.done);
    if ((t.actions & kCliCollect) && (r.actions & kActWritebackData))
        dram_.access(eq_.now());
    if (t.actions & kCliRelease)
        lineActions(e->frame, li, r.actions);
    if (t.actions & kCliReadLine)
        co_await dramAccess();
    if (t.actions & kCliWriteback)
        releaseLine(*e, li, true, false);
}

bool
CoherenceController::homePageQuiescent(GPage gpage) const
{
    if (auto rec = pages_.find(gpage)) {
        for (const CoMutex &l : rec->lineLocks) {
            if (l.held())
                return false;
        }
    }
    bool waiting = false;
    homeWaits_.forEach([&](GLine gl, HomeWait *) {
        waiting = waiting || geo_.pageOf(gl) == gpage;
    });
    return !waiting;
}

NodeId
CoherenceController::registryLookup(GPage gpage) const
{
    auto rec = pages_.find(gpage);
    return rec ? rec->registry : kInvalidNode;
}

// ---------------------------------------------------------------------
// Processor side
// ---------------------------------------------------------------------

CoTask
CoherenceController::serviceMiss(FrameNum frame, std::uint32_t line_idx,
                                 bool for_write, bool local_copy,
                                 MissResult *out)
{
    const Pit::Ref e = pit_.entry(frame);
    if (!e) {
        // The mapping was paged out between the requester's address
        // translation and this point; bounce so it re-translates
        // (and re-faults) with fresh state.
        out->source = MissSource::BadFrame;
        co_return;
    }
    pit_.touch(e, eq_.now());
    e->accessed.set(line_idx);
    const bool scoma = e->mode == PageMode::Scoma;
    if (scoma || e->mode == PageMode::LaNuma)
        co_await delay(pit_.forwardCycles()); // consult mode (+ tags)
    const ClientEvent ev = !for_write  ? ClientEvent::BusRead
                           : local_copy ? ClientEvent::BusUpgrade
                                        : ClientEvent::BusWrite;
    const ClientTransition &t = clientCell(*e, line_idx, ev);
    if (t.actions & kCliLocalMem) {
        // Local memory, or the page cache, supplies the line; the
        // controller takes no protocol action.
        co_await dramAccess();
        ++stats_.localMemHits;
        out->source = MissSource::LocalMem;
        out->exclusive = t.next != ClientView::Shared;
        co_return;
    }
    const GPage gpage = e->gpage; // e may be stale after the txn
    const GLine gl = geo_.lineOf(gpage, line_idx);
    // A line whose transaction is still outstanding retries even where
    // the view does not show it: a page flush dropped its Transit tag,
    // or a migration replaced its LA-NUMA frame with the home frame.
    if ((t.actions & kCliRetry) || pending_.count(gl)) {
        ++stats_.retries;
        out->source = MissSource::Retry;
        co_return;
    }
    co_await lineStep(t, e, line_idx);
    ClientEvent landing = ClientEvent::GrantVoid;
    co_await runClientTxn(t.actions, e, frame, line_idx, out, &landing);
    const Pit::Ref cur = pit_.entry(frame);
    if (!scoma && (!cur || cur->gpage != gpage) && isDynHome(gpage)) {
        // The page migrated here while the miss was in flight, and
        // handleMigrateData retired the LA-NUMA frame: the grant lands
        // on the home frame's tag, and the access re-translates.
        const Pit::Ref he = pit_.entry(pit_.frameOf(gpage));
        co_await lineStep(clientCell(*he, line_idx, landing), he, line_idx);
        out->source = MissSource::BadFrame;
        co_return;
    }
    // The line was Transit until now.  An LA-NUMA view is so by
    // definition (and e may be stale there); an S-COMA tag is, unless
    // a page flush dropped it.
    const ClientTransition &g = clientCell(
        scoma ? tagView(e->tags.get(line_idx)) : ClientView::NumaTransit,
        landing, gpage, line_idx);
    co_await lineStep(g, e, line_idx);
    if (g.actions & kCliRetry) {
        // A racing invalidation voided the shared grant.
        ++stats_.retries;
        out->source = MissSource::Retry;
        co_return;
    }
    // LA-NUMA: hold a fill token until the bus fill completes so no
    // second transaction (or stale fill) can slip into the window.
    if ((g.actions & kCliHoldFill) && fillPending_.insert(gl).second)
        pendingPageAdd(pages_.get(gpage));
}

CoTask
CoherenceController::runClientTxn(std::uint32_t request, Pit::Ref e,
                                  FrameNum frame, std::uint32_t line_idx,
                                  MissResult *out, ClientEvent *landing)
{
    const GPage gpage = e->gpage;
    GLine gl = geo_.lineOf(gpage, line_idx);
    ClientTxn txn(eq_);
    pending_.insert(gl, &txn);
    // The pending line keeps the record live until the txn ends.
    const PageRecords::Ref rec = e->page;
    pendingPageAdd(rec);

    const Tick t0 = eq_.now();
    co_await occupy(cfg_.ctrlOverhead); // compose request, dispatch

    Msg m(request & kCliReqShared      ? MsgType::ReqS
          : request & kCliReqUpgrade   ? MsgType::Upgrade
                                       : MsgType::ReqX,
          e->dynHome, gpage, line_idx);
    m.requester = self_;
    m.requesterFrame = frame;
    m.dstFrameHint = e->homeFrameHint;
    send(std::move(m));

    co_await txn.latch.wait();
    pending_.erase(gl);
    pendingPageRemove(rec);

    // `e` may be stale: while the transaction was in flight the page
    // can migrate TO this node, and adopting a LA-NUMA mapping retires
    // its imaginary frame (handleMigrateData removes the PIT entry).
    // Re-translate and only update hints if the same mapping is still
    // installed; the hints are advisory, so skipping them is safe.
    Pit::Ref cur = pit_.entry(frame);
    if (cur && cur->gpage != gpage)
        cur = Pit::Ref();
    if (cur) {
        if (txn.dynHome != kInvalidNode)
            cur->dynHome = txn.dynHome;
        if (txn.homeFrame != kInvalidFrame)
            cur->homeFrameHint = txn.homeFrame;
    }

    if (txn.dataFetched) {
        ++stats_.remoteMisses;
        eq_.snapNote(SnapKind::RemoteMiss);
        recordTxn(txn.threeParty ? latency_.read3 : latency_.read2, trace_,
                  txn.threeParty ? "read3" : "read2", "coherence", self_,
                  line_idx, t0, eq_.now());
        if (cur) {
            ++cur->remoteFetches;
            if (cur->mode == PageMode::Scoma)
                dram_.access(eq_.now()); // copy into the page cache
        }
    } else {
        ++stats_.upgrades;
        eq_.snapNote(SnapKind::Upgrade);
        recordTxn(latency_.upgrade, trace_, "upgrade", "coherence", self_,
                  line_idx, t0, eq_.now());
    }
    out->source = MissSource::Remote;
    out->exclusive = txn.exclusive;
    // An exclusive grant supersedes any invalidation of the old copy;
    // a shared grant raced by an invalidation is void.
    *landing = txn.exclusive               ? ClientEvent::GrantExclusive
               : txn.invalidatedMidFlight ? ClientEvent::GrantVoid
                                          : ClientEvent::GrantShared;
}

bool
CoherenceController::finishFill(FrameNum frame, std::uint32_t line_idx,
                                Mesi intended)
{
    const Pit::Ref e = pit_.entry(frame);
    if (!e)
        return false;
    // Only an LA-NUMA grant holds a fill token (its line is Transit);
    // a racing Inv marks it.
    const GLine gl = geo_.lineOf(e->gpage, line_idx);
    const FillToken *fill =
        e->mode == PageMode::LaNuma || e->mode == PageMode::CcNuma
            ? fillPending_.find(gl)
            : nullptr;
    const ClientTransition &t = clientCell(
        fill ? ClientView::NumaTransit : clientView(*e, line_idx),
        fill && fill->invalidated ? ClientEvent::FillVoid
        : ownerClass(intended)    ? ClientEvent::FillOwned
                                  : ClientEvent::FillShared,
        e->gpage, line_idx);
    if ((t.actions & kCliEndFill) && fillPending_.erase(gl))
        pendingPageRemove(e->page);
    return t.actions & kCliFill;
}

void
CoherenceController::lineActions(FrameNum frame, std::uint32_t line_idx,
                                 std::uint8_t actions)
{
    if (!(actions &
          (kActWritebackData | kActReplaceHint | kActRelinquish)))
        return;
    const Pit::Ref e = pit_.entry(frame);
    if (!e)
        return; // frame being torn down
    if (e->mode != PageMode::LaNuma && e->mode != PageMode::CcNuma) {
        if (actions & kActWritebackData)
            dram_.access(eq_.now()); // write back into local memory
        return;
    }
    // A clean-exclusive drop sends a hint: a silent one would leave
    // the full-map directory believing this node still owns the line.
    // The node stays a sharer while a local copy remains: always after
    // a relinquish, and after a dirty eviction whose peers still hold
    // the line (MOESI Owned).
    releaseLine(*e, line_idx, actions & kActWritebackData,
                (actions & kActRelinquish) ||
                    ((actions & kActWritebackData) &&
                     node_.heldCopy(frame, line_idx) != Mesi::Invalid));
}

// ---------------------------------------------------------------------
// Kernel command interface
// ---------------------------------------------------------------------

void
CoherenceController::installLocalMapping(FrameNum frame)
{
    pit_.installLocal(frame, geo_.linesPerPage());
}

void
CoherenceController::installClientMapping(FrameNum frame, GPage gpage,
                                          NodeId static_home,
                                          NodeId dyn_home,
                                          FrameNum home_frame, PageMode mode)
{
    prism_assert(isGlobalMode(mode), "client mapping must be a global mode");
    pit_.install(frame, gpage, static_home, dyn_home, home_frame, mode,
                 geo_.linesPerPage(), FgTag::Invalid);
    // A client S-COMA frame is a page-cache frame: the kernel pages
    // these out in LRU order.
    if (mode == PageMode::Scoma)
        pit_.lruInsert(frame);
}

void
CoherenceController::becomeHome(PageRecord &rec)
{
    rec.home->meta = HomeMeta{};
    rec.home->meta.accessesByNode.assign(cfg_.numNodes, 0);
    rec.movedTo = kInvalidNode;
}

void
CoherenceController::installHomeMapping(FrameNum frame, GPage gpage)
{
    const NodeId static_home = staticHomeOf(gpage, cfg_.numNodes);
    const Pit::Ref e =
        pit_.install(frame, gpage, static_home, self_, frame,
                     PageMode::Scoma, geo_.linesPerPage(), FgTag::Exclusive);
    PageRecord &rec = *e->page;
    prism_assert(!rec.home, "directory page already present");
    pages_.setHome(e->page, pages_.newHome());
    // The home's frame holds the only copy: it owns every line.
    for (std::uint32_t i = 0; i < geo_.linesPerPage(); ++i) {
        applyHomeNext(Directory::LineRef(rec, i), HomeNext::SenderOwns,
                      self_, kInvalidNode);
    }
    becomeHome(rec);
    if (static_home == self_)
        e->page->registry = self_;
    if (oracle_)
        oracle_->onHomeInstall(self_, gpage);
}

CoTask
CoherenceController::flushClientPage(FrameNum frame)
{
    const Pit::Ref e = pit_.entry(frame);
    prism_assert(e && e->gpage != kInvalidGPage,
                 "flushing a frame that maps no global page");

    // Wait for outstanding transactions on this page to settle:
    // controller-level (Transit tags, client transactions, pending
    // fills) and bus-level (in-flight node transactions, including
    // cache-to-cache fills that never reach the controller).
    for (;;) {
        const bool busy = (e->mode == PageMode::Scoma &&
                           e->tags.anyTransit()) ||
                          node_.anyBusPending(frame) ||
                          e->page->pendingLines != 0;
        if (!busy)
            break;
        co_await delay(cfg_.retryDelay);
    }

    for (std::uint32_t i = 0; i < geo_.linesPerPage(); ++i)
        co_await lineStep(clientCell(*e, i, ClientEvent::Flush), e, i);
}

void
CoherenceController::removeClientMapping(FrameNum frame)
{
    pit_.remove(frame);
}

bool
CoherenceController::clientPageQuiescent(FrameNum frame) const
{
    const Pit::Ref e = pit_.entry(frame);
    if (!e)
        return true;
    if (node_.anyBusPending(frame) || node_.anyCachedCopy(frame))
        return false;
    if (e->mode == PageMode::Scoma &&
        e->tags.count(FgTag::Invalid) != e->tags.lines())
        return false;
    return e->page->pendingLines == 0;
}

Cycles
CoherenceController::homeRemoveClient(GPage gpage, NodeId client)
{
    homeApplyPage(HomeEvent::ClientGone, *pages_.find(gpage), client);
    // Sequential page walk: mostly directory-cache hits.
    return geo_.linesPerPage() * cfg_.dirCacheHit;
}

void
CoherenceController::removeHomeMapping(FrameNum frame, GPage gpage)
{
    // The kernel has flushed processor copies into the frame, so lines
    // we owned leave with the frame (= memory) current.
    const PageRecords::Ref rec = pages_.find(gpage);
    homeApplyPage(HomeEvent::MigrateFlush, *rec, self_);
    pages_.setHome(rec, nullptr);
    pit_.remove(frame);
    const NodeId static_home = staticHomeOf(gpage, cfg_.numNodes);
    if (static_home == self_) {
        rec->registry = kInvalidNode;
        pages_.settle(rec);
    } else {
        Msg m(MsgType::MigrateDone, static_home, gpage);
        m.aux = 1; // erase-registry sentinel
        send(std::move(m));
    }
}

// ---------------------------------------------------------------------
// Network side
// ---------------------------------------------------------------------

void
CoherenceController::onMessage(Msg m)
{
    switch (m.type) {
      case MsgType::ReqS:
      case MsgType::ReqX:
      case MsgType::Upgrade:
        handleHomeRequest(std::move(m));
        return;
      case MsgType::Writeback:
      case MsgType::ReplaceHint:
        handleWriteback(std::move(m));
        return;
      case MsgType::XferNotice:
      case MsgType::FetchNack: {
        GLine gl = geo_.lineOf(m.gpage, m.lineIdx);
        HomeWait *const *wait = homeWaits_.find(gl);
        prism_assert(wait, "%s without a waiting home transaction",
                     enumName(m.type));
        if (m.type == MsgType::FetchNack)
            (*wait)->nacked = true;
        else
            (*wait)->dirty = m.dirty;
        (*wait)->event.signal();
        return;
      }
      case MsgType::Data:
      case MsgType::UpgAck:
      case MsgType::DataFwd:
      case MsgType::InvAck:
        handleClientReply(std::move(m));
        return;
      case MsgType::Inv:
        handleClientInv(std::move(m));
        return;
      case MsgType::Fetch:
        handleClientFetch(std::move(m));
        return;
      case MsgType::MigrateReq: {
        const NodeId home = registryLookup(m.gpage);
        if (home == kInvalidNode)
            return; // page gone; drop
        NodeId target = static_cast<NodeId>(m.aux);
        if (home == target)
            return;
        Msg prep(MsgType::MigratePrep, home, m.gpage);
        prep.aux = m.aux;
        send(std::move(prep));
        return;
      }
      case MsgType::MigratePrep:
        handleMigratePrep(std::move(m));
        return;
      case MsgType::MigrateData:
        handleMigrateData(std::move(m));
        return;
      case MsgType::MigrateDone:
        if (m.aux == 1) {
            if (auto rec = pages_.find(m.gpage)) {
                rec->registry = kInvalidNode;
                pages_.settle(rec);
            }
        } else {
            pages_.get(m.gpage)->registry = m.src;
        }
        return;
      default:
        panic("kernel message %s delivered to controller",
              enumName(m.type));
    }
}

const HomeTransition &
CoherenceController::homeCell(HomeEvent ev, Directory::LineRef d,
                              GPage gpage, std::uint32_t li, NodeId sender)
{
    const HomeView v = homeView(d, sender, self_);
    const HomeTransition &t = kHomeTable.on(v, ev, homeHits_);
    TRC(gpage, li, "home%u %s %s from n%u -> %s actions=%#x owner=%u sh=%s "
        "t=%llu", self_, enumName(v), enumName(ev), sender,
        enumName(t.next), t.actions, d.owner(),
        d.sharers().toString().c_str(), (unsigned long long)eq_.now());
    return t;
}

void
CoherenceController::homeCommit(const HomeTransition &t,
                                Directory::LineRef d, GPage gpage,
                                std::uint32_t li, NodeId sender,
                                NodeId prev_owner, bool dirty)
{
    applyHomeNext(d, t.next, sender, prev_owner);
    if ((t.actions & kHomeCollectDirty) && dirty)
        dram_.access(eq_.now());
    if (oracle_)
        oracle_->onHomeTransition(t.hook, self_, gpage, li, sender, dirty);
}

void
CoherenceController::homeApplyPage(HomeEvent ev, PageRecord &rec,
                                   NodeId sender)
{
    prism_assert(rec.home, "home %s on a page not homed here",
                 enumName(ev));
    for (std::uint32_t i = 0; i < geo_.linesPerPage(); ++i) {
        const Directory::LineRef d(rec, i);
        homeCommit(homeCell(ev, d, rec.gpage, i, sender), d, rec.gpage, i,
                   sender, kInvalidNode, false);
    }
}

Directory::LineRef
CoherenceController::dirLine(GPage gpage, std::uint32_t li)
{
    const PageRecords::Ref rec = pages_.find(gpage);
    return rec && rec->home ? Directory::LineRef(*rec, li)
                            : Directory::LineRef();
}

FireAndForget
CoherenceController::handleHomeRequest(Msg m)
{
    co_await occupy(cfg_.ctrlOverhead);
    // Page-keyed lookups: this find, the PIT's hash search when the
    // frame hint is stale, and the get below.
    PageRecords::Ref rec = pages_.find(m.gpage);
    if (!rec || !rec->home) {
        forward(std::move(m));
        co_return;
    }
    ++stats_.homeRequests;
    noteHomeAccess(rec->home->meta, m);

    bool hash = false;
    FrameNum hf = pit_.reverse(m.gpage, m.dstFrameHint, hash);
    prism_assert(hf != kInvalidFrame, "home has dir page but no PIT entry");
    co_await delay(pit_.reverseCycles(hash));

    const std::uint32_t li = m.lineIdx;
    const GLine gl = geo_.lineOf(m.gpage, li);
    // Queuing on (or holding) the line lock keeps the record live.
    rec = pages_.get(m.gpage);
    CoMutex &lk = pages_.lineLocks(rec)[li];
    co_await lk.acquire();

    // The page may have migrated away while we queued on the lock.
    if (!rec->home) {
        lk.release();
        pages_.settle(rec);
        forward(std::move(m));
        co_return;
    }
    // Refresh the home-frame entry: paging activity while we queued
    // may have moved it.
    hf = rec->frame;
    prism_assert(hf != kInvalidFrame, "home page lost its frame");
    const Pit::Ref he = pit_.entry(hf);
    // Remote requests touch the home frame's data: count the line as
    // accessed for the utilization statistics (Table 3).
    he->accessed.set(li);

    co_await delay(dir_.access(gl));
    Directory::LineRef d(*rec, li);
    const NodeId req = m.requester;
    const HomeEvent ev = m.type == MsgType::ReqS   ? HomeEvent::ReqS
                         : m.type == MsgType::ReqX ? HomeEvent::ReqX
                                                   : HomeEvent::Upgrade;
    for (;;) {
        const HomeTransition &t = homeCell(ev, d, m.gpage, li, req);
        const bool excl = t.next == HomeNext::SenderOwns;
        const NodeId prev_owner = d.owner();
        std::uint32_t acks = 0;
        if (t.actions & kHomeInvalSharers) {
            if (d.isSharer(self_) && self_ != req) {
                applyHomeNext(d, HomeNext::RemoveSender, self_,
                              kInvalidNode);
                co_await invalidateLocal(m.gpage, li, hf, 0);
            }
            // Snapshot the fan-out targets before the first suspension
            // point; members are visited in ascending node order.
            SharerSet rest = SharerSet::fromRef(d.sharers());
            rest.remove(req);
            rest.remove(self_);
            for (NodeId n = rest.first(); n != kInvalidNode;
                 n = rest.next(n)) {
                if (mutationBudget_ > 0) {
                    // Fault injection (oracle self-test): silently
                    // skip this invalidation.  The requester is told
                    // to expect one fewer ack, so the protocol
                    // proceeds with a stale sharer left behind.
                    --mutationBudget_;
                    continue;
                }
                // Serialized sends: the controller occupancy per
                // invalidation yields the paper's +80n latency slope.
                co_await occupy(cfg_.ctrlOverhead);
                Msg inv(MsgType::Inv, n, m.gpage, li);
                inv.requester = req;
                const HomeMeta &hm = rec->home->meta;
                if (cfg_.dirClientFrameHints && !hm.clientFrames.empty())
                    inv.dstFrameHint = hm.clientFrames[n];
                ++acks;
                ++stats_.invalsSent;
                eq_.snapNote(SnapKind::InvalSent);
                send(std::move(inv));
            }
        }
        if (t.actions & kHomeRecallSelf) {
            // If our own exclusive grant for this line is still in
            // flight (loopback reply not yet consumed), wait for it to
            // land — the remote-owner equivalent is the FetchNack
            // retry loop.  The grantee's reply needs no line lock, so
            // waiting here cannot deadlock.
            while (pending_.count(gl) || fillPending_.count(gl))
                co_await delay(cfg_.retryDelay);
            // 2-party transaction with the home's own copy.
            co_await lineStep(
                clientCell(*he, li,
                           excl ? ClientEvent::RecallWrite
                                : ClientEvent::RecallRead),
                he, li);
        }
        if (t.actions & kHomeFetchOwner) {
            // 3-party transaction: intervene at the remote owner.
            HomeWait wait(eq_);
            homeWaits_.insert(gl, &wait);
            Msg f(MsgType::Fetch, prev_owner, m.gpage, li);
            f.requester = req;
            f.requesterFrame = m.requesterFrame;
            f.forWrite = excl;
            f.homeFrame = hf;
            f.dynHome = self_;
            send(std::move(f));
            co_await wait.event.wait();
            homeWaits_.erase(gl);
            if (wait.nacked) {
                // The owner's writeback or replacement hint arrived
                // before the nack (FIFO links) and already updated the
                // directory; re-dispatch against the fresh state.
                co_await delay(dir_.access(gl));
                continue;
            }
            if (wait.dirty)
                dram_.access(eq_.now()); // sharing writeback into memory
        }
        if (t.actions & kHomeReplyData)
            co_await dramAccess();
        homeCommit(t, d, m.gpage, li, req, prev_owner, false);
        if (t.actions & (kHomeReplyData | kHomeReplyUpgAck)) {
            replyToRequester(m,
                             t.actions & kHomeReplyData ? MsgType::Data
                                                        : MsgType::UpgAck,
                             hf, self_, excl, acks);
        }
        break;
    }
    lk.release();
    // Still homed here, so the record stays live.
    maybeTriggerMigration(*rec);
}

FireAndForget
CoherenceController::handleWriteback(Msg m)
{
    const Tick t0 = eq_.now();
    co_await occupy(cfg_.ctrlOverhead);
    if (!isDynHome(m.gpage)) {
        forward(std::move(m));
        co_return;
    }
    bool hash = false;
    FrameNum hf = pit_.reverse(m.gpage, m.dstFrameHint, hash);
    co_await delay(pit_.reverseCycles(hash));
    // Forwarded writebacks (lazy migration) carry the owner identity
    // in `requester`.
    const NodeId owner_id =
        m.requester != kInvalidNode ? m.requester : m.src;
    // Memory firewall: a write-class action from a remote node is
    // checked against the PIT capability list (Section 3.2).
    if (hf != kInvalidFrame && owner_id != self_ &&
        !pit_.writeAllowed(hf, owner_id)) {
        ++stats_.firewallRejects;
        co_return;
    }
    const PageRecords::Ref rec = pages_.find(m.gpage);
    if (!rec || !rec->home) {
        // The page was paged out / migrated during the lookup delay.
        forward(std::move(m));
        co_return;
    }
    const Directory::LineRef d(*rec, m.lineIdx);
    const HomeEvent ev =
        m.keepShared ? HomeEvent::WbKeepShared : HomeEvent::WbRelease;
    homeCommit(homeCell(ev, d, m.gpage, m.lineIdx, owner_id), d, m.gpage,
               m.lineIdx, owner_id, kInvalidNode, m.dirty);
    recordTxn(latency_.writeback, trace_, "writeback", "coherence", self_,
              m.lineIdx, t0, eq_.now());
}

FireAndForget
CoherenceController::handleClientInv(Msg m)
{
    co_await occupy(cfg_.ctrlOverhead);
    ++stats_.invalsReceived;
    // In the paper's evaluated configuration the directory does not
    // cache client frame numbers (Section 4.1), so invalidations
    // reverse-translate via the hash path; with the Section 4.3
    // dirClientFrameHints option the message carries a hint.  Racing
    // transactions are poisoned before the lookup: a shared grant in
    // flight must not install a stale copy.
    bool hash = false;
    FrameNum f = pit_.reverse(m.gpage, m.dstFrameHint, hash);
    co_await invalidateLocal(m.gpage, m.lineIdx, f,
                             pit_.reverseCycles(hash));
    replyToRequester(m, MsgType::InvAck, kInvalidFrame, kInvalidNode, false);
}

FireAndForget
CoherenceController::handleClientFetch(Msg m)
{
    co_await occupy(cfg_.ctrlOverhead);
    const NodeId home = m.src;
    bool hash = false;
    FrameNum f = pit_.reverse(m.gpage, kInvalidFrame, hash);
    co_await delay(pit_.reverseCycles(hash));

    // Ownership requires an owner-class copy.  Any other node nacks —
    // it was downgraded (writeback in flight) or its own exclusive
    // grant has not landed yet — and the home retries against fresh
    // state.
    bool serve = false;
    bool data_home = false;
    const Pit::Ref e = pit_.entry(f);
    if (e && e->gpage == m.gpage) { // the frame may have been recycled
        InterventionResult r{};
        const ClientTransition &t = clientCell(
            *e, m.lineIdx,
            m.forWrite ? ClientEvent::FetchWrite : ClientEvent::FetchRead);
        co_await lineStep(t, e, m.lineIdx, &r);
        serve = t.actions & kCliServe;
        // Home memory is stale while this node owned the line, so a
        // read downgrade carries data home: out of the page cache, or
        // the dirty copy the intervention wrote back.
        data_home = !m.forWrite && ((t.actions & kCliReadLine) ||
                                    (r.actions & kActWritebackData));
    }
    if (!serve) {
        ++stats_.nacksSent;
        send(Msg(MsgType::FetchNack, home, m.gpage, m.lineIdx));
        co_return;
    }

    ++stats_.fetchesServed;
    if (oracle_)
        oracle_->onOwnerServe(self_, m.gpage, m.lineIdx, m.requester,
                              m.forWrite);
    replyToRequester(m, MsgType::DataFwd, m.homeFrame, m.dynHome, m.forWrite);

    Msg x(MsgType::XferNotice, home, m.gpage, m.lineIdx);
    x.dirty = data_home;
    x.keepShared = !m.forWrite;
    send(std::move(x));
}

FireAndForget
CoherenceController::handleClientReply(Msg m)
{
    // Acks are counted at delivery; grants pay the controller first.
    if (m.type != MsgType::InvAck)
        co_await occupy(cfg_.ctrlOverhead);
    ClientTxn *const *txn = pending_.find(geo_.lineOf(m.gpage, m.lineIdx));
    prism_assert(txn, "%s without a transaction", enumName(m.type));
    ClientTxn *t = *txn;
    if (m.type == MsgType::InvAck) {
        t->latch.arrive();
        co_return;
    }
    t->exclusive = m.exclusive;
    t->dataFetched = (m.type != MsgType::UpgAck) && (m.src != self_);
    t->threeParty = (m.type == MsgType::DataFwd);
    if (m.dynHome != kInvalidNode)
        t->dynHome = m.dynHome;
    if (m.homeFrame != kInvalidFrame)
        t->homeFrame = m.homeFrame;
    t->latch.expect(m.ackCount);
    t->latch.arm();
}

// ---------------------------------------------------------------------
// Lazy page migration
// ---------------------------------------------------------------------

void
CoherenceController::requestMigration(GPage gpage, NodeId new_home)
{
    Msg m(MsgType::MigrateReq, staticHomeOf(gpage, cfg_.numNodes), gpage);
    m.aux = new_home;
    send(std::move(m));
}

void
CoherenceController::noteHomeAccess(HomeMeta &hm, const Msg &m)
{
    ++hm.accessesByNode[m.requester];
    ++hm.totalAccesses;
    if (cfg_.dirClientFrameHints && m.requesterFrame != kInvalidFrame) {
        if (hm.clientFrames.empty())
            hm.clientFrames.assign(cfg_.numNodes, kInvalidFrame);
        hm.clientFrames[m.requester] = m.requesterFrame;
    }
}

void
CoherenceController::maybeTriggerMigration(PageRecord &rec)
{
    if (!cfg_.migrationEnabled || !rec.home)
        return;
    HomeMeta &hm = rec.home->meta;
    if (hm.migrating)
        return;
    if (hm.totalAccesses < cfg_.migrationThreshold)
        return;
    NodeId best = self_;
    std::uint32_t best_count = 0;
    for (NodeId n = 0; n < cfg_.numNodes; ++n) {
        if (n != self_ && hm.accessesByNode[n] > best_count) {
            best = n;
            best_count = hm.accessesByNode[n];
        }
    }
    const bool dominant = best != self_ &&
                          2ULL * best_count > hm.totalAccesses;
    hm.accessesByNode.assign(cfg_.numNodes, 0);
    hm.totalAccesses = 0;
    if (dominant)
        requestMigration(rec.gpage, best);
}

FireAndForget
CoherenceController::handleMigratePrep(Msg m)
{
    const Tick t0 = eq_.now();
    co_await occupy(cfg_.ctrlOverhead);
    const GPage gp = m.gpage;
    const NodeId new_home = static_cast<NodeId>(m.aux);
    // The home block, then the line locks, keep the record live.
    const PageRecords::Ref rec = pages_.find(gp);
    if (!rec || !rec->home || new_home == self_)
        co_return;
    if (rec->home->meta.migrating)
        co_return;
    rec->home->meta.migrating = true;
    const FrameNum hf = rec->frame;

    // Quiesce: acquire every line lock so no transaction is in flight.
    std::vector<CoMutex> &lks = pages_.lineLocks(rec);
    for (CoMutex &l : lks)
        co_await l.acquire();

    // Wait for local bus-level activity on the frame to drain, then
    // flush local processor copies into the home frame's memory.
    while (node_.anyBusPending(hf))
        co_await delay(cfg_.retryDelay);
    co_await collectFrame(hf);

    // Flushed above into the departing frame: the payload carries the
    // latest value of the lines we owned as the new memory.
    homeApplyPage(HomeEvent::MigrateFlush, *rec, self_);
    auto payload = std::make_shared<MigrationPayload>();
    payload->home = pages_.setHome(rec, nullptr);
    payload->home->clients.remove(self_);
    payload->home->clients.remove(new_home);

    Msg data(MsgType::MigrateData, new_home, gp);
    data.payload = payload;
    send(std::move(data));

    rec->movedTo = new_home;
    node_.kernel().migrationFreeFrame(hf, gp);
    pit_.remove(hf);
    ++stats_.migrationsOut;
    recordTxn(latency_.migration, trace_, "migration", "paging", self_, 0,
              t0, eq_.now());

    // Release the locks; queued handlers will find the page gone and
    // forward toward the new home.  The tombstone keeps the record.
    for (CoMutex &l : lks)
        l.release();
}

FireAndForget
CoherenceController::handleMigrateData(Msg m)
{
    co_await occupy(cfg_.ctrlOverhead);
    auto payload = std::static_pointer_cast<MigrationPayload>(m.payload);
    const GPage gp = m.gpage;

    bool hash = false;
    const FrameNum existing = pit_.reverse(gp, kInvalidFrame, hash);
    // A client S-COMA frame is promoted to the home frame: its
    // fine-grain tags already describe this node's rights.
    const bool promote = existing != kInvalidFrame &&
                         pit_.entry(existing)->mode == PageMode::Scoma;
    if (existing != kInvalidFrame && !promote) {
        // LA-NUMA client mapping: collect processor copies into
        // memory, then retire the imaginary frame.
        co_await collectFrame(existing);
        pit_.remove(existing);
        node_.kernel().migrationFreeFrame(existing, gp);
    }

    const PageRecords::Ref rec = pages_.get(gp);
    prism_assert(!rec->home, "migration target already home");
    pages_.setHome(rec, std::move(payload->home));
    FrameNum hf = existing;
    if (promote) {
        const Pit::Ref e = pit_.entry(hf);
        e->dynHome = self_;
        e->homeFrameHint = hf;
        // Lines we own stay Owned(self), but the promoted frame is now
        // the home memory and it holds our (latest) data.
        for (std::uint32_t i = 0; oracle_ && i < geo_.linesPerPage(); ++i) {
            if (homeView(Directory::LineRef(*rec, i), self_, self_) ==
                HomeView::OwnedSender)
                oracle_->onHomeTransition(HomeHook::MigrateFlush, self_, gp,
                                          i, self_, false);
        }
    } else {
        // Copies collected above are now home memory.
        if (existing != kInvalidFrame)
            homeApplyPage(HomeEvent::MigrateFlush, *rec, self_);
        hf = node_.kernel().migrationAllocFrame(gp);
        prism_assert(hf != kInvalidFrame, "migration frame alloc failed");
        const Pit::Ref e =
            pit_.install(hf, gp, staticHomeOf(gp, cfg_.numNodes), self_, hf,
                         PageMode::Scoma, geo_.linesPerPage(),
                         FgTag::Invalid);
        // Derive this node's tags from its view of the directory.
        for (std::uint32_t i = 0; i < geo_.linesPerPage(); ++i) {
            const HomeView v =
                homeView(Directory::LineRef(*rec, i), self_, self_);
            if (v == HomeView::OwnedSender)
                e->tags.set(i, FgTag::Exclusive);
            else if (v == HomeView::SharedSender)
                e->tags.set(i, FgTag::Shared);
        }
    }
    becomeHome(*rec);
    node_.kernel().adoptHomePage(gp);
    ++stats_.migrationsIn;

    // Charge receipt of the page-sized payload into memory.
    for (int i = 0; i < 8; ++i)
        dram_.access(eq_.now());

    send(Msg(MsgType::MigrateDone, staticHomeOf(gp, cfg_.numNodes), gp));
}

double
CoherenceController::tagBytesModeled() const
{
    std::uint64_t bytes = 0;
    for (FrameNum f : pit_.allFrames()) {
        const Pit::Ref e = pit_.entry(f);
        if (e->mode == PageMode::Scoma)
            bytes += (e->tags.lines() + 3) / 4;
    }
    return static_cast<double>(bytes);
}

} // namespace prism
