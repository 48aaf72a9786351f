/**
 * @file
 * The PRISM coherence controller (paper Section 3).
 *
 * One controller sits between each node's memory bus and network
 * interface.  It dispatches protocol handlers based on the page-frame
 * mode of the physical address (Figure 4): Local-mode transactions are
 * ignored, S-COMA transactions consult the frame's fine-grain tags,
 * and LA-NUMA (and CC-NUMA) transactions are serviced by fetching from
 * the page's home.  The kernel programs the PIT through the install
 * and remove calls below, charging a command-mode delay of its own.
 *
 * The controller implements both sides of the inter-node protocol: the
 * client side (misses, upgrades, writebacks, incoming invalidations and
 * interventions) and the home side (full-map directory, per-line
 * request serialization, 2-party and 3-party transactions, serialized
 * invalidation fan-out), plus lazy page migration (Section 3.5).  It
 * interprets three tables: the client table of client_protocol.hh
 * decides every client-side action and writes every fine-grain tag
 * after page install, the home table of home_protocol.hh every
 * directory write, and the line table of line_protocol.hh every
 * processor-cache transition its interventions cause.
 *
 * Protocol handlers run as coroutines on the deterministic event
 * queue; controller occupancy, PIT, directory-cache, memory and
 * network timings are charged along the way.
 *
 * The controller is one part of a Node and calls the rest directly:
 * Node::intervene and the node's cache probes for processor copies,
 * the node's kernel for the frames a migrating page leaves and takes,
 * and Machine::route for every message it sends.  It reads the
 * machine's oracle, trace sink and message-log filter once, when it is
 * built.
 */

#ifndef PRISM_COHERENCE_CONTROLLER_HH
#define PRISM_COHERENCE_CONTROLLER_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "coherence/client_protocol.hh"
#include "coherence/directory.hh"
#include "coherence/home_protocol.hh"
#include "coherence/line_protocol.hh"
#include "coherence/msg.hh"
#include "coherence/page_record.hh"
#include "coherence/pit.hh"
#include "core/config.hh"
#include "mem/addr.hh"
#include "mem/cache.hh"
#include "mem/dram.hh"
#include "net/network.hh"
#include "obs/metrics.hh"
#include "sim/coro_sync.hh"
#include "sim/event_queue.hh"
#include "sim/flat_map.hh"
#include "sim/task.hh"

namespace prism {

class Node;
class ProtocolOracle;
class TraceSink;

/** How a processor miss was ultimately satisfied. */
enum class MissSource : std::uint8_t {
    LocalMem, //!< data supplied by this node's memory (page cache/local)
    Remote,   //!< data or permission obtained through the protocol
    Retry,    //!< line in Transit or already outstanding; re-arbitrate
    BadFrame, //!< the frame's mapping was torn down; re-translate
};

/** Result of CoherenceController::serviceMiss. */
struct MissResult {
    MissSource source = MissSource::Retry;
    bool exclusive = false; //!< processor may cache the line E/M
};

// (An invalidation that races a non-exclusive reply poisons the
// transaction; serviceMiss converts that to a Retry outcome.)

/** Outcome of a local processor-cache intervention (Node::intervene). */
struct InterventionResult {
    Tick done;    //!< tick at which the intervention completes
    /** Union of the copies' transition actions (LineAction flags). */
    std::uint8_t actions;
};

/**
 * The protocol message-log filter: the controller writes each protocol
 * decision on a matching line to stderr.  The machine parses it once,
 * strictly, so a bad value fails fast naming the knob.
 */
struct MsgLogFilter {
    GPage gpage = kInvalidGPage; //!< kInvalidGPage: log nothing
    std::uint64_t li = ~0ULL;    //!< ~0: every line of the page

    /** PRISM_TRACE_GPAGE (hex) and PRISM_TRACE_LI (decimal). */
    static MsgLogFilter fromEnv();

    bool
    match(GPage gp, std::uint32_t line) const
    {
        return gpage != kInvalidGPage && gp == gpage &&
               (li == ~0ULL || line == li);
    }
};

/** Per-node statistics the controller maintains (component "ctrl"). */
struct ControllerStats {
    std::uint64_t remoteMisses = 0;   //!< fetched data from a remote node
    std::uint64_t localMemHits = 0;   //!< misses satisfied by local memory
    std::uint64_t upgrades = 0;       //!< write permission w/o data fetch
    std::uint64_t retries = 0;        //!< bus retries (Transit et al.)
    std::uint64_t invalsSent = 0;
    std::uint64_t invalsReceived = 0;
    std::uint64_t fetchesServed = 0;  //!< 3-party interventions served
    std::uint64_t nacksSent = 0;
    std::uint64_t writebacksSent = 0;
    std::uint64_t replaceHintsSent = 0;
    std::uint64_t forwards = 0;       //!< misdirected requests forwarded
    std::uint64_t homeRequests = 0;
    std::uint64_t migrationsOut = 0;
    std::uint64_t migrationsIn = 0;
    std::uint64_t firewallRejects = 0;
};

inline constexpr CounterRow<ControllerStats> kControllerCounters[] = {
    {"remoteMisses", "count", "misses that fetched data from a remote node",
     &ControllerStats::remoteMisses},
    {"localMemHits", "count",
     "misses satisfied by local memory / page cache",
     &ControllerStats::localMemHits},
    {"upgrades", "count",
     "write-permission transactions without data fetch",
     &ControllerStats::upgrades},
    {"retries", "count", "bus retries", &ControllerStats::retries},
    {"invalsSent", "count", "", &ControllerStats::invalsSent},
    {"invalsReceived", "count", "", &ControllerStats::invalsReceived},
    {"fetchesServed", "count", "", &ControllerStats::fetchesServed},
    {"nacksSent", "count", "", &ControllerStats::nacksSent},
    {"writebacksSent", "count", "", &ControllerStats::writebacksSent},
    {"replaceHintsSent", "count", "", &ControllerStats::replaceHintsSent},
    {"forwards", "count", "misdirected requests forwarded (lazy migration)",
     &ControllerStats::forwards},
    {"homeRequests", "count", "", &ControllerStats::homeRequests},
    {"migrationsOut", "count", "", &ControllerStats::migrationsOut},
    {"migrationsIn", "count", "", &ControllerStats::migrationsIn},
    {"firewallRejects", "count", "", &ControllerStats::firewallRejects},
};

/** Per-transaction-type latency distributions (request to grant). */
struct ControllerLatency {
    Histogram read2{latencyBounds()};     //!< 2-party data fetch
    Histogram read3{latencyBounds()};     //!< 3-party data fetch
    Histogram upgrade{latencyBounds()};   //!< permission-only
    Histogram writeback{latencyBounds()}; //!< home-side acceptance
    Histogram migration{latencyBounds()}; //!< prep through handoff
};

inline constexpr HistogramRow<ControllerLatency> kControllerLatency[] = {
    {"latency.read2", "cycles", "2-party data-fetch transaction latency",
     &ControllerLatency::read2},
    {"latency.read3", "cycles",
     "3-party (owner-forwarded) transaction latency",
     &ControllerLatency::read3},
    {"latency.upgrade", "cycles", "permission-only upgrade latency",
     &ControllerLatency::upgrade},
    {"latency.writeback", "cycles", "home-side writeback handling latency",
     &ControllerLatency::writeback},
    {"latency.migration", "cycles", "migration prep-to-handoff latency",
     &ControllerLatency::migration},
};

static_assert(distinctNames(kControllerCounters, kControllerLatency));

/** The coherence controller of one node. */
class CoherenceController
{
  public:
    /**
     * The controller of @p node, built before the node's kernel: it
     * reads the machine's oracle, trace sink and message-log filter.
     */
    explicit CoherenceController(Node &node);

    NodeId self() const { return self_; }
    Pit &pit() { return pit_; }
    const Pit &pit() const { return pit_; }
    /** The node's per-page records (shared with the kernel). */
    PageRecords &pages() { return pages_; }
    const PageRecords &pages() const { return pages_; }
    const ControllerStats &stats() const { return stats_; }
    const ControllerLatency &latency() const { return latency_; }

    /** Modeled fine-grain tag bytes across live S-COMA frames. */
    double tagBytesModeled() const;
    const LineGeometry &geometry() const { return geo_; }

    // --- Processor side -------------------------------------------------

    /**
     * Service an L2 miss (or upgrade) that local snooping could not
     * satisfy.  Runs on the processor's coroutine; on return @p out
     * says whether data/permission is ready or the bus must retry.
     *
     * @param frame       the physical frame being accessed
     * @param line_idx    line index within the page
     * @param for_write   the processor needs exclusivity
     * @param local_copy  a valid local copy of the data exists
     *                    (processor S copy or peer S copy), so an
     *                    Upgrade (permission-only) suffices
     */
    CoTask serviceMiss(FrameNum frame, std::uint32_t line_idx,
                       bool for_write, bool local_copy, MissResult *out);

    /**
     * Final validity check immediately before a processor-cache fill.
     * Closes the window between transaction completion and the bus
     * fill: an invalidation arriving in that window must prevent the
     * stale fill.  For LA-NUMA frames this consumes the fill token
     * created by the transaction; for S-COMA frames it re-checks the
     * fine-grain tag against the intended fill state: M/E fills
     * require an Exclusive tag, S fills any valid tag.
     * @retval false the fill must be abandoned (caller retries).
     */
    bool finishFill(FrameNum frame, std::uint32_t line_idx, Mesi intended);

    /**
     * Carry out the node-level side effects of a processor-cache line
     * transition: its kActWritebackData, kActReplaceHint and
     * kActRelinquish flags (LineAction; other flags are ignored).
     * Local and S-COMA lines write dirty data into local memory.
     * LA-NUMA lines tell the home: a writeback, a clean-exclusive
     * replacement hint, or, for a relinquish (an M/E copy downgraded
     * by an intra-node read), a keep-shared writeback, without which
     * the node's Shared copies could later drop silently while the
     * full-map directory still records the node as owner.
     */
    void lineActions(FrameNum frame, std::uint32_t line_idx,
                     std::uint8_t actions);

    // --- Kernel command interface (paging) -------------------------------

    /** Install a Local-mode mapping (private memory). */
    void installLocalMapping(FrameNum frame);

    /** Install a client mapping (after a client page fault). */
    void installClientMapping(FrameNum frame, GPage gpage,
                              NodeId static_home, NodeId dyn_home,
                              FrameNum home_frame, PageMode mode);

    /** Install a home mapping (page-in at the home node). */
    void installHomeMapping(FrameNum frame, GPage gpage);

    /**
     * Flush a client page for page-out: wait for Transit lines to
     * settle, invalidate local processor copies, write dirty lines
     * back to the home.
     */
    CoTask flushClientPage(FrameNum frame);

    /** Remove a client PIT entry after flushing. */
    void removeClientMapping(FrameNum frame);

    /**
     * Synchronous check that a flushed client page is truly quiet:
     * no bus- or controller-level transaction on its lines, no valid
     * fine-grain tag, and no processor-cache copy.  The kernel loops
     * flushClientPage until this holds, then removes the mapping in
     * the same event (so nothing can slip in between).
     */
    bool clientPageQuiescent(FrameNum frame) const;

    /**
     * Home side of a client page-out: drop the client from every
     * line's sharer set.  @return directory access cycles charged.
     */
    Cycles homeRemoveClient(GPage gpage, NodeId client);

    /**
     * Home page-out: drop directory state for @p gpage (all clients
     * must have been flushed first) and remove the home PIT entry.
     */
    void removeHomeMapping(FrameNum frame, GPage gpage);

    /** True if this node is currently the dynamic home of @p gpage. */
    bool
    isDynHome(GPage gpage) const
    {
        const PageRecords::Ref rec = pages_.find(gpage);
        return rec && rec->home;
    }

    /** Line @p li of @p gpage's directory; falsy if not homed here. */
    Directory::LineRef dirLine(GPage gpage, std::uint32_t li);

    /**
     * True when no protocol handler holds a line lock of @p gpage and
     * no 3-party intervention is outstanding for its lines.  Home
     * page-outs must wait for this before tearing down the directory.
     */
    bool homePageQuiescent(GPage gpage) const;

    /** Trigger a lazy migration of @p gpage toward @p new_home. */
    void requestMigration(GPage gpage, NodeId new_home);

    /**
     * Static-home registry lookup: current dynamic home of @p gpage,
     * or kInvalidNode if this node anchors no such page.
     */
    NodeId registryLookup(GPage gpage) const;

    // --- Network side ------------------------------------------------------

    /** Deliver a protocol message to this controller. */
    void onMessage(Msg m);

    /**
     * Times this node has looked up client-table cell (@p v, @p e).
     * Kept outside the metric tables, so reports do not change.
     */
    std::uint64_t
    clientCellHits(ClientView v, ClientEvent e) const
    {
        return clientHits_(v, e);
    }

    /** Times this node has looked up home-table cell (@p v, @p e). */
    std::uint64_t
    homeCellHits(HomeView v, HomeEvent e) const
    {
        return homeHits_(v, e);
    }

  private:
    /** Client-side transaction awaiting a reply plus ack collection. */
    struct ClientTxn {
        explicit ClientTxn(EventQueue &eq) : latch(eq) {}
        CoLatch latch;
        bool exclusive = false;
        bool dataFetched = false; //!< data crossed the network
        bool threeParty = false;  //!< data supplied by the previous owner
        bool invalidatedMidFlight = false;
        NodeId dynHome = kInvalidNode;
        FrameNum homeFrame = kInvalidFrame;
    };

    /** Home-side wait for an owner's response in a 3-party leg. */
    struct HomeWait {
        explicit HomeWait(EventQueue &eq) : event(eq) {}
        CoEvent event;
        bool nacked = false;
        bool dirty = false;
    };

    /** Payload attached to a MigrateData message. */
    struct MigrationPayload {
        std::unique_ptr<HomeBlock> home;
    };

    // Timing helpers.
    DelayAwaiter delay(Cycles c) { return DelayAwaiter(eq_, c); }

    /** Wait until tick @p t (no suspension if it has passed). */
    DelayAwaiter
    until(Tick t)
    {
        return delay(t > eq_.now() ? t - eq_.now() : 0);
    }

    DelayAwaiter occupy(Cycles c);
    DelayAwaiter dramAccess();

    // Messaging helpers.
    void send(Msg &&m);
    void forward(Msg &&m);

    /**
     * Give a line (or its ownership) back to the home: a Writeback
     * carrying @p dirty data, or a ReplaceHint for a clean release.
     */
    void releaseLine(const PitEntry &e, std::uint32_t line_idx, bool dirty,
                     bool keep_shared);

    /**
     * Send the requester of @p m (a request, Fetch or Inv) its reply:
     * the home's Data/UpgAck grant, the owner's DataFwd or an InvAck.
     */
    void replyToRequester(const Msg &m, MsgType type, FrameNum home_frame,
                          NodeId dyn_home, bool exclusive,
                          std::uint32_t acks = 0);

    /**
     * Snoop every line of @p frame out of the processor caches,
     * collecting dirty data into memory.
     */
    CoTask collectFrame(FrameNum frame);

    /**
     * Invalidate this node's copy of a line inline: poison any racing
     * client transaction or pending fill (its grant or fill check then
     * raises GrantVoid or FillVoid), wait @p lookup cycles (the PIT
     * reverse translation that found @p frame), then run the Inv cell.
     * The cell is skipped if @p frame no longer maps @p gpage by then.
     */
    CoTask invalidateLocal(GPage gpage, std::uint32_t line_idx,
                           FrameNum frame, Cycles lookup);

    // Client-table interpreter (client_protocol.hh).  clientView reads
    // the line's view; clientCell looks up, counts and traces a cell;
    // lineStep is the one line step: intervene with the cell's
    // LineEvent, write its next view as the tag and tell the oracle at
    // once, then (kCliSnoop) return settleLine, which waits for the bus
    // and collects or releases the copies' dirty data; other cells
    // return an empty task.  State changes are synchronous with the
    // snoop; only its timing is awaited.  @p out receives the
    // intervention.
    ClientView clientView(const PitEntry &e, std::uint32_t li) const;
    const ClientTransition &clientCell(ClientView v, ClientEvent ev,
                                       GPage gpage, std::uint32_t li);

    const ClientTransition &
    clientCell(const PitEntry &e, std::uint32_t li, ClientEvent ev)
    {
        return clientCell(clientView(e, li), ev, e.gpage, li);
    }

    CoTask lineStep(const ClientTransition &t, const Pit::Ref &e,
                    std::uint32_t li, InterventionResult *out = nullptr);
    CoTask settleLine(const ClientTransition &t, Pit::Ref e,
                      std::uint32_t li, InterventionResult r);

    /**
     * Send the request a miss cell names (@p request: its actions) and
     * wait for the grant and acks.  @p landing is the grant's event.
     */
    CoTask runClientTxn(std::uint32_t request, Pit::Ref e, FrameNum frame,
                        std::uint32_t line_idx, MissResult *out,
                        ClientEvent *landing);

    // Handler coroutines (network side).
    FireAndForget handleHomeRequest(Msg m);
    FireAndForget handleWriteback(Msg m);
    FireAndForget handleClientInv(Msg m);
    FireAndForget handleClientFetch(Msg m);
    FireAndForget handleClientReply(Msg m);
    FireAndForget handleMigratePrep(Msg m);
    FireAndForget handleMigrateData(Msg m);

    // Home-protocol interpreter (home_protocol.hh).  homeCell looks up
    // the cell for @p sender's view of @p d and traces it; homeCommit
    // collects dirty writeback data, writes the next state and calls
    // the oracle hook; homeApplyPage runs a synchronous event over
    // every line of @p rec's page.
    const HomeTransition &homeCell(HomeEvent ev, Directory::LineRef d,
                                   GPage gpage, std::uint32_t li,
                                   NodeId sender);
    void homeCommit(const HomeTransition &t, Directory::LineRef d,
                    GPage gpage, std::uint32_t li, NodeId sender,
                    NodeId prev_owner, bool dirty);
    void homeApplyPage(HomeEvent ev, PageRecord &rec, NodeId sender);

    // Home-side helpers.  becomeHome resets the migration metadata
    // of a page mapped in or migrated here; noteHomeAccess counts a
    // request toward the migration policy and caches the requester's
    // frame hint.
    void becomeHome(PageRecord &rec);
    void noteHomeAccess(HomeMeta &hm, const Msg &m);
    void maybeTriggerMigration(PageRecord &rec);

    Node &node_;
    NodeId self_;
    const MachineConfig &cfg_;
    EventQueue &eq_;
    Dram &dram_;
    LineGeometry geo_;

    PageRecords pages_;
    Pit pit_;
    Directory dir_;
    FcfsResource ctrlRes_; //!< protocol-engine occupancy

    /** Granted-but-not-yet-filled LA-NUMA lines (see finishFill). */
    struct FillToken {
        bool invalidated = false;
    };

    // Per-line transaction state: entries live for one transaction,
    // so they are keyed by line rather than kept in the page record.
    FlatMap<ClientTxn *> pending_{"client transactions"};
    FlatMap<FillToken> fillPending_{"fill tokens"};
    FlatMap<HomeWait *> homeWaits_{"home waits"};

    /**
     * A line of @p rec's page gained or lost an outstanding client
     * transaction or fill token (PageRecord::pendingLines), so the
     * page-flush drain checks probe one counter instead of walking
     * every line of the page.
     */
    void pendingPageAdd(PageRecords::Ref rec) { ++rec->pendingLines; }

    void
    pendingPageRemove(PageRecords::Ref rec)
    {
        --rec->pendingLines;
        pages_.settle(rec);
    }

    ProtocolOracle *const oracle_; //!< null unless an oracle checks
    TraceSink *const trace_;       //!< null unless the machine traces
    const MsgLogFilter log_;
    /** Remaining invalidations to skip (cfg.mutationSkipInvals). */
    std::uint32_t mutationBudget_ = 0;

    ControllerStats stats_;
    ControllerLatency latency_;

    /** Cell lookups (clientCellHits, homeCellHits). */
    ClientTable::Hits clientHits_;
    HomeTable::Hits homeHits_;
};

/**
 * Per-node memory-footprint gauges (component "footprint"): what the
 * coherence metadata costs on a node when the report is built.
 * Directory bytes follow the home blocks' SoA layout (state byte +
 * owner id + ceil(numNodes/64) sharer words per line); tag bytes are
 * the architected 2 bits per line of every S-COMA frame.  These size
 * a machine preset (docs/PERFORMANCE.md §9); scripts/strip_report.py
 * drops them from byte-identity comparisons alongside the workload
 * histograms.
 */
inline constexpr GaugeRow<CoherenceController> kFootprintGauges[] = {
    {"dirBytes", "bytes", "directory entry bytes for pages homed here",
     [](const CoherenceController &c) {
         return static_cast<double>(c.pages().homeBytes());
     }},
    {"dirPages", "pages", "pages homed here (directory page count)",
     [](const CoherenceController &c) {
         return static_cast<double>(c.pages().homePages());
     }},
    {"pitEntries", "entries", "live PIT entries (frame translations)",
     [](const CoherenceController &c) {
         return static_cast<double>(c.pit().size());
     }},
    {"tagBytes", "bytes",
     "fine-grain tag bytes (2 bits/line) on S-COMA frames",
     [](const CoherenceController &c) { return c.tagBytesModeled(); }},
};

static_assert(distinctNames(kFootprintGauges));

} // namespace prism

#endif // PRISM_COHERENCE_CONTROLLER_HH
