/**
 * @file
 * Per-node operating system kernel (paper Section 3.3 / 3.4).
 *
 * PRISM runs multiple independent kernels, one per node; each manages
 * only its local resources.  The kernel owns the node-private page
 * table and per-mode frame pools, implements the external paging
 * protocol (client page-ins through the home, page-outs with
 * write-back, home-page-status flags), binds virtual segments to
 * global segments at user-controlled granularity, and at each client
 * page fault runs its policy's row of kPolicyRules
 * (policy/page_policy.hh) in chooseClientMode.  No kernel ever
 * dereferences another node's physical memory.
 *
 * The kernel belongs to one Node and is built after the node's
 * coherence controller, whose PIT it programs and whose page records
 * it shares; it shoots down the node's TLBs and cache lines through
 * the node, and sends its messages through Machine::route.
 */

#ifndef PRISM_OS_KERNEL_HH
#define PRISM_OS_KERNEL_HH

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "coherence/controller.hh"
#include "coherence/msg.hh"
#include "core/config.hh"
#include "mem/addr.hh"
#include "os/frame_pool.hh"
#include "os/ipc_server.hh"
#include "os/page_table.hh"
#include "policy/page_policy.hh"
#include "sim/coro_sync.hh"
#include "sim/task.hh"

namespace prism {

class Node;
class TraceSink;

/** Kernel statistics (per node, component "kernel"). */
struct KernelStats {
    std::uint64_t faults = 0;
    std::uint64_t faultsPrivate = 0;
    std::uint64_t faultsHome = 0;
    std::uint64_t faultsClient = 0;
    std::uint64_t faultsCachedHome = 0; //!< home-page-status flag hits
    std::uint64_t clientPageOuts = 0;
    std::uint64_t homePageOuts = 0;
    std::uint64_t conversionsToLaNuma = 0;
    std::uint64_t conversionsToScoma = 0;
    std::uint64_t pageInRequestsServed = 0;
};

inline constexpr CounterRow<KernelStats> kKernelCounters[] = {
    {"faults", "count", "page faults handled", &KernelStats::faults},
    {"faultsPrivate", "count", "", &KernelStats::faultsPrivate},
    {"faultsHome", "count", "", &KernelStats::faultsHome},
    {"faultsClient", "count", "", &KernelStats::faultsClient},
    {"faultsCachedHome", "count",
     "client faults served without contacting the home",
     &KernelStats::faultsCachedHome},
    {"clientPageOuts", "count", "", &KernelStats::clientPageOuts},
    {"homePageOuts", "count", "", &KernelStats::homePageOuts},
    {"conversionsToLaNuma", "count", "", &KernelStats::conversionsToLaNuma},
    {"conversionsToScoma", "count", "", &KernelStats::conversionsToScoma},
    {"pageInRequestsServed", "count", "",
     &KernelStats::pageInRequestsServed},
};

/** Page-transfer latency distributions (per node). */
struct KernelLatency {
    Histogram pageIn{latencyBounds()};  //!< client fault round-trip
    Histogram pageOut{latencyBounds()}; //!< flush through completion
};

inline constexpr HistogramRow<KernelLatency> kKernelLatency[] = {
    {"latency.pageIn", "cycles", "client page-in round-trip latency",
     &KernelLatency::pageIn},
    {"latency.pageOut", "cycles", "page-out flush-to-completion latency",
     &KernelLatency::pageOut},
};

/** One node's kernel. */
class Kernel
{
  public:
    /**
     * The kernel of @p node, built after the node's controller: it
     * reads the machine's trace sink.
     */
    explicit Kernel(Node &node);

    NodeId self() const { return self_; }
    const MachineConfig &config() const { return cfg_; }
    PageTable &pageTable() { return pt_; }
    CoherenceController &controller() { return ctrl_; }
    const KernelStats &stats() const { return stats_; }
    const KernelLatency &latency() const { return latency_; }
    EventQueue &eventQueue() { return eq_; }

    // --- Global naming and binding ------------------------------------

    /**
     * Attach virtual segment @p vsid to global segment @p gsid
     * (globalized shmat; identical page numbering).  Global binding
     * happens here, at segment granularity, not per page fault.
     */
    void bindSegment(std::uint64_t vsid, std::uint64_t gsid);

    /** Global page for @p vp, if its segment is bound. */
    bool globalPageOf(VPage vp, GPage *gp) const;

    /** Virtual page for @p gp at this node (inverse binding). */
    VPage vpageOf(GPage gp) const;

    // --- Fault and paging paths -------------------------------------------

    /**
     * Handle a page fault for @p vp (runs on the faulting processor's
     * coroutine).  On return the page is mapped and @p out_frame holds
     * the frame.
     */
    CoTask handleFault(VPage vp, FrameNum *out_frame);

    /**
     * Page out this node's client copy of @p gp, writing dirty lines
     * back to the home.  If @p convert_to_lanuma, future faults on the
     * page at this node use LA-NUMA frames (dynamic re-binding by
     * page-out + refault, Section 3.3).
     */
    CoTask pageOutClient(GPage gp, bool convert_to_lanuma);

    /**
     * Page out a page this node is home for: request page-outs from
     * all clients, await acknowledgements, write to backing store.
     */
    CoTask pageOutHome(GPage gp);

    // --- Policy support ----------------------------------------------------

    /**
     * Live client S-COMA frames, counting those whose page-out is
     * still awaiting the home's acknowledgement.
     */
    std::uint64_t clientScomaCount() const { return clientScoma_; }

    /**
     * Least-recently-used client S-COMA page that is not busy
     * (kInvalidGPage if none): the PIT's victim rule (pit.hh).
     */
    GPage lruClientPage() const;

    /**
     * Dyn-Util's victim: the client S-COMA page with the most Invalid
     * fine-grain tags and no Transit line (kInvalidGPage if none).
     */
    GPage mostInvalidClientPage() const;

    /** Per-page mode override set by adaptive policies. */
    void setModeOverride(GPage gp, PageMode m);

    /** True if the fault/pageout lock for @p gp is currently held. */
    bool pageBusy(GPage gp) const;

    // --- Message interface ----------------------------------------------

    /** Deliver a kernel-class message. */
    void receive(Msg m);

    // --- Migration cooperation (called by the controller) ---------------

    /** Allocate a real frame to receive a migrating home page. */
    FrameNum migrationAllocFrame(GPage gp);

    /** Unmap and free frame @p f, which page @p gp leaves. */
    void migrationFreeFrame(FrameNum f, GPage gp);

    /**
     * @p gp arrived here by migration, its home block (client set
     * included) already installed: update the kernel's own state.
     */
    void adoptHomePage(GPage gp);

    // --- Memory accounting (Table 3) ------------------------------------

    /** Real frames currently allocated (memory consumption). */
    std::uint64_t realFramesLive() const { return realPool_.live(); }

    /** Peak real frames allocated. */
    std::uint64_t realFramesPeak() const { return realPool_.peak(); }

    /** Cumulative real-frame allocations. */
    std::uint64_t realFramesCumulative() const
    {
        return realPool_.cumulative();
    }

    /** Peak client S-COMA frames (SCOMA-70 cap calibration). */
    std::uint64_t clientScomaPeak() const { return clientScomaPeak_; }

    /**
     * Average utilization (fraction of lines accessed) over all real
     * frames ever allocated, live frames included.
     */
    double averageUtilization() const;

  private:
    /**
     * Run the policy's row for a client fault on @p gp: page out
     * victims to make room and choose the page's mode.  Runs on the
     * faulting processor's coroutine.
     */
    CoTask chooseClientMode(GPage gp, PageMode *out);

    /** Per-node cap on client S-COMA frames (0 = unlimited). */
    std::uint64_t clientCap() const;

    /** True if the page cache has reached its cap. */
    bool clientCacheFull() const;

    /** @p gp 's mode override (Scoma when none was set). */
    PageMode modeOverride(GPage gp) const;

    /**
     * The revert column: scan up to @p max_scan mapped LA-NUMA pages;
     * any whose remote refetch count reaches @p threshold is paged out
     * and reverted to S-COMA for its next fault.
     */
    CoTask reconsiderLaNumaPages(std::uint64_t threshold,
                                 std::uint32_t max_scan);

    /** The node's page records (owned by the controller). */
    PageRecords &pages() { return ctrl_.pages(); }
    const PageRecords &pages() const { return ctrl_.pages(); }

    /** Release @p rec's page lock and free the record if now unused. */
    void unlockPage(PageRecords::Ref rec);

    CoMutex &privateLock(VPage vp);
    DelayAwaiter delay(Cycles c) { return DelayAwaiter(eq_, c); }
    void send(Msg &&m);

    /** Map @p rec's page in at this (home) node if not already. */
    CoTask homeMapIn(PageRecords::Ref rec);

    /** Archive a departing frame's utilization before PIT removal. */
    void archiveUtilization(FrameNum f);

    FireAndForget onPageInReq(Msg m);
    FireAndForget onPageOutNotice(Msg m);
    FireAndForget onHomePageOutReq(Msg m);

    Node &node_;
    NodeId self_;
    const MachineConfig &cfg_;
    EventQueue &eq_;
    IpcServer &ipc_;
    CoherenceController &ctrl_;
    const PolicyRule &policy_;
    TraceSink *const trace_; //!< null unless the machine traces

    PageTable pt_;
    FramePool realPool_{0};
    FramePool imagPool_{kImaginaryFrameBase};

    std::unordered_map<std::uint64_t, std::uint64_t> vsidToGsid_;
    std::unordered_map<std::uint64_t, std::uint64_t> gsidToVsid_;

    /** Fault locks of private (unbound) pages. */
    std::unordered_map<VPage, CoMutex> pLocks_;

    /** Live client S-COMA frames (see clientScomaCount). */
    std::uint64_t clientScoma_ = 0;
    std::uint64_t clientScomaPeak_ = 0;

    /** Mapped LA-NUMA client pages; only a revert row fills it. */
    std::vector<GPage> laNumaMapped_;
    std::size_t reconsiderCursor_ = 0;

    std::uint64_t utilArchivedLines_ = 0;
    std::uint64_t utilArchivedFrames_ = 0;

    KernelStats stats_;
    KernelLatency latency_;
};

/**
 * Frame accounting is derived state (pool peaks, PIT utilization
 * scans), so the kernel reports it as gauges rather than counters.
 */
inline constexpr GaugeRow<Kernel> kKernelGauges[] = {
    {"realFramesPeak", "frames", "peak real page frames allocated",
     [](const Kernel &k) {
         return static_cast<double>(k.realFramesPeak());
     }},
    {"realFramesCumulative", "frames", "cumulative real-frame allocations",
     [](const Kernel &k) {
         return static_cast<double>(k.realFramesCumulative());
     }},
    {"clientScomaPeak", "frames", "peak client S-COMA frames",
     [](const Kernel &k) {
         return static_cast<double>(k.clientScomaPeak());
     }},
    {"avgUtilization", "fraction",
     "average fraction of lines accessed per real frame",
     [](const Kernel &k) { return k.averageUtilization(); }},
};

static_assert(distinctNames(kKernelCounters, kKernelLatency,
                            kKernelGauges));

} // namespace prism

#endif // PRISM_OS_KERNEL_HH
