/**
 * @file
 * Machine configuration: topology, geometry and timing parameters.
 *
 * Defaults model the paper's simulated system (Section 4.1): 8 SMP
 * nodes x 4 processors, 8 KB L1 / 32 KB L2 (deliberately small to
 * expose capacity effects), a 16-byte split-transaction bus at half
 * the processor clock, 120-cycle one-way network latency, a DRAM
 * directory behind an 8K-entry cache (2/22 cycles) and an SRAM PIT
 * (2 cycles).  Composite latencies these produce are calibrated
 * against the paper's Table 1 by bench/table1_latency.
 */

#ifndef PRISM_CORE_CONFIG_HH
#define PRISM_CORE_CONFIG_HH

#include <cstdint>
#include <string>
#include <vector>

#include "core/table.hh"
#include "sim/types.hh"

namespace prism {

/** Page-mode selection policy for shared pages at client nodes. */
enum class PolicyKind : std::uint8_t {
    Scoma,    //!< all client pages S-COMA, unbounded page cache
    LaNuma,   //!< all client pages LA-NUMA (CC-NUMA behaviour)
    Scoma70,  //!< S-COMA with page cache capped, LRU page-out
    DynFcfs,  //!< S-COMA until cache full, then LA-NUMA for new pages
    DynUtil,  //!< convert least-utilized S-COMA page to LA-NUMA
    DynLru,   //!< page out LRU page and convert it to LA-NUMA
    DynBoth,  //!< extension: Dyn-LRU + refetch-driven back-conversion
};

/**
 * Policy name as used in the paper: enumName(k), whose names are the
 * rows of kPolicyRules (policy/page_policy.hh).
 */
const char *policyName(PolicyKind k);

/**
 * Intra-node line-protocol scheme spoken on each node's bus
 * (src/coherence/line_protocol).  Mesi is the paper's protocol and
 * the default; the others are drop-in variants validated by the same
 * oracle/litmus/fuzzer stack:
 *
 * Msi    no clean-exclusive state: read fills are always Shared, so a
 *        first write always pays an upgrade; exclusive LA-NUMA read
 *        grants are immediately relinquished back to the home.
 * Mesi   the classic four-state protocol (bit-identical to the
 *        pre-table simulator by contract).
 * Moesi  a read snoop on a Modified line leaves the dirty data in
 *        place as Owned instead of writing it back; stores to Owned
 *        upgrade on the local bus alone.
 * Mesif  only the Forward copy (newest sharer) supplies shared lines
 *        cache-to-cache; plain Shared copies stay silent.
 */
enum class ProtocolScheme : std::uint8_t {
    Msi,
    Mesi,
    Moesi,
    Mesif,
};

template <>
inline constexpr std::array kNames<ProtocolScheme> = {"msi", "mesi",
                                                      "moesi", "mesif"};
static_assert(namedThrough(ProtocolScheme::Mesif));

/**
 * Protocol-oracle checking level (src/check).
 *
 * Off        no checking; benches pay a single never-taken branch.
 * Quiescent  full I1-I6 + shadow-value sweep after the machine drains.
 * Continuous the quiescent sweep plus incremental per-line re-checks
 *            and data-value verification at every state transition,
 *            while transactions are still in flight.
 */
enum class OracleMode : std::uint8_t {
    Off,
    Quiescent,
    Continuous,
};

template <>
inline constexpr std::array kNames<OracleMode> = {"off", "quiescent",
                                                  "continuous"};
static_assert(namedThrough(OracleMode::Continuous));

/** Full machine configuration. */
struct MachineConfig {
    // --- Topology -------------------------------------------------
    std::uint32_t numNodes = 8;
    std::uint32_t procsPerNode = 4;

    // --- Geometry -------------------------------------------------
    std::uint32_t lineBytes = 64;

    // --- Processor caches (small, per Section 4.2) -----------------
    std::uint32_t l1Bytes = 8 * 1024;
    std::uint32_t l1Assoc = 1;
    std::uint32_t l2Bytes = 32 * 1024;
    std::uint32_t l2Assoc = 4;

    // --- TLB --------------------------------------------------------
    std::uint32_t tlbEntries = 128;
    Cycles tlbRefill = 30; //!< page-table walk on a TLB miss (Table 1)

    // --- Core timing ------------------------------------------------
    Cycles l2HitLatency = 12;   //!< L1 miss, L2 hit (Table 1)
    Cycles busAddrCycles = 4;   //!< address tenure
    Cycles busDataCycles = 8;   //!< 64B line on a 16B-wide half-speed bus
    Cycles memAccessCycles = 18; //!< DRAM line access
    Cycles cacheToCache = 14;   //!< intra-node dirty-line supply

    // --- Coherence controller ----------------------------------------
    Cycles ctrlOverhead = 85;    //!< protocol dispatch + FSM per message
    Cycles pitLatency = 2;       //!< SRAM PIT lookup (10 = DRAM study)
    Cycles pitHashExtra = 18;    //!< reverse translation via hash search
    Cycles dirCacheHit = 2;
    Cycles dirCacheMiss = 22;
    std::uint32_t dirCacheEntries = 8192;
    Cycles retryDelay = 20;      //!< bus retry backoff for Transit lines

    // --- Network ------------------------------------------------------
    Cycles netLatency = 120;        //!< one-way end-to-end
    Cycles netCtrlOccupancy = 8;    //!< NIC occupancy per control msg
    Cycles netDataOccupancy = 16;   //!< NIC occupancy per line-data msg
    Cycles netPageOccupancy = 128;  //!< NIC occupancy per page-data msg

    // --- Paging (calibrated to Table 1's 2300 / 4400 cycles) -----------
    Cycles faultKernelCycles = 2200;   //!< local kernel fault handling
    Cycles pitCommandCycles = 50;      //!< command-mode PIT programming
    Cycles homePageInService = 1300;   //!< home-kernel page-in service
    Cycles pageOutKernelCycles = 1500; //!< kernel page-out handling
    Cycles tlbShootdownCycles = 40;    //!< per-processor local shootdown
    Cycles diskLatency = 200000;       //!< backing-store transfer

    // --- Intra-node line protocol ----------------------------------------
    /**
     * Line-protocol scheme for the processor caches and node bus.  The
     * Machine reads only this field: the benches resolve their
     * --protocol flag and the PRISM_PROTOCOL environment variable
     * (msi|mesi|moesi|mesif) into it before building a machine.
     */
    ProtocolScheme protocol = ProtocolScheme::Mesi;

    // --- Memory management ----------------------------------------------
    PolicyKind policy = PolicyKind::Scoma;
    /**
     * Cap on client S-COMA frames, one entry per node; an empty vector
     * or a 0 entry means unlimited.  For the SCOMA-70 and Dyn-*
     * configurations the experiment runner sets it from a calibration
     * SCOMA run (Section 4.2).
     */
    std::vector<std::uint64_t> clientFrameCapPerNode;
    /** Extension: map client pages CC-NUMA style, bypassing the PIT. */
    bool ccNumaBypass = false;
    /**
     * Section 4.3 design option: cache client frame numbers in the
     * directory so invalidations carry a reverse-translation hint
     * (avoids the PIT hash walk at clients, "albeit at the price of
     * increased directory sizes").  Off in the paper's evaluated
     * configuration.
     */
    bool dirClientFrameHints = false;

    // --- Lazy page migration ----------------------------------------------
    bool migrationEnabled = false;
    /** Remote-access count that triggers a migration evaluation. */
    std::uint64_t migrationThreshold = 64;

    // --- Synchronization cost model ------------------------------------
    Cycles lockAcquireCycles = 300;  //!< uncontended remote lock RT
    Cycles lockHandoffCycles = 140;  //!< contended handoff
    Cycles barrierCycles = 400;      //!< per-episode barrier overhead

    // --- Protocol checking (src/check) -----------------------------------
    /**
     * Oracle level; the PRISM_ORACLE environment variable
     * (off|quiescent|continuous) overrides this at Machine
     * construction.
     */
    OracleMode oracleMode = OracleMode::Off;
    /**
     * Panic on the first oracle violation (debugger-friendly).  The
     * explorer clears this to collect violations and shrink instead.
     */
    bool oracleFatal = true;
    /**
     * Fault injection for oracle self-tests: each controller omits up
     * to this many invalidations from its home-side fan-out (the
     * requester is told to expect correspondingly fewer acks, so the
     * protocol proceeds with a stale sharer left behind).  0 = off.
     */
    std::uint32_t mutationSkipInvals = 0;

    // --- Schedule fuzzing -------------------------------------------------
    /**
     * Maximum extra delivery delay the network adds per message, drawn
     * deterministically from jitterSeed.  Delivery stays FIFO per
     * (src, dst) pair — a property the protocol relies on.  0 keeps
     * the network bit-identical to the unjittered model.
     */
    Cycles netJitterMax = 0;
    std::uint64_t jitterSeed = 1;

    // --- Simulation -----------------------------------------------------
    std::uint32_t runAheadQuantum = 2000; //!< max local-time run-ahead
    std::uint64_t seed = 12345;
    /**
     * Event-loop shards for conservative parallel intra-run
     * simulation (sim/shard.hh): nodes are split into this many
     * groups, each driven by its own event queue on its own thread.
     * 1 (the default) is the sequential scheduler, bit-identical to
     * the pre-sharding simulator.  Clamped to numNodes; forced to 1
     * when a sequential-only feature (oracle, jitter, PRISM_TRACE) is
     * active.  Benches thread `--jobs-intra` / PRISM_JOBS_INTRA here.
     */
    std::uint32_t jobsIntra = 1;

    std::uint32_t numProcs() const { return numNodes * procsPerNode; }
};

/**
 * Hard ceiling on the node count.  Sized by the simulator's O(n^2)
 * per-pair network FIFO state and the 16-bit node ids in the oracle's
 * violation-trace ring — not by the coherence layer, whose SharerSet
 * bitmaps grow with the machine (sharer_set.hh).
 */
constexpr std::uint32_t kMaxNodes = 1024;

/** Ceiling on total processors (nodes x procs). */
constexpr std::uint32_t kMaxProcs = 64 * 1024;

/**
 * Fail fast on an impossible config: zero counts, numNodes >
 * kMaxNodes, numProcs() > kMaxProcs, a non-power-of-two directory
 * cache, impossible line, cache or TLB geometry, a
 * clientFrameCapPerNode not sized to numNodes, or a policy with no
 * row in kPolicyRules.  fatal()s naming the field or limit; called at
 * Machine construction so a bad config can never silently corrupt a
 * run.
 */
void validateConfig(const MachineConfig &cfg);

/**
 * Parse a machine-size preset into @p cfg's topology: either
 * "<nodes>x<procsPerNode>" (e.g. "128x8") or a named preset — "paper"
 * (8x4, the paper's evaluated machine).  Other fields are untouched.
 * @retval false @p s parses as neither (cfg untouched).
 */
bool machineFromString(const char *s, MachineConfig *cfg);

/** The machine-size sweep presets: 8x4, 16x4, 32x8, 128x8. */
std::vector<MachineConfig> machinePresets(const MachineConfig &base);

} // namespace prism

#endif // PRISM_CORE_CONFIG_HH
