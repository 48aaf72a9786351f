/**
 * @file
 * In-flight protocol oracle.
 *
 * The quiescent-only invariant sweep in the property tests cannot see
 * transient protocol bugs (e.g. a window where two nodes hold
 * owner-class copies mid-intervention).  The oracle closes that gap
 * with two mechanisms, selected by MachineConfig::oracleMode:
 *
 *  1. A golden shadow-value model.  Data contents are not simulated,
 *     so the oracle numbers the committed writes of every global line:
 *     per line it tracks `seq` (count of committed writes = the
 *     current value), `memSeq` (the value home memory holds) and
 *     `view[node]` (the value each node's copy reflects).  Every
 *     protocol action that moves data or permission — grants from home
 *     memory, owner interventions, writebacks, upgrades, page-ins,
 *     migration flushes — updates the model and is checked against it;
 *     every processor read/write commit asserts the node sees the
 *     latest value.  A grant that would hand out stale memory, a lost
 *     writeback, or a read of a stale copy is reported the instant it
 *     happens, with the simulated tick and the message trace tail.
 *
 *  2. Continuous structural checks.  After each tracked event the
 *     affected line is re-verified in-flight: at most one node holds
 *     an owner-class copy (S-COMA Exclusive tag or a processor M/E
 *     copy), and if one does, no other node holds any valid copy
 *     (Transit tags are in-flight transactions and are exempt — their
 *     grants get poisoned or refreshed by the protocol).
 *
 * On Machine::run completion (after drain) the oracle additionally
 * performs the full quiescent sweep of invariants I1-I6 plus the
 * shadow-value consistency conditions.
 *
 * Violations either panic immediately (oracleFatal, the default — a
 * debugger lands on the broken state) or are recorded for inspection
 * (the random-schedule explorer shrinks failing runs this way).
 */

#ifndef PRISM_CHECK_ORACLE_HH
#define PRISM_CHECK_ORACLE_HH

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "coherence/home_protocol.hh"
#include "core/config.hh"
#include "mem/addr.hh"
#include "sim/types.hh"

namespace prism {

class Machine;

/** One recorded oracle violation. */
struct OracleViolation {
    Tick tick = 0;
    GPage gpage = kInvalidGPage;
    std::uint32_t lineIdx = 0;
    std::string what;
};

/** The protocol oracle of one Machine. */
class ProtocolOracle
{
  public:
    ProtocolOracle(Machine &m, OracleMode mode, bool fatal);

    OracleMode mode() const { return mode_; }
    bool continuous() const { return mode_ == OracleMode::Continuous; }

    // --- Event hooks (called by Proc / CoherenceController) -------------

    /**
     * A processor access committed (the only read/write commit points
     * are Proc::fastCore's hit paths).  Checks the node's copy is the
     * latest value; a write then becomes the new latest value.
     */
    void onAccessCommit(NodeId node, ProcId proc, FrameNum frame,
                        std::uint64_t paddr, bool write);

    /**
     * The home protocol reported a transition (home_protocol.hh):
     * @p hook names the shadow rule, @p node is the event's sender
     * (requester, writeback owner or flushing home) and @p dirty says
     * whether a writeback carried data.  Grants check that the value
     * handed on is the latest, accepted writebacks and migration
     * flushes make the sender's value the new memory.
     */
    void onHomeTransition(HomeHook hook, NodeId home, GPage gp,
                          std::uint32_t li, NodeId node, bool dirty);

    /** A remote owner served a Fetch with DataFwd (3-party). */
    void onOwnerServe(NodeId owner, GPage gp, std::uint32_t li,
                      NodeId req, bool for_write);

    /** A client (or the home itself) invalidated its copy of a line. */
    void onInvalidate(GPage gp, std::uint32_t li);

    /** Home mapped @p gp in (page-in): memory must hold the latest. */
    void onHomeInstall(NodeId home, GPage gp);

    // --- Quiescent sweep -------------------------------------------------

    /**
     * Full I1-I6 invariant sweep plus shadow-value consistency over
     * the (assumed quiescent) machine.  Called by Machine::run after
     * drain; tests may also call it directly.
     */
    void sweepQuiescent();

    // --- Results ----------------------------------------------------------

    const std::vector<OracleViolation> &violations() const
    {
        return violations_;
    }

    /** Total violations seen (recording is capped; the count is not). */
    std::uint64_t violationCount() const { return violationCount_; }

    /** Number of per-line in-flight checks executed. */
    std::uint64_t checksRun() const { return checksRun_; }

    /**
     * Shadow value the most recent committed read of processor @p p
     * observed (litmus-test "register" readout).  Values are the
     * per-line committed-write counts, starting at 0.
     */
    std::uint64_t
    lastReadValue(ProcId p) const
    {
        return lastRead_[p];
    }

  private:
    /** Shadow state of one global line. */
    struct LineShadow {
        std::uint64_t seq = 0;    //!< committed writes == latest value
        std::uint64_t memSeq = 0; //!< value home memory holds
        std::vector<std::uint64_t> view; //!< value each node's copy reflects
    };

    LineShadow &shadow(GLine gl);

    /**
     * Continuous mode: report that the copy @p what node @p node
     * hands on or commits is stale unless @p have is the latest value
     * of the line.
     */
    void expectLatest(GPage gp, std::uint32_t li, const LineShadow &s,
                      std::uint64_t have, const char *what, NodeId node);

    /** In-flight structural re-check of one line (continuous mode). */
    void checkLine(GPage gp, std::uint32_t li);

    void report(GPage gp, std::uint32_t li, std::string what);
    void dumpTrace() const;

    Machine &m_;
    OracleMode mode_;
    bool fatal_;
    LineGeometry geo_;
    std::uint32_t numNodes_;

    std::unordered_map<GLine, LineShadow> lines_;
    std::vector<std::uint64_t> lastRead_;

    std::vector<OracleViolation> violations_;
    std::uint64_t violationCount_ = 0;
    std::uint64_t checksRun_ = 0;

    /** Cap on recorded (not counted) violations. */
    static constexpr std::size_t kMaxRecorded = 64;
};

} // namespace prism

#endif // PRISM_CHECK_ORACLE_HH
