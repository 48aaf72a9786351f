/**
 * @file
 * Inter-node protocol messages.
 *
 * One flat message record covers the coherence protocol, the external
 * paging protocol, and lazy page migration.  Frame-number hints are
 * piggybacked on messages so the receiving PIT can usually avoid the
 * hash reverse translation (paper Section 3.2).
 */

#ifndef PRISM_COHERENCE_MSG_HH
#define PRISM_COHERENCE_MSG_HH

#include <cstdint>
#include <memory>

#include "mem/addr.hh"
#include "net/network.hh"
#include "sim/types.hh"

namespace prism {

/** Protocol message types. */
enum class MsgType : std::uint8_t {
    // Client -> home coherence requests.
    ReqS,        //!< read fetch
    ReqX,        //!< write fetch (read-exclusive)
    Upgrade,     //!< write to a locally valid Shared line
    Writeback,   //!< dirty line eviction / downgrade data
    ReplaceHint, //!< clean-exclusive eviction notice (LA-NUMA)

    // Home -> client.
    Data,        //!< line data grant from home memory
    UpgAck,      //!< upgrade granted, carries ack count
    Inv,         //!< invalidate a line; ack to `requester`
    Fetch,       //!< intervention: owner must supply the line

    // Owner -> requester / home (3-party legs).
    DataFwd,     //!< line data supplied by the previous owner
    XferNotice,  //!< owner -> home: sharing writeback / ownership moved
    FetchNack,   //!< owner no longer holds the line

    // Client -> requester.
    InvAck,      //!< invalidation acknowledgement

    // External paging (kernel-to-kernel).
    PageInReq,
    PageInRep,
    PageOutNotice,
    PageOutNoticeAck,
    HomePageOutReq,
    HomePageOutAck,

    // Lazy page migration.
    MigrateReq,   //!< dyn home -> static home: please migrate
    MigratePrep,  //!< static home -> old dyn home: hand the page off
    MigrateData,  //!< old dyn home -> new dyn home: dir + data payload
    MigrateDone,  //!< new dyn home -> static home: registry update
};

/** Human-readable message-type name. */
const char *msgTypeName(MsgType t);

/** True for message types handled by the OS kernel, not the controller. */
bool isKernelMsg(MsgType t);

/** A protocol message. */
struct Msg {
    Msg() = default;

    /** A @p t message to @p to about line @p line_idx of @p gp. */
    Msg(MsgType t, NodeId to, GPage gp, std::uint32_t line_idx = 0)
        : type(t), dst(to), gpage(gp), lineIdx(line_idx)
    {
    }

    MsgType type{};
    NodeId src = kInvalidNode;
    NodeId dst = kInvalidNode;

    GPage gpage = kInvalidGPage;
    std::uint32_t lineIdx = 0;

    /** Originating requester (preserved across forwards). */
    NodeId requester = kInvalidNode;
    /** Requester's local frame for the page (reply routing hint). */
    FrameNum requesterFrame = kInvalidFrame;
    /** Guessed frame number at the receiver (reverse-translation hint). */
    FrameNum dstFrameHint = kInvalidFrame;
    /** Home frame number (refreshes client PIT hints on replies). */
    FrameNum homeFrame = kInvalidFrame;
    /** Current dynamic home (refreshes client PIT hints on replies). */
    NodeId dynHome = kInvalidNode;

    std::uint32_t ackCount = 0; //!< invalidations the requester must collect
    bool exclusive = false;     //!< grant type on Data/DataFwd
    bool dirty = false;         //!< payload carries modified data
    bool forWrite = false;      //!< Fetch: requester wants exclusivity
    bool keepShared = false;    //!< Writeback: sender keeps a Shared copy
    std::uint64_t aux = 0;      //!< type-specific extra payload
    /** Bulk payload (migration: directory + kernel metadata). */
    std::shared_ptr<void> payload;

    /** Network size class of this message type. */
    MsgSize sizeClass() const;
};

} // namespace prism

#endif // PRISM_COHERENCE_MSG_HH
