/**
 * @file
 * Inter-node protocol messages.
 *
 * One flat message record covers the coherence protocol, the external
 * paging protocol, and lazy page migration.  Frame-number hints are
 * piggybacked on messages so the receiving PIT can usually avoid the
 * hash reverse translation (paper Section 3.2).
 *
 * Each message type is a row of kMsgRules: its name, its network size
 * class (a writeback's depends on whether it carries dirty data) and
 * whether the OS kernel or the coherence controller handles it.
 */

#ifndef PRISM_COHERENCE_MSG_HH
#define PRISM_COHERENCE_MSG_HH

#include <cstdint>
#include <memory>

#include "core/table.hh"
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

/** One message type: the columns the file comment describes. */
struct MsgRule {
    MsgType type;
    const char *name;
    MsgSize size = MsgSize::Control; //!< network size class
    bool dirtyData = false; //!< Data-sized when it carries dirty data
    bool kernel = false;    //!< the OS kernel handles it, not the controller
};

/** Every message type, indexed by MsgType. */
inline constexpr MsgRule kMsgRules[] = {
    {.type = MsgType::ReqS, .name = "ReqS"},
    {.type = MsgType::ReqX, .name = "ReqX"},
    {.type = MsgType::Upgrade, .name = "Upgrade"},
    {.type = MsgType::Writeback, .name = "Writeback", .dirtyData = true},
    {.type = MsgType::ReplaceHint, .name = "ReplaceHint"},
    {.type = MsgType::Data, .name = "Data", .size = MsgSize::Data},
    {.type = MsgType::UpgAck, .name = "UpgAck"},
    {.type = MsgType::Inv, .name = "Inv"},
    {.type = MsgType::Fetch, .name = "Fetch"},
    {.type = MsgType::DataFwd, .name = "DataFwd", .size = MsgSize::Data},
    {.type = MsgType::XferNotice, .name = "XferNotice", .dirtyData = true},
    {.type = MsgType::FetchNack, .name = "FetchNack"},
    {.type = MsgType::InvAck, .name = "InvAck"},
    {.type = MsgType::PageInReq, .name = "PageInReq", .kernel = true},
    {.type = MsgType::PageInRep, .name = "PageInRep", .kernel = true},
    {.type = MsgType::PageOutNotice, .name = "PageOutNotice",
     .kernel = true},
    {.type = MsgType::PageOutNoticeAck, .name = "PageOutNoticeAck",
     .kernel = true},
    {.type = MsgType::HomePageOutReq, .name = "HomePageOutReq",
     .kernel = true},
    {.type = MsgType::HomePageOutAck, .name = "HomePageOutAck",
     .kernel = true},
    {.type = MsgType::MigrateReq, .name = "MigrateReq"},
    {.type = MsgType::MigratePrep, .name = "MigratePrep"},
    {.type = MsgType::MigrateData, .name = "MigrateData",
     .size = MsgSize::Page},
    {.type = MsgType::MigrateDone, .name = "MigrateDone"},
};

static_assert(rowsInOrder(kMsgRules, &MsgRule::type),
              "kMsgRules must list the types in MsgType order");

template <>
inline constexpr const auto &kNames<MsgType> = kMsgRules;
static_assert(namedThrough(MsgType::MigrateDone));

/** The row of message type @p t. */
constexpr const MsgRule &
msgRule(MsgType t)
{
    return kMsgRules[static_cast<std::size_t>(t)];
}

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

    /** Network size class of this message (its type's row). */
    MsgSize
    sizeClass() const
    {
        const MsgRule &r = msgRule(type);
        return dirty && r.dirtyData ? MsgSize::Data : r.size;
    }
};

} // namespace prism

#endif // PRISM_COHERENCE_MSG_HH
