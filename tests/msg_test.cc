/**
 * @file
 * Unit tests for protocol message metadata.
 */

#include <gtest/gtest.h>

#include "coherence/msg.hh"

namespace prism {
namespace {

TEST(Msg, KernelMessageClassification)
{
    for (MsgType t : {MsgType::PageInReq, MsgType::PageInRep,
                      MsgType::PageOutNotice, MsgType::PageOutNoticeAck,
                      MsgType::HomePageOutReq, MsgType::HomePageOutAck})
        EXPECT_TRUE(msgRule(t).kernel) << enumName(t);
    for (MsgType t : {MsgType::ReqS, MsgType::ReqX, MsgType::Upgrade,
                      MsgType::Data, MsgType::Inv, MsgType::Fetch,
                      MsgType::Writeback, MsgType::MigrateReq})
        EXPECT_FALSE(msgRule(t).kernel) << enumName(t);
}

TEST(Msg, SizeClasses)
{
    Msg m;
    m.type = MsgType::ReqS;
    EXPECT_EQ(m.sizeClass(), MsgSize::Control);
    m.type = MsgType::Data;
    EXPECT_EQ(m.sizeClass(), MsgSize::Data);
    m.type = MsgType::DataFwd;
    EXPECT_EQ(m.sizeClass(), MsgSize::Data);
    m.type = MsgType::MigrateData;
    EXPECT_EQ(m.sizeClass(), MsgSize::Page);
    // Writebacks carry data only when dirty.
    m.type = MsgType::Writeback;
    m.dirty = false;
    EXPECT_EQ(m.sizeClass(), MsgSize::Control);
    m.dirty = true;
    EXPECT_EQ(m.sizeClass(), MsgSize::Data);
    m.type = MsgType::XferNotice;
    EXPECT_EQ(m.sizeClass(), MsgSize::Data);
    m.dirty = false;
    EXPECT_EQ(m.sizeClass(), MsgSize::Control);
}

TEST(Msg, EveryTypeHasAName)
{
    for (int t = 0; t <= static_cast<int>(MsgType::MigrateDone); ++t) {
        const char *n = enumName(static_cast<MsgType>(t));
        EXPECT_STRNE(n, "?") << "type " << t;
    }
}

TEST(Msg, DefaultsAreInert)
{
    Msg m;
    EXPECT_EQ(m.requester, kInvalidNode);
    EXPECT_EQ(m.dstFrameHint, kInvalidFrame);
    EXPECT_EQ(m.homeFrame, kInvalidFrame);
    EXPECT_EQ(m.dynHome, kInvalidNode);
    EXPECT_EQ(m.ackCount, 0u);
    EXPECT_FALSE(m.dirty);
    EXPECT_FALSE(m.exclusive);
    EXPECT_EQ(m.payload, nullptr);
}

} // namespace
} // namespace prism
