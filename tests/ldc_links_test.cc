// Unit tests of the LDC metadata registry: applying link/consume/reclaim
// edits, reference counting of frozen files, and the derived queries the
// compaction machinery uses.

#include "db/ldc_links.h"

#include "gtest/gtest.h"

namespace ldc {

namespace {

FrozenFileMeta MakeFrozen(uint64_t number, uint64_t size, int level) {
  FrozenFileMeta f;
  f.number = number;
  f.file_size = size;
  f.origin_level = level;
  f.smallest = InternalKey("a", 1, kTypeValue);
  f.largest = InternalKey("z", 1, kTypeValue);
  return f;
}

SliceLinkMeta MakeLink(uint64_t lower, uint64_t frozen, uint64_t seq,
                       uint64_t bytes) {
  SliceLinkMeta link;
  link.lower_file_number = lower;
  link.frozen_file_number = frozen;
  link.link_seq = seq;
  link.estimated_bytes = bytes;
  link.smallest = InternalKey("a", 1, kTypeValue);
  link.largest = InternalKey("z", 1, kTypeValue);
  return link;
}

}  // namespace

TEST(LdcLinkRegistry, EmptyState) {
  LdcLinkRegistry registry;
  EXPECT_FALSE(registry.HasLinks(1));
  EXPECT_EQ(0, registry.LinkCount(1));
  EXPECT_EQ(0u, registry.LinkedBytes(1));
  EXPECT_EQ(nullptr, registry.Frozen(1));
  EXPECT_EQ(0u, registry.TotalFrozenBytes());
  EXPECT_EQ(0u, registry.FrozenFileCount());
  int count = -1;
  EXPECT_EQ(0u, registry.MostLinkedLowerFile(&count));
  EXPECT_EQ(0, count);
}

TEST(LdcLinkRegistry, FreezeAndLink) {
  LdcLinkRegistry registry;
  VersionEdit edit;
  edit.FreezeFile(MakeFrozen(10, 1000, 1));
  edit.AddSliceLink(MakeLink(20, 10, 1, 400));
  edit.AddSliceLink(MakeLink(21, 10, 2, 600));
  registry.Apply(edit);

  EXPECT_TRUE(registry.HasLinks(20));
  EXPECT_TRUE(registry.HasLinks(21));
  EXPECT_EQ(1, registry.LinkCount(20));
  EXPECT_EQ(400u, registry.LinkedBytes(20));
  const FrozenFileMeta* frozen = registry.Frozen(10);
  ASSERT_NE(nullptr, frozen);
  EXPECT_EQ(2, frozen->refs);
  EXPECT_EQ(1000u, registry.TotalFrozenBytes());
  EXPECT_GT(registry.NextLinkSeq(), 2u);
}

TEST(LdcLinkRegistry, ConsumeDecrementsRefs) {
  LdcLinkRegistry registry;
  {
    VersionEdit edit;
    edit.FreezeFile(MakeFrozen(10, 1000, 1));
    edit.AddSliceLink(MakeLink(20, 10, 1, 400));
    edit.AddSliceLink(MakeLink(21, 10, 2, 600));
    registry.Apply(edit);
  }
  // Consuming lower 20's links releases one reference; the frozen file is
  // reclaimable only after lower 21 is consumed too.
  EXPECT_TRUE(registry.FrozenReclaimableAfterConsume(20).empty());
  {
    VersionEdit edit;
    edit.ConsumeLinks(20);
    registry.Apply(edit);
  }
  EXPECT_FALSE(registry.HasLinks(20));
  EXPECT_EQ(1, registry.Frozen(10)->refs);

  const std::vector<uint64_t> reclaimable =
      registry.FrozenReclaimableAfterConsume(21);
  ASSERT_EQ(1u, reclaimable.size());
  EXPECT_EQ(10u, reclaimable[0]);
  {
    VersionEdit edit;
    edit.ConsumeLinks(21);
    edit.RemoveFrozenFile(10);
    registry.Apply(edit);
  }
  EXPECT_EQ(nullptr, registry.Frozen(10));
  EXPECT_EQ(0u, registry.TotalFrozenBytes());
}

TEST(LdcLinkRegistry, LinksNewestFirstOrdering) {
  LdcLinkRegistry registry;
  VersionEdit edit;
  edit.FreezeFile(MakeFrozen(10, 100, 1));
  edit.FreezeFile(MakeFrozen(11, 100, 1));
  edit.AddSliceLink(MakeLink(20, 10, 5, 1));
  edit.AddSliceLink(MakeLink(20, 11, 9, 1));
  registry.Apply(edit);

  // Links() keeps link order, so a backwards walk is newest first: the
  // order in which reads probe the slices.
  const std::vector<SliceLinkMeta>* links = registry.Links(20);
  ASSERT_NE(nullptr, links);
  ASSERT_EQ(2u, links->size());
  auto newest = links->rbegin();
  EXPECT_EQ(9u, newest->link_seq);
  EXPECT_EQ(11u, newest->frozen_file_number);
  ++newest;
  EXPECT_EQ(5u, newest->link_seq);
  EXPECT_EQ(10u, newest->frozen_file_number);
}

TEST(LdcLinkRegistry, MostLinkedLowerFile) {
  LdcLinkRegistry registry;
  VersionEdit edit;
  edit.FreezeFile(MakeFrozen(10, 100, 1));
  edit.FreezeFile(MakeFrozen(11, 100, 1));
  edit.FreezeFile(MakeFrozen(12, 100, 1));
  edit.AddSliceLink(MakeLink(20, 10, 1, 1));
  edit.AddSliceLink(MakeLink(21, 10, 2, 1));
  edit.AddSliceLink(MakeLink(21, 11, 3, 1));
  edit.AddSliceLink(MakeLink(21, 12, 4, 1));
  registry.Apply(edit);

  int count = 0;
  EXPECT_EQ(21u, registry.MostLinkedLowerFile(&count));
  EXPECT_EQ(3, count);
}

TEST(LdcLinkRegistry, AddLiveFiles) {
  LdcLinkRegistry registry;
  VersionEdit edit;
  edit.FreezeFile(MakeFrozen(10, 100, 1));
  edit.FreezeFile(MakeFrozen(11, 100, 2));
  edit.AddSliceLink(MakeLink(20, 10, 1, 1));
  edit.AddSliceLink(MakeLink(20, 11, 2, 1));
  registry.Apply(edit);

  std::set<uint64_t> live;
  registry.AddLiveFiles(&live);
  EXPECT_EQ(2u, live.size());
  EXPECT_TRUE(live.count(10));
  EXPECT_TRUE(live.count(11));
}

TEST(LdcLinkRegistry, NextLinkSeqAdvancesPastApplied) {
  LdcLinkRegistry registry;
  VersionEdit edit;
  edit.FreezeFile(MakeFrozen(10, 100, 1));
  edit.AddSliceLink(MakeLink(20, 10, 41, 1));
  registry.Apply(edit);
  EXPECT_EQ(42u, registry.NextLinkSeq());
  EXPECT_EQ(43u, registry.NextLinkSeq());
}

TEST(LdcLinkRegistry, ConsumeUnknownLowerIsNoop) {
  LdcLinkRegistry registry;
  VersionEdit edit;
  edit.ConsumeLinks(999);
  registry.Apply(edit);  // Must not crash.
  EXPECT_EQ(0u, registry.LinkedLowerFileCount());
}

}  // namespace ldc
