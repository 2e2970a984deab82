// Unit tests of the LDC metadata a Version owns: VersionSet::Builder
// applies each edit's link/consume/reclaim records together with its file
// records, reference counts frozen files, and refuses to install (or
// recover) a state that breaks the link invariants. Every edit goes through
// a VersionSet on a MemEnv, so these tests read the state the way the
// engine does, from current()->links(). The LdcLinkRegistry suite keeps
// its name from when a separate registry applied these records.

#include "db/ldc_links.h"

#include <memory>

#include "db/filename.h"
#include "db/table_cache.h"
#include "db/version_set.h"
#include "gtest/gtest.h"
#include "ldc/comparator.h"
#include "ldc/env.h"
#include "wal/log_writer.h"

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

// Adds lower files 20 [a..f], 21 [g..m] and 22 [n..z] to level 1.
void AddLowerFiles(VersionEdit* edit) {
  edit->AddFile(1, 20, 100, InternalKey("a", 1, kTypeValue),
                InternalKey("f", 1, kTypeValue));
  edit->AddFile(1, 21, 100, InternalKey("g", 1, kTypeValue),
                InternalKey("m", 1, kTypeValue));
  edit->AddFile(1, 22, 100, InternalKey("n", 1, kTypeValue),
                InternalKey("z", 1, kTypeValue));
}

// A VersionSet on a MemEnv with no DB around it, recovered from the
// manifest a new DB starts with.
class TestVersions {
 public:
  TestVersions() : env_(NewMemEnv()), icmp_(BytewiseComparator()) {
    options_.env = env_.get();
    VersionEdit edit;
    edit.SetComparatorName(icmp_.user_comparator()->Name());
    edit.SetLogNumber(0);
    edit.SetNextFile(2);
    edit.SetLastSequence(0);
    std::string record;
    edit.EncodeTo(&record);
    WritableFile* file = nullptr;
    EXPECT_TRUE(env_->NewWritableFile(DescriptorFileName("/db", 1), &file)
                    .ok());
    EXPECT_TRUE(log::Writer(file).AddRecord(record).ok());
    EXPECT_TRUE(file->Close().ok());
    delete file;
    EXPECT_TRUE(SetCurrentFile(env_.get(), "/db", 1).ok());
    EXPECT_TRUE(Reopen().ok());
  }

  // Drops the VersionSet and recovers a new one from the manifest.
  Status Reopen() {
    Open();
    bool save_manifest = false;
    return versions_->Recover(&save_manifest);
  }

  Status Apply(VersionEdit* edit) { return versions_->LogAndApply(edit); }
  const LdcLinkState& links() const { return versions_->current()->links(); }
  VersionSet* versions() { return versions_.get(); }
  Env* env() { return env_.get(); }

  uint64_t ManifestSize() {
    uint64_t size = 0;
    EXPECT_TRUE(env_->GetFileSize(
                        DescriptorFileName("/db",
                                           versions_->ManifestFileNumber()),
                        &size)
                    .ok());
    return size;
  }

 private:
  void Open() {
    versions_.reset();
    table_cache_ = std::make_unique<TableCache>("/db", options_, 10);
    versions_ = std::make_unique<VersionSet>("/db", &options_,
                                             table_cache_.get(), &icmp_);
  }

  std::unique_ptr<Env> env_;
  const InternalKeyComparator icmp_;
  Options options_;
  std::unique_ptr<TableCache> table_cache_;
  std::unique_ptr<VersionSet> versions_;
};

}  // namespace

TEST(LdcLinkRegistry, EmptyState) {
  TestVersions t;
  const LdcLinkState& links = t.links();
  EXPECT_FALSE(links.HasLinks(1));
  EXPECT_EQ(0, links.LinkCount(1));
  EXPECT_EQ(0u, links.LinkedBytes(1));
  EXPECT_EQ(nullptr, links.Frozen(1));
  EXPECT_EQ(0u, links.TotalFrozenBytes());
  EXPECT_EQ(0u, links.FrozenFileCount());
  int count = -1;
  EXPECT_EQ(0u, links.MostLinkedLowerFile(&count));
  EXPECT_EQ(0, count);
}

TEST(LdcLinkRegistry, FreezeAndLink) {
  TestVersions t;
  VersionEdit edit;
  AddLowerFiles(&edit);
  edit.FreezeFile(MakeFrozen(10, 1000, 1));
  edit.AddSliceLink(MakeLink(20, 10, 1, 400));
  edit.AddSliceLink(MakeLink(21, 10, 2, 600));
  ASSERT_TRUE(t.Apply(&edit).ok());

  const LdcLinkState& links = t.links();
  EXPECT_TRUE(links.HasLinks(20));
  EXPECT_TRUE(links.HasLinks(21));
  EXPECT_EQ(1, links.LinkCount(20));
  EXPECT_EQ(400u, links.LinkedBytes(20));
  const FrozenFileMeta* frozen = links.Frozen(10);
  ASSERT_NE(nullptr, frozen);
  EXPECT_EQ(2, frozen->refs);
  EXPECT_EQ(1000u, links.TotalFrozenBytes());
  EXPECT_GT(t.versions()->NextLinkSeq(), 2u);
}

TEST(LdcLinkRegistry, ConsumeDecrementsRefs) {
  TestVersions t;
  {
    VersionEdit edit;
    AddLowerFiles(&edit);
    edit.FreezeFile(MakeFrozen(10, 1000, 1));
    edit.AddSliceLink(MakeLink(20, 10, 1, 400));
    edit.AddSliceLink(MakeLink(21, 10, 2, 600));
    ASSERT_TRUE(t.Apply(&edit).ok());
  }
  // Consuming lower 20's links releases one reference; the frozen file is
  // reclaimable only after lower 21 is consumed too.
  EXPECT_TRUE(t.links().FrozenReclaimableAfterConsume(20).empty());
  {
    VersionEdit edit;
    edit.ConsumeLinks(20);
    ASSERT_TRUE(t.Apply(&edit).ok());
  }
  EXPECT_FALSE(t.links().HasLinks(20));
  EXPECT_EQ(1, t.links().Frozen(10)->refs);

  const std::vector<uint64_t> reclaimable =
      t.links().FrozenReclaimableAfterConsume(21);
  ASSERT_EQ(1u, reclaimable.size());
  EXPECT_EQ(10u, reclaimable[0]);
  {
    VersionEdit edit;
    edit.ConsumeLinks(21);
    edit.RemoveFrozenFile(10);
    ASSERT_TRUE(t.Apply(&edit).ok());
  }
  EXPECT_EQ(nullptr, t.links().Frozen(10));
  EXPECT_EQ(0u, t.links().TotalFrozenBytes());
}

TEST(LdcLinkRegistry, LinksNewestFirstOrdering) {
  TestVersions t;
  VersionEdit edit;
  AddLowerFiles(&edit);
  edit.FreezeFile(MakeFrozen(10, 100, 1));
  edit.FreezeFile(MakeFrozen(11, 100, 1));
  edit.AddSliceLink(MakeLink(20, 10, 5, 1));
  edit.AddSliceLink(MakeLink(20, 11, 9, 1));
  ASSERT_TRUE(t.Apply(&edit).ok());

  // Links() keeps link order, so a backwards walk is newest first: the
  // order in which reads probe the slices.
  const std::vector<SliceLinkMeta>* links = t.links().Links(20);
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
  TestVersions t;
  VersionEdit edit;
  AddLowerFiles(&edit);
  edit.FreezeFile(MakeFrozen(10, 100, 1));
  edit.FreezeFile(MakeFrozen(11, 100, 1));
  edit.FreezeFile(MakeFrozen(12, 100, 1));
  edit.AddSliceLink(MakeLink(20, 10, 1, 1));
  edit.AddSliceLink(MakeLink(21, 10, 2, 1));
  edit.AddSliceLink(MakeLink(21, 11, 3, 1));
  edit.AddSliceLink(MakeLink(21, 12, 4, 1));
  ASSERT_TRUE(t.Apply(&edit).ok());

  int count = 0;
  EXPECT_EQ(21u, t.links().MostLinkedLowerFile(&count));
  EXPECT_EQ(3, count);
}

TEST(LdcLinkRegistry, AddLiveFiles) {
  TestVersions t;
  VersionEdit edit;
  AddLowerFiles(&edit);
  edit.FreezeFile(MakeFrozen(10, 100, 1));
  edit.FreezeFile(MakeFrozen(11, 100, 2));
  edit.AddSliceLink(MakeLink(20, 10, 1, 1));
  edit.AddSliceLink(MakeLink(20, 11, 2, 1));
  ASSERT_TRUE(t.Apply(&edit).ok());

  std::set<uint64_t> live;
  t.links().AddLiveFiles(&live);
  EXPECT_EQ(2u, live.size());
  EXPECT_TRUE(live.count(10));
  EXPECT_TRUE(live.count(11));

  // The version set keeps the frozen files of its versions alive, next to
  // their level files.
  live.clear();
  t.versions()->AddLiveFiles(&live);
  EXPECT_EQ((std::set<uint64_t>{10, 11, 20, 21, 22}), live);
}

TEST(LdcLinkRegistry, NextLinkSeqAdvancesPastApplied) {
  TestVersions t;
  VersionEdit edit;
  AddLowerFiles(&edit);
  edit.FreezeFile(MakeFrozen(10, 100, 1));
  edit.AddSliceLink(MakeLink(20, 10, 41, 1));
  ASSERT_TRUE(t.Apply(&edit).ok());
  EXPECT_EQ(42u, t.versions()->NextLinkSeq());
  EXPECT_EQ(43u, t.versions()->NextLinkSeq());

  // Recovery replays the link, so the sequence continues past it.
  ASSERT_TRUE(t.Reopen().ok());
  EXPECT_EQ(1, t.links().LinkCount(20));
  EXPECT_EQ(42u, t.versions()->NextLinkSeq());
}

TEST(LdcLinkRegistry, ConsumeUnknownLowerIsNoop) {
  TestVersions t;
  VersionEdit edit;
  edit.ConsumeLinks(999);
  ASSERT_TRUE(t.Apply(&edit).ok());
  EXPECT_EQ(0u, t.links().LinkedLowerFileCount());
}

// ---- The install check ------------------------------------------------------

// Lower files 20, 21 and 22 at level 1; frozen file 10 linked to 20 and 21.
class LdcLinkInvariantTest : public testing::Test {
 protected:
  LdcLinkInvariantTest() {
    VersionEdit edit;
    AddLowerFiles(&edit);
    edit.FreezeFile(MakeFrozen(10, 1000, 1));
    edit.AddSliceLink(MakeLink(20, 10, 1, 400));
    edit.AddSliceLink(MakeLink(21, 10, 2, 600));
    EXPECT_TRUE(t_.Apply(&edit).ok());
  }

  // Expects LogAndApply to refuse `edit` with a corruption naming `what`,
  // and to leave both the manifest and the current version untouched.
  void ExpectRefused(VersionEdit* edit, const std::string& what) {
    Version* before = t_.versions()->current();
    const uint64_t manifest_size = t_.ManifestSize();
    const Status s = t_.Apply(edit);
    EXPECT_TRUE(s.IsCorruption()) << s.ToString();
    EXPECT_NE(std::string::npos, s.ToString().find(what)) << s.ToString();
    EXPECT_EQ(before, t_.versions()->current());
    EXPECT_EQ(manifest_size, t_.ManifestSize());
    EXPECT_EQ(2, t_.links().Frozen(10)->refs);
  }

  TestVersions t_;
};

TEST_F(LdcLinkInvariantTest, LinkOnMissingLowerFileIsRefused) {
  VersionEdit edit;
  edit.RemoveFile(1, 20);  // Its links are not consumed.
  ExpectRefused(&edit, "slice link on a missing lower file");
}

TEST_F(LdcLinkInvariantTest, LinkToMissingFrozenFileIsRefused) {
  VersionEdit edit;
  edit.AddSliceLink(MakeLink(22, 77, 3, 100));
  ExpectRefused(&edit, "slice link to a missing frozen file");
}

TEST_F(LdcLinkInvariantTest, FrozenFileInALevelIsRefused) {
  VersionEdit edit;
  edit.AddFile(2, 10, 1000, InternalKey("a", 1, kTypeValue),
               InternalKey("z", 1, kTypeValue));
  ExpectRefused(&edit, "frozen file is also a level file");
}

TEST_F(LdcLinkInvariantTest, FrozenFileWithNoLinkLeftIsRefused) {
  VersionEdit edit;
  edit.ConsumeLinks(20);
  edit.ConsumeLinks(21);  // Without RemoveFrozenFile(10).
  ExpectRefused(&edit, "frozen file has no link left");
}

TEST_F(LdcLinkInvariantTest, ConsistentEditIsInstalled) {
  VersionEdit edit;
  edit.RemoveFile(1, 20);
  edit.ConsumeLinks(20);
  edit.ConsumeLinks(21);
  edit.RemoveFrozenFile(10);
  ASSERT_TRUE(t_.Apply(&edit).ok());
  EXPECT_EQ(0u, t_.links().FrozenFileCount());
  EXPECT_EQ(0u, t_.links().LinkedLowerFileCount());
}

// A manifest whose replay ends in a broken link state does not recover.
TEST_F(LdcLinkInvariantTest, RecoverRefusesBrokenLinkState) {
  // Append a record that drops lower file 20 but keeps its link.
  const std::string manifest =
      DescriptorFileName("/db", t_.versions()->ManifestFileNumber());
  uint64_t size = 0;
  ASSERT_TRUE(t_.env()->GetFileSize(manifest, &size).ok());
  WritableFile* file = nullptr;
  ASSERT_TRUE(t_.env()->NewAppendableFile(manifest, &file).ok());
  {
    log::Writer writer(file, size);
    VersionEdit edit;
    edit.RemoveFile(1, 20);
    std::string record;
    edit.EncodeTo(&record);
    ASSERT_TRUE(writer.AddRecord(record).ok());
  }
  ASSERT_TRUE(file->Close().ok());
  delete file;

  const Status s = t_.Reopen();
  EXPECT_TRUE(s.IsCorruption()) << s.ToString();
  EXPECT_NE(std::string::npos,
            s.ToString().find("slice link on a missing lower file"))
      << s.ToString();
}

}  // namespace ldc
