// Deep tests of the LDC mechanism itself: link/freeze behaviour, slice
// accounting, merge triggering at T_s, frozen-file garbage collection,
// reads through slices (point + boundary cases), manifest persistence of
// the link state across reopen, and the adaptive threshold controller.

#include <map>
#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "db/db_impl.h"
#include "db/version_set.h"
#include "ldc/db.h"
#include "ldc/env.h"
#include "ldc/filter_policy.h"
#include "ldc/statistics.h"
#include "util/random.h"
#include "workload/key_generator.h"

namespace ldc {

class DBLdcTest : public testing::Test {
 protected:
  DBLdcTest() : env_(NewMemEnv()) {
    filter_policy_.reset(NewBloomFilterPolicy(10));
    options_.env = env_.get();
    options_.create_if_missing = true;
    options_.compaction_style = CompactionStyle::kLdc;
    options_.write_buffer_size = 16 * 1024;
    options_.max_file_size = 16 * 1024;
    options_.level1_max_bytes = 64 * 1024;
    options_.fan_out = 4;
    options_.filter_policy = filter_policy_.get();
    options_.statistics = &stats_;
    Reopen(/*destroy=*/true);
  }

  void Reopen(bool destroy = false) {
    db_.reset();
    if (destroy) DestroyDB("/db", options_);
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options_, "/db", &raw).ok());
    db_.reset(raw);
  }

  DBImpl* impl() { return static_cast<DBImpl*>(db_.get()); }
  // The current version's LDC metadata. MemEnv runs background work
  // inline, so no job installs a version while a test reads it.
  const LdcLinkState& links() {
    return impl()->TEST_versions()->current()->links();
  }

  // Writes `n` keys spread over `key_space`, medium values.
  void FillRandom(int n, int key_space, int value_size = 100,
                  uint32_t seed = 301) {
    Random rng(seed);
    std::string value;
    for (int i = 0; i < n; i++) {
      const uint64_t id = rng.Uniform(key_space);
      MakeValue(id, i, value_size, &value);
      ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(id), value).ok());
      model_[MakeKey(id)] = value;
    }
  }

  void VerifyAllKeys() {
    for (const auto& kvp : model_) {
      std::string value;
      Status s = db_->Get(ReadOptions(), kvp.first, &value);
      ASSERT_TRUE(s.ok()) << kvp.first << ": " << s.ToString();
      ASSERT_EQ(kvp.second, value) << kvp.first;
    }
  }

  uint64_t Prop(const std::string& name) {
    std::string value;
    EXPECT_TRUE(db_->GetProperty(name, &value)) << name;
    return strtoull(value.c_str(), nullptr, 10);
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<const FilterPolicy> filter_policy_;
  Options options_;
  Statistics stats_;
  std::map<std::string, std::string> model_;
  std::unique_ptr<DB> db_;
};

TEST_F(DBLdcTest, LinkingHappensAndIsMetadataOnly) {
  FillRandom(4000, 800);
  ASSERT_TRUE(db_->WaitForIdle().ok());
  EXPECT_GT(stats_.Get(kLdcLinks), 0u);
  EXPECT_GT(stats_.Get(kLdcSlicesCreated), stats_.Get(kLdcLinks));
  // No classic UDC compactions ever run in LDC mode.
  EXPECT_EQ(0u, stats_.Get(kCompactions));
  VerifyAllKeys();
}

TEST_F(DBLdcTest, MergesTriggerAndReclaimFrozenFiles) {
  FillRandom(8000, 800);
  ASSERT_TRUE(db_->WaitForIdle().ok());
  EXPECT_GT(stats_.Get(kLdcMerges), 0u);
  EXPECT_GT(stats_.Get(kLdcFrozenFilesReclaimed), 0u);
  // Every frozen file left must still have live references.
  for (const auto& kvp : links().frozen) {
    EXPECT_GT(kvp.second.refs, 0) << "frozen " << kvp.first;
  }
  VerifyAllKeys();
}

TEST_F(DBLdcTest, FrozenFilesStayOnDiskUntilReclaimed) {
  FillRandom(6000, 800);
  ASSERT_TRUE(db_->WaitForIdle().ok());
  // Every frozen file's table must exist on disk.
  for (const auto& kvp : links().frozen) {
    char name[64];
    std::snprintf(name, sizeof(name), "/db/%06llu.ldb",
                  static_cast<unsigned long long>(kvp.first));
    EXPECT_TRUE(env_->FileExists(name)) << name;
  }
}

TEST_F(DBLdcTest, SliceReadsAreConsulted) {
  FillRandom(6000, 800);
  // Without waiting for idle: links should exist right now.
  if (links().LinkedLowerFileCount() == 0) {
    GTEST_SKIP() << "no outstanding links to exercise";
  }
  stats_.Reset();
  VerifyAllKeys();
  EXPECT_GT(stats_.Get(kSliceSourcesChecked), 0u);
}

TEST_F(DBLdcTest, LinkStateSurvivesReopen) {
  FillRandom(6000, 800);
  // A first reopen replays the WAL and performs any open-time link/merge
  // work; once the tree is idle the link state is stable.
  Reopen();
  ASSERT_TRUE(db_->WaitForIdle().ok());

  const LdcLinkState before = links();  // A copy.
  ASSERT_GT(before.FrozenFileCount(), 0u) << "test needs outstanding links";

  // A second reopen must reconstruct exactly the same link state from the
  // manifest (no WAL contents, no level pressure left): its snapshot
  // record, written at the first reopen, plus the edits logged since.
  Reopen();
  ASSERT_TRUE(db_->WaitForIdle().ok());

  const LdcLinkState& after = links();
  ASSERT_EQ(before.links.size(), after.links.size());
  for (const auto& kvp : before.links) {
    const std::vector<SliceLinkMeta>* got = after.Links(kvp.first);
    ASSERT_NE(nullptr, got) << "lower " << kvp.first;
    ASSERT_EQ(kvp.second.size(), got->size()) << "lower " << kvp.first;
    for (size_t i = 0; i < got->size(); i++) {
      const SliceLinkMeta& want = kvp.second[i];
      const SliceLinkMeta& link = (*got)[i];
      EXPECT_EQ(want.lower_file_number, link.lower_file_number);
      EXPECT_EQ(want.frozen_file_number, link.frozen_file_number);
      EXPECT_EQ(want.smallest.Encode().ToString(),
                link.smallest.Encode().ToString());
      EXPECT_EQ(want.largest.Encode().ToString(),
                link.largest.Encode().ToString());
      EXPECT_EQ(want.link_seq, link.link_seq);
      EXPECT_EQ(want.estimated_bytes, link.estimated_bytes);
    }
  }
  ASSERT_EQ(before.frozen.size(), after.frozen.size());
  for (const auto& kvp : before.frozen) {
    const FrozenFileMeta* got = after.Frozen(kvp.first);
    ASSERT_NE(nullptr, got) << "frozen " << kvp.first;
    EXPECT_EQ(kvp.second.file_size, got->file_size) << kvp.first;
    EXPECT_EQ(kvp.second.origin_level, got->origin_level) << kvp.first;
    EXPECT_EQ(kvp.second.refs, got->refs) << kvp.first;
  }
  VerifyAllKeys();
}

TEST_F(DBLdcTest, ScansSeeFrozenData) {
  FillRandom(6000, 800);
  // Scan everything and diff against the model while links are live.
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  auto mit = model_.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_TRUE(mit != model_.end());
    EXPECT_EQ(mit->first, iter->key().ToString());
    EXPECT_EQ(mit->second, iter->value().ToString());
  }
  EXPECT_TRUE(mit == model_.end());
}

TEST_F(DBLdcTest, SpacePropertiesAreConsistent) {
  FillRandom(6000, 800);
  ASSERT_TRUE(db_->WaitForIdle().ok());
  const uint64_t frozen_bytes = Prop("ldc.frozen-bytes");
  const uint64_t total_bytes = Prop("ldc.total-bytes");
  EXPECT_LE(frozen_bytes, total_bytes);
  EXPECT_EQ(frozen_bytes, links().TotalFrozenBytes());
  EXPECT_EQ(Prop("ldc.frozen-files"), links().FrozenFileCount());
}

TEST_F(DBLdcTest, SliceThresholdDefaultsToFanOut) {
  EXPECT_EQ(options_.fan_out, impl()->EffectiveSliceThreshold());
  EXPECT_EQ(static_cast<uint64_t>(options_.fan_out),
            Prop("ldc.slice-link-threshold"));
}

TEST_F(DBLdcTest, ExplicitSliceThresholdIsHonored) {
  options_.slice_link_threshold = 7;
  Reopen(/*destroy=*/true);
  model_.clear();
  EXPECT_EQ(7, impl()->EffectiveSliceThreshold());
}

TEST_F(DBLdcTest, AdaptiveThresholdTracksWriteFraction) {
  options_.adaptive_slice_threshold = true;
  Reopen(/*destroy=*/true);
  model_.clear();

  // Write-dominated phase drives T_s up.
  FillRandom(3000, 500);
  const int write_heavy_threshold = impl()->EffectiveSliceThreshold();
  EXPECT_GT(write_heavy_threshold, options_.fan_out);

  // Read-dominated phase drives T_s down.
  std::string value;
  for (int i = 0; i < 6000; i++) {
    db_->Get(ReadOptions(), MakeKey(i % 500), &value);
  }
  const int read_heavy_threshold = impl()->EffectiveSliceThreshold();
  EXPECT_LT(read_heavy_threshold, write_heavy_threshold);
}

TEST_F(DBLdcTest, FrozenSpaceValveForcesEarlyMerges) {
  options_.frozen_space_limit_ratio = 0.05;  // Aggressive valve.
  options_.slice_link_threshold = 100;       // Normal trigger ~never fires.
  Reopen(/*destroy=*/true);
  model_.clear();
  FillRandom(8000, 800);
  ASSERT_TRUE(db_->WaitForIdle().ok());
  // Merges must have been forced by the valve, not the (unreachable)
  // threshold.
  EXPECT_GT(stats_.Get(kLdcMerges), 0u);
  VerifyAllKeys();
}

TEST_F(DBLdcTest, DeepTreeKeepsInvariants) {
  // Push enough data for 3+ levels and verify level-file disjointness plus
  // model equivalence.
  FillRandom(20000, 4000, 60);
  ASSERT_TRUE(db_->WaitForIdle().ok());

  VersionSet* versions = impl()->TEST_versions();
  const InternalKeyComparator* icmp = versions->icmp();
  int populated_levels = 0;
  for (int level = 1; level < versions->NumLevels(); level++) {
    const std::vector<FileMetaData*>& files =
        versions->current()->files(level);
    if (!files.empty()) populated_levels++;
    for (size_t i = 1; i < files.size(); i++) {
      EXPECT_LT(icmp->Compare(files[i - 1]->largest, files[i]->smallest), 0)
          << "overlap at level " << level;
    }
  }
  EXPECT_GE(populated_levels, 2);
  VerifyAllKeys();
}

TEST_F(DBLdcTest, CompactRangeSettlesTree) {
  FillRandom(5000, 800);
  db_->CompactRange(nullptr, nullptr);
  VerifyAllKeys();
}

}  // namespace ldc
