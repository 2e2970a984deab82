// End-to-end DB tests, parameterized over compaction style (UDC vs LDC) so
// every behaviour is exercised on both the baseline and the paper's
// algorithm. Small write buffers / file sizes force deep trees and many
// compactions even with modest key counts.

#include "ldc/db.h"

#include <cstdlib>
#include <map>
#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "ldc/cache.h"
#include "ldc/env.h"
#include "ldc/filter_policy.h"
#include "ldc/sim.h"
#include "ldc/statistics.h"
#include "ldc/write_batch.h"
#include "util/random.h"
#include "workload/key_generator.h"

namespace ldc {

namespace {

// No padding: gtest prints every byte of the parameter into the test names,
// so padding bytes would make the names differ from run to run.
struct StyleParam {
  CompactionStyle style;
  int use_sim;  // 0 or 1
};
static_assert(sizeof(StyleParam) == sizeof(CompactionStyle) + sizeof(int),
              "StyleParam must have no padding bytes");

std::string StyleName(const testing::TestParamInfo<StyleParam>& info) {
  std::string name;
  switch (info.param.style) {
    case CompactionStyle::kUdc:
      name = "Udc";
      break;
    case CompactionStyle::kLdc:
      name = "Ldc";
      break;
    case CompactionStyle::kTiered:
      name = "Tiered";
      break;
  }
  name += info.param.use_sim ? "Sim" : "Direct";
  return name;
}

class DBBasicTest : public testing::TestWithParam<StyleParam> {
 protected:
  DBBasicTest() : env_(NewMemEnv()) {
    filter_policy_.reset(NewBloomFilterPolicy(10));
    ReopenFresh();
  }

  ~DBBasicTest() override {
    db_.reset();
    sim_.reset();
  }

  Options MakeOptions() {
    Options options;
    options.env = env_.get();
    options.create_if_missing = true;
    options.write_buffer_size = 32 * 1024;
    options.max_file_size = 16 * 1024;
    options.level1_max_bytes = 64 * 1024;
    options.fan_out = 4;
    options.filter_policy = filter_policy_.get();
    options.compaction_style = GetParam().style;
    options.statistics = &stats_;
    if (GetParam().use_sim) {
      if (sim_ == nullptr) {
        SsdModel model;
        sim_ = std::make_unique<SimContext>(model);
      }
      options.sim = sim_.get();
    }
    return options;
  }

  void ReopenFresh() {
    db_.reset();
    DestroyDB("/db", MakeOptions());
    Reopen();
  }

  void Reopen() {
    db_.reset();
    DB* raw = nullptr;
    Options options = MakeOptions();
    ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
    db_.reset(raw);
  }

  Status Put(const std::string& k, const std::string& v) {
    return db_->Put(WriteOptions(), k, v);
  }

  std::string Get(const std::string& k) {
    std::string result;
    Status s = db_->Get(ReadOptions(), k, &result);
    if (s.IsNotFound()) return "NOT_FOUND";
    if (!s.ok()) return "ERROR: " + s.ToString();
    return result;
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<const FilterPolicy> filter_policy_;
  std::unique_ptr<SimContext> sim_;
  Statistics stats_;
  std::unique_ptr<DB> db_;
};

TEST_P(DBBasicTest, Empty) {
  ASSERT_EQ("NOT_FOUND", Get("foo"));
}

TEST_P(DBBasicTest, PutGet) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  ASSERT_EQ("v1", Get("foo"));
  ASSERT_TRUE(Put("bar", "v2").ok());
  ASSERT_EQ("v1", Get("foo"));
  ASSERT_EQ("v2", Get("bar"));
}

TEST_P(DBBasicTest, Overwrite) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  ASSERT_TRUE(Put("foo", "v2").ok());
  ASSERT_EQ("v2", Get("foo"));
}

TEST_P(DBBasicTest, DeleteBasic) {
  ASSERT_TRUE(Put("foo", "v1").ok());
  ASSERT_TRUE(db_->Delete(WriteOptions(), "foo").ok());
  ASSERT_EQ("NOT_FOUND", Get("foo"));
  // Deleting a missing key is not an error.
  ASSERT_TRUE(db_->Delete(WriteOptions(), "missing").ok());
}

TEST_P(DBBasicTest, WriteBatchAtomicity) {
  WriteBatch batch;
  batch.Put("a", "1");
  batch.Put("b", "2");
  batch.Delete("a");
  batch.Put("c", "3");
  ASSERT_TRUE(db_->Write(WriteOptions(), &batch).ok());
  ASSERT_EQ("NOT_FOUND", Get("a"));
  ASSERT_EQ("2", Get("b"));
  ASSERT_EQ("3", Get("c"));
}

// The workhorse: enough data to push the tree several levels deep, verified
// against an in-memory reference model.
TEST_P(DBBasicTest, ManyKeysMatchReferenceModel) {
  std::map<std::string, std::string> model;
  Random rng(301);
  const int kOps = 6000;
  const int kKeySpace = 1200;
  std::string value;
  for (int i = 0; i < kOps; i++) {
    const uint64_t id = rng.Uniform(kKeySpace);
    const std::string key = MakeKey(id);
    MakeValue(id, i, 100, &value);
    ASSERT_TRUE(Put(key, value).ok()) << "op " << i;
    model[key] = value;

    if (i % 1000 == 999) {
      // Periodically verify a sample of keys mid-stream.
      for (int probe = 0; probe < 50; probe++) {
        const std::string probe_key = MakeKey(rng.Uniform(kKeySpace));
        auto it = model.find(probe_key);
        if (it == model.end()) {
          ASSERT_EQ("NOT_FOUND", Get(probe_key));
        } else {
          ASSERT_EQ(it->second, Get(probe_key)) << "key " << probe_key;
        }
      }
    }
  }
  ASSERT_TRUE(db_->WaitForIdle().ok());
  // Full verification after the tree settles.
  for (const auto& kvp : model) {
    ASSERT_EQ(kvp.second, Get(kvp.first)) << "key " << kvp.first;
  }
  // The tree must have actually compacted: either UDC compactions or LDC
  // link/merge activity happened.
  if (GetParam().style == CompactionStyle::kLdc) {
    EXPECT_GT(stats_.Get(kLdcLinks) + stats_.Get(kTrivialMoves), 0u);
  } else {
    EXPECT_GT(stats_.Get(kCompactions) + stats_.Get(kTrivialMoves), 0u);
  }
}

TEST_P(DBBasicTest, IterationMatchesReferenceModel) {
  std::map<std::string, std::string> model;
  Random rng(99);
  std::string value;
  for (int i = 0; i < 4000; i++) {
    const uint64_t id = rng.Uniform(800);
    const std::string key = MakeKey(id);
    MakeValue(id, i, 120, &value);
    ASSERT_TRUE(Put(key, value).ok());
    model[key] = value;
  }
  ASSERT_TRUE(db_->WaitForIdle().ok());

  // Forward full scan.
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  auto mit = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_TRUE(mit != model.end());
    EXPECT_EQ(mit->first, iter->key().ToString());
    EXPECT_EQ(mit->second, iter->value().ToString());
  }
  EXPECT_TRUE(mit == model.end());
  ASSERT_TRUE(iter->status().ok());

  // Seek + bounded scan from random positions.
  for (int probe = 0; probe < 60; probe++) {
    const std::string start = MakeKey(rng.Uniform(800));
    iter->Seek(start);
    auto model_it = model.lower_bound(start);
    for (int step = 0; step < 20; step++) {
      if (model_it == model.end()) {
        EXPECT_FALSE(iter->Valid());
        break;
      }
      ASSERT_TRUE(iter->Valid());
      EXPECT_EQ(model_it->first, iter->key().ToString());
      EXPECT_EQ(model_it->second, iter->value().ToString());
      iter->Next();
      ++model_it;
    }
  }
}

TEST_P(DBBasicTest, ReopenPreservesData) {
  std::map<std::string, std::string> model;
  Random rng(7);
  std::string value;
  for (int i = 0; i < 3000; i++) {
    const uint64_t id = rng.Uniform(600);
    const std::string key = MakeKey(id);
    MakeValue(id, i, 150, &value);
    ASSERT_TRUE(Put(key, value).ok());
    model[key] = value;
  }
  ASSERT_TRUE(db_->WaitForIdle().ok());
  Reopen();
  for (const auto& kvp : model) {
    ASSERT_EQ(kvp.second, Get(kvp.first)) << "key " << kvp.first;
  }
}

TEST_P(DBBasicTest, ReopenWithUnflushedMemtable) {
  // Data that only lives in the WAL must survive a reopen.
  ASSERT_TRUE(Put("wal-key-1", "wal-value-1").ok());
  ASSERT_TRUE(Put("wal-key-2", "wal-value-2").ok());
  Reopen();
  ASSERT_EQ("wal-value-1", Get("wal-key-1"));
  ASSERT_EQ("wal-value-2", Get("wal-key-2"));
}

TEST_P(DBBasicTest, SnapshotIsolation) {
  ASSERT_TRUE(Put("k", "v1").ok());
  const Snapshot* snap = db_->GetSnapshot();
  ASSERT_TRUE(Put("k", "v2").ok());

  ReadOptions snap_options;
  snap_options.snapshot = snap;
  std::string value;
  ASSERT_TRUE(db_->Get(snap_options, "k", &value).ok());
  EXPECT_EQ("v1", value);
  EXPECT_EQ("v2", Get("k"));
  db_->ReleaseSnapshot(snap);
}

TEST_P(DBBasicTest, SnapshotSurvivesCompaction) {
  const Snapshot* snap = nullptr;
  Random rng(5);
  std::string value;
  for (int i = 0; i < 3000; i++) {
    const uint64_t id = rng.Uniform(400);
    MakeValue(id, i, 100, &value);
    ASSERT_TRUE(Put(MakeKey(id), value).ok());
    if (i == 1000) {
      ASSERT_TRUE(Put("pinned", "old-version").ok());
      snap = db_->GetSnapshot();
      ASSERT_TRUE(Put("pinned", "new-version").ok());
    }
  }
  ASSERT_TRUE(db_->WaitForIdle().ok());
  ReadOptions snap_options;
  snap_options.snapshot = snap;
  ASSERT_TRUE(db_->Get(snap_options, "pinned", &value).ok());
  EXPECT_EQ("old-version", value);
  EXPECT_EQ("new-version", Get("pinned"));
  db_->ReleaseSnapshot(snap);
}

TEST_P(DBBasicTest, GetProperty) {
  std::string value;
  EXPECT_TRUE(db_->GetProperty("ldc.num-files-at-level0", &value));
  EXPECT_TRUE(db_->GetProperty("ldc.stats", &value));
  EXPECT_TRUE(db_->GetProperty("ldc.total-bytes", &value));
  EXPECT_TRUE(db_->GetProperty("ldc.frozen-bytes", &value));
  EXPECT_TRUE(db_->GetProperty("ldc.slice-link-threshold", &value));
  EXPECT_TRUE(db_->GetProperty("ldc.block-cache-usage", &value));
  EXPECT_TRUE(db_->GetProperty("ldc.bg-jobs-running", &value));
  EXPECT_TRUE(db_->GetProperty("ldc.parallel-merges", &value));
  EXPECT_FALSE(db_->GetProperty("ldc.no-such-property", &value));
  EXPECT_FALSE(db_->GetProperty("other.prefix", &value));
}

TEST_P(DBBasicTest, BlockCacheCapacityOptionIsUsed) {
  // With no explicit Options::block_cache, the DB builds its own cache at
  // block_cache_capacity; reads populate it, and the usage property tracks
  // its charge.
  db_.reset();
  Options options = MakeOptions();
  options.block_cache = nullptr;
  options.block_cache_capacity = 512 * 1024;
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  db_.reset(raw);

  std::string value;
  for (int i = 0; i < 800; i++) {
    ASSERT_TRUE(Put(MakeKey(i), std::string(200, 'b')).ok());
  }
  ASSERT_TRUE(db_->WaitForIdle().ok());
  for (int i = 0; i < 800; i++) {
    ASSERT_TRUE(db_->Get(ReadOptions(), MakeKey(i), &value).ok());
  }
  ASSERT_TRUE(db_->GetProperty("ldc.block-cache-usage", &value));
  const uint64_t usage = strtoull(value.c_str(), nullptr, 10);
  EXPECT_GT(usage, 0u);
  EXPECT_LE(usage, 512u * 1024);
}

TEST_P(DBBasicTest, DeletesThroughCompactions) {
  std::map<std::string, std::string> model;
  Random rng(17);
  std::string value;
  for (int i = 0; i < 5000; i++) {
    const uint64_t id = rng.Uniform(500);
    const std::string key = MakeKey(id);
    if (rng.OneIn(4)) {
      ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
      model.erase(key);
    } else {
      MakeValue(id, i, 80, &value);
      ASSERT_TRUE(Put(key, value).ok());
      model[key] = value;
    }
  }
  ASSERT_TRUE(db_->WaitForIdle().ok());
  for (uint64_t id = 0; id < 500; id++) {
    const std::string key = MakeKey(id);
    auto it = model.find(key);
    if (it == model.end()) {
      EXPECT_EQ("NOT_FOUND", Get(key)) << key;
    } else {
      EXPECT_EQ(it->second, Get(key)) << key;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    CompactionStyles, DBBasicTest,
    testing::Values(StyleParam{CompactionStyle::kUdc, false},
                    StyleParam{CompactionStyle::kLdc, false},
                    StyleParam{CompactionStyle::kTiered, false},
                    StyleParam{CompactionStyle::kUdc, true},
                    StyleParam{CompactionStyle::kLdc, true},
                    StyleParam{CompactionStyle::kTiered, true}),
    StyleName);

// ---- Block cache and table-handle cache ------------------------------------

// A dying table erases its blocks from the block cache while the
// table-handle cache holds its shard mutex. One Cache object in both roles
// could take that mutex twice, so the DB (plain or sharded) and RepairDB
// refuse it.
TEST(DBCacheRolesTest, OneCacheInBothRolesIsRejected) {
  std::unique_ptr<Env> env(NewMemEnv());
  std::unique_ptr<Cache> cache(NewLRUCache(1 << 20));
  Options options;
  options.env = env.get();
  options.create_if_missing = true;
  options.block_cache = cache.get();
  options.table_handle_cache = cache.get();
  DB* raw = nullptr;
  EXPECT_TRUE(DB::Open(options, "/db", &raw).IsInvalidArgument());
  EXPECT_EQ(nullptr, raw);
  options.num_shards = 2;
  EXPECT_TRUE(DB::Open(options, "/sharded", &raw).IsInvalidArgument());
  EXPECT_EQ(nullptr, raw);
  EXPECT_FALSE(env->FileExists("/sharded/SHARDING"));
  options.num_shards = 1;
  EXPECT_TRUE(RepairDB("/db", options).IsInvalidArgument());
}

// A DB that shares a table-handle cache but owns its block cache deletes
// that block cache on close. None of its tables may stay in the shared
// cache: each would erase its blocks from the deleted cache when evicted.
TEST(DBCacheRolesTest, ClosedDbLeavesNoTablesInSharedHandleCache) {
  std::unique_ptr<Env> env(NewMemEnv());
  std::unique_ptr<Cache> handles(NewLRUCache(100));
  Options options;
  options.env = env.get();
  options.create_if_missing = true;
  options.write_buffer_size = 16 * 1024;
  options.max_file_size = 16 * 1024;
  options.table_handle_cache = handles.get();
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);
  std::string value;
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), MakeKey(i), std::string(100, 'x')).ok());
  }
  ASSERT_TRUE(db->WaitForIdle().ok());
  ASSERT_TRUE(db->Get(ReadOptions(), MakeKey(7), &value).ok());
  ASSERT_GT(handles->TotalCharge(), 0u);
  db.reset();
  EXPECT_EQ(0u, handles->TotalCharge());
}

}  // namespace
}  // namespace ldc
