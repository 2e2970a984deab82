// Property-based testing: random operation sequences (put / delete / get /
// scan / reopen / snapshot) checked against an in-memory reference model,
// swept over compaction style x fan-out x SliceLink threshold x value size
// via INSTANTIATE_TEST_SUITE_P. This is the repository's main randomized
// correctness gate for the LDC mechanism.

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "ldc/cache.h"
#include "ldc/db.h"
#include "ldc/env.h"
#include "ldc/filter_policy.h"
#include "ldc/sim.h"
#include "ldc/statistics.h"
#include "util/random.h"
#include "workload/key_generator.h"

namespace ldc {

// (style, fan_out, slice_threshold, value_size)
using PropertyParam = std::tuple<CompactionStyle, int, int, int>;

class DBPropertyTest : public testing::TestWithParam<PropertyParam> {
 protected:
  DBPropertyTest() : env_(NewMemEnv()) {
    filter_policy_.reset(NewBloomFilterPolicy(10));
    options_.env = env_.get();
    options_.create_if_missing = true;
    options_.compaction_style = std::get<0>(GetParam());
    options_.fan_out = std::get<1>(GetParam());
    options_.slice_link_threshold = std::get<2>(GetParam());
    options_.write_buffer_size = 8 * 1024;
    options_.max_file_size = 8 * 1024;
    options_.level1_max_bytes = 32 * 1024;
    options_.filter_policy = filter_policy_.get();
    Reopen(true);
  }

  void Reopen(bool destroy = false) {
    db_.reset();
    if (destroy) DestroyDB("/db", options_);
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options_, "/db", &raw).ok());
    db_.reset(raw);
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<const FilterPolicy> filter_policy_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_P(DBPropertyTest, RandomOpsMatchModel) {
  const int value_size = std::get<3>(GetParam());
  std::map<std::string, std::string> model;
  Random rng(0xC0FFEE);
  const int kOps = 4000;
  const int kKeySpace = 600;
  std::string value;

  for (int i = 0; i < kOps; i++) {
    const int action = static_cast<int>(rng.Uniform(100));
    const uint64_t id = rng.Uniform(kKeySpace);
    const std::string key = MakeKey(id);

    if (action < 55) {
      // Put
      MakeValue(id, i, value_size, &value);
      ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
      model[key] = value;
    } else if (action < 70) {
      // Delete
      ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
      model.erase(key);
    } else if (action < 95) {
      // Get
      std::string found;
      Status s = db_->Get(ReadOptions(), key, &found);
      auto it = model.find(key);
      if (it == model.end()) {
        ASSERT_TRUE(s.IsNotFound()) << "op " << i << " key " << key;
      } else {
        ASSERT_TRUE(s.ok()) << "op " << i << " key " << key << " "
                            << s.ToString();
        ASSERT_EQ(it->second, found) << "op " << i << " key " << key;
      }
    } else {
      // Short scan from a random position.
      std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
      iter->Seek(key);
      auto it = model.lower_bound(key);
      for (int step = 0; step < 10; step++) {
        if (it == model.end()) {
          ASSERT_FALSE(iter->Valid()) << "op " << i;
          break;
        }
        ASSERT_TRUE(iter->Valid()) << "op " << i << " step " << step;
        ASSERT_EQ(it->first, iter->key().ToString()) << "op " << i;
        ASSERT_EQ(it->second, iter->value().ToString()) << "op " << i;
        iter->Next();
        ++it;
      }
    }

    if (i == kOps / 2) {
      // Mid-stream crash/restart with whatever tree state exists.
      Reopen();
    }
  }

  // Final full verification, both directions.
  ASSERT_TRUE(db_->WaitForIdle().ok());
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  auto mit = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_TRUE(mit != model.end());
    ASSERT_EQ(mit->first, iter->key().ToString());
    ASSERT_EQ(mit->second, iter->value().ToString());
  }
  ASSERT_TRUE(mit == model.end());

  auto rit = model.rbegin();
  for (iter->SeekToLast(); iter->Valid(); iter->Prev(), ++rit) {
    ASSERT_TRUE(rit != model.rend());
    ASSERT_EQ(rit->first, iter->key().ToString());
    ASSERT_EQ(rit->second, iter->value().ToString());
  }
  ASSERT_TRUE(rit == model.rend());
}

TEST_P(DBPropertyTest, SnapshotsStayConsistentThroughCompactions) {
  const int value_size = std::get<3>(GetParam());
  Random rng(77);
  std::string value;

  // Build a base state, snapshot it, then churn heavily.
  std::map<std::string, std::string> snapshot_model;
  for (int i = 0; i < 500; i++) {
    const uint64_t id = rng.Uniform(200);
    MakeValue(id, i, value_size, &value);
    ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(id), value).ok());
    snapshot_model[MakeKey(id)] = value;
  }
  const Snapshot* snap = db_->GetSnapshot();

  for (int i = 0; i < 3000; i++) {
    const uint64_t id = rng.Uniform(200);
    MakeValue(id, 100000 + i, value_size, &value);
    ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(id), value).ok());
  }
  ASSERT_TRUE(db_->WaitForIdle().ok());

  // The snapshot view must match the pre-churn model exactly.
  ReadOptions snap_options;
  snap_options.snapshot = snap;
  for (const auto& kvp : snapshot_model) {
    std::string found;
    ASSERT_TRUE(db_->Get(snap_options, kvp.first, &found).ok()) << kvp.first;
    ASSERT_EQ(kvp.second, found) << kvp.first;
  }
  std::unique_ptr<Iterator> iter(db_->NewIterator(snap_options));
  auto mit = snapshot_model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_TRUE(mit != snapshot_model.end());
    ASSERT_EQ(mit->first, iter->key().ToString());
    ASSERT_EQ(mit->second, iter->value().ToString());
  }
  ASSERT_TRUE(mit == snapshot_model.end());
  db_->ReleaseSnapshot(snap);
}

std::string StyleName(CompactionStyle style) {
  switch (style) {
    case CompactionStyle::kUdc:
      return "Udc";
    case CompactionStyle::kLdc:
      return "Ldc";
    case CompactionStyle::kTiered:
      return "Tiered";
  }
  return "Unknown";
}

std::string PropertyName(const testing::TestParamInfo<PropertyParam>& info) {
  std::string name = StyleName(std::get<0>(info.param));
  name += "Fan" + std::to_string(std::get<1>(info.param));
  name += "Ts" + std::to_string(std::get<2>(info.param));
  name += "Val" + std::to_string(std::get<3>(info.param));
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DBPropertyTest,
    testing::Values(
        // UDC across fan-outs and value sizes.
        PropertyParam{CompactionStyle::kUdc, 3, 0, 64},
        PropertyParam{CompactionStyle::kUdc, 10, 0, 64},
        PropertyParam{CompactionStyle::kUdc, 10, 0, 300},
        // LDC across fan-outs, thresholds and value sizes.
        PropertyParam{CompactionStyle::kLdc, 3, 0, 64},
        PropertyParam{CompactionStyle::kLdc, 10, 0, 64},
        PropertyParam{CompactionStyle::kLdc, 10, 2, 64},
        PropertyParam{CompactionStyle::kLdc, 10, 20, 64},
        PropertyParam{CompactionStyle::kLdc, 4, 0, 300},
        PropertyParam{CompactionStyle::kLdc, 25, 0, 64},
        // Tiered (lazy baseline): all data stays in level 0.
        PropertyParam{CompactionStyle::kTiered, 4, 0, 64},
        PropertyParam{CompactionStyle::kTiered, 10, 0, 300}),
    PropertyName);

// ---- The block cache holds live tables only --------------------------------

// (style, run on the simulator)
using CacheParam = std::tuple<CompactionStyle, bool>;

// Every flush and merge output is warmed into the block cache, and a
// deleted table's blocks must leave it, as a page cache drops a deleted
// file's pages. So after many compactions a cache far larger than the data
// holds at most the bytes of the live and frozen tables.
class BlockCacheLiveDataTest : public testing::TestWithParam<CacheParam> {};

TEST_P(BlockCacheLiveDataTest, CacheHoldsOnlyLiveTables) {
  std::unique_ptr<Env> env(NewMemEnv());
  std::unique_ptr<Cache> cache(NewLRUCache(64 << 20));
  std::unique_ptr<const FilterPolicy> bloom(NewBloomFilterPolicy(10));
  SimContext sim{SsdModel()};  // Must outlive the DB (its destructor drains).
  Options options;
  options.env = env.get();
  options.create_if_missing = true;
  options.compaction_style = std::get<0>(GetParam());
  options.write_buffer_size = 16 * 1024;
  options.max_file_size = 16 * 1024;
  options.level1_max_bytes = 64 * 1024;
  options.fan_out = 4;
  options.block_cache = cache.get();
  options.filter_policy = bloom.get();
  if (std::get<1>(GetParam())) options.sim = &sim;
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  // About 4.4 MB of overwrites over 220 KB of live data.
  std::string value;
  for (int i = 0; i < 20000; i++) {
    MakeValue(i % 1000, i, 200, &value);
    ASSERT_TRUE(db->Put(WriteOptions(), MakeKey(i % 1000), value).ok());
  }
  ASSERT_TRUE(db->WaitForIdle().ok());

  std::string total;
  ASSERT_TRUE(db->GetProperty("ldc.total-bytes", &total));
  const uint64_t table_bytes = std::stoull(total);
  ASSERT_GT(table_bytes, 0u);
  EXPECT_GT(cache->TotalCharge(), 0u);
  EXPECT_LE(cache->TotalCharge(), table_bytes);
  for (int k = 0; k < 1000; k++) {
    ASSERT_TRUE(db->Get(ReadOptions(), MakeKey(k), &value).ok()) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Styles, BlockCacheLiveDataTest,
    testing::Combine(testing::Values(CompactionStyle::kUdc,
                                     CompactionStyle::kLdc,
                                     CompactionStyle::kTiered),
                     testing::Bool()),
    [](const testing::TestParamInfo<CacheParam>& info) {
      return StyleName(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "Sim" : "Inline");
    });

// ---- An idle DB holds no obsolete table --------------------------------------

// Jobs delete obsolete tables when they end, except those that a reader's
// version still pins. Once the reader is gone no job may follow, so
// WaitForIdle sweeps them: afterwards the table files on disk are exactly
// the live and frozen tables.
class IdleSweepTest : public testing::TestWithParam<CacheParam> {};

TEST_P(IdleSweepTest, PinnedTablesLeaveOnceIdle) {
  std::unique_ptr<Env> env(NewMemEnv());
  SimContext sim{SsdModel()};  // Must outlive the DB (its destructor drains).
  Options options;
  options.env = env.get();
  options.create_if_missing = true;
  options.compaction_style = std::get<0>(GetParam());
  options.write_buffer_size = 16 * 1024;
  options.max_file_size = 16 * 1024;
  options.level1_max_bytes = 64 * 1024;
  options.fan_out = 4;
  if (std::get<1>(GetParam())) options.sim = &sim;
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  std::string value;
  auto overwrite = [&](int round) {
    for (int i = 0; i < 3000; i++) {
      MakeValue(i % 500, round * 3000 + i, 200, &value);
      ASSERT_TRUE(db->Put(WriteOptions(), MakeKey(i % 500), value).ok());
    }
  };
  overwrite(0);
  // The iterator pins the tables of round 0 while round 1 replaces them.
  std::unique_ptr<Iterator> pin(db->NewIterator(ReadOptions()));
  overwrite(1);
  ASSERT_TRUE(db->WaitForIdle().ok());
  pin.reset();
  ASSERT_TRUE(db->WaitForIdle().ok());

  std::vector<std::string> children;
  ASSERT_TRUE(env->GetChildren("/db", &children).ok());
  uint64_t file_bytes = 0;
  for (const std::string& child : children) {
    uint64_t size = 0;
    if (child.size() > 4 && child.compare(child.size() - 4, 4, ".ldb") == 0 &&
        env->GetFileSize("/db/" + child, &size).ok()) {
      file_bytes += size;
    }
  }
  std::string total;
  ASSERT_TRUE(db->GetProperty("ldc.total-bytes", &total));
  EXPECT_EQ(std::stoull(total), file_bytes);
}

INSTANTIATE_TEST_SUITE_P(
    Styles, IdleSweepTest,
    testing::Combine(testing::Values(CompactionStyle::kUdc,
                                     CompactionStyle::kLdc,
                                     CompactionStyle::kTiered),
                     testing::Bool()),
    [](const testing::TestParamInfo<CacheParam>& info) {
      return StyleName(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "Sim" : "Inline");
    });

// ---- Simulator runs report their jobs ---------------------------------------

// The simulator runs the claimed jobs through the same code as the thread
// pool, so it counts them the same way: each flush, compaction and LDC merge
// is one work unit, none is left running, and an LDC run has had one merge
// at a time on the device.
class SimJobCountersTest : public testing::TestWithParam<CompactionStyle> {};

TEST_P(SimJobCountersTest, EveryJobIsOneWorkUnit) {
  std::unique_ptr<Env> env(NewMemEnv());
  Statistics stats;
  SimContext sim{SsdModel()};  // Must outlive the DB (its destructor drains).
  Options options;
  options.env = env.get();
  options.create_if_missing = true;
  options.compaction_style = GetParam();
  options.write_buffer_size = 16 * 1024;
  options.max_file_size = 16 * 1024;
  options.level1_max_bytes = 64 * 1024;
  options.fan_out = 4;
  options.statistics = &stats;
  options.sim = &sim;
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  std::string value;
  for (int i = 0; i < 10000; i++) {
    MakeValue(i % 1000, i, 200, &value);
    ASSERT_TRUE(db->Put(WriteOptions(), MakeKey(i % 1000), value).ok());
  }
  ASSERT_TRUE(db->WaitForIdle().ok());

  const uint64_t merges = stats.Get(kCompactions) + stats.Get(kLdcMerges);
  EXPECT_GT(stats.Get(kFlushes), 0u);
  EXPECT_GT(merges, 0u);
  EXPECT_EQ(stats.Get(kFlushes) + merges, stats.Get(kBgWorkUnits));
  EXPECT_EQ(0u, stats.GetGauge(kBgJobsRunning));
  EXPECT_EQ(0u, stats.GetGauge(kLdcMergesRunning));
  EXPECT_EQ(0u, stats.Get(kBgJobsScheduled));  // No Env::Schedule call.
  std::string parallel;
  ASSERT_TRUE(db->GetProperty("ldc.parallel-merges", &parallel));
  EXPECT_EQ(GetParam() == CompactionStyle::kLdc ? "1" : "0", parallel);
}

INSTANTIATE_TEST_SUITE_P(
    Styles, SimJobCountersTest,
    testing::Values(CompactionStyle::kUdc, CompactionStyle::kLdc,
                    CompactionStyle::kTiered),
    [](const testing::TestParamInfo<CompactionStyle>& info) {
      return StyleName(info.param);
    });

}  // namespace ldc
