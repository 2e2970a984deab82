// UDC (baseline) compaction behaviour: trivial moves, level invariants,
// manual compaction, overwrite collapsing, and level-0 trigger behaviour;
// plus two rules of the shared merge kernel checked under UDC and LDC with
// and without the simulator: output cuts fall on user-key boundaries, and a
// trivial move whose manifest write fails stops the scheduler. A flush whose
// manifest write fails, or whose table cannot be read back, is neither
// counted nor reported.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "gtest/gtest.h"
#include "db/db_impl.h"
#include "db/version_set.h"
#include "ldc/cache.h"
#include "ldc/db.h"
#include "ldc/env.h"
#include "ldc/listener.h"
#include "ldc/sim.h"
#include "ldc/statistics.h"
#include "util/random.h"
#include "workload/key_generator.h"

namespace ldc {

class DBCompactionTest : public testing::Test {
 protected:
  DBCompactionTest() : env_(NewMemEnv()) {
    options_.env = env_.get();
    options_.create_if_missing = true;
    options_.compaction_style = CompactionStyle::kUdc;
    options_.write_buffer_size = 16 * 1024;
    options_.max_file_size = 16 * 1024;
    options_.level1_max_bytes = 64 * 1024;
    options_.fan_out = 4;
    options_.statistics = &stats_;
    Reopen(true);
  }

  void Reopen(bool destroy = false) {
    db_.reset();
    if (destroy) DestroyDB("/db", options_);
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options_, "/db", &raw).ok());
    db_.reset(raw);
  }

  DBImpl* impl() { return static_cast<DBImpl*>(db_.get()); }

  int NumFiles(int level) { return impl()->TEST_NumLevelFiles(level); }

  std::unique_ptr<Env> env_;
  Options options_;
  Statistics stats_;
  std::unique_ptr<DB> db_;
};

TEST_F(DBCompactionTest, CompactionsReduceLevelZero) {
  Random rng(301);
  std::string value;
  for (int i = 0; i < 6000; i++) {
    const uint64_t id = rng.Uniform(1000);
    MakeValue(id, i, 100, &value);
    ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(id), value).ok());
  }
  ASSERT_TRUE(db_->WaitForIdle().ok());
  EXPECT_LT(NumFiles(0), options_.l0_compaction_trigger + 1);
  EXPECT_GT(stats_.Get(kCompactions) + stats_.Get(kTrivialMoves), 0u);
}

TEST_F(DBCompactionTest, LevelsAreDisjointAfterCompactions) {
  Random rng(7);
  std::string value;
  for (int i = 0; i < 12000; i++) {
    const uint64_t id = rng.Uniform(2000);
    MakeValue(id, i, 80, &value);
    ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(id), value).ok());
  }
  ASSERT_TRUE(db_->WaitForIdle().ok());
  VersionSet* versions = impl()->TEST_versions();
  const InternalKeyComparator* icmp = versions->icmp();
  for (int level = 1; level < versions->NumLevels(); level++) {
    const std::vector<FileMetaData*>& files =
        versions->current()->files(level);
    for (size_t i = 1; i < files.size(); i++) {
      EXPECT_LT(icmp->Compare(files[i - 1]->largest, files[i]->smallest), 0)
          << "overlap at level " << level;
    }
  }
}

TEST_F(DBCompactionTest, OverwritesCollapseDuringCompaction) {
  // Write the same small key set many times; after compacting everything,
  // space should be bounded by roughly one version per key.
  std::string value(500, 'v');
  for (int round = 0; round < 50; round++) {
    for (int k = 0; k < 100; k++) {
      ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(k), value).ok());
    }
  }
  db_->CompactRange(nullptr, nullptr);
  std::string prop;
  ASSERT_TRUE(db_->GetProperty("ldc.total-bytes", &prop));
  const uint64_t total = strtoull(prop.c_str(), nullptr, 10);
  // 100 keys x ~520 bytes ~ 52KB; allow generous slack for metadata and a
  // not-yet-collapsed tail, but assert we did not keep 50 versions (2.6MB).
  EXPECT_LT(total, 400u * 1024);
}

TEST_F(DBCompactionTest, ManualCompactRangeMovesDataDown) {
  Random rng(9);
  std::string value;
  for (int i = 0; i < 4000; i++) {
    const uint64_t id = rng.Uniform(1000);
    MakeValue(id, i, 100, &value);
    ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(id), value).ok());
  }
  db_->CompactRange(nullptr, nullptr);
  EXPECT_EQ(0, NumFiles(0));
  // Data verifiable afterwards.
  Random rng2(9);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 4000; i++) {
    const uint64_t id = rng2.Uniform(1000);
    MakeValue(id, i, 100, &value);
    model[MakeKey(id)] = value;
  }
  for (const auto& kvp : model) {
    std::string found;
    ASSERT_TRUE(db_->Get(ReadOptions(), kvp.first, &found).ok());
    EXPECT_EQ(kvp.second, found);
  }
}

TEST_F(DBCompactionTest, TombstonesDroppedAtBottomLevel) {
  std::string value(200, 'v');
  for (int k = 0; k < 500; k++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(k), value).ok());
  }
  for (int k = 0; k < 500; k++) {
    ASSERT_TRUE(db_->Delete(WriteOptions(), MakeKey(k)).ok());
  }
  db_->CompactRange(nullptr, nullptr);
  for (int k = 0; k < 500; k++) {
    std::string found;
    EXPECT_TRUE(db_->Get(ReadOptions(), MakeKey(k), &found).IsNotFound());
  }
  // Everything was deleted and compacted to the bottom: space should be
  // nearly empty.
  std::string prop;
  ASSERT_TRUE(db_->GetProperty("ldc.total-bytes", &prop));
  EXPECT_LT(strtoull(prop.c_str(), nullptr, 10), 64u * 1024);
}

TEST_F(DBCompactionTest, GetApproximateSizesGrowWithData) {
  std::string value(1000, 'v');
  for (int k = 0; k < 1000; k++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(k), value).ok());
  }
  ASSERT_TRUE(db_->WaitForIdle().ok());
  const std::string k0 = MakeKey(0), k500 = MakeKey(500),
                    k1000 = MakeKey(1000);
  Range ranges[2];
  ranges[0] = Range(k0, k500);
  ranges[1] = Range(k500, k1000);
  uint64_t sizes[2] = {0, 0};
  db_->GetApproximateSizes(ranges, 2, sizes);
  EXPECT_GT(sizes[0], 100u * 1000);
  EXPECT_GT(sizes[1], 100u * 1000);
}

TEST_F(DBCompactionTest, TrivialMoveSkipsRewrite) {
  // Sequential non-overlapping data triggers trivial moves rather than
  // merges for most pushes.
  std::string value(500, 'v');
  for (int k = 0; k < 2000; k++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(k), value).ok());
  }
  ASSERT_TRUE(db_->WaitForIdle().ok());
  EXPECT_GT(stats_.Get(kTrivialMoves), 0u);
}

TEST_F(DBCompactionTest, ReadsDuringHeavyCompactionStillCorrect) {
  Random rng(11);
  std::string value;
  std::map<std::string, std::string> model;
  for (int i = 0; i < 8000; i++) {
    const uint64_t id = rng.Uniform(1500);
    MakeValue(id, i, 100, &value);
    ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(id), value).ok());
    model[MakeKey(id)] = value;
    if (i % 500 == 0) {
      // Interleaved reads while the tree churns.
      for (int probe = 0; probe < 20; probe++) {
        const std::string key = MakeKey(rng.Uniform(1500));
        auto it = model.find(key);
        std::string found;
        Status s = db_->Get(ReadOptions(), key, &found);
        if (it == model.end()) {
          EXPECT_TRUE(s.IsNotFound()) << key;
        } else {
          ASSERT_TRUE(s.ok()) << key;
          EXPECT_EQ(it->second, found) << key;
        }
      }
    }
  }
}

// --- Output cuts fall on user-key boundaries -------------------------------

// UDC and LDC cut a merge output once it reaches max_file_size, but only
// where the user key changes, so one user key never spans two files of a
// level (LDC's responsibility ranges rely on it). A snapshot keeps every
// version of a few hot keys alive, and each hot key's versions outgrow
// max_file_size, so the size limit is reached inside a key's run again and
// again.
class OutputCutTest
    : public testing::TestWithParam<std::tuple<CompactionStyle, bool>> {};

TEST_P(OutputCutTest, OneUserKeyNeverSpansTwoFiles) {
  const CompactionStyle style = std::get<0>(GetParam());
  const bool use_sim = std::get<1>(GetParam());
  std::unique_ptr<Env> env(NewMemEnv());
  SsdModel ssd;
  SimContext sim(ssd);  // Must outlive the DB (its destructor drains it).
  Options options;
  options.env = env.get();
  options.create_if_missing = true;
  options.compaction_style = style;
  options.write_buffer_size = 16 * 1024;
  options.max_file_size = 16 * 1024;
  options.level1_max_bytes = 64 * 1024;
  options.fan_out = 4;
  if (use_sim) options.sim = &sim;
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  // 400 versions of 100-byte values: about 50 KB per hot key.
  constexpr int kKeys = 300;
  constexpr int kVersions = 400;
  const int hot[] = {40, 150, 260};
  auto value_of = [](int id, int version) {
    std::string value;
    MakeValue(id, version, 100, &value);
    return value;
  };
  std::vector<int> latest(kKeys, 0);
  for (int id = 0; id < kKeys; id++) {
    ASSERT_TRUE(db->Put(WriteOptions(), MakeKey(id), value_of(id, 0)).ok());
  }
  const Snapshot* snapshot = db->GetSnapshot();
  for (int v = 1; v <= kVersions; v++) {
    for (int id : hot) {
      ASSERT_TRUE(db->Put(WriteOptions(), MakeKey(id), value_of(id, v)).ok());
      latest[id] = v;
    }
    // Other keys interleave with the hot ones in key order.
    for (int j = 0; j < 2; j++) {
      const int id = (v * 7 + j * 131) % kKeys;
      ASSERT_TRUE(db->Put(WriteOptions(), MakeKey(id), value_of(id, v)).ok());
      latest[id] = v;
    }
  }
  ASSERT_TRUE(db->WaitForIdle().ok());

  VersionSet* versions = static_cast<DBImpl*>(db.get())->TEST_versions();
  const Comparator* ucmp = versions->icmp()->user_comparator();
  int neighbours = 0;
  for (int level = 1; level < versions->NumLevels(); level++) {
    const std::vector<FileMetaData*>& files =
        versions->current()->files(level);
    for (size_t i = 1; i < files.size(); i++) {
      EXPECT_LT(ucmp->Compare(files[i - 1]->largest.user_key(),
                              files[i]->smallest.user_key()),
                0)
          << "a user key spans two files at level " << level;
      neighbours++;
    }
  }
  EXPECT_GT(neighbours, 0) << "no level >= 1 holds two files";

  // Point reads, at the snapshot and at the latest version.
  ReadOptions at_snapshot;
  at_snapshot.snapshot = snapshot;
  std::string value;
  for (int id = 0; id < kKeys; id++) {
    ASSERT_TRUE(db->Get(at_snapshot, MakeKey(id), &value).ok()) << id;
    EXPECT_EQ(value_of(id, 0), value) << "snapshot read of key " << id;
    ASSERT_TRUE(db->Get(ReadOptions(), MakeKey(id), &value).ok()) << id;
    EXPECT_EQ(value_of(id, latest[id]), value) << "read of key " << id;
  }
  db->ReleaseSnapshot(snapshot);
}

INSTANTIATE_TEST_SUITE_P(
    Styles, OutputCutTest,
    testing::Combine(testing::Values(CompactionStyle::kUdc,
                                     CompactionStyle::kLdc),
                     testing::Bool()),
    [](const testing::TestParamInfo<OutputCutTest::ParamType>& info) {
      return std::string(std::get<0>(info.param) == CompactionStyle::kUdc
                             ? "Udc"
                             : "Ldc") +
             (std::get<1>(info.param) ? "Sim" : "Inline");
    });

// --- A trivial move whose manifest write fails ------------------------------

// Wraps every MANIFEST file: counts Syncs, fails every one from index
// `fail_from` on, and notes the kTrivialMoves ticker as each other one
// starts.
class ManifestSyncFaultEnv : public EnvWrapper {
 public:
  ManifestSyncFaultEnv(Env* target, const Statistics* stats)
      : EnvWrapper(target), stats_(stats) {}

  Status NewWritableFile(const std::string& f, WritableFile** r) override {
    return Wrap(f, EnvWrapper::NewWritableFile(f, r), r);
  }
  // Hinted creations must hit the same wrapper.
  Status NewWritableFile(const std::string& f, WriteHint hint,
                         WritableFile** r) override {
    return Wrap(f, EnvWrapper::NewWritableFile(f, hint, r), r);
  }

  size_t syncs = 0;
  size_t fail_from = SIZE_MAX;
  std::vector<uint64_t> moves_at_sync;  // One entry per passing Sync.

 private:
  class File : public WritableFile {
   public:
    File(ManifestSyncFaultEnv* env, WritableFile* target)
        : env_(env), target_(target) {}
    ~File() override { delete target_; }
    Status Append(const Slice& data) override {
      return target_->Append(data);
    }
    Status Close() override { return target_->Close(); }
    Status Flush() override { return target_->Flush(); }
    Status Sync() override {
      if (env_->syncs++ >= env_->fail_from) {
        return Status::IOError("injected MANIFEST sync failure");
      }
      env_->moves_at_sync.push_back(env_->stats_->Get(kTrivialMoves));
      return target_->Sync();
    }

   private:
    ManifestSyncFaultEnv* const env_;
    WritableFile* const target_;
  };

  Status Wrap(const std::string& f, Status s, WritableFile** r) {
    if (s.ok() && f.find("MANIFEST") != std::string::npos) {
      *r = new File(this, *r);
    }
    return s;
  }

  const Statistics* const stats_;
};

// Runs fn on its own thread. If fn has not returned within `seconds`, fails
// the test and ends the process: the stuck thread would keep it alive.
void RunWithWatchdog(int seconds, const std::function<void()>& fn) {
  std::promise<void> done;
  std::future<void> finished = done.get_future();
  std::thread worker([&] {
    fn();
    done.set_value();
  });
  if (finished.wait_for(std::chrono::seconds(seconds)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "did not return within " << seconds << " s";
    std::fflush(stdout);
    std::_Exit(1);
  }
  worker.join();
}

// A failed trivial move leaves the tree unchanged, so picking again returns
// the same move. Both schedulers must stop at the background error instead
// of retrying it forever, surface the error to writers, and count no move
// that was not installed. Sequential keys make UDC's first compactions
// trivial moves. Parameter: run on the simulator.
class TrivialMoveFaultTest : public testing::TestWithParam<bool> {
 protected:
  // Writes sequential keys; returns the first failed Put's status (OK if
  // all succeed).
  static Status FillSequential(DB* db) {
    const std::string value(100, 'v');
    for (int k = 0; k < 3000; k++) {
      Status s = db->Put(WriteOptions(), MakeKey(k), value);
      if (!s.ok()) return s;
    }
    return Status::OK();
  }

  // Opens a UDC DB over `env`, runs FillSequential and closes the DB.
  Status RunWorkload(Env* env, Statistics* stats) {
    SsdModel ssd;
    SimContext sim(ssd);  // Must outlive the DB (its destructor drains it).
    Options options;
    options.env = env;
    options.create_if_missing = true;
    options.compaction_style = CompactionStyle::kUdc;
    options.write_buffer_size = 16 * 1024;
    options.level1_max_bytes = 16 * 1024;
    options.fan_out = 2;
    options.statistics = stats;
    if (GetParam()) options.sim = &sim;
    DB* raw = nullptr;
    Status s = DB::Open(options, "/db", &raw);
    if (!s.ok()) return s;
    std::unique_ptr<DB> db(raw);
    return FillSequential(db.get());
  }
};

TEST_P(TrivialMoveFaultTest, FailedMoveStopsSchedulingAndIsNotCounted) {
  // A healthy run finds the MANIFEST sync of the first trivial move: the
  // last one that starts before the ticker reads 1.
  size_t move_sync = 0;
  {
    std::unique_ptr<Env> mem(NewMemEnv());
    Statistics stats;
    ManifestSyncFaultEnv env(mem.get(), &stats);
    ASSERT_TRUE(RunWorkload(&env, &stats).ok());
    const auto first_after = std::find_if(
        env.moves_at_sync.begin(), env.moves_at_sync.end(),
        [](uint64_t moves) { return moves > 0; });
    ASSERT_NE(env.moves_at_sync.end(), first_after)
        << "the workload made no trivial move";
    move_sync = (first_after - env.moves_at_sync.begin()) - 1;
  }

  // The same deterministic run, with that sync and every later one failing.
  std::unique_ptr<Env> mem(NewMemEnv());
  Statistics stats;
  ManifestSyncFaultEnv env(mem.get(), &stats);
  env.fail_from = move_sync;
  Status s;
  RunWithWatchdog(30, [&] { s = RunWorkload(&env, &stats); });
  EXPECT_FALSE(s.ok()) << "no Put reported the failed move";
  EXPECT_EQ(0u, stats.Get(kTrivialMoves));
  EXPECT_GT(env.syncs, move_sync);
}

INSTANTIATE_TEST_SUITE_P(Schedulers, TrivialMoveFaultTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Sim" : "Inline");
                         });

// --- A flush whose manifest write fails -------------------------------------

class FlushCounter : public EventListener {
 public:
  void OnFlushBegin(const FlushJobInfo&) override { begun++; }
  void OnFlushCompleted(const FlushJobInfo&) override { completed++; }
  int begun = 0;
  int completed = 0;
};

// A flush is counted and reported only once its table is installed. With
// every MANIFEST sync after the open failing, the first flush writes its
// table but cannot install it: neither the flush tickers nor
// OnFlushCompleted may see it. Parameter: run on the simulator.
class FlushFaultTest : public testing::TestWithParam<bool> {};

TEST_P(FlushFaultTest, FailedInstallIsNotCounted) {
  std::unique_ptr<Env> mem(NewMemEnv());
  Statistics stats;
  ManifestSyncFaultEnv env(mem.get(), &stats);
  SsdModel ssd;
  SimContext sim(ssd);  // Must outlive the DB (its destructor drains it).
  FlushCounter listener;
  Options options;
  options.env = &env;
  options.create_if_missing = true;
  options.write_buffer_size = 16 * 1024;
  options.statistics = &stats;
  options.listeners.push_back(&listener);
  if (GetParam()) options.sim = &sim;
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);
  env.fail_from = env.syncs;

  const std::string value(100, 'v');
  Status s;
  for (int k = 0; k < 1000 && s.ok(); k++) {
    s = db->Put(WriteOptions(), MakeKey(k), value);
  }
  if (s.ok()) s = db->WaitForIdle();
  EXPECT_FALSE(s.ok()) << "no write reported the failed flush";
  EXPECT_GT(listener.begun, 0);
  EXPECT_EQ(0, listener.completed);
  EXPECT_EQ(0u, stats.Get(kFlushes));
  EXPECT_EQ(0u, stats.Get(kFlushWriteBytes));
}

// Fails every read at offset 0 of a table file: the first data block. The
// footer, index and filter sit further on, so Table::Open still succeeds.
class TableReadFaultEnv : public EnvWrapper {
 public:
  explicit TableReadFaultEnv(Env* target) : EnvWrapper(target) {}

  Status NewRandomAccessFile(const std::string& f,
                             RandomAccessFile** r) override {
    Status s = EnvWrapper::NewRandomAccessFile(f, r);
    if (s.ok() && f.size() > 4 && f.compare(f.size() - 4, 4, ".ldb") == 0) {
      *r = new File(*r);
    }
    return s;
  }

 private:
  class File : public RandomAccessFile {
   public:
    explicit File(RandomAccessFile* target) : target_(target) {}
    ~File() override { delete target_; }
    Status Read(uint64_t offset, size_t n, Slice* result,
                char* scratch) const override {
      if (offset == 0) return Status::IOError("injected table read failure");
      return target_->Read(offset, n, result, scratch);
    }

   private:
    RandomAccessFile* const target_;
  };
};

// The flush reads its new table back before installing it, as merges do
// with their outputs: a table whose data cannot be read is not installed,
// counted or reported, its handle leaves the table cache, and the
// memtable's WAL stays.
TEST_P(FlushFaultTest, UnreadableTableIsNotInstalled) {
  std::unique_ptr<Env> mem(NewMemEnv());
  TableReadFaultEnv env(mem.get());
  std::unique_ptr<Cache> handles(NewLRUCache(100));
  Statistics stats;
  SsdModel ssd;
  SimContext sim(ssd);  // Must outlive the DB (its destructor drains it).
  FlushCounter listener;
  Options options;
  options.env = &env;
  options.create_if_missing = true;
  options.write_buffer_size = 16 * 1024;
  options.statistics = &stats;
  options.table_handle_cache = handles.get();
  options.listeners.push_back(&listener);
  if (GetParam()) options.sim = &sim;
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  const std::string value(100, 'v');
  Status s;
  int acked = 0;
  for (; acked < 1000; acked++) {
    s = db->Put(WriteOptions(), MakeKey(acked), value);
    if (!s.ok()) break;
  }
  if (s.ok()) s = db->WaitForIdle();
  EXPECT_FALSE(s.ok()) << "no write reported the failed flush";
  EXPECT_GT(listener.begun, 0);
  EXPECT_EQ(0, listener.completed);
  EXPECT_EQ(0u, stats.Get(kFlushes));
  EXPECT_EQ(0u, stats.Get(kFlushWriteBytes));
  std::string files;
  ASSERT_TRUE(db->GetProperty("ldc.num-files-at-level0", &files));
  EXPECT_EQ("0", files);
  EXPECT_EQ(0u, handles->TotalCharge());
  db.reset();

  // Nothing was lost: recovery from the kept WAL, without the fault,
  // restores every acknowledged write.
  options.env = mem.get();
  options.listeners.clear();
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  db.reset(raw);
  std::string got;
  for (int k = 0; k < acked; k++) {
    ASSERT_TRUE(db->Get(ReadOptions(), MakeKey(k), &got).ok()) << k;
    EXPECT_EQ(value, got) << k;
  }
}

INSTANTIATE_TEST_SUITE_P(Schedulers, FlushFaultTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Sim" : "Inline");
                         });

}  // namespace ldc
