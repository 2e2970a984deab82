// Multi-threaded stress tests for the background-execution subsystem:
// concurrent writers (group commit), concurrent readers during flushes and
// compactions, WaitForIdle, and closing the DB while background work is in
// flight. Uses in-memory files (deterministic, no disk) but the POSIX
// Env's real thread pool, so flushes and compactions genuinely run on
// background threads. Run under TSan in CI.

#include <atomic>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "db_oracle.h"
#include "gtest/gtest.h"
#include "ldc/cache.h"
#include "ldc/db.h"
#include "ldc/env.h"
#include "ldc/listener.h"
#include "workload/key_generator.h"

namespace ldc {

namespace {

// The parallel-job tests below need a pool with at least 4 threads; size it
// before the POSIX Env lazily starts (no effect if the user already set it).
[[maybe_unused]] const bool kPoolSized = [] {
  setenv("LDCKV_BACKGROUND_THREADS", "4", /*overwrite=*/0);
  return true;
}();

// In-memory files + real background threads: forwards file operations to a
// MemEnv and scheduling to the default (POSIX) Env.
class ThreadedMemEnv : public EnvWrapper {
 public:
  explicit ThreadedMemEnv(Env* mem) : EnvWrapper(mem) {}

  void Schedule(void (*fn)(void*), void* arg) override {
    Env::Default()->Schedule(fn, arg);
  }
  void StartThread(void (*fn)(void*), void* arg) override {
    Env::Default()->StartThread(fn, arg);
  }
  void SleepForMicroseconds(int micros) override {
    Env::Default()->SleepForMicroseconds(micros);
  }
};

std::string StyleName(const testing::TestParamInfo<CompactionStyle>& info) {
  switch (info.param) {
    case CompactionStyle::kUdc:
      return "Udc";
    case CompactionStyle::kLdc:
      return "Ldc";
    case CompactionStyle::kTiered:
      return "Tiered";
  }
  return "Unknown";
}

class DBConcurrencyTest : public testing::TestWithParam<CompactionStyle> {
 protected:
  DBConcurrencyTest()
      : mem_env_(NewMemEnv()), env_(new ThreadedMemEnv(mem_env_.get())) {
    options_.env = env_.get();
    options_.create_if_missing = true;
    options_.compaction_style = GetParam();
    // Small buffers force many flushes and compactions so background work
    // overlaps the foreground threads.
    options_.write_buffer_size = 16 * 1024;
    options_.max_file_size = 16 * 1024;
    options_.level1_max_bytes = 64 * 1024;
    Open();
  }

  ~DBConcurrencyTest() override { db_.reset(); }

  void Open() {
    DB* raw = nullptr;
    Status s = DB::Open(options_, "/db", &raw);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(raw);
  }

  std::unique_ptr<Env> mem_env_;
  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_P(DBConcurrencyTest, ConcurrentWritersSeeAllData) {
  constexpr int kThreads = 4;
  constexpr int kKeysPerThread = 1500;

  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kKeysPerThread; i++) {
        const int id = t * kKeysPerThread + i;
        Status s = db_->Put(WriteOptions(), MakeKey(id),
                            "v" + std::to_string(id) + std::string(80, 'x'));
        if (!s.ok()) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(0, failures.load());
  ASSERT_TRUE(db_->WaitForIdle().ok());

  // Every key written by every thread must be present with its own value.
  std::string value;
  for (int id = 0; id < kThreads * kKeysPerThread; id++) {
    ASSERT_TRUE(db_->Get(ReadOptions(), MakeKey(id), &value).ok()) << id;
    EXPECT_EQ("v" + std::to_string(id) + std::string(80, 'x'), value) << id;
  }

  // A full scan sees exactly the written keys, in order.
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  int count = 0;
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) count++;
  ASSERT_TRUE(iter->status().ok());
  EXPECT_EQ(kThreads * kKeysPerThread, count);
}

TEST_P(DBConcurrencyTest, ConcurrentReadersDuringWrites) {
  constexpr int kKeySpace = 300;
  constexpr int kWrites = 4000;
  std::atomic<bool> done{false};
  std::atomic<int> bad_values{0};

  // Readers: every observed value must be one the writer produced for that
  // key ("<key-id>@<version>"), never a torn or mixed record.
  auto reader = [&] {
    int spins = 0;
    while (!done.load(std::memory_order_acquire)) {
      const int id = (spins * 7) % kKeySpace;
      std::string value;
      Status s = db_->Get(ReadOptions(), MakeKey(id), &value);
      if (s.ok()) {
        const std::string prefix = std::to_string(id) + "@";
        if (value.compare(0, prefix.size(), prefix) != 0) {
          bad_values.fetch_add(1);
        }
      } else if (!s.IsNotFound()) {
        bad_values.fetch_add(1);
      }
      if (++spins % 16 == 0) {
        std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
        for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
        }
        if (!iter->status().ok()) bad_values.fetch_add(1);
      }
    }
  };

  std::thread r1(reader), r2(reader);
  for (int i = 0; i < kWrites; i++) {
    const int id = i % kKeySpace;
    ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(id),
                         std::to_string(id) + "@" + std::to_string(i) +
                             std::string(60, 'y'))
                    .ok());
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  EXPECT_EQ(0, bad_values.load());
  ASSERT_TRUE(db_->WaitForIdle().ok());

  // Final state: last write per key wins.
  std::string value;
  for (int id = 0; id < kKeySpace; id++) {
    // Largest i < kWrites with i % kKeySpace == id.
    const int last = ((kWrites - 1 - id) / kKeySpace) * kKeySpace + id;
    ASSERT_TRUE(db_->Get(ReadOptions(), MakeKey(id), &value).ok()) << id;
    EXPECT_EQ(std::to_string(id) + "@" + std::to_string(last) +
                  std::string(60, 'y'),
              value);
  }
}

TEST_P(DBConcurrencyTest, ConcurrentWritersMatchShadowMap) {
  // Disjoint per-thread key ranges let us maintain a shadow map without
  // synchronizing on individual keys.
  constexpr int kThreads = 3;
  constexpr int kOpsPerThread = 2000;
  std::vector<std::map<std::string, std::string>> shadows(kThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      std::map<std::string, std::string>& shadow = shadows[t];
      for (int i = 0; i < kOpsPerThread; i++) {
        const int id = t * 1000 + (i * 13) % 400;
        const std::string key = MakeKey(id);
        if (i % 5 == 4 && !shadow.empty()) {
          db_->Delete(WriteOptions(), key);
          shadow.erase(key);
        } else {
          const std::string value =
              std::to_string(t) + ":" + std::to_string(i) +
              std::string(70, 'z');
          db_->Put(WriteOptions(), key, value);
          shadow[key] = value;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(db_->WaitForIdle().ok());

  oracle::Shadow expected;
  for (const auto& shadow : shadows) {
    expected.insert(shadow.begin(), shadow.end());
  }
  // Every id any thread wrote, plus a few no thread did.
  std::vector<std::string> probes;
  for (int t = 0; t < kThreads; t++) {
    for (int id = t * 1000; id < t * 1000 + 650; id++) {
      probes.push_back(MakeKey(id));
    }
  }
  ASSERT_TRUE(oracle::CheckReads(db_.get(), expected, probes, /*seed=*/1));
}

TEST_P(DBConcurrencyTest, CloseWhileBackgroundWorkInFlight) {
  // Queue up plenty of background work, then close without waiting: the
  // destructor must drain the in-flight job and not crash or leak state
  // that a reopen would trip over.
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(i % 500),
                         std::string(100, 'w'))
                    .ok());
  }
  db_.reset();  // No WaitForIdle on purpose.

  Open();
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), MakeKey(499), &value).ok());
  EXPECT_EQ(std::string(100, 'w'), value);
  ASSERT_TRUE(db_->WaitForIdle().ok());
}

TEST_P(DBConcurrencyTest, WaitForIdleFromManyThreads) {
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < 2; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 1000; i++) {
        const int id = t * 1000 + i;
        if (!db_->Put(WriteOptions(), MakeKey(id), std::string(100, 'q'))
                 .ok()) {
          failures.fetch_add(1);
        }
        if (i % 250 == 249 && !db_->WaitForIdle().ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(0, failures.load());
  ASSERT_TRUE(db_->WaitForIdle().ok());
}

INSTANTIATE_TEST_SUITE_P(Styles, DBConcurrencyTest,
                         testing::Values(CompactionStyle::kUdc,
                                         CompactionStyle::kLdc,
                                         CompactionStyle::kTiered),
                         StyleName);

// --- Multi-job scheduler (Options::max_background_jobs > 1) ---------------

// Counts overlapping background jobs from listener callbacks. Callbacks run
// on the worker threads (with the DB mutex held), so plain atomics suffice;
// never call back into the DB from here.
class OverlapListener : public EventListener {
 public:
  void OnFlushBegin(const FlushJobInfo&) override {
    flushes_running_.fetch_add(1, std::memory_order_acq_rel);
    if (merges_running_.load(std::memory_order_acquire) > 0) {
      flush_merge_overlaps_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void OnFlushCompleted(const FlushJobInfo&) override {
    flushes_running_.fetch_sub(1, std::memory_order_acq_rel);
  }
  void OnCompactionBegin(const CompactionJobInfo& info) override {
    if (info.style != CompactionStyle::kLdc) return;
    const int now = merges_running_.fetch_add(1, std::memory_order_acq_rel) + 1;
    int peak = peak_merges_.load(std::memory_order_relaxed);
    while (now > peak && !peak_merges_.compare_exchange_weak(
                             peak, now, std::memory_order_relaxed)) {
    }
    if (flushes_running_.load(std::memory_order_acquire) > 0) {
      flush_merge_overlaps_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  void OnCompactionCompleted(const CompactionJobInfo& info) override {
    if (info.style != CompactionStyle::kLdc) return;
    merges_running_.fetch_sub(1, std::memory_order_acq_rel);
  }

  int peak_merges() const {
    return peak_merges_.load(std::memory_order_acquire);
  }
  int flush_merge_overlaps() const {
    return flush_merge_overlaps_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<int> merges_running_{0};
  std::atomic<int> flushes_running_{0};
  std::atomic<int> peak_merges_{0};
  std::atomic<int> flush_merge_overlaps_{0};
};

class DBParallelJobsTest : public testing::TestWithParam<CompactionStyle> {
 protected:
  DBParallelJobsTest()
      : mem_env_(NewMemEnv()), env_(new ThreadedMemEnv(mem_env_.get())) {
    options_.env = env_.get();
    options_.create_if_missing = true;
    options_.compaction_style = GetParam();
    options_.max_background_jobs = 4;
    options_.write_buffer_size = 16 * 1024;
    options_.max_file_size = 16 * 1024;
    options_.level1_max_bytes = 64 * 1024;
    Open();
  }

  ~DBParallelJobsTest() override { db_.reset(); }

  void Open() {
    DB* raw = nullptr;
    Status s = DB::Open(options_, "/db", &raw);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(raw);
  }

  std::unique_ptr<Env> mem_env_;
  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_P(DBParallelJobsTest, ShadowMapUnderParallelJobs) {
  // Same disjoint-range shadow-map check as the single-job test, but with
  // up to 4 concurrent background jobs installing edits under the writers.
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 2500;
  std::vector<std::map<std::string, std::string>> shadows(kThreads);

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&, t] {
      std::map<std::string, std::string>& shadow = shadows[t];
      for (int i = 0; i < kOpsPerThread; i++) {
        const int id = t * 1000 + (i * 13) % 600;
        const std::string key = MakeKey(id);
        if (i % 7 == 6 && !shadow.empty()) {
          db_->Delete(WriteOptions(), key);
          shadow.erase(key);
        } else {
          const std::string value =
              std::to_string(t) + ":" + std::to_string(i) +
              std::string(70, 'z');
          db_->Put(WriteOptions(), key, value);
          shadow[key] = value;
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(db_->WaitForIdle().ok());

  oracle::Shadow expected;
  for (const auto& shadow : shadows) {
    expected.insert(shadow.begin(), shadow.end());
  }
  // Every id any thread wrote, plus a few no thread did.
  std::vector<std::string> probes;
  for (int t = 0; t < kThreads; t++) {
    for (int id = t * 1000; id < t * 1000 + 650; id++) {
      probes.push_back(MakeKey(id));
    }
  }
  ASSERT_TRUE(oracle::CheckReads(db_.get(), expected, probes, /*seed=*/1));
}

TEST_P(DBParallelJobsTest, CloseWhileParallelJobsInFlight) {
  for (int i = 0; i < 4000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(i % 700),
                         std::string(100, 'w'))
                    .ok());
  }
  db_.reset();  // No WaitForIdle on purpose: drains up to 4 workers.

  Open();
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), MakeKey(699), &value).ok());
  EXPECT_EQ(std::string(100, 'w'), value);
  ASSERT_TRUE(db_->WaitForIdle().ok());
}

INSTANTIATE_TEST_SUITE_P(Styles, DBParallelJobsTest,
                         testing::Values(CompactionStyle::kUdc,
                                         CompactionStyle::kLdc,
                                         CompactionStyle::kTiered),
                         StyleName);

// --- Dead tables leave the block cache under parallel jobs -------------------

// The threaded form of BlockCacheLiveDataTest (db_property_test.cc): four
// background jobs delete tables while readers hold some of them pinned.
// The block cache must never hold more than the table files that still
// exist, and once the obsolete ones are deleted, no more than the live and
// frozen table bytes. Each dying table erases its blocks under a
// table-cache shard mutex, so TSan checks that lock order here too.
class BlockCacheLiveDataThreadedTest
    : public testing::TestWithParam<CompactionStyle> {};

TEST_P(BlockCacheLiveDataThreadedTest, CacheHoldsOnlyLiveTables) {
  std::unique_ptr<Env> mem_env(NewMemEnv());
  ThreadedMemEnv env(mem_env.get());
  std::unique_ptr<Cache> cache(NewLRUCache(64 << 20));
  Options options;
  options.env = &env;
  options.create_if_missing = true;
  options.compaction_style = GetParam();
  options.max_background_jobs = 4;
  options.write_buffer_size = 16 * 1024;
  options.max_file_size = 16 * 1024;
  options.level1_max_bytes = 64 * 1024;
  options.fan_out = 4;
  options.block_cache = cache.get();
  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/db", &raw).ok());
  std::unique_ptr<DB> db(raw);

  constexpr int kWriters = 2;
  constexpr int kKeysPerWriter = 500;
  std::atomic<int> writers_left{kWriters};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; t++) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < 6000; i++) {
        const int id = t * kKeysPerWriter + i % kKeysPerWriter;
        db->Put(WriteOptions(), MakeKey(id), std::string(200, 'a' + t));
      }
      writers_left--;
    });
  }
  for (int t = 0; t < 2; t++) {
    threads.emplace_back([&, t] {
      std::string value;
      for (int i = t; writers_left.load() > 0; i += 7) {
        db->Get(ReadOptions(), MakeKey(i % (kWriters * kKeysPerWriter)),
                &value);
        std::unique_ptr<Iterator> it(db->NewIterator(ReadOptions()));
        it->Seek(MakeKey(i % (kWriters * kKeysPerWriter)));
        for (int n = 0; n < 20 && it->Valid(); n++) it->Next();
      }
    });
  }
  for (auto& th : threads) th.join();
  ASSERT_TRUE(db->WaitForIdle().ok());

  std::vector<std::string> children;
  ASSERT_TRUE(env.GetChildren("/db", &children).ok());
  uint64_t file_bytes = 0;
  for (const std::string& child : children) {
    uint64_t size = 0;
    if (child.size() > 4 && child.compare(child.size() - 4, 4, ".ldb") == 0 &&
        env.GetFileSize("/db/" + child, &size).ok()) {
      file_bytes += size;
    }
  }
  EXPECT_LE(cache->TotalCharge(), file_bytes);

  // A table that a reader's version pinned during the last job's sweep is
  // deleted only by the next job's, so flush once more with no reader.
  for (int id = 0; id < 100; id++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), MakeKey(id), std::string(200, 'a')).ok());
  }
  ASSERT_TRUE(db->WaitForIdle().ok());
  std::string total;
  ASSERT_TRUE(db->GetProperty("ldc.total-bytes", &total));
  const uint64_t table_bytes = std::stoull(total);
  ASSERT_GT(table_bytes, 0u);
  EXPECT_GT(cache->TotalCharge(), 0u);
  EXPECT_LE(cache->TotalCharge(), table_bytes);
  std::string value;
  for (int id = 0; id < kWriters * kKeysPerWriter; id++) {
    ASSERT_TRUE(db->Get(ReadOptions(), MakeKey(id), &value).ok()) << id;
    EXPECT_EQ(std::string(200, 'a' + id / kKeysPerWriter), value) << id;
  }
}

INSTANTIATE_TEST_SUITE_P(Styles, BlockCacheLiveDataThreadedTest,
                         testing::Values(CompactionStyle::kUdc,
                                         CompactionStyle::kLdc,
                                         CompactionStyle::kTiered),
                         StyleName);

// --- LDC-specific parallel merges -----------------------------------------

class DBParallelLdcTest : public testing::Test {
 protected:
  DBParallelLdcTest()
      : mem_env_(NewMemEnv()), env_(new ThreadedMemEnv(mem_env_.get())) {
    options_.env = env_.get();
    options_.create_if_missing = true;
    options_.compaction_style = CompactionStyle::kLdc;
    options_.max_background_jobs = 4;
    // Tiny buffers + a low slice threshold: merges trigger constantly, on
    // many distinct lower tables, so several get claimed at once.
    options_.write_buffer_size = 8 * 1024;
    options_.max_file_size = 8 * 1024;
    options_.level1_max_bytes = 32 * 1024;
    options_.slice_link_threshold = 2;
    options_.listeners.push_back(&listener_);
  }

  ~DBParallelLdcTest() override { db_.reset(); }

  void Open() {
    DB* raw = nullptr;
    Status s = DB::Open(options_, "/db", &raw);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(raw);
  }

  std::unique_ptr<Env> mem_env_;
  std::unique_ptr<Env> env_;
  Options options_;
  OverlapListener listener_;
  std::unique_ptr<DB> db_;
};

TEST_F(DBParallelLdcTest, ParallelMergesOverlapWithFlush) {
  Open();
  // Write (with occasional deletes) until the listener has observed two LDC
  // merges running at once plus a flush overlapping a merge, maintaining a
  // shadow map throughout. Spread keys over a wide space so links attach to
  // many disjoint lower tables.
  constexpr int kKeySpace = 4000;
  constexpr int kMaxRounds = 60;
  constexpr int kOpsPerRound = 2000;
  std::map<std::string, std::string> shadow;
  uint64_t op = 0;
  for (int round = 0; round < kMaxRounds; round++) {
    for (int i = 0; i < kOpsPerRound; i++, op++) {
      const int id =
          static_cast<int>((op * 2654435761ull) % kKeySpace);
      const std::string key = MakeKey(id);
      if (op % 11 == 10 && !shadow.empty()) {
        ASSERT_TRUE(db_->Delete(WriteOptions(), key).ok());
        shadow.erase(key);
      } else {
        const std::string value =
            std::to_string(op) + std::string(90, 's');
        ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
        shadow[key] = value;
      }
    }
    if (listener_.peak_merges() >= 2 &&
        listener_.flush_merge_overlaps() >= 1) {
      break;
    }
  }
  ASSERT_TRUE(db_->WaitForIdle().ok());

  // The scheduler must actually have run merges in parallel...
  EXPECT_GE(listener_.peak_merges(), 2);
  EXPECT_GE(listener_.flush_merge_overlaps(), 1);
  std::string prop;
  ASSERT_TRUE(db_->GetProperty("ldc.parallel-merges", &prop));
  EXPECT_GE(std::stoi(prop), 2);

  // ...and the data must still read back exactly.
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  auto it = shadow.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++it) {
    ASSERT_NE(shadow.end(), it);
    EXPECT_EQ(it->first, iter->key().ToString());
    EXPECT_EQ(it->second, iter->value().ToString());
  }
  EXPECT_EQ(shadow.end(), it);
  ASSERT_TRUE(iter->status().ok());
}

TEST_F(DBParallelLdcTest, CloseWhileParallelMerging) {
  Open();
  // Build up enough state that merges are running (or at least queued) at
  // close time, then close without draining. Every acked write must be
  // readable after reopen.
  std::map<std::string, std::string> shadow;
  for (uint64_t op = 0; op < 30000; op++) {
    const int id = static_cast<int>((op * 2654435761ull) % 3000);
    const std::string key = MakeKey(id);
    const std::string value = std::to_string(op) + std::string(90, 'c');
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    shadow[key] = value;
    if (op > 5000 && listener_.peak_merges() >= 2) break;
  }
  db_.reset();  // No WaitForIdle on purpose.

  Open();
  ASSERT_TRUE(db_->WaitForIdle().ok());
  std::unique_ptr<Iterator> iter(db_->NewIterator(ReadOptions()));
  auto it = shadow.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++it) {
    ASSERT_NE(shadow.end(), it);
    EXPECT_EQ(it->first, iter->key().ToString());
    EXPECT_EQ(it->second, iter->value().ToString());
  }
  EXPECT_EQ(shadow.end(), it);
  ASSERT_TRUE(iter->status().ok());
}

// --- Background-error propagation with queued jobs -------------------------

// Fails table-file creation (*.ldb) when armed; WAL and manifest writes keep
// working, so acked writes stay durable and recoverable.
class FailingEnv : public EnvWrapper {
 public:
  explicit FailingEnv(Env* t) : EnvWrapper(t) {}

  Status NewWritableFile(const std::string& f, WritableFile** r) override {
    if (fail_tables_.load(std::memory_order_acquire) && IsTableFile(f)) {
      return Status::IOError(f, "injected table write failure");
    }
    return EnvWrapper::NewWritableFile(f, r);
  }

  // Hinted creations must hit the same fault-injection path.
  Status NewWritableFile(const std::string& f, WriteHint /*hint*/,
                         WritableFile** r) override {
    return NewWritableFile(f, r);
  }

  static bool IsTableFile(const std::string& f) {
    return f.size() > 4 && f.compare(f.size() - 4, 4, ".ldb") == 0;
  }

  std::atomic<bool> fail_tables_{false};
};

TEST_F(DBParallelLdcTest, BackgroundErrorAbortsQueuedJobs) {
  auto failing_env = std::make_unique<FailingEnv>(env_.get());
  options_.env = failing_env.get();
  Open();

  // Phase 1: healthy writes; remember every acked key.
  std::map<std::string, std::string> acked;
  for (uint64_t op = 0; op < 6000; op++) {
    const int id = static_cast<int>((op * 2654435761ull) % 2000);
    const std::string key = MakeKey(id);
    const std::string value = std::to_string(op) + std::string(90, 'e');
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    acked[key] = value;
  }

  // Phase 2: every table write now fails. Some background job (flush or
  // merge) hits the error; the scheduler must record it, abort the whole
  // queue, and surface the error to writers — not hang with queued jobs.
  failing_env->fail_tables_.store(true, std::memory_order_release);
  bool saw_error = false;
  for (uint64_t op = 0; op < 30000 && !saw_error; op++) {
    const int id = static_cast<int>((op * 2654435761ull) % 2000);
    const std::string key = MakeKey(id);
    const std::string value = std::to_string(op) + std::string(90, 'f');
    Status s = db_->Put(WriteOptions(), key, value);
    if (s.ok()) {
      acked[key] = value;
    } else {
      saw_error = true;
    }
  }
  EXPECT_TRUE(saw_error);
  EXPECT_FALSE(db_->WaitForIdle().ok());

  // Close with the error set and jobs (previously) queued: must not hang.
  db_.reset();

  // Recovery with a healthy Env: every acked write must be readable (the
  // WAL kept working through the injected table failures).
  failing_env->fail_tables_.store(false, std::memory_order_release);
  Open();
  ASSERT_TRUE(db_->WaitForIdle().ok());
  std::string value;
  for (const auto& kv : acked) {
    ASSERT_TRUE(db_->Get(ReadOptions(), kv.first, &value).ok()) << kv.first;
    EXPECT_EQ(kv.second, value) << kv.first;
  }
  // The DB must not outlive the local FailingEnv it was opened on.
  db_.reset();
}

// --- Lock-free read path: Get / MultiGet vs. ReadState churn ---------------

// Hammers the mutex-free read path from several threads while writers force
// memtable switches, flushes, and version installs — every one of which
// publishes a new ReadState that the readers' pins must keep alive. Run
// under TSan in CI (including the repeat-until-fail pass).
class DBReadPathConcurrencyTest
    : public testing::TestWithParam<CompactionStyle> {
 protected:
  DBReadPathConcurrencyTest()
      : mem_env_(NewMemEnv()), env_(new ThreadedMemEnv(mem_env_.get())) {
    options_.env = env_.get();
    options_.create_if_missing = true;
    options_.compaction_style = GetParam();
    options_.max_background_jobs = 4;
    options_.write_buffer_size = 16 * 1024;
    options_.max_file_size = 16 * 1024;
    options_.level1_max_bytes = 64 * 1024;
    Open();
  }

  ~DBReadPathConcurrencyTest() override { db_.reset(); }

  void Open() {
    DB* raw = nullptr;
    Status s = DB::Open(options_, "/db", &raw);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(raw);
  }

  std::unique_ptr<Env> mem_env_;
  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_P(DBReadPathConcurrencyTest, GetAndMultiGetUnderReadStateChurn) {
  constexpr int kKeySpace = 400;
  constexpr int kWrites = 6000;
  std::atomic<bool> done{false};
  std::atomic<int> bad_values{0};

  // Writer values are "<id>@<op>" so a reader can validate any observed
  // value without synchronizing with the writer.
  auto check = [&](int id, const Status& s, const std::string& value) {
    if (s.ok()) {
      const std::string prefix = std::to_string(id) + "@";
      if (value.compare(0, prefix.size(), prefix) != 0) {
        bad_values.fetch_add(1);
      }
    } else if (!s.IsNotFound()) {
      bad_values.fetch_add(1);
    }
  };

  auto getter = [&](int seed) {
    int spins = seed;
    std::string value;
    while (!done.load(std::memory_order_acquire)) {
      const int id = (spins * 7) % kKeySpace;
      check(id, db_->Get(ReadOptions(), MakeKey(id), &value), value);
      spins++;
    }
  };
  auto multigetter = [&](int seed) {
    int spins = seed;
    while (!done.load(std::memory_order_acquire)) {
      std::vector<std::string> ids;
      std::vector<Slice> keys;
      for (int j = 0; j < 8; j++) {
        ids.push_back(MakeKey((spins * 7 + j * 13) % kKeySpace));
      }
      for (const std::string& k : ids) keys.emplace_back(k);
      std::vector<std::string> values;
      std::vector<Status> statuses = db_->MultiGet(ReadOptions(), keys,
                                                   &values);
      for (size_t j = 0; j < keys.size(); j++) {
        check((spins * 7 + static_cast<int>(j) * 13) % kKeySpace, statuses[j],
              values[j]);
      }
      spins++;
    }
  };

  std::thread g1(getter, 0), g2(getter, 3), m1(multigetter, 1),
      m2(multigetter, 5);
  for (int i = 0; i < kWrites; i++) {
    const int id = i % kKeySpace;
    ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(id),
                         std::to_string(id) + "@" + std::to_string(i) +
                             std::string(60, 'r'))
                    .ok());
  }
  done.store(true, std::memory_order_release);
  g1.join();
  g2.join();
  m1.join();
  m2.join();
  EXPECT_EQ(0, bad_values.load());
  ASSERT_TRUE(db_->WaitForIdle().ok());
}

TEST_P(DBReadPathConcurrencyTest, MultiGetMatchesSequentialGets) {
  // Probed keys live in a range the concurrent writer never touches, so a
  // MultiGet over them must be byte-identical to N sequential Gets even
  // while flushes and compactions churn ReadStates underneath.
  constexpr int kStable = 300;
  std::map<std::string, std::string> shadow;
  for (int id = 0; id < kStable; id++) {
    const std::string key = MakeKey(id);
    if (id % 7 == 6) continue;  // Leave holes: NotFound must match too.
    const std::string value = "s" + std::to_string(id) + std::string(80, 'm');
    ASSERT_TRUE(db_->Put(WriteOptions(), key, value).ok());
    shadow[key] = value;
  }

  std::atomic<bool> done{false};
  std::thread churn([&] {
    uint64_t op = 0;
    while (!done.load(std::memory_order_acquire)) {
      const int id = kStable + static_cast<int>(op % 500);
      db_->Put(WriteOptions(), MakeKey(id),
               std::to_string(op) + std::string(100, 'c'));
      op++;
    }
  });

  for (int round = 0; round < 200; round++) {
    std::vector<std::string> ids;
    std::vector<Slice> keys;
    for (int j = 0; j < 16; j++) {
      ids.push_back(MakeKey((round * 31 + j * 17) % kStable));
    }
    for (const std::string& k : ids) keys.emplace_back(k);
    std::vector<std::string> values;
    std::vector<Status> statuses = db_->MultiGet(ReadOptions(), keys, &values);
    for (size_t j = 0; j < keys.size(); j++) {
      std::string single;
      Status s = db_->Get(ReadOptions(), keys[j], &single);
      auto it = shadow.find(ids[j]);
      if (it == shadow.end()) {
        EXPECT_TRUE(statuses[j].IsNotFound()) << ids[j];
        EXPECT_TRUE(s.IsNotFound()) << ids[j];
      } else {
        ASSERT_TRUE(statuses[j].ok()) << statuses[j].ToString();
        ASSERT_TRUE(s.ok()) << s.ToString();
        EXPECT_EQ(it->second, values[j]);
        EXPECT_EQ(single, values[j]);
      }
    }
  }
  done.store(true, std::memory_order_release);
  churn.join();
  ASSERT_TRUE(db_->WaitForIdle().ok());
}

TEST_P(DBReadPathConcurrencyTest, QuiescentReadsNeverTakeDbMutex) {
  // With no writes in flight there is no ReadState churn, so no release can
  // be the last reference to a retired state — the deferred-cleanup counter
  // (the only path where a read touches mutex_) must stay flat across any
  // number of Gets and MultiGets.
  for (int id = 0; id < 500; id++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(id),
                         "q" + std::to_string(id) + std::string(80, 'x'))
                    .ok());
  }
  ASSERT_TRUE(db_->WaitForIdle().ok());

  std::string before;
  ASSERT_TRUE(db_->GetProperty("ldc.readstate-deferred-cleanups", &before));

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; t++) {
    readers.emplace_back([&, t] {
      std::string value;
      for (int i = 0; i < 2000; i++) {
        const int id = (t * 997 + i * 7) % 500;
        if (!db_->Get(ReadOptions(), MakeKey(id), &value).ok()) std::abort();
      }
      for (int i = 0; i < 200; i++) {
        std::vector<std::string> ids;
        std::vector<Slice> keys;
        for (int j = 0; j < 8; j++) {
          ids.push_back(MakeKey((t * 131 + i * 11 + j) % 500));
        }
        for (const std::string& k : ids) keys.emplace_back(k);
        std::vector<std::string> values;
        for (const Status& s : db_->MultiGet(ReadOptions(), keys, &values)) {
          if (!s.ok()) std::abort();
        }
      }
    });
  }
  for (auto& th : readers) th.join();

  std::string after;
  ASSERT_TRUE(db_->GetProperty("ldc.readstate-deferred-cleanups", &after));
  EXPECT_EQ(before, after);
}

TEST_P(DBReadPathConcurrencyTest, MultiGetRespectsSnapshot) {
  for (int id = 0; id < 100; id++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), MakeKey(id), "old" + std::to_string(id))
            .ok());
  }
  const Snapshot* snap = db_->GetSnapshot();
  for (int id = 0; id < 100; id++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), MakeKey(id), "new" + std::to_string(id))
            .ok());
  }
  ASSERT_TRUE(db_->Delete(WriteOptions(), MakeKey(7)).ok());
  ASSERT_TRUE(db_->WaitForIdle().ok());

  std::vector<std::string> ids;
  std::vector<Slice> keys;
  for (int id = 0; id < 100; id++) ids.push_back(MakeKey(id));
  for (const std::string& k : ids) keys.emplace_back(k);

  ReadOptions snap_options;
  snap_options.snapshot = snap;
  std::vector<std::string> values;
  std::vector<Status> statuses = db_->MultiGet(snap_options, keys, &values);
  for (int id = 0; id < 100; id++) {
    ASSERT_TRUE(statuses[id].ok()) << id << ": " << statuses[id].ToString();
    EXPECT_EQ("old" + std::to_string(id), values[id]);
  }

  statuses = db_->MultiGet(ReadOptions(), keys, &values);
  for (int id = 0; id < 100; id++) {
    if (id == 7) {
      EXPECT_TRUE(statuses[id].IsNotFound());
    } else {
      ASSERT_TRUE(statuses[id].ok()) << id;
      EXPECT_EQ("new" + std::to_string(id), values[id]);
    }
  }
  db_->ReleaseSnapshot(snap);
}

INSTANTIATE_TEST_SUITE_P(Styles, DBReadPathConcurrencyTest,
                         testing::Values(CompactionStyle::kUdc,
                                         CompactionStyle::kLdc,
                                         CompactionStyle::kTiered),
                         StyleName);

}  // namespace

}  // namespace ldc
