// Tests of the EventListener callbacks: flushes, UDC compactions and
// tiered merges fire Begin/Completed pairs in order with real byte counts
// and durations, LDC links/merges/reclaims report their metadata, every
// merge reports the same numbers to listeners, tickers and ldc.stats-json,
// write stalls are observed under level-0 pressure, and the info log ends
// up in the DB directory.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "db/db_impl.h"
#include "db/filename.h"
#include "db/version_set.h"
#include "gtest/gtest.h"
#include "json_checker.h"
#include "ldc/db.h"
#include "ldc/env.h"
#include "ldc/listener.h"
#include "ldc/sim.h"
#include "ldc/statistics.h"
#include "util/random.h"
#include "workload/key_generator.h"

namespace ldc {

namespace {

// Records every callback: counters, copies of the info structs, and an
// event-name sequence for ordering assertions.
class CollectingListener : public EventListener {
 public:
  void OnFlushBegin(const FlushJobInfo& info) override {
    sequence.push_back("flush-begin");
    flush_begin++;
    EXPECT_EQ(0u, info.duration_micros);
  }
  void OnFlushCompleted(const FlushJobInfo& info) override {
    sequence.push_back("flush-completed");
    flushes.push_back(info);
    // A Completed event requires a preceding Begin.
    EXPECT_GT(flush_begin, flushes.size() - 1);
  }
  void OnCompactionBegin(const CompactionJobInfo& info) override {
    sequence.push_back("compaction-begin");
    compaction_begin++;
    EXPECT_EQ(0, info.num_output_files);
    EXPECT_GT(info.num_input_files, 0);
  }
  void OnCompactionCompleted(const CompactionJobInfo& info) override {
    sequence.push_back("compaction-completed");
    compactions.push_back(info);
    EXPECT_GT(compaction_begin, compactions.size() - 1);
  }
  void OnLdcLink(const LdcLinkInfo& info) override {
    sequence.push_back("ldc-link");
    links.push_back(info);
  }
  void OnLdcMerge(const LdcMergeInfo& info) override {
    sequence.push_back("ldc-merge");
    merges.push_back(info);
  }
  void OnFrozenFileReclaimed(const FrozenFileReclaimedInfo& info) override {
    sequence.push_back("frozen-reclaimed");
    reclaims.push_back(info);
    if (on_reclaim) on_reclaim(info);
  }
  void OnWriteStall(const WriteStallInfo& info) override {
    sequence.push_back("write-stall");
    stalls.push_back(info);
  }

  size_t flush_begin = 0;
  size_t compaction_begin = 0;
  std::vector<FlushJobInfo> flushes;
  std::vector<CompactionJobInfo> compactions;
  std::vector<LdcLinkInfo> links;
  std::vector<LdcMergeInfo> merges;
  std::vector<FrozenFileReclaimedInfo> reclaims;
  std::vector<WriteStallInfo> stalls;
  std::vector<std::string> sequence;
  std::function<void(const FrozenFileReclaimedInfo&)> on_reclaim;
};

}  // namespace

class ListenerTest : public testing::Test {
 protected:
  ListenerTest() : env_(NewMemEnv()) {
    options_.env = env_.get();
    options_.create_if_missing = true;
    options_.write_buffer_size = 16 * 1024;
    options_.max_file_size = 16 * 1024;
    options_.level1_max_bytes = 64 * 1024;
    options_.fan_out = 4;
    options_.statistics = &stats_;
    options_.listeners.push_back(&listener_);
  }

  void Open() {
    DB* raw = nullptr;
    ASSERT_TRUE(DB::Open(options_, "/db", &raw).ok());
    db_.reset(raw);
  }

  // Checks that the completed flushes and merges the listener saw add up
  // to what the tickers and ldc.stats-json report (its flush section and
  // the per-level sums): one emission point feeds every sink. `job_ticker`
  // counts the style's installed merge jobs.
  void ExpectSinksAgree(Ticker job_ticker) {
    uint64_t listener_flush_bytes = 0;
    for (const FlushJobInfo& f : listener_.flushes) {
      listener_flush_bytes += f.bytes_written;
    }
    EXPECT_EQ(stats_.Get(kFlushes), listener_.flushes.size());
    EXPECT_EQ(stats_.Get(kFlushWriteBytes), listener_flush_bytes);

    uint64_t listener_bytes = 0;
    for (const CompactionJobInfo& c : listener_.compactions) {
      listener_bytes += c.bytes_written;
    }
    EXPECT_EQ(stats_.Get(job_ticker), listener_.compactions.size());
    EXPECT_EQ(stats_.Get(kCompactionWriteBytes), listener_bytes);

    std::string json;
    ASSERT_TRUE(db_->GetProperty("ldc.stats-json", &json));
    testjson::JsonValue doc;
    ASSERT_TRUE(testjson::JsonParser::Parse(json, &doc)) << json;
    const testjson::JsonValue& flush = doc["flush"];
    EXPECT_EQ(listener_.flushes.size(),
              static_cast<uint64_t>(flush["count"].number));
    EXPECT_EQ(listener_flush_bytes,
              static_cast<uint64_t>(flush["bytes"].number));
    const testjson::JsonValue& levels = doc["levels"];
    ASSERT_FALSE(levels.array.empty());
    uint64_t level_bytes = 0;
    uint64_t level_jobs = 0;
    for (const testjson::JsonValue& level : levels.array) {
      level_bytes += static_cast<uint64_t>(level["bytes_written"].number);
      level_jobs += static_cast<uint64_t>(level["compactions"].number);
    }
    EXPECT_EQ(listener_bytes, level_bytes);
    EXPECT_EQ(listener_.compactions.size(), level_jobs);
  }

  void FillRandom(int n, int key_space) {
    Random rng(301);
    std::string value;
    for (int i = 0; i < n; i++) {
      const uint64_t id = rng.Uniform(key_space);
      MakeValue(id, i, 100, &value);
      ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(id), value).ok());
    }
  }

  std::unique_ptr<Env> env_;
  Options options_;
  Statistics stats_;
  CollectingListener listener_;
  std::unique_ptr<DB> db_;
};

TEST_F(ListenerTest, FlushAndUdcCompactionEvents) {
  options_.compaction_style = CompactionStyle::kUdc;
  Open();
  FillRandom(6000, 800);
  ASSERT_TRUE(db_->WaitForIdle().ok());

  // Flushes: every Completed pairs with a Begin and reports a real table.
  ASSERT_GT(listener_.flushes.size(), 0u);
  EXPECT_EQ(listener_.flush_begin, listener_.flushes.size());
  uint64_t flush_bytes = 0;
  for (const FlushJobInfo& f : listener_.flushes) {
    EXPECT_EQ("/db", f.db_name);
    EXPECT_GT(f.file_number, 0u);
    EXPECT_GT(f.bytes_written, 0u);
    EXPECT_GT(f.duration_micros, 0u);
    EXPECT_GE(f.output_level, 0);
    flush_bytes += f.bytes_written;
  }
  EXPECT_EQ(stats_.Get(kFlushWriteBytes), flush_bytes);

  // Compactions: UDC style, downward level step, real bytes and duration.
  ASSERT_GT(listener_.compactions.size(), 0u);
  EXPECT_EQ(listener_.compaction_begin, listener_.compactions.size());
  for (const CompactionJobInfo& c : listener_.compactions) {
    EXPECT_EQ(CompactionStyle::kUdc, c.style);
    EXPECT_EQ(c.input_level + 1, c.output_level);
    EXPECT_GT(c.num_input_files, 0);
    EXPECT_GT(c.num_output_files, 0);
    EXPECT_GT(c.bytes_read, 0u);
    EXPECT_GT(c.bytes_written, 0u);
    EXPECT_GT(c.duration_micros, 0u);
  }
  ExpectSinksAgree(kCompactions);

  // No LDC activity in UDC mode.
  EXPECT_TRUE(listener_.links.empty());
  EXPECT_TRUE(listener_.merges.empty());
}

TEST_F(ListenerTest, TieredMergeEvents) {
  options_.compaction_style = CompactionStyle::kTiered;
  Open();
  FillRandom(6000, 800);
  ASSERT_TRUE(db_->WaitForIdle().ok());

  // Merges: level 0 into level 0, one uncut output (none if everything in
  // the group was obsolete), every Completed paired with a Begin.
  ASSERT_GT(listener_.compactions.size(), 0u);
  EXPECT_EQ(listener_.compaction_begin, listener_.compactions.size());
  for (const CompactionJobInfo& c : listener_.compactions) {
    EXPECT_EQ("/db", c.db_name);
    EXPECT_EQ(CompactionStyle::kTiered, c.style);
    EXPECT_EQ(0, c.input_level);
    EXPECT_EQ(0, c.output_level);
    EXPECT_GE(c.num_input_files, options_.fan_out);
    EXPECT_LE(c.num_output_files, 1);
    EXPECT_GT(c.bytes_read, 0u);
    EXPECT_GT(c.duration_micros, 0u);
  }
  ExpectSinksAgree(kCompactions);

  // Tiered neither links nor merges LDC-style.
  EXPECT_TRUE(listener_.links.empty());
  EXPECT_TRUE(listener_.merges.empty());
}

TEST_F(ListenerTest, LdcLinkAndMergeEvents) {
  options_.compaction_style = CompactionStyle::kLdc;
  Open();
  FillRandom(8000, 800);
  ASSERT_TRUE(db_->WaitForIdle().ok());

  ASSERT_GT(listener_.flushes.size(), 0u);

  // Links: metadata-only freezes; non-trivial ones attach slices.
  ASSERT_GT(listener_.links.size(), 0u);
  size_t slices = 0;
  for (const LdcLinkInfo& l : listener_.links) {
    EXPECT_GT(l.upper_file_number, 0u);
    EXPECT_GT(l.upper_file_bytes, 0u);
    EXPECT_GE(l.upper_level, 0);
    if (!l.trivial_move) {
      EXPECT_GT(l.num_slices, 0);
    }
    slices += l.num_slices;
  }
  EXPECT_EQ(stats_.Get(kLdcSlicesCreated), slices);

  // Merges: one lower file plus its slices, rewritten with real I/O.
  ASSERT_GT(listener_.merges.size(), 0u);
  for (const LdcMergeInfo& m : listener_.merges) {
    EXPECT_GT(m.lower_file_number, 0u);
    EXPECT_GT(m.num_slices, 0);
    EXPECT_GT(m.num_output_files, 0);
    EXPECT_GT(m.bytes_read, 0u);
    EXPECT_GT(m.bytes_written, 0u);
    EXPECT_GT(m.duration_micros, 0u);
  }
  EXPECT_EQ(stats_.Get(kLdcMerges), listener_.merges.size());

  // Each merge also fires the generic compaction pair with LDC style.
  ASSERT_GE(listener_.compactions.size(), listener_.merges.size());
  size_t ldc_compactions = 0;
  for (const CompactionJobInfo& c : listener_.compactions) {
    if (c.style == CompactionStyle::kLdc) {
      ldc_compactions++;
      EXPECT_EQ(c.input_level, c.output_level);
    }
  }
  EXPECT_EQ(listener_.merges.size(), ldc_compactions);
  ExpectSinksAgree(kLdcMerges);

  // Reclaims fired for the frozen files whose last slice was consumed.
  EXPECT_EQ(stats_.Get(kLdcFrozenFilesReclaimed), listener_.reclaims.size());
  for (const FrozenFileReclaimedInfo& r : listener_.reclaims) {
    EXPECT_GT(r.file_number, 0u);
    EXPECT_GT(r.file_size, 0u);
  }
}

// A merge that consumes a frozen file's last link reports the reclaim after
// its install, right after its own Completed and OnLdcMerge events, stamped
// with its completion time. The file is gone from the current version when
// the event fires, and from disk once the DB is idle.
TEST_F(ListenerTest, ReclaimEventsFollowTheirMerge) {
  options_.compaction_style = CompactionStyle::kLdc;
  Open();
  // MemEnv runs jobs inline: every callback runs here, inside a Put.
  VersionSet* versions = static_cast<DBImpl*>(db_.get())->TEST_versions();
  listener_.on_reclaim = [versions](const FrozenFileReclaimedInfo& info) {
    EXPECT_EQ(nullptr, versions->current()->links().Frozen(info.file_number))
        << info.file_number;
  };
  FillRandom(8000, 800);
  ASSERT_TRUE(db_->WaitForIdle().ok());
  ASSERT_GT(listener_.reclaims.size(), 0u);

  size_t merges = 0;
  size_t reclaims = 0;
  int owed = 0;  // reclaims the last merge reported and has not fired yet
  for (size_t i = 0; i < listener_.sequence.size(); i++) {
    const std::string& event = listener_.sequence[i];
    if (event == "frozen-reclaimed") {
      ASSERT_GT(owed, 0) << "event " << i;
      owed--;
      EXPECT_EQ(listener_.merges[merges - 1].micros,
                listener_.reclaims[reclaims++].micros);
      continue;
    }
    EXPECT_EQ(0, owed) << "event " << i << ": " << event;
    if (event == "ldc-merge") {
      ASSERT_EQ("compaction-completed", listener_.sequence[i - 1]);
      owed = listener_.merges[merges++].frozen_files_reclaimed;
    }
  }
  EXPECT_EQ(0, owed);
  EXPECT_EQ(listener_.reclaims.size(), reclaims);
  for (const FrozenFileReclaimedInfo& r : listener_.reclaims) {
    EXPECT_EQ(nullptr, versions->current()->links().Frozen(r.file_number));
    EXPECT_FALSE(env_->FileExists(TableFileName("/db", r.file_number)))
        << r.file_number;
  }
}

// Recovery replays the manifest's reclaim records without calling a
// listener: only a merge's install reports a reclaim.
TEST_F(ListenerTest, ReopenFiresNoReclaimEvents) {
  options_.compaction_style = CompactionStyle::kLdc;
  Open();
  FillRandom(8000, 800);
  // Leave no WAL data and no pending merge, so the reopen runs no job.
  ASSERT_TRUE(static_cast<DBImpl*>(db_.get())->TEST_CompactMemTable().ok());
  ASSERT_TRUE(db_->WaitForIdle().ok());
  ASSERT_GT(listener_.reclaims.size(), 0u);

  db_.reset();
  listener_.reclaims.clear();
  Open();
  ASSERT_TRUE(db_->WaitForIdle().ok());
  EXPECT_EQ(0u, listener_.reclaims.size());
}

TEST_F(ListenerTest, WriteStallEventsUnderL0Pressure) {
  // Only the simulator defers background work; without it flushes and
  // compactions run synchronously and level 0 can never fall behind.
  SsdModel ssd;
  SimContext sim(ssd);
  options_.sim = &sim;
  options_.compaction_style = CompactionStyle::kUdc;
  Open();
  FillRandom(8000, 800);
  ASSERT_TRUE(db_->WaitForIdle().ok());

  ASSERT_GT(listener_.stalls.size(), 0u);
  for (const WriteStallInfo& s : listener_.stalls) {
    EXPECT_EQ("/db", s.db_name);
    EXPECT_GT(s.duration_micros, 0u);
    const char* name = WriteStallCauseName(s.cause);
    EXPECT_TRUE(name != nullptr && name[0] != '\0');
  }

  // The sim is a local and must outlive the DB (the destructor drains it).
  db_.reset();
}

TEST_F(ListenerTest, InfoLogIsWrittenToDbDirectory) {
  options_.compaction_style = CompactionStyle::kLdc;
  Open();
  FillRandom(6000, 800);
  ASSERT_TRUE(db_->WaitForIdle().ok());
  db_.reset();

  ASSERT_TRUE(env_->FileExists("/db/LOG"));
  // The log must record the lifecycle the listener saw.
  SequentialFile* file = nullptr;
  ASSERT_TRUE(env_->NewSequentialFile("/db/LOG", &file).ok());
  std::string contents;
  char scratch[4096];
  Slice chunk;
  while (file->Read(sizeof(scratch), &chunk, scratch).ok() &&
         !chunk.empty()) {
    contents.append(chunk.data(), chunk.size());
  }
  delete file;

  EXPECT_NE(contents.find("flush finished"), std::string::npos);
  EXPECT_NE(contents.find("ldc link"), std::string::npos);
  EXPECT_NE(contents.find("ldc merge"), std::string::npos);

  // Reopening rotates LOG to LOG.old and starts a fresh one.
  Open();
  EXPECT_TRUE(env_->FileExists("/db/LOG.old"));
  EXPECT_TRUE(env_->FileExists("/db/LOG"));
}

}  // namespace ldc
