// DB-level tests of the multi-channel device subsystem: WriteHint plumbing
// from real call sites through Env::NewWritableFile, the "ldc.channels"
// property, per-channel stream separation under the isolated policy,
// bit-for-bit determinism of multi-channel runs, and the simulated device's
// background job rule.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "json_checker.h"
#include "ldc/cache.h"
#include "ldc/db.h"
#include "ldc/env.h"
#include "ldc/filter_policy.h"
#include "ldc/sim.h"
#include "ldc/statistics.h"
#include "util/random.h"
#include "workload/key_generator.h"
#include "workload/workload.h"

namespace ldc {

namespace {

// Records the WriteHint every file was created with. Files created through
// the unhinted overload are recorded as kMisc (that is what the default
// forwarding resolves them to).
class HintRecordingEnv : public EnvWrapper {
 public:
  explicit HintRecordingEnv(Env* target) : EnvWrapper(target) {}

  Status NewWritableFile(const std::string& f, WritableFile** r) override {
    hints_[f] = WriteHint::kMisc;
    return EnvWrapper::NewWritableFile(f, r);
  }
  Status NewWritableFile(const std::string& f, WriteHint hint,
                         WritableFile** r) override {
    hints_[f] = hint;
    return EnvWrapper::NewWritableFile(f, hint, r);
  }

  const std::map<std::string, WriteHint>& hints() const { return hints_; }

 private:
  std::map<std::string, WriteHint> hints_;
};

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

struct ChannelRun {
  uint64_t now_us = 0;
  uint64_t total_read = 0;
  uint64_t total_written = 0;
  std::vector<uint64_t> ch_read, ch_written, ch_busy;
  std::string channels_json;
};

// A small LDC workload on a 4-channel isolated device; returns the full
// per-channel ledger so callers can assert separation and determinism.
ChannelRun RunChannelWorkload(PlacementPolicy placement, uint64_t seed) {
  std::unique_ptr<Env> env(NewMemEnv());
  SsdModel model;
  model.num_channels = 4;
  model.placement = placement;
  SimContext sim(model);
  Statistics stats;
  sim.SetStatistics(&stats);
  env->SetIoSim(&sim);
  std::unique_ptr<const FilterPolicy> filter(NewBloomFilterPolicy(10));
  // A tiny cache keeps reads hitting the simulated device.
  std::unique_ptr<Cache> cache(NewLRUCache(16 * 1024));

  Options options;
  options.env = env.get();
  options.create_if_missing = true;
  options.compaction_style = CompactionStyle::kLdc;
  options.write_buffer_size = 16 * 1024;
  options.max_file_size = 16 * 1024;
  options.level1_max_bytes = 64 * 1024;
  options.max_open_files = 50000;
  options.filter_policy = filter.get();
  options.block_cache = cache.get();
  options.statistics = &stats;
  options.sim = &sim;

  DB* raw = nullptr;
  EXPECT_TRUE(DB::Open(options, "/chandb", &raw).ok());
  std::unique_ptr<DB> db(raw);

  WorkloadSpec spec = MakeTableIIIWorkload("RWB", 4000, 4000);
  spec.value_size = 256;
  spec.seed = seed;
  WorkloadDriver driver(db.get(), &sim, &stats);
  EXPECT_TRUE(driver.Preload(spec).ok());
  WorkloadResult result = driver.Run(spec);
  EXPECT_TRUE(result.status.ok()) << result.status.ToString();

  ChannelRun out;
  out.now_us = sim.NowMicros();
  out.total_read = sim.TotalBytesRead();
  out.total_written = sim.TotalBytesWritten();
  for (int k = 0; k < sim.num_channels(); k++) {
    out.ch_read.push_back(sim.ChannelBytesRead(k));
    out.ch_written.push_back(sim.ChannelBytesWritten(k));
    out.ch_busy.push_back(sim.ChannelBusyMicros(k));
  }
  EXPECT_TRUE(db->GetProperty("ldc.channels", &out.channels_json));
  return out;
}

}  // namespace

TEST(WriteHintTest, RealCallSitesTagWalFlushAndCompaction) {
  std::unique_ptr<Env> mem(NewMemEnv());
  HintRecordingEnv env(mem.get());
  std::unique_ptr<const FilterPolicy> filter(NewBloomFilterPolicy(10));

  Options options;
  options.env = &env;
  options.create_if_missing = true;
  options.compaction_style = CompactionStyle::kUdc;
  options.write_buffer_size = 8 * 1024;
  options.max_file_size = 8 * 1024;
  options.level1_max_bytes = 16 * 1024;
  options.filter_policy = filter.get();

  DB* raw = nullptr;
  ASSERT_TRUE(DB::Open(options, "/hintdb", &raw).ok());
  std::unique_ptr<DB> db(raw);
  const std::string filler(512, 'h');
  for (int i = 0; i < 400; i++) {
    ASSERT_TRUE(
        db->Put(WriteOptions(), "key" + std::to_string(i % 97), filler).ok());
  }
  ASSERT_TRUE(db->WaitForIdle().ok());
  db.reset();

  int wal = 0, flush = 0, compaction = 0, misc = 0;
  for (const auto& kvp : env.hints()) {
    const std::string& name = kvp.first;
    switch (kvp.second) {
      case WriteHint::kWal:
        EXPECT_TRUE(EndsWith(name, ".log")) << name;
        wal++;
        break;
      case WriteHint::kFlush:
      case WriteHint::kCompaction:
        EXPECT_TRUE(EndsWith(name, ".ldb")) << name;
        (kvp.second == WriteHint::kFlush ? flush : compaction)++;
        break;
      case WriteHint::kMisc:
        // Manifest / CURRENT plumbing stays hint-free.
        EXPECT_FALSE(EndsWith(name, ".ldb")) << name;
        EXPECT_FALSE(EndsWith(name, ".log")) << name;
        misc++;
        break;
    }
  }
  EXPECT_GT(wal, 0);
  EXPECT_GT(flush, 0);
  EXPECT_GT(compaction, 0) << "workload too small to trigger a compaction";
  EXPECT_GT(misc, 0);
}

TEST(ChannelDbTest, IsolatedPolicySeparatesStreamsOnTheLedger) {
  ChannelRun run = RunChannelWorkload(PlacementPolicy::kIsolated, 42);
  ASSERT_EQ(4u, run.ch_read.size());
  // WAL (0) and flush (1) channels carry writes but serve no reads; the
  // read channel (3) serves reads but takes no writes; compaction (2) does
  // both (merge inputs + outputs).
  EXPECT_GT(run.ch_written[0], 0u);
  EXPECT_EQ(0u, run.ch_read[0]);
  EXPECT_GT(run.ch_written[1], 0u);
  EXPECT_EQ(0u, run.ch_read[1]);
  EXPECT_GT(run.ch_read[3], 0u);
  EXPECT_EQ(0u, run.ch_written[3]);
  // The ledger adds up to the device totals.
  uint64_t read_sum = 0, write_sum = 0;
  for (int k = 0; k < 4; k++) {
    read_sum += run.ch_read[k];
    write_sum += run.ch_written[k];
  }
  EXPECT_EQ(run.total_read, read_sum);
  EXPECT_EQ(run.total_written, write_sum);
}

TEST(ChannelDbTest, ChannelsPropertyIsValidJson) {
  ChannelRun run = RunChannelWorkload(PlacementPolicy::kIsolated, 42);
  testjson::JsonValue doc;
  ASSERT_TRUE(testjson::JsonParser::Parse(run.channels_json, &doc))
      << run.channels_json;
  EXPECT_EQ(4, doc["channels"].number);
  EXPECT_EQ("isolated", doc["placement"].string_value);
  const testjson::JsonValue& per_channel = doc["per_channel"];
  ASSERT_EQ(testjson::JsonValue::kArray, per_channel.type);
  ASSERT_EQ(4u, per_channel.array.size());
  for (int k = 0; k < 4; k++) {
    const testjson::JsonValue& ch = per_channel.array[k];
    EXPECT_EQ(k, ch["channel"].number);
    EXPECT_EQ(static_cast<double>(run.ch_read[k]), ch["read_bytes"].number);
    EXPECT_EQ(static_cast<double>(run.ch_written[k]),
              ch["write_bytes"].number);
  }
}

TEST(ChannelDbTest, MultiChannelRunsAreDeterministic) {
  for (PlacementPolicy p :
       {PlacementPolicy::kStriped, PlacementPolicy::kIsolated}) {
    ChannelRun a = RunChannelWorkload(p, 42);
    ChannelRun b = RunChannelWorkload(p, 42);
    EXPECT_EQ(a.now_us, b.now_us);
    EXPECT_EQ(a.total_read, b.total_read);
    EXPECT_EQ(a.total_written, b.total_written);
    EXPECT_EQ(a.ch_read, b.ch_read);
    EXPECT_EQ(a.ch_written, b.ch_written);
    EXPECT_EQ(a.ch_busy, b.ch_busy);
    EXPECT_EQ(a.channels_json, b.channels_json);
  }
}

TEST(ChannelDbTest, DifferentSeedsDiverge) {
  // Sanity check that the determinism test is not vacuous: a different
  // workload seed must actually move the ledger.
  ChannelRun a = RunChannelWorkload(PlacementPolicy::kIsolated, 42);
  ChannelRun b = RunChannelWorkload(PlacementPolicy::kIsolated, 43);
  EXPECT_NE(a.now_us, b.now_us);
}

namespace {

// What the device held over a run, sampled after every Put.
struct JobRuleRun {
  int max_jobs = 0;        // On the whole device.
  int max_flushes = 0;     // On the flush channel (isolated placement).
  int max_compactions = 0; // On the compaction channel (isolated).
  int samples_with_both = 0;
  uint64_t now_us = 0;
  std::vector<uint64_t> ch_read, ch_written, ch_busy;
};

// 20,000 random Puts on the simulator, sampling the per-channel job counts.
JobRuleRun RunJobRuleWorkload(CompactionStyle style, int num_channels,
                              PlacementPolicy placement, int max_jobs) {
  std::unique_ptr<Env> env(NewMemEnv());
  SsdModel model;
  model.num_channels = num_channels;
  model.placement = placement;
  SimContext sim(model);

  Options options;
  options.env = env.get();
  options.create_if_missing = true;
  options.compaction_style = style;
  options.write_buffer_size = 16 * 1024;
  options.max_file_size = 16 * 1024;
  options.max_background_jobs = max_jobs;
  options.sim = &sim;
  DB* raw = nullptr;
  EXPECT_TRUE(DB::Open(options, "/jobdb", &raw).ok());
  std::unique_ptr<DB> db(raw);

  JobRuleRun out;
  Random rng(301);
  std::string value;
  for (int i = 0; i < 20000; i++) {
    const uint64_t id = rng.Uniform(5000);
    MakeValue(id, i, 200, &value);
    EXPECT_TRUE(db->Put(WriteOptions(), MakeKey(id), value).ok());
    int jobs = 0;
    for (int k = 0; k < num_channels; k++) jobs += sim.ChannelQueuedJobs(k);
    out.max_jobs = std::max(out.max_jobs, jobs);
    if (num_channels == 4) {
      const int flushes = sim.ChannelQueuedJobs(1);
      const int compactions = sim.ChannelQueuedJobs(2);
      out.max_flushes = std::max(out.max_flushes, flushes);
      out.max_compactions = std::max(out.max_compactions, compactions);
      if (flushes > 0 && compactions > 0) out.samples_with_both++;
    }
  }
  out.now_us = sim.NowMicros();
  for (int k = 0; k < num_channels; k++) {
    out.ch_read.push_back(sim.ChannelBytesRead(k));
    out.ch_written.push_back(sim.ChannelBytesWritten(k));
    out.ch_busy.push_back(sim.ChannelBusyMicros(k));
  }
  return out;
}

}  // namespace

// The simulated device's job rule, which every simulated figure was produced
// under: one background job at a time, or one flush plus one compaction job
// when the placement puts the two streams on distinct channels.
// max_background_jobs does not apply under the simulator.
TEST(ChannelDbTest, SimulatedDeviceKeepsItsJobRule) {
  struct Device {
    int channels;
    PlacementPolicy placement;
  };
  for (CompactionStyle style :
       {CompactionStyle::kUdc, CompactionStyle::kLdc,
        CompactionStyle::kTiered}) {
    for (Device d : {Device{1, PlacementPolicy::kNone},
                     Device{4, PlacementPolicy::kIsolated}}) {
      SCOPED_TRACE("style=" + std::to_string(static_cast<int>(style)) +
                   " channels=" + std::to_string(d.channels));
      const JobRuleRun one =
          RunJobRuleWorkload(style, d.channels, d.placement, 1);
      if (d.channels == 1) {
        EXPECT_EQ(1, one.max_jobs);
      } else {
        EXPECT_EQ(2, one.max_jobs);
        EXPECT_EQ(1, one.max_flushes);
        EXPECT_EQ(1, one.max_compactions);
        EXPECT_GT(one.samples_with_both, 0);
      }
      const JobRuleRun four =
          RunJobRuleWorkload(style, d.channels, d.placement, 4);
      EXPECT_EQ(one.max_jobs, four.max_jobs);
      EXPECT_EQ(one.now_us, four.now_us);
      EXPECT_EQ(one.ch_read, four.ch_read);
      EXPECT_EQ(one.ch_written, four.ch_written);
      EXPECT_EQ(one.ch_busy, four.ch_busy);
    }
  }
}

}  // namespace ldc
