// The benchmark's own tests: the simulated metrics anchor to the paper
// harness, repeat exactly for one seed (with tracing on, too), and the
// answer checks catch wrong answers.
//
//   cmake --build .bench_build --target perfbench_test
//   .bench_build/perfbench_test

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "ldc/db.h"
#include "ldc/env.h"
#include "ldc/filter_policy.h"
#include "ldc/statistics.h"
#include "reference_kernel.h"
#include "round.h"
#include "timed_db.h"
#include "workload/key_generator.h"
#include "workloads.h"

namespace ldc {
namespace perfbench {
namespace {

// Small enough for a unit test, large enough for flushes, LDC links and
// merges, and UDC compactions.
BenchShape TestShape() {
  BenchShape shape;
  shape.key_space = 20000;
  return shape;
}

RoundConfig TestConfig(const BenchWorkload& workload, uint64_t seed) {
  RoundConfig config;
  config.workload = &workload;
  config.shape = TestShape();
  config.seed = seed;
  config.num_ops = 8000;
  return config;
}

// The paper harness's way: WorkloadDriver straight on the DB, no decorator.
WorkloadResult PlainDriverRun(const BenchWorkload& workload, uint64_t seed,
                              uint64_t num_ops) {
  const BenchShape shape = TestShape();
  std::unique_ptr<Env> env(NewMemEnv());
  SimContext sim{SsdModel()};
  Statistics stats;
  std::unique_ptr<const FilterPolicy> bloom(
      NewBloomFilterPolicy(shape.bloom_bits_per_key));
  Options options = MakeOptions(workload, shape);
  options.env = env.get();
  options.sim = &sim;
  options.statistics = &stats;
  options.filter_policy = bloom.get();
  DB* raw = nullptr;
  EXPECT_TRUE(DB::Open(options, "/plain", &raw).ok());
  std::unique_ptr<DB> db(raw);
  WorkloadDriver driver(db.get(), &sim, &stats);
  const WorkloadSpec spec = MakeSpec(workload, shape, seed, num_ops);
  EXPECT_TRUE(driver.Preload(spec).ok());
  return driver.Run(spec);
}

// Every count the traced run collects (span counts, per-owner counters
// other than times, listener counts), in a fixed order.
std::vector<uint64_t> Counts(const RoundResult& r) {
  const LayerCounts& l = r.layers;
  std::vector<uint64_t> v;
  for (const SpanTotals& s : l.spans) v.push_back(s.count);
  for (const OwnerCounters& o : l.owners) {
    v.insert(v.end(),
             {o.cmp_calls, o.bloom_probes, o.bloom_negatives, o.block_lookups,
              o.block_hits, o.block_inserts, o.table_lookups, o.table_misses,
              o.table_reads, o.table_bytes_written, o.wal_bytes,
              o.filter_create_keys, o.get_children});
  }
  const JobCounters& j = l.jobs;
  v.insert(v.end(), {j.flushes, j.flush_bytes_written, j.merges,
                     j.merge_bytes_read, j.links, j.link_slices, j.ldc_merges,
                     j.ldc_merge_slices, j.stalls, j.stall_sim_us});
  v.insert(v.end(), {r.record.get_slices_checked, r.record.get_memtable_hits,
                     r.trivial_moves, r.frozen_bytes_end});
  for (uint64_t b : r.busy_us) v.push_back(b);
  return v;
}

class PerWorkload : public testing::TestWithParam<const char*> {
 protected:
  const BenchWorkload& workload() const { return *FindWorkload(GetParam()); }
};

TEST_P(PerWorkload, SimThroughputEqualsWorkloadDriver) {
  RoundConfig config = TestConfig(workload(), 3);
  config.sweep = true;
  const RoundResult round = RunRound(config);
  ASSERT_TRUE(round.status.ok()) << round.status.ToString();
  const WorkloadResult plain = PlainDriverRun(workload(), 3, config.num_ops);
  ASSERT_TRUE(plain.status.ok()) << plain.status.ToString();
  EXPECT_EQ(round.exact.ops, plain.ops);
  EXPECT_EQ(round.exact.sim_ops_per_s, plain.throughput_ops_per_sec);
  EXPECT_EQ(round.exact.failed, 0u);
  EXPECT_GT(round.sweep.checked, config.shape.key_space);
  EXPECT_EQ(round.sweep.mismatches, 0u);
}

TEST_P(PerWorkload, OneSeedRepeatsExactlyAndAnotherDiffers) {
  RoundConfig config = TestConfig(workload(), 5);
  config.traced = true;
  const RoundResult a = RunRound(config);
  const RoundResult b = RunRound(config);
  config.seed = 6;
  const RoundResult c = RunRound(config);
  ASSERT_TRUE(a.status.ok() && b.status.ok() && c.status.ok());
  EXPECT_TRUE(a.exact == b.exact);
  EXPECT_EQ(Counts(a), Counts(b));
  EXPECT_FALSE(a.exact == c.exact);
  EXPECT_NE(Counts(a), Counts(c));
}

TEST_P(PerWorkload, TracingLeavesExactMetricsUnchanged) {
  RoundConfig config = TestConfig(workload(), 9);
  const RoundResult untraced = RunRound(config);
  config.traced = true;
  const RoundResult traced = RunRound(config);
  ASSERT_TRUE(untraced.status.ok() && traced.status.ok());
  EXPECT_TRUE(untraced.exact == traced.exact);
  EXPECT_EQ(untraced.record.puts, traced.record.puts);
  EXPECT_EQ(untraced.trivial_moves, traced.trivial_moves);
}

TEST_P(PerWorkload, SelfTimeNeverExceedsSpanAndTenthsAddUp) {
  RoundConfig config = TestConfig(workload(), 4);
  config.traced = true;
  const RoundResult r = RunRound(config);
  ASSERT_TRUE(r.status.ok());
  for (int s = 0; s < kSpanCount; s++) {
    EXPECT_LE(r.layers.spans[s].self_ns, r.layers.spans[s].total_ns)
        << SpanName(static_cast<Span>(s));
  }
  EXPECT_GT(r.layers.span(Span::kJobFlush).count, 0u);
  ASSERT_EQ(r.tenth_layers.size(), 10u);
  ASSERT_EQ(r.tenth_us_per_op.size(), 10u);
  for (int s = 0; s < kSpanCount; s++) {
    uint64_t sum = 0;
    for (const LayerCounts& t : r.tenth_layers) sum += t.spans[s].count;
    EXPECT_EQ(sum, r.layers.spans[s].count) << SpanName(static_cast<Span>(s));
  }
}

TEST_P(PerWorkload, CalibratedFiguresComeFromEverySegment) {
  const RoundResult r = RunRound(TestConfig(workload(), 2));
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.segment_engine_ns.size(), static_cast<size_t>(kSegments));
  ASSERT_EQ(r.segment_reference_ns.size(), static_cast<size_t>(kSegments));
  for (double ns : r.segment_reference_ns) EXPECT_GT(ns, 0);
  EXPECT_GT(r.reference_ms, 0);
  EXPECT_GT(r.calibrated_setup_s, 0);
  EXPECT_GT(r.calibrated_engine_s, 0);
  EXPECT_DOUBLE_EQ(r.calibrated_ops_per_s * r.calibrated_engine_s,
                   static_cast<double>(r.exact.ops));
  EXPECT_GT(r.calibrated_put_p50_us, 0);
  EXPECT_GT(r.calibrated_read_p50_us, 0);
  EXPECT_GE(r.harness_us_per_op, 0);
}

INSTANTIATE_TEST_SUITE_P(Workloads, PerWorkload,
                         testing::Values("wh_uniform_ldc", "wh_uniform_udc",
                                         "rh_zipf_ldc", "scan_rwb_ldc"));

// A round whose segment k took base * (k + 1) engine ns while the reference
// kernel took `reference_ns` beside it.
RoundResult SyntheticRound(double base, double reference_ns) {
  RoundResult r;
  for (int k = 0; k < kSegments; k++) {
    r.segment_engine_ns.push_back(static_cast<uint64_t>(base * (k + 1)));
    r.segment_reference_ns.push_back(reference_ns);
  }
  return r;
}

TEST(CalibrationTest, MachineSpeedDividesOut) {
  // 1000 * (1 + ... + 50) ns at the nominal kernel time.
  const RoundResult nominal = SyntheticRound(1000, kReferenceNs);
  EXPECT_DOUBLE_EQ(CalibratedEngineSeconds({nominal}), 1275000 / 1e9);
  // A machine 40% slower slows engine and kernel alike.
  const RoundResult slow = SyntheticRound(1400, 1.4 * kReferenceNs);
  EXPECT_NEAR(CalibratedEngineSeconds({slow}), 1275000 / 1e9, 1e-12);
  // Twice the engine work at the same machine speed reads twice as long.
  const RoundResult twice = SyntheticRound(2800, 1.4 * kReferenceNs);
  EXPECT_NEAR(CalibratedEngineSeconds({twice}), 2 * 1275000 / 1e9, 1e-12);
  // Per segment, the median over rounds wins: one round with a burst of
  // engine-only noise does not move the figure.
  RoundResult burst = nominal;
  burst.segment_engine_ns[7] *= 50;
  EXPECT_NEAR(CalibratedEngineSeconds({nominal, burst, slow}), 1275000 / 1e9,
              1e-12);
}

TEST(CalibrationTest, ReferenceKernelRuns) {
  ReferenceKernel kernel;
  EXPECT_GT(kernel.Run(), 0u);
  EXPECT_GT(kernel.Run(), 0u);
}

TEST(ShadowTest, ChecksValuesAndAbsence) {
  Shadow shadow(10);
  EXPECT_TRUE(shadow.Put(MakeKey(3), "abc"));
  EXPECT_FALSE(shadow.Put(MakeKey(10), "out of range"));
  EXPECT_FALSE(shadow.Put("not-a-key", "x"));
  EXPECT_TRUE(shadow.CheckGet(MakeKey(3), Status::OK(), "abc"));
  EXPECT_FALSE(shadow.CheckGet(MakeKey(3), Status::OK(), "abd"));
  EXPECT_FALSE(shadow.CheckGet(MakeKey(3), Status::NotFound(""), ""));
  EXPECT_TRUE(shadow.CheckGet(MakeKey(4), Status::NotFound(""), ""));
  EXPECT_FALSE(shadow.CheckGet(MakeKey(4), Status::OK(), ""));
  EXPECT_FALSE(shadow.CheckGet(MakeKey(3), Status::IOError(""), "abc"));
  EXPECT_EQ(shadow.NextPresent(0), 3u);
  EXPECT_EQ(shadow.NextPresent(4), 10u);
  EXPECT_EQ(shadow.live_bytes(), 16u + 3u);
  EXPECT_TRUE(shadow.Put(MakeKey(3), "abcdef"));
  EXPECT_EQ(shadow.live_bytes(), 16u + 6u);
}

// A small in-memory DB (no simulator) whose contents the test controls.
class CheckerTest : public testing::Test {
 protected:
  CheckerTest() : env_(NewMemEnv()) {
    Options options;
    options.create_if_missing = true;
    options.env = env_.get();
    DB* raw = nullptr;
    EXPECT_TRUE(DB::Open(options, "/checker", &raw).ok());
    db_.reset(raw);
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<DB> db_;
  SimContext sim_{SsdModel()};
  Shadow shadow_{100};
};

TEST_F(CheckerTest, TimedDbCountsWrongGetsAndScans) {
  TimedDb timed(db_.get(), &sim_, &shadow_, nullptr);
  timed.StartPhase(10, 10, nullptr);
  const WriteOptions wo;
  const ReadOptions ro;
  ASSERT_TRUE(timed.Put(wo, MakeKey(1), "one").ok());
  ASSERT_TRUE(timed.Put(wo, MakeKey(2), "two").ok());
  std::string value;
  EXPECT_TRUE(timed.Get(ro, MakeKey(1), &value).ok());
  EXPECT_EQ(timed.record().failed, 0u);

  // Writes that bypass the decorator make the DB disagree with the shadow:
  // a changed value, and a key the shadow never saw.
  ASSERT_TRUE(db_->Put(wo, MakeKey(1), "uno").ok());
  ASSERT_TRUE(db_->Put(wo, MakeKey(5), "five").ok());
  EXPECT_TRUE(timed.Get(ro, MakeKey(1), &value).ok());
  EXPECT_EQ(timed.record().failed, 1u);
  EXPECT_TRUE(timed.Get(ro, MakeKey(5), &value).ok());
  EXPECT_EQ(timed.record().failed, 2u);

  // A scan from key 2 reads 2 (right), then 5 (resurrected): one wrong op.
  {
    std::unique_ptr<Iterator> it(timed.NewIterator(ro));
    it->Seek(MakeKey(2));
    ASSERT_TRUE(it->Valid());
    it->Next();
  }
  EXPECT_EQ(timed.record().failed, 3u);
  EXPECT_EQ(timed.record().scans, 1u);
  EXPECT_EQ(timed.record().ops, 6u);
  EXPECT_EQ(timed.record().puts, 2u);
  EXPECT_EQ(timed.record().gets, 3u);
}

TEST_F(CheckerTest, SweepFindsEveryDisagreement) {
  const WriteOptions wo;
  for (uint64_t id : {1, 4, 7}) {
    ASSERT_TRUE(db_->Put(wo, MakeKey(id), "v").ok());
    shadow_.Put(MakeKey(id), "v");
  }
  SweepResult clean = Sweep(db_.get(), shadow_);
  EXPECT_EQ(clean.mismatches, 0u);
  EXPECT_EQ(clean.checked, 3u + 100u);

  shadow_.Put(MakeKey(9), "missing from the DB");  // scan skip + Get miss
  ASSERT_TRUE(db_->Put(wo, MakeKey(2), "extra").ok());  // scan + Get extra
  ASSERT_TRUE(db_->Put(wo, MakeKey(4), "changed").ok());  // scan + Get value
  const SweepResult dirty = Sweep(db_.get(), shadow_);
  EXPECT_EQ(dirty.mismatches, 6u);
}

}  // namespace
}  // namespace perfbench
}  // namespace ldc
