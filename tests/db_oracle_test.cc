// Every read API must agree with a shadow map: Get, MultiGet, forward and
// reverse scans, and Seek followed by Next/Prev (tests/db_oracle.h). The
// oracle runs for every compaction style, inline and on the simulator,
// before and after a reopen.
//
// A second suite pins down one LDC scan bug. A frozen file lives until its
// last slice is merged. Once a bottom-level merge has consumed one of its
// slices and dropped a tombstone there, the frozen file's older Put of that
// key must stay hidden from scans, exactly as it is from Get.

#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "db_oracle.h"
#include "gtest/gtest.h"
#include "ldc/db.h"
#include "ldc/env.h"
#include "ldc/filter_policy.h"
#include "ldc/sim.h"
#include "util/random.h"
#include "workload/key_generator.h"

namespace ldc {

namespace {

// Owns an in-memory DB (optionally on the simulator) with small buffers, so
// a few thousand writes build a multi-level tree with links and merges.
class OracleDB {
 public:
  OracleDB(CompactionStyle style, bool use_sim)
      : env_(NewMemEnv()), filter_(NewBloomFilterPolicy(10)) {
    options_.env = env_.get();
    options_.create_if_missing = true;
    options_.compaction_style = style;
    options_.write_buffer_size = 16 * 1024;
    options_.max_file_size = 16 * 1024;
    options_.level1_max_bytes = 64 * 1024;
    options_.filter_policy = filter_.get();
    if (use_sim) {
      sim_ = std::make_unique<SimContext>(SsdModel());
      options_.sim = sim_.get();
    }
  }

  ~OracleDB() { db_.reset(); }  // Before the sim it runs on.

  Options* options() { return &options_; }
  DB* db() { return db_.get(); }

  Status Open() {
    db_.reset();
    DB* raw = nullptr;
    Status s = DB::Open(options_, "/db", &raw);
    db_.reset(raw);
    return s;
  }

  // `ops` random writes over `keys` keys from Random(seed): one in 7 is a
  // Delete, the rest are Puts of 100-byte values. Mirrors them in *shadow.
  Status Fill(uint64_t seed, int ops, int keys, oracle::Shadow* shadow) {
    Random rng(seed);
    std::string value;
    for (int i = 0; i < ops; i++) {
      const uint64_t id = rng.Uniform(keys);
      const std::string key = MakeKey(id);
      Status s;
      if (rng.OneIn(7)) {
        s = db_->Delete(WriteOptions(), key);
        shadow->erase(key);
      } else {
        MakeValue(id, i, 100, &value);
        s = db_->Put(WriteOptions(), key, value);
        (*shadow)[key] = value;
      }
      if (!s.ok()) return s;
    }
    return db_->WaitForIdle();
  }

 private:
  std::unique_ptr<Env> env_;
  std::unique_ptr<const FilterPolicy> filter_;
  std::unique_ptr<SimContext> sim_;
  Options options_;
  std::unique_ptr<DB> db_;
};

// MakeKey(0) .. MakeKey(n - 1).
std::vector<std::string> KeyRange(int n) {
  std::vector<std::string> keys;
  keys.reserve(n);
  for (int id = 0; id < n; id++) keys.push_back(MakeKey(id));
  return keys;
}

using OracleParam = std::tuple<CompactionStyle, bool>;

std::string OracleName(const testing::TestParamInfo<OracleParam>& info) {
  std::string name;
  switch (std::get<0>(info.param)) {
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
  return name + (std::get<1>(info.param) ? "Sim" : "Inline");
}

}  // namespace

class DBReadOracleTest : public testing::TestWithParam<OracleParam> {};

TEST_P(DBReadOracleTest, ReadsMatchShadowMapBeforeAndAfterReopen) {
  constexpr int kKeys = 1500;
  OracleDB t(std::get<0>(GetParam()), std::get<1>(GetParam()));
  t.options()->fan_out = 4;
  ASSERT_TRUE(t.Open().ok());
  oracle::Shadow shadow;
  ASSERT_TRUE(t.Fill(/*seed=*/301, /*ops=*/8000, kKeys, &shadow).ok());
  // Probe past the written ids too, so absent keys at both ends are read.
  const std::vector<std::string> probes = KeyRange(kKeys + 50);
  ASSERT_TRUE(oracle::CheckReads(t.db(), shadow, probes, /*seed=*/1));

  ASSERT_TRUE(t.Open().ok());
  ASSERT_TRUE(oracle::CheckReads(t.db(), shadow, probes, /*seed=*/2));

  // More writes on top of the recovered tree, then once more.
  ASSERT_TRUE(t.Fill(/*seed=*/302, /*ops=*/3000, kKeys, &shadow).ok());
  ASSERT_TRUE(oracle::CheckReads(t.db(), shadow, probes, /*seed=*/3));
}

INSTANTIATE_TEST_SUITE_P(
    Styles, DBReadOracleTest,
    testing::Combine(testing::Values(CompactionStyle::kUdc,
                                     CompactionStyle::kLdc,
                                     CompactionStyle::kTiered),
                     testing::Bool()),
    OracleName);

// One background job, LDC, 12,000 writes over 2,500 keys. Each seed below
// made a scan return a deleted key while scans read every frozen file whole
// (inline, seed 1 brought back user000000001688); every Get was right.
class LdcScanResurrectionTest : public testing::TestWithParam<bool> {};

TEST_P(LdcScanResurrectionTest, MergedSliceStaysDeletedInScans) {
  const bool use_sim = GetParam();
  const std::vector<uint64_t> seeds =
      use_sim ? std::vector<uint64_t>{1, 2, 5} : std::vector<uint64_t>{1, 4, 9};
  for (uint64_t seed : seeds) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    OracleDB t(CompactionStyle::kLdc, use_sim);
    ASSERT_TRUE(t.Open().ok());
    oracle::Shadow shadow;
    ASSERT_TRUE(t.Fill(seed, /*ops=*/12000, /*keys=*/2500, &shadow).ok());
    EXPECT_TRUE(oracle::CheckForwardScan(t.db(), shadow));
    EXPECT_TRUE(oracle::CheckReverseScan(t.db(), shadow));
  }
}

INSTANTIATE_TEST_SUITE_P(Schedulers, LdcScanResurrectionTest, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "Sim" : "Inline");
                         });

}  // namespace ldc
