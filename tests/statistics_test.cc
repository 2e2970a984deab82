// Tests of the observability exports: Statistics::ToJson round-trips
// through a JSON parser with correct ticker values and histogram
// percentiles, and the "ldc.stats-json" DB property produces one parseable
// document with per-level write-amplification and latency percentiles.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "gtest/gtest.h"
#include "json_checker.h"
#include "ldc/db.h"
#include "ldc/env.h"
#include "ldc/statistics.h"
#include "util/crc32c.h"
#include "util/histogram.h"
#include "util/random.h"
#include "workload/key_generator.h"

namespace ldc {

using testjson::JsonParser;
using testjson::JsonValue;

TEST(StatisticsJsonTest, EmptyStatisticsParses) {
  Statistics stats;
  JsonValue doc;
  ASSERT_TRUE(JsonParser::Parse(stats.ToJson(), &doc)) << stats.ToJson();
  ASSERT_EQ(JsonValue::kObject, doc.type);
  ASSERT_TRUE(doc.Has("tickers"));
  ASSERT_TRUE(doc.Has("histograms"));
  // No samples recorded: every histogram is omitted.
  EXPECT_TRUE(doc["histograms"].object.empty());
  // Every ticker is present and zero.
  EXPECT_EQ(static_cast<size_t>(kTickerCount), doc["tickers"].object.size());
  for (const auto& kvp : doc["tickers"].object) {
    EXPECT_EQ(0.0, kvp.second.number) << kvp.first;
  }
}

TEST(StatisticsJsonTest, TickerValuesRoundTrip) {
  Statistics stats;
  stats.Record(kCompactionReadBytes, 12345);
  stats.Record(kLdcMerges, 7);
  stats.Record(kStallMicros, 99);

  JsonValue doc;
  ASSERT_TRUE(JsonParser::Parse(stats.ToJson(), &doc));
  const JsonValue& tickers = doc["tickers"];
  EXPECT_EQ(12345.0, tickers[TickerName(kCompactionReadBytes)].number);
  EXPECT_EQ(7.0, tickers[TickerName(kLdcMerges)].number);
  EXPECT_EQ(99.0, tickers[TickerName(kStallMicros)].number);
}

TEST(StatisticsJsonTest, HistogramPercentilesMatch) {
  Statistics stats;
  // 1..1000 us, uniformly: p50 ~ 500, p99 ~ 990.
  for (int i = 1; i <= 1000; i++) {
    stats.RecordLatency(OpHistogram::kWriteLatencyUs, i);
  }

  JsonValue doc;
  ASSERT_TRUE(JsonParser::Parse(stats.ToJson(), &doc));
  const JsonValue& h =
      doc["histograms"][OpHistogramName(OpHistogram::kWriteLatencyUs)];
  ASSERT_EQ(JsonValue::kObject, h.type);
  EXPECT_EQ(1000.0, h["count"].number);
  EXPECT_EQ(1.0, h["min"].number);
  EXPECT_EQ(1000.0, h["max"].number);
  EXPECT_NEAR(500.5, h["avg"].number, 0.5);

  // The JSON must agree with the histogram's own percentile estimator
  // exactly, and that estimator must be in the right ballpark (the
  // histogram uses geometric buckets, so allow their width).
  const Histogram& hist = stats.GetHistogram(OpHistogram::kWriteLatencyUs);
  EXPECT_NEAR(hist.Percentile(50), h["p50"].number, 0.01);
  EXPECT_NEAR(hist.Percentile(99), h["p99"].number, 0.01);
  EXPECT_NEAR(hist.Percentile(99.9), h["p999"].number, 0.01);
  EXPECT_NEAR(500.0, h["p50"].number, 100.0);
  EXPECT_NEAR(990.0, h["p99"].number, 150.0);
  EXPECT_GE(h["p99"].number, h["p95"].number);
  EXPECT_GE(h["p95"].number, h["p90"].number);
  EXPECT_GE(h["p90"].number, h["p50"].number);
}

TEST(StatisticsJsonTest, EscapesAreValid) {
  // Nothing in the current names needs escaping; this guards the writer
  // against future names with quotes/backslashes by checking the document
  // stays parseable after heavy recording.
  Statistics stats;
  for (uint32_t t = 0; t < kTickerCount; t++) {
    stats.Record(static_cast<Ticker>(t), t + 1);
  }
  for (uint32_t h = 0;
       h < static_cast<uint32_t>(OpHistogram::kHistogramCount); h++) {
    stats.RecordLatency(static_cast<OpHistogram>(h), 42.0);
  }
  JsonValue doc;
  ASSERT_TRUE(JsonParser::Parse(stats.ToJson(), &doc));
  EXPECT_EQ(static_cast<size_t>(OpHistogram::kHistogramCount),
            doc["histograms"].object.size());
}

class StatsJsonPropertyTest : public testing::Test {
 protected:
  StatsJsonPropertyTest() : env_(NewMemEnv()) {
    options_.env = env_.get();
    options_.create_if_missing = true;
    options_.write_buffer_size = 16 * 1024;
    options_.max_file_size = 16 * 1024;
    options_.level1_max_bytes = 64 * 1024;
    options_.fan_out = 4;
    options_.statistics = &stats_;
    DB* raw = nullptr;
    EXPECT_TRUE(DB::Open(options_, "/db", &raw).ok());
    db_.reset(raw);
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
  std::unique_ptr<DB> db_;
};

TEST_F(StatsJsonPropertyTest, DocumentHasLevelsAndPercentiles) {
  FillRandom(6000, 800);
  ASSERT_TRUE(db_->WaitForIdle().ok());
  // The DB does not time user operations itself (the workload driver
  // does); record a few so the embedded statistics carry percentiles.
  for (int i = 1; i <= 100; i++) {
    stats_.RecordLatency(OpHistogram::kReadLatencyUs, i);
  }

  std::string json;
  ASSERT_TRUE(db_->GetProperty("ldc.stats-json", &json));
  JsonValue doc;
  ASSERT_TRUE(JsonParser::Parse(json, &doc)) << json;

  EXPECT_EQ("/db", doc["db"].string_value);
  EXPECT_EQ(crc32c::IsHardwareAccelerated() ? "sse4.2" : "portable",
            doc["crc32c"].string_value);
  ASSERT_TRUE(doc.Has("levels"));
  ASSERT_GT(doc["levels"].array.size(), 0u);

  bool some_compaction = false;
  for (const JsonValue& level : doc["levels"].array) {
    ASSERT_TRUE(level.Has("level"));
    ASSERT_TRUE(level.Has("files"));
    ASSERT_TRUE(level.Has("write_amp"));
    ASSERT_TRUE(level.Has("micros"));
    if (level["compactions"].number > 0) {
      some_compaction = true;
      EXPECT_GT(level["bytes_written"].number, 0.0);
      EXPECT_GE(level["write_amp"].number, 1.0);
      EXPECT_GT(level["micros"]["total"].number, 0.0);
    }
  }
  EXPECT_TRUE(some_compaction) << "workload produced no compaction";

  EXPECT_GE(doc["cumulative_write_amp"].number, 1.0);
  EXPECT_GT(doc["flush"]["count"].number, 0.0);
  EXPECT_GT(doc["flush"]["bytes"].number, 0.0);

  // The embedded Statistics document carries the p99 latencies.
  const JsonValue& read_hist =
      doc["statistics"]["histograms"]
         [OpHistogramName(OpHistogram::kReadLatencyUs)];
  ASSERT_EQ(JsonValue::kObject, read_hist.type);
  EXPECT_EQ(100.0, read_hist["count"].number);
  EXPECT_GT(read_hist["p99"].number, 0.0);
}

TEST_F(StatsJsonPropertyTest, CumulativeWriteampProperty) {
  FillRandom(6000, 800);
  ASSERT_TRUE(db_->WaitForIdle().ok());
  std::string value;
  ASSERT_TRUE(db_->GetProperty("ldc.cumulative-writeamp", &value));
  const double wa = strtod(value.c_str(), nullptr);
  EXPECT_GE(wa, 1.0);

  ASSERT_TRUE(db_->GetProperty("ldc.compaction-stats", &value));
  EXPECT_NE(value.find("cumulative write-amp"), std::string::npos);
  EXPECT_NE(value.find("flushes:"), std::string::npos);

  // The legacy text property now reports frozen bytes per level.
  ASSERT_TRUE(db_->GetProperty("ldc.stats", &value));
  EXPECT_NE(value.find("Frozen"), std::string::npos);
}

// One Statistics object is shared by every shard of a ShardedDB, so N
// threads hammer the same tickers, gauges, and histograms concurrently.
// Every update must combine exactly — no lost increments (ticker adds),
// no clobbered absolute stores (gauges), no corrupted histogram state.
TEST(StatisticsConcurrencyTest, SharedWritersLoseNoUpdates) {
  Statistics stats;
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20000;

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; t++) {
    threads.emplace_back([&stats] {
      for (int i = 0; i < kOpsPerThread; i++) {
        stats.Record(kGets);
        stats.Record(kUserReadBytes, 37);
        // Balanced up/down traffic, as shards' in-flight job counters
        // produce: the gauge must come back to exactly zero.
        stats.AddGauge(kBgJobsRunning);
        stats.RecordLatency(OpHistogram::kReadLatencyUs,
                            static_cast<double>(i % 100));
        stats.SubGauge(kBgJobsRunning);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(static_cast<uint64_t>(kThreads) * kOpsPerThread,
            stats.Get(kGets));
  EXPECT_EQ(static_cast<uint64_t>(kThreads) * kOpsPerThread * 37,
            stats.Get(kUserReadBytes));
  EXPECT_EQ(0u, stats.GetGauge(kBgJobsRunning));

  JsonValue doc;
  ASSERT_TRUE(JsonParser::Parse(stats.ToJson(), &doc));
  const JsonValue& hist =
      doc["histograms"][OpHistogramName(OpHistogram::kReadLatencyUs)];
  ASSERT_EQ(JsonValue::kObject, hist.type);
  EXPECT_EQ(static_cast<double>(kThreads) * kOpsPerThread,
            hist["count"].number);
}

}  // namespace ldc
