// Statistics collects the counters and latency histograms that the paper's
// evaluation reports: compaction I/O volume (Fig. 10c, 12d/e, 14), block
// read counts (Fig. 13), stall time, link/merge activity, and per-operation
// latency distributions (Fig. 1, 8, 9).
//
// Pass a Statistics instance via Options::statistics; the DB updates it as
// it runs. All methods are cheap; counters use relaxed atomics.

#ifndef LDC_INCLUDE_STATISTICS_H_
#define LDC_INCLUDE_STATISTICS_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

namespace ldc {

class Histogram;

// Number of per-channel I/O ticker/gauge slots. Keep in sync with
// SsdModel::kMaxChannels (ldc/sim.h); sim_context.cc static_asserts it.
constexpr int kMaxIoChannels = 8;

enum Ticker : uint32_t {
  // I/O volume.
  kCompactionReadBytes = 0,   // bytes read by installed merges (all styles)
  kCompactionWriteBytes,      // bytes written by installed merges
  kFlushWriteBytes,           // bytes written by memtable flushes
  kWalWriteBytes,             // bytes appended to the write-ahead log
  kUserReadBytes,             // data-block bytes read serving user reads

  // Block/filter effectiveness (Fig. 13).
  kBlockReads,                // data blocks fetched from the device
  kBlockCacheHits,            // data blocks served from the block cache
  kBloomChecks,               // bloom filter consultations
  kBloomUseful,               // bloom filters that avoided a table read
  kBloomSkippedTables,        // table probes skipped by the pre-seek filter
                              // check (point reads, Version::MultiGet)

  // Compaction activity.
  kCompactions,               // UDC compactions and tiered merges installed
  kTrivialMoves,              // files moved down without rewrite (installed)
  kFlushes,                   // memtable flushes
  kLdcLinks,                  // LDC link operations (metadata only)
  kLdcSlicesCreated,          // slices created across all links
  kLdcMerges,                 // LDC lower-level driven merges installed
  kLdcFrozenFilesReclaimed,   // frozen files garbage-collected

  // Read path.
  kGets,
  kGetHits,
  kSliceSourcesChecked,       // linked slices consulted during reads
  kSeeks,
  kMultiGetKeys,              // keys looked up through MultiGet batches
  kMultiGetBatches,           // MultiGet calls

  // Stalls (tail-latency drivers).
  kStallMicros,               // hard write stalls (L0 stop / imm wait)
  kSlowdownMicros,            // L0 slowdown delays

  // Background scheduling (multi-job scheduler, docs/CONCURRENCY.md).
  kBgJobsScheduled,           // background calls handed to Env::Schedule
  kBgWorkUnits,               // work units (flush/compaction/merge) executed

  // Per-channel I/O volume of the multi-channel SSD simulator
  // ("io.channel.<k>.read.bytes" / "io.channel.<k>.write.bytes").
  // Recorded by SimContext when a Statistics sink is attached via
  // SimContext::SetStatistics; use ChannelReadBytesTicker(k) /
  // ChannelWriteBytesTicker(k) to address a slot.
  kIoChannelReadBytesBase,
  kIoChannelWriteBytesBase = kIoChannelReadBytesBase + kMaxIoChannels,

  kTickerCount = kIoChannelWriteBytesBase + kMaxIoChannels
};

// Returns the programmatic name of a ticker, e.g. "compaction.read.bytes".
const char* TickerName(Ticker ticker);

// Per-channel ticker slots (channel in [0, kMaxIoChannels)).
inline Ticker ChannelReadBytesTicker(int channel) {
  return static_cast<Ticker>(kIoChannelReadBytesBase + channel);
}
inline Ticker ChannelWriteBytesTicker(int channel) {
  return static_cast<Ticker>(kIoChannelWriteBytesBase + channel);
}

// Point-in-time gauges: unlike tickers these go up and down, tracking the
// current value of a quantity (e.g. how many background jobs are executing
// right now). Updated with relaxed atomics like tickers. Writers must use
// the delta forms (AddGauge/SubGauge): one Statistics object may be shared
// by several DBs (ShardedDB injects one into every shard), and absolute
// stores from N writers would clobber each other's contributions.
enum Gauge : uint32_t {
  kBgJobsRunning = 0,   // background work units currently executing
  kLdcMergesRunning,    // LDC merges currently executing
  kReadStatePinned,     // readers currently pinning a ReadState

  // Per-channel device state of the multi-channel SSD simulator
  // ("io.channel.<k>.queued" — background jobs scheduled on the channel —
  // and "io.channel.<k>.busy" — 1 while the channel timeline extends past
  // the virtual clock). Maintained by SimContext::SetStatistics.
  kIoChannelQueuedBase,
  kIoChannelBusyBase = kIoChannelQueuedBase + kMaxIoChannels,

  kGaugeCount = kIoChannelBusyBase + kMaxIoChannels
};

// Returns the programmatic name of a gauge, e.g. "bg.jobs.running".
const char* GaugeName(Gauge gauge);

// Per-channel gauge slots (channel in [0, kMaxIoChannels)).
inline Gauge ChannelQueuedGauge(int channel) {
  return static_cast<Gauge>(kIoChannelQueuedBase + channel);
}
inline Gauge ChannelBusyGauge(int channel) {
  return static_cast<Gauge>(kIoChannelBusyBase + channel);
}

enum class OpHistogram : uint32_t {
  kWriteLatencyUs = 0,
  kReadLatencyUs,
  kScanLatencyUs,
  kCompactionDurationUs,
  kWriteStallUs,  // duration of individual write stalls (slowdown + stop)
  kHistogramCount
};

const char* OpHistogramName(OpHistogram histogram);

// A point-in-time copy of every ticker, used to compute interval deltas
// (e.g. "write stalls during this benchmark pass" rather than since Open).
struct TickerSnapshot {
  uint64_t values[kTickerCount] = {};

  uint64_t Get(Ticker ticker) const { return values[ticker]; }
};

class Statistics {
 public:
  Statistics();
  ~Statistics();

  Statistics(const Statistics&) = delete;
  Statistics& operator=(const Statistics&) = delete;

  void Record(Ticker ticker, uint64_t count = 1) {
    tickers_[ticker].fetch_add(count, std::memory_order_relaxed);
  }

  uint64_t Get(Ticker ticker) const {
    return tickers_[ticker].load(std::memory_order_relaxed);
  }

  // Atomically adjust a gauge by a delta. Safe when many DBs share this
  // object: concurrent adds/subs from different shards combine instead of
  // overwriting each other (the double-counting/clobbering hazard of an
  // absolute SetGauge).
  void AddGauge(Gauge gauge, uint64_t delta = 1) {
    gauges_[gauge].fetch_add(delta, std::memory_order_relaxed);
  }

  void SubGauge(Gauge gauge, uint64_t delta = 1) {
    gauges_[gauge].fetch_sub(delta, std::memory_order_relaxed);
  }

  uint64_t GetGauge(Gauge gauge) const {
    return gauges_[gauge].load(std::memory_order_relaxed);
  }

  // Copy every ticker at this instant. Not a cross-ticker atomic cut:
  // tickers updated concurrently may be split across the read loop, which
  // is fine for the windowed reporting this feeds.
  TickerSnapshot Snapshot() const {
    TickerSnapshot snap;
    for (uint32_t i = 0; i < kTickerCount; i++) {
      snap.values[i] = tickers_[i].load(std::memory_order_relaxed);
    }
    return snap;
  }

  // Per-ticker difference between now and "since": the activity inside the
  // window. Saturating per ticker — if a counter is below its snapshotted
  // value (Reset() ran inside the window), the current value is reported
  // instead of an underflowed delta.
  TickerSnapshot SnapshotDelta(const TickerSnapshot& since) const {
    TickerSnapshot delta;
    for (uint32_t i = 0; i < kTickerCount; i++) {
      const uint64_t cur = tickers_[i].load(std::memory_order_relaxed);
      delta.values[i] = cur >= since.values[i] ? cur - since.values[i] : cur;
    }
    return delta;
  }

  // Thread-safe: concurrent writer/reader client threads record latencies
  // into the same histogram (guarded by an internal mutex).
  void RecordLatency(OpHistogram histogram, double micros);

  // Read access to a latency histogram. The reference stays valid for the
  // lifetime of the Statistics object, but reading it concurrently with
  // RecordLatency is racy — quiesce the DB (WaitForIdle / join client
  // threads) before inspecting histograms.
  const Histogram& GetHistogram(OpHistogram histogram) const;

  // Reset all tickers and histograms to zero.
  void Reset();

  // Multi-line human-readable dump of every ticker and histogram.
  std::string ToString() const;

  // JSON document: {"tickers": {name: value, ...},
  //                 "histograms": {name: {count, min, max, avg,
  //                                       p50, p90, p95, p99, p999}, ...}}.
  // Histograms with no samples are omitted.
  std::string ToJson() const;

 private:
  std::atomic<uint64_t> tickers_[kTickerCount];
  std::atomic<uint64_t> gauges_[kGaugeCount];
  mutable std::mutex histogram_mutex_;  // guards histograms_ mutation
  std::unique_ptr<Histogram[]> histograms_;
};

}  // namespace ldc

#endif  // LDC_INCLUDE_STATISTICS_H_
