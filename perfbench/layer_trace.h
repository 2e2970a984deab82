// Outside-in tracing for the benchmark's traced run. Wrappers around the
// engine's public seams (Env, the block and table-handle Caches,
// FilterPolicy, Comparator, EventListener) and the TimedDb decorator record
// spans into one SpanRecorder, which attributes time and counts to layers.
//
// Everything here is single-threaded: under Options::sim every flush,
// compaction and merge runs inside the foreground call that pumps the
// simulator, so spans nest strictly (a job span sits inside the Put, Get,
// scan or WaitForIdle span that ran it). Times come from steady_clock only:
// on the in-memory Env, Env::NowMicros is a call counter the engine reads
// itself, and calling it here would change what the engine computes.

#ifndef LDC_PERFBENCH_LAYER_TRACE_H_
#define LDC_PERFBENCH_LAYER_TRACE_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ldc/cache.h"
#include "ldc/comparator.h"
#include "ldc/env.h"
#include "ldc/filter_policy.h"
#include "ldc/listener.h"

namespace ldc {

class Tracer;

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t Nanos(Clock::duration d) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(d).count());
}

// Layer boundaries the traced run records.
enum class Span : int {
  kDbPut = 0,    // calls into ldc::DB, recorded by TimedDb
  kDbGet,
  kDbScan,       // NewIterator, Seek, Next and the iterator's deletion
  kDbWait,       // WaitForIdle
  kJobFlush,     // EventListener flush Begin..Completed
  kJobMerge,     // EventListener compaction Begin..Completed (UDC + LDC)
  kWal,          // Env: log-file writes
  kTableRead,    // Env: table-file reads
  kTableWrite,   // Env: table-file writes
  kEnvOther,     // Env: every other call (manifest, LOG, GetChildren, ...)
  kBlockCache,   // Options::block_cache calls
  kTableCache,   // Options::table_handle_cache calls
  kFilterCreate, // FilterPolicy::CreateFilter
  kFilterProbe,  // FilterPolicy::KeyMayMatch
  kCount
};
constexpr int kSpanCount = static_cast<int>(Span::kCount);
const char* SpanName(Span span);

// The op or job that the innermost open span belongs to.
enum class Owner : int { kNone = 0, kPut, kGet, kScan, kWait, kFlush, kMerge,
                         kCount };
constexpr int kOwnerCount = static_cast<int>(Owner::kCount);

struct SpanTotals {
  uint64_t count = 0;
  uint64_t total_ns = 0;
  uint64_t self_ns = 0;  // total minus the time covered by child spans
};

// Counts attributed to the op or job running when they happened.
struct OwnerCounters {
  uint64_t cmp_calls = 0;
  uint64_t bloom_probes = 0;
  uint64_t bloom_negatives = 0;
  uint64_t block_lookups = 0;
  uint64_t block_hits = 0;
  uint64_t block_inserts = 0;
  uint64_t table_lookups = 0;
  uint64_t table_misses = 0;
  uint64_t table_reads = 0;
  uint64_t table_read_ns = 0;
  uint64_t table_bytes_written = 0;
  uint64_t cache_ns = 0;
  uint64_t wal_bytes = 0;
  uint64_t wal_ns = 0;
  uint64_t filter_create_ns = 0;
  uint64_t filter_create_keys = 0;
  uint64_t get_children = 0;
};

// What the EventListener reports.
struct JobCounters {
  uint64_t flushes = 0;
  uint64_t flush_bytes_written = 0;
  uint64_t merges = 0;  // UDC compactions and LDC merges
  uint64_t merge_bytes_read = 0;
  uint64_t links = 0;   // LDC links that froze a file (not trivial moves)
  uint64_t link_slices = 0;
  uint64_t ldc_merges = 0;
  uint64_t ldc_merge_slices = 0;
  uint64_t stalls = 0;
  uint64_t stall_sim_us = 0;
};

struct LayerCounts {
  SpanTotals spans[kSpanCount];
  OwnerCounters owners[kOwnerCount];
  JobCounters jobs;

  const SpanTotals& span(Span s) const { return spans[static_cast<int>(s)]; }
  const OwnerCounters& owner(Owner o) const {
    return owners[static_cast<int>(o)];
  }
};

// Field-wise a - b (for per-tenth deltas).
LayerCounts Minus(const LayerCounts& a, const LayerCounts& b);

class SpanRecorder {
 public:
  // `exporter` (may be null) receives every completed span while export is
  // enabled, as a Chrome trace event (ldc::Tracer::ExportChromeTrace) whose
  // args carry its self time and its parent span's id.
  explicit SpanRecorder(Tracer* exporter);

  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  void Begin(Span span, Clock::time_point now);
  // Closes the innermost open span of this kind, and any span opened inside
  // it that was never closed (a flush that wrote no table fires Begin
  // without Completed). A kind with no open span is ignored.
  void End(Span span, Clock::time_point now);

  OwnerCounters& here() { return counts_.owners[static_cast<int>(owner_)]; }
  JobCounters& jobs() { return counts_.jobs; }
  const LayerCounts& counts() const { return counts_; }

  // Zeroes the counts (between set-up and the measured phase).
  void ResetCounts() { counts_ = LayerCounts(); }
  void set_export(bool on) { export_ = on; }

 private:
  struct Frame {
    Span span;
    Owner outer_owner;
    Clock::time_point start;
    uint64_t child_ns;
    uint64_t id;  // exported span id; 0 while export is off
  };

  void Close(const Frame& frame, Clock::time_point now);

  Tracer* const exporter_;
  bool export_ = false;
  Clock::time_point epoch_;
  Owner owner_ = Owner::kNone;
  std::vector<Frame> stack_;
  LayerCounts counts_;
};

// RAII span; inert with a null recorder.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, Span span)
      : recorder_(recorder), span_(span) {
    if (recorder_ != nullptr) recorder_->Begin(span_, Clock::now());
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(span_, Clock::now());
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* const recorder_;
  const Span span_;
};

// The traced run's seams, each forwarding to the object it wraps.
std::unique_ptr<Env> NewTracingEnv(Env* target, SpanRecorder* recorder);
// Owns `target`. `table_handles` picks the kTableCache span and counters.
std::unique_ptr<Cache> NewTracingCache(Cache* target, bool table_handles,
                                       SpanRecorder* recorder);
std::unique_ptr<FilterPolicy> NewTracingFilterPolicy(
    const FilterPolicy* target, SpanRecorder* recorder);
std::unique_ptr<Comparator> NewCountingComparator(const Comparator* target,
                                                  SpanRecorder* recorder);
std::unique_ptr<EventListener> NewTracingListener(SpanRecorder* recorder);

}  // namespace perfbench
}  // namespace ldc

#endif  // LDC_PERFBENCH_LAYER_TRACE_H_
