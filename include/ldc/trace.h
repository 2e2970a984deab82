// End-to-end tracing: a lock-sharded, lossless-until-capacity buffer of
// timeline events with RAII spans, process-unique span ids, and explicit
// flow links (id handoff) so a background job's span points back at the
// foreground event that caused it — and a stalled write points at the job
// that unblocked it. Export as Chrome trace-event JSON (opens in Perfetto
// or chrome://tracing).
//
// Cost model: with `Options::tracer == nullptr` every instrumentation site
// is a single branch. With a tracer attached, each event is one short
// critical section on one of kShardCount shard mutexes; memory is bounded
// by the capacity passed at construction (events past capacity are dropped
// and counted, never overwritten — "lossless until capacity").

#ifndef LDC_INCLUDE_TRACE_H_
#define LDC_INCLUDE_TRACE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace ldc {

class RandomAccessFile;
class SequentialFile;
class WritableFile;

// Event categories; rendered as the Chrome "cat" field so Perfetto can
// filter one subsystem at a time.
enum class TraceCat : uint16_t {
  kWrite = 0,    // group-commit pipeline: leader/follower, WAL, memtable
  kGet,          // read path
  kStall,        // write stalls (slowdown / memtable-limit / L0-stop)
  kFlush,        // memtable flushes (and table builds they trigger)
  kCompaction,   // UDC / tiered compaction jobs
  kLdc,          // LDC link + merge activity, frozen-file reclaim
  kShard,        // ShardedDB fan-out
  kIo,           // Env-level file I/O (read/write/sync)
  kCatCount,
};

const char* TraceCatName(TraceCat cat);

// One timeline event. `name` and the arg names must be string literals (or
// otherwise outlive the tracer); dynamic detail goes in `label`.
struct TraceEvent {
  uint64_t ts = 0;        // micros since the tracer's epoch
  uint64_t dur = 0;       // micros; 0 for instants
  uint64_t id = 0;        // process-unique span id (0 for instants)
  uint64_t flow_in = 0;   // incoming flow id (0 = none): this event was
                          // caused by the event that emitted the same id
  uint64_t flow_out = 0;  // outgoing flow id (0 = none)
  uint64_t a1 = 0, a2 = 0;
  // Device channel of io.* events under the multi-channel simulator
  // (-1 = unknown/not applicable; exported as a "channel" arg when >= 0).
  int32_t channel = -1;
  const char* name = nullptr;
  const char* a1_name = nullptr;
  const char* a2_name = nullptr;
  uint32_t tid = 0;
  TraceCat cat = TraceCat::kWrite;
  char phase = 'X';       // 'X' = complete (has dur), 'i' = instant
  char label[48] = {0};   // dynamic detail: shard name, file basename, ...
};

class Tracer {
 public:
  static constexpr size_t kDefaultCapacity = 1 << 16;  // events, not bytes

  explicit Tracer(size_t capacity = kDefaultCapacity);
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Micros since this tracer was constructed, on a steady clock shared by
  // every thread, shard, and Env — one timeline for engine and device time.
  uint64_t Now() const;

  // Process-unique nonzero id, usable as a span id or a flow id.
  static uint64_t NewId();

  // Small dense id for the calling thread (stable for the thread's life).
  static uint32_t CurrentThreadId();

  // Appends one event; drops (and counts) it if the buffer is full.
  void Emit(const TraceEvent& event);

  // Convenience emitters for sites that do not need a TraceSpan.
  void Instant(TraceCat cat, const char* name, const char* label = nullptr,
               uint64_t flow_in = 0, uint64_t flow_out = 0);
  void Complete(TraceCat cat, const char* name, uint64_t ts, uint64_t dur,
                const char* label = nullptr, const char* a1_name = nullptr,
                uint64_t a1 = 0, int channel = -1);

  size_t capacity() const { return capacity_; }
  size_t events() const;
  uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

  // All buffered events, sorted by timestamp.
  std::vector<TraceEvent> Snapshot() const;

  // Chrome trace-event JSON ({"traceEvents": [...]}): complete/instant
  // events plus "s"/"f" flow events for every recorded flow link. Open the
  // result in Perfetto (ui.perfetto.dev) or chrome://tracing.
  std::string ExportChromeTrace() const;

  // {"events": N, "dropped": D, "capacity": C} — the "ldc.trace-summary"
  // property body.
  std::string SummaryJson() const;

 private:
  static constexpr int kShardCount = 16;
  struct Shard {
    mutable std::mutex mu;
    std::vector<TraceEvent> events;
  };

  Shard shards_[kShardCount];
  size_t capacity_;
  size_t shard_capacity_;
  std::atomic<uint64_t> dropped_{0};
  std::chrono::steady_clock::time_point epoch_;
};

// RAII scope: records start time on construction, emits one complete event
// on End()/destruction. A TraceSpan built with a null tracer is inert; all
// methods are safe no-ops on it.
class TraceSpan {
 public:
  TraceSpan() = default;
  TraceSpan(Tracer* tracer, TraceCat cat, const char* name) {
    if (tracer != nullptr) Begin(tracer, cat, name);
  }
  ~TraceSpan() { End(); }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

  bool active() const { return tracer_ != nullptr; }
  uint64_t id() const { return event_.id; }
  uint64_t start_ts() const { return event_.ts; }
  TraceCat cat() const { return event_.cat; }
  Tracer* tracer() const { return tracer_; }

  // Marks this span as caused by the event that emitted flow id `id`.
  void SetFlowIn(uint64_t id) {
    if (tracer_ != nullptr) event_.flow_in = id;
  }
  // Allocates (once) and returns this span's outgoing flow id; a later
  // event that sets it as flow_in is linked back to this span. Returns 0
  // on an inert span.
  uint64_t EmitFlowOut() {
    if (tracer_ == nullptr) return 0;
    if (event_.flow_out == 0) event_.flow_out = Tracer::NewId();
    return event_.flow_out;
  }

  void SetArg1(const char* name, uint64_t v) {
    if (tracer_ != nullptr) {
      event_.a1_name = name;
      event_.a1 = v;
    }
  }
  void SetArg2(const char* name, uint64_t v) {
    if (tracer_ != nullptr) {
      event_.a2_name = name;
      event_.a2 = v;
    }
  }
  void SetLabel(const std::string& label);

  // Emits the event (if active) and deactivates the span.
  void End();

 private:
  void Begin(Tracer* tracer, TraceCat cat, const char* name);

  Tracer* tracer_ = nullptr;
  TraceEvent event_;
};

// Env I/O tracing: wrap a freshly opened file so every Read/Append/Sync
// emits a kIo event with offset/length/duration. Each wrapper takes
// ownership of `file` and keeps only the basename of `fname` as the event
// label. Used by PosixEnv, the in-memory Env, and the bench Env whenever
// `Env::SetIoTracer` has installed a tracer. `channel` stamps the device
// channel the simulator's placement policy assigned to the file's stream
// onto every event (pass -1 when unknown — no arg is emitted).
SequentialFile* NewTracedSequentialFile(Tracer* tracer, SequentialFile* file,
                                        const std::string& fname,
                                        int channel = -1);
RandomAccessFile* NewTracedRandomAccessFile(Tracer* tracer,
                                            RandomAccessFile* file,
                                            const std::string& fname,
                                            int channel = -1);
WritableFile* NewTracedWritableFile(Tracer* tracer, WritableFile* file,
                                    const std::string& fname,
                                    int channel = -1);

}  // namespace ldc

#endif  // LDC_INCLUDE_TRACE_H_
