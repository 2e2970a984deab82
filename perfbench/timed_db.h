// TimedDb: an ldc::DB decorator handed to the paper's WorkloadDriver. It
// times every call into the engine from outside, on two clocks
// (steady_clock for engine cost, SimContext::NowMicros for the paper's
// device-model time), and checks every answer against a Shadow of the last
// write per key. Timing covers only the forwarded call: key/value
// generation, answer checks and bookkeeping stay outside it.

#ifndef LDC_PERFBENCH_TIMED_DB_H_
#define LDC_PERFBENCH_TIMED_DB_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "layer_trace.h"
#include "ldc/db.h"

namespace ldc {

class SimContext;

namespace perfbench {

// The last value written to each key of a MakeKey key space, kept as a
// 64-bit hash plus the value's length.
class Shadow {
 public:
  explicit Shadow(uint64_t key_space);

  // Records a write; false if the key is not a MakeKey key of this space.
  bool Put(const Slice& key, const Slice& value);
  // True when a Get's status and value agree with the last write.
  bool CheckGet(const Slice& key, const Status& status,
                const std::string& value) const;
  // True when `id` holds exactly `value`.
  bool Matches(uint64_t id, const Slice& value) const;
  // The first written id >= `id`, or key_space() when there is none.
  uint64_t NextPresent(uint64_t id) const;

  uint64_t key_space() const { return entries_.size(); }
  // Key plus value bytes of the live data.
  uint64_t live_bytes() const { return live_bytes_; }

 private:
  struct Entry {
    uint64_t hash = 0;
    uint32_t size = 0;
    bool present = false;
  };
  std::vector<Entry> entries_;
  uint64_t live_bytes_ = 0;
};

// Parses a MakeKey key; false for any other shape.
bool ParseId(const Slice& key, uint64_t* id);

// What one measured phase recorded.
struct PhaseRecord {
  uint64_t ops = 0;  // Puts + Gets + scans
  uint64_t puts = 0;
  uint64_t gets = 0;
  uint64_t scans = 0;
  // Statuses that are neither OK nor NotFound, plus answers that disagree
  // with the shadow (a scan with any wrong entry counts once).
  uint64_t failed = 0;
  uint64_t engine_ns = 0;  // wall time inside DB calls, WaitForIdle included
  uint64_t put_bytes = 0;  // user key + value bytes Put
  std::vector<double> put_wall_us, read_wall_us;
  std::vector<double> put_sim_us, read_sim_us;
  // PerfContext deltas summed over the Gets.
  uint64_t get_slices_checked = 0;
  uint64_t get_memtable_hits = 0;  // active + immutable memtable
};

class TimedDb final : public DB {
 public:
  // `recorder` is null in the untraced run.
  TimedDb(DB* base, SimContext* sim, Shadow* shadow, SpanRecorder* recorder);

  // Starts a fresh PhaseRecord. `on_mark(k)` runs after the op that
  // completes the k-th of `marks` equal shares of `planned_ops`, for
  // k = 1..marks-1.
  void StartPhase(uint64_t planned_ops, int marks,
                  std::function<void(int)> on_mark);
  const PhaseRecord& record() const { return record_; }

  Status Put(const WriteOptions& options, const Slice& key,
             const Slice& value) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  Iterator* NewIterator(const ReadOptions& options) override;
  Status WaitForIdle() override;

  // No workload issues these; they fail so that one that did would show.
  Status Delete(const WriteOptions& options, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  std::vector<Status> MultiGet(const ReadOptions& options,
                               const std::vector<Slice>& keys,
                               std::vector<std::string>* values) override;

  const Snapshot* GetSnapshot() override { return base_->GetSnapshot(); }
  void ReleaseSnapshot(const Snapshot* snapshot) override {
    base_->ReleaseSnapshot(snapshot);
  }
  bool GetProperty(const Slice& property, std::string* value) override {
    return base_->GetProperty(property, value);
  }
  void GetApproximateSizes(const Range* range, int n,
                           uint64_t* sizes) override {
    base_->GetApproximateSizes(range, n, sizes);
  }
  void CompactRange(const Slice* begin, const Slice* end) override {
    base_->CompactRange(begin, end);
  }

 private:
  class TimedIterator;
  friend class TimedIterator;

  // One timed call: steady_clock and sim clock around `call`, with a span
  // of `kind` when tracing. Returns the wall nanoseconds.
  template <typename Call>
  uint64_t Timed(Span kind, uint64_t* sim_us, Call&& call);
  void FinishOp();

  DB* const base_;
  SimContext* const sim_;
  Shadow* const shadow_;
  SpanRecorder* const recorder_;
  PhaseRecord record_;
  uint64_t planned_ops_ = 0;
  int marks_ = 0;
  int marks_done_ = 0;
  std::function<void(int)> on_mark_;
};

// Result of the untimed check after the final WaitForIdle: a full forward
// scan and a Get of every key of the space, both against the shadow.
struct SweepResult {
  uint64_t checked = 0;
  uint64_t mismatches = 0;
};
SweepResult Sweep(DB* db, const Shadow& shadow);

}  // namespace perfbench
}  // namespace ldc

#endif  // LDC_PERFBENCH_TIMED_DB_H_
