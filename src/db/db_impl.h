#ifndef LDC_DB_DB_IMPL_H_
#define LDC_DB_DB_IMPL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "db/dbformat.h"
#include "db/snapshot.h"
#include "db/thread_annotations.h"
#include "ldc/db.h"
#include "ldc/env.h"
#include "ldc/listener.h"

namespace ldc {

class Compaction;
class MemTable;
class SimContext;
class Statistics;
class TableCache;
class Tracer;
class Version;
class VersionEdit;
class VersionSet;

namespace log {
class Writer;
}

class DBImpl : public DB {
 public:
  DBImpl(const Options& options, const std::string& dbname);

  DBImpl(const DBImpl&) = delete;
  DBImpl& operator=(const DBImpl&) = delete;

  ~DBImpl() override;

  // Implementations of the DB interface.
  Status Put(const WriteOptions&, const Slice& key,
             const Slice& value) override;
  Status Delete(const WriteOptions&, const Slice& key) override;
  Status Write(const WriteOptions& options, WriteBatch* updates) override;
  Status Get(const ReadOptions& options, const Slice& key,
             std::string* value) override;
  std::vector<Status> MultiGet(const ReadOptions& options,
                               const std::vector<Slice>& keys,
                               std::vector<std::string>* values) override;
  Iterator* NewIterator(const ReadOptions&) override;
  const Snapshot* GetSnapshot() override;
  void ReleaseSnapshot(const Snapshot* snapshot) override;
  bool GetProperty(const Slice& property, std::string* value) override;
  void GetApproximateSizes(const Range* range, int n, uint64_t* sizes) override;
  void CompactRange(const Slice* begin, const Slice* end) override;
  Status WaitForIdle() override;

  // Returns the first condition that would cause a write to be rejected
  // right now (shutdown in progress, sticky background error) without
  // queuing anything. ShardedDB preflights every shard involved in a
  // cross-shard batch before applying to any of them, so a batch that is
  // doomed on one shard fails before it becomes visible on another.
  Status PreflightWrite();

  // Extra methods (for testing and instrumentation).

  // Compact any files in the named level that overlap [*begin,*end].
  void TEST_CompactRange(int level, const Slice* begin, const Slice* end);

  // Force current memtable contents to be flushed.
  Status TEST_CompactMemTable();

  int TEST_NumLevelFiles(int level) const;
  VersionSet* TEST_versions() { return versions_; }

  // The currently effective SliceLink threshold T_s (reflects
  // self-adaptation when Options::adaptive_slice_threshold is set).
  int EffectiveSliceThreshold() const;

 private:
  friend class DB;
  struct MergePlan;
  struct Writer;

  // --- Lock-free read path (see docs/CONCURRENCY.md, "The read path") ---
  // A ReadState pins everything a point read needs — the active memtable,
  // the immutable memtable being flushed (if any), and the current
  // Version — behind one pointer published in read_state_packed_. Readers
  // acquire it with a single atomic RMW and release it without touching
  // mutex_; writers build and publish a replacement under mutex_ whenever
  // any pinned component changes (memtable switch, flush completion,
  // version install) and the old state is torn down by whoever drops its
  // last reference (deferred unref).
  struct ReadState {
    MemTable* mem = nullptr;
    MemTable* imm = nullptr;  // may be null
    Version* version = nullptr;
    // Internal reference count. Starts at 1 (the "publish bias", dropped
    // on retirement); each acquired reader holds exactly one.
    std::atomic<int64_t> refs{0};
  };

  // read_state_packed_ layout: [external count:16 | ReadState*:48].
  // Acquire bumps the external count and the state's internal count,
  // then removes its external ref again (or, if a publisher swapped the
  // word first, the publisher transferred every external ref into the
  // internal count and the acquirer cancels the double-count). Release
  // is a plain internal decrement — it never touches the packed word,
  // so there is no ABA hazard on the hot path.
  static constexpr int kReadStatePointerBits = 48;
  static constexpr uint64_t kReadStateExternalRef = 1ull
                                                    << kReadStatePointerBits;
  static constexpr uint64_t kReadStatePointerMask =
      kReadStateExternalRef - 1;

  // Pins the current ReadState (one atomic RMW, no mutex_).
  ReadState* AcquireReadState();
  // Drops one reference. The thread that drops a retired state's last
  // reference takes mutex_ once to unref the pinned memtables/version
  // and delete the state — never while the state is still current.
  void ReleaseReadState(ReadState* state);
  // Builds a ReadState from mem_/imm_/current and publishes it, retiring
  // the previous one. Call after every change to mem_/imm_/current.
  void PublishReadState() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  // Unpublishes and tears down the current state at shutdown (after all
  // background work has drained).
  void RetireReadStateForShutdown() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  // Unrefs a dead state's pins and deletes it.
  void DeleteReadStateLocked(ReadState* state)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  static void CleanupIteratorState(void* arg1, void* arg2);

  Iterator* NewInternalIterator(const ReadOptions&,
                                SequenceNumber* latest_snapshot);

  Status NewDB();

  // Recover the descriptor from persistent storage. May do a significant
  // amount of work to recover recently logged updates.
  // The tables flushed from recovered logs are appended to *flushes, to be
  // reported once the caller installs *edit.
  Status Recover(VersionEdit* edit, bool* save_manifest,
                 std::vector<FlushJobInfo>* flushes)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Delete any unneeded files and stale in-memory entries. Drops the lock
  // around the actual file deletions.
  void RemoveObsoleteFiles() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  Status RecoverLogFile(uint64_t log_number, bool last_log, bool* save_manifest,
                        VersionEdit* edit, SequenceNumber* max_sequence,
                        std::vector<FlushJobInfo>* flushes)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Writes *mem to a level-0 table and adds it to *edit. Fills *flushed
  // for ReportFlush (bytes_written stays 0 when no table was written);
  // nothing is counted or reported before the caller installs *edit.
  Status WriteLevel0Table(MemTable* mem, VersionEdit* edit, Version* base,
                          FlushJobInfo* flushed)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Counts one installed flush in every sink: the flush tickers, the flush
  // stats of ldc.stats-json, the listeners and the info log.
  void ReportFlush(const FlushJobInfo& info) EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // REQUIRES: mutex_ held; this thread is currently at the front of the
  // writer queue. May release and re-acquire the mutex (slowdown sleeps and
  // condition-variable waits happen with the lock dropped).
  Status MakeRoomForWrite(bool force /* compact even if there is room? */)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Merge the write batches of queued writers into a single batch (possibly
  // tmp_batch_) so the group shares one WAL append and one memtable pass.
  // REQUIRES: mutex_ held; writer list non-empty; front writer has a batch.
  WriteBatch* BuildBatchGroup(Writer** last_writer)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Flush the immutable memtable to a level-0 table and install the result.
  Status CompactMemTable() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // --- Background-work orchestration -----------------------------------
  // One scheduler picks all background work. FillJobQueue() picks and
  // *claims* units under mutex_ — an LDC merge claims its lower file
  // (merges_in_flight_), a UDC compaction / tiered merge claims its input
  // file numbers (claimed_files_), the flush claims the single flush slot
  // (flush_claimed_) — so no two claimed jobs ever touch the same file.
  // Version installs, manifest writes, and frozen-file refcount decrements
  // all happen inside VersionSet::LogAndApply with mutex_ held, so they
  // stay serialized no matter how many jobs run. Two executors run the
  // claimed jobs through the same ExecuteBackgroundJob (a flush, or a merge
  // planner feeding the merge kernel, RunMerge below):
  //
  //  * Env::Schedule (no simulator): MaybeScheduleCompaction() hands up to
  //    max_background_jobs BGWork calls to the Env; each BackgroundCall()
  //    loops, executing queued jobs and refilling the queue until none
  //    remain. On PosixEnv the calls run on pool threads. The default
  //    Env::Schedule runs them inline before returning, which is why
  //    MaybeScheduleCompaction() releases the mutex around the call.
  //  * The simulator (sim_ != nullptr): MaybeScheduleCompaction() places
  //    each claimed job on its stream's channel timeline, costed by the
  //    job's bytes. The job runs when the virtual clock reaches it
  //    (SimContext::Pump / WaitForNextBackgroundJob / Drain, always called
  //    with mutex_ released), then frees its slot and runs the scheduling
  //    pass again. Single threaded and deterministic.
  //
  // The simulator differs from threads in five places only: the slot
  // limits and the link gate (both in FillJobQueue), the hand-over (timeline
  // vs Env::Schedule), how a waiter waits (WaitForBackgroundJob), and the
  // timeline drains in ~DBImpl and TEST_CompactRange.

  // A claimed unit of background work.
  struct BackgroundJob {
    int kind = 0;                      // BackgroundJobKind (db_impl.cc)
    uint64_t lower_file = 0;           // LDC merge: the claimed lower file
    Compaction* compaction = nullptr;  // UDC: picked compaction (owned)
    // File numbers held in claimed_files_ (UDC inputs / tiered group).
    std::vector<uint64_t> claims;
    // Device bytes, fixed at claim time: the simulator charges a flush for
    // writing them and a compaction-class job for reading and writing them.
    uint64_t bytes = 0;
  };

  void MaybeScheduleCompaction() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  // Picks and claims schedulable work units into job_queue_ until the slot
  // limits are reached or no non-conflicting unit remains. Runs LDC's link
  // phase and applies UDC trivial moves inline.
  void FillJobQueue() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  // UDC: applies trivial moves (pure metadata) until a pick needs data
  // work, and returns that compaction. Returns null when nothing needs
  // compacting, when every candidate is claimed, or once a background error
  // is set (a failed move leaves the tree unchanged, so picking again would
  // spin).
  Compaction* PickUdcCompaction() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  static void BGWork(void* db);
  void BackgroundCall();
  // Runs one claimed job inside the running-job counters and releases its
  // claims. Both executors call it.
  void ExecuteBackgroundJob(BackgroundJob* job)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  // Drops every queued (not yet handed over) job, releasing its claims, and
  // clears the LDC merge queue. Called on background error and shutdown.
  void AbortQueuedJobs() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  // Waits for one background job to finish. The simulator advances its
  // clock to the next job on the timeline and runs it; threads wait on
  // background_work_finished_signal_. Returns false, without waiting, when
  // no job is outstanding.
  bool WaitForBackgroundJob() EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // --- Merges -------------------------------------------------------------
  // One kernel runs the data work of every compaction style: merge-sort
  // the inputs, keep the newest visible version of each key, drop obsolete
  // tombstones, cut outputs at user-key boundaries, install the edit, and
  // report the job to every sink. Each style is a planner that pins its
  // inputs and fills in a MergePlan with only what differs. Planners and
  // the kernel hold mutex_ on entry/exit; the kernel drops it around the
  // merge I/O, and records the background error of a failed merge.
  void RunMerge(MergePlan* plan) EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // UDC: merge the picked compaction's level and level+1 inputs into
  // level+1. Deletes c.
  void DoUdcCompaction(Compaction* c) EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Tiered (lazy baseline): find a group of >= fan_out similarly-sized
  // level-0 files; merge them into one bigger level-0 file.
  std::vector<uint64_t> PickTieredGroup(uint64_t* total_bytes)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  void DoTieredMerge(const std::vector<uint64_t>& file_numbers)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // LDC: the two phases.
  // Performs link operations (metadata only) until the tree no longer
  // needs one or a merge gets queued; returns true if any metadata changed.
  // Metadata-only and therefore cheap enough to run on the foreground path.
  bool DoLdcLinkWork() EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  // Merge the given lower-level file with all its linked slices.
  void DoLdcMerge(uint64_t lower_file_number) EXCLUSIVE_LOCKS_REQUIRED(mutex_);
  void EnqueueLdcMerge(uint64_t lower_file_number)
      EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // Record one user operation for the adaptive-T_s controller (§III-B4).
  // Lock-free: reads call it without mutex_. `count` lets MultiGet record
  // a whole batch with one RMW.
  void ObserveOp(bool is_write, uint64_t count = 1);
  int EffectiveSliceThresholdLocked() const EXCLUSIVE_LOCKS_REQUIRED(mutex_);

  // --- Event notification ------------------------------------------------
  // Each helper fires the registered EventListeners and writes a line to
  // Options::info_log. Listeners run with mutex_ held and must not call
  // back into the DB. Durations are measured on Env::NowMicros() — the
  // simulator's virtual clock does not advance during synchronous data
  // work, so it cannot time the work itself.
  void NotifyFlushEvent(bool completed, const FlushJobInfo& info);
  void NotifyCompactionEvent(bool completed, const CompactionJobInfo& info);
  void NotifyLdcLink(const LdcLinkInfo& info);
  void NotifyLdcMerge(const LdcMergeInfo& info);
  void NotifyFrozenFileReclaimed(const FrozenFileReclaimedInfo& info);
  void NotifyWriteStall(WriteStallCause cause, uint64_t duration_micros);

  uint64_t NowMicros() const;
  void RecordBackgroundError(const Status& s);

  // Constant after construction.
  Env* const env_;
  const InternalKeyComparator internal_comparator_;
  const InternalFilterPolicy internal_filter_policy_;
  const Options options_;  // options_.comparator == &internal_comparator_
  const bool owns_cache_;
  const bool owns_info_log_;
  const std::string dbname_;

  TableCache* const table_cache_;

  // Lock over the persistent DB state. Non-null iff successfully acquired.
  FileLock* db_lock_;

  // State below is protected by mutex_ unless noted otherwise. Lock order:
  // mutex_ is the outermost lock; snapshots_mutex_ and other leaf mutexes
  // (table cache, block cache, Statistics histograms, FileLogger) may be
  // taken while holding it, never the reverse. See docs/CONCURRENCY.md.
  mutable std::mutex mutex_;
  std::atomic<bool> shutting_down_;
  // Signalled whenever a background work unit finishes (and on shutdown).
  std::condition_variable_any background_work_finished_signal_;
  MemTable* mem_;
  MemTable* imm_;                // Memtable being flushed
  std::atomic<bool> has_imm_;    // So background jobs can peek without lock
  WritableFile* logfile_;
  uint64_t logfile_number_;
  log::Writer* log_;

  // Queue of writers; front is the group-commit leader.
  std::deque<Writer*> writers_;
  WriteBatch* tmp_batch_;  // Scratch batch for group commit

  // The snapshot list lives behind its own small leaf mutex so snapshot
  // churn from read-heavy clients never contends with the write path.
  // Lock order: mutex_ (if held) before snapshots_mutex_.
  mutable std::mutex snapshots_mutex_;
  SnapshotList snapshots_;  // Protected by snapshots_mutex_.

  // Set of table files to protect from deletion because they are
  // part of ongoing compactions.
  std::set<uint64_t> pending_outputs_;
  // True when the last RemoveObsoleteFiles ran while a version older than
  // current was referenced (say, by an iterator): the tables only that
  // version held are still on disk, and WaitForIdle sweeps again.
  bool obsolete_files_pinned_ = false;

  // Jobs handed to an executor and not yet finished. Without the simulator:
  // BGWork calls scheduled or running (at most max_background_jobs). With
  // it: claimed jobs on the device timeline (see FillJobQueue's slot
  // limits).
  int bg_jobs_scheduled_;
  // Number of work units currently executing (always <= bg_jobs_scheduled_).
  int bg_jobs_running_ = 0;
  // Claimed jobs not yet handed to an executor. The simulator places them on
  // its timeline in the same scheduling pass, so it leaves none here.
  std::deque<BackgroundJob> job_queue_;
  // Claim table — see the orchestration comment above.
  bool flush_claimed_ = false;
  std::set<uint64_t> merges_in_flight_;  // LDC lower files (queued + running)
  std::set<uint64_t> claimed_files_;     // UDC / tiered input file numbers
  // LDC merges currently executing, and the high-water mark over the DB's
  // lifetime (the "ldc.parallel-merges" property).
  int running_ldc_merges_ = 0;
  int max_parallel_merges_ = 0;
  // Set while TEST_CompactRange runs a manual compaction inline; blocks
  // MaybeScheduleCompaction from launching competing jobs.
  bool manual_compaction_active_ = false;

  // LDC: lower files waiting for their merge to be claimed, FIFO.
  std::deque<uint64_t> pending_merges_;
  std::set<uint64_t> pending_merge_set_;

  // Adaptive-T_s controller state. Lock-free: counters advance with
  // relaxed RMWs from any thread; whichever thread crosses the window
  // boundary takes window_roll_lock_ (a spin flag, never contended for
  // long) to fold the window into the smoothed fraction.
  std::atomic<uint64_t> window_writes_;
  std::atomic<uint64_t> window_reads_;
  std::atomic<double> smoothed_write_fraction_;
  std::atomic_flag window_roll_lock_ = ATOMIC_FLAG_INIT;

  // Lock-free read-path state — see the ReadState comment above.
  std::atomic<uint64_t> read_state_packed_{0};
  // Number of times a read-path release fell back to mutex_ to tear down
  // a retired ReadState ("ldc.readstate-deferred-cleanups" property).
  // During a quiescent read-only phase this stays flat, which is the
  // test-visible proof that the Get hot path takes zero locks.
  std::atomic<uint64_t> readstate_deferred_cleanups_{0};

  // Have we encountered a background error in paranoid mode?
  Status bg_error_;

  VersionSet* versions_;

  SimContext* const sim_;
  Statistics* const stats_;

  // --- Tracing (see ldc/trace.h) ----------------------------------------
  // All fields below are no-ops when tracer_ is null (one branch per site).
  Tracer* const tracer_;
  // Basename of dbname_ ("shard-3", "benchdb", ...) stamped into every
  // span's label so per-shard activity is identifiable on one timeline.
  std::string trace_label_;
  // Flow handoffs, all protected by mutex_:
  // flow id emitted by the memtable switch in MakeRoomForWrite and consumed
  // by the flush job span (foreground cause -> background flush);
  uint64_t pending_flush_flow_ = 0;
  // flow id emitted by EnqueueLdcMerge, keyed by lower file number, and
  // consumed by that file's DoLdcMerge span (link decision -> merge job);
  std::unordered_map<uint64_t, uint64_t> pending_merge_flow_;
  // flow id of the most recently completed background job; a write that
  // was stalled reads it after waking so its stall span flow-links to the
  // job that unblocked it.
  uint64_t last_unblocker_flow_ = 0;
};

// Sanitize db options. The caller should delete result.filter_policy if
// it is not equal to src.filter_policy.
Options SanitizeOptions(const std::string& db,
                        const InternalKeyComparator* icmp,
                        const InternalFilterPolicy* ipolicy,
                        const Options& src);

// InvalidArgument if one Cache object serves as both the block cache and
// the table-handle cache. A table's deleter runs under a table-cache shard
// mutex and erases the table's blocks from the block cache, which would
// take that shard mutex a second time (docs/CONCURRENCY.md, lock order).
Status CheckCacheRoles(const std::string& db, const Options& options);

}  // namespace ldc

#endif  // LDC_DB_DB_IMPL_H_
