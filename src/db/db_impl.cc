#include "db/db_impl.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <set>
#include <vector>

#include "db/builder.h"
#include "db/compaction.h"
#include "db/db_iter.h"
#include "db/dbformat.h"
#include "db/filename.h"
#include "db/ldc_links.h"
#include "db/table_cache.h"
#include "db/version_edit.h"
#include "db/version_set.h"
#include "db/write_batch_internal.h"
#include "ldc/cache.h"
#include "ldc/env.h"
#include "ldc/perf_context.h"
#include "ldc/sharded_db.h"
#include "ldc/sim.h"
#include "ldc/statistics.h"
#include "ldc/trace.h"
#include "ldc/write_batch.h"
#include "memtbl/memtable.h"
#include "table/merger.h"
#include "table/table_builder.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/json.h"
#include "util/logging.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"

namespace ldc {

namespace {

// Background job kinds (see DBImpl::RunBackgroundJob).
enum BackgroundJobKind {
  kJobFlush = 0,
  kJobUdcCompaction = 1,
  kJobLdcMerge = 2,
  kJobTieredMerge = 3,
};

// CPU cost constants for the simulator's virtual clock (microseconds).
constexpr double kMemTableInsertCpuUs = 1.0;
constexpr double kPointLookupCpuUs = 1.5;

template <class T, class V>
static void ClipToRange(T* ptr, V minvalue, V maxvalue) {
  if (static_cast<V>(*ptr) > maxvalue) *ptr = maxvalue;
  if (static_cast<V>(*ptr) < minvalue) *ptr = minvalue;
}

// Renders a finished job's accumulated per-stage times as three consecutive
// sub-spans under the job span (read | merge | write). The stages interleave
// inside the merge loop; what lands on the timeline is each stage's
// aggregate share of the job — the quantity intra-merge pipelining work
// needs to compare. Durations come from Env::NowMicros (deterministic
// counter under the in-memory Env, wall time elsewhere).
void EmitStageSpans(TraceSpan* span, const char* label, uint64_t read_us,
                    uint64_t merge_us, uint64_t write_us) {
  if (!span->active()) return;
  Tracer* tracer = span->tracer();
  const TraceCat cat = span->cat();
  const uint64_t ts = span->start_ts();
  tracer->Complete(cat, "stage.read", ts, read_us, label);
  tracer->Complete(cat, "stage.merge", ts + read_us, merge_us, label);
  tracer->Complete(cat, "stage.write", ts + read_us + merge_us, write_us,
                   label);
}

}  // namespace

// Information kept for every waiting writer in the group-commit queue.
// The front of writers_ is the leader: it builds the batch group, appends
// one WAL record for everyone and applies the group to the memtable while
// the mutex is released; followers wait on their own condition variable.
struct DBImpl::Writer {
  Writer() : batch(nullptr), sync(false), done(false) {}

  Status status;
  WriteBatch* batch;
  bool sync;
  bool done;
  std::condition_variable_any cv;
};

Options SanitizeOptions(const std::string& dbname,
                        const InternalKeyComparator* icmp,
                        const InternalFilterPolicy* ipolicy,
                        const Options& src) {
  Options result = src;
  result.comparator = icmp;
  result.filter_policy = (src.filter_policy != nullptr) ? ipolicy : nullptr;
  ClipToRange(&result.max_open_files, 64 + 10, 50000);
  ClipToRange(&result.write_buffer_size, 16 << 10, 1 << 30);
  ClipToRange(&result.max_file_size, 16 << 10, 1 << 30);
  ClipToRange(&result.block_size, 256, 4 << 20);
  ClipToRange(&result.fan_out, 2, 1000);
  ClipToRange(&result.num_levels, 2, config::kMaxNumLevels);
  ClipToRange(&result.max_background_jobs, 1, 64);
  ClipToRange(&result.block_cache_capacity, 64 << 10, 1 << 30);
  if (result.block_cache == nullptr) {
    result.block_cache = NewLRUCache(result.block_cache_capacity);
  }
  if (result.info_log == nullptr) {
    // Open a LOG file in the DB directory, rotating the previous one to
    // LOG.old. The caller (DBImpl) owns the created logger.
    result.env->CreateDir(dbname);  // In case the DB does not exist yet.
    result.env->RenameFile(InfoLogFileName(dbname),
                           OldInfoLogFileName(dbname));
    Status s = NewFileLogger(result.env, InfoLogFileName(dbname),
                             &result.info_log);
    if (!s.ok()) {
      result.info_log = nullptr;  // No place suitable for logging.
    }
  }
  return result;
}

Status CheckCacheRoles(const std::string& db, const Options& options) {
  if (options.block_cache != nullptr &&
      options.block_cache == options.table_handle_cache) {
    return Status::InvalidArgument(
        db, "block_cache and table_handle_cache must be different caches");
  }
  return Status::OK();
}

static int TableCacheSize(const Options& sanitized_options) {
  // Reserve ten files or so for other uses and give the rest to TableCache.
  return sanitized_options.max_open_files - 10;
}

DBImpl::DBImpl(const Options& raw_options, const std::string& dbname)
    : env_(raw_options.env),
      internal_comparator_(raw_options.comparator),
      internal_filter_policy_(raw_options.filter_policy),
      options_(SanitizeOptions(dbname, &internal_comparator_,
                               &internal_filter_policy_, raw_options)),
      owns_cache_(raw_options.block_cache == nullptr),
      owns_info_log_(raw_options.info_log == nullptr),
      dbname_(dbname),
      table_cache_(new TableCache(dbname_, options_, TableCacheSize(options_))),
      db_lock_(nullptr),
      shutting_down_(false),
      mem_(nullptr),
      imm_(nullptr),
      has_imm_(false),
      logfile_(nullptr),
      logfile_number_(0),
      log_(nullptr),
      tmp_batch_(new WriteBatch),
      bg_jobs_scheduled_(0),
      window_writes_(0),
      window_reads_(0),
      smoothed_write_fraction_(0.5),
      versions_(nullptr),
      sim_(raw_options.sim),
      stats_(raw_options.statistics),
      tracer_(raw_options.tracer) {
  versions_ = new VersionSet(dbname_, &options_, table_cache_,
                             &internal_comparator_);
  const size_t slash = dbname_.find_last_of('/');
  trace_label_ =
      slash == std::string::npos ? dbname_ : dbname_.substr(slash + 1);
}

DBImpl::~DBImpl() {
  // Finish any scheduled-but-unapplied simulated background work so the
  // on-disk state is consistent with the manifest (the simulator is single
  // threaded, so Drain leaves no job outstanding).
  if (sim_ != nullptr) {
    sim_->Drain();
  }

  // Signal shutdown and wait for all in-flight background calls to notice
  // it and finish. Job bodies poll shutting_down_ at safe points and bail
  // out; jobs still queued when the workers exit are dropped below.
  mutex_.lock();
  shutting_down_.store(true, std::memory_order_release);
  while (bg_jobs_scheduled_ > 0) {
    background_work_finished_signal_.wait(mutex_);
  }
  AbortQueuedJobs();
  // Unpublish the read state before the version set and memtables are
  // torn down; by contract no reader may still be in flight here.
  RetireReadStateForShutdown();
  mutex_.unlock();

  delete versions_;
  if (mem_ != nullptr) mem_->Unref();
  if (imm_ != nullptr) imm_->Unref();
  delete tmp_batch_;
  delete log_;
  delete logfile_;
  delete table_cache_;

  if (db_lock_ != nullptr) {
    env_->UnlockFile(db_lock_);
  }

  if (owns_cache_) {
    // SanitizeOptions created this cache on the caller's behalf.
    delete options_.block_cache;
  }
  if (owns_info_log_) {
    // SanitizeOptions created this logger on the caller's behalf.
    delete options_.info_log;
  }
}

Status DBImpl::NewDB() {
  VersionEdit new_db;
  new_db.SetComparatorName(internal_comparator_.user_comparator()->Name());
  new_db.SetLogNumber(0);
  new_db.SetNextFile(2);
  new_db.SetLastSequence(0);

  const std::string manifest = DescriptorFileName(dbname_, 1);
  WritableFile* file;
  Status s = env_->NewWritableFile(manifest, &file);
  if (!s.ok()) {
    return s;
  }
  {
    log::Writer log(file);
    std::string record;
    new_db.EncodeTo(&record);
    s = log.AddRecord(record);
    if (s.ok()) {
      s = file->Sync();
    }
    if (s.ok()) {
      s = file->Close();
    }
  }
  delete file;
  if (s.ok()) {
    // Make "CURRENT" file that points to the new manifest file.
    s = SetCurrentFile(env_, dbname_, 1);
  } else {
    env_->RemoveFile(manifest);
  }
  return s;
}

void DBImpl::RemoveObsoleteFiles() {
  if (!bg_error_.ok()) {
    // After a background error, we don't know whether a new version may
    // or may not have been committed, so we cannot safely garbage collect.
    return;
  }

  // Make a set of all of the live files
  std::set<uint64_t> live = pending_outputs_;
  versions_->AddLiveFiles(&live);

  std::vector<std::string> filenames;
  env_->GetChildren(dbname_, &filenames);  // Ignoring errors on purpose
  uint64_t number;
  FileType type;
  std::vector<std::string> files_to_delete;
  for (std::string& filename : filenames) {
    if (ParseFileName(filename, &number, &type)) {
      bool keep = true;
      switch (type) {
        case kLogFile:
          keep = ((number >= versions_->LogNumber()) ||
                  (number == versions_->PrevLogNumber()));
          break;
        case kDescriptorFile:
          // Keep my manifest file, and any newer incarnations'
          // (in case there is a race that allows other incarnations)
          keep = (number >= versions_->ManifestFileNumber());
          break;
        case kTableFile:
          keep = (live.find(number) != live.end());
          break;
        case kTempFile:
          // Any temp files that are currently being written to must
          // be recorded in pending_outputs_, which is inserted into "live"
          keep = (live.find(number) != live.end());
          break;
        case kCurrentFile:
        case kDBLockFile:
        case kInfoLogFile:
          keep = true;
          break;
      }

      if (!keep) {
        files_to_delete.push_back(std::move(filename));
        if (type == kTableFile) {
          table_cache_->Evict(number);
        }
      }
    }
  }

  // While deleting all files, foreground threads can continue: everything
  // in files_to_delete is already gone from the live set.
  mutex_.unlock();
  for (const std::string& filename : files_to_delete) {
    env_->RemoveFile(dbname_ + "/" + filename);
  }
  mutex_.lock();
}

Status DBImpl::Recover(VersionEdit* edit, bool* save_manifest,
                       std::vector<FlushJobInfo>* flushes) {
  // Ignore error from CreateDir since the creation of the DB is
  // committed only when the descriptor file is created, and this directory
  // may already exist from a previous failed creation attempt.
  env_->CreateDir(dbname_);
  assert(db_lock_ == nullptr);
  Status s = env_->LockFile(LockFileName(dbname_), &db_lock_);
  if (!s.ok()) {
    return s;
  }

  if (!env_->FileExists(CurrentFileName(dbname_))) {
    if (options_.create_if_missing) {
      s = NewDB();
      if (!s.ok()) {
        return s;
      }
    } else {
      return Status::InvalidArgument(
          dbname_, "does not exist (create_if_missing is false)");
    }
  } else {
    if (options_.error_if_exists) {
      return Status::InvalidArgument(dbname_,
                                     "exists (error_if_exists is true)");
    }
  }

  s = versions_->Recover(save_manifest);
  if (!s.ok()) {
    return s;
  }
  SequenceNumber max_sequence(0);

  // Recover from all newer log files than the ones named in the
  // descriptor (new log files may have been added by the previous
  // incarnation without registering them in the descriptor).
  const uint64_t min_log = versions_->LogNumber();
  const uint64_t prev_log = versions_->PrevLogNumber();
  std::vector<std::string> filenames;
  s = env_->GetChildren(dbname_, &filenames);
  if (!s.ok()) {
    return s;
  }
  std::set<uint64_t> expected;
  versions_->AddLiveFiles(&expected);
  uint64_t number;
  FileType type;
  std::vector<uint64_t> logs;
  for (size_t i = 0; i < filenames.size(); i++) {
    if (ParseFileName(filenames[i], &number, &type)) {
      expected.erase(number);
      if (type == kLogFile && ((number >= min_log) || (number == prev_log)))
        logs.push_back(number);
    }
  }
  if (!expected.empty()) {
    char buf[50];
    std::snprintf(buf, sizeof(buf), "%d missing files; e.g.",
                  static_cast<int>(expected.size()));
    return Status::Corruption(buf, TableFileName(dbname_, *(expected.begin())));
  }

  // Recover in the order in which the logs were generated
  std::sort(logs.begin(), logs.end());
  for (size_t i = 0; i < logs.size(); i++) {
    s = RecoverLogFile(logs[i], (i == logs.size() - 1), save_manifest, edit,
                       &max_sequence, flushes);
    if (!s.ok()) {
      return s;
    }

    // The previous incarnation may not have written any MANIFEST
    // records after allocating this log number. So we manually
    // update the file number allocation counter in VersionSet.
    versions_->MarkFileNumberUsed(logs[i]);
  }

  if (versions_->LastSequence() < max_sequence) {
    versions_->SetLastSequence(max_sequence);
  }

  return Status::OK();
}

Status DBImpl::RecoverLogFile(uint64_t log_number, bool last_log,
                              bool* save_manifest, VersionEdit* edit,
                              SequenceNumber* max_sequence,
                              std::vector<FlushJobInfo>* flushes) {
  struct LogReporter : public log::Reader::Reporter {
    const char* fname;
    Status* status;  // null if options_.paranoid_checks==false
    void Corruption(size_t bytes, const Status& s) override {
      std::fprintf(stderr, "%s: dropping %d bytes; %s\n", fname,
                   static_cast<int>(bytes), s.ToString().c_str());
      if (this->status != nullptr && this->status->ok()) *this->status = s;
    }
  };

  // Open the log file
  std::string fname = LogFileName(dbname_, log_number);
  SequentialFile* file;
  Status status = env_->NewSequentialFile(fname, &file);
  if (!status.ok()) {
    return status;
  }

  // Create the log reader.
  LogReporter reporter;
  reporter.fname = fname.c_str();
  reporter.status = (options_.paranoid_checks ? &status : nullptr);
  // We intentionally make log::Reader do checksumming even if
  // paranoid_checks==false so that corruptions cause entire commits
  // to be skipped instead of propagating bad information (like overly
  // large sequence numbers).
  log::Reader reader(file, &reporter, true /*checksum*/, 0 /*initial_offset*/);

  // Read all the records and add to a memtable
  std::string scratch;
  Slice record;
  WriteBatch batch;
  int compactions = 0;
  MemTable* mem = nullptr;
  while (reader.ReadRecord(&record, &scratch) && status.ok()) {
    if (record.size() < 12) {
      reporter.Corruption(record.size(),
                          Status::Corruption("log record too small"));
      continue;
    }
    WriteBatchInternal::SetContents(&batch, record);

    if (mem == nullptr) {
      mem = new MemTable(internal_comparator_);
      mem->Ref();
    }
    status = WriteBatchInternal::InsertInto(&batch, mem);
    if (!status.ok()) {
      break;
    }
    const SequenceNumber last_seq = WriteBatchInternal::Sequence(&batch) +
                                    WriteBatchInternal::Count(&batch) - 1;
    if (last_seq > *max_sequence) {
      *max_sequence = last_seq;
    }

    if (mem->ApproximateMemoryUsage() > options_.write_buffer_size) {
      compactions++;
      *save_manifest = true;
      flushes->emplace_back();
      status = WriteLevel0Table(mem, edit, nullptr, &flushes->back());
      mem->Unref();
      mem = nullptr;
      if (!status.ok()) {
        // Reflect errors immediately so that conditions like full
        // file-systems cause the DB::Open() to fail.
        break;
      }
    }
  }

  delete file;

  // See if we should keep reusing the last log file.
  if (status.ok() && last_log && compactions == 0 && mem != nullptr &&
      mem->ApproximateMemoryUsage() == 0) {
    // Empty log file: nothing to save.
  }

  if (mem != nullptr) {
    // mem did not get reused; compact it.
    if (status.ok()) {
      *save_manifest = true;
      flushes->emplace_back();
      status = WriteLevel0Table(mem, edit, nullptr, &flushes->back());
    }
    mem->Unref();
  }

  return status;
}

Status DBImpl::WriteLevel0Table(MemTable* mem, VersionEdit* edit,
                                Version* base, FlushJobInfo* flushed) {
  FileMetaData meta;
  meta.number = versions_->NewFileNumber();
  pending_outputs_.insert(meta.number);
  Iterator* iter = mem->NewIterator();

  const uint64_t start_us = env_->NowMicros();
  {
    FlushJobInfo info;
    info.db_name = dbname_;
    info.file_number = meta.number;
    info.micros = start_us;
    NotifyFlushEvent(false, info);
  }

  Status s;
  {
    // The table build is the expensive part; run it with the lock released
    // so foreground reads and writes proceed while the flush is in flight.
    mutex_.unlock();
    s = BuildTable(dbname_, env_, options_, table_cache_, iter, &meta,
                   WriteHint::kFlush);
    mutex_.lock();
  }
  delete iter;
  pending_outputs_.erase(meta.number);

  // Note that if file_size is zero, the file has been deleted and
  // should not be added to the manifest.
  int level = 0;
  if (s.ok() && meta.file_size > 0) {
    const Slice min_user_key = meta.smallest.user_key();
    const Slice max_user_key = meta.largest.user_key();
    if (base != nullptr) {
      level = base->PickLevelForMemTableOutput(min_user_key, max_user_key);
    }
    edit->AddFile(level, meta.number, meta.file_size, meta.smallest,
                  meta.largest);
    const uint64_t duration = env_->NowMicros() - start_us;
    flushed->db_name = dbname_;
    flushed->file_number = meta.number;
    flushed->bytes_written = meta.file_size;
    flushed->output_level = level;
    flushed->micros = env_->NowMicros();
    flushed->duration_micros = duration;
  }

  return s;
}

void DBImpl::ReportFlush(const FlushJobInfo& info) {
  if (info.bytes_written == 0) return;  // No table was written.
  if (stats_ != nullptr) {
    stats_->Record(kFlushes);
    stats_->Record(kFlushWriteBytes, info.bytes_written);
  }
  versions_->AddFlushStats(info.bytes_written, info.duration_micros);
  NotifyFlushEvent(true, info);
}

Status DBImpl::CompactMemTable() {
  assert(imm_ != nullptr);
  TraceSpan span(tracer_, TraceCat::kFlush, "job.flush");
  span.SetLabel(trace_label_);
  if (pending_flush_flow_ != 0) {
    // Link back to the memtable switch that made this flush necessary.
    span.SetFlowIn(pending_flush_flow_);
    pending_flush_flow_ = 0;
  }

  // Save the contents of the memtable as a new Table
  VersionEdit edit;
  Version* base = versions_->current();
  base->Ref();
  FlushJobInfo flushed;
  Status s = WriteLevel0Table(imm_, &edit, base, &flushed);
  base->Unref();

  if (s.ok() && shutting_down_.load(std::memory_order_acquire)) {
    s = Status::IOError("Deleting DB during memtable compaction");
  }

  // Replace immutable memtable with the generated Table
  if (s.ok()) {
    edit.SetPrevLogNumber(0);
    edit.SetLogNumber(logfile_number_);  // Earlier logs no longer needed
    s = versions_->LogAndApply(&edit);
  }

  if (s.ok()) {
    // Commit to the new state
    imm_->Unref();
    imm_ = nullptr;
    has_imm_.store(false, std::memory_order_release);
    PublishReadState();  // imm_ and current version both changed.
    ReportFlush(flushed);
    // Freeing imm_ is what clears memtable-limit stalls: expose this span's
    // flow id so a woken writer's stall span can point back at it.
    last_unblocker_flow_ = span.EmitFlowOut();
    RemoveObsoleteFiles();
  } else {
    RecordBackgroundError(s);
  }
  return s;
}

void DBImpl::RecordBackgroundError(const Status& s) {
  if (bg_error_.ok()) {
    bg_error_ = s;
    Log(options_.info_log, "background error, aborting queued jobs: %s",
        s.ToString().c_str());
    // Abort everything that has not started yet: after a background error
    // the DB must not install further results on top of a suspect state,
    // so every queued job (not just the failing one) is dropped. Jobs
    // already executing re-check bg_error_ under mutex_ before their
    // install step and abort themselves.
    AbortQueuedJobs();
    background_work_finished_signal_.notify_all();
  }
}

void DBImpl::AbortQueuedJobs() {
  for (BackgroundJob& job : job_queue_) {
    switch (job.kind) {
      case kJobFlush:
        flush_claimed_ = false;
        break;
      case kJobLdcMerge:
        merges_in_flight_.erase(job.lower_file);
        break;
      case kJobUdcCompaction:
        for (uint64_t n : job.claims) claimed_files_.erase(n);
        delete job.compaction;  // Unrefs the pinned input version.
        job.compaction = nullptr;
        break;
      case kJobTieredMerge:
        for (uint64_t n : job.claims) claimed_files_.erase(n);
        break;
      default:
        assert(false);
    }
  }
  job_queue_.clear();
  pending_merges_.clear();
  pending_merge_set_.clear();
  pending_merge_flow_.clear();
}

uint64_t DBImpl::NowMicros() const {
  return sim_ != nullptr ? sim_->NowMicros() : env_->NowMicros();
}

void DBImpl::ObserveOp(bool is_write, uint64_t count) {
  // Lock-free so the read path can call it without mutex_: counters
  // advance with relaxed RMWs, and whichever thread crosses the window
  // boundary folds the window into the smoothed fraction under a spin
  // flag (uncontended except at the roll instant). A single-threaded
  // (simulation) run rolls at exactly the same operation as the old
  // mutex-guarded code, keeping sim output bit-for-bit identical.
  uint64_t writes, reads;
  if (is_write) {
    writes =
        window_writes_.fetch_add(count, std::memory_order_relaxed) + count;
    reads = window_reads_.load(std::memory_order_relaxed);
  } else {
    reads = window_reads_.fetch_add(count, std::memory_order_relaxed) + count;
    writes = window_writes_.load(std::memory_order_relaxed);
  }
  if (writes + reads >= 1024 &&
      !window_roll_lock_.test_and_set(std::memory_order_acquire)) {
    const uint64_t w = window_writes_.exchange(0, std::memory_order_relaxed);
    const uint64_t r = window_reads_.exchange(0, std::memory_order_relaxed);
    const uint64_t total = w + r;
    if (total > 0) {
      const double frac = static_cast<double>(w) / static_cast<double>(total);
      smoothed_write_fraction_.store(
          0.7 * smoothed_write_fraction_.load(std::memory_order_relaxed) +
              0.3 * frac,
          std::memory_order_relaxed);
    }
    window_roll_lock_.clear(std::memory_order_release);
  }
}

int DBImpl::EffectiveSliceThreshold() const {
  std::lock_guard<std::mutex> l(mutex_);
  return EffectiveSliceThresholdLocked();
}

int DBImpl::EffectiveSliceThresholdLocked() const {
  const int base = options_.slice_link_threshold > 0
                       ? options_.slice_link_threshold
                       : options_.fan_out;
  if (!options_.adaptive_slice_threshold) {
    return base;
  }
  // §III-B4: small T_s for read-dominated phases (fewer slices to probe),
  // large T_s for write-dominated phases (less write amplification).
  const double w = smoothed_write_fraction_.load(std::memory_order_relaxed);
  const int max_threshold = 2 * options_.fan_out;
  int t = static_cast<int>(2 + (max_threshold - 2) * w + 0.5);
  if (t < 2) t = 2;
  if (t > max_threshold) t = max_threshold;
  return t;
}

// ---------------------------------------------------------------------------
// Lock-free read path: ReadState acquire / release / publish
//
// The packed word read_state_packed_ holds [external count:16 | ptr:48].
// Acquire: one fetch_add bumps the external count (guaranteeing the state
// outlives us), the claim is immediately moved into the state's internal
// refcount, and the external ref is removed again — either by CAS on the
// unchanged word, or implicitly by a concurrent publish that absorbed it
// (in which case the duplicate internal ref is dropped). Release is a
// plain internal decrement; only the last release of a *retired* state
// falls back to mutex_ to unref its pins. The external count is bounded
// by the number of concurrently-acquiring threads (each clears its ref
// before returning), so 16 bits never overflow in practice.
// ---------------------------------------------------------------------------

DBImpl::ReadState* DBImpl::AcquireReadState() {
  const uint64_t old = read_state_packed_.fetch_add(
      kReadStateExternalRef, std::memory_order_acquire);
  ReadState* state =
      reinterpret_cast<ReadState*>(old & kReadStatePointerMask);
  assert(state != nullptr);  // DB::Open publishes before any read.
  // Move our claim into the internal counter, where ReleaseReadState can
  // drop it without ever touching the packed word again.
  state->refs.fetch_add(1, std::memory_order_relaxed);
  uint64_t cur = old + kReadStateExternalRef;
  while ((cur & kReadStatePointerMask) == (old & kReadStatePointerMask)) {
    assert((cur >> kReadStatePointerBits) > 0);
    if (read_state_packed_.compare_exchange_weak(
            cur, cur - kReadStateExternalRef, std::memory_order_acq_rel,
            std::memory_order_acquire)) {
      if (stats_ != nullptr) stats_->AddGauge(kReadStatePinned, 1);
      return state;
    }
  }
  // A publisher replaced the word and transferred every external ref —
  // including ours — into state->refs, so we are counted twice; drop the
  // duplicate. This cannot be the last ref: the self-added one is still
  // ours.
  const int64_t before = state->refs.fetch_sub(1, std::memory_order_acq_rel);
  assert(before >= 2);
  (void)before;
  if (stats_ != nullptr) stats_->AddGauge(kReadStatePinned, 1);
  return state;
}

void DBImpl::ReleaseReadState(ReadState* state) {
  if (stats_ != nullptr) stats_->SubGauge(kReadStatePinned, 1);
  if (state->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    // Last reference to a retired state (the current state always holds
    // the publish bias, so this never fires on the hot path): deferred
    // unref of its pins — the only place a read ever takes mutex_.
    readstate_deferred_cleanups_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> l(mutex_);
    DeleteReadStateLocked(state);
  }
}

void DBImpl::DeleteReadStateLocked(ReadState* state) {
  assert(state->refs.load(std::memory_order_relaxed) == 0);
  state->mem->Unref();
  if (state->imm != nullptr) state->imm->Unref();
  state->version->Unref();
  delete state;
}

void DBImpl::PublishReadState() {
  assert(mem_ != nullptr);
  ReadState* state = new ReadState;
  state->mem = mem_;
  mem_->Ref();
  state->imm = imm_;
  if (imm_ != nullptr) imm_->Ref();
  state->version = versions_->current();
  state->version->Ref();
  state->published_sequence = versions_->LastSequence();
  state->refs.store(1, std::memory_order_relaxed);  // Publish bias.

  const uint64_t raw = reinterpret_cast<uint64_t>(state);
  assert((raw & ~kReadStatePointerMask) == 0);  // Fits in 48 pointer bits.
  const uint64_t old =
      read_state_packed_.exchange(raw, std::memory_order_acq_rel);
  ReadState* prev = reinterpret_cast<ReadState*>(old & kReadStatePointerMask);
  if (prev == nullptr) return;  // First publish (DB::Open).
  const int64_t external = static_cast<int64_t>(old >> kReadStatePointerBits);
  // One RMW transfers every in-flight external ref into the internal
  // count and drops the publish bias. Zero means no reader holds prev.
  const int64_t before =
      prev->refs.fetch_add(external - 1, std::memory_order_acq_rel);
  if (before + external - 1 == 0) {
    DeleteReadStateLocked(prev);  // mutex_ already held.
  }
}

void DBImpl::RetireReadStateForShutdown() {
  const uint64_t old = read_state_packed_.exchange(0, std::memory_order_acq_rel);
  ReadState* prev = reinterpret_cast<ReadState*>(old & kReadStatePointerMask);
  if (prev == nullptr) return;  // Open failed before the first publish.
  const int64_t external = static_cast<int64_t>(old >> kReadStatePointerBits);
  assert(external == 0);  // No read may be in flight during ~DBImpl.
  const int64_t before =
      prev->refs.fetch_add(external - 1, std::memory_order_acq_rel);
  if (before + external - 1 == 0) {
    DeleteReadStateLocked(prev);
  }
  // A non-zero residue would mean a reader outlived the DB, which the
  // API forbids (iterators must be deleted before the DB).
}

// ---------------------------------------------------------------------------
// Event notification & info log
// ---------------------------------------------------------------------------

const char* WriteStallCauseName(WriteStallCause cause) {
  switch (cause) {
    case WriteStallCause::kL0SlowdownTrigger:
      return "l0-slowdown";
    case WriteStallCause::kL0StopTrigger:
      return "l0-stop";
    case WriteStallCause::kMemtableLimit:
      return "memtable-limit";
  }
  return "unknown";
}

static const char* CompactionStyleName(CompactionStyle style) {
  switch (style) {
    case CompactionStyle::kUdc:
      return "udc";
    case CompactionStyle::kLdc:
      return "ldc";
    case CompactionStyle::kTiered:
      return "tiered";
  }
  return "unknown";
}

void DBImpl::NotifyFlushEvent(bool completed, const FlushJobInfo& info) {
  for (EventListener* listener : options_.listeners) {
    if (completed) {
      listener->OnFlushCompleted(info);
    } else {
      listener->OnFlushBegin(info);
    }
  }
  if (completed) {
    Log(options_.info_log,
        "flush finished: table #%llu -> level %d, %llu bytes, %llu us",
        static_cast<unsigned long long>(info.file_number), info.output_level,
        static_cast<unsigned long long>(info.bytes_written),
        static_cast<unsigned long long>(info.duration_micros));
  } else {
    Log(options_.info_log, "flush started");
  }
}

void DBImpl::NotifyCompactionEvent(bool completed,
                                   const CompactionJobInfo& info) {
  for (EventListener* listener : options_.listeners) {
    if (completed) {
      listener->OnCompactionCompleted(info);
    } else {
      listener->OnCompactionBegin(info);
    }
  }
  if (completed) {
    Log(options_.info_log,
        "compaction (%s) finished: L%d -> L%d, %d in / %d out files, "
        "%llu read / %llu written bytes, %llu us",
        CompactionStyleName(info.style), info.input_level, info.output_level,
        info.num_input_files, info.num_output_files,
        static_cast<unsigned long long>(info.bytes_read),
        static_cast<unsigned long long>(info.bytes_written),
        static_cast<unsigned long long>(info.duration_micros));
  } else {
    Log(options_.info_log,
        "compaction (%s) started: L%d -> L%d, %d input files, ~%llu bytes",
        CompactionStyleName(info.style), info.input_level, info.output_level,
        info.num_input_files,
        static_cast<unsigned long long>(info.bytes_read));
  }
}

void DBImpl::NotifyLdcLink(const LdcLinkInfo& info) {
  for (EventListener* listener : options_.listeners) {
    listener->OnLdcLink(info);
  }
  if (info.trivial_move) {
    Log(options_.info_log,
        "ldc link: trivial move of table #%llu from L%d (%llu bytes)",
        static_cast<unsigned long long>(info.upper_file_number),
        info.upper_level,
        static_cast<unsigned long long>(info.upper_file_bytes));
  } else {
    Log(options_.info_log,
        "ldc link: froze table #%llu from L%d (%llu bytes), %d slices",
        static_cast<unsigned long long>(info.upper_file_number),
        info.upper_level,
        static_cast<unsigned long long>(info.upper_file_bytes),
        info.num_slices);
  }
}

void DBImpl::NotifyLdcMerge(const LdcMergeInfo& info) {
  for (EventListener* listener : options_.listeners) {
    listener->OnLdcMerge(info);
  }
  Log(options_.info_log,
      "ldc merge: table #%llu at L%d + %d slices -> %d tables, "
      "%llu read / %llu written bytes, %d frozen reclaimed, %llu us",
      static_cast<unsigned long long>(info.lower_file_number), info.level,
      info.num_slices, info.num_output_files,
      static_cast<unsigned long long>(info.bytes_read),
      static_cast<unsigned long long>(info.bytes_written),
      info.frozen_files_reclaimed,
      static_cast<unsigned long long>(info.duration_micros));
}

void DBImpl::NotifyFrozenFileReclaimed(const FrozenFileReclaimedInfo& info) {
  for (EventListener* listener : options_.listeners) {
    listener->OnFrozenFileReclaimed(info);
  }
  if (tracer_ != nullptr) {
    tracer_->Instant(TraceCat::kLdc, "ldc.frozen_reclaimed",
                     trace_label_.c_str());
  }
  Log(options_.info_log, "frozen file reclaimed: #%llu (%llu bytes)",
      static_cast<unsigned long long>(info.file_number),
      static_cast<unsigned long long>(info.file_size));
}

void DBImpl::NotifyWriteStall(WriteStallCause cause,
                              uint64_t duration_micros) {
  WriteStallInfo info;
  info.db_name = dbname_;
  info.cause = cause;
  info.micros = env_->NowMicros();
  info.duration_micros = duration_micros;
  for (EventListener* listener : options_.listeners) {
    listener->OnWriteStall(info);
  }
  Log(options_.info_log, "write stall (%s): %llu us",
      WriteStallCauseName(cause),
      static_cast<unsigned long long>(duration_micros));
}

// ---------------------------------------------------------------------------
// Background-work orchestration
// ---------------------------------------------------------------------------

void DBImpl::MaybeScheduleCompaction() {
  if (shutting_down_.load(std::memory_order_acquire) || !bg_error_.ok()) {
    return;
  }
  if (sim_ != nullptr) {
    // Simulation: register (at most) one job on the device timeline. The
    // data work runs later, when a Pump/Wait/Drain call advances the
    // virtual clock past the job's completion time.
    ScheduleBackgroundWorkSim();
    return;
  }
  if (manual_compaction_active_) {
    // TEST_CompactRange owns the background slots for the duration of its
    // inline compaction; it re-runs this method when it is done.
    return;
  }
  // LDC's link phase is metadata-only, so it runs right here on the
  // foreground path: level 0 drains instantly even when the device is busy
  // with merges. Running it concurrently with in-flight merges is safe
  // because DoLdcLinkWork defers any plan that would attach a slice to a
  // lower file whose merge is claimed (see the data-loss note there).
  if (options_.compaction_style == CompactionStyle::kLdc) {
    DoLdcLinkWork();
  }
  FillJobQueue();
  // Launch one worker per queued job, up to the configured cap. Workers
  // loop over the queue, so calls already scheduled but not yet executing
  // a unit (bg_jobs_scheduled_ - bg_jobs_running_) also count as capacity.
  while (bg_jobs_scheduled_ < options_.max_background_jobs &&
         bg_jobs_scheduled_ - bg_jobs_running_ <
             static_cast<int>(job_queue_.size())) {
    bg_jobs_scheduled_++;
    if (stats_ != nullptr) stats_->Record(kBgJobsScheduled);
    // Drop the mutex around the handoff: with the default inline Env,
    // Schedule runs BackgroundCall (which takes the mutex) before
    // returning.
    mutex_.unlock();
    env_->Schedule(&DBImpl::BGWork, this);
    mutex_.lock();
    if (shutting_down_.load(std::memory_order_acquire) || !bg_error_.ok()) {
      break;
    }
  }
}

void DBImpl::FillJobQueue() {
  const int max_jobs = options_.max_background_jobs;
  auto slots_left = [&] {
    return max_jobs - bg_jobs_running_ - static_cast<int>(job_queue_.size());
  };
  if (slots_left() <= 0) return;

  // 1. Flushing the immutable memtable has priority: user writes stall
  //    behind it. One claim suffices — there is only ever one imm_.
  if (imm_ != nullptr && !flush_claimed_) {
    flush_claimed_ = true;
    BackgroundJob job;
    job.kind = kJobFlush;
    job_queue_.push_back(std::move(job));
  }

  switch (options_.compaction_style) {
    case CompactionStyle::kLdc: {
      // 2a. LDC: claim queued merges in FIFO order. Merges on distinct
      //     lower files rewrite disjoint key ranges by construction, so
      //     every claimed merge may run concurrently with the others.
      while (slots_left() > 0 && !pending_merges_.empty()) {
        const uint64_t lower = pending_merges_.front();
        pending_merges_.pop_front();
        pending_merge_set_.erase(lower);
        if (!merges_in_flight_.insert(lower).second) {
          continue;  // Already claimed (should not happen; be safe).
        }
        BackgroundJob job;
        job.kind = kJobLdcMerge;
        job.lower_file = lower;
        job_queue_.push_back(std::move(job));
      }
      break;
    }
    case CompactionStyle::kTiered: {
      // 2c. Lazy baseline: each pick excludes files already claimed by an
      //     in-flight tiered merge, so concurrent groups are disjoint.
      while (slots_left() > 0) {
        uint64_t total_bytes = 0;
        std::vector<uint64_t> group = PickTieredGroup(&total_bytes);
        if (group.empty()) break;
        claimed_files_.insert(group.begin(), group.end());
        BackgroundJob job;
        job.kind = kJobTieredMerge;
        job.claims = std::move(group);
        job_queue_.push_back(std::move(job));
      }
      break;
    }
    case CompactionStyle::kUdc: {
      // 2b. UDC: pick classic compactions. Trivial moves are pure metadata
      //     and are applied instantly. A data compaction is queued only if
      //     its input file set is disjoint from every claimed job —
      //     compact_pointer_ advances at pick time, so consecutive picks at
      //     the same level naturally select different upper files, and any
      //     key-range overlap between two compactions would surface as a
      //     shared (claimed) level+1 input file.
      while (slots_left() > 0) {
        Compaction* c = PickUdcCompaction();
        if (c == nullptr) break;
        bool conflict = false;
        std::vector<uint64_t> inputs;
        for (int which = 0; which < 2 && !conflict; which++) {
          for (int i = 0; i < c->num_input_files(which); i++) {
            const uint64_t n = c->input(which, i)->number;
            if (claimed_files_.count(n) != 0) {
              conflict = true;
              break;
            }
            inputs.push_back(n);
          }
        }
        if (conflict) {
          // The skipped key range is retried once the conflicting job
          // installs (compact_pointer_ wraps around).
          delete c;
          break;
        }
        claimed_files_.insert(inputs.begin(), inputs.end());
        BackgroundJob job;
        job.kind = kJobUdcCompaction;
        job.compaction = c;
        job.claims = std::move(inputs);
        job_queue_.push_back(std::move(job));
      }
      break;
    }
  }
}

void DBImpl::BGWork(void* db) {
  reinterpret_cast<DBImpl*>(db)->BackgroundCall();
}

void DBImpl::BackgroundCall() {
  mutex_.lock();
  assert(bg_jobs_scheduled_ > 0);
  // Loop over the job queue (rather than re-scheduling ourselves) so the
  // inline Env cannot recurse and the thread pool is not churned between
  // back-to-back jobs. Stalled writers are woken after every unit of work.
  while (!shutting_down_.load(std::memory_order_acquire) && bg_error_.ok() &&
         !job_queue_.empty()) {
    BackgroundJob job = std::move(job_queue_.front());
    job_queue_.pop_front();
    bg_jobs_running_++;
    // Delta updates: the Statistics object may be shared across shards, so
    // the gauge aggregates every shard's running jobs.
    if (stats_ != nullptr) {
      stats_->AddGauge(kBgJobsRunning);
    }
    ExecuteBackgroundJob(&job);
    bg_jobs_running_--;
    if (stats_ != nullptr) {
      stats_->SubGauge(kBgJobsRunning);
    }
    background_work_finished_signal_.notify_all();
    if (shutting_down_.load(std::memory_order_acquire) || !bg_error_.ok()) {
      break;
    }
    // Completed work may enable more (a flush created level-0 work, a
    // finished merge released its claims); refill before the next round.
    if (options_.compaction_style == CompactionStyle::kLdc) {
      DoLdcLinkWork();
    }
    FillJobQueue();
  }
  bg_jobs_scheduled_--;
  // A writer may have switched memtables after the queue drained but
  // before this call exited; re-check so that work is not orphaned.
  MaybeScheduleCompaction();
  background_work_finished_signal_.notify_all();
  mutex_.unlock();
}

void DBImpl::ExecuteBackgroundJob(BackgroundJob* job) {
  const uint64_t start_us = NowMicros();
  switch (job->kind) {
    case kJobFlush: {
      if (imm_ != nullptr) {
        CompactMemTable();
      }
      flush_claimed_ = false;
      break;
    }
    case kJobLdcMerge: {
      running_ldc_merges_++;
      if (running_ldc_merges_ > max_parallel_merges_) {
        max_parallel_merges_ = running_ldc_merges_;
      }
      if (stats_ != nullptr) {
        stats_->AddGauge(kLdcMergesRunning);
      }
      DoLdcMerge(job->lower_file);
      running_ldc_merges_--;
      if (stats_ != nullptr) {
        stats_->SubGauge(kLdcMergesRunning);
      }
      merges_in_flight_.erase(job->lower_file);
      break;
    }
    case kJobUdcCompaction: {
      Compaction* c = job->compaction;
      job->compaction = nullptr;
      DoUdcCompaction(c);  // Deletes c.
      for (uint64_t n : job->claims) claimed_files_.erase(n);
      break;
    }
    case kJobTieredMerge: {
      DoTieredMerge(job->claims);
      for (uint64_t n : job->claims) claimed_files_.erase(n);
      break;
    }
    default:
      assert(false);
  }
  if (stats_ != nullptr) {
    stats_->Record(kBgWorkUnits);
    if (job->kind != kJobFlush) {
      stats_->RecordLatency(OpHistogram::kCompactionDurationUs,
                            static_cast<double>(NowMicros() - start_us));
    }
  }
}

bool DBImpl::ScheduleBackgroundWorkSim() {
  // The simulated device timeline keeps a strict job discipline
  // (max_background_jobs is ignored): at most one flush plus one
  // compaction-class job sit on the timeline, and the two only overlap
  // when the placement policy routes their streams to distinct channels.
  // With a single channel (or no placement hints) this degenerates to the
  // historical single-job discipline: bg_jobs_scheduled_ is 0 or 1.
  if (!bg_error_.ok() || shutting_down_.load(std::memory_order_acquire)) {
    return false;
  }

  auto start_job = [this](int kind, uint64_t arg, uint64_t read_bytes,
                          uint64_t write_bytes, SimActivity activity) {
    bg_jobs_scheduled_++;
    if (kind == kJobFlush) {
      sim_flush_scheduled_ = true;
    } else {
      sim_compaction_scheduled_ = true;
    }
    sim_->ScheduleBackground(read_bytes, write_bytes, activity,
                             [this, kind, arg]() {
                               RunBackgroundJob(kind, arg);
                             });
  };

  const bool streams_isolated = sim_->StreamsIsolated(
      SimActivity::kFlush, SimActivity::kCompaction);
  bool scheduled = false;

  // 1. Flushing the immutable memtable has priority: user writes stall
  //    behind it. It may ride alongside an in-flight compaction when the
  //    flush and compaction streams live on different channels.
  const bool flush_slot_free =
      !sim_flush_scheduled_ &&
      (bg_jobs_scheduled_ == 0 ||
       (sim_compaction_scheduled_ && streams_isolated));
  if (imm_ != nullptr && flush_slot_free) {
    start_job(kJobFlush, 0, 0, imm_->ApproximateMemoryUsage(),
              SimActivity::kFlush);
    scheduled = true;
  }

  // 2. One compaction-class job (UDC / LDC merge / tiered merge). Without
  //    stream isolation this slot only opens when the timeline is empty,
  //    which also keeps flushes strictly prioritized.
  const bool compaction_slot_free =
      !sim_compaction_scheduled_ &&
      (bg_jobs_scheduled_ == 0 ||
       (sim_flush_scheduled_ && streams_isolated));
  if (!compaction_slot_free) {
    return scheduled;
  }

  if (options_.compaction_style == CompactionStyle::kTiered) {
    // 2c. Lazy baseline: merge a tier of similarly-sized level-0 files.
    uint64_t total_bytes = 0;
    std::vector<uint64_t> group = PickTieredGroup(&total_bytes);
    if (group.empty()) return scheduled;
    assert(scheduled_tier_group_.empty());
    scheduled_tier_group_ = std::move(group);
    start_job(kJobTieredMerge, 0, total_bytes, total_bytes,
              SimActivity::kCompaction);
    return true;
  }

  if (options_.compaction_style == CompactionStyle::kLdc) {
    // 2a. LDC: run the (instant, metadata-only) link phase, then schedule
    //     the next queued merge if any lower file crossed T_s.
    DoLdcLinkWork();
    if (!pending_merges_.empty()) {
      const uint64_t lower = pending_merges_.front();
      uint64_t lower_size = 0;
      {
        int level = -1;
        FileMetaData* f = nullptr;
        if (versions_->current()->FindFileByNumber(lower, &level, &f)) {
          lower_size = f->file_size;
        }
      }
      const uint64_t slice_bytes = versions_->registry()->LinkedBytes(lower);
      start_job(kJobLdcMerge, lower, lower_size + slice_bytes,
                lower_size + slice_bytes, SimActivity::kCompaction);
      return true;
    }
    return scheduled;
  }

  // 2b. UDC: pick a classic compaction (trivial moves are applied on the
  //     way).
  Compaction* c = PickUdcCompaction();
  if (c == nullptr) return scheduled;
  const uint64_t input_bytes = c->TotalInputBytes();
  // Stash the picked compaction for the job body. At most one
  // compaction-class job can be outstanding, so a single slot suffices.
  assert(scheduled_udc_ == nullptr);
  scheduled_udc_ = c;
  start_job(kJobUdcCompaction, 0, input_bytes, input_bytes,
            SimActivity::kCompaction);
  return true;
}

void DBImpl::RunBackgroundJob(int job_kind, uint64_t arg) {
  // Invoked by the simulator when the virtual clock passes the job's device
  // completion time. The simulator's Pump/Wait/Drain entry points are only
  // ever called with mutex_ released, so taking it here cannot deadlock.
  mutex_.lock();
  const uint64_t start_us = NowMicros();
  switch (job_kind) {
    case kJobFlush: {
      CompactMemTable();
      break;
    }
    case kJobUdcCompaction: {
      Compaction* c = scheduled_udc_;
      scheduled_udc_ = nullptr;
      DoUdcCompaction(c);
      break;
    }
    case kJobLdcMerge: {
      assert(!pending_merges_.empty() && pending_merges_.front() == arg);
      pending_merges_.pop_front();
      pending_merge_set_.erase(arg);
      DoLdcMerge(arg);
      break;
    }
    case kJobTieredMerge: {
      std::vector<uint64_t> group = std::move(scheduled_tier_group_);
      scheduled_tier_group_.clear();
      DoTieredMerge(group);
      break;
    }
    default:
      assert(false);
  }
  if (stats_ != nullptr && job_kind != kJobFlush) {
    stats_->RecordLatency(OpHistogram::kCompactionDurationUs,
                          static_cast<double>(NowMicros() - start_us));
  }
  if (job_kind == kJobFlush) {
    sim_flush_scheduled_ = false;
  } else {
    sim_compaction_scheduled_ = false;
  }
  bg_jobs_scheduled_--;
  // Chain the next unit of background work (a flush may have been blocked
  // behind this job, or a merge may be queued).
  ScheduleBackgroundWorkSim();
  background_work_finished_signal_.notify_all();
  mutex_.unlock();
}

Compaction* DBImpl::PickUdcCompaction() {
  while (bg_error_.ok() && versions_->NeedsCompaction()) {
    const uint64_t pick_start_us = env_->NowMicros();
    Compaction* c = versions_->PickCompaction(&claimed_files_);
    if (c == nullptr) break;
    {
      // Attribute the picking cost to the output level (count stays zero;
      // only completed data work increments it).
      CompactionStats pick_stats;
      pick_stats.pick_micros = env_->NowMicros() - pick_start_us;
      versions_->AddCompactionStats(c->level() + 1, pick_stats);
    }
    if (!c->IsTrivialMove()) return c;
    FileMetaData* f = c->input(0, 0);
    c->edit()->RemoveFile(c->level(), f->number);
    c->edit()->AddFile(c->level() + 1, f->number, f->file_size, f->smallest,
                       f->largest);
    Status s = versions_->LogAndApply(c->edit());
    if (s.ok()) {
      PublishReadState();  // new current version
      if (stats_ != nullptr) stats_->Record(kTrivialMoves);
    } else {
      RecordBackgroundError(s);
    }
    delete c;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// The merge kernel (paper Algorithm 1, merge(); UDC's compaction)
// ---------------------------------------------------------------------------

// Everything in which one style's merge job differs from another's: which
// files feed it, where its output goes, when a tombstone may go, how
// outputs are cut, and what its install consumes. RunMerge does the rest.
struct DBImpl::MergePlan {
  // What OnCompactionBegin reports; RunMerge fills in the results.
  CompactionJobInfo info;
  // The part of info.bytes_read that arrives from the level above; the
  // rest is resident data rewritten in place (CompactionStats).
  uint64_t bytes_read_upper = 0;
  // Counts the installed jobs of this style.
  Ticker ticker = kCompactions;
  // The job's span, owned by the planner; the stage sub-spans and the
  // unblocker flow hang off it.
  TraceSpan* span = nullptr;
  // Opens the merged input. Called right after OnCompactionBegin, so the
  // merge is charged with whatever opening costs.
  std::function<Iterator*()> open_input;
  // Whether a tombstone no snapshot needs may be dropped: nothing older
  // for the user key lies outside the inputs. Called in key order.
  std::function<bool(const Slice& user_key)> tombstone_may_drop;
  // An output is cut at the first user-key boundary once it reaches this
  // size, so one user key never spans two files.
  uint64_t max_output_bytes = std::numeric_limits<uint64_t>::max();
  // The install edit (null: a fresh one) and what it consumes besides
  // adding the outputs. consume_inputs runs under mutex_ at install time.
  VersionEdit* edit = nullptr;
  std::function<void(VersionEdit*)> consume_inputs;
  // Style-specific reporting after a successful install (may be empty).
  std::function<void(const CompactionJobInfo&)> on_installed;
  // Drops the planner's pin on the inputs, before the obsolete-file sweep.
  std::function<void()> unpin;
};

void DBImpl::RunMerge(MergePlan* plan) {
  CompactionJobInfo& info = plan->info;
  info.db_name = dbname_;
  const uint64_t start_us = env_->NowMicros();
  info.micros = start_us;
  NotifyCompactionEvent(false, info);
  Iterator* input = plan->open_input();

  // Sequence numbers at or below the oldest snapshot are not significant
  // once a newer entry for the same user key has been seen: no reader can
  // ask for them.
  SequenceNumber smallest_snapshot;
  {
    std::lock_guard<std::mutex> sl(snapshots_mutex_);
    smallest_snapshot = snapshots_.empty()
                            ? versions_->LastSequence()
                            : snapshots_.oldest()->sequence_number();
  }

  std::vector<FileMetaData> outputs;
  WritableFile* outfile = nullptr;
  TableBuilder* builder = nullptr;
  uint64_t bytes_written = 0;
  uint64_t read_us = 0;
  uint64_t write_us = 0;

  // Called from the unlocked loop; allocating the file number and
  // shielding it from the obsolete-file sweep needs the mutex.
  auto open_output = [&]() -> Status {
    FileMetaData out;
    mutex_.lock();
    out.number = versions_->NewFileNumber();
    pending_outputs_.insert(out.number);
    mutex_.unlock();
    outputs.push_back(out);
    Status s = env_->NewWritableFile(TableFileName(dbname_, out.number),
                                     WriteHint::kCompaction, &outfile);
    if (s.ok()) builder = new TableBuilder(options_, outfile);
    return s;
  };
  // Finishes, syncs and closes the open output, then warms it into the
  // block cache (a real system's page cache still holds what was just
  // written); the warm reads the new table back, which verifies it.
  auto finish_output = [&]() -> Status {
    const uint64_t t0 = env_->NowMicros();
    FileMetaData& out = outputs.back();
    Status s = input->status();
    if (s.ok()) {
      s = builder->Finish();
    } else {
      builder->Abandon();
    }
    out.file_size = builder->FileSize();
    bytes_written += out.file_size;
    delete builder;
    builder = nullptr;
    if (s.ok()) s = outfile->Sync();
    if (s.ok()) s = outfile->Close();
    delete outfile;
    outfile = nullptr;
    if (s.ok()) s = table_cache_->WarmTable(out.number, out.file_size);
    write_us += env_->NowMicros() - t0;
    return s;
  };

  // The inputs are immutable and pinned by the planner; merge them with
  // the lock released so foreground operations proceed.
  mutex_.unlock();
  const uint64_t loop_start_us = env_->NowMicros();
  {
    const uint64_t t0 = env_->NowMicros();
    input->SeekToFirst();
    read_us += env_->NowMicros() - t0;
  }
  Status status;
  const Comparator* user_cmp = internal_comparator_.user_comparator();
  std::string current_user_key;
  bool has_current_user_key = false;
  SequenceNumber last_sequence_for_key = kMaxSequenceNumber;
  while (input->Valid() && !shutting_down_.load(std::memory_order_acquire)) {
    // Give a waiting flush priority over the (long) merge loop — unless a
    // concurrent flush job already claimed it.
    if (sim_ == nullptr && has_imm_.load(std::memory_order_relaxed)) {
      mutex_.lock();
      if (imm_ != nullptr && !flush_claimed_) {
        flush_claimed_ = true;
        CompactMemTable();
        flush_claimed_ = false;
        background_work_finished_signal_.notify_all();
      }
      mutex_.unlock();
    }
    const Slice key = input->key();
    bool drop = false;
    ParsedInternalKey ikey;
    if (!ParseInternalKey(key, &ikey)) {
      // Do not hide error keys.
      current_user_key.clear();
      has_current_user_key = false;
      last_sequence_for_key = kMaxSequenceNumber;
    } else {
      if (!has_current_user_key ||
          user_cmp->Compare(ikey.user_key, Slice(current_user_key)) != 0) {
        // First occurrence of this user key.
        current_user_key.assign(ikey.user_key.data(), ikey.user_key.size());
        has_current_user_key = true;
        last_sequence_for_key = kMaxSequenceNumber;
        // Cut only at user-key boundaries (LDC's responsibility ranges
        // need every version of a key in one file).
        if (builder != nullptr &&
            builder->FileSize() >= plan->max_output_bytes) {
          status = finish_output();
          if (!status.ok()) break;
        }
      }
      if (last_sequence_for_key <= smallest_snapshot) {
        drop = true;  // Hidden by a newer entry for the same user key.
      } else if (ikey.type == kTypeDeletion &&
                 ikey.sequence <= smallest_snapshot &&
                 plan->tombstone_may_drop(ikey.user_key)) {
        // No snapshot needs this tombstone and nothing it hides lies
        // outside the inputs; the older entries inside them are dropped by
        // the rule above in the next few iterations.
        drop = true;
      }
      last_sequence_for_key = ikey.sequence;
    }
    if (!drop) {
      const uint64_t t0 = env_->NowMicros();
      if (builder == nullptr) {
        status = open_output();
        if (!status.ok()) break;
      }
      if (builder->NumEntries() == 0) {
        outputs.back().smallest.DecodeFrom(key);
      }
      outputs.back().largest.DecodeFrom(key);
      builder->Add(key, input->value());
      write_us += env_->NowMicros() - t0;
    }
    {
      const uint64_t t0 = env_->NowMicros();
      input->Next();
      read_us += env_->NowMicros() - t0;
    }
  }
  if (status.ok() && shutting_down_.load(std::memory_order_acquire)) {
    status = Status::IOError("Deleting DB during compaction");
  }
  if (status.ok() && builder != nullptr) {
    status = finish_output();
  }
  if (status.ok()) {
    status = input->status();
  }
  const uint64_t loop_us = env_->NowMicros() - loop_start_us;
  delete input;
  if (builder != nullptr) {
    // Stopped early: the open output is never installed.
    builder->Abandon();
    delete builder;
  }
  delete outfile;
  mutex_.lock();

  if (status.ok() && !bg_error_.ok()) {
    // A concurrent job failed while this merge ran unlocked; do not
    // install on top of a suspect manifest state.
    status = bg_error_;
  }
  CompactionStats cstats;
  if (status.ok()) {
    VersionEdit fresh_edit;
    VersionEdit* edit = plan->edit != nullptr ? plan->edit : &fresh_edit;
    plan->consume_inputs(edit);
    for (const FileMetaData& out : outputs) {
      edit->AddFile(info.output_level, out.number, out.file_size,
                    out.smallest, out.largest);
    }
    const uint64_t install_start_us = env_->NowMicros();
    status = versions_->LogAndApply(edit);
    cstats.install_micros = env_->NowMicros() - install_start_us;
  }
  if (status.ok()) {
    PublishReadState();  // new current version
    if (stats_ != nullptr) {
      stats_->Record(plan->ticker);
      stats_->Record(kCompactionReadBytes, info.bytes_read);
      stats_->Record(kCompactionWriteBytes, bytes_written);
    }
    cstats.micros = env_->NowMicros() - start_us;
    cstats.read_micros = read_us;
    cstats.write_micros = write_us;
    cstats.merge_micros =
        loop_us > read_us + write_us ? loop_us - read_us - write_us : 0;
    cstats.bytes_read_upper = plan->bytes_read_upper;
    cstats.bytes_read_lower = info.bytes_read - plan->bytes_read_upper;
    cstats.bytes_written = bytes_written;
    cstats.count = 1;
    versions_->AddCompactionStats(info.output_level, cstats);

    info.num_output_files = static_cast<int>(outputs.size());
    info.bytes_written = bytes_written;
    info.micros = env_->NowMicros();
    info.duration_micros = info.micros - start_us;
    NotifyCompactionEvent(true, info);
    if (plan->on_installed) plan->on_installed(info);

    plan->span->SetArg2("write_bytes", bytes_written);
    EmitStageSpans(plan->span, trace_label_.c_str(), read_us,
                   cstats.merge_micros, write_us);
    // A finished merge drains level-0 pressure (and the flush this loop
    // may have run clears memtable stalls): expose the span's flow id so a
    // woken writer's stall span can point back at it.
    last_unblocker_flow_ = plan->span->EmitFlowOut();
  } else {
    RecordBackgroundError(status);
  }
  for (const FileMetaData& out : outputs) {
    pending_outputs_.erase(out.number);
  }
  // Unpin before sweeping: while pinned, the inputs this merge just
  // consumed still count as live and would survive the sweep.
  plan->unpin();
  RemoveObsoleteFiles();
}

// ---------------------------------------------------------------------------
// UDC: classic leveled compaction
// ---------------------------------------------------------------------------

void DBImpl::DoUdcCompaction(Compaction* c) {
  TraceSpan span(tracer_, TraceCat::kCompaction, "job.udc_compaction");
  span.SetLabel(trace_label_);
  span.SetArg1("level", static_cast<uint64_t>(c->level()));
  MergePlan plan;
  plan.info.style = CompactionStyle::kUdc;
  plan.info.input_level = c->level();
  plan.info.output_level = c->level() + 1;
  plan.info.num_input_files = c->num_input_files(0) + c->num_input_files(1);
  plan.info.bytes_read = c->TotalInputBytes();
  for (int i = 0; i < c->num_input_files(0); i++) {
    plan.bytes_read_upper += c->input(0, i)->file_size;
  }
  plan.span = &span;
  // The compaction pins its input version until ReleaseInputs.
  plan.open_input = [this, c] { return versions_->MakeInputIterator(c); };
  plan.tombstone_may_drop = [c](const Slice& user_key) {
    return c->IsBaseLevelForKey(user_key);
  };
  plan.max_output_bytes = c->MaxOutputFileSize();
  plan.edit = c->edit();  // Already carries the level's compact pointer.
  plan.consume_inputs = [c](VersionEdit* edit) { c->AddInputDeletions(edit); };
  plan.unpin = [c] { c->ReleaseInputs(); };
  RunMerge(&plan);
  delete c;
}

// ---------------------------------------------------------------------------
// Tiered (lazy baseline, paper §I / §V)
// ---------------------------------------------------------------------------

std::vector<uint64_t> DBImpl::PickTieredGroup(uint64_t* total_bytes) {
  *total_bytes = 0;
  std::vector<uint64_t> result;
  std::vector<FileMetaData*> files;
  // Exclude files already claimed by an in-flight tiered merge so that
  // concurrently picked groups are disjoint (claimed_files_ is empty in
  // sim / single-job runs).
  for (FileMetaData* f : versions_->current()->files(0)) {
    if (claimed_files_.count(f->number) == 0) files.push_back(f);
  }
  if (static_cast<int>(files.size()) < options_.fan_out) return result;
  std::sort(files.begin(), files.end(),
            [](const FileMetaData* a, const FileMetaData* b) {
              return a->file_size < b->file_size;
            });
  // Find the smallest tier: a run of >= fan_out files whose sizes stay
  // within ~3x of the run's smallest member (Cassandra-style buckets).
  for (size_t start = 0; start + options_.fan_out <= files.size(); start++) {
    const uint64_t base = files[start]->file_size;
    size_t end = start;
    while (end < files.size() && files[end]->file_size <= 3 * base + 4096) {
      end++;
    }
    if (end - start >= static_cast<size_t>(options_.fan_out)) {
      // Merge up to 2*fan_out files from this tier in one batch.
      const size_t take =
          std::min(end - start, static_cast<size_t>(2 * options_.fan_out));
      for (size_t i = start; i < start + take; i++) {
        result.push_back(files[i]->number);
        *total_bytes += files[i]->file_size;
      }
      return result;
    }
  }
  return result;
}

void DBImpl::DoTieredMerge(const std::vector<uint64_t>& file_numbers) {
  TraceSpan span(tracer_, TraceCat::kCompaction, "job.tiered_merge");
  span.SetLabel(trace_label_);
  // Pin the base version so the group's file metadata stays valid while
  // the merge loop runs with the lock released.
  Version* base = versions_->current();
  std::vector<const FileMetaData*> inputs;
  std::set<uint64_t> wanted(file_numbers.begin(), file_numbers.end());
  for (FileMetaData* f : base->files(0)) {
    if (wanted.count(f->number)) inputs.push_back(f);
  }
  if (inputs.size() < 2) return;
  base->Ref();

  ReadOptions read_options;
  read_options.verify_checksums = options_.paranoid_checks;
  read_options.fill_cache = false;
  std::vector<Iterator*> iters;
  uint64_t input_bytes = 0;
  for (const FileMetaData* f : inputs) {
    iters.push_back(
        table_cache_->NewIterator(read_options, f->number, f->file_size));
    input_bytes += f->file_size;
  }
  Iterator* input = NewMergingIterator(&internal_comparator_, iters.data(),
                                       static_cast<int>(iters.size()));
  span.SetArg1("read_bytes", input_bytes);

  // Tombstones can only be dropped when this merge covers every file in
  // the store (tiered keeps everything in level 0).
  bool covers_everything = inputs.size() == base->files(0).size();
  for (int level = 1; level < versions_->NumLevels() && covers_everything;
       level++) {
    if (!base->files(level).empty()) covers_everything = false;
  }

  MergePlan plan;
  plan.info.style = CompactionStyle::kTiered;
  plan.info.input_level = 0;
  plan.info.output_level = 0;
  plan.info.num_input_files = static_cast<int>(inputs.size());
  plan.info.bytes_read = input_bytes;
  plan.bytes_read_upper = input_bytes;
  plan.span = &span;
  plan.open_input = [input] { return input; };
  plan.tombstone_may_drop = [covers_everything](const Slice&) {
    return covers_everything;
  };
  // One output file, deliberately uncut (max_output_bytes stays at its
  // maximum): tiered compaction trades large batches for fewer rewrites
  // (that is what "lazy" means here).
  plan.consume_inputs = [&inputs](VersionEdit* edit) {
    for (const FileMetaData* f : inputs) edit->RemoveFile(0, f->number);
  };
  plan.unpin = [base] { base->Unref(); };
  RunMerge(&plan);
}

// ---------------------------------------------------------------------------
// LDC: link & merge (paper Algorithm 1)
// ---------------------------------------------------------------------------

void DBImpl::EnqueueLdcMerge(uint64_t lower_file_number) {
  if (merges_in_flight_.count(lower_file_number) != 0) {
    return;  // A claimed merge is already rewriting this file.
  }
  if (pending_merge_set_.insert(lower_file_number).second) {
    pending_merges_.push_back(lower_file_number);
    if (tracer_ != nullptr) {
      // Hand a flow id to the future merge job so its span points back at
      // the link decision that enqueued it.
      uint64_t& flow = pending_merge_flow_[lower_file_number];
      if (flow == 0) flow = Tracer::NewId();
      tracer_->Instant(TraceCat::kLdc, "ldc.enqueue_merge",
                       trace_label_.c_str(), 0, flow);
    }
  }
}

bool DBImpl::DoLdcLinkWork() {
  bool changed = false;
  const int threshold = EffectiveSliceThresholdLocked();

  // Frozen-space safety valve (§IV-J): if the frozen region has grown past
  // the configured fraction of live data, force the most-linked lower file
  // to merge even before it reaches T_s.
  if (options_.frozen_space_limit_ratio > 0) {
    const uint64_t frozen = versions_->registry()->TotalFrozenBytes();
    const int64_t live = versions_->TotalLiveBytes();
    if (live > 0 && frozen > static_cast<uint64_t>(
                                 live * options_.frozen_space_limit_ratio)) {
      int count = 0;
      // Skip lower files whose merge is already claimed by a running job;
      // re-enqueueing them would be a no-op anyway.
      uint64_t lower = versions_->registry()->MostLinkedLowerFile(
          &count, &merges_in_flight_);
      if (lower != 0) {
        EnqueueLdcMerge(lower);
      }
    }
  }

  // Link until the tree is balanced. Linking is pure metadata, so it
  // proceeds even while merge jobs are queued for the device — that is
  // exactly how LDC keeps level 0 drained (and tail latency low) while the
  // actual I/O happens in file-sized increments.
  while (versions_->NeedsCompaction()) {
    int level = -1;
    FileMetaData* upper = nullptr;
    uint64_t must_merge_lower = 0;
    if (!versions_->PickLdcLinkTarget(&level, &upper, &must_merge_lower)) {
      if (must_merge_lower != 0) {
        EnqueueLdcMerge(must_merge_lower);
      }
      break;
    }

    LdcLinkPlan plan;
    BuildLdcLinkPlan(versions_, table_cache_, *upper, level, &plan);

    // Defer any plan that would attach a slice to a lower file whose merge
    // is in flight. The merge consumes exactly the links present in its
    // snapshot (edit.ConsumeLinks); a link attached after that snapshot
    // would be consumed without its data ever being merged — data loss.
    bool conflicts_with_merge = false;
    for (const LdcSlicePlan& slice : plan.slices) {
      if (merges_in_flight_.count(slice.lower_file_number) != 0) {
        conflicts_with_merge = true;
        break;
      }
    }
    if (conflicts_with_merge) {
      // Retry after the merge installs; MaybeScheduleCompaction runs link
      // work again whenever a job completes.
      break;
    }

    VersionEdit edit;
    // Assign link sequence numbers (monotonic; they define read priority
    // among slices of the same lower file).
    for (LdcSlicePlan& slice : plan.slices) {
      slice.link.link_seq = versions_->registry()->NextLinkSeq();
    }
    ApplyLinkPlanToEdit(plan, &edit);
    edit.SetCompactPointer(level, upper->largest);

    // `upper` points into the current version, which LogAndApply replaces;
    // capture what the notification needs first.
    LdcLinkInfo link_info;
    link_info.db_name = dbname_;
    link_info.upper_level = level;
    link_info.upper_file_number = upper->number;
    link_info.upper_file_bytes = upper->file_size;
    link_info.num_slices = static_cast<int>(plan.slices.size());
    link_info.trivial_move = plan.trivial_move;

    Status s = versions_->LogAndApply(&edit);
    if (!s.ok()) {
      RecordBackgroundError(s);
      break;
    }
    PublishReadState();  // new current version
    changed = true;
    if (stats_ != nullptr) {
      if (plan.trivial_move) {
        stats_->Record(kTrivialMoves);
      } else {
        stats_->Record(kLdcLinks);
        stats_->Record(kLdcSlicesCreated, plan.slices.size());
      }
    }
    link_info.micros = env_->NowMicros();
    NotifyLdcLink(link_info);
    if (tracer_ != nullptr) {
      tracer_->Instant(TraceCat::kLdc,
                       plan.trivial_move ? "ldc.trivial_move" : "ldc.link",
                       trace_label_.c_str());
    }

    // Merge trigger: a lower-level SSTable accumulated >= T_s slices
    // (Algorithm 1, lines 8-9).
    for (const LdcSlicePlan& slice : plan.slices) {
      if (slice.resulting_link_count >= threshold) {
        EnqueueLdcMerge(slice.lower_file_number);
      }
    }
  }
  return changed;
}

void DBImpl::DoLdcMerge(uint64_t lower_file_number) {
  TraceSpan span(tracer_, TraceCat::kLdc, "job.ldc_merge");
  span.SetLabel(trace_label_);
  span.SetArg1("lower_file", lower_file_number);
  if (tracer_ != nullptr) {
    const auto flow_it = pending_merge_flow_.find(lower_file_number);
    if (flow_it != pending_merge_flow_.end()) {
      span.SetFlowIn(flow_it->second);
      pending_merge_flow_.erase(flow_it);
    }
  }
  // Locate the lower file in the current version (O(1) via the version's
  // file-number index rather than a scan over every level).
  Version* base = versions_->current();
  int level = -1;
  FileMetaData* lower = nullptr;
  if (!base->FindFileByNumber(lower_file_number, &level, &lower)) {
    return;  // The file is gone (stale trigger); nothing to merge.
  }

  // The pinned version carries the link state it was installed with; its
  // maps are immutable, so the slice metadata stays valid while the merge
  // loop runs with the lock released. Concurrent link work may run while
  // this merge is unlocked, but DoLdcLinkWork defers any plan that would
  // attach a slice to this lower file (it is claimed in merges_in_flight_),
  // so the live registry's links for this file and this snapshot agree
  // until the install consumes them.
  const std::vector<SliceLinkMeta>* links =
      base->links().Links(lower_file_number);
  if (links == nullptr || links->empty()) return;
  base->Ref();

  uint64_t slice_bytes = 0;
  for (const SliceLinkMeta& link : *links) {
    slice_bytes += link.estimated_bytes;
  }
  const int num_slices = static_cast<int>(links->size());

  // The merge input is the lower file's read group: the file plus every
  // linked slice, each slice restricted to its key range so only its
  // blocks are read.
  ReadOptions read_options;
  read_options.verify_checksums = options_.paranoid_checks;
  read_options.fill_cache = false;
  Iterator* input = base->NewGroupIterator(read_options, lower);

  // Tombstones can be dropped only if no level below this one holds data.
  bool is_bottom = true;
  for (int l = level + 1; l < versions_->NumLevels(); l++) {
    if (!base->files(l).empty()) {
      is_bottom = false;
      break;
    }
  }

  MergePlan plan;
  plan.info.style = CompactionStyle::kLdc;
  plan.info.input_level = level;
  plan.info.output_level = level;  // Merged in place (Algorithm 1).
  plan.info.num_input_files = 1 + num_slices;
  plan.info.bytes_read = lower->file_size + slice_bytes;
  // The slices are the data arriving from the upper levels; the lower file
  // is the resident data being rewritten.
  plan.bytes_read_upper = slice_bytes;
  plan.ticker = kLdcMerges;
  plan.span = &span;
  plan.open_input = [input] { return input; };
  plan.tombstone_may_drop = [is_bottom](const Slice&) { return is_bottom; };
  plan.max_output_bytes = options_.max_file_size;
  // Replace the lower file with the merged outputs at the same level,
  // consume every link, and reclaim unreferenced frozen files (Algorithm 1,
  // lines 17-22). The reclaimable set is computed against the LIVE registry
  // under mutex_ at install time (installs are serialized), so with
  // concurrent merges the frozen-table refcounts decrement in install order
  // and only the last consumer reclaims.
  std::vector<uint64_t> reclaimable;
  plan.consume_inputs = [&, level](VersionEdit* edit) {
    reclaimable =
        versions_->registry()->FrozenReclaimableAfterConsume(lower_file_number);
    edit->RemoveFile(level, lower_file_number);
    edit->ConsumeLinks(lower_file_number);
    for (uint64_t frozen_number : reclaimable) {
      edit->RemoveFrozenFile(frozen_number);
    }
  };
  plan.on_installed = [&, level](const CompactionJobInfo& info) {
    if (stats_ != nullptr) {
      stats_->Record(kLdcFrozenFilesReclaimed, reclaimable.size());
    }
    LdcMergeInfo minfo;
    minfo.db_name = dbname_;
    minfo.level = level;
    minfo.lower_file_number = lower_file_number;
    minfo.num_slices = num_slices;
    minfo.num_output_files = info.num_output_files;
    minfo.bytes_read = info.bytes_read;
    minfo.bytes_written = info.bytes_written;
    minfo.frozen_files_reclaimed = static_cast<int>(reclaimable.size());
    minfo.micros = info.micros;
    minfo.duration_micros = info.duration_micros;
    NotifyLdcMerge(minfo);
  };
  plan.unpin = [base] { base->Unref(); };
  RunMerge(&plan);
}

// ---------------------------------------------------------------------------
// Read / write paths
// ---------------------------------------------------------------------------

void DBImpl::CleanupIteratorState(void* arg1, void* arg2) {
  DBImpl* db = reinterpret_cast<DBImpl*>(arg1);
  db->ReleaseReadState(reinterpret_cast<ReadState*>(arg2));
}

Iterator* DBImpl::NewInternalIterator(const ReadOptions& options,
                                      SequenceNumber* latest_snapshot) {
  // The ReadState pins the memtables and the version for the iterator's
  // whole lifetime, so building an iterator never takes mutex_.
  ReadState* state = AcquireReadState();
  *latest_snapshot = versions_->LastSequence();

  // Collect together all needed child iterators
  std::vector<Iterator*> list;
  list.push_back(state->mem->NewIterator());
  if (state->imm != nullptr) {
    list.push_back(state->imm->NewIterator());
  }
  state->version->AddIterators(options, &list);
  Iterator* internal_iter = NewMergingIterator(
      &internal_comparator_, &list[0], static_cast<int>(list.size()));
  internal_iter->RegisterCleanup(&DBImpl::CleanupIteratorState, this, state);
  return internal_iter;
}

Iterator* DBImpl::TEST_NewInternalIterator() {
  SequenceNumber ignored;
  return NewInternalIterator(ReadOptions(), &ignored);
}

int DBImpl::TEST_NumLevelFiles(int level) const {
  std::lock_guard<std::mutex> l(mutex_);
  return versions_->NumLevelFiles(level);
}

Status DBImpl::Get(const ReadOptions& options, const Slice& key,
                   std::string* value) {
  if (sim_ != nullptr) sim_->Pump();
  const uint64_t start_us = NowMicros();

  TraceSpan op_span(tracer_, TraceCat::kGet, "db.get");
  op_span.SetLabel(trace_label_);

  ObserveOp(false);

  // Hot path: one atomic RMW pins the memtables and the version — no
  // mutex_ anywhere on this path. (ReleaseReadState only falls back to
  // the mutex for a state a writer retired while we were reading, and
  // the "ldc.readstate-deferred-cleanups" property counts exactly those
  // fallbacks.) The memtable skip list tolerates concurrent readers and
  // the pinned version (with its LDC link-state snapshot) is immutable.
  ReadState* state = AcquireReadState();
  SequenceNumber snapshot;
  if (options.snapshot != nullptr) {
    snapshot =
        static_cast<const SnapshotImpl*>(options.snapshot)->sequence_number();
  } else {
    // Live atomic, read *after* the pin: a Get that begins after some
    // Put returned sees both that Put's sequence number and (because the
    // memtable switch publishes before inserts land in the new table) a
    // ReadState whose sources contain its data.
    snapshot = versions_->LastSequence();
  }

  PerfContext* perf = GetPerfContext();
  perf->get_count++;
  perf->last_get_hit_level = PerfContext::kHitNone;

  Status s;
  LookupKey lkey(key, snapshot);
  if (state->mem->Get(lkey, value, &s)) {
    perf->last_get_hit_level = PerfContext::kHitMemTable;
    perf->memtable_hits++;
  } else if (state->imm != nullptr && state->imm->Get(lkey, value, &s)) {
    perf->last_get_hit_level = PerfContext::kHitImmMemTable;
    perf->imm_memtable_hits++;
  } else {
    s = state->version->Get(options, lkey, value);
    if (s.ok()) perf->version_hits++;
  }
  ReleaseReadState(state);

  if (sim_ != nullptr) {
    sim_->AdvanceMicros(kPointLookupCpuUs, SimActivity::kCpu);
  }
  op_span.SetArg1("found", s.ok() ? 1 : 0);
  if (stats_ != nullptr) {
    stats_->RecordLatency(OpHistogram::kReadLatencyUs,
                          static_cast<double>(NowMicros() - start_us));
  }
  return s;
}

std::vector<Status> DBImpl::MultiGet(const ReadOptions& options,
                                     const std::vector<Slice>& keys,
                                     std::vector<std::string>* values) {
  if (sim_ != nullptr) sim_->Pump();
  const uint64_t start_us = NowMicros();
  const size_t n = keys.size();
  values->clear();
  values->resize(n);
  std::vector<Status> statuses(n);
  if (n == 0) return statuses;

  TraceSpan op_span(tracer_, TraceCat::kGet, "db.multiget");
  op_span.SetLabel(trace_label_);
  op_span.SetArg1("keys", static_cast<uint64_t>(n));
  if (stats_ != nullptr) {
    stats_->Record(kMultiGetBatches);
    stats_->Record(kMultiGetKeys, n);
  }
  ObserveOp(false, n);

  // One pin and one snapshot serve the whole batch, which is what makes
  // the results identical to N back-to-back Gets with no write between.
  ReadState* state = AcquireReadState();
  SequenceNumber snapshot;
  if (options.snapshot != nullptr) {
    snapshot =
        static_cast<const SnapshotImpl*>(options.snapshot)->sequence_number();
  } else {
    snapshot = versions_->LastSequence();
  }

  PerfContext* perf = GetPerfContext();
  perf->get_count += n;

  // Memtable probes stay per key (skip-list point lookups have nothing
  // to batch); whatever they do not resolve goes to the version in one
  // sorted batch. A deque keeps the non-copyable LookupKeys stable.
  std::deque<LookupKey> lkeys;
  std::vector<GetRequest> requests(n);
  std::vector<GetRequest*> unresolved;
  unresolved.reserve(n);
  for (size_t i = 0; i < n; i++) {
    lkeys.emplace_back(keys[i], snapshot);
    GetRequest& r = requests[i];
    r.key = &lkeys.back();
    r.value = &(*values)[i];
    Status s;
    if (state->mem->Get(*r.key, r.value, &s)) {
      r.status = s;
      r.done = true;
      perf->memtable_hits++;
    } else if (state->imm != nullptr && state->imm->Get(*r.key, r.value, &s)) {
      r.status = s;
      r.done = true;
      perf->imm_memtable_hits++;
    } else {
      unresolved.push_back(&r);
    }
  }

  if (!unresolved.empty()) {
    // Version::MultiGet requires user-key order; that order is also what
    // lets neighboring keys share one pinned table per read group.
    const Comparator* ucmp = internal_comparator_.user_comparator();
    std::sort(unresolved.begin(), unresolved.end(),
              [ucmp](const GetRequest* a, const GetRequest* b) {
                return ucmp->Compare(a->key->user_key(),
                                     b->key->user_key()) < 0;
              });
    state->version->MultiGet(options, unresolved.data(), unresolved.size());
    for (const GetRequest* r : unresolved) {
      if (r->status.ok()) perf->version_hits++;
    }
  }
  ReleaseReadState(state);

  for (size_t i = 0; i < n; i++) {
    statuses[i] = requests[i].status;
  }

  if (sim_ != nullptr) {
    sim_->AdvanceMicros(kPointLookupCpuUs * static_cast<double>(n),
                        SimActivity::kCpu);
  }
  op_span.SetArg2("batches", 1);
  if (stats_ != nullptr) {
    // One sample per key, each batch_time/N: the read-latency histogram
    // stays per-key comparable between Get and MultiGet runs.
    const double per_key_us =
        static_cast<double>(NowMicros() - start_us) / static_cast<double>(n);
    for (size_t i = 0; i < n; i++) {
      stats_->RecordLatency(OpHistogram::kReadLatencyUs, per_key_us);
    }
  }
  return statuses;
}

Iterator* DBImpl::NewIterator(const ReadOptions& options) {
  if (sim_ != nullptr) sim_->Pump();
  GetPerfContext()->seek_count++;
  SequenceNumber latest_snapshot;
  Iterator* iter = NewInternalIterator(options, &latest_snapshot);
  return NewDBIterator(
      internal_comparator_.user_comparator(), iter,
      (options.snapshot != nullptr
           ? static_cast<const SnapshotImpl*>(options.snapshot)
                 ->sequence_number()
           : latest_snapshot));
}

const Snapshot* DBImpl::GetSnapshot() {
  // The snapshot list has its own leaf mutex so snapshot churn never
  // contends with writers or background work holding mutex_. LastSequence
  // is an atomic acquire load, so no other lock is needed.
  const SequenceNumber seq = versions_->LastSequence();
  std::lock_guard<std::mutex> l(snapshots_mutex_);
  return snapshots_.New(seq);
}

void DBImpl::ReleaseSnapshot(const Snapshot* snapshot) {
  std::lock_guard<std::mutex> l(snapshots_mutex_);
  snapshots_.Delete(static_cast<const SnapshotImpl*>(snapshot));
}

// Convenience methods
Status DBImpl::Put(const WriteOptions& o, const Slice& key,
                   const Slice& val) {
  return DB::Put(o, key, val);
}

Status DBImpl::Delete(const WriteOptions& options, const Slice& key) {
  return DB::Delete(options, key);
}

Status DBImpl::PreflightWrite() {
  if (shutting_down_.load(std::memory_order_acquire)) {
    return Status::IOError(dbname_, "shutting down");
  }
  std::lock_guard<std::mutex> l(mutex_);
  return bg_error_;
}

Status DBImpl::Write(const WriteOptions& options, WriteBatch* updates) {
  if (sim_ != nullptr) sim_->Pump();
  const uint64_t start_us = NowMicros();

  TraceSpan op_span(tracer_, TraceCat::kWrite, "db.write");
  op_span.SetLabel(trace_label_);

  Writer w;
  w.batch = updates;
  w.sync = options.sync;
  w.done = false;

  mutex_.lock();
  ObserveOp(true);
  writers_.push_back(&w);
  if (!w.done && &w != writers_.front()) {
    // Waiting for an earlier leader: either it commits this batch as part
    // of its group (done) or this writer becomes the next leader.
    TraceSpan wait_span(tracer_, TraceCat::kWrite, "write.queue_wait");
    wait_span.SetLabel(trace_label_);
    while (!w.done && &w != writers_.front()) {
      w.cv.wait(mutex_);
    }
  }
  if (w.done) {
    // A leader committed this batch as part of its group.
    mutex_.unlock();
    if (stats_ != nullptr) {
      stats_->RecordLatency(OpHistogram::kWriteLatencyUs,
                            static_cast<double>(NowMicros() - start_us));
    }
    return w.status;
  }

  // This thread is the group leader. MakeRoomForWrite may release and
  // re-acquire the mutex, but only the front writer runs it, so the queue
  // order is preserved.
  Status status = MakeRoomForWrite(updates == nullptr);
  uint64_t last_sequence = versions_->LastSequence();
  Writer* last_writer = &w;
  if (status.ok() && updates != nullptr) {
    WriteBatch* write_batch = BuildBatchGroup(&last_writer);
    WriteBatchInternal::SetSequence(write_batch, last_sequence + 1);
    const int count = WriteBatchInternal::Count(write_batch);
    last_sequence += count;

    // Append to the WAL and apply to the memtable with the lock released:
    // &w is the front of the queue, so no other thread can enter this
    // region concurrently; the skip list tolerates concurrent readers.
    {
      mutex_.unlock();
      const Slice contents = WriteBatchInternal::Contents(write_batch);
      op_span.SetArg1("group_entries", static_cast<uint64_t>(count));
      op_span.SetArg2("group_bytes", contents.size());
      bool sync_error = false;
      {
        TraceSpan wal_span(tracer_, TraceCat::kWrite, "wal.append");
        wal_span.SetArg1("bytes", contents.size());
        status = log_->AddRecord(contents);
        if (status.ok() && options.sync) {
          status = logfile_->Sync();
          if (!status.ok()) {
            sync_error = true;
          }
        }
      }
      if (status.ok()) {
        TraceSpan mem_span(tracer_, TraceCat::kWrite, "memtable.insert");
        mem_span.SetArg1("entries", static_cast<uint64_t>(count));
        status = WriteBatchInternal::InsertInto(write_batch, mem_);
      }
      if (stats_ != nullptr) {
        stats_->Record(kWalWriteBytes, contents.size());
      }
      mutex_.lock();
      if (sync_error) {
        // The state of the log file is indeterminate: the record we just
        // added may or may not show up after a crash. Refuse new writes.
        RecordBackgroundError(status);
      }
      if (sim_ != nullptr) {
        if (options.sync) {
          sim_->ChargeForegroundWrite(contents.size(), SimActivity::kWal);
        } else {
          sim_->ChargeBufferedAppend(contents.size(), SimActivity::kWal);
        }
        sim_->AdvanceMicros(kMemTableInsertCpuUs * count, SimActivity::kCpu);
      }
    }
    if (write_batch == tmp_batch_) tmp_batch_->Clear();

    versions_->SetLastSequence(last_sequence);
  }

  while (true) {
    Writer* ready = writers_.front();
    writers_.pop_front();
    if (ready != &w) {
      ready->status = status;
      ready->done = true;
      ready->cv.notify_one();
    }
    if (ready == last_writer) break;
  }

  // Notify new head of write queue
  if (!writers_.empty()) {
    writers_.front()->cv.notify_one();
  }
  mutex_.unlock();

  if (stats_ != nullptr) {
    stats_->RecordLatency(OpHistogram::kWriteLatencyUs,
                          static_cast<double>(NowMicros() - start_us));
  }
  return status;
}

// REQUIRES: mutex_ held; writer list must be non-empty; first writer must
// have a non-null batch.
WriteBatch* DBImpl::BuildBatchGroup(Writer** last_writer) {
  assert(!writers_.empty());
  Writer* first = writers_.front();
  WriteBatch* result = first->batch;
  assert(result != nullptr);

  size_t size = WriteBatchInternal::ByteSize(first->batch);

  // Allow the group to grow up to a maximum size, but if the original
  // write is small, limit the growth so we do not slow down the small
  // write too much.
  size_t max_size = 1 << 20;
  if (size <= (128 << 10)) {
    max_size = size + (128 << 10);
  }

  *last_writer = first;
  std::deque<Writer*>::iterator iter = writers_.begin();
  ++iter;  // Advance past "first"
  for (; iter != writers_.end(); ++iter) {
    Writer* w = *iter;
    if (w->sync && !first->sync) {
      // Do not include a sync write into a batch handled by a non-sync
      // write.
      break;
    }

    if (w->batch != nullptr) {
      size += WriteBatchInternal::ByteSize(w->batch);
      if (size > max_size) {
        // Do not make batch too big
        break;
      }

      // Append to *result
      if (result == first->batch) {
        // Switch to temporary batch instead of disturbing caller's batch
        result = tmp_batch_;
        assert(WriteBatchInternal::Count(result) == 0);
        WriteBatchInternal::Append(result, first->batch);
      }
      WriteBatchInternal::Append(result, w->batch);
    }
    *last_writer = w;
  }
  return result;
}

// REQUIRES: mem_ is not null
Status DBImpl::MakeRoomForWrite(bool force) {
  bool allow_delay = !force;
  Status s;
  while (true) {
    if (!bg_error_.ok()) {
      // Yield previous error
      s = bg_error_;
      break;
    } else if (allow_delay &&
               options_.compaction_style != CompactionStyle::kTiered &&
               versions_->NumLevelFiles(0) >= options_.l0_slowdown_trigger) {
      // We are getting close to hitting a hard limit on the number of
      // L0 files. Rather than delaying a single write by several
      // seconds when we hit the hard limit, start delaying each
      // individual write by 1ms to reduce latency variance.
      MaybeScheduleCompaction();
      {
        TraceSpan stall_span(tracer_, TraceCat::kStall, "stall.l0_slowdown");
        stall_span.SetLabel(trace_label_);
        if (sim_ != nullptr) {
          // Virtual clock: the delay costs 1ms of simulated time.
          sim_->AdvanceMicros(1000.0, SimActivity::kCpu);
        } else {
          mutex_.unlock();
          env_->SleepForMicroseconds(1000);
          mutex_.lock();
        }
      }
      if (stats_ != nullptr) {
        stats_->Record(kSlowdownMicros, 1000);
        stats_->RecordLatency(OpHistogram::kWriteStallUs, 1000.0);
      }
      NotifyWriteStall(WriteStallCause::kL0SlowdownTrigger, 1000);
      allow_delay = false;  // Do not delay a single write more than once
    } else if (!force &&
               (mem_->ApproximateMemoryUsage() <= options_.write_buffer_size)) {
      // There is room in current memtable
      break;
    } else if (imm_ != nullptr) {
      // We have filled up the current memtable, but the previous
      // one is still being flushed, so we wait.
      const uint64_t stall_start = NowMicros();
      TraceSpan stall_span(tracer_, TraceCat::kStall, "stall.memtable_wait");
      stall_span.SetLabel(trace_label_);
      MaybeScheduleCompaction();
      if (sim_ != nullptr) {
        if (sim_->HasPendingBackgroundJobs()) {
          mutex_.unlock();
          sim_->WaitForNextBackgroundJob();
          mutex_.lock();
        }
      } else if (bg_jobs_scheduled_ > 0 || manual_compaction_active_) {
        background_work_finished_signal_.wait(mutex_);
      } else if (imm_ != nullptr && bg_error_.ok()) {
        // No background call outstanding yet the imm_ persists: with an
        // inline Env the flush ran synchronously and must have failed.
        s = Status::IOError("immutable memtable was not flushed");
        break;
      }
      // Link the stall back to the background job that (most recently)
      // finished and woke this writer.
      if (last_unblocker_flow_ != 0) stall_span.SetFlowIn(last_unblocker_flow_);
      const uint64_t stall_us = NowMicros() - stall_start;
      if (stats_ != nullptr) {
        stats_->Record(kStallMicros, stall_us);
        stats_->RecordLatency(OpHistogram::kWriteStallUs,
                              static_cast<double>(stall_us));
      }
      NotifyWriteStall(WriteStallCause::kMemtableLimit, stall_us);
    } else if (options_.compaction_style != CompactionStyle::kTiered &&
               versions_->NumLevelFiles(0) >= options_.l0_stop_trigger) {
      // There are too many level-0 files.
      const uint64_t stall_start = NowMicros();
      TraceSpan stall_span(tracer_, TraceCat::kStall, "stall.l0_stop");
      stall_span.SetLabel(trace_label_);
      MaybeScheduleCompaction();
      if (sim_ != nullptr) {
        if (sim_->HasPendingBackgroundJobs()) {
          mutex_.unlock();
          sim_->WaitForNextBackgroundJob();
          mutex_.lock();
        }
      } else if (bg_jobs_scheduled_ > 0 || manual_compaction_active_) {
        background_work_finished_signal_.wait(mutex_);
      } else if (versions_->NumLevelFiles(0) >= options_.l0_stop_trigger &&
                 bg_error_.ok()) {
        s = Status::IOError("level-0 files did not drain");
        break;
      }
      if (last_unblocker_flow_ != 0) stall_span.SetFlowIn(last_unblocker_flow_);
      const uint64_t stall_us = NowMicros() - stall_start;
      if (stats_ != nullptr) {
        stats_->Record(kStallMicros, stall_us);
        stats_->RecordLatency(OpHistogram::kWriteStallUs,
                              static_cast<double>(stall_us));
      }
      NotifyWriteStall(WriteStallCause::kL0StopTrigger, stall_us);
    } else {
      // Attempt to switch to a new memtable and trigger flush of old.
      assert(versions_->PrevLogNumber() == 0);
      uint64_t new_log_number = versions_->NewFileNumber();
      WritableFile* lfile = nullptr;
      s = env_->NewWritableFile(LogFileName(dbname_, new_log_number),
                                WriteHint::kWal, &lfile);
      if (!s.ok()) {
        break;
      }
      delete log_;
      delete logfile_;
      logfile_ = lfile;
      logfile_number_ = new_log_number;
      log_ = new log::Writer(lfile);
      imm_ = mem_;
      has_imm_.store(true, std::memory_order_release);
      mem_ = new MemTable(internal_comparator_);
      mem_->Ref();
      // Publish before any write lands in the new memtable: readers must
      // never see a ReadState whose memtables miss committed sequences.
      PublishReadState();
      force = false;  // Do not force another compaction if have room
      if (tracer_ != nullptr) {
        // Flow id handed to the flush job that will persist this memtable.
        pending_flush_flow_ = Tracer::NewId();
        tracer_->Instant(TraceCat::kFlush, "memtable.switch",
                         trace_label_.c_str(), 0, pending_flush_flow_);
      }
      MaybeScheduleCompaction();
    }
  }
  return s;
}

Status DBImpl::WaitForIdle() {
  if (sim_ != nullptr) {
    // Drain scheduled jobs and keep scheduling until the tree is balanced.
    int spins = 0;
    while (true) {
      sim_->Drain();  // Fires RunBackgroundJob callbacks; needs mutex_ free.
      mutex_.lock();
      MaybeScheduleCompaction();
      const bool pending = sim_->HasPendingBackgroundJobs() ||
                           bg_jobs_scheduled_ > 0 ||
                           imm_ != nullptr || !pending_merges_.empty();
      const Status err = bg_error_;
      mutex_.unlock();
      if (!pending) return err;
      if (++spins > 1000000) {
        return Status::IOError("WaitForIdle did not converge");
      }
    }
  }
  mutex_.lock();
  while (true) {
    MaybeScheduleCompaction();
    const bool pending = bg_jobs_scheduled_ > 0 || !job_queue_.empty() ||
                         imm_ != nullptr || !pending_merges_.empty();
    if (!pending || !bg_error_.ok() ||
        shutting_down_.load(std::memory_order_acquire)) {
      break;
    }
    background_work_finished_signal_.wait(mutex_);
  }
  Status s = bg_error_;
  mutex_.unlock();
  return s;
}

bool DBImpl::GetProperty(const Slice& property, std::string* value) {
  value->clear();
  std::lock_guard<std::mutex> l(mutex_);

  Slice in = property;
  Slice prefix("ldc.");
  if (!in.starts_with(prefix)) return false;
  in.remove_prefix(prefix.size());

  if (in.starts_with("num-files-at-level")) {
    in.remove_prefix(strlen("num-files-at-level"));
    uint64_t level;
    bool ok = ConsumeDecimalNumber(&in, &level) && in.empty();
    if (!ok || level >= static_cast<uint64_t>(versions_->NumLevels())) {
      return false;
    } else {
      char buf[100];
      std::snprintf(buf, sizeof(buf), "%d",
                    versions_->NumLevelFiles(static_cast<int>(level)));
      *value = buf;
      return true;
    }
  } else if (in == "stats") {
    // Built with size-checked snprintf into a std::string (the old fixed
    // buffer silently truncated once the level table grew).
    std::string result;
    char buf[200];
    int n = std::snprintf(buf, sizeof(buf),
                          "                               Compactions\n"
                          "Level  Files Size(MB) Frozen(MB)\n"
                          "--------------------------------\n");
    if (n > 0) result.append(buf, std::min(sizeof(buf) - 1, size_t(n)));
    // Frozen bytes attributed to the level each file was frozen from.
    uint64_t frozen_by_level[config::kMaxNumLevels] = {};
    for (const auto& kvp : versions_->registry()->all_frozen()) {
      const int l = kvp.second.origin_level;
      if (l >= 0 && l < config::kMaxNumLevels) {
        frozen_by_level[l] += kvp.second.file_size;
      }
    }
    for (int level = 0; level < versions_->NumLevels(); level++) {
      int files = versions_->NumLevelFiles(level);
      if (files > 0 || versions_->NumLevelBytes(level) > 0 ||
          frozen_by_level[level] > 0) {
        n = std::snprintf(buf, sizeof(buf), "%3d %8d %8.2f %10.2f\n", level,
                          files, versions_->NumLevelBytes(level) / 1048576.0,
                          frozen_by_level[level] / 1048576.0);
        if (n > 0) result.append(buf, std::min(sizeof(buf) - 1, size_t(n)));
      }
    }
    *value = std::move(result);
    return true;
  } else if (in == "compaction-stats") {
    std::string result;
    char buf[256];
    int n = std::snprintf(
        buf, sizeof(buf),
        "Level Count Pick(us) Read(us) Merge(us) Write(us) Install(us) "
        "Read(MB) Write(MB) W-Amp\n");
    if (n > 0) result.append(buf, std::min(sizeof(buf) - 1, size_t(n)));
    for (int level = 0; level < versions_->NumLevels(); level++) {
      const CompactionStats& cs = versions_->compaction_stats(level);
      if (cs.count == 0 && cs.micros == 0 && cs.pick_micros == 0) continue;
      n = std::snprintf(
          buf, sizeof(buf),
          "%5d %5llu %8llu %8llu %9llu %9llu %11llu %8.2f %9.2f %5.2f\n",
          level, static_cast<unsigned long long>(cs.count),
          static_cast<unsigned long long>(cs.pick_micros),
          static_cast<unsigned long long>(cs.read_micros),
          static_cast<unsigned long long>(cs.merge_micros),
          static_cast<unsigned long long>(cs.write_micros),
          static_cast<unsigned long long>(cs.install_micros),
          (cs.bytes_read_upper + cs.bytes_read_lower) / 1048576.0,
          cs.bytes_written / 1048576.0, cs.WriteAmplification());
      if (n > 0) result.append(buf, std::min(sizeof(buf) - 1, size_t(n)));
    }
    n = std::snprintf(
        buf, sizeof(buf),
        "flushes: %llu (%llu bytes, %llu us), cumulative write-amp: %.2f\n",
        static_cast<unsigned long long>(versions_->flush_count()),
        static_cast<unsigned long long>(versions_->flush_bytes()),
        static_cast<unsigned long long>(versions_->flush_micros()),
        versions_->CumulativeWriteAmplification());
    if (n > 0) result.append(buf, std::min(sizeof(buf) - 1, size_t(n)));
    *value = std::move(result);
    return true;
  } else if (in == "cumulative-writeamp") {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.4f",
                  versions_->CumulativeWriteAmplification());
    *value = buf;
    return true;
  } else if (in == "readstate-deferred-cleanups") {
    // How many times a reader's release had to fall back to mutex_ because
    // it dropped the last reference to a retired ReadState. Flat while only
    // readers run — tests use that to assert the hot Get path never takes
    // the DB mutex.
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%llu",
                  static_cast<unsigned long long>(
                      readstate_deferred_cleanups_.load(
                          std::memory_order_relaxed)));
    *value = buf;
    return true;
  } else if (in == "stats-json") {
    JsonWriter w;
    w.BeginObject();
    w.KV("db", dbname_);
    // Which CRC32C loop this host runs (every WAL append and table block
    // pays it), so a slow host can be told apart from a slow engine.
    w.KV("crc32c", crc32c::IsHardwareAccelerated() ? "sse4.2" : "portable");
    w.Key("levels");
    w.BeginArray();
    for (int level = 0; level < versions_->NumLevels(); level++) {
      const CompactionStats& cs = versions_->compaction_stats(level);
      w.BeginObject();
      w.KV("level", level);
      w.KV("files", versions_->NumLevelFiles(level));
      w.KV("bytes", static_cast<uint64_t>(versions_->NumLevelBytes(level)));
      w.KV("compactions", cs.count);
      w.KV("write_amp", cs.WriteAmplification());
      w.KV("bytes_read_upper", cs.bytes_read_upper);
      w.KV("bytes_read_lower", cs.bytes_read_lower);
      w.KV("bytes_written", cs.bytes_written);
      w.Key("micros");
      w.BeginObject();
      w.KV("total", cs.micros);
      w.KV("pick", cs.pick_micros);
      w.KV("read", cs.read_micros);
      w.KV("merge", cs.merge_micros);
      w.KV("write", cs.write_micros);
      w.KV("install", cs.install_micros);
      w.EndObject();
      w.EndObject();
    }
    w.EndArray();
    w.KV("cumulative_write_amp", versions_->CumulativeWriteAmplification());
    w.Key("flush");
    w.BeginObject();
    w.KV("count", versions_->flush_count());
    w.KV("bytes", versions_->flush_bytes());
    w.KV("micros", versions_->flush_micros());
    w.EndObject();
    w.Key("frozen");
    w.BeginObject();
    w.KV("files", static_cast<uint64_t>(
                      versions_->registry()->FrozenFileCount()));
    w.KV("bytes", versions_->registry()->TotalFrozenBytes());
    w.EndObject();
    w.KV("slice_link_threshold", EffectiveSliceThresholdLocked());
    w.Key("background");
    w.BeginObject();
    w.KV("max_jobs", options_.max_background_jobs);
    w.KV("jobs_running", bg_jobs_running_);
    w.KV("max_parallel_merges", max_parallel_merges_);
    w.EndObject();
    w.KV("block_cache_usage",
         static_cast<uint64_t>(options_.block_cache != nullptr
                                   ? options_.block_cache->TotalCharge()
                                   : 0));
    size_t memtable_usage = mem_->ApproximateMemoryUsage();
    if (imm_ != nullptr) memtable_usage += imm_->ApproximateMemoryUsage();
    w.KV("memtable_usage", static_cast<uint64_t>(memtable_usage));
    if (stats_ != nullptr) {
      w.Key("statistics");
      w.Raw(stats_->ToJson());
    }
    w.EndObject();
    *value = w.str();
    return true;
  } else if (in == "sstables") {
    *value = versions_->current()->DebugString();
    return true;
  } else if (in == "frozen-bytes") {
    *value = NumberToString(versions_->registry()->TotalFrozenBytes());
    return true;
  } else if (in == "frozen-files") {
    *value = NumberToString(versions_->registry()->FrozenFileCount());
    return true;
  } else if (in == "total-bytes") {
    *value = NumberToString(static_cast<uint64_t>(versions_->TotalLiveBytes()) +
                            versions_->registry()->TotalFrozenBytes());
    return true;
  } else if (in == "slice-link-threshold") {
    *value = NumberToString(EffectiveSliceThresholdLocked());
    return true;
  } else if (in == "level-summary") {
    *value = versions_->LevelSummary();
    return true;
  } else if (in == "block-cache-usage") {
    *value = NumberToString(options_.block_cache != nullptr
                                ? options_.block_cache->TotalCharge()
                                : 0);
    return true;
  } else if (in == "bg-jobs-running") {
    *value = NumberToString(static_cast<uint64_t>(bg_jobs_running_));
    return true;
  } else if (in == "parallel-merges") {
    // Peak number of LDC merges observed running simultaneously.
    *value = NumberToString(static_cast<uint64_t>(max_parallel_merges_));
    return true;
  } else if (in == "channels") {
    // Per-channel device accounting, JSON. Only meaningful in sim mode.
    if (sim_ == nullptr) {
      return false;
    }
    std::string out = "{\"channels\": ";
    out += NumberToString(static_cast<uint64_t>(sim_->num_channels()));
    out += ", \"placement\": \"";
    out += PlacementPolicyName(sim_->model().placement);
    out += "\", \"per_channel\": [";
    for (int k = 0; k < sim_->num_channels(); k++) {
      if (k > 0) out += ", ";
      out += "{\"channel\": " + NumberToString(static_cast<uint64_t>(k));
      out += ", \"read_bytes\": " + NumberToString(sim_->ChannelBytesRead(k));
      out +=
          ", \"write_bytes\": " + NumberToString(sim_->ChannelBytesWritten(k));
      out += ", \"busy_us\": " + NumberToString(sim_->ChannelBusyMicros(k));
      out += ", \"queued\": " +
             NumberToString(static_cast<uint64_t>(sim_->ChannelQueuedJobs(k)));
      out += "}";
    }
    out += "]}";
    *value = std::move(out);
    return true;
  } else if (in == "trace-summary") {
    if (tracer_ == nullptr) {
      return false;
    }
    *value = tracer_->SummaryJson();
    return true;
  }

  return false;
}

void DBImpl::GetApproximateSizes(const Range* range, int n, uint64_t* sizes) {
  // Approximate by summing whole files whose ranges overlap the query,
  // plus the estimated bytes of every LDC slice link whose key range
  // overlaps it (that data lives in frozen files, not in the live levels,
  // but is still readable in the range). Coarse but sufficient for the
  // library's users (space accounting is done via "ldc.total-bytes").
  std::lock_guard<std::mutex> l(mutex_);
  Version* v = versions_->current();
  v->Ref();
  const Comparator* ucmp = internal_comparator_.user_comparator();
  for (int i = 0; i < n; i++) {
    uint64_t total = 0;
    for (int level = 0; level < versions_->NumLevels(); level++) {
      for (FileMetaData* f : v->files(level)) {
        if (ucmp->Compare(f->largest.user_key(), range[i].start) < 0) continue;
        if (ucmp->Compare(f->smallest.user_key(), range[i].limit) >= 0)
          continue;
        total += f->file_size;
      }
    }
    for (const auto& kvp : versions_->registry()->all_links()) {
      for (const SliceLinkMeta& link : kvp.second) {
        if (ucmp->Compare(link.largest.user_key(), range[i].start) < 0)
          continue;
        if (ucmp->Compare(link.smallest.user_key(), range[i].limit) >= 0)
          continue;
        total += link.estimated_bytes;
      }
    }
    sizes[i] = total;
  }
  v->Unref();
}

void DBImpl::CompactRange(const Slice* begin, const Slice* end) {
  int max_level_with_files = 1;
  {
    std::lock_guard<std::mutex> l(mutex_);
    Version* base = versions_->current();
    for (int level = 1; level < versions_->NumLevels(); level++) {
      if (base->OverlapInLevel(level, begin, end)) {
        max_level_with_files = level;
      }
    }
  }
  TEST_CompactMemTable();  // Flush memtable (ignores errors)
  if (options_.compaction_style != CompactionStyle::kUdc) {
    // Manual range compaction is a UDC concept; the other styles simply run
    // their own background work until the tree settles.
    WaitForIdle();
    return;
  }
  for (int level = 0; level < max_level_with_files; level++) {
    TEST_CompactRange(level, begin, end);
  }
}

void DBImpl::TEST_CompactRange(int level, const Slice* begin,
                               const Slice* end) {
  assert(level >= 0);
  assert(level + 1 < versions_->NumLevels());

  InternalKey begin_storage, end_storage;
  InternalKey* begin_key = nullptr;
  InternalKey* end_key = nullptr;
  if (begin != nullptr) {
    begin_storage = InternalKey(*begin, kMaxSequenceNumber, kValueTypeForSeek);
    begin_key = &begin_storage;
  }
  if (end != nullptr) {
    end_storage = InternalKey(*end, 0, static_cast<ValueType>(0));
    end_key = &end_storage;
  }

  if (sim_ != nullptr) {
    // Settle the simulated timeline first so no sim job races the manual
    // compaction (Drain fires callbacks that acquire mutex_).
    sim_->Drain();
  }
  mutex_.lock();
  // Wait until every background worker has exited and no claimed job is
  // left queued (workers drain the queue before exiting, so both counts
  // reach zero together unless a background error aborted the queue).
  while (sim_ == nullptr &&
         (bg_jobs_scheduled_ > 0 || !job_queue_.empty()) && bg_error_.ok()) {
    background_work_finished_signal_.wait(mutex_);
  }
  Compaction* c = versions_->CompactRange(level, begin_key, end_key);
  if (c != nullptr) {
    // Block MaybeScheduleCompaction from launching competing jobs while we
    // run this compaction inline.
    manual_compaction_active_ = true;
    DoUdcCompaction(c);
    manual_compaction_active_ = false;
    background_work_finished_signal_.notify_all();
    MaybeScheduleCompaction();
  }
  mutex_.unlock();
}

Status DBImpl::TEST_CompactMemTable() {
  // nullptr batch means just wait for earlier writes to be done
  Status s = Write(WriteOptions(), nullptr);
  if (s.ok()) {
    if (sim_ != nullptr) {
      // Force the flush through the simulated device.
      while (true) {
        mutex_.lock();
        const bool need =
            imm_ != nullptr && sim_->HasPendingBackgroundJobs();
        mutex_.unlock();
        if (!need) break;
        sim_->WaitForNextBackgroundJob();
      }
      mutex_.lock();
    } else {
      mutex_.lock();
      while (imm_ != nullptr && bg_error_.ok()) {
        MaybeScheduleCompaction();
        if (imm_ == nullptr || !bg_error_.ok()) break;
        if (bg_jobs_scheduled_ > 0) {
          background_work_finished_signal_.wait(mutex_);
        } else {
          break;  // Nothing scheduled yet the imm_ persists: give up.
        }
      }
    }
    if (imm_ != nullptr && bg_error_.ok()) {
      s = Status::IOError("immutable memtable was not flushed");
    }
    if (!bg_error_.ok()) s = bg_error_;
    mutex_.unlock();
  }
  return s;
}

DB::~DB() = default;

Snapshot::~Snapshot() = default;

Status DB::Put(const WriteOptions& opt, const Slice& key, const Slice& value) {
  WriteBatch batch;
  batch.Put(key, value);
  return Write(opt, &batch);
}

Status DB::Delete(const WriteOptions& opt, const Slice& key) {
  WriteBatch batch;
  batch.Delete(key);
  return Write(opt, &batch);
}

std::vector<Status> DB::MultiGet(const ReadOptions& options,
                                 const std::vector<Slice>& keys,
                                 std::vector<std::string>* values) {
  // Default implementation: N sequential Gets. Implementations override
  // this with a batched read that pins one consistent state for all keys.
  values->clear();
  values->resize(keys.size());
  std::vector<Status> statuses(keys.size());
  for (size_t i = 0; i < keys.size(); i++) {
    statuses[i] = Get(options, keys[i], &(*values)[i]);
  }
  return statuses;
}

Status DB::Open(const Options& options, const std::string& dbname, DB** dbptr) {
  *dbptr = nullptr;

  Status roles = CheckCacheRoles(dbname, options);
  if (!roles.ok()) return roles;
  if (options.num_shards != 1) {
    return ShardedDB::Open(options, dbname, dbptr);
  }
  if (options.env->FileExists(ShardingFileName(dbname))) {
    return Status::InvalidArgument(
        dbname, "is a sharded DB; reopen with the matching options.num_shards");
  }

  DBImpl* impl = new DBImpl(options, dbname);
  impl->mutex_.lock();
  VersionEdit edit;
  // Recover handles create_if_missing, error_if_exists
  bool save_manifest = false;
  std::vector<FlushJobInfo> flushes;
  Status s = impl->Recover(&edit, &save_manifest, &flushes);
  if (s.ok() && impl->mem_ == nullptr) {
    // Create new log and a corresponding memtable.
    uint64_t new_log_number = impl->versions_->NewFileNumber();
    WritableFile* lfile;
    s = options.env->NewWritableFile(LogFileName(dbname, new_log_number),
                                     WriteHint::kWal, &lfile);
    if (s.ok()) {
      edit.SetLogNumber(new_log_number);
      impl->logfile_ = lfile;
      impl->logfile_number_ = new_log_number;
      impl->log_ = new log::Writer(lfile);
      impl->mem_ = new MemTable(impl->internal_comparator_);
      impl->mem_->Ref();
    }
  }
  if (s.ok() && save_manifest) {
    edit.SetPrevLogNumber(0);  // No older logs needed after recovery.
    edit.SetLogNumber(impl->logfile_number_);
    s = impl->versions_->LogAndApply(&edit);
  }
  if (s.ok()) {
    // The recovered memtables' flushes count once their tables are live.
    for (const FlushJobInfo& info : flushes) impl->ReportFlush(info);
    impl->RemoveObsoleteFiles();
    // Register the reclaim observer only now: during manifest recovery the
    // registry replays historical RemoveFrozenFile records, which must not
    // fire events for files reclaimed in earlier incarnations.
    impl->versions_->registry()->SetReclaimObserver(
        [impl](const FrozenFileMeta& f) {
          FrozenFileReclaimedInfo info;
          info.db_name = impl->dbname_;
          info.file_number = f.number;
          info.file_size = f.file_size;
          info.micros = impl->env_->NowMicros();
          impl->NotifyFrozenFileReclaimed(info);
        });
    Log(impl->options_.info_log, "DB opened: %s (compaction style: %s)",
        dbname.c_str(), CompactionStyleName(impl->options_.compaction_style));
    // LDC: merge triggers queued before the previous shutdown were only in
    // memory; rebuild them from the recovered link state so lower files at
    // or above T_s make progress without waiting for another link.
    if (impl->options_.compaction_style == CompactionStyle::kLdc) {
      const int threshold = impl->EffectiveSliceThresholdLocked();
      for (const auto& kvp : impl->versions_->registry()->all_links()) {
        if (static_cast<int>(kvp.second.size()) >= threshold) {
          impl->EnqueueLdcMerge(kvp.first);
        }
      }
    }
    impl->MaybeScheduleCompaction();
    // First ReadState: from here on Get/MultiGet/NewIterator run without
    // touching mutex_.
    impl->PublishReadState();
  }
  impl->mutex_.unlock();
  if (s.ok()) {
    assert(impl->mem_ != nullptr);
    *dbptr = impl;
  } else {
    delete impl;
  }
  return s;
}

Status DestroyDB(const std::string& dbname, const Options& options) {
  Env* env = options.env;
  std::vector<std::string> filenames;
  Status result = env->GetChildren(dbname, &filenames);
  if (!result.ok()) {
    // Ignore error in case directory does not exist
    return Status::OK();
  }

  if (env->FileExists(ShardingFileName(dbname))) {
    // Sharded layout: the root holds only the SHARDING marker plus one
    // complete plain DB per shard-<k> subdirectory. Destroy each shard,
    // then the marker and the root itself. Envs with a flat namespace
    // (MemEnv) report nested paths like "shard-0/CURRENT" as children, so
    // trim each entry to its top-level component first.
    std::set<std::string> shard_dirs;
    for (const std::string& child : filenames) {
      if (child.rfind("shard-", 0) == 0) {
        shard_dirs.insert(child.substr(0, child.find('/')));
      }
    }
    for (const std::string& dir : shard_dirs) {
      Status del = DestroyDB(dbname + "/" + dir, options);
      if (result.ok() && !del.ok()) {
        result = del;
      }
    }
    // Only drop the SHARDING marker (and the root) once every shard is
    // gone. Removing the marker while a shard survives would leave the
    // leftover shard data invisible to the sharded layout: a retried
    // DestroyDB — or worse, a fresh Open — would treat the root as a plain
    // DB and strand or misread the remaining shard directories.
    if (result.ok()) {
      Status del = env->RemoveFile(ShardingFileName(dbname));
      if (!del.ok()) {
        result = del;
      }
      env->RemoveDir(dbname);  // Ignore error in case dir contains other files
    }
    return result;
  }

  FileLock* lock;
  const std::string lockname = LockFileName(dbname);
  result = env->LockFile(lockname, &lock);
  if (result.ok()) {
    uint64_t number;
    FileType type;
    for (size_t i = 0; i < filenames.size(); i++) {
      if (ParseFileName(filenames[i], &number, &type) &&
          type != kDBLockFile) {  // Lock file will be deleted at end
        Status del = env->RemoveFile(dbname + "/" + filenames[i]);
        if (result.ok() && !del.ok()) {
          result = del;
        }
      }
    }
    env->UnlockFile(lock);  // Ignore error since state is already gone
    env->RemoveFile(lockname);
    env->RemoveDir(dbname);  // Ignore error in case dir contains other files
  }
  return result;
}

}  // namespace ldc
