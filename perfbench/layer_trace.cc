#include "layer_trace.h"

#include <cstring>
#include <type_traits>

#include "ldc/trace.h"

namespace ldc {
namespace perfbench {

namespace {

Owner OwnerOf(Span span) {
  switch (span) {
    case Span::kDbPut:
      return Owner::kPut;
    case Span::kDbGet:
      return Owner::kGet;
    case Span::kDbScan:
      return Owner::kScan;
    case Span::kDbWait:
      return Owner::kWait;
    case Span::kJobFlush:
      return Owner::kFlush;
    case Span::kJobMerge:
      return Owner::kMerge;
    default:
      return Owner::kNone;
  }
}

TraceCat CategoryOf(Span span) {
  switch (span) {
    case Span::kDbPut:
      return TraceCat::kWrite;
    case Span::kJobFlush:
      return TraceCat::kFlush;
    case Span::kDbWait:
    case Span::kJobMerge:
      return TraceCat::kCompaction;
    case Span::kWal:
    case Span::kTableRead:
    case Span::kTableWrite:
    case Span::kEnvOther:
      return TraceCat::kIo;
    default:
      return TraceCat::kGet;
  }
}

// Log files carry the WAL; .ldb/.sst files are tables; the rest (MANIFEST,
// CURRENT, LOG, LOCK) is bookkeeping.
Span SpanForFile(const std::string& fname, bool write) {
  auto ends_with = [&](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return fname.size() >= n && fname.compare(fname.size() - n, n, suffix) == 0;
  };
  if (ends_with(".log")) return Span::kWal;
  if (ends_with(".ldb") || ends_with(".sst")) {
    return write ? Span::kTableWrite : Span::kTableRead;
  }
  return Span::kEnvOther;
}

class TracingSequentialFile final : public SequentialFile {
 public:
  TracingSequentialFile(SequentialFile* target, Span span,
                        SpanRecorder* recorder)
      : target_(target), span_(span), recorder_(recorder) {}

  Status Read(size_t n, Slice* result, char* scratch) override {
    ScopedSpan s(recorder_, span_);
    return target_->Read(n, result, scratch);
  }
  Status Skip(uint64_t n) override {
    ScopedSpan s(recorder_, span_);
    return target_->Skip(n);
  }

 private:
  const std::unique_ptr<SequentialFile> target_;
  const Span span_;
  SpanRecorder* const recorder_;
};

class TracingRandomAccessFile final : public RandomAccessFile {
 public:
  TracingRandomAccessFile(RandomAccessFile* target, Span span,
                          SpanRecorder* recorder)
      : target_(target), span_(span), recorder_(recorder) {}

  Status Read(uint64_t offset, size_t n, Slice* result,
              char* scratch) const override {
    if (span_ == Span::kTableRead) recorder_->here().table_reads++;
    ScopedSpan s(recorder_, span_);
    return target_->Read(offset, n, result, scratch);
  }

 private:
  const std::unique_ptr<RandomAccessFile> target_;
  const Span span_;
  SpanRecorder* const recorder_;
};

class TracingWritableFile final : public WritableFile {
 public:
  TracingWritableFile(WritableFile* target, Span span, SpanRecorder* recorder)
      : target_(target), span_(span), recorder_(recorder) {}

  Status Append(const Slice& data) override {
    OwnerCounters& here = recorder_->here();
    if (span_ == Span::kWal) here.wal_bytes += data.size();
    if (span_ == Span::kTableWrite) here.table_bytes_written += data.size();
    ScopedSpan s(recorder_, span_);
    return target_->Append(data);
  }
  Status Close() override {
    ScopedSpan s(recorder_, span_);
    return target_->Close();
  }
  Status Flush() override {
    ScopedSpan s(recorder_, span_);
    return target_->Flush();
  }
  Status Sync() override {
    ScopedSpan s(recorder_, span_);
    return target_->Sync();
  }

 private:
  const std::unique_ptr<WritableFile> target_;
  const Span span_;
  SpanRecorder* const recorder_;
};

// Every file-system call is an env span; the clock, scheduling and sleeps
// are forwarded untouched (the in-memory Env's clock is a call counter).
class TracingEnv final : public EnvWrapper {
 public:
  TracingEnv(Env* target, SpanRecorder* recorder)
      : EnvWrapper(target), recorder_(recorder) {}

  Status NewSequentialFile(const std::string& f,
                           SequentialFile** r) override {
    ScopedSpan s(recorder_, Span::kEnvOther);
    Status st = target()->NewSequentialFile(f, r);
    if (st.ok()) {
      *r = new TracingSequentialFile(*r, SpanForFile(f, false), recorder_);
    }
    return st;
  }
  Status NewRandomAccessFile(const std::string& f,
                             RandomAccessFile** r) override {
    ScopedSpan s(recorder_, Span::kEnvOther);
    Status st = target()->NewRandomAccessFile(f, r);
    if (st.ok()) {
      *r = new TracingRandomAccessFile(*r, SpanForFile(f, false), recorder_);
    }
    return st;
  }
  Status NewWritableFile(const std::string& f, WritableFile** r) override {
    ScopedSpan s(recorder_, Span::kEnvOther);
    return Wrap(f, target()->NewWritableFile(f, r), r);
  }
  Status NewWritableFile(const std::string& f, WriteHint hint,
                         WritableFile** r) override {
    ScopedSpan s(recorder_, Span::kEnvOther);
    return Wrap(f, target()->NewWritableFile(f, hint, r), r);
  }
  Status NewAppendableFile(const std::string& f, WritableFile** r) override {
    ScopedSpan s(recorder_, Span::kEnvOther);
    return Wrap(f, target()->NewAppendableFile(f, r), r);
  }
  bool FileExists(const std::string& f) override {
    ScopedSpan s(recorder_, Span::kEnvOther);
    return target()->FileExists(f);
  }
  Status GetChildren(const std::string& dir,
                     std::vector<std::string>* r) override {
    recorder_->here().get_children++;
    ScopedSpan s(recorder_, Span::kEnvOther);
    return target()->GetChildren(dir, r);
  }
  Status RemoveFile(const std::string& f) override {
    ScopedSpan s(recorder_, Span::kEnvOther);
    return target()->RemoveFile(f);
  }
  Status CreateDir(const std::string& d) override {
    ScopedSpan s(recorder_, Span::kEnvOther);
    return target()->CreateDir(d);
  }
  Status RemoveDir(const std::string& d) override {
    ScopedSpan s(recorder_, Span::kEnvOther);
    return target()->RemoveDir(d);
  }
  Status GetFileSize(const std::string& f, uint64_t* size) override {
    ScopedSpan s(recorder_, Span::kEnvOther);
    return target()->GetFileSize(f, size);
  }
  Status RenameFile(const std::string& src,
                    const std::string& dst) override {
    ScopedSpan s(recorder_, Span::kEnvOther);
    return target()->RenameFile(src, dst);
  }
  Status LockFile(const std::string& f, FileLock** l) override {
    ScopedSpan s(recorder_, Span::kEnvOther);
    return target()->LockFile(f, l);
  }
  Status UnlockFile(FileLock* l) override {
    ScopedSpan s(recorder_, Span::kEnvOther);
    return target()->UnlockFile(l);
  }

 private:
  Status Wrap(const std::string& f, Status st, WritableFile** r) {
    if (st.ok()) {
      *r = new TracingWritableFile(*r, SpanForFile(f, true), recorder_);
    }
    return st;
  }

  SpanRecorder* const recorder_;
};

class TracingCache final : public Cache {
 public:
  TracingCache(Cache* target, bool table_handles, SpanRecorder* recorder)
      : target_(target),
        span_(table_handles ? Span::kTableCache : Span::kBlockCache),
        recorder_(recorder) {}

  Handle* Insert(const Slice& key, void* value, size_t charge,
                 void (*deleter)(const Slice& key, void* value)) override {
    if (span_ == Span::kBlockCache) recorder_->here().block_inserts++;
    ScopedSpan s(recorder_, span_);
    return target_->Insert(key, value, charge, deleter);
  }
  Handle* Lookup(const Slice& key) override {
    Handle* h = nullptr;
    {
      ScopedSpan s(recorder_, span_);
      h = target_->Lookup(key);
    }
    OwnerCounters& here = recorder_->here();
    if (span_ == Span::kBlockCache) {
      here.block_lookups++;
      if (h != nullptr) here.block_hits++;
    } else {
      here.table_lookups++;
      if (h == nullptr) here.table_misses++;
    }
    return h;
  }
  void Release(Handle* handle) override {
    ScopedSpan s(recorder_, span_);
    target_->Release(handle);
  }
  void* Value(Handle* handle) override { return target_->Value(handle); }
  void Erase(const Slice& key) override {
    ScopedSpan s(recorder_, span_);
    target_->Erase(key);
  }
  uint64_t NewId() override { return target_->NewId(); }
  void Prune() override { target_->Prune(); }
  size_t TotalCharge() const override { return target_->TotalCharge(); }

 private:
  const std::unique_ptr<Cache> target_;
  const Span span_;
  SpanRecorder* const recorder_;
};

class TracingFilterPolicy final : public FilterPolicy {
 public:
  TracingFilterPolicy(const FilterPolicy* target, SpanRecorder* recorder)
      : target_(target), recorder_(recorder) {}

  // Same name: it is stored in every table's metaindex.
  const char* Name() const override { return target_->Name(); }
  void CreateFilter(const Slice* keys, int n,
                    std::string* dst) const override {
    recorder_->here().filter_create_keys += static_cast<uint64_t>(n);
    ScopedSpan s(recorder_, Span::kFilterCreate);
    target_->CreateFilter(keys, n, dst);
  }
  bool KeyMayMatch(const Slice& key, const Slice& filter) const override {
    bool may_match = false;
    {
      ScopedSpan s(recorder_, Span::kFilterProbe);
      may_match = target_->KeyMayMatch(key, filter);
    }
    OwnerCounters& here = recorder_->here();
    here.bloom_probes++;
    if (!may_match) here.bloom_negatives++;
    return may_match;
  }

 private:
  const FilterPolicy* const target_;
  SpanRecorder* const recorder_;
};

// Counts calls only: a comparison is too short to time without the timer
// dominating it, so comparator time stays in its caller's self time.
class CountingComparator final : public Comparator {
 public:
  CountingComparator(const Comparator* target, SpanRecorder* recorder)
      : target_(target), recorder_(recorder) {}

  int Compare(const Slice& a, const Slice& b) const override {
    recorder_->here().cmp_calls++;
    return target_->Compare(a, b);
  }
  const char* Name() const override { return target_->Name(); }
  void FindShortestSeparator(std::string* start,
                             const Slice& limit) const override {
    target_->FindShortestSeparator(start, limit);
  }
  void FindShortSuccessor(std::string* key) const override {
    target_->FindShortSuccessor(key);
  }

 private:
  const Comparator* const target_;
  SpanRecorder* const recorder_;
};

// Job spans run from Begin to Completed on the benchmark's clock.
class TracingListener final : public EventListener {
 public:
  explicit TracingListener(SpanRecorder* recorder) : recorder_(recorder) {}

  void OnFlushBegin(const FlushJobInfo&) override {
    recorder_->Begin(Span::kJobFlush, Clock::now());
  }
  void OnFlushCompleted(const FlushJobInfo& info) override {
    recorder_->End(Span::kJobFlush, Clock::now());
    recorder_->jobs().flushes++;
    recorder_->jobs().flush_bytes_written += info.bytes_written;
  }
  void OnCompactionBegin(const CompactionJobInfo&) override {
    recorder_->Begin(Span::kJobMerge, Clock::now());
  }
  void OnCompactionCompleted(const CompactionJobInfo& info) override {
    recorder_->End(Span::kJobMerge, Clock::now());
    recorder_->jobs().merges++;
    recorder_->jobs().merge_bytes_read += info.bytes_read;
  }
  void OnLdcLink(const LdcLinkInfo& info) override {
    if (info.trivial_move) return;  // counted by the kTrivialMoves ticker
    recorder_->jobs().links++;
    recorder_->jobs().link_slices += static_cast<uint64_t>(info.num_slices);
  }
  void OnLdcMerge(const LdcMergeInfo& info) override {
    recorder_->jobs().ldc_merges++;
    recorder_->jobs().ldc_merge_slices +=
        static_cast<uint64_t>(info.num_slices);
  }
  void OnWriteStall(const WriteStallInfo& info) override {
    recorder_->jobs().stalls++;
    recorder_->jobs().stall_sim_us += info.duration_micros;
  }

 private:
  SpanRecorder* const recorder_;
};

}  // namespace

const char* SpanName(Span span) {
  static const char* const kNames[kSpanCount] = {
      "db.put",      "db.get",         "db.scan",      "db.wait",
      "job.flush",   "job.merge",      "wal",          "table.read",
      "table.write", "env.other",      "cache.block",  "cache.table",
      "filter.create", "filter.probe"};
  return kNames[static_cast<int>(span)];
}

LayerCounts Minus(const LayerCounts& a, const LayerCounts& b) {
  // Every member is a uint64_t counter, so the struct is a flat array.
  static_assert(std::is_trivially_copyable_v<LayerCounts>);
  constexpr size_t kWords = sizeof(LayerCounts) / sizeof(uint64_t);
  static_assert(kWords * sizeof(uint64_t) == sizeof(LayerCounts));
  uint64_t x[kWords];
  uint64_t y[kWords];
  std::memcpy(x, &a, sizeof(x));
  std::memcpy(y, &b, sizeof(y));
  for (size_t i = 0; i < kWords; i++) x[i] -= y[i];
  LayerCounts out;
  std::memcpy(&out, x, sizeof(x));
  return out;
}

SpanRecorder::SpanRecorder(Tracer* exporter)
    : exporter_(exporter), epoch_(Clock::now()) {
  // Align with the tracer's epoch so exported timestamps share its clock.
  if (exporter_ != nullptr) {
    epoch_ -= std::chrono::microseconds(exporter_->Now());
  }
}

void SpanRecorder::Begin(Span span, Clock::time_point now) {
  const uint64_t id = export_ && exporter_ != nullptr ? Tracer::NewId() : 0;
  stack_.push_back(Frame{span, owner_, now, 0, id});
  const Owner owner = OwnerOf(span);
  if (owner != Owner::kNone) owner_ = owner;
}

void SpanRecorder::End(Span span, Clock::time_point now) {
  size_t depth = stack_.size();
  while (depth > 0 && stack_[depth - 1].span != span) depth--;
  if (depth == 0) return;
  while (stack_.size() >= depth) {
    const Frame frame = stack_.back();
    stack_.pop_back();
    Close(frame, now);
  }
}

void SpanRecorder::Close(const Frame& frame, Clock::time_point now) {
  const uint64_t dur = Nanos(now - frame.start);
  const uint64_t self = dur > frame.child_ns ? dur - frame.child_ns : 0;
  SpanTotals& totals = counts_.spans[static_cast<int>(frame.span)];
  totals.count++;
  totals.total_ns += dur;
  totals.self_ns += self;
  owner_ = frame.outer_owner;
  if (!stack_.empty()) stack_.back().child_ns += dur;

  OwnerCounters& here = counts_.owners[static_cast<int>(frame.outer_owner)];
  switch (frame.span) {
    case Span::kWal:
      here.wal_ns += dur;
      break;
    case Span::kTableRead:
      here.table_read_ns += dur;
      break;
    case Span::kBlockCache:
    case Span::kTableCache:
      here.cache_ns += dur;
      break;
    case Span::kFilterCreate:
      here.filter_create_ns += dur;
      break;
    default:
      break;
  }

  if (export_ && exporter_ != nullptr) {
    TraceEvent event;
    event.ts = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(frame.start -
                                                              epoch_)
            .count());
    event.dur = dur / 1000;
    event.id = frame.id;
    event.name = SpanName(frame.span);
    event.tid = Tracer::CurrentThreadId();
    event.cat = CategoryOf(frame.span);
    event.a1_name = "self_ns";
    event.a1 = self;
    event.a2_name = "parent";
    event.a2 = stack_.empty() ? 0 : stack_.back().id;
    exporter_->Emit(event);
  }
}

std::unique_ptr<Env> NewTracingEnv(Env* target, SpanRecorder* recorder) {
  return std::make_unique<TracingEnv>(target, recorder);
}

std::unique_ptr<Cache> NewTracingCache(Cache* target, bool table_handles,
                                       SpanRecorder* recorder) {
  return std::make_unique<TracingCache>(target, table_handles, recorder);
}

std::unique_ptr<FilterPolicy> NewTracingFilterPolicy(
    const FilterPolicy* target, SpanRecorder* recorder) {
  return std::make_unique<TracingFilterPolicy>(target, recorder);
}

std::unique_ptr<Comparator> NewCountingComparator(const Comparator* target,
                                                  SpanRecorder* recorder) {
  return std::make_unique<CountingComparator>(target, recorder);
}

std::unique_ptr<EventListener> NewTracingListener(SpanRecorder* recorder) {
  return std::make_unique<TracingListener>(recorder);
}

}  // namespace perfbench
}  // namespace ldc
