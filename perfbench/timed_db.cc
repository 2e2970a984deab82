#include "timed_db.h"

#include <memory>
#include <string_view>

#include "ldc/perf_context.h"
#include "ldc/sim.h"
#include "workload/key_generator.h"

namespace ldc {
namespace perfbench {

namespace {

uint64_t HashValue(const Slice& value) {
  return std::hash<std::string_view>{}(
      std::string_view(value.data(), value.size()));
}

}  // namespace

// MakeKey's "user" + 12 decimal digits, parsed in place.
bool ParseId(const Slice& key, uint64_t* id) {
  if (key.size() != 16 || !key.starts_with("user")) return false;
  uint64_t v = 0;
  for (size_t i = 4; i < 16; i++) {
    const char c = key[i];
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *id = v;
  return true;
}

Shadow::Shadow(uint64_t key_space) : entries_(key_space) {}

bool Shadow::Put(const Slice& key, const Slice& value) {
  uint64_t id = 0;
  if (!ParseId(key, &id) || id >= entries_.size()) return false;
  Entry& e = entries_[id];
  if (e.present) live_bytes_ -= key.size() + e.size;
  e.hash = HashValue(value);
  e.size = static_cast<uint32_t>(value.size());
  e.present = true;
  live_bytes_ += key.size() + value.size();
  return true;
}

bool Shadow::Matches(uint64_t id, const Slice& value) const {
  if (id >= entries_.size()) return false;
  const Entry& e = entries_[id];
  return e.present && e.size == value.size() && e.hash == HashValue(value);
}

bool Shadow::CheckGet(const Slice& key, const Status& status,
                      const std::string& value) const {
  uint64_t id = 0;
  if (!ParseId(key, &id) || id >= entries_.size()) return false;
  if (status.IsNotFound()) return !entries_[id].present;
  return status.ok() && Matches(id, value);
}

uint64_t Shadow::NextPresent(uint64_t id) const {
  while (id < entries_.size() && !entries_[id].present) id++;
  return id < entries_.size() ? id : entries_.size();
}

TimedDb::TimedDb(DB* base, SimContext* sim, Shadow* shadow,
                 SpanRecorder* recorder)
    : base_(base), sim_(sim), shadow_(shadow), recorder_(recorder) {}

void TimedDb::StartPhase(uint64_t planned_ops, int marks,
                         std::function<void(int)> on_mark) {
  record_ = PhaseRecord();
  record_.put_wall_us.reserve(planned_ops);
  record_.put_sim_us.reserve(planned_ops);
  record_.read_wall_us.reserve(planned_ops);
  record_.read_sim_us.reserve(planned_ops);
  planned_ops_ = planned_ops;
  marks_ = marks;
  marks_done_ = 0;
  on_mark_ = std::move(on_mark);
}

template <typename Call>
uint64_t TimedDb::Timed(Span kind, uint64_t* sim_us, Call&& call) {
  const uint64_t sim_start = sim_->NowMicros();
  const Clock::time_point start = Clock::now();
  if (recorder_ != nullptr) recorder_->Begin(kind, start);
  call();
  const Clock::time_point end = Clock::now();
  if (recorder_ != nullptr) recorder_->End(kind, end);
  *sim_us = sim_->NowMicros() - sim_start;
  const uint64_t ns = Nanos(end - start);
  record_.engine_ns += ns;
  return ns;
}

void TimedDb::FinishOp() {
  record_.ops++;
  while (on_mark_ && marks_done_ + 1 < marks_ &&
         record_.ops * marks_ >= planned_ops_ * (marks_done_ + 1)) {
    on_mark_(++marks_done_);
  }
}

Status TimedDb::Put(const WriteOptions& options, const Slice& key,
                    const Slice& value) {
  Status s;
  uint64_t sim_us = 0;
  const uint64_t ns = Timed(Span::kDbPut, &sim_us,
                            [&] { s = base_->Put(options, key, value); });
  record_.puts++;
  record_.put_bytes += key.size() + value.size();
  record_.put_wall_us.push_back(ns / 1e3);
  record_.put_sim_us.push_back(static_cast<double>(sim_us));
  if (!s.ok() || !shadow_->Put(key, value)) record_.failed++;
  FinishOp();
  return s;
}

Status TimedDb::Get(const ReadOptions& options, const Slice& key,
                    std::string* value) {
  const PerfContext* perf = GetPerfContext();
  const uint64_t slices = perf->slice_sources_checked;
  const uint64_t memtable_hits = perf->memtable_hits + perf->imm_memtable_hits;
  Status s;
  uint64_t sim_us = 0;
  const uint64_t ns = Timed(Span::kDbGet, &sim_us,
                            [&] { s = base_->Get(options, key, value); });
  record_.gets++;
  record_.read_wall_us.push_back(ns / 1e3);
  record_.read_sim_us.push_back(static_cast<double>(sim_us));
  record_.get_slices_checked += perf->slice_sources_checked - slices;
  record_.get_memtable_hits +=
      perf->memtable_hits + perf->imm_memtable_hits - memtable_hits;
  if (!shadow_->CheckGet(key, s, *value)) record_.failed++;
  FinishOp();
  return s;
}

// One scan op: every call from NewIterator to the iterator's deletion is
// timed; after each positioning call the entry is checked against the
// shadow (forward iteration only, which is all the workloads do).
class TimedDb::TimedIterator final : public Iterator {
 public:
  TimedIterator(TimedDb* db, const ReadOptions& options)
      : db_(db), sim_start_(db->sim_->NowMicros()) {
    Call([&] { it_ = db_->base_->NewIterator(options); });
  }

  ~TimedIterator() override {
    Call([&] { delete it_; });
    PhaseRecord& r = db_->record_;
    r.scans++;
    r.read_wall_us.push_back(wall_ns_ / 1e3);
    r.read_sim_us.push_back(
        static_cast<double>(db_->sim_->NowMicros() - sim_start_));
    if (wrong_) r.failed++;
    db_->FinishOp();
  }

  bool Valid() const override { return it_->Valid(); }
  void SeekToFirst() override {
    Call([&] { it_->SeekToFirst(); });
    Check(0);
  }
  void SeekToLast() override {
    Call([&] { it_->SeekToLast(); });
    checking_ = false;
  }
  void Seek(const Slice& target) override {
    Call([&] { it_->Seek(target); });
    uint64_t id = 0;
    checking_ = ParseId(target, &id);
    if (checking_) Check(id);
  }
  void Next() override {
    Call([&] { it_->Next(); });
    if (checking_) Check(last_id_ + 1);
  }
  void Prev() override {
    Call([&] { it_->Prev(); });
    checking_ = false;
  }
  Slice key() const override { return it_->key(); }
  Slice value() const override { return it_->value(); }
  Status status() const override { return it_->status(); }

 private:
  template <typename F>
  void Call(F&& f) {
    uint64_t sim_us = 0;
    wall_ns_ += db_->Timed(Span::kDbScan, &sim_us, f);
  }

  // The entry under the iterator must be the first written key >= `from`.
  void Check(uint64_t from) {
    const Shadow& shadow = *db_->shadow_;
    const uint64_t expected = shadow.NextPresent(from);
    if (!it_->Valid()) {
      if (expected != shadow.key_space() || !it_->status().ok()) {
        wrong_ = true;
      }
      return;
    }
    uint64_t id = 0;
    if (!ParseId(it_->key(), &id)) {
      wrong_ = true;
      checking_ = false;
      return;
    }
    if (id != expected || !shadow.Matches(id, it_->value())) wrong_ = true;
    last_id_ = id;
  }

  TimedDb* const db_;
  const uint64_t sim_start_;
  Iterator* it_ = nullptr;
  uint64_t wall_ns_ = 0;
  uint64_t last_id_ = 0;
  bool checking_ = false;
  bool wrong_ = false;
};

Iterator* TimedDb::NewIterator(const ReadOptions& options) {
  return new TimedIterator(this, options);
}

Status TimedDb::WaitForIdle() {
  Status s;
  uint64_t sim_us = 0;
  Timed(Span::kDbWait, &sim_us, [&] { s = base_->WaitForIdle(); });
  if (!s.ok()) record_.failed++;
  return s;
}

Status TimedDb::Delete(const WriteOptions&, const Slice&) {
  record_.failed++;
  FinishOp();
  return Status::NotSupported("perfbench workloads do not Delete");
}

Status TimedDb::Write(const WriteOptions&, WriteBatch*) {
  record_.failed++;
  FinishOp();
  return Status::NotSupported("perfbench workloads do not write batches");
}

std::vector<Status> TimedDb::MultiGet(const ReadOptions&,
                                      const std::vector<Slice>& keys,
                                      std::vector<std::string>* values) {
  values->assign(keys.size(), std::string());
  for (size_t i = 0; i < keys.size(); i++) {
    record_.failed++;
    FinishOp();
  }
  return std::vector<Status>(
      keys.size(), Status::NotSupported("perfbench workloads do not MultiGet"));
}

SweepResult Sweep(DB* db, const Shadow& shadow) {
  SweepResult result;
  const ReadOptions read_options;

  // Full forward scan: every written key once, in order, with its value.
  std::unique_ptr<Iterator> it(db->NewIterator(read_options));
  uint64_t expected = shadow.NextPresent(0);
  for (it->SeekToFirst(); it->Valid(); it->Next()) {
    result.checked++;
    uint64_t id = 0;
    if (!ParseId(it->key(), &id) || id < expected) {
      result.mismatches++;  // unknown, repeated or resurrected key
      continue;
    }
    while (expected < id && expected < shadow.key_space()) {  // skipped keys
      result.mismatches++;
      expected = shadow.NextPresent(expected + 1);
    }
    if (!shadow.Matches(id, it->value())) result.mismatches++;
    expected = shadow.NextPresent(id + 1);
  }
  if (!it->status().ok()) result.mismatches++;
  for (; expected < shadow.key_space();
       expected = shadow.NextPresent(expected + 1)) {
    result.mismatches++;
  }

  // A Get of every key of the space, written or not.
  std::string value;
  for (uint64_t id = 0; id < shadow.key_space(); id++) {
    const std::string key = MakeKey(id);
    const Status s = db->Get(read_options, key, &value);
    result.checked++;
    if (!shadow.CheckGet(key, s, value)) result.mismatches++;
  }
  return result;
}

}  // namespace perfbench
}  // namespace ldc
