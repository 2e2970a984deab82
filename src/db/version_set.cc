#include "db/version_set.h"

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "db/filename.h"
#include "db/table_cache.h"
#include "ldc/env.h"
#include "ldc/iterator.h"
#include "ldc/options.h"
#include "ldc/perf_context.h"
#include "ldc/statistics.h"
#include "table/merger.h"
#include "table/two_level_iterator.h"
#include "util/logging.h"
#include "wal/log_reader.h"
#include "wal/log_writer.h"

namespace ldc {

static int64_t TotalFileSize(const std::vector<FileMetaData*>& files) {
  int64_t sum = 0;
  for (size_t i = 0; i < files.size(); i++) {
    sum += files[i]->file_size;
  }
  return sum;
}

Version::~Version() {
  assert(refs_ == 0);

  // Remove from linked list
  prev_->next_ = next_;
  next_->prev_ = prev_;

  // Drop references to files
  for (int level = 0; level < config::kMaxNumLevels; level++) {
    for (size_t i = 0; i < files_[level].size(); i++) {
      FileMetaData* f = files_[level][i];
      assert(f->refs > 0);
      f->refs--;
      if (f->refs <= 0) {
        delete f;
      }
    }
  }
}

int FindFile(const InternalKeyComparator& icmp,
             const std::vector<FileMetaData*>& files, const Slice& key) {
  uint32_t left = 0;
  uint32_t right = static_cast<uint32_t>(files.size());
  while (left < right) {
    uint32_t mid = (left + right) / 2;
    const FileMetaData* f = files[mid];
    if (icmp.Compare(f->largest.Encode(), key) < 0) {
      // Key at "mid.largest" is < "target". Therefore all
      // files at or before "mid" are uninteresting.
      left = mid + 1;
    } else {
      // Key at "mid.largest" is >= "target". Therefore all files
      // after "mid" are uninteresting.
      right = mid;
    }
  }
  return right;
}

static bool AfterFile(const Comparator* ucmp, const Slice* user_key,
                      const FileMetaData* f) {
  // null user_key occurs before all keys and is therefore never after *f
  return (user_key != nullptr &&
          ucmp->Compare(*user_key, f->largest.user_key()) > 0);
}

static bool BeforeFile(const Comparator* ucmp, const Slice* user_key,
                       const FileMetaData* f) {
  // null user_key occurs after all keys and is therefore never before *f
  return (user_key != nullptr &&
          ucmp->Compare(*user_key, f->smallest.user_key()) < 0);
}

bool SomeFileOverlapsRange(const InternalKeyComparator& icmp,
                           bool disjoint_sorted_files,
                           const std::vector<FileMetaData*>& files,
                           const Slice* smallest_user_key,
                           const Slice* largest_user_key) {
  const Comparator* ucmp = icmp.user_comparator();
  if (!disjoint_sorted_files) {
    // Need to check against all files
    for (size_t i = 0; i < files.size(); i++) {
      const FileMetaData* f = files[i];
      if (AfterFile(ucmp, smallest_user_key, f) ||
          BeforeFile(ucmp, largest_user_key, f)) {
        // No overlap
      } else {
        return true;  // Overlap
      }
    }
    return false;
  }

  // Binary search over file list
  uint32_t index = 0;
  if (smallest_user_key != nullptr) {
    // Find the earliest possible internal key for smallest_user_key
    InternalKey small_key(*smallest_user_key, kMaxSequenceNumber,
                          kValueTypeForSeek);
    index = FindFile(icmp, files, small_key.Encode());
  }

  if (index >= files.size()) {
    // beginning of range is after all files, so no overlap.
    return false;
  }

  return !BeforeFile(ucmp, largest_user_key, files[index]);
}

// An internal iterator over the files of one level, whose values name the
// files for a concatenating iterator of read groups (NewGroupIterator). For
// a given entry, key() is the largest key that occurs in the file, and
// value() holds the address of its FileMetaData. When `last_owns_tail` is
// set, a Seek past the last file's largest key lands on the last file: its
// linked slices own the key space above that key.
class Version::LevelFileNumIterator : public Iterator {
 public:
  LevelFileNumIterator(const InternalKeyComparator& icmp,
                       const std::vector<FileMetaData*>* flist,
                       bool last_owns_tail)
      : icmp_(icmp),
        flist_(flist),
        last_owns_tail_(last_owns_tail),
        index_(flist->size()) {  // Marks as invalid
  }
  bool Valid() const override { return index_ < flist_->size(); }
  void Seek(const Slice& target) override {
    index_ = FindFile(icmp_, *flist_, target);
    if (index_ == flist_->size() && last_owns_tail_) index_--;
  }
  void SeekToFirst() override { index_ = 0; }
  void SeekToLast() override {
    index_ = flist_->empty() ? 0 : flist_->size() - 1;
  }
  void Next() override {
    assert(Valid());
    index_++;
  }
  void Prev() override {
    assert(Valid());
    if (index_ == 0) {
      index_ = flist_->size();  // Marks as invalid
    } else {
      index_--;
    }
  }
  Slice key() const override {
    assert(Valid());
    return (*flist_)[index_]->largest.Encode();
  }
  Slice value() const override {
    assert(Valid());
    const FileMetaData* f = (*flist_)[index_];
    std::memcpy(value_buf_, &f, sizeof(f));
    return Slice(value_buf_, sizeof(value_buf_));
  }
  Status status() const override { return Status::OK(); }

 private:
  const InternalKeyComparator icmp_;
  const std::vector<FileMetaData*>* const flist_;
  const bool last_owns_tail_;
  uint32_t index_;

  // Backing store for value(). Holds the FileMetaData address.
  mutable char value_buf_[sizeof(FileMetaData*)];
};

namespace {

// An iterator over the internal-key range [smallest, largest] of a wrapped
// iterator: one slice of a frozen file. Only the blocks covering the slice
// are read. Each move checks only the bound it moves toward (a step
// forward cannot cross `smallest`, a step back cannot cross `largest`), so
// a forward pass costs one comparison per entry.
class BoundedIterator : public Iterator {
 public:
  BoundedIterator(const InternalKeyComparator* icmp, Iterator* iter,
                  const InternalKey& smallest, const InternalKey& largest)
      : icmp_(icmp),
        iter_(iter),
        smallest_(smallest.Encode().ToString()),
        largest_(largest.Encode().ToString()) {}

  ~BoundedIterator() override { delete iter_; }

  bool Valid() const override { return valid_; }
  void SeekToFirst() override {
    iter_->Seek(smallest_);
    CheckUpper();
  }
  void SeekToLast() override {
    iter_->Seek(largest_);
    if (!iter_->Valid()) {
      iter_->SeekToLast();
    } else if (icmp_->Compare(iter_->key(), Slice(largest_)) > 0) {
      iter_->Prev();
    }
    CheckLower();
  }
  void Seek(const Slice& target) override {
    if (icmp_->Compare(target, Slice(smallest_)) < 0) {
      iter_->Seek(smallest_);
    } else {
      iter_->Seek(target);
    }
    CheckUpper();
  }
  void Next() override {
    assert(Valid());
    iter_->Next();
    CheckUpper();
  }
  void Prev() override {
    assert(Valid());
    iter_->Prev();
    CheckLower();
  }
  Slice key() const override {
    assert(Valid());
    return iter_->key();
  }
  Slice value() const override {
    assert(Valid());
    return iter_->value();
  }
  Status status() const override { return iter_->status(); }

 private:
  void CheckUpper() {
    valid_ = iter_->Valid() &&
             icmp_->Compare(iter_->key(), Slice(largest_)) <= 0;
  }
  void CheckLower() {
    valid_ = iter_->Valid() &&
             icmp_->Compare(iter_->key(), Slice(smallest_)) >= 0;
  }

  const InternalKeyComparator* const icmp_;
  Iterator* const iter_;
  const std::string smallest_;
  const std::string largest_;
  bool valid_ = false;
};

}  // namespace

static Iterator* GetGroupIterator(void* arg, const ReadOptions& options,
                                  const Slice& file_value) {
  const FileMetaData* f;
  assert(file_value.size() == sizeof(f));
  std::memcpy(&f, file_value.data(), sizeof(f));
  return reinterpret_cast<const Version*>(arg)->NewGroupIterator(options, f);
}

Iterator* Version::NewGroupIterator(const ReadOptions& options,
                                    const FileMetaData* f) const {
  TableCache* cache = vset_->table_cache_;
  Iterator* lower = cache->NewIterator(options, f->number, f->file_size);
  const LdcLinkState& link_state = links();
  const std::vector<SliceLinkMeta>* slices = link_state.Links(f->number);
  if (slices == nullptr) return lower;
  std::vector<Iterator*> sources;
  sources.reserve(1 + slices->size());
  sources.push_back(lower);
  for (const SliceLinkMeta& link : *slices) {
    const FrozenFileMeta* frozen = link_state.Frozen(link.frozen_file_number);
    assert(frozen != nullptr);
    if (frozen == nullptr) continue;
    sources.push_back(new BoundedIterator(
        &vset_->icmp_,
        cache->NewIterator(options, frozen->number, frozen->file_size),
        link.smallest, link.largest));
  }
  return NewMergingIterator(&vset_->icmp_, sources.data(),
                            static_cast<int>(sources.size()));
}

Iterator* Version::NewConcatenatingIterator(
    const ReadOptions& options,
    const std::vector<FileMetaData*>* files) const {
  const bool last_owns_tail = links().HasLinks(files->back()->number);
  return NewTwoLevelIterator(
      new LevelFileNumIterator(vset_->icmp_, files, last_owns_tail),
      &GetGroupIterator, const_cast<Version*>(this), options);
}

void Version::AddIterators(const ReadOptions& options,
                           std::vector<Iterator*>* iters) {
  // Merge all level zero files together since they may overlap
  for (size_t i = 0; i < files_[0].size(); i++) {
    iters->push_back(vset_->table_cache_->NewIterator(
        options, files_[0][i]->number, files_[0][i]->file_size));
  }

  // For levels > 0, a concatenating iterator walks the level's read groups
  // in key order, opening each one lazily. Every entry of a group lies in
  // its file's responsibility range, so the groups never overlap.
  for (int level = 1; level < vset_->num_levels_; level++) {
    if (!files_[level].empty()) {
      iters->push_back(NewConcatenatingIterator(options, &files_[level]));
    }
  }
}

namespace {

enum SaverState {
  kNotFound,
  kFound,
  kDeleted,
  kCorrupt,
};
struct Saver {
  SaverState state;
  const Comparator* ucmp;
  Slice user_key;
  std::string* value;
  SequenceNumber seq;  // Sequence number of the recorded entry.
};

// Keeps the newest version among all sources probed so far. This makes
// read-group probes (lower-level file + its linked slices) independent of
// probe order.
void SaveValue(void* arg, const Slice& ikey, const Slice& v) {
  Saver* s = reinterpret_cast<Saver*>(arg);
  ParsedInternalKey parsed_key;
  if (!ParseInternalKey(ikey, &parsed_key)) {
    s->state = kCorrupt;
    return;
  }
  if (s->state == kCorrupt) return;
  if (s->ucmp->Compare(parsed_key.user_key, s->user_key) == 0) {
    if (s->state == kNotFound || parsed_key.sequence > s->seq) {
      s->seq = parsed_key.sequence;
      s->state = (parsed_key.type == kTypeValue) ? kFound : kDeleted;
      if (parsed_key.type == kTypeValue) {
        s->value->assign(v.data(), v.size());
      }
    }
  }
}

bool NewestFirst(FileMetaData* a, FileMetaData* b) {
  return a->number > b->number;
}

// Probes a run of sorted requests against the tables of one level: all of
// level 0, or one read group. Each table is pinned once for every request
// whose key lies in its range, and its bloom filter screens each key before
// the data-block seek.
class BatchProbe {
 public:
  BatchProbe(const ReadOptions& options, TableCache* cache,
             const Comparator* ucmp, Statistics* stats, GetRequest** reqs,
             Saver* savers, size_t n)
      : options_(options),
        cache_(cache),
        ucmp_(ucmp),
        stats_(stats),
        reqs_(reqs),
        savers_(savers),
        n_(n) {
    for (size_t i = 0; i < n; i++) {
      savers[i].state = kNotFound;
      savers[i].ucmp = ucmp;
      savers[i].user_key = reqs[i]->key->user_key();
      savers[i].value = reqs[i]->value;
      savers[i].seq = 0;
    }
  }

  // Probes table `number` for every pending request whose user key lies in
  // [smallest, largest]. `is_slice` counts each such key as a slice source
  // checked.
  void Probe(uint64_t number, uint64_t file_size, const Slice& smallest,
             const Slice& largest, bool is_slice) {
    Cache::Handle* handle = nullptr;
    for (size_t i = 0; i < n_; i++) {
      GetRequest* r = reqs_[i];
      if (r->done) continue;
      const Slice user_key = r->key->user_key();
      if (ucmp_->Compare(user_key, smallest) < 0 ||
          ucmp_->Compare(user_key, largest) > 0) {
        continue;
      }
      if (is_slice) {
        if (stats_ != nullptr) stats_->Record(kSliceSourcesChecked);
        GetPerfContext()->slice_sources_checked++;
      }
      if (handle == nullptr) {
        Status pin = cache_->PinTable(number, file_size, &handle);
        if (!pin.ok()) {
          r->status = pin;
          r->done = true;
          continue;
        }
      }
      const Slice ikey = r->key->internal_key();
      if (!cache_->PinnedKeyMayMatch(handle, ikey)) {
        if (stats_ != nullptr) stats_->Record(kBloomSkippedTables);
        GetPerfContext()->bloom_skipped_tables++;
        continue;
      }
      Status s = cache_->PinnedGet(options_, handle, ikey, &savers_[i],
                                   SaveValue);
      if (!s.ok()) {
        r->status = s;
        r->done = true;
      }
    }
    if (handle != nullptr) cache_->Unpin(handle);
  }

  // Marks done every request whose probes reached a verdict at `level`.
  void Resolve(int level) {
    for (size_t i = 0; i < n_; i++) {
      GetRequest* r = reqs_[i];
      if (r->done) continue;
      switch (savers_[i].state) {
        case kNotFound:
          break;  // Keep searching deeper levels.
        case kFound:
          r->status = Status::OK();
          r->done = true;
          if (stats_ != nullptr) stats_->Record(kGetHits);
          GetPerfContext()->last_get_hit_level = level;
          break;
        case kDeleted:
          r->status = Status::NotFound(Slice());
          r->done = true;
          break;
        case kCorrupt:
          r->status =
              Status::Corruption("corrupted key for ", r->key->user_key());
          r->done = true;
          break;
      }
    }
  }

 private:
  const ReadOptions& options_;
  TableCache* const cache_;
  const Comparator* const ucmp_;
  Statistics* const stats_;
  GetRequest** const reqs_;
  Saver* const savers_;
  const size_t n_;
};

}  // namespace

Status Version::Get(const ReadOptions& options, const LookupKey& k,
                    std::string* value) {
  GetRequest request;
  request.key = &k;
  request.value = value;
  GetRequest* batch = &request;
  MultiGet(options, &batch, 1);
  return request.status;
}

void Version::MultiGet(const ReadOptions& options, GetRequest** reqs,
                       size_t n) {
  const Comparator* ucmp = vset_->icmp_.user_comparator();
  Statistics* stats = vset_->options_->statistics;
  TableCache* cache = vset_->table_cache_;

  size_t pending = 0;
  for (size_t i = 0; i < n; i++) {
    if (reqs[i]->done) continue;
    pending++;
    if (stats != nullptr) stats->Record(kGets);
  }
  if (pending == 0) return;
  std::vector<Saver> savers(n);

  // Level-0 files may overlap each other, and under tiered compaction a
  // freshly merged file carries *older* data than a smaller file number, so
  // file-number order is not version order. Probe every file covering a
  // key and let the sequence numbers decide.
  if (!files_[0].empty()) {
    BatchProbe probe(options, cache, ucmp, stats, reqs, savers.data(), n);
    std::vector<FileMetaData*> newest_first(files_[0]);
    std::sort(newest_first.begin(), newest_first.end(), NewestFirst);
    for (FileMetaData* f : newest_first) {
      probe.Probe(f->number, f->file_size, f->smallest.user_key(),
                  f->largest.user_key(), /*is_slice=*/false);
    }
    probe.Resolve(0);
  }

  // Deeper levels hold disjoint files: a key is served by at most one read
  // group per level, the file whose responsibility range contains it plus
  // that file's linked slices. Requests are sorted, so FindFile indexes are
  // non-decreasing and consecutive requests landing in the same group are
  // probed together. Link state comes from this version's immutable
  // snapshot, so a merge consuming links concurrently cannot hide slice
  // data from the probe.
  const LdcLinkState& link_state = links();
  for (int level = 1; level < vset_->num_levels_; level++) {
    const std::vector<FileMetaData*>& files = files_[level];
    if (files.empty()) continue;
    size_t i = 0;
    while (i < n) {
      if (reqs[i]->done) {
        i++;
        continue;
      }
      const int index =
          FindFile(vset_->icmp_, files, reqs[i]->key->internal_key());
      FileMetaData* f;
      if (index < static_cast<int>(files.size())) {
        f = files[index];
      } else {
        // Past the last file's largest key: the last file's responsibility
        // extends to +inf, so only its slices may still hold these keys —
        // and every later (sorted) key lands here too, so without links
        // the whole rest of the level is done.
        f = files.back();
        if (!link_state.HasLinks(f->number)) break;
      }
      size_t j = i + 1;
      while (j < n && (reqs[j]->done ||
                       FindFile(vset_->icmp_, files,
                                reqs[j]->key->internal_key()) == index)) {
        j++;
      }
      BatchProbe probe(options, cache, ucmp, stats, reqs + i,
                       savers.data() + i, j - i);
      // The linked slices are strictly newer than *f. Probe them newest
      // link first (Links() is in ascending link order), the read priority
      // of paper §III-B3.
      if (const std::vector<SliceLinkMeta>* slices =
              link_state.Links(f->number)) {
        for (auto link = slices->rbegin(); link != slices->rend(); ++link) {
          const FrozenFileMeta* frozen =
              link_state.Frozen(link->frozen_file_number);
          assert(frozen != nullptr);
          if (frozen == nullptr) continue;
          probe.Probe(frozen->number, frozen->file_size,
                      link->smallest.user_key(), link->largest.user_key(),
                      /*is_slice=*/true);
        }
      }
      probe.Probe(f->number, f->file_size, f->smallest.user_key(),
                  f->largest.user_key(), /*is_slice=*/false);
      probe.Resolve(level);
      i = j;
    }
  }

  // Anything not resolved by any level is definitively absent.
  for (size_t i = 0; i < n; i++) {
    if (!reqs[i]->done) {
      reqs[i]->status = Status::NotFound(Slice());
      reqs[i]->done = true;
    }
  }
}

void Version::Ref() { ++refs_; }

void Version::Unref() {
  assert(this != &vset_->dummy_versions_);
  assert(refs_ >= 1);
  --refs_;
  if (refs_ == 0) {
    delete this;
  }
}

bool Version::OverlapInLevel(int level, const Slice* smallest_user_key,
                             const Slice* largest_user_key) {
  return SomeFileOverlapsRange(vset_->icmp_, (level > 0), files_[level],
                               smallest_user_key, largest_user_key);
}

int Version::PickLevelForMemTableOutput(const Slice& smallest_user_key,
                                        const Slice& largest_user_key) {
  // Under LDC, inserting a flushed file below level 0 could split the
  // responsibility range of an existing slice link, making slice-only keys
  // unreachable by point lookups; flushes therefore always land in level 0
  // (DESIGN.md, read-path invariant). Tiered compaction keeps all data in
  // level 0 by definition.
  if (vset_->options_->compaction_style != CompactionStyle::kUdc) {
    return 0;
  }

  int level = 0;
  // Maximum level to which a new compacted memtable is pushed if it
  // does not create overlap.
  static const int kMaxMemCompactLevel = 2;
  if (!OverlapInLevel(0, &smallest_user_key, &largest_user_key)) {
    // Push to next level if there is no overlap in next level,
    // and the #bytes overlapping in the level after that are limited.
    InternalKey start(smallest_user_key, kMaxSequenceNumber, kValueTypeForSeek);
    InternalKey limit(largest_user_key, 0, static_cast<ValueType>(0));
    std::vector<FileMetaData*> overlaps;
    while (level < kMaxMemCompactLevel &&
           level + 2 < vset_->num_levels_) {
      if (OverlapInLevel(level + 1, &smallest_user_key, &largest_user_key)) {
        break;
      }
      GetOverlappingInputs(level + 2, &start, &limit, &overlaps);
      const int64_t sum = TotalFileSize(overlaps);
      if (sum > 10 * static_cast<int64_t>(vset_->options_->max_file_size)) {
        break;
      }
      level++;
    }
  }
  return level;
}

// Store in "*inputs" all files in "level" that overlap [begin,end]
void Version::GetOverlappingInputs(int level, const InternalKey* begin,
                                   const InternalKey* end,
                                   std::vector<FileMetaData*>* inputs) {
  assert(level >= 0);
  assert(level < config::kMaxNumLevels);
  inputs->clear();
  Slice user_begin, user_end;
  if (begin != nullptr) {
    user_begin = begin->user_key();
  }
  if (end != nullptr) {
    user_end = end->user_key();
  }
  const Comparator* user_cmp = vset_->icmp_.user_comparator();
  for (size_t i = 0; i < files_[level].size();) {
    FileMetaData* f = files_[level][i++];
    const Slice file_start = f->smallest.user_key();
    const Slice file_limit = f->largest.user_key();
    if (begin != nullptr && user_cmp->Compare(file_limit, user_begin) < 0) {
      // "f" is completely before specified range; skip it
    } else if (end != nullptr && user_cmp->Compare(file_start, user_end) > 0) {
      // "f" is completely after specified range; skip it
    } else {
      inputs->push_back(f);
      if (level == 0) {
        // Level-0 files may overlap each other. So check if the newly
        // added file has expanded the range. If so, restart search.
        if (begin != nullptr && user_cmp->Compare(file_start, user_begin) < 0) {
          user_begin = file_start;
          inputs->clear();
          i = 0;
        } else if (end != nullptr &&
                   user_cmp->Compare(file_limit, user_end) > 0) {
          user_end = file_limit;
          inputs->clear();
          i = 0;
        }
      }
    }
  }
}

std::string Version::DebugString() const {
  const LdcLinkState& ldc = links();
  std::string r;
  for (int level = 0; level < vset_->num_levels_; level++) {
    // E.g.,
    //   --- level 1 ---
    //   17:123['a' .. 'd']
    //   20:43['e' .. 'g']
    r.append("--- level ");
    AppendNumberTo(&r, level);
    r.append(" ---\n");
    const std::vector<FileMetaData*>& files = files_[level];
    for (size_t i = 0; i < files.size(); i++) {
      r.push_back(' ');
      AppendNumberTo(&r, files[i]->number);
      r.push_back(':');
      AppendNumberTo(&r, files[i]->file_size);
      r.append("[");
      r.append(files[i]->smallest.DebugString());
      r.append(" .. ");
      r.append(files[i]->largest.DebugString());
      r.append("]");
      const int link_count = ldc.LinkCount(files[i]->number);
      if (link_count > 0) {
        r.append(" links=");
        AppendNumberTo(&r, link_count);
      }
      r.append("\n");
    }
  }
  if (ldc.FrozenFileCount() > 0) {
    r.append("--- frozen ---\n");
    for (const auto& kvp : ldc.frozen) {
      r.push_back(' ');
      AppendNumberTo(&r, kvp.second.number);
      r.push_back(':');
      AppendNumberTo(&r, kvp.second.file_size);
      r.append(" refs=");
      AppendNumberTo(&r, kvp.second.refs);
      r.append("\n");
    }
  }
  return r;
}

// Refuses a version whose LDC metadata breaks the invariants of the tree
// (paper §III-B): every slice link hangs off a file of the version and
// reaches a frozen file, and every frozen file is in no level and is
// reached by `refs` links, at least one. Compares file numbers only, never
// keys. LdcLinkState::Apply counts a link in its frozen file's `refs` only
// when that file exists, so a link to a missing frozen file makes the refs
// add up to fewer than the links; only then are the links walked, to name
// it.
static Status CheckLdcLinks(const Version& v) {
  const LdcLinkState& ldc = v.links();
  int level = -1;
  FileMetaData* file = nullptr;
  size_t links = 0;
  for (const auto& kvp : ldc.links) {
    if (!v.FindFileByNumber(kvp.first, &level, &file)) {
      return Status::Corruption("slice link on a missing lower file",
                                NumberToString(kvp.first));
    }
    links += kvp.second.size();
  }
  size_t refs = 0;
  for (const auto& kvp : ldc.frozen) {
    if (v.FindFileByNumber(kvp.first, &level, &file)) {
      return Status::Corruption("frozen file is also a level file",
                                NumberToString(kvp.first));
    }
    if (kvp.second.refs <= 0) {
      return Status::Corruption("frozen file has no link left",
                                NumberToString(kvp.first));
    }
    refs += kvp.second.refs;
  }
  if (refs == links) return Status::OK();
  for (const auto& kvp : ldc.links) {
    for (const SliceLinkMeta& link : kvp.second) {
      if (ldc.Frozen(link.frozen_file_number) == nullptr) {
        return Status::Corruption("slice link to a missing frozen file",
                                  NumberToString(link.frozen_file_number));
      }
    }
  }
  return Status::Corruption("frozen file refs differ from their links");
}

// A helper class so we can efficiently apply a whole sequence
// of edits to a particular state without creating intermediate
// Versions that contain full copies of the intermediate state. It applies
// an edit's file records and its LDC records together; LogAndApply and
// Recover both build every Version through it.
class VersionSet::Builder {
 private:
  // Helper to sort by v->files_[file_number].smallest
  struct BySmallestKey {
    const InternalKeyComparator* internal_comparator;

    bool operator()(FileMetaData* f1, FileMetaData* f2) const {
      int r = internal_comparator->Compare(f1->smallest, f2->smallest);
      if (r != 0) {
        return (r < 0);
      } else {
        // Break ties by file number
        return (f1->number < f2->number);
      }
    }
  };

  typedef std::set<FileMetaData*, BySmallestKey> FileSet;
  struct LevelState {
    std::set<uint64_t> deleted_files;
    FileSet* added_files;
  };

  VersionSet* vset_;
  Version* base_;
  LevelState levels_[config::kMaxNumLevels];
  // The LDC state being built: null until the first LDC record, which
  // copies the base version's state. Until then the base state is shared.
  std::shared_ptr<LdcLinkState> links_;

 public:
  // Initialize a builder with the files from *base and other info from *vset
  Builder(VersionSet* vset, Version* base) : vset_(vset), base_(base) {
    base_->Ref();
    BySmallestKey cmp;
    cmp.internal_comparator = &vset_->icmp_;
    for (int level = 0; level < config::kMaxNumLevels; level++) {
      levels_[level].added_files = new FileSet(cmp);
    }
  }

  ~Builder() {
    for (int level = 0; level < config::kMaxNumLevels; level++) {
      const FileSet* added = levels_[level].added_files;
      std::vector<FileMetaData*> to_unref;
      to_unref.reserve(added->size());
      for (FileSet::const_iterator it = added->begin(); it != added->end();
           ++it) {
        to_unref.push_back(*it);
      }
      delete added;
      for (uint32_t i = 0; i < to_unref.size(); i++) {
        FileMetaData* f = to_unref[i];
        f->refs--;
        if (f->refs <= 0) {
          delete f;
        }
      }
    }
    base_->Unref();
  }

  // Apply all of the edits in *edit to the current state.
  void Apply(const VersionEdit* edit) {
    // Update compaction pointers
    for (size_t i = 0; i < edit->compact_pointers_.size(); i++) {
      const int level = edit->compact_pointers_[i].first;
      vset_->compact_pointer_[level] =
          edit->compact_pointers_[i].second.Encode().ToString();
    }

    // Delete files
    for (const auto& deleted_file_set_kvp : edit->deleted_files_) {
      const int level = deleted_file_set_kvp.first;
      const uint64_t number = deleted_file_set_kvp.second;
      levels_[level].deleted_files.insert(number);
    }

    // Add new files
    for (size_t i = 0; i < edit->new_files_.size(); i++) {
      const int level = edit->new_files_[i].first;
      FileMetaData* f = new FileMetaData(edit->new_files_[i].second);
      f->refs = 1;
      levels_[level].deleted_files.erase(f->number);
      levels_[level].added_files->insert(f);
    }

    // LDC records: freeze, link, consume, reclaim.
    if (edit->frozen_files_.empty() && edit->slice_links_.empty() &&
        edit->consumed_links_.empty() && edit->removed_frozen_.empty()) {
      return;
    }
    if (links_ == nullptr) {
      links_ = std::make_shared<LdcLinkState>(base_->links());
    }
    links_->Apply(*edit);
    for (const SliceLinkMeta& link : edit->slice_links_) {
      vset_->next_link_seq_ =
          std::max(vset_->next_link_seq_, link.link_seq + 1);
    }
  }

  // Save the current state in *v. Called once, after the last Apply.
  void SaveTo(Version* v) {
    v->link_state_ = links_ != nullptr ? links_ : base_->link_state_;
    BySmallestKey cmp;
    cmp.internal_comparator = &vset_->icmp_;
    for (int level = 0; level < config::kMaxNumLevels; level++) {
      // Merge the set of added files with the set of pre-existing files.
      // Drop any deleted files. Store the result in *v.
      const std::vector<FileMetaData*>& base_files = base_->files_[level];
      std::vector<FileMetaData*>::const_iterator base_iter =
          base_files.begin();
      std::vector<FileMetaData*>::const_iterator base_end = base_files.end();
      const FileSet* added_files = levels_[level].added_files;
      v->files_[level].reserve(base_files.size() + added_files->size());
      for (const auto& added_file : *added_files) {
        // Add all smaller files listed in base_
        for (std::vector<FileMetaData*>::const_iterator bpos =
                 std::upper_bound(base_iter, base_end, added_file, cmp);
             base_iter != bpos; ++base_iter) {
          MaybeAddFile(v, level, *base_iter);
        }

        MaybeAddFile(v, level, added_file);
      }

      // Add remaining base files
      for (; base_iter != base_end; ++base_iter) {
        MaybeAddFile(v, level, *base_iter);
      }

#ifndef NDEBUG
      // Make sure there is no overlap in levels > 0
      if (level > 0) {
        for (uint32_t i = 1; i < v->files_[level].size(); i++) {
          const InternalKey& prev_end = v->files_[level][i - 1]->largest;
          const InternalKey& this_begin = v->files_[level][i]->smallest;
          if (vset_->icmp_.Compare(prev_end, this_begin) >= 0) {
            std::fprintf(stderr, "overlapping ranges in same level %s vs. %s\n",
                         prev_end.DebugString().c_str(),
                         this_begin.DebugString().c_str());
            std::abort();
          }
        }
      }
#endif
    }
  }

  void MaybeAddFile(Version* v, int level, FileMetaData* f) {
    if (levels_[level].deleted_files.count(f->number) > 0) {
      // File is deleted: do nothing
    } else {
      std::vector<FileMetaData*>* files = &v->files_[level];
      if (level > 0 && !files->empty()) {
        // Must not overlap
        assert(vset_->icmp_.Compare((*files)[files->size() - 1]->largest,
                                    f->smallest) < 0);
      }
      f->refs++;
      files->push_back(f);
    }
  }
};

VersionSet::VersionSet(const std::string& dbname, const Options* options,
                       TableCache* table_cache,
                       const InternalKeyComparator* cmp)
    : env_(options->env),
      dbname_(dbname),
      options_(options),
      table_cache_(table_cache),
      icmp_(*cmp),
      num_levels_(options->num_levels < config::kMaxNumLevels
                      ? options->num_levels
                      : config::kMaxNumLevels),
      next_file_number_(2),
      manifest_file_number_(0),  // Filled by Recover()
      last_sequence_(0),
      log_number_(0),
      prev_log_number_(0),
      descriptor_file_(nullptr),
      descriptor_log_(nullptr),
      dummy_versions_(this),
      current_(nullptr) {
  AppendVersion(new Version(this));
}

VersionSet::~VersionSet() {
  current_->Unref();
  assert(dummy_versions_.next_ == &dummy_versions_);  // List must be empty
  delete descriptor_log_;
  delete descriptor_file_;
}

void VersionSet::AppendVersion(Version* v) {
  // Make "v" current
  assert(v->refs_ == 0);
  assert(v != current_);
  if (current_ != nullptr) {
    current_->Unref();
  }
  current_ = v;
  v->Ref();

  // Append to linked list
  v->prev_ = dummy_versions_.prev_;
  v->next_ = &dummy_versions_;
  v->prev_->next_ = v;
  v->next_->prev_ = v;
}

Status VersionSet::LogAndApply(VersionEdit* edit) {
  if (edit->has_log_number_) {
    assert(edit->log_number_ >= log_number_);
    assert(edit->log_number_ < next_file_number_);
  } else {
    edit->SetLogNumber(log_number_);
  }

  if (!edit->has_prev_log_number_) {
    edit->SetPrevLogNumber(prev_log_number_);
  }

  edit->SetNextFile(next_file_number_);
  edit->SetLastSequence(LastSequence());

  Version* v = new Version(this);
  {
    Builder builder(this, current_);
    builder.Apply(edit);
    builder.SaveTo(v);
  }
  Finalize(v);
  // Refuse a broken link state before anything reaches the manifest.
  Status s = CheckLdcLinks(*v);
  if (!s.ok()) {
    delete v;
    return s;
  }

  // Initialize new descriptor log file if necessary by creating
  // a temporary file that contains a snapshot of the current version.
  std::string new_manifest_file;
  if (descriptor_log_ == nullptr) {
    // No reason to unlock *mu here since we only hit this path in the
    // first call to LogAndApply (when opening the database).
    assert(descriptor_file_ == nullptr);
    new_manifest_file = DescriptorFileName(dbname_, manifest_file_number_);
    s = env_->NewWritableFile(new_manifest_file, &descriptor_file_);
    if (s.ok()) {
      descriptor_log_ = new log::Writer(descriptor_file_);
      s = WriteSnapshot(descriptor_log_);
    }
  }

  // Write new record to MANIFEST log
  if (s.ok()) {
    std::string record;
    edit->EncodeTo(&record);
    s = descriptor_log_->AddRecord(record);
    if (s.ok()) {
      s = descriptor_file_->Sync();
    }
  }

  // If we just created a new descriptor file, install it by writing a
  // new CURRENT file that points to it.
  if (s.ok() && !new_manifest_file.empty()) {
    s = SetCurrentFile(env_, dbname_, manifest_file_number_);
  }

  // Install the new version
  if (s.ok()) {
    AppendVersion(v);
    log_number_ = edit->log_number_;
    prev_log_number_ = edit->prev_log_number_;
  } else {
    delete v;
    if (!new_manifest_file.empty()) {
      delete descriptor_log_;
      delete descriptor_file_;
      descriptor_log_ = nullptr;
      descriptor_file_ = nullptr;
      env_->RemoveFile(new_manifest_file);
    }
  }

  return s;
}

Status VersionSet::Recover(bool* save_manifest) {
  struct LogReporter : public log::Reader::Reporter {
    Status* status;
    void Corruption(size_t /*bytes*/, const Status& s) override {
      if (this->status->ok()) *this->status = s;
    }
  };

  // Read "CURRENT" file, which contains a pointer to the current manifest
  // file
  std::string current;
  Status s = ReadFileToString(env_, CurrentFileName(dbname_), &current);
  if (!s.ok()) {
    return s;
  }
  if (current.empty() || current[current.size() - 1] != '\n') {
    return Status::Corruption("CURRENT file does not end with newline");
  }
  current.resize(current.size() - 1);

  std::string dscname = dbname_ + "/" + current;
  SequentialFile* file;
  s = env_->NewSequentialFile(dscname, &file);
  if (!s.ok()) {
    if (s.IsNotFound()) {
      return Status::Corruption("CURRENT points to a non-existent file",
                                s.ToString());
    }
    return s;
  }

  bool have_log_number = false;
  bool have_prev_log_number = false;
  bool have_next_file = false;
  bool have_last_sequence = false;
  uint64_t next_file = 0;
  uint64_t last_sequence = 0;
  uint64_t log_number = 0;
  uint64_t prev_log_number = 0;
  Builder builder(this, current_);
  int read_records = 0;

  {
    LogReporter reporter;
    reporter.status = &s;
    log::Reader reader(file, &reporter, true /*checksum*/,
                       0 /*initial_offset*/);
    Slice record;
    std::string scratch;
    while (reader.ReadRecord(&record, &scratch) && s.ok()) {
      ++read_records;
      VersionEdit edit;
      s = edit.DecodeFrom(record);
      if (s.ok()) {
        if (edit.has_comparator_ &&
            edit.comparator_ != icmp_.user_comparator()->Name()) {
          s = Status::InvalidArgument(
              edit.comparator_ + " does not match existing comparator ",
              icmp_.user_comparator()->Name());
        }
      }

      if (s.ok()) {
        builder.Apply(&edit);
      }

      if (edit.has_log_number_) {
        log_number = edit.log_number_;
        have_log_number = true;
      }

      if (edit.has_prev_log_number_) {
        prev_log_number = edit.prev_log_number_;
        have_prev_log_number = true;
      }

      if (edit.has_next_file_number_) {
        next_file = edit.next_file_number_;
        have_next_file = true;
      }

      if (edit.has_last_sequence_) {
        last_sequence = edit.last_sequence_;
        have_last_sequence = true;
      }
    }
  }
  delete file;
  file = nullptr;

  if (s.ok()) {
    if (!have_next_file) {
      s = Status::Corruption("no meta-nextfile entry in descriptor");
    } else if (!have_log_number) {
      s = Status::Corruption("no meta-lognumber entry in descriptor");
    } else if (!have_last_sequence) {
      s = Status::Corruption("no last-sequence-number entry in descriptor");
    }

    if (!have_prev_log_number) {
      prev_log_number = 0;
    }

    MarkFileNumberUsed(prev_log_number);
    MarkFileNumberUsed(log_number);
  }

  if (s.ok()) {
    Version* v = new Version(this);
    builder.SaveTo(v);
    Finalize(v);
    s = CheckLdcLinks(*v);
    if (!s.ok()) {
      delete v;
      return s;
    }
    // Install recovered version
    AppendVersion(v);
    manifest_file_number_ = next_file;
    next_file_number_ = next_file + 1;
    last_sequence_ = last_sequence;
    log_number_ = log_number;
    prev_log_number_ = prev_log_number;

    // A new manifest is written on every open: the recovered one stays
    // intact until the switch completes.
    *save_manifest = true;
  }

  return s;
}

void VersionSet::MarkFileNumberUsed(uint64_t number) {
  if (next_file_number_ <= number) {
    next_file_number_ = number + 1;
  }
}

double VersionSet::MaxBytesForLevel(int level) const {
  assert(level >= 1);
  double result = static_cast<double>(options_->level1_max_bytes);
  for (int l = 1; l < level; l++) {
    result *= options_->fan_out;
  }
  return result;
}

void VersionSet::Finalize(Version* v) {
  // The file-number index, for O(1) lookups.
  v->file_index_.clear();
  for (int level = 0; level < num_levels_; level++) {
    for (FileMetaData* f : v->files_[level]) {
      v->file_index_.emplace(f->number, std::make_pair(level, f));
    }
  }

  // Precomputed best level for next compaction
  int best_level = -1;
  double best_score = -1;

  for (int level = 0; level < num_levels_ - 1; level++) {
    double score;
    if (level == 0) {
      // We treat level-0 specially by bounding the number of files
      // instead of number of bytes for two reasons:
      //
      // (1) With larger write-buffer sizes, it is nice not to do too
      // many level-0 compactions.
      //
      // (2) The files in level-0 are merged on every read and
      // therefore we wish to avoid too many files when the individual
      // file size is small (perhaps because of a small write-buffer
      // setting, or very high compression ratios, or lots of
      // overwrites/deletions).
      score = v->files_[level].size() /
              static_cast<double>(options_->l0_compaction_trigger);
    } else {
      // Compute the ratio of current size to size limit.
      const uint64_t level_bytes = TotalFileSize(v->files_[level]);
      score = static_cast<double>(level_bytes) / MaxBytesForLevel(level);
    }

    if (score > best_score) {
      best_level = level;
      best_score = score;
    }
  }

  v->compaction_level_ = best_level;
  v->compaction_score_ = best_score;
}

Status VersionSet::WriteSnapshot(log::Writer* log) {
  // Save metadata
  VersionEdit edit;
  edit.SetComparatorName(icmp_.user_comparator()->Name());

  // Save compaction pointers
  for (int level = 0; level < num_levels_; level++) {
    if (!compact_pointer_[level].empty()) {
      InternalKey key;
      key.DecodeFrom(compact_pointer_[level]);
      edit.SetCompactPointer(level, key);
    }
  }

  // Save files
  for (int level = 0; level < num_levels_; level++) {
    const std::vector<FileMetaData*>& files = current_->files_[level];
    for (size_t i = 0; i < files.size(); i++) {
      const FileMetaData* f = files[i];
      edit.AddFile(level, f->number, f->file_size, f->smallest, f->largest);
    }
  }

  // Save LDC state: frozen files first, then their links (Apply() relies
  // on frozen entries existing when links are added).
  const LdcLinkState& ldc = current_->links();
  for (const auto& kvp : ldc.frozen) {
    edit.FreezeFile(kvp.second);
  }
  for (const auto& kvp : ldc.links) {
    for (const SliceLinkMeta& link : kvp.second) {
      edit.AddSliceLink(link);
    }
  }

  std::string record;
  edit.EncodeTo(&record);
  return log->AddRecord(record);
}

int VersionSet::NumLevelFiles(int level) const {
  assert(level >= 0);
  assert(level < config::kMaxNumLevels);
  return static_cast<int>(current_->files_[level].size());
}

int64_t VersionSet::NumLevelBytes(int level) const {
  assert(level >= 0);
  assert(level < config::kMaxNumLevels);
  return TotalFileSize(current_->files_[level]);
}

int64_t VersionSet::TotalLiveBytes() const {
  int64_t total = 0;
  for (int level = 0; level < num_levels_; level++) {
    total += NumLevelBytes(level);
  }
  return total;
}

void CompactionStats::Add(const CompactionStats& c) {
  micros += c.micros;
  pick_micros += c.pick_micros;
  read_micros += c.read_micros;
  merge_micros += c.merge_micros;
  write_micros += c.write_micros;
  install_micros += c.install_micros;
  bytes_read_upper += c.bytes_read_upper;
  bytes_read_lower += c.bytes_read_lower;
  bytes_written += c.bytes_written;
  count += c.count;
}

void VersionSet::AddCompactionStats(int level, const CompactionStats& stats) {
  assert(level >= 0 && level < config::kMaxNumLevels);
  compaction_stats_[level].Add(stats);
}

void VersionSet::AddFlushStats(uint64_t bytes, uint64_t micros) {
  flush_bytes_ += bytes;
  flush_count_ += 1;
  flush_micros_ += micros;
}

double VersionSet::CumulativeWriteAmplification() const {
  if (flush_bytes_ == 0) return 0.0;
  uint64_t total_written = flush_bytes_;
  for (int level = 0; level < num_levels_; level++) {
    total_written += compaction_stats_[level].bytes_written;
  }
  return static_cast<double>(total_written) / flush_bytes_;
}

void VersionSet::AddLiveFiles(std::set<uint64_t>* live) {
  for (Version* v = dummy_versions_.next_; v != &dummy_versions_;
       v = v->next_) {
    for (int level = 0; level < config::kMaxNumLevels; level++) {
      const std::vector<FileMetaData*>& files = v->files_[level];
      for (size_t i = 0; i < files.size(); i++) {
        live->insert(files[i]->number);
      }
    }
    // Frozen files reachable from this (possibly older) version's link
    // snapshot must survive until the version is released, or in-flight
    // readers could lose slice data.
    v->links().AddLiveFiles(live);
  }
}

// Stores the minimal range that covers all entries in inputs in
// *smallest, *largest.
// REQUIRES: inputs is not empty
void VersionSet::GetRange(const std::vector<FileMetaData*>& inputs,
                          InternalKey* smallest, InternalKey* largest) {
  assert(!inputs.empty());
  smallest->Clear();
  largest->Clear();
  for (size_t i = 0; i < inputs.size(); i++) {
    FileMetaData* f = inputs[i];
    if (i == 0) {
      *smallest = f->smallest;
      *largest = f->largest;
    } else {
      if (icmp_.Compare(f->smallest, *smallest) < 0) {
        *smallest = f->smallest;
      }
      if (icmp_.Compare(f->largest, *largest) > 0) {
        *largest = f->largest;
      }
    }
  }
}

// Stores the minimal range that covers all entries in inputs1 and inputs2
// in *smallest, *largest.
// REQUIRES: inputs is not empty
void VersionSet::GetRange2(const std::vector<FileMetaData*>& inputs1,
                           const std::vector<FileMetaData*>& inputs2,
                           InternalKey* smallest, InternalKey* largest) {
  std::vector<FileMetaData*> all = inputs1;
  all.insert(all.end(), inputs2.begin(), inputs2.end());
  GetRange(all, smallest, largest);
}

Iterator* VersionSet::MakeInputIterator(Compaction* c) {
  ReadOptions options;
  options.verify_checksums = options_->paranoid_checks;
  options.fill_cache = false;

  // Level-0 files have to be merged together. For other levels,
  // we will make a concatenating iterator per level.
  const int space = (c->level() == 0 ? c->num_input_files(0) + 1 : 2);
  Iterator** list = new Iterator*[space];
  int num = 0;
  for (int which = 0; which < 2; which++) {
    if (!c->inputs_[which].empty()) {
      if (c->level() + which == 0) {
        const std::vector<FileMetaData*>& files = c->inputs_[which];
        for (size_t i = 0; i < files.size(); i++) {
          list[num++] = table_cache_->NewIterator(options, files[i]->number,
                                                  files[i]->file_size);
        }
      } else {
        // Create concatenating iterator for the files from this level
        list[num++] =
            c->input_version_->NewConcatenatingIterator(options,
                                                        &c->inputs_[which]);
      }
    }
  }
  assert(num <= space);
  Iterator* result = NewMergingIterator(&icmp_, list, num);
  delete[] list;
  return result;
}

Compaction* VersionSet::PickCompaction(const std::set<uint64_t>* claimed) {
  // We only consider size-based compactions (seek-based compactions are
  // not modeled; the paper's workloads are dominated by size triggers).
  if (!(current_->compaction_score_ >= 1)) {
    return nullptr;
  }
  const int level = current_->compaction_level_;
  assert(level >= 0);
  assert(level + 1 < num_levels_);
  Compaction* c = new Compaction(options_, level, num_levels_);

  const auto is_claimed = [claimed](const FileMetaData* f) {
    return claimed != nullptr && claimed->count(f->number) != 0;
  };

  // Pick the first unclaimed file that comes after compact_pointer_[level]
  for (size_t i = 0; i < current_->files_[level].size(); i++) {
    FileMetaData* f = current_->files_[level][i];
    if (is_claimed(f)) continue;
    if (compact_pointer_[level].empty() ||
        icmp_.Compare(f->largest.Encode(), compact_pointer_[level]) > 0) {
      c->inputs_[0].push_back(f);
      break;
    }
  }
  if (c->inputs_[0].empty()) {
    // Wrap-around to the beginning of the key space
    for (size_t i = 0; i < current_->files_[level].size(); i++) {
      FileMetaData* f = current_->files_[level][i];
      if (!is_claimed(f)) {
        c->inputs_[0].push_back(f);
        break;
      }
    }
  }
  if (c->inputs_[0].empty()) {
    // Every candidate at this level is claimed by a running job.
    delete c;
    return nullptr;
  }

  c->input_version_ = current_;
  c->input_version_->Ref();

  // Files in level 0 may overlap each other, so pick up all overlapping ones
  if (level == 0) {
    InternalKey smallest, largest;
    GetRange(c->inputs_[0], &smallest, &largest);
    // Note that the next call will discard the file we placed in
    // c->inputs_[0] earlier and replace it with an overlapping set
    // which will include the picked file.
    current_->GetOverlappingInputs(0, &smallest, &largest, &c->inputs_[0]);
    assert(!c->inputs_[0].empty());
  }

  SetupOtherInputs(c);

  return c;
}

void VersionSet::SetupOtherInputs(Compaction* c) {
  const int level = c->level();
  InternalKey smallest, largest;
  GetRange(c->inputs_[0], &smallest, &largest);

  current_->GetOverlappingInputs(level + 1, &smallest, &largest,
                                 &c->inputs_[1]);

  // Get entire range covered by compaction
  InternalKey all_start, all_limit;
  GetRange2(c->inputs_[0], c->inputs_[1], &all_start, &all_limit);

  // See if we can grow the number of inputs in "level" without
  // changing the number of "level+1" files we pick up.
  if (!c->inputs_[1].empty()) {
    std::vector<FileMetaData*> expanded0;
    current_->GetOverlappingInputs(level, &all_start, &all_limit, &expanded0);
    const int64_t inputs0_size = TotalFileSize(c->inputs_[0]);
    const int64_t inputs1_size = TotalFileSize(c->inputs_[1]);
    const int64_t expanded0_size = TotalFileSize(expanded0);
    const int64_t expanded_compaction_byte_size_limit =
        25 * static_cast<int64_t>(options_->max_file_size);
    if (expanded0.size() > c->inputs_[0].size() &&
        inputs1_size + expanded0_size < expanded_compaction_byte_size_limit) {
      InternalKey new_start, new_limit;
      GetRange(expanded0, &new_start, &new_limit);
      std::vector<FileMetaData*> expanded1;
      current_->GetOverlappingInputs(level + 1, &new_start, &new_limit,
                                     &expanded1);
      if (expanded1.size() == c->inputs_[1].size()) {
        (void)inputs0_size;
        smallest = new_start;
        largest = new_limit;
        c->inputs_[0] = expanded0;
        c->inputs_[1] = expanded1;
        GetRange2(c->inputs_[0], c->inputs_[1], &all_start, &all_limit);
      }
    }
  }

  // Update the place where we will do the next compaction for this level.
  // We update this immediately instead of waiting for the VersionEdit
  // to be applied so that if the compaction fails, we will try a different
  // key range next time.
  compact_pointer_[level] = largest.Encode().ToString();
  c->edit_.SetCompactPointer(level, largest);
}

Compaction* VersionSet::CompactRange(int level, const InternalKey* begin,
                                     const InternalKey* end) {
  std::vector<FileMetaData*> inputs;
  current_->GetOverlappingInputs(level, begin, end, &inputs);
  if (inputs.empty()) {
    return nullptr;
  }

  // Avoid compacting too much in one shot in case the range is large.
  const uint64_t limit = options_->max_file_size * 25;
  uint64_t total = 0;
  for (size_t i = 0; i < inputs.size(); i++) {
    uint64_t s = inputs[i]->file_size;
    total += s;
    if (total >= limit) {
      inputs.resize(i + 1);
      break;
    }
  }

  Compaction* c = new Compaction(options_, level, num_levels_);
  c->input_version_ = current_;
  c->input_version_->Ref();
  c->inputs_[0] = inputs;
  SetupOtherInputs(c);
  return c;
}

bool VersionSet::PickLdcLinkTarget(int* level_out, FileMetaData** file_out,
                                   uint64_t* must_merge_lower) {
  *file_out = nullptr;
  *must_merge_lower = 0;
  if (!(current_->compaction_score_ >= 1)) {
    return false;
  }
  const int level = current_->compaction_level_;
  assert(level >= 0);
  assert(level + 1 < num_levels_);
  const std::vector<FileMetaData*>& files = current_->files_[level];
  if (files.empty()) return false;

  // Candidate files must not have slice links attached: linking an already
  // linked file would require slices-of-slices (paper §III-D keeps LDC
  // simple by forbidding it). For level 0 we always pick the oldest file
  // (smallest file number) so that freeze order matches data age.
  const LdcLinkState& ldc = current_->links();
  auto has_links = [&ldc](const FileMetaData* f) {
    return ldc.HasLinks(f->number);
  };

  FileMetaData* picked = nullptr;
  if (level == 0) {
    for (FileMetaData* f : files) {
      if (has_links(f)) continue;
      if (picked == nullptr || f->number < picked->number) picked = f;
    }
  } else {
    // Round-robin over the level, starting after compact_pointer_.
    size_t start = 0;
    if (!compact_pointer_[level].empty()) {
      for (size_t i = 0; i < files.size(); i++) {
        if (icmp_.Compare(files[i]->largest.Encode(),
                          compact_pointer_[level]) > 0) {
          start = i;
          break;
        }
      }
    }
    for (size_t i = 0; i < files.size(); i++) {
      FileMetaData* f = files[(start + i) % files.size()];
      if (!has_links(f)) {
        picked = f;
        break;
      }
    }
  }

  if (picked == nullptr) {
    // Every file in the level is pinned by links: ask the caller to merge
    // the most-linked lower file in the next level to unpin progress.
    int best_count = 0;
    uint64_t best = 0;
    for (FileMetaData* f : current_->files_[level + 1]) {
      int count = ldc.LinkCount(f->number);
      if (count > best_count) {
        best_count = count;
        best = f->number;
      }
    }
    // Files in `level` itself can also be lower-halves of links from
    // level-1; merging them consumes their links too.
    for (FileMetaData* f : files) {
      int count = ldc.LinkCount(f->number);
      if (count > best_count) {
        best_count = count;
        best = f->number;
      }
    }
    *must_merge_lower = best;
    return false;
  }

  *level_out = level;
  *file_out = picked;
  return true;
}

std::string VersionSet::LevelSummary() const {
  std::string result = "files[ ";
  for (int level = 0; level < num_levels_; level++) {
    char buf[16];
    snprintf(buf, sizeof(buf), "%d ",
             static_cast<int>(current_->files_[level].size()));
    result += buf;
  }
  result += "] frozen=";
  AppendNumberTo(&result, current_->links().FrozenFileCount());
  return result;
}

Compaction::Compaction(const Options* options, int level, int num_levels)
    : level_(level),
      num_levels_(num_levels),
      max_output_file_size_(options->max_file_size),
      input_version_(nullptr) {
  for (int i = 0; i < config::kMaxNumLevels; i++) {
    level_ptrs_[i] = 0;
  }
}

Compaction::~Compaction() {
  if (input_version_ != nullptr) {
    input_version_->Unref();
  }
}

bool Compaction::IsTrivialMove() const {
  // A move is possible when the file to move does not overlap the next
  // level. (The original grandparent-overlap heuristic is omitted: it only
  // bounds future compaction sizes and does not affect correctness.)
  return (num_input_files(0) == 1 && num_input_files(1) == 0);
}

void Compaction::AddInputDeletions(VersionEdit* edit) {
  for (int which = 0; which < 2; which++) {
    for (size_t i = 0; i < inputs_[which].size(); i++) {
      edit->RemoveFile(level_ + which, inputs_[which][i]->number);
    }
  }
}

bool Compaction::IsBaseLevelForKey(const Slice& user_key) {
  // Maybe use binary search to find right entry instead of linear search?
  const Comparator* user_cmp =
      input_version_->vset_->icmp_.user_comparator();
  for (int lvl = level_ + 2; lvl < num_levels_; lvl++) {
    const std::vector<FileMetaData*>& files = input_version_->files_[lvl];
    while (level_ptrs_[lvl] < files.size()) {
      FileMetaData* f = files[level_ptrs_[lvl]];
      if (user_cmp->Compare(user_key, f->largest.user_key()) <= 0) {
        // We've advanced far enough
        if (user_cmp->Compare(user_key, f->smallest.user_key()) >= 0) {
          // Key falls in this file's range, so definitely not base level
          return false;
        }
        break;
      }
      level_ptrs_[lvl]++;
    }
  }
  return true;
}

void Compaction::ReleaseInputs() {
  if (input_version_ != nullptr) {
    input_version_->Unref();
    input_version_ = nullptr;
  }
}

uint64_t Compaction::TotalInputBytes() const {
  uint64_t total = 0;
  for (int which = 0; which < 2; which++) {
    for (size_t i = 0; i < inputs_[which].size(); i++) {
      total += inputs_[which][i]->file_size;
    }
  }
  return total;
}

}  // namespace ldc
