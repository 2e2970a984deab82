// The representation of a DB consists of a set of Versions. The
// newest version is called "current". Older versions may be kept
// around to provide a consistent view to live iterators.
//
// Each Version keeps track of a set of Table files per level, and — under
// LDC — the frozen region and slice links that match them (LdcLinkState).
// VersionSet::Builder builds both from the same edits, so a Version is the
// only owner of its LDC metadata. Below level 0 every read goes through one
// structure, the *read group* of a file: the file plus each slice linked to
// it, the slice bounded to its link range (paper §III-B3). Get is a one-key
// MultiGet that probes one group per level; scans concatenate a level's
// groups (NewGroupIterator); and an LDC merge consumes exactly one group.
// The entire set of versions is maintained in a VersionSet.
//
// Version,VersionSet are thread-compatible, but require external
// synchronization on all accesses — with two deliberate exceptions for
// the lock-free read path: LastSequence()/SetLastSequence() are a
// std::atomic with acquire/release ordering, and Version::Get /
// Version::MultiGet / iterators may run without the DB mutex on any
// Version the caller holds a reference to (a Version's file lists and link
// state are immutable after install).

#ifndef LDC_DB_VERSION_SET_H_
#define LDC_DB_VERSION_SET_H_

#include <atomic>
#include <map>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "db/dbformat.h"
#include "db/ldc_links.h"
#include "db/version_edit.h"
#include "ldc/env.h"
#include "ldc/options.h"

namespace ldc {

namespace log {
class Writer;
}

class Compaction;
class Iterator;
class MemTable;
class TableBuilder;
class TableCache;
class Version;
class VersionSet;
class WritableFile;

// Cumulative cost breakdown of the compaction work that wrote into one
// level: where the time went (pick / read / merge-sort / write / install)
// and how many bytes moved. Aggregated by the DB after every flush, UDC
// compaction, tiered merge, and LDC merge; exported through the
// "ldc.compaction-stats" and "ldc.stats-json" properties.
struct CompactionStats {
  uint64_t micros = 0;          // total job wall time
  uint64_t pick_micros = 0;     // choosing inputs (PickCompaction / link scan)
  uint64_t read_micros = 0;     // advancing the merged input iterator
  uint64_t merge_micros = 0;    // key comparison / drop logic between I/Os
  uint64_t write_micros = 0;    // building + syncing output tables
  uint64_t install_micros = 0;  // LogAndApply of the resulting edit
  uint64_t bytes_read_upper = 0;  // bytes ingested from the level above
  uint64_t bytes_read_lower = 0;  // bytes re-read from this level
  uint64_t bytes_written = 0;
  uint64_t count = 0;  // number of jobs that wrote into this level

  void Add(const CompactionStats& c);

  // Bytes written per byte ingested from above — this level's contribution
  // to write amplification. 0 while nothing has been ingested.
  double WriteAmplification() const {
    return bytes_read_upper == 0
               ? 0.0
               : static_cast<double>(bytes_written) / bytes_read_upper;
  }
};

// Return the smallest index i such that files[i]->largest >= key.
// Return files.size() if there is no such file.
// REQUIRES: "files" contains a sorted list of non-overlapping files.
int FindFile(const InternalKeyComparator& icmp,
             const std::vector<FileMetaData*>& files, const Slice& key);

// Returns true iff some file in "files" overlaps the user key range
// [*smallest,*largest].
// smallest==nullptr represents a key smaller than all keys in the DB.
// largest==nullptr represents a key largest than all keys in the DB.
// REQUIRES: If disjoint_sorted_files, files[] contains disjoint ranges
//           in sorted order.
bool SomeFileOverlapsRange(const InternalKeyComparator& icmp,
                           bool disjoint_sorted_files,
                           const std::vector<FileMetaData*>& files,
                           const Slice* smallest_user_key,
                           const Slice* largest_user_key);

// One key of a MultiGet batch as it travels through Version::MultiGet.
// The caller owns the LookupKey and value buffer; `done` flips to true
// once a verdict (found / deleted / error) is reached, after which
// `status` and `*value` are final.
struct GetRequest {
  const LookupKey* key = nullptr;
  std::string* value = nullptr;
  Status status;
  bool done = false;
};

class Version {
 public:
  // Lookup the value for key. If found, store it in *val and
  // return OK. Else return a non-OK status. A one-key MultiGet.
  Status Get(const ReadOptions&, const LookupKey& key, std::string* val);

  // Resolve a batch of n lookups in one pass over the tree. Requests must
  // be sorted by user key (ascending); already-done entries are skipped.
  // Each table that serves several keys of the batch is pinned in the
  // table cache once and its bloom filter is consulted through that single
  // pinned handle, amortizing the cache lookups across the batch. Results
  // are byte-identical to sequential Gets against this same Version.
  void MultiGet(const ReadOptions&, GetRequest** requests, size_t n);

  // Append to *iters a sequence of iterators that will
  // yield the contents of this Version when merged together: one per
  // level-0 file, and one per deeper level that walks its read groups.
  void AddIterators(const ReadOptions&, std::vector<Iterator*>* iters);

  // An iterator over the read group of *f, a file below level 0: *f merged
  // with each slice linked to it, each slice bounded to its link range. An
  // LDC merge of *f reads exactly this. *f must belong to this Version.
  Iterator* NewGroupIterator(const ReadOptions&, const FileMetaData* f) const;

  // Reference count management (so Versions do not disappear out from
  // under live iterators)
  void Ref();
  void Unref();

  void GetOverlappingInputs(
      int level,
      const InternalKey* begin,  // nullptr means before all keys
      const InternalKey* end,    // nullptr means after all keys
      std::vector<FileMetaData*>* inputs);

  // Returns true iff some file in the specified level overlaps
  // some part of [*smallest_user_key,*largest_user_key].
  // smallest_user_key==nullptr represents a key smaller than all the DB's keys.
  // largest_user_key==nullptr represents a key largest than all the DB's keys.
  bool OverlapInLevel(int level, const Slice* smallest_user_key,
                      const Slice* largest_user_key);

  // Return the level at which we should place a new memtable compaction
  // result that covers the range [smallest_user_key,largest_user_key].
  int PickLevelForMemTableOutput(const Slice& smallest_user_key,
                                 const Slice& largest_user_key);

  int NumFiles(int level) const {
    return static_cast<int>(files_[level].size());
  }
  const std::vector<FileMetaData*>& files(int level) const {
    return files_[level];
  }

  // The immutable LDC link/frozen state matching this version's file set,
  // built from the same edits. A concurrent merge installs a new version
  // and cannot change this one under its readers.
  const LdcLinkState& links() const { return *link_state_; }

  // O(1) lookup of a table file by number across all levels (built by
  // VersionSet::Finalize). Returns true and fills *level / *file when the
  // file is part of this version.
  bool FindFileByNumber(uint64_t number, int* level,
                        FileMetaData** file) const {
    auto it = file_index_.find(number);
    if (it == file_index_.end()) return false;
    *level = it->second.first;
    *file = it->second.second;
    return true;
  }

  // Return a human readable string that describes this version's contents.
  std::string DebugString() const;

 private:
  friend class Compaction;
  friend class VersionSet;

  class LevelFileNumIterator;

  explicit Version(VersionSet* vset)
      : vset_(vset),
        next_(this),
        prev_(this),
        refs_(0),
        link_state_(LdcLinkState::Empty()),
        compaction_score_(-1),
        compaction_level_(-1) {}

  Version(const Version&) = delete;
  Version& operator=(const Version&) = delete;

  ~Version();

  // Concatenates the read groups of `files`, the non-empty, sorted files
  // of one level below level 0 (or a compaction's inputs from one).
  Iterator* NewConcatenatingIterator(
      const ReadOptions&, const std::vector<FileMetaData*>* files) const;

  VersionSet* vset_;  // VersionSet to which this Version belongs
  Version* next_;     // Next version in linked list
  Version* prev_;     // Previous version in linked list
  int refs_;          // Number of live refs to this version

  // List of files per level
  std::vector<FileMetaData*> files_[config::kMaxNumLevels];

  // file number -> (level, metadata) for every file in this version.
  // Built once at install time (VersionSet::Finalize); immutable after.
  std::unordered_map<uint64_t, std::pair<int, FileMetaData*>> file_index_;

  // LDC metadata of this version (set by VersionSet::Builder::SaveTo).
  std::shared_ptr<const LdcLinkState> link_state_;

  // Level that should be compacted next and its compaction score.
  // Score < 1 means compaction is not strictly needed. These fields
  // are initialized by Finalize().
  double compaction_score_;
  int compaction_level_;
};

class VersionSet {
 public:
  VersionSet(const std::string& dbname, const Options* options,
             TableCache* table_cache, const InternalKeyComparator*);
  VersionSet(const VersionSet&) = delete;
  VersionSet& operator=(const VersionSet&) = delete;

  ~VersionSet();

  // Apply *edit to the current version to form a new descriptor that
  // is both saved to persistent state and installed as the new
  // current version.
  Status LogAndApply(VersionEdit* edit);

  // Recover the last saved descriptor from persistent storage.
  Status Recover(bool* save_manifest);

  // Return the current version.
  Version* current() const { return current_; }

  // Return the current manifest file number
  uint64_t ManifestFileNumber() const { return manifest_file_number_; }

  // Allocate and return a new file number
  uint64_t NewFileNumber() { return next_file_number_++; }

  // Allocate and return a new slice link sequence number: monotonic, and
  // past every link applied so far (recovery replays them all).
  uint64_t NextLinkSeq() { return next_link_seq_++; }

  // Return the number of Table files at the specified level.
  int NumLevelFiles(int level) const;

  // Return the combined file size of all files at the specified level.
  int64_t NumLevelBytes(int level) const;

  // Total bytes across all live levels (excludes frozen region).
  int64_t TotalLiveBytes() const;

  // Return the last sequence number. Safe to call without the DB mutex:
  // the acquire load pairs with SetLastSequence's release store, so a
  // reader that observes sequence S also observes every memtable insert
  // that happened before S was published.
  uint64_t LastSequence() const {
    return last_sequence_.load(std::memory_order_acquire);
  }

  // Set the last sequence number to s. Callers are serialized by the DB
  // mutex (or by the single-writer group-commit leader), so the monotonic
  // assert below is race-free in practice.
  void SetLastSequence(uint64_t s) {
    assert(s >= last_sequence_.load(std::memory_order_relaxed));
    last_sequence_.store(s, std::memory_order_release);
  }

  // Mark the specified file number as used.
  void MarkFileNumberUsed(uint64_t number);

  // Return the current log file number.
  uint64_t LogNumber() const { return log_number_; }

  // Return the log file number for the log file that is currently
  // being compacted, or zero if there is no such log file.
  uint64_t PrevLogNumber() const { return prev_log_number_; }

  // The number of levels configured for this tree.
  int NumLevels() const { return num_levels_; }

  // Maximum byte budget for the given level (level >= 1):
  // level1_max_bytes * fan_out^(level-1).
  double MaxBytesForLevel(int level) const;

  // --- UDC ---

  // Pick level and inputs for a new UDC compaction.
  // Returns nullptr if there is no compaction to be done.
  // Otherwise returns a pointer to a heap-allocated object that
  // describes the compaction. Caller should delete the result.
  // When `claimed` is non-null, files whose numbers appear in it are
  // skipped when choosing the seed input — they are inputs of a
  // compaction already claimed by another background job.
  Compaction* PickCompaction(const std::set<uint64_t>* claimed = nullptr);

  // Return a compaction object for compacting the range [begin,end] in
  // the specified level. Returns nullptr if there is nothing in that
  // level that overlaps the specified range. Caller should delete
  // the result. (Manual compaction support.)
  Compaction* CompactRange(int level, const InternalKey* begin,
                           const InternalKey* end);

  // --- LDC ---

  // Pick the upper-level SSTable that should be linked down next. Uses the
  // same level scoring as PickCompaction but skips files that already have
  // slice links attached (paper §III-D). Returns true and fills *level /
  // *file on success. When the chosen level has only linked files, returns
  // false and sets *must_merge_lower to the lower-level file whose merge
  // would unblock the level (0 if none).
  bool PickLdcLinkTarget(int* level, FileMetaData** file,
                         uint64_t* must_merge_lower);

  // Returns true iff some level needs a compaction.
  bool NeedsCompaction() const {
    return current_->compaction_score_ >= 1;
  }

  // Add all files listed in any live version, plus the frozen files their
  // links reach, to *live.
  void AddLiveFiles(std::set<uint64_t>* live);

  // True while a version older than current() is still referenced, e.g.
  // by a reader's iterator: the tables only it holds are not yet obsolete.
  bool HasOlderVersions() const { return dummy_versions_.next_ != current_; }

  // Create an iterator that reads over the compaction inputs for "*c".
  // The caller should delete the iterator when no longer needed.
  Iterator* MakeInputIterator(Compaction* c);

  // --- Observability ---

  // Folds one finished job's cost breakdown into the cumulative stats of
  // the level it wrote into.
  void AddCompactionStats(int level, const CompactionStats& stats);

  // Records one memtable flush (bytes of user data entering the tree).
  void AddFlushStats(uint64_t bytes, uint64_t micros);

  const CompactionStats& compaction_stats(int level) const {
    assert(level >= 0 && level < config::kMaxNumLevels);
    return compaction_stats_[level];
  }
  uint64_t flush_bytes() const { return flush_bytes_; }
  uint64_t flush_count() const { return flush_count_; }
  uint64_t flush_micros() const { return flush_micros_; }

  // Total bytes written by flush + all compaction work divided by the bytes
  // flushed into the tree: how many times the device rewrote each ingested
  // byte (the paper's write-amplification metric, Fig. 7 / 12d).
  double CumulativeWriteAmplification() const;

  TableCache* table_cache() const { return table_cache_; }
  const Options* options() const { return options_; }
  const InternalKeyComparator* icmp() const { return &icmp_; }

  // Returns a summary string of per-level file counts.
  std::string LevelSummary() const;

 private:
  class Builder;

  friend class Compaction;
  friend class Version;

  // Builds v's file-number index and its compaction score.
  void Finalize(Version* v);

  void GetRange(const std::vector<FileMetaData*>& inputs, InternalKey* smallest,
                InternalKey* largest);

  void GetRange2(const std::vector<FileMetaData*>& inputs1,
                 const std::vector<FileMetaData*>& inputs2,
                 InternalKey* smallest, InternalKey* largest);

  void SetupOtherInputs(Compaction* c);

  // Save current contents to *log
  Status WriteSnapshot(log::Writer* log);

  void AppendVersion(Version* v);

  Env* const env_;
  const std::string dbname_;
  const Options* const options_;
  TableCache* const table_cache_;
  const InternalKeyComparator icmp_;
  const int num_levels_;
  uint64_t next_file_number_;
  uint64_t manifest_file_number_;
  std::atomic<uint64_t> last_sequence_;
  uint64_t log_number_;
  uint64_t prev_log_number_;  // 0 or backing store for memtable being compacted

  // Opened lazily
  WritableFile* descriptor_file_;
  log::Writer* descriptor_log_;
  Version dummy_versions_;  // Head of circular doubly-linked list of versions.
  Version* current_;        // == dummy_versions_.prev_

  // Per-level key at which the next compaction at that level should start.
  // Either an empty string, or a valid InternalKey.
  std::string compact_pointer_[config::kMaxNumLevels];

  // Next slice link sequence number (see NextLinkSeq).
  uint64_t next_link_seq_ = 1;

  // Cumulative observability counters (in-memory only; reset on reopen).
  CompactionStats compaction_stats_[config::kMaxNumLevels];
  uint64_t flush_bytes_ = 0;
  uint64_t flush_count_ = 0;
  uint64_t flush_micros_ = 0;
};

// A Compaction encapsulates information about a UDC compaction.
class Compaction {
 public:
  ~Compaction();

  // Return the level that is being compacted. Inputs from "level"
  // and "level+1" will be merged to produce a set of "level+1" files.
  int level() const { return level_; }

  // Return the object that holds the edits to the descriptor done
  // by this compaction.
  VersionEdit* edit() { return &edit_; }

  // "which" must be either 0 or 1
  int num_input_files(int which) const {
    return static_cast<int>(inputs_[which].size());
  }

  // Return the ith input file at "level()+which" ("which" must be 0 or 1).
  FileMetaData* input(int which, int i) const { return inputs_[which][i]; }

  // Maximum size of files to build during this compaction.
  uint64_t MaxOutputFileSize() const { return max_output_file_size_; }

  // Is this a trivial compaction that can be implemented by just
  // moving a single input file to the next level (no merging or splitting)
  bool IsTrivialMove() const;

  // Add all inputs to this compaction as delete operations to *edit.
  void AddInputDeletions(VersionEdit* edit);

  // Returns true if the information we have available guarantees that
  // the compaction is producing data in "level+1" for which no data exists
  // in levels greater than "level+1".
  bool IsBaseLevelForKey(const Slice& user_key);

  // Release the input version for the compaction, once the compaction
  // is successful.
  void ReleaseInputs();

  // Sum of the sizes of all input files (read volume of the compaction).
  uint64_t TotalInputBytes() const;

 private:
  friend class Version;
  friend class VersionSet;

  Compaction(const Options* options, int level, int num_levels);

  int level_;
  int num_levels_;
  uint64_t max_output_file_size_;
  Version* input_version_;
  VersionEdit edit_;

  // Each compaction reads inputs from "level_" and "level_+1"
  std::vector<FileMetaData*> inputs_[2];  // The two sets of inputs

  // State for implementing IsBaseLevelForKey

  // level_ptrs_ holds indices into input_version_->files_: our state
  // is that we are positioned at one of the file ranges for each
  // higher level than the ones involved in this compaction (i.e. for
  // all L >= level_ + 2).
  size_t level_ptrs_[config::kMaxNumLevels];
};

}  // namespace ldc

#endif  // LDC_DB_VERSION_SET_H_
