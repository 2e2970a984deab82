#ifndef LDC_DB_VERSION_EDIT_H_
#define LDC_DB_VERSION_EDIT_H_

#include <set>
#include <utility>
#include <vector>

#include "db/dbformat.h"

namespace ldc {

class VersionSet;

struct FileMetaData {
  FileMetaData() : refs(0), file_size(0) {}

  int refs;
  uint64_t number;
  uint64_t file_size;    // File size in bytes
  InternalKey smallest;  // Smallest internal key served by table
  InternalKey largest;   // Largest internal key served by table
};

// LDC metadata: a file that has been removed from the live LSM levels by a
// link operation ("frozen region", paper §III-A). Its data is still readable
// through the SliceLinks that reference it; once every referencing link has
// been consumed by a merge the file can be reclaimed.
struct FrozenFileMeta {
  uint64_t number = 0;
  uint64_t file_size = 0;
  int origin_level = 0;  // level the file was frozen from
  int refs = 0;          // outstanding slice links
  InternalKey smallest;
  InternalKey largest;
};

// LDC metadata: a slice of a frozen file, linked to a lower-level SSTable
// whose responsibility key-range it falls into (paper Fig. 5). Purely
// in-memory + manifest metadata; creating one performs no data I/O.
struct SliceLinkMeta {
  uint64_t lower_file_number = 0;   // the live SSTable this slice feeds
  uint64_t frozen_file_number = 0;  // where the slice's bytes actually live
  uint64_t link_seq = 0;            // monotonic; larger == newer data
  uint64_t estimated_bytes = 0;     // share of the frozen file in this slice
  InternalKey smallest;             // slice key range (inclusive bounds)
  InternalKey largest;
};

class VersionEdit {
 public:
  VersionEdit() { Clear(); }
  ~VersionEdit() = default;

  void Clear();

  void SetComparatorName(const Slice& name) {
    has_comparator_ = true;
    comparator_ = name.ToString();
  }
  void SetLogNumber(uint64_t num) {
    has_log_number_ = true;
    log_number_ = num;
  }
  void SetPrevLogNumber(uint64_t num) {
    has_prev_log_number_ = true;
    prev_log_number_ = num;
  }
  void SetNextFile(uint64_t num) {
    has_next_file_number_ = true;
    next_file_number_ = num;
  }
  void SetLastSequence(SequenceNumber seq) {
    has_last_sequence_ = true;
    last_sequence_ = seq;
  }
  void SetCompactPointer(int level, const InternalKey& key) {
    compact_pointers_.push_back(std::make_pair(level, key));
  }

  // Add the specified file at the specified number.
  // REQUIRES: This version has not been saved (see VersionSet::SaveTo)
  // REQUIRES: "smallest" and "largest" are smallest and largest keys in file
  void AddFile(int level, uint64_t file, uint64_t file_size,
               const InternalKey& smallest, const InternalKey& largest) {
    FileMetaData f;
    f.number = file;
    f.file_size = file_size;
    f.smallest = smallest;
    f.largest = largest;
    new_files_.push_back(std::make_pair(level, f));
  }

  // Delete the specified "file" from the specified "level".
  void RemoveFile(int level, uint64_t file) {
    deleted_files_.insert(std::make_pair(level, file));
  }

  // ---- LDC operations ----

  // Record that `frozen` left its level for the frozen region.
  void FreezeFile(const FrozenFileMeta& frozen) {
    frozen_files_.push_back(frozen);
  }

  // Record a new slice link.
  void AddSliceLink(const SliceLinkMeta& link) { slice_links_.push_back(link); }

  // Record that a merge consumed every slice link attached to
  // `lower_file_number`.
  void ConsumeLinks(uint64_t lower_file_number) {
    consumed_links_.push_back(lower_file_number);
  }

  // Record that a frozen file's last reference was dropped and it left the
  // frozen region.
  void RemoveFrozenFile(uint64_t number) {
    removed_frozen_.push_back(number);
  }

  void EncodeTo(std::string* dst) const;
  Status DecodeFrom(const Slice& src);

  std::string DebugString() const;

 private:
  friend class VersionSet;
  friend struct LdcLinkState;

  typedef std::set<std::pair<int, uint64_t>> DeletedFileSet;

  std::string comparator_;
  uint64_t log_number_;
  uint64_t prev_log_number_;
  uint64_t next_file_number_;
  SequenceNumber last_sequence_;
  bool has_comparator_;
  bool has_log_number_;
  bool has_prev_log_number_;
  bool has_next_file_number_;
  bool has_last_sequence_;

  std::vector<std::pair<int, InternalKey>> compact_pointers_;
  DeletedFileSet deleted_files_;
  std::vector<std::pair<int, FileMetaData>> new_files_;

  // LDC records (empty under UDC).
  std::vector<FrozenFileMeta> frozen_files_;
  std::vector<SliceLinkMeta> slice_links_;
  std::vector<uint64_t> consumed_links_;
  std::vector<uint64_t> removed_frozen_;
};

}  // namespace ldc

#endif  // LDC_DB_VERSION_EDIT_H_
