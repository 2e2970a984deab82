// In-memory registry of LDC metadata: the frozen region and the slice links
// (paper §III). The registry is owned by the VersionSet; every mutation is
// carried by a VersionEdit (and therefore persisted in the manifest), so
// recovery rebuilds the exact link state.
//
// Concurrency: the link/frozen maps are kept in an immutable LdcLinkState
// published through a shared_ptr (copy-on-write). Mutations (Apply) are
// serialized by the DB mutex and install a fresh state object; every
// installed Version captures the snapshot that matches its file set, so
// readers can probe slice links without holding the DB mutex even while a
// background merge consumes links and installs a newer version.

#ifndef LDC_DB_LDC_LINKS_H_
#define LDC_DB_LDC_LINKS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "db/version_edit.h"

namespace ldc {

// One immutable snapshot of the LDC metadata. Safe to read from any thread
// once published; never modified after construction (except while being
// built inside LdcLinkRegistry::Apply, before publication).
struct LdcLinkState {
  // lower file number -> links in link order (ascending link_seq).
  std::map<uint64_t, std::vector<SliceLinkMeta>> links;
  // frozen file number -> metadata (refs == outstanding links).
  std::map<uint64_t, FrozenFileMeta> frozen;

  // True iff `lower_file_number` has at least one slice link attached.
  bool HasLinks(uint64_t lower_file_number) const {
    return links.find(lower_file_number) != links.end();
  }

  // Number of slices linked to `lower_file_number`.
  int LinkCount(uint64_t lower_file_number) const;

  // Sum of the estimated bytes of all slices linked to the file.
  uint64_t LinkedBytes(uint64_t lower_file_number) const;

  // All links attached to `lower_file_number` in link order (ascending
  // link_seq, oldest first), or nullptr. Walked backwards, newest link
  // first, it gives the read-priority order (paper §III-B3).
  const std::vector<SliceLinkMeta>* Links(uint64_t lower_file_number) const;

  // Frozen-file lookup; nullptr if not frozen.
  const FrozenFileMeta* Frozen(uint64_t number) const;

  // The frozen files whose reference count would drop to zero if all links
  // of `lower_file_number` were consumed. Used to fill
  // VersionEdit::RemoveFrozenFile records when building a merge edit.
  std::vector<uint64_t> FrozenReclaimableAfterConsume(
      uint64_t lower_file_number) const;

  // The lower file with the most slice links; returns 0 when no links
  // exist. Used by the frozen-space safety valve. When `exclude` is
  // non-null, files in it are skipped — the multi-job scheduler passes the
  // set of lower files whose merge is already claimed, so the valve picks
  // the most-linked file that can actually be enqueued.
  uint64_t MostLinkedLowerFile(int* link_count,
                               const std::set<uint64_t>* exclude =
                                   nullptr) const;

  // Accounting (paper §IV-J space overhead).
  uint64_t TotalFrozenBytes() const;
  size_t FrozenFileCount() const { return frozen.size(); }
  size_t LinkedLowerFileCount() const { return links.size(); }

  // Adds every frozen file number to *live (they must not be deleted from
  // disk while any live version can still reach them through a link).
  void AddLiveFiles(std::set<uint64_t>* live) const;

  // A shared empty state, used as the fallback for versions installed
  // before any LDC metadata exists.
  static const std::shared_ptr<const LdcLinkState>& Empty();
};

class LdcLinkRegistry {
 public:
  LdcLinkRegistry() : state_(LdcLinkState::Empty()) {}

  LdcLinkRegistry(const LdcLinkRegistry&) = delete;
  LdcLinkRegistry& operator=(const LdcLinkRegistry&) = delete;

  // Returns the next link sequence number (monotonic, persisted implicitly
  // through the SliceLinkMeta records).
  uint64_t NextLinkSeq() { return next_link_seq_++; }

  // Applies the LDC records of a version edit by installing a fresh
  // immutable state (copy-on-write). Called by VersionSet::LogAndApply
  // after the edit has been logged, and during manifest recovery.
  // REQUIRES: externally serialized (the DB mutex).
  void Apply(const VersionEdit& edit);

  // The current immutable snapshot. Versions capture this at install time;
  // the returned object never changes.
  std::shared_ptr<const LdcLinkState> snapshot() const { return state_; }

  // Convenience pass-throughs to the current snapshot, for call sites that
  // run under the DB mutex and want the latest state.
  bool HasLinks(uint64_t n) const { return state_->HasLinks(n); }
  int LinkCount(uint64_t n) const { return state_->LinkCount(n); }
  uint64_t LinkedBytes(uint64_t n) const { return state_->LinkedBytes(n); }
  const std::vector<SliceLinkMeta>* Links(uint64_t n) const {
    return state_->Links(n);
  }
  const FrozenFileMeta* Frozen(uint64_t n) const { return state_->Frozen(n); }
  std::vector<uint64_t> FrozenReclaimableAfterConsume(uint64_t n) const {
    return state_->FrozenReclaimableAfterConsume(n);
  }
  uint64_t MostLinkedLowerFile(int* link_count,
                               const std::set<uint64_t>* exclude =
                                   nullptr) const {
    return state_->MostLinkedLowerFile(link_count, exclude);
  }
  uint64_t TotalFrozenBytes() const { return state_->TotalFrozenBytes(); }
  size_t FrozenFileCount() const { return state_->FrozenFileCount(); }
  size_t LinkedLowerFileCount() const {
    return state_->LinkedLowerFileCount();
  }
  void AddLiveFiles(std::set<uint64_t>* live) const {
    state_->AddLiveFiles(live);
  }

  const std::map<uint64_t, std::vector<SliceLinkMeta>>& all_links() const {
    return state_->links;
  }
  const std::map<uint64_t, FrozenFileMeta>& all_frozen() const {
    return state_->frozen;
  }

  // Invoked (with the file's metadata) each time a frozen file leaves the
  // frozen region because its last link was consumed. The DB registers this
  // only after manifest recovery has finished, so historical reclaim records
  // replayed from the manifest do not fire events.
  void SetReclaimObserver(std::function<void(const FrozenFileMeta&)> observer) {
    reclaim_observer_ = std::move(observer);
  }

 private:
  std::shared_ptr<const LdcLinkState> state_;
  uint64_t next_link_seq_ = 1;
  std::function<void(const FrozenFileMeta&)> reclaim_observer_;
};

}  // namespace ldc

#endif  // LDC_DB_LDC_LINKS_H_
