// LDC metadata: the frozen region and the slice links (paper §III). Each
// Version owns one immutable LdcLinkState, the one that matches its file
// set. VersionSet::Builder applies an edit's LDC records together with its
// file records (LdcLinkState::Apply) and gives the result to the new
// Version; every mutation travels in a VersionEdit, so the manifest replays
// the exact link state on recovery.
//
// Concurrency: a published state never changes. An edit without LDC records
// shares its base version's state; the first LDC record of an edit copies
// it. Readers probe the slice links of the Version they pinned without the
// DB mutex, even while a background merge consumes links and installs a
// newer version.

#ifndef LDC_DB_LDC_LINKS_H_
#define LDC_DB_LDC_LINKS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "db/version_edit.h"

namespace ldc {

// One immutable snapshot of the LDC metadata. Safe to read from any thread
// once a Version holds it; never modified after that (VersionSet::Builder
// applies edits to its own copy before publishing it).
struct LdcLinkState {
  // lower file number -> links in link order (ascending link_seq).
  std::map<uint64_t, std::vector<SliceLinkMeta>> links;
  // frozen file number -> metadata (refs == outstanding links).
  std::map<uint64_t, FrozenFileMeta> frozen;

  // Applies the LDC records of `edit` in place: frozen files, then new
  // links, consumed links, and reclaimed frozen files. Only
  // VersionSet::Builder calls it. It asserts nothing: an edit that breaks
  // the link invariants leaves a state that VersionSet refuses to install.
  void Apply(const VersionEdit& edit);

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

  // A shared empty state: the link state of a version with no LDC metadata.
  static const std::shared_ptr<const LdcLinkState>& Empty();
};

}  // namespace ldc

#endif  // LDC_DB_LDC_LINKS_H_
