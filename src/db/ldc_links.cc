#include "db/ldc_links.h"

#include <cassert>

namespace ldc {

const std::shared_ptr<const LdcLinkState>& LdcLinkState::Empty() {
  static const std::shared_ptr<const LdcLinkState> empty =
      std::make_shared<const LdcLinkState>();
  return empty;
}

void LdcLinkRegistry::Apply(const VersionEdit& edit) {
  if (edit.frozen_files_.empty() && edit.slice_links_.empty() &&
      edit.consumed_links_.empty() && edit.removed_frozen_.empty()) {
    return;  // No LDC records: keep sharing the current state.
  }

  // Copy-on-write: build the successor state from the current one, then
  // publish it. Readers holding the old shared_ptr keep a consistent view.
  auto next = std::make_shared<LdcLinkState>(*state_);
  auto& links_ = next->links;
  auto& frozen_ = next->frozen;

  for (const FrozenFileMeta& f : edit.frozen_files_) {
    assert(frozen_.find(f.number) == frozen_.end());
    FrozenFileMeta meta = f;
    meta.refs = 0;  // Incremented by the slice links below.
    frozen_[f.number] = meta;
  }
  for (const SliceLinkMeta& link : edit.slice_links_) {
    links_[link.lower_file_number].push_back(link);
    auto it = frozen_.find(link.frozen_file_number);
    assert(it != frozen_.end());
    if (it != frozen_.end()) {
      it->second.refs++;
    }
    if (link.link_seq >= next_link_seq_) {
      next_link_seq_ = link.link_seq + 1;
    }
  }
  for (uint64_t lower : edit.consumed_links_) {
    auto it = links_.find(lower);
    if (it == links_.end()) continue;
    for (const SliceLinkMeta& link : it->second) {
      auto fit = frozen_.find(link.frozen_file_number);
      assert(fit != frozen_.end());
      if (fit != frozen_.end()) {
        fit->second.refs--;
        assert(fit->second.refs >= 0);
      }
    }
    links_.erase(it);
  }
  for (uint64_t number : edit.removed_frozen_) {
    auto it = frozen_.find(number);
    assert(it == frozen_.end() || it->second.refs == 0);
    if (it != frozen_.end()) {
      if (reclaim_observer_) {
        reclaim_observer_(it->second);
      }
      frozen_.erase(it);
    }
  }

  state_ = std::move(next);
}

int LdcLinkState::LinkCount(uint64_t lower_file_number) const {
  auto it = links.find(lower_file_number);
  return it == links.end() ? 0 : static_cast<int>(it->second.size());
}

uint64_t LdcLinkState::LinkedBytes(uint64_t lower_file_number) const {
  auto it = links.find(lower_file_number);
  if (it == links.end()) return 0;
  uint64_t total = 0;
  for (const SliceLinkMeta& link : it->second) {
    total += link.estimated_bytes;
  }
  return total;
}

const std::vector<SliceLinkMeta>* LdcLinkState::Links(
    uint64_t lower_file_number) const {
  auto it = links.find(lower_file_number);
  return it == links.end() ? nullptr : &it->second;
}

const FrozenFileMeta* LdcLinkState::Frozen(uint64_t number) const {
  auto it = frozen.find(number);
  return it == frozen.end() ? nullptr : &it->second;
}

std::vector<uint64_t> LdcLinkState::FrozenReclaimableAfterConsume(
    uint64_t lower_file_number) const {
  std::vector<uint64_t> result;
  auto it = links.find(lower_file_number);
  if (it == links.end()) return result;
  // Count how many links of each frozen file would be consumed.
  std::map<uint64_t, int> consumed;
  for (const SliceLinkMeta& link : it->second) {
    consumed[link.frozen_file_number]++;
  }
  for (const auto& kvp : consumed) {
    const FrozenFileMeta* f = Frozen(kvp.first);
    assert(f != nullptr);
    if (f != nullptr && f->refs == kvp.second) {
      result.push_back(kvp.first);
    }
  }
  return result;
}

uint64_t LdcLinkState::MostLinkedLowerFile(
    int* link_count, const std::set<uint64_t>* exclude) const {
  uint64_t best = 0;
  int best_count = 0;
  for (const auto& kvp : links) {
    if (exclude != nullptr && exclude->count(kvp.first) != 0) {
      continue;
    }
    if (static_cast<int>(kvp.second.size()) > best_count) {
      best = kvp.first;
      best_count = static_cast<int>(kvp.second.size());
    }
  }
  *link_count = best_count;
  return best;
}

uint64_t LdcLinkState::TotalFrozenBytes() const {
  uint64_t total = 0;
  for (const auto& kvp : frozen) {
    total += kvp.second.file_size;
  }
  return total;
}

void LdcLinkState::AddLiveFiles(std::set<uint64_t>* live) const {
  for (const auto& kvp : frozen) {
    live->insert(kvp.first);
  }
}

}  // namespace ldc
