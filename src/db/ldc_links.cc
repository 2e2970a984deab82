#include "db/ldc_links.h"

#include <cassert>

namespace ldc {

const std::shared_ptr<const LdcLinkState>& LdcLinkState::Empty() {
  static const std::shared_ptr<const LdcLinkState> empty =
      std::make_shared<const LdcLinkState>();
  return empty;
}

void LdcLinkState::Apply(const VersionEdit& edit) {
  for (const FrozenFileMeta& f : edit.frozen_files_) {
    FrozenFileMeta& meta = frozen[f.number];
    meta = f;
    meta.refs = 0;  // Incremented by the slice links below.
  }
  for (const SliceLinkMeta& link : edit.slice_links_) {
    links[link.lower_file_number].push_back(link);
    auto it = frozen.find(link.frozen_file_number);
    if (it != frozen.end()) it->second.refs++;
  }
  for (uint64_t lower : edit.consumed_links_) {
    auto it = links.find(lower);
    if (it == links.end()) continue;
    for (const SliceLinkMeta& link : it->second) {
      auto fit = frozen.find(link.frozen_file_number);
      if (fit != frozen.end()) fit->second.refs--;
    }
    links.erase(it);
  }
  for (uint64_t number : edit.removed_frozen_) {
    frozen.erase(number);
  }
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
