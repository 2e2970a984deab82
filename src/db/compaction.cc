#include "db/compaction.h"

#include <cassert>

#include "db/table_cache.h"
#include "db/version_set.h"
#include "ldc/iterator.h"
#include "ldc/options.h"
#include "table/table.h"

namespace ldc {

namespace {

// Returns the approximate byte offset of `ikey` within the table, or a
// proportional fallback if the table cannot be opened.
uint64_t ApproximateOffset(TableCache* table_cache, uint64_t file_number,
                           uint64_t file_size, const Slice& ikey) {
  Table* table = nullptr;
  ReadOptions options;
  options.fill_cache = false;
  Iterator* iter =
      table_cache->NewIterator(options, file_number, file_size, &table);
  uint64_t result = 0;
  if (table != nullptr) {
    result = table->ApproximateOffsetOf(ikey);
  }
  delete iter;
  return result;
}

}  // namespace

void BuildLdcLinkPlan(VersionSet* vset, TableCache* table_cache,
                      const FileMetaData& upper, int level,
                      LdcLinkPlan* plan) {
  plan->level = level;
  plan->slices.clear();
  plan->trivial_move = false;
  plan->frozen = FrozenFileMeta();
  plan->frozen.number = upper.number;
  plan->frozen.file_size = upper.file_size;
  plan->frozen.origin_level = level;
  plan->frozen.smallest = upper.smallest;
  plan->frozen.largest = upper.largest;

  Version* v = vset->current();
  const std::vector<FileMetaData*>& lower_files = v->files(level + 1);
  if (lower_files.empty()) {
    // No lower-level data at all: a link would have nothing to attach to,
    // so the file simply moves down (same as LevelDB's trivial move).
    plan->trivial_move = true;
    return;
  }

  const InternalKeyComparator* icmp = vset->icmp();
  const Comparator* ucmp = icmp->user_comparator();
  const LdcLinkState& ldc = v->links();

  // Find the first lower file whose responsibility range can intersect the
  // upper file: responsibility of file i ends at file[i].largest, so the
  // first candidate is the first file with largest >= upper.smallest.
  size_t first = FindFile(*icmp, lower_files, upper.smallest.Encode());
  if (first >= lower_files.size()) {
    // The upper file lies entirely past the last lower file's largest key;
    // the last file's responsibility extends to +inf.
    first = lower_files.size() - 1;
  }

  uint64_t prev_offset =
      ApproximateOffset(table_cache, upper.number, upper.file_size,
                        upper.smallest.Encode());

  for (size_t i = first; i < lower_files.size(); i++) {
    const FileMetaData* lower = lower_files[i];
    const bool is_last = (i + 1 == lower_files.size());

    LdcSlicePlan slice;
    slice.lower_file_number = lower->number;
    slice.lower_file_size = lower->file_size;
    slice.link.lower_file_number = lower->number;
    slice.link.frozen_file_number = upper.number;

    // Slice lower bound: exclusive at the previous lower file's largest
    // user key, encoded as the *largest possible* internal key of that user
    // key so an inclusive internal-key interval excludes every real entry
    // of the boundary key.
    if (plan->slices.empty()) {
      slice.link.smallest = upper.smallest;
    } else {
      const FileMetaData* prev = lower_files[i - 1];
      slice.link.smallest = InternalKey(prev->largest.user_key(), 0,
                                        static_cast<ValueType>(0));
    }

    // Slice upper bound: inclusive at this lower file's largest user key
    // (everything of that user key included), except the last file which
    // owns the tail of the key space.
    if (is_last || ucmp->Compare(upper.largest.user_key(),
                                 lower->largest.user_key()) <= 0) {
      slice.link.largest = upper.largest;
    } else {
      slice.link.largest = InternalKey(lower->largest.user_key(), 0,
                                       static_cast<ValueType>(0));
    }

    // Apportion the upper file's bytes to this slice via its index.
    uint64_t end_offset =
        ApproximateOffset(table_cache, upper.number, upper.file_size,
                          slice.link.largest.Encode());
    if (is_last || ucmp->Compare(upper.largest.user_key(),
                                 lower->largest.user_key()) <= 0) {
      end_offset = upper.file_size;
    }
    slice.link.estimated_bytes =
        end_offset > prev_offset ? end_offset - prev_offset : 0;
    prev_offset = end_offset;

    slice.resulting_link_count = ldc.LinkCount(lower->number) + 1;
    slice.resulting_linked_bytes =
        ldc.LinkedBytes(lower->number) + slice.link.estimated_bytes;
    plan->slices.push_back(slice);

    // Stop once this lower file's responsibility covers the rest of the
    // upper file.
    if (is_last || ucmp->Compare(upper.largest.user_key(),
                                 lower->largest.user_key()) <= 0) {
      break;
    }
  }

  assert(!plan->slices.empty());
  // Note: slices whose byte estimate is zero (the index is block-granular)
  // are kept — every slice link is the *only* path to its key range of the
  // frozen file, both for reads and for the merge that consumes it.
}

void ApplyLinkPlanToEdit(const LdcLinkPlan& plan, VersionEdit* edit) {
  edit->RemoveFile(plan.level, plan.frozen.number);
  if (plan.trivial_move) {
    edit->AddFile(plan.level + 1, plan.frozen.number, plan.frozen.file_size,
                  plan.frozen.smallest, plan.frozen.largest);
    return;
  }
  edit->FreezeFile(plan.frozen);
  for (const LdcSlicePlan& slice : plan.slices) {
    edit->AddSliceLink(slice.link);
  }
}

}  // namespace ldc
