// db_inspect: dump the structure of an existing database — levels, files,
// and (under LDC) the frozen region and slice links. Useful for seeing the
// paper's link/merge mechanism operating on a real on-disk store.
//
//   ./db_inspect <db_path> [--style=udc|ldc] [--churn=N]
//
// With --churn=N, first writes N random records so a fresh database has
// something to show.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "db/db_impl.h"
#include "db/version_set.h"
#include "ldc/db.h"
#include "ldc/filter_policy.h"
#include "util/random.h"
#include "workload/key_generator.h"

using namespace ldc;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <db_path> [--style=udc|ldc] [--churn=N]\n",
                 argv[0]);
    return 1;
  }
  const std::string path = argv[1];
  CompactionStyle style = CompactionStyle::kLdc;
  uint64_t churn = 0;
  for (int i = 2; i < argc; i++) {
    if (strncmp(argv[i], "--style=", 8) == 0) {
      style = strcmp(argv[i] + 8, "udc") == 0 ? CompactionStyle::kUdc
                                              : CompactionStyle::kLdc;
    } else if (strncmp(argv[i], "--churn=", 8) == 0) {
      churn = strtoull(argv[i] + 8, nullptr, 10);
    }
  }

  Options options;
  options.create_if_missing = true;
  options.compaction_style = style;
  options.write_buffer_size = 64 * 1024;
  options.max_file_size = 64 * 1024;
  options.level1_max_bytes = 256 * 1024;
  std::unique_ptr<const FilterPolicy> filter(NewBloomFilterPolicy(10));
  options.filter_policy = filter.get();

  DB* raw = nullptr;
  Status s = DB::Open(options, path, &raw);
  if (!s.ok()) {
    std::fprintf(stderr, "open failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::unique_ptr<DB> db(raw);

  if (churn > 0) {
    std::printf("churning %llu records...\n",
                static_cast<unsigned long long>(churn));
    Random rng(7);
    std::string value;
    for (uint64_t i = 0; i < churn; i++) {
      const uint64_t id = rng.Uniform(churn);
      MakeValue(id, i, 200, &value);
      db->Put(WriteOptions(), MakeKey(id), value);
    }
  }

  DBImpl* impl = static_cast<DBImpl*>(db.get());
  VersionSet* versions = impl->TEST_versions();
  const LdcLinkRegistry* registry = versions->registry();

  std::printf("\n=== %s (%s) ===\n", path.c_str(),
              style == CompactionStyle::kUdc ? "UDC" : "LDC");
  std::printf("level summary: %s\n\n", versions->LevelSummary().c_str());

  std::string sstables;
  db->GetProperty("ldc.sstables", &sstables);
  std::printf("%s\n", sstables.c_str());

  if (style == CompactionStyle::kLdc && registry->FrozenFileCount() > 0) {
    std::printf("--- slice links (lower file <- frozen slices, newest "
                "first) ---\n");
    for (const auto& kvp : registry->all_links()) {
      std::printf(" lower %06llu (%d links, %.1f KB linked):\n",
                  static_cast<unsigned long long>(kvp.first),
                  registry->LinkCount(kvp.first),
                  registry->LinkedBytes(kvp.first) / 1024.0);
      for (auto it = kvp.second.rbegin(); it != kvp.second.rend(); ++it) {
        const SliceLinkMeta& link = *it;
        std::printf("   <- frozen %06llu seq=%llu  [%s .. %s]  ~%.1f KB\n",
                    static_cast<unsigned long long>(link.frozen_file_number),
                    static_cast<unsigned long long>(link.link_seq),
                    link.smallest.user_key().ToString().c_str(),
                    link.largest.user_key().ToString().c_str(),
                    link.estimated_bytes / 1024.0);
      }
    }
    std::printf("\ncurrent SliceLink threshold T_s = %d\n",
                impl->EffectiveSliceThreshold());
  }

  std::string value;
  db->GetProperty("ldc.total-bytes", &value);
  std::printf("total stored bytes : %s\n", value.c_str());
  db->GetProperty("ldc.frozen-bytes", &value);
  std::printf("frozen-region bytes: %s\n", value.c_str());
  return 0;
}
