// Thread-safe (provides internal synchronization)

#ifndef LDC_DB_TABLE_CACHE_H_
#define LDC_DB_TABLE_CACHE_H_

#include <cstdint>
#include <mutex>
#include <set>
#include <string>

#include "db/dbformat.h"
#include "ldc/cache.h"
#include "table/table.h"

namespace ldc {

class Env;

class TableCache {
 public:
  // When options.table_handle_cache is non-null the handles live in that
  // shared cache (one open-file budget across several DBs — ShardedDB
  // injects one cache into all shards); otherwise a private LRU cache of
  // "entries" slots is created. Either way this instance's keys are
  // prefixed with a unique Cache::NewId(), so shared-cache users never
  // collide on equal file numbers.
  TableCache(const std::string& dbname, const Options& options, int entries);

  TableCache(const TableCache&) = delete;
  TableCache& operator=(const TableCache&) = delete;

  // Erases this instance's entries from a shared cache, so no handle
  // outlives the DB: a dying Table erases its blocks from
  // options.block_cache, which the DB may own and delete next.
  ~TableCache();

  // Return an iterator for the specified file number (the corresponding
  // file length must be exactly "file_size" bytes). If "tableptr" is
  // non-null, also sets "*tableptr" to point to the Table object
  // underlying the returned iterator, or to nullptr if no Table object
  // underlies the returned iterator. The returned "*tableptr" object is owned
  // by the cache and should not be deleted, and is valid for as long as the
  // returned iterator is live.
  Iterator* NewIterator(const ReadOptions& options, uint64_t file_number,
                        uint64_t file_size, Table** tableptr = nullptr);

  // --- Pinned-handle point lookups (Get and MultiGet) ---
  //
  // A lookup batch probing several keys in the same table pays the
  // cache hash lookup once: PinTable resolves the handle, the Pinned*
  // calls reuse it, and Unpin releases it. The handle pins the open
  // table (and its file) for exactly that window.

  // Resolve (opening if needed) the table for file_number and return its
  // pinned cache handle in *handle. On error *handle is null.
  Status PinTable(uint64_t file_number, uint64_t file_size,
                  Cache::Handle** handle);

  // Returns false iff the pinned table's filter guarantees internal key
  // "k" is absent, touching only the cached index/filter blocks (no
  // data-block I/O).
  bool PinnedKeyMayMatch(Cache::Handle* handle, const Slice& k);

  // If a seek to internal key "k" in the pinned table finds an entry, call
  // (*handle_result)(arg, found_key, found_value). Does not consult the
  // filter: callers screen "k" with PinnedKeyMayMatch first.
  Status PinnedGet(const ReadOptions& options, Cache::Handle* handle,
                   const Slice& k, void* arg,
                   void (*handle_result)(void*, const Slice&, const Slice&));

  // Release a handle returned by PinTable.
  void Unpin(Cache::Handle* handle);

  // Evict any entry for the specified file number
  void Evict(uint64_t file_number);

  // Opens the file and reads every data block, loading each into the
  // block cache if there is one. Called for freshly written tables: on a
  // real system their pages are still in the OS page cache after the
  // write, so immediate reads do not hit the device. Returns the status of
  // opening and reading the table, so the warm doubles as the check that a
  // new output is usable.
  Status WarmTable(uint64_t file_number, uint64_t file_size);

 private:
  Status FindTable(uint64_t file_number, uint64_t file_size, Cache::Handle**);
  void EraseEntry(uint64_t file_number);

  Env* const env_;
  const std::string dbname_;
  const Options& options_;
  Cache* cache_;
  const bool owns_cache_;   // false when options.table_handle_cache is used
  const uint64_t cache_id_;  // key prefix within (possibly shared) cache_

  // Files this instance has opened into a shared cache_ and not evicted;
  // empty when owns_cache_.
  std::mutex opened_mu_;
  std::set<uint64_t> opened_;
};

}  // namespace ldc

#endif  // LDC_DB_TABLE_CACHE_H_
