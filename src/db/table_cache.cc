#include "db/table_cache.h"

#include "db/filename.h"
#include "ldc/env.h"
#include "ldc/options.h"
#include "ldc/trace.h"
#include "util/coding.h"

namespace ldc {

struct TableAndFile {
  RandomAccessFile* file;
  Table* table;
};

static void DeleteEntry(const Slice& /*key*/, void* value) {
  TableAndFile* tf = reinterpret_cast<TableAndFile*>(value);
  delete tf->table;
  delete tf->file;
  delete tf;
}

static void UnrefEntry(void* arg1, void* arg2) {
  Cache* cache = reinterpret_cast<Cache*>(arg1);
  Cache::Handle* h = reinterpret_cast<Cache::Handle*>(arg2);
  cache->Release(h);
}

TableCache::TableCache(const std::string& dbname, const Options& options,
                       int entries)
    : env_(options.env),
      dbname_(dbname),
      options_(options),
      cache_(options.table_handle_cache != nullptr ? options.table_handle_cache
                                                   : NewLRUCache(entries)),
      owns_cache_(options.table_handle_cache == nullptr),
      cache_id_(cache_->NewId()) {}

TableCache::~TableCache() {
  if (owns_cache_) {
    delete cache_;
  } else {
    for (uint64_t file_number : opened_) EraseEntry(file_number);
  }
}

Status TableCache::FindTable(uint64_t file_number, uint64_t file_size,
                             Cache::Handle** handle) {
  Status s;
  char buf[2 * sizeof(file_number)];
  EncodeFixed64(buf, cache_id_);
  EncodeFixed64(buf + sizeof(uint64_t), file_number);
  Slice key(buf, sizeof(buf));
  *handle = cache_->Lookup(key);
  if (*handle == nullptr) {
    std::string fname = TableFileName(dbname_, file_number);
    // Cache-miss loads are the expensive path worth a timeline entry;
    // cache hits stay trace-free.
    TraceSpan span(options_.tracer, TraceCat::kIo, "table.open");
    span.SetArg1("file", file_number);
    RandomAccessFile* file = nullptr;
    Table* table = nullptr;
    s = env_->NewRandomAccessFile(fname, &file);
    if (s.ok()) {
      s = Table::Open(options_, file, file_size, &table);
    }
    if (s.ok()) {
      table->SetFileNumber(file_number);
    }

    if (!s.ok()) {
      assert(table == nullptr);
      delete file;
      // We do not cache error results so that if the error is transient,
      // or somebody repairs the file, we recover automatically.
    } else {
      TableAndFile* tf = new TableAndFile;
      tf->file = file;
      tf->table = table;
      *handle = cache_->Insert(key, tf, 1, &DeleteEntry);
      if (!owns_cache_) {
        std::lock_guard<std::mutex> l(opened_mu_);
        opened_.insert(file_number);
      }
    }
  }
  return s;
}

Iterator* TableCache::NewIterator(const ReadOptions& options,
                                  uint64_t file_number, uint64_t file_size,
                                  Table** tableptr) {
  if (tableptr != nullptr) {
    *tableptr = nullptr;
  }

  Cache::Handle* handle = nullptr;
  Status s = FindTable(file_number, file_size, &handle);
  if (!s.ok()) {
    return NewErrorIterator(s);
  }

  Table* table = reinterpret_cast<TableAndFile*>(cache_->Value(handle))->table;
  Iterator* result = table->NewIterator(options);
  result->RegisterCleanup(&UnrefEntry, cache_, handle);
  if (tableptr != nullptr) {
    *tableptr = table;
  }
  return result;
}

Status TableCache::PinTable(uint64_t file_number, uint64_t file_size,
                            Cache::Handle** handle) {
  *handle = nullptr;
  return FindTable(file_number, file_size, handle);
}

bool TableCache::PinnedKeyMayMatch(Cache::Handle* handle, const Slice& k) {
  Table* t = reinterpret_cast<TableAndFile*>(cache_->Value(handle))->table;
  return t->KeyMayMatch(k);
}

Status TableCache::PinnedGet(const ReadOptions& options, Cache::Handle* handle,
                             const Slice& k, void* arg,
                             void (*handle_result)(void*, const Slice&,
                                                   const Slice&)) {
  Table* t = reinterpret_cast<TableAndFile*>(cache_->Value(handle))->table;
  return t->InternalGet(options, k, arg, handle_result);
}

void TableCache::Unpin(Cache::Handle* handle) { cache_->Release(handle); }

Status TableCache::WarmTable(uint64_t file_number, uint64_t file_size) {
  ReadOptions options;
  options.fill_cache = true;
  Iterator* iter = NewIterator(options, file_number, file_size);
  for (iter->SeekToFirst(); iter->Valid(); iter->Next()) {
  }
  Status s = iter->status();
  delete iter;
  return s;
}

void TableCache::Evict(uint64_t file_number) {
  if (!owns_cache_) {
    std::lock_guard<std::mutex> l(opened_mu_);
    opened_.erase(file_number);
  }
  EraseEntry(file_number);
}

void TableCache::EraseEntry(uint64_t file_number) {
  char buf[2 * sizeof(file_number)];
  EncodeFixed64(buf, cache_id_);
  EncodeFixed64(buf + sizeof(uint64_t), file_number);
  cache_->Erase(Slice(buf, sizeof(buf)));
}

}  // namespace ldc
