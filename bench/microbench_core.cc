// google-benchmark microbenchmarks for the data-structure layer: varint
// coding, CRC32C, bloom filters, skiplist/memtable, and SSTable block
// build/seek — plus DB-level point reads (BM_DBGet / BM_DBMultiGet) that
// exercise the full lock-free read path at 1 and 8 threads. The
// data-structure ones are sanity checks that the substrate is not the
// bottleneck in the figure harnesses; the DB-level ones are what the CI
// read-scaling smoke gate runs, and the two CRC32C ones feed its CRC gate.

#include <memory>
#include <string>
#include <vector>

#include "benchmark/benchmark.h"
#include "db/dbformat.h"
#include "ldc/db.h"
#include "ldc/env.h"
#include "ldc/comparator.h"
#include "ldc/filter_policy.h"
#include "ldc/options.h"
#include "memtbl/memtable.h"
#include "table/block.h"
#include "table/block_builder.h"
#include "table/table_builder.h"
#include "table/format.h"
#include "util/coding.h"
#include "util/crc32c.h"
#include "util/random.h"
#include "wal/log_writer.h"
#include "workload/key_generator.h"

namespace ldc {
namespace {

void BM_EncodeVarint64(benchmark::State& state) {
  Random rng(42);
  std::vector<uint64_t> values;
  for (int i = 0; i < 1024; i++) values.push_back(rng.Skewed(60));
  char buf[10];
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(EncodeVarint64(buf, values[i++ & 1023]));
  }
}
BENCHMARK(BM_EncodeVarint64);

void RunCrc32c(benchmark::State& state,
               uint32_t (*extend)(uint32_t, const char*, size_t)) {
  std::string data(state.range(0), 'x');
  for (auto _ : state) {
    benchmark::DoNotOptimize(extend(0, data.data(), data.size()));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}

// The dispatched path every caller gets. 300 B is about one WAL record
// (a 16-B key and a 256-B value); 4 KiB is a table block.
void BM_Crc32c(benchmark::State& state) { RunCrc32c(state, crc32c::Extend); }
BENCHMARK(BM_Crc32c)->Arg(300)->Arg(4096)->Arg(65536);

// The byte-table fallback; CI compares it with BM_Crc32c at 4 KiB.
void BM_Crc32cPortable(benchmark::State& state) {
  RunCrc32c(state, crc32c::ExtendPortable);
}
BENCHMARK(BM_Crc32cPortable)->Arg(300)->Arg(4096)->Arg(65536);

void BM_BloomCreateAndQuery(benchmark::State& state) {
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  std::vector<std::string> key_storage;
  std::vector<Slice> keys;
  for (int i = 0; i < 2048; i++) {
    key_storage.push_back(MakeKey(i));
  }
  for (const std::string& k : key_storage) keys.push_back(Slice(k));
  std::string filter;
  policy->CreateFilter(keys.data(), static_cast<int>(keys.size()), &filter);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        policy->KeyMayMatch(keys[i++ & 2047], Slice(filter)));
  }
}
BENCHMARK(BM_BloomCreateAndQuery);

void BM_MemTableInsert(benchmark::State& state) {
  InternalKeyComparator cmp(BytewiseComparator());
  MemTable* mem = new MemTable(cmp);
  mem->Ref();
  Random rng(42);
  std::string value(128, 'v');
  uint64_t seq = 1;
  for (auto _ : state) {
    mem->Add(seq++, kTypeValue, MakeKey(rng.Next()), value);
    if (mem->ApproximateMemoryUsage() > 64 << 20) {
      state.PauseTiming();
      mem->Unref();
      mem = new MemTable(cmp);
      mem->Ref();
      state.ResumeTiming();
    }
  }
  mem->Unref();
}
BENCHMARK(BM_MemTableInsert);

void BM_MemTableGet(benchmark::State& state) {
  InternalKeyComparator cmp(BytewiseComparator());
  MemTable* mem = new MemTable(cmp);
  mem->Ref();
  std::string value(128, 'v');
  for (uint64_t i = 0; i < 100000; i++) {
    mem->Add(i + 1, kTypeValue, MakeKey(i), value);
  }
  Random rng(42);
  std::string result;
  for (auto _ : state) {
    LookupKey key(MakeKey(rng.Uniform(100000)), 1 << 30);
    Status s;
    benchmark::DoNotOptimize(mem->Get(key, &result, &s));
  }
  mem->Unref();
}
BENCHMARK(BM_MemTableGet);

void BM_BlockSeek(benchmark::State& state) {
  Options options;
  BlockBuilder builder(&options);
  std::vector<std::string> keys;
  for (int i = 0; i < 256; i++) keys.push_back(MakeKey(i));
  std::string value(64, 'v');
  for (const std::string& k : keys) builder.Add(k, value);
  Slice raw = builder.Finish();
  BlockContents contents;
  contents.data = raw;
  contents.cachable = false;
  contents.heap_allocated = false;
  Block block(contents);
  std::unique_ptr<Iterator> iter(block.NewIterator(BytewiseComparator()));
  Random rng(42);
  for (auto _ : state) {
    iter->Seek(keys[rng.Uniform(256)]);
    benchmark::DoNotOptimize(iter->Valid());
  }
}
BENCHMARK(BM_BlockSeek);

void BM_WalAppend(benchmark::State& state) {
  std::unique_ptr<Env> env(NewMemEnv());
  WritableFile* file = nullptr;
  env->NewWritableFile("/wal", &file);
  log::Writer writer(file);
  std::string record(state.range(0), 'r');
  for (auto _ : state) {
    benchmark::DoNotOptimize(writer.AddRecord(record).ok());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
  file->Close();
  delete file;
}
BENCHMARK(BM_WalAppend)->Arg(128)->Arg(4096);

void BM_TableBuild(benchmark::State& state) {
  std::unique_ptr<Env> env(NewMemEnv());
  std::unique_ptr<const FilterPolicy> policy(NewBloomFilterPolicy(10));
  Options options;
  options.env = env.get();
  options.filter_policy = policy.get();
  std::vector<std::string> keys;
  const int kEntries = 2000;
  for (int i = 0; i < kEntries; i++) keys.push_back(MakeKey(i));
  std::string value(256, 'v');
  for (auto _ : state) {
    WritableFile* file = nullptr;
    env->NewWritableFile("/table", &file);
    TableBuilder builder(options, file);
    for (const std::string& k : keys) builder.Add(k, value);
    benchmark::DoNotOptimize(builder.Finish().ok());
    file->Close();
    delete file;
  }
  state.SetBytesProcessed(state.iterations() * kEntries *
                          (16 + value.size()));
}
BENCHMARK(BM_TableBuild);

// --- DB-level point reads (lock-free read path) ----------------------------

// One shared read-only DB for every BM_DBGet/BM_DBMultiGet run: in-memory
// files, a preloaded keyspace spanning memtable and several SST levels,
// all background work drained before the first measurement. The magic
// static makes initialization safe when google-benchmark starts 8 threads
// at once.
constexpr int kDBGetKeySpace = 60000;

class ReadBenchDB {
 public:
  ReadBenchDB() : mem_env_(NewMemEnv()) {
    options_.env = mem_env_.get();
    options_.create_if_missing = true;
    options_.filter_policy = filter_policy_.get();
    options_.write_buffer_size = 1 << 20;
    DB* raw = nullptr;
    Status s = DB::Open(options_, "/readbench", &raw);
    if (!s.ok()) std::abort();
    db_.reset(raw);
    const std::string value(128, 'v');
    for (int i = 0; i < kDBGetKeySpace; i++) {
      if (!db_->Put(WriteOptions(), MakeKey(i), value).ok()) std::abort();
    }
    if (!db_->WaitForIdle().ok()) std::abort();
  }

  DB* db() { return db_.get(); }

 private:
  std::unique_ptr<const FilterPolicy> filter_policy_{NewBloomFilterPolicy(10)};
  std::unique_ptr<Env> mem_env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

DB* SharedReadDB() {
  static ReadBenchDB instance;
  return instance.db();
}

void BM_DBGet(benchmark::State& state) {
  DB* db = SharedReadDB();
  Random rng(42 + state.thread_index());
  std::string value;
  for (auto _ : state) {
    Status s =
        db->Get(ReadOptions(), MakeKey(rng.Uniform(kDBGetKeySpace)), &value);
    if (!s.ok()) {
      state.SkipWithError("Get failed");
      break;
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DBGet)->Threads(1)->Threads(8)->UseRealTime();

void BM_DBMultiGet(benchmark::State& state) {
  DB* db = SharedReadDB();
  Random rng(97 + state.thread_index());
  const int batch = static_cast<int>(state.range(0));
  std::vector<std::string> key_storage(batch);
  std::vector<Slice> keys(batch);
  std::vector<std::string> values;
  for (auto _ : state) {
    for (int j = 0; j < batch; j++) {
      key_storage[j] = MakeKey(rng.Uniform(kDBGetKeySpace));
      keys[j] = key_storage[j];
    }
    for (const Status& s : db->MultiGet(ReadOptions(), keys, &values)) {
      if (!s.ok()) {
        state.SkipWithError("MultiGet failed");
        break;
      }
    }
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_DBMultiGet)->Arg(16)->Threads(1)->Threads(8)->UseRealTime();

}  // namespace
}  // namespace ldc
