// Tests for the SSTable layer: block builder/reader, filter blocks, the
// table builder/reader roundtrip, and the merging iterator.

#include "table/table.h"

#include <map>
#include <memory>
#include <string>

#include "gtest/gtest.h"
#include "ldc/cache.h"
#include "ldc/comparator.h"
#include "ldc/env.h"
#include "ldc/filter_policy.h"
#include "ldc/iterator.h"
#include "ldc/options.h"
#include "table/block.h"
#include "table/block_builder.h"
#include "table/filter_block.h"
#include "table/format.h"
#include "table/merger.h"
#include "table/table_builder.h"
#include "util/coding.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/random.h"

namespace ldc {

namespace {

std::string RandomValue(Random* rnd, int len) {
  std::string v;
  for (int i = 0; i < len; i++) {
    v.push_back(static_cast<char>(' ' + rnd->Uniform(95)));
  }
  return v;
}

}  // namespace

// ---- Block ----------------------------------------------------------------

TEST(BlockTest, EmptyBuilderYieldsEmptyIterator) {
  Options options;
  BlockBuilder builder(&options);
  Slice raw = builder.Finish();
  std::string copy = raw.ToString();
  BlockContents contents;
  contents.data = Slice(copy);
  contents.cachable = false;
  contents.heap_allocated = false;
  Block block(contents);
  std::unique_ptr<Iterator> iter(block.NewIterator(BytewiseComparator()));
  iter->SeekToFirst();
  EXPECT_FALSE(iter->Valid());
}

TEST(BlockTest, RoundtripAndSeek) {
  Options options;
  options.block_restart_interval = 3;  // Exercise restart handling.
  BlockBuilder builder(&options);
  std::map<std::string, std::string> model;
  for (int i = 0; i < 200; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "key%06d", i * 2);  // Even keys only.
    std::string value = "value" + std::to_string(i);
    builder.Add(key, value);
    model[key] = value;
  }
  Slice raw = builder.Finish();
  std::string copy = raw.ToString();
  BlockContents contents;
  contents.data = Slice(copy);
  contents.cachable = false;
  contents.heap_allocated = false;
  Block block(contents);
  std::unique_ptr<Iterator> iter(block.NewIterator(BytewiseComparator()));

  // Full forward iteration matches the model.
  auto mit = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_TRUE(mit != model.end());
    EXPECT_EQ(mit->first, iter->key().ToString());
    EXPECT_EQ(mit->second, iter->value().ToString());
  }
  EXPECT_TRUE(mit == model.end());

  // Seeks to present and absent keys.
  iter->Seek("key000100");  // Present (i=50).
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key000100", iter->key().ToString());

  iter->Seek("key000101");  // Absent: lands on next even key.
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("key000102", iter->key().ToString());

  iter->Seek("zzz");
  EXPECT_FALSE(iter->Valid());

  // Backward iteration.
  iter->SeekToLast();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ(model.rbegin()->first, iter->key().ToString());
  iter->Prev();
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ((++model.rbegin())->first, iter->key().ToString());
}

// ---- Filter block ----------------------------------------------------------

namespace {

// For testing: emit an array with one hash value per key
class TestHashFilter : public FilterPolicy {
 public:
  const char* Name() const override { return "TestHashFilter"; }

  void CreateFilter(const Slice* keys, int n, std::string* dst) const override {
    for (int i = 0; i < n; i++) {
      uint32_t h = Hash(keys[i].data(), keys[i].size(), 1);
      PutFixed32(dst, h);
    }
  }

  bool KeyMayMatch(const Slice& key, const Slice& filter) const override {
    uint32_t h = Hash(key.data(), key.size(), 1);
    for (size_t i = 0; i + 4 <= filter.size(); i += 4) {
      if (h == DecodeFixed32(filter.data() + i)) {
        return true;
      }
    }
    return false;
  }
};

}  // namespace

class FilterBlockTest : public testing::Test {
 public:
  TestHashFilter policy_;
};

TEST_F(FilterBlockTest, EmptyBuilder) {
  FilterBlockBuilder builder(&policy_);
  Slice block = builder.Finish();
  ASSERT_EQ("\\x00\\x00\\x00\\x00\\x0b", EscapeString(block));
  FilterBlockReader reader(&policy_, block);
  ASSERT_TRUE(reader.KeyMayMatch(0, "foo"));
  ASSERT_TRUE(reader.KeyMayMatch(100000, "foo"));
}

TEST_F(FilterBlockTest, SingleChunk) {
  FilterBlockBuilder builder(&policy_);
  builder.StartBlock(100);
  builder.AddKey("foo");
  builder.AddKey("bar");
  builder.AddKey("box");
  builder.StartBlock(200);
  builder.AddKey("box");
  builder.StartBlock(300);
  builder.AddKey("hello");
  Slice block = builder.Finish();
  FilterBlockReader reader(&policy_, block);
  ASSERT_TRUE(reader.KeyMayMatch(100, "foo"));
  ASSERT_TRUE(reader.KeyMayMatch(100, "bar"));
  ASSERT_TRUE(reader.KeyMayMatch(100, "box"));
  ASSERT_TRUE(reader.KeyMayMatch(100, "hello"));
  ASSERT_TRUE(reader.KeyMayMatch(100, "foo"));
  ASSERT_TRUE(!reader.KeyMayMatch(100, "missing"));
  ASSERT_TRUE(!reader.KeyMayMatch(100, "other"));
}

TEST_F(FilterBlockTest, MultiChunk) {
  FilterBlockBuilder builder(&policy_);

  // First filter
  builder.StartBlock(0);
  builder.AddKey("foo");
  builder.StartBlock(2000);
  builder.AddKey("bar");

  // Second filter
  builder.StartBlock(3100);
  builder.AddKey("box");

  // Third filter is empty

  // Last filter
  builder.StartBlock(9000);
  builder.AddKey("box");
  builder.AddKey("hello");

  Slice block = builder.Finish();
  FilterBlockReader reader(&policy_, block);

  // Check first filter
  ASSERT_TRUE(reader.KeyMayMatch(0, "foo"));
  ASSERT_TRUE(reader.KeyMayMatch(2000, "bar"));
  ASSERT_TRUE(!reader.KeyMayMatch(0, "box"));
  ASSERT_TRUE(!reader.KeyMayMatch(0, "hello"));

  // Check second filter
  ASSERT_TRUE(reader.KeyMayMatch(3100, "box"));
  ASSERT_TRUE(!reader.KeyMayMatch(3100, "foo"));
  ASSERT_TRUE(!reader.KeyMayMatch(3100, "bar"));
  ASSERT_TRUE(!reader.KeyMayMatch(3100, "hello"));

  // Check third filter (empty)
  ASSERT_TRUE(!reader.KeyMayMatch(4100, "foo"));
  ASSERT_TRUE(!reader.KeyMayMatch(4100, "bar"));
  ASSERT_TRUE(!reader.KeyMayMatch(4100, "box"));
  ASSERT_TRUE(!reader.KeyMayMatch(4100, "hello"));

  // Check last filter
  ASSERT_TRUE(reader.KeyMayMatch(9000, "box"));
  ASSERT_TRUE(reader.KeyMayMatch(9000, "hello"));
  ASSERT_TRUE(!reader.KeyMayMatch(9000, "foo"));
  ASSERT_TRUE(!reader.KeyMayMatch(9000, "bar"));
}

// ---- BlockHandle / Footer ----------------------------------------------

TEST(FormatTest2, BlockHandleRoundtrip) {
  BlockHandle handle;
  handle.set_offset(123456789);
  handle.set_size(987654);
  std::string encoded;
  handle.EncodeTo(&encoded);
  BlockHandle decoded;
  Slice input(encoded);
  ASSERT_TRUE(decoded.DecodeFrom(&input).ok());
  EXPECT_EQ(123456789u, decoded.offset());
  EXPECT_EQ(987654u, decoded.size());
}

TEST(FormatTest2, FooterRoundtrip) {
  Footer footer;
  BlockHandle meta, index;
  meta.set_offset(1000);
  meta.set_size(200);
  index.set_offset(1200);
  index.set_size(300);
  footer.set_metaindex_handle(meta);
  footer.set_index_handle(index);
  std::string encoded;
  footer.EncodeTo(&encoded);
  EXPECT_EQ(static_cast<size_t>(Footer::kEncodedLength), encoded.size());

  Footer decoded;
  Slice input(encoded);
  ASSERT_TRUE(decoded.DecodeFrom(&input).ok());
  EXPECT_EQ(1000u, decoded.metaindex_handle().offset());
  EXPECT_EQ(300u, decoded.index_handle().size());
}

TEST(FormatTest2, FooterRejectsBadMagic) {
  Footer footer;
  BlockHandle handle;
  handle.set_offset(0);
  handle.set_size(0);
  footer.set_metaindex_handle(handle);
  footer.set_index_handle(handle);
  std::string encoded;
  footer.EncodeTo(&encoded);
  encoded[encoded.size() - 1] ^= 0xff;
  Footer decoded;
  Slice input(encoded);
  EXPECT_TRUE(decoded.DecodeFrom(&input).IsCorruption());
}

// ---- Table ------------------------------------------------------------

class TableRoundtripTest : public testing::Test {
 protected:
  TableRoundtripTest() : env_(NewMemEnv()) {
    options_.env = env_.get();
    options_.block_size = 1024;
    filter_policy_.reset(NewBloomFilterPolicy(10));
  }

  void Build(const std::map<std::string, std::string>& model,
             bool with_filter) {
    options_.filter_policy = with_filter ? filter_policy_.get() : nullptr;
    WritableFile* file = nullptr;
    ASSERT_TRUE(env_->NewWritableFile("/table", &file).ok());
    TableBuilder builder(options_, file);
    for (const auto& kvp : model) {
      builder.Add(kvp.first, kvp.second);
    }
    ASSERT_TRUE(builder.Finish().ok());
    file_size_ = builder.FileSize();
    EXPECT_EQ(model.size(), builder.NumEntries());
    file->Close();
    delete file;

    ASSERT_TRUE(env_->NewRandomAccessFile("/table", &raf_).ok());
    Table* table = nullptr;
    ASSERT_TRUE(Table::Open(options_, raf_, file_size_, &table).ok());
    table_.reset(table);
  }

  ~TableRoundtripTest() override {
    table_.reset();
    delete raf_;
  }

  std::unique_ptr<Env> env_;
  std::unique_ptr<Cache> block_cache_;  // Outlives table_.
  Options options_;
  std::unique_ptr<const FilterPolicy> filter_policy_;
  RandomAccessFile* raf_ = nullptr;
  std::unique_ptr<Table> table_;
  uint64_t file_size_ = 0;
};

TEST_F(TableRoundtripTest, IterateMatchesModel) {
  std::map<std::string, std::string> model;
  Random rnd(17);
  for (int i = 0; i < 1000; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%07d", i);
    model[key] = RandomValue(&rnd, 50);
  }
  Build(model, /*with_filter=*/true);

  std::unique_ptr<Iterator> iter(table_->NewIterator(ReadOptions()));
  auto mit = model.begin();
  for (iter->SeekToFirst(); iter->Valid(); iter->Next(), ++mit) {
    ASSERT_TRUE(mit != model.end());
    EXPECT_EQ(mit->first, iter->key().ToString());
    EXPECT_EQ(mit->second, iter->value().ToString());
  }
  EXPECT_TRUE(mit == model.end());
  EXPECT_TRUE(iter->status().ok());
}

TEST_F(TableRoundtripTest, SeekBehaviour) {
  std::map<std::string, std::string> model;
  for (int i = 0; i < 100; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%03d", i * 10);
    model[key] = "v" + std::to_string(i);
  }
  Build(model, /*with_filter=*/false);

  std::unique_ptr<Iterator> iter(table_->NewIterator(ReadOptions()));
  iter->Seek("k005");  // Between k000 and k010.
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("k010", iter->key().ToString());
  iter->Seek("k990");
  ASSERT_TRUE(iter->Valid());
  EXPECT_EQ("k990", iter->key().ToString());
  iter->Seek("k991");
  EXPECT_FALSE(iter->Valid());
}

TEST_F(TableRoundtripTest, ApproximateOffsetMonotonic) {
  std::map<std::string, std::string> model;
  Random rnd(9);
  for (int i = 0; i < 500; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%07d", i);
    model[key] = RandomValue(&rnd, 200);
  }
  Build(model, /*with_filter=*/false);

  uint64_t prev = 0;
  for (int i = 0; i < 500; i += 50) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%07d", i);
    uint64_t offset = table_->ApproximateOffsetOf(key);
    EXPECT_GE(offset, prev);
    prev = offset;
  }
  EXPECT_LE(prev, file_size_);
  // Past-the-end key approximates the file end.
  EXPECT_GT(table_->ApproximateOffsetOf("z"), file_size_ / 2);
}

// A table's cache_id dies with it, so a deleted table must take its blocks
// out of the block cache; another owner's entries stay.
TEST_F(TableRoundtripTest, DeletedTableErasesItsBlocksFromBlockCache) {
  block_cache_.reset(NewLRUCache(1 << 20));
  options_.block_cache = block_cache_.get();
  block_cache_->Release(block_cache_->Insert(
      "other-owner", nullptr, 100, [](const Slice&, void*) {}));
  const size_t before = block_cache_->TotalCharge();
  ASSERT_EQ(100u, before);

  std::map<std::string, std::string> model;
  Random rnd(5);
  for (int i = 0; i < 300; i++) {
    char key[16];
    std::snprintf(key, sizeof(key), "k%07d", i);
    model[key] = RandomValue(&rnd, 100);
  }
  Build(model, /*with_filter=*/true);
  {
    std::unique_ptr<Iterator> iter(table_->NewIterator(ReadOptions()));
    int entries = 0;
    for (iter->SeekToFirst(); iter->Valid(); iter->Next()) entries++;
    ASSERT_TRUE(iter->status().ok());
    ASSERT_EQ(300, entries);
  }
  // Every one of the ~30 data blocks is cached.
  ASSERT_GT(block_cache_->TotalCharge(), before + 20 * 1000);

  table_.reset();
  EXPECT_EQ(before, block_cache_->TotalCharge());
}

TEST_F(TableRoundtripTest, OpenRejectsTruncatedFile) {
  std::map<std::string, std::string> model = {{"a", "1"}};
  Build(model, false);
  Table* table = nullptr;
  EXPECT_TRUE(
      Table::Open(options_, raf_, Footer::kEncodedLength - 1, &table)
          .IsCorruption());
  EXPECT_EQ(nullptr, table);
}

// ---- Merging iterator ---------------------------------------------------

namespace {

// An iterator over an in-memory sorted map, for merger tests.
class VectorIterator : public Iterator {
 public:
  explicit VectorIterator(std::vector<std::pair<std::string, std::string>> kv)
      : kv_(std::move(kv)), index_(kv_.size()) {}
  bool Valid() const override { return index_ < kv_.size(); }
  void SeekToFirst() override { index_ = 0; }
  void SeekToLast() override { index_ = kv_.empty() ? 0 : kv_.size() - 1; }
  void Seek(const Slice& target) override {
    index_ = 0;
    while (index_ < kv_.size() && Slice(kv_[index_].first).compare(target) < 0)
      index_++;
  }
  void Next() override { index_++; }
  void Prev() override {
    if (index_ == 0) {
      index_ = kv_.size();
    } else {
      index_--;
    }
  }
  Slice key() const override { return kv_[index_].first; }
  Slice value() const override { return kv_[index_].second; }
  Status status() const override { return Status::OK(); }

 private:
  std::vector<std::pair<std::string, std::string>> kv_;
  size_t index_;
};

}  // namespace

TEST(MergerTest, MergesSortedSources) {
  Iterator* children[3];
  children[0] = new VectorIterator({{"a", "1"}, {"d", "4"}, {"g", "7"}});
  children[1] = new VectorIterator({{"b", "2"}, {"e", "5"}});
  children[2] = new VectorIterator({{"c", "3"}, {"f", "6"}, {"h", "8"}});
  std::unique_ptr<Iterator> merged(
      NewMergingIterator(BytewiseComparator(), children, 3));

  std::string keys, values;
  for (merged->SeekToFirst(); merged->Valid(); merged->Next()) {
    keys += merged->key().ToString();
    values += merged->value().ToString();
  }
  EXPECT_EQ("abcdefgh", keys);
  EXPECT_EQ("12345678", values);

  merged->Seek("e");
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("e", merged->key().ToString());

  merged->SeekToLast();
  ASSERT_TRUE(merged->Valid());
  EXPECT_EQ("h", merged->key().ToString());
  merged->Prev();
  EXPECT_EQ("g", merged->key().ToString());
}

TEST(MergerTest, EmptyAndSingle) {
  std::unique_ptr<Iterator> empty(
      NewMergingIterator(BytewiseComparator(), nullptr, 0));
  empty->SeekToFirst();
  EXPECT_FALSE(empty->Valid());

  std::vector<std::pair<std::string, std::string>> single_kv = {{"x", "1"}};
  Iterator* one[1] = {new VectorIterator(single_kv)};
  std::unique_ptr<Iterator> single(
      NewMergingIterator(BytewiseComparator(), one, 1));
  single->SeekToFirst();
  ASSERT_TRUE(single->Valid());
  EXPECT_EQ("x", single->key().ToString());
}

}  // namespace ldc
