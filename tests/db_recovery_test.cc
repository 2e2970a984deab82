// Recovery and failure-handling tests: WAL replay, manifest corruption,
// missing files, CURRENT handling, and DestroyDB.

#include <map>
#include <memory>

#include "gtest/gtest.h"
#include "db/filename.h"
#include "ldc/db.h"
#include "ldc/env.h"
#include "util/random.h"
#include "workload/key_generator.h"

namespace ldc {

class DBRecoveryTest : public testing::TestWithParam<CompactionStyle> {
 protected:
  DBRecoveryTest() : env_(NewMemEnv()) {
    options_.env = env_.get();
    options_.create_if_missing = true;
    options_.compaction_style = GetParam();
    options_.write_buffer_size = 16 * 1024;
    options_.max_file_size = 16 * 1024;
    options_.level1_max_bytes = 64 * 1024;
    DestroyDB("/db", options_);
    Open();
  }

  void Open() {
    DB* raw = nullptr;
    Status s = DB::Open(options_, "/db", &raw);
    ASSERT_TRUE(s.ok()) << s.ToString();
    db_.reset(raw);
  }

  Status TryOpen() {
    db_.reset();
    DB* raw = nullptr;
    Status s = DB::Open(options_, "/db", &raw);
    db_.reset(raw);
    return s;
  }

  void Close() { db_.reset(); }

  // Corrupts `byte_count` bytes in the middle of the named file.
  void CorruptFile(const std::string& fname, int byte_count = 16) {
    std::string contents;
    ASSERT_TRUE(ReadFileToString(env_.get(), fname, &contents).ok());
    ASSERT_GT(contents.size(), 0u);
    const size_t start = contents.size() / 2;
    for (int i = 0; i < byte_count && start + i < contents.size(); i++) {
      contents[start + i] ^= 0x5a;
    }
    WritableFile* f = nullptr;
    ASSERT_TRUE(env_->NewWritableFile(fname, &f).ok());
    ASSERT_TRUE(f->Append(contents).ok());
    ASSERT_TRUE(f->Close().ok());
    delete f;
  }

  std::vector<std::string> FilesOfType(FileType wanted) {
    std::vector<std::string> children, result;
    env_->GetChildren("/db", &children);
    uint64_t number;
    FileType type;
    for (const std::string& child : children) {
      if (ParseFileName(child, &number, &type) && type == wanted) {
        result.push_back("/db/" + child);
      }
    }
    return result;
  }

  std::unique_ptr<Env> env_;
  Options options_;
  std::unique_ptr<DB> db_;
};

TEST_P(DBRecoveryTest, WalOnlyDataSurvivesRestart) {
  // Nothing flushed: everything lives in the WAL.
  for (int i = 0; i < 50; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), MakeKey(i), "v" + std::to_string(i)).ok());
  }
  Close();
  Open();
  for (int i = 0; i < 50; i++) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), MakeKey(i), &value).ok()) << i;
    EXPECT_EQ("v" + std::to_string(i), value);
  }
}

TEST_P(DBRecoveryTest, LargeStateSurvivesRestart) {
  std::map<std::string, std::string> model;
  Random rng(3);
  std::string value;
  for (int i = 0; i < 5000; i++) {
    const uint64_t id = rng.Uniform(900);
    MakeValue(id, i, 120, &value);
    ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(id), value).ok());
    model[MakeKey(id)] = value;
  }
  Close();
  Open();
  for (const auto& kvp : model) {
    std::string found;
    ASSERT_TRUE(db_->Get(ReadOptions(), kvp.first, &found).ok()) << kvp.first;
    EXPECT_EQ(kvp.second, found);
  }
}

TEST_P(DBRecoveryTest, RepeatedRestartsAreIdempotent) {
  for (int round = 0; round < 5; round++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(round),
                         "round" + std::to_string(round))
                    .ok());
    Close();
    Open();
  }
  for (int round = 0; round < 5; round++) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), MakeKey(round), &value).ok());
    EXPECT_EQ("round" + std::to_string(round), value);
  }
}

TEST_P(DBRecoveryTest, TruncatedWalTailLosesOnlyTail) {
  ASSERT_TRUE(db_->Put(WriteOptions(), "k1", "v1").ok());
  ASSERT_TRUE(db_->Put(WriteOptions(), "k2", "v2").ok());
  Close();

  // Truncate a few bytes off the live WAL: the torn record is dropped, the
  // earlier one survives.
  std::vector<std::string> logs = FilesOfType(kLogFile);
  ASSERT_FALSE(logs.empty());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_.get(), logs.back(), &contents).ok());
  contents.resize(contents.size() - 3);
  WritableFile* f = nullptr;
  ASSERT_TRUE(env_->NewWritableFile(logs.back(), &f).ok());
  ASSERT_TRUE(f->Append(contents).ok());
  f->Close();
  delete f;

  Open();
  std::string value;
  ASSERT_TRUE(db_->Get(ReadOptions(), "k1", &value).ok());
  EXPECT_EQ("v1", value);
  EXPECT_TRUE(db_->Get(ReadOptions(), "k2", &value).IsNotFound());
}

TEST_P(DBRecoveryTest, MissingCurrentFailsWithoutCreateIfMissing) {
  Close();
  ASSERT_TRUE(env_->RemoveFile(CurrentFileName("/db")).ok());
  options_.create_if_missing = false;
  Status s = TryOpen();
  EXPECT_FALSE(s.ok());
  options_.create_if_missing = true;
}

TEST_P(DBRecoveryTest, CorruptManifestFailsOpen) {
  for (int i = 0; i < 2000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(i % 300),
                         std::string(100, 'v'))
                    .ok());
  }
  Close();
  std::vector<std::string> manifests = FilesOfType(kDescriptorFile);
  ASSERT_FALSE(manifests.empty());
  CorruptFile(manifests.back());
  Status s = TryOpen();
  EXPECT_FALSE(s.ok());
}

TEST_P(DBRecoveryTest, MissingTableFileFailsOpen) {
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(i % 500),
                         std::string(100, 'v'))
                    .ok());
  }
  ASSERT_TRUE(db_->WaitForIdle().ok());
  Close();
  std::vector<std::string> tables = FilesOfType(kTableFile);
  ASSERT_FALSE(tables.empty());
  ASSERT_TRUE(env_->RemoveFile(tables.front()).ok());
  Status s = TryOpen();
  EXPECT_FALSE(s.ok());
  EXPECT_NE(std::string::npos, s.ToString().find("missing files"));
}

TEST_P(DBRecoveryTest, ErrorIfExists) {
  Close();
  options_.error_if_exists = true;
  Status s = TryOpen();
  EXPECT_TRUE(s.IsInvalidArgument());
  options_.error_if_exists = false;
}

TEST_P(DBRecoveryTest, LockPreventsSecondInstance) {
  DB* second = nullptr;
  Status s = DB::Open(options_, "/db", &second);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(nullptr, second);
}

TEST_P(DBRecoveryTest, DestroyRemovesEverything) {
  ASSERT_TRUE(db_->Put(WriteOptions(), "k", "v").ok());
  Close();
  ASSERT_TRUE(DestroyDB("/db", options_).ok());
  std::vector<std::string> children;
  env_->GetChildren("/db", &children);
  EXPECT_TRUE(children.empty());
  options_.create_if_missing = false;
  EXPECT_FALSE(TryOpen().ok());
  options_.create_if_missing = true;
}

TEST_P(DBRecoveryTest, CorruptTableDetectedWithParanoidReads) {
  for (int i = 0; i < 3000; i++) {
    ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(i % 500),
                         std::string(100, 'v'))
                    .ok());
  }
  ASSERT_TRUE(db_->WaitForIdle().ok());
  Close();
  std::vector<std::string> tables = FilesOfType(kTableFile);
  ASSERT_FALSE(tables.empty());
  // Corrupt data-block bytes in every table (older tables may be fully
  // shadowed by newer versions and never consulted).
  for (const std::string& table : tables) {
    CorruptFile(table, 64);
  }
  Open();

  ReadOptions paranoid;
  paranoid.verify_checksums = true;
  int errors = 0;
  for (int i = 0; i < 500; i++) {
    std::string value;
    Status s = db_->Get(paranoid, MakeKey(i), &value);
    if (s.IsCorruption()) errors++;
  }
  EXPECT_GT(errors, 0);
}

TEST_P(DBRecoveryTest, RepairAfterManifestLoss) {
  std::map<std::string, std::string> model;
  Random rng(5);
  std::string value;
  for (int i = 0; i < 4000; i++) {
    const uint64_t id = rng.Uniform(700);
    MakeValue(id, i, 100, &value);
    ASSERT_TRUE(db_->Put(WriteOptions(), MakeKey(id), value).ok());
    model[MakeKey(id)] = value;
  }
  Close();

  // Simulate losing the metadata entirely.
  for (const std::string& manifest : FilesOfType(kDescriptorFile)) {
    ASSERT_TRUE(env_->RemoveFile(manifest).ok());
  }
  ASSERT_TRUE(env_->RemoveFile(CurrentFileName("/db")).ok());
  {
    options_.create_if_missing = false;
    Status s = TryOpen();
    ASSERT_FALSE(s.ok());
    options_.create_if_missing = true;
  }

  db_.reset();
  ASSERT_TRUE(RepairDB("/db", options_).ok());
  Open();
  for (const auto& kvp : model) {
    std::string found;
    ASSERT_TRUE(db_->Get(ReadOptions(), kvp.first, &found).ok()) << kvp.first;
    EXPECT_EQ(kvp.second, found) << kvp.first;
  }
}

TEST_P(DBRecoveryTest, RepairRecoversWalOnlyData) {
  // Data that never left the WAL must be converted into tables by repair.
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), MakeKey(i), "wal" + std::to_string(i)).ok());
  }
  Close();
  for (const std::string& manifest : FilesOfType(kDescriptorFile)) {
    ASSERT_TRUE(env_->RemoveFile(manifest).ok());
  }
  ASSERT_TRUE(env_->RemoveFile(CurrentFileName("/db")).ok());

  db_.reset();
  ASSERT_TRUE(RepairDB("/db", options_).ok());
  Open();
  for (int i = 0; i < 30; i++) {
    std::string value;
    ASSERT_TRUE(db_->Get(ReadOptions(), MakeKey(i), &value).ok()) << i;
    EXPECT_EQ("wal" + std::to_string(i), value);
  }
}

TEST_P(DBRecoveryTest, RepairDropsCorruptWalRecords) {
  // Repair must checksum WAL records: a record with a flipped value byte is
  // dropped, never converted into a table with the wrong value.
  for (int i = 0; i < 30; i++) {
    ASSERT_TRUE(
        db_->Put(WriteOptions(), MakeKey(i), "wal" + std::to_string(i)).ok());
  }
  Close();
  std::vector<std::string> logs = FilesOfType(kLogFile);
  ASSERT_EQ(1u, logs.size());
  std::string contents;
  ASSERT_TRUE(ReadFileToString(env_.get(), logs[0], &contents).ok());
  // The value's length prefix makes the match unique ("wal1" has 4 bytes).
  const size_t pos = contents.find("\x05wal15");
  ASSERT_NE(std::string::npos, pos);
  contents[pos + 4] = '0';  // "wal15" -> "wal05"
  ASSERT_TRUE(WriteStringToFile(env_.get(), contents, logs[0]).ok());

  db_.reset();
  ASSERT_TRUE(RepairDB("/db", options_).ok());
  Open();
  int found = 0;
  for (int i = 0; i < 30; i++) {
    std::string value;
    Status s = db_->Get(ReadOptions(), MakeKey(i), &value);
    if (s.ok()) {
      found++;
      EXPECT_EQ("wal" + std::to_string(i), value) << i;
    } else {
      EXPECT_TRUE(s.IsNotFound()) << i << ": " << s.ToString();
    }
  }
  // The records before the corrupt one are intact and must survive.
  EXPECT_GE(found, 15);
}

INSTANTIATE_TEST_SUITE_P(Styles, DBRecoveryTest,
                         testing::Values(CompactionStyle::kUdc,
                                         CompactionStyle::kLdc),
                         [](const testing::TestParamInfo<CompactionStyle>& i) {
                           return i.param == CompactionStyle::kUdc
                                      ? std::string("Udc")
                                      : std::string("Ldc");
                         });

}  // namespace ldc
