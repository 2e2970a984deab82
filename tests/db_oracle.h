// Differential read oracle for DB tests: checks every read API against a
// shadow map of what the DB should hold. One call covers Get, MultiGet, a
// full forward scan, a full reverse scan, and Seek at random keys followed
// by a few Next/Prev steps. Each check returns the first disagreement as a
// gtest assertion failure, so a caller writes
//
//   ASSERT_TRUE(oracle::CheckReads(db, shadow, probes, seed));
//
// `probes` are the user keys to look up; include deleted and never-written
// keys so that absent keys are checked too. Seek targets are drawn from it.

#ifndef LDC_TESTS_DB_ORACLE_H_
#define LDC_TESTS_DB_ORACLE_H_

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "ldc/db.h"
#include "ldc/iterator.h"
#include "util/random.h"

namespace ldc {
namespace oracle {

using Shadow = std::map<std::string, std::string>;

// Compares the DB iterator's position with the shadow position `it`
// (end() means the iterator must be invalid).
inline testing::AssertionResult SamePosition(const Iterator& iter,
                                             const Shadow& expected,
                                             Shadow::const_iterator it,
                                             const std::string& where) {
  if (it == expected.end()) {
    if (iter.Valid()) {
      return testing::AssertionFailure()
             << where << ": expected the end, got " << iter.key().ToString();
    }
    if (!iter.status().ok()) {
      return testing::AssertionFailure()
             << where << ": " << iter.status().ToString();
    }
    return testing::AssertionSuccess();
  }
  if (!iter.Valid()) {
    return testing::AssertionFailure()
           << where << ": expected " << it->first << ", got the end ("
           << iter.status().ToString() << ")";
  }
  if (iter.key().ToString() != it->first) {
    return testing::AssertionFailure() << where << ": expected " << it->first
                                       << ", got " << iter.key().ToString();
  }
  if (iter.value().ToString() != it->second) {
    return testing::AssertionFailure()
           << where << ": wrong value for " << it->first;
  }
  return testing::AssertionSuccess();
}

inline testing::AssertionResult CheckGets(DB* db, const Shadow& expected,
                                          const std::vector<std::string>& keys) {
  std::string value;
  for (const std::string& key : keys) {
    const Status s = db->Get(ReadOptions(), key, &value);
    const auto it = expected.find(key);
    if (it == expected.end()) {
      if (!s.IsNotFound()) {
        return testing::AssertionFailure()
               << "Get(" << key << "): expected NotFound, got "
               << s.ToString();
      }
    } else if (!s.ok() || value != it->second) {
      return testing::AssertionFailure()
             << "Get(" << key << "): " << s.ToString() << ", value "
             << (s.ok() && value != it->second ? "differs" : "missing");
    }
  }
  return testing::AssertionSuccess();
}

inline testing::AssertionResult CheckMultiGet(
    DB* db, const Shadow& expected, const std::vector<std::string>& keys) {
  constexpr size_t kBatch = 64;
  for (size_t begin = 0; begin < keys.size(); begin += kBatch) {
    const size_t end = std::min(keys.size(), begin + kBatch);
    std::vector<Slice> batch(keys.begin() + begin, keys.begin() + end);
    std::vector<std::string> values;
    const std::vector<Status> statuses =
        db->MultiGet(ReadOptions(), batch, &values);
    for (size_t i = 0; i < batch.size(); i++) {
      const std::string& key = keys[begin + i];
      const auto it = expected.find(key);
      if (it == expected.end()) {
        if (!statuses[i].IsNotFound()) {
          return testing::AssertionFailure()
                 << "MultiGet(" << key << "): expected NotFound, got "
                 << statuses[i].ToString();
        }
      } else if (!statuses[i].ok() || values[i] != it->second) {
        return testing::AssertionFailure()
               << "MultiGet(" << key << "): " << statuses[i].ToString()
               << ", value "
               << (statuses[i].ok() ? "differs" : "missing");
      }
    }
  }
  return testing::AssertionSuccess();
}

inline testing::AssertionResult CheckForwardScan(DB* db,
                                                 const Shadow& expected) {
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  iter->SeekToFirst();
  for (auto it = expected.begin();; ++it) {
    testing::AssertionResult same =
        SamePosition(*iter, expected, it, "forward scan");
    if (!same || it == expected.end()) return same;
    iter->Next();
  }
}

inline testing::AssertionResult CheckReverseScan(DB* db,
                                                 const Shadow& expected) {
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  iter->SeekToLast();
  for (auto it = expected.rbegin();; ++it) {
    // A reverse iterator's base() is one past its element.
    const auto pos = it == expected.rend() ? expected.end()
                                           : std::prev(it.base());
    testing::AssertionResult same =
        SamePosition(*iter, expected, pos, "reverse scan");
    if (!same || pos == expected.end()) return same;
    iter->Prev();
  }
}

// Seeks to `seeks` targets drawn from `keys`, then walks up to 4 steps
// forward and 8 steps back from each landing point. The walk back crosses
// the landing point, so every Seek also turns the iterator around.
inline testing::AssertionResult CheckSeeks(DB* db, const Shadow& expected,
                                           const std::vector<std::string>& keys,
                                           uint32_t seed, int seeks = 200) {
  if (keys.empty()) return testing::AssertionSuccess();
  Random rng(seed);
  std::unique_ptr<Iterator> iter(db->NewIterator(ReadOptions()));
  for (int n = 0; n < seeks; n++) {
    const std::string& target = keys[rng.Uniform(keys.size())];
    iter->Seek(target);
    auto it = expected.lower_bound(target);
    const std::string where = "Seek(" + target + ")";
    testing::AssertionResult same = SamePosition(*iter, expected, it, where);
    if (!same) return same;
    for (int step = 0; step < 4 && it != expected.end(); step++) {
      iter->Next();
      ++it;
      same = SamePosition(*iter, expected, it, where + " then Next");
      if (!same) return same;
    }
    if (it == expected.end()) {
      // Past the end: restart from the last key, as a caller would.
      iter->SeekToLast();
      if (expected.empty()) continue;
      it = std::prev(expected.end());
      same = SamePosition(*iter, expected, it, where + " then SeekToLast");
      if (!same) return same;
    }
    for (int step = 0; step < 8; step++) {
      iter->Prev();
      if (it == expected.begin()) {
        same = SamePosition(*iter, expected, expected.end(),
                            where + " then Prev past the first key");
        if (!same) return same;
        break;
      }
      --it;
      same = SamePosition(*iter, expected, it, where + " then Prev");
      if (!same) return same;
    }
  }
  return testing::AssertionSuccess();
}

// Every check above, in order; stops at the first disagreement.
inline testing::AssertionResult CheckReads(DB* db, const Shadow& expected,
                                           const std::vector<std::string>& keys,
                                           uint32_t seed) {
  testing::AssertionResult result = CheckGets(db, expected, keys);
  if (result) result = CheckMultiGet(db, expected, keys);
  if (result) result = CheckForwardScan(db, expected);
  if (result) result = CheckReverseScan(db, expected);
  if (result) result = CheckSeeks(db, expected, keys, seed);
  return result;
}

}  // namespace oracle
}  // namespace ldc

#endif  // LDC_TESTS_DB_ORACLE_H_
