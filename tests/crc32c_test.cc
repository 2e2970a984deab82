#include "util/crc32c.h"

#include <cstring>
#include <string>

#include "gtest/gtest.h"
#include "util/random.h"

namespace ldc {
namespace crc32c {

namespace {

using ExtendFn = uint32_t (*)(uint32_t, const char*, size_t);

// From rfc3720 section B.4.
void ExpectStandardResults(ExtendFn extend) {
  char buf[32];

  memset(buf, 0, sizeof(buf));
  EXPECT_EQ(0x8a9136aa, extend(0, buf, sizeof(buf)));

  memset(buf, 0xff, sizeof(buf));
  EXPECT_EQ(0x62a8ab43, extend(0, buf, sizeof(buf)));

  for (int i = 0; i < 32; i++) {
    buf[i] = i;
  }
  EXPECT_EQ(0x46dd794e, extend(0, buf, sizeof(buf)));

  for (int i = 0; i < 32; i++) {
    buf[i] = 31 - i;
  }
  EXPECT_EQ(0x113fdb5c, extend(0, buf, sizeof(buf)));

  uint8_t data[48] = {
      0x01, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00,
      0x00, 0x00, 0x00, 0x14, 0x00, 0x00, 0x00, 0x18, 0x28, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
  };
  EXPECT_EQ(0xd9963a56,
            extend(0, reinterpret_cast<char*>(data), sizeof(data)));
}

std::string RandomBytes(size_t n, uint32_t seed) {
  Random rng(seed);
  std::string s(n, '\0');
  for (char& c : s) c = static_cast<char>(rng.Uniform(256));
  return s;
}

// Extend() over any split of `data` must equal one call over all of it.
void ExpectSplitInvariant(ExtendFn extend, const std::string& data) {
  const uint32_t whole = extend(0, data.data(), data.size());
  for (size_t cut = 0; cut <= data.size(); cut++) {
    const uint32_t head = extend(0, data.data(), cut);
    EXPECT_EQ(whole, extend(head, data.data() + cut, data.size() - cut))
        << "cut " << cut;
  }
}

constexpr char kNoHardware[] = "CPU has no SSE4.2 crc32 instruction";

}  // namespace

TEST(CRC, StandardResults) {
  ExpectStandardResults(Extend);
  ExpectStandardResults(ExtendPortable);
}

TEST(CRC, StandardResultsHardware) {
  if (!IsHardwareAccelerated()) GTEST_SKIP() << kNoHardware;
  ExpectStandardResults(ExtendHardware);
}

TEST(CRC, HardwareMatchesPortable) {
  if (!IsHardwareAccelerated()) GTEST_SKIP() << kNoHardware;
  // Every length through 1100 bytes (a WAL record is about 300), at every
  // start alignment, from the empty CRC and from a running one.
  constexpr size_t kMaxLen = 1100;
  const std::string data = RandomBytes(kMaxLen + 8, 301);
  for (uint32_t init : {0u, 0xdeadbeefu}) {
    for (size_t offset = 0; offset < 8; offset++) {
      for (size_t len = 0; len <= kMaxLen; len++) {
        const char* p = data.data() + offset;
        ASSERT_EQ(ExtendPortable(init, p, len), ExtendHardware(init, p, len))
            << "init " << init << " offset " << offset << " len " << len;
      }
    }
  }
}

TEST(CRC, ExtendSplitAnywhere) {
  const std::string data = RandomBytes(300, 17);
  ExpectSplitInvariant(Extend, data);
  ExpectSplitInvariant(ExtendPortable, data);
}

TEST(CRC, Values) { ASSERT_NE(Value("a", 1), Value("foo", 3)); }

TEST(CRC, Extend) {
  ASSERT_EQ(Value("hello world", 11), Extend(Value("hello ", 6), "world", 5));
}

TEST(CRC, Mask) {
  uint32_t crc = Value("foo", 3);
  ASSERT_NE(crc, Mask(crc));
  ASSERT_NE(crc, Mask(Mask(crc)));
  ASSERT_EQ(crc, Unmask(Mask(crc)));
  ASSERT_EQ(crc, Unmask(Unmask(Mask(Mask(crc)))));
}

}  // namespace crc32c
}  // namespace ldc
