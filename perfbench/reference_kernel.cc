#include "reference_kernel.h"

#include <chrono>
#include <cstdio>
#include <map>
#include <string>

namespace ldc {
namespace perfbench {

namespace {

constexpr int kKeys = 2000;  // about 400 KB of nodes, keys and values
constexpr size_t kValueSize = 64;
constexpr size_t kWords = 4096;  // 32 KiB
constexpr int kHashPasses = 50;

}  // namespace

ReferenceKernel::ReferenceKernel() : words_(kWords) {
  for (size_t i = 0; i < words_.size(); i++) {
    words_[i] = i * 0x9e3779b97f4a7c15u;
  }
}

uint64_t ReferenceKernel::Run() {
  const auto start = std::chrono::steady_clock::now();
  {
    std::map<std::string, std::string> tree;
    uint64_t x = 88172645463325252u;  // the same keys on every run
    char key[17];
    for (int i = 0; i < kKeys; i++) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      std::snprintf(key, sizeof(key), "user%012llu",
                    static_cast<unsigned long long>(x % 1000000));
      tree[key].assign(kValueSize, 'v');
    }
    for (const auto& [k, v] : tree) {
      sink_ += static_cast<uint64_t>(k[5]) + v.size();
    }
  }
  uint64_t h = sink_;
  for (int pass = 0; pass < kHashPasses; pass++) {
    for (const uint64_t w : words_) {
      h = (h ^ w) * 0x100000001b3u;
      h ^= h >> 29;
    }
  }
  sink_ += h;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace perfbench
}  // namespace ldc
