// A fixed unit of work that never touches the engine, timed between the
// measured segments of a round to track how fast the machine runs right now.
//
// On a shared VM, other tenants slow whole stretches of a run by 10-50%
// through the cores, caches and memory bus they share with it. An engine
// segment and a kernel run next to it slow down alike, so their ratio holds
// steady where raw engine time does not. The kernel has two parts:
//  - memory, about two thirds of its time: what a key-value engine's inner
//    loops do on a few hundred kilobytes (format keys, allocate nodes and
//    strings with the process's allocator, compare strings down a balanced
//    tree, walk it in order);
//  - compute, about a third: a dependent multiply-xorshift hash over 32 KiB
//    that stays in the core's caches, like CRC and key hashing.
// That split tracked the engine's slowdowns best on all four workloads; a
// kernel of either part alone over- or under-corrects some of them. The
// kernel's work is fixed and shares no code with the engine.

#ifndef LDC_PERFBENCH_REFERENCE_KERNEL_H_
#define LDC_PERFBENCH_REFERENCE_KERNEL_H_

#include <cstdint>
#include <vector>

namespace ldc {
namespace perfbench {

// Calibrated times read as if every kernel run had taken exactly this many
// wall nanoseconds, about what one takes on a quiet 4-core Xeon VM.
constexpr double kReferenceNs = 1.5e6;

class ReferenceKernel {
 public:
  ReferenceKernel();

  // Does the fixed work once and returns its steady_clock nanoseconds.
  uint64_t Run();

 private:
  std::vector<uint64_t> words_;
  uint64_t sink_ = 0;  // keeps the work observable
};

}  // namespace perfbench
}  // namespace ldc

#endif  // LDC_PERFBENCH_REFERENCE_KERNEL_H_
