// The benchmark's workloads: Table III mixes of the paper on the
// deterministic SSD simulator, with the paper harness's tree shape
// (bench/bench_common.h defaults: 16-B keys, 256-B values, 128-KB
// memtables and tables, fan-out 10, 10-bit bloom filters).

#ifndef LDC_PERFBENCH_WORKLOADS_H_
#define LDC_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "ldc/options.h"
#include "workload/workload.h"

namespace ldc {
namespace perfbench {

// BENCHMARK.json and README.md say why each workload was chosen.
struct BenchWorkload {
  const char* name;
  // Table III mix fed to MakeTableIIIWorkload ("WH", "RH", "SCN-RWB").
  const char* table3_mix;
  CompactionStyle style;
  double zipf_s;  // 0 = uniform keys
  size_t block_cache_bytes;
  // Measured-phase operations per second of --seconds. Fixing the op count
  // (instead of stopping on a timer) keeps every simulated metric
  // bit-identical for a given seed.
  uint64_t ops_per_second;
};

// Shape shared by every workload.
struct BenchShape {
  uint64_t key_space = 100000;  // Table III preloads half of it
  size_t value_size = 256;
  size_t write_buffer_size = 128 * 1024;
  size_t max_file_size = 128 * 1024;
  uint64_t level1_max_bytes = 512 * 1024;
  int fan_out = 10;
  int bloom_bits_per_key = 10;
  // Every table stays open: scaled-down tables outnumber LevelDB's default
  // handle budget (the paper harness makes the same choice).
  int max_open_files = 50000;
};

const std::vector<BenchWorkload>& AllWorkloads();
// Null when no workload has that name.
const BenchWorkload* FindWorkload(const std::string& name);

// The WorkloadDriver spec of one measured phase.
WorkloadSpec MakeSpec(const BenchWorkload& workload, const BenchShape& shape,
                      uint64_t seed, uint64_t num_ops);

// Options shared by the untraced and traced runs. The caller fills env,
// sim, statistics, filter_policy and, for a traced run, the wrappers.
Options MakeOptions(const BenchWorkload& workload, const BenchShape& shape);

}  // namespace perfbench
}  // namespace ldc

#endif  // LDC_PERFBENCH_WORKLOADS_H_
