#include "workloads.h"

namespace ldc {
namespace perfbench {

const std::vector<BenchWorkload>& AllWorkloads() {
  // name, Table III mix, style, Zipf constant, block cache, ops/second.
  // rh_zipf_ldc's cache is about a tenth of its live data; the others' hold
  // everything the run writes.
  static const std::vector<BenchWorkload> kWorkloads = {
      {"wh_uniform_ldc", "WH", CompactionStyle::kLdc, 0.0, 256u << 20, 60000},
      {"wh_uniform_udc", "WH", CompactionStyle::kUdc, 0.0, 256u << 20, 50000},
      {"rh_zipf_ldc", "RH", CompactionStyle::kLdc, 0.99, 3u << 20, 95000},
      {"scan_rwb_ldc", "SCN-RWB", CompactionStyle::kLdc, 0.0, 256u << 20,
       16000},
  };
  return kWorkloads;
}

const BenchWorkload* FindWorkload(const std::string& name) {
  for (const BenchWorkload& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

WorkloadSpec MakeSpec(const BenchWorkload& workload, const BenchShape& shape,
                      uint64_t seed, uint64_t num_ops) {
  WorkloadSpec spec =
      MakeTableIIIWorkload(workload.table3_mix, num_ops, shape.key_space);
  spec.name = workload.name;
  spec.value_size = shape.value_size;
  spec.zipf_s = workload.zipf_s;
  spec.seed = seed;
  return spec;
}

Options MakeOptions(const BenchWorkload& workload, const BenchShape& shape) {
  Options options;
  options.create_if_missing = true;
  options.compaction_style = workload.style;
  options.block_cache_capacity = workload.block_cache_bytes;
  options.max_open_files = shape.max_open_files;
  options.write_buffer_size = shape.write_buffer_size;
  options.max_file_size = shape.max_file_size;
  options.level1_max_bytes = shape.level1_max_bytes;
  options.fan_out = shape.fan_out;
  return options;
}

}  // namespace perfbench
}  // namespace ldc
