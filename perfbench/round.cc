#include "round.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <memory>

#include "ldc/cache.h"
#include "ldc/comparator.h"
#include "ldc/db.h"
#include "ldc/env.h"
#include "ldc/filter_policy.h"
#include "ldc/statistics.h"
#include "ldc/trace.h"
#include "reference_kernel.h"
#include "workload/workload.h"

namespace ldc {
namespace perfbench {

namespace {

constexpr char kDbName[] = "/perfbench";
// DBImpl keeps this many of max_open_files for non-table files; the traced
// run's table-handle cache gets the capacity the DB would give its own.
constexpr int kNonTableFiles = 10;
// Chrome-trace export budget: the Tracer splits its capacity over 16
// per-thread shards and the benchmark runs on one thread, so the file keeps
// the first 2^17 spans (about 140 bytes each in memory). Later spans are
// still counted in the per-layer metrics.
constexpr size_t kTraceEvents = size_t{16} << 17;
constexpr int kActivities = static_cast<int>(SimActivity::kActivityCount);
constexpr int kSegmentsPerTenth = kSegments / 10;
static_assert(kSegmentsPerTenth * 10 == kSegments);
// Reference-kernel runs just before and just after each round's set-up.
constexpr int kSetupReferenceRuns = 5;

double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

NoiseSample ReadNoise() {
  NoiseSample noise;
  // "cpu  user nice system idle iowait irq softirq steal ..."
  std::ifstream stat("/proc/stat");
  std::string cpu;
  uint64_t fields[8] = {};
  if (stat >> cpu && cpu == "cpu") {
    for (uint64_t& f : fields) stat >> f;
    noise.steal_ticks = fields[7];
  }
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    noise.nivcsw = static_cast<uint64_t>(usage.ru_nivcsw);
  }
  return noise;
}

// Calibrated per-op times: each of `wall_us` scaled by kReferenceNs over the
// reference time of the segment it fell in. Segment k holds the ops from
// index marks[k] up to marks[k + 1].
std::vector<double> Calibrated(const std::vector<double>& wall_us,
                               const std::vector<size_t>& marks,
                               const std::vector<double>& reference_ns) {
  std::vector<double> out;
  out.reserve(wall_us.size());
  for (size_t k = 0; k + 1 < marks.size(); k++) {
    const double scale = kReferenceNs / reference_ns[k];
    for (size_t i = marks[k]; i < marks[k + 1]; i++) {
      out.push_back(wall_us[i] * scale);
    }
  }
  return out;
}

uint64_t NumericProperty(DB* db, const char* name) {
  std::string value;
  return db->GetProperty(name, &value)
             ? std::strtoull(value.c_str(), nullptr, 10)
             : 0;
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

double CalibratedEngineSeconds(const std::vector<RoundResult>& rounds) {
  double units = 0;  // engine time in reference-kernel runs
  for (int k = 0; k < kSegments; k++) {
    std::vector<double> segment;
    for (const RoundResult& r : rounds) {
      segment.push_back(static_cast<double>(r.segment_engine_ns[k]) /
                        r.segment_reference_ns[k]);
    }
    units += Percentile(std::move(segment), 0.5);
  }
  return units * kReferenceNs / 1e9;
}

RoundResult RunRound(const RoundConfig& config) {
  RoundResult result;
  const BenchWorkload& workload = *config.workload;
  const BenchShape& shape = config.shape;

  // Everything the DB points at is declared before it, so it outlives it.
  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<SpanRecorder> recorder;
  if (config.traced) {
    if (!config.trace_path.empty()) {
      tracer = std::make_unique<Tracer>(kTraceEvents);
    }
    recorder = std::make_unique<SpanRecorder>(tracer.get());
  }
  const std::unique_ptr<Env> mem_env(NewMemEnv());
  SimContext sim{SsdModel()};
  Statistics stats;
  const std::unique_ptr<const FilterPolicy> bloom(
      NewBloomFilterPolicy(shape.bloom_bits_per_key));

  Options options = MakeOptions(workload, shape);
  options.env = mem_env.get();
  options.sim = &sim;
  options.statistics = &stats;
  options.filter_policy = bloom.get();

  std::unique_ptr<Env> tracing_env;
  std::unique_ptr<Cache> block_cache;
  std::unique_ptr<Cache> table_cache;
  std::unique_ptr<FilterPolicy> filter;
  std::unique_ptr<Comparator> comparator;
  std::unique_ptr<EventListener> listener;
  if (recorder != nullptr) {
    SpanRecorder* rec = recorder.get();
    tracing_env = NewTracingEnv(mem_env.get(), rec);
    block_cache = NewTracingCache(NewLRUCache(workload.block_cache_bytes),
                                  /*table_handles=*/false, rec);
    table_cache = NewTracingCache(
        NewLRUCache(static_cast<size_t>(shape.max_open_files - kNonTableFiles)),
        /*table_handles=*/true, rec);
    filter = NewTracingFilterPolicy(bloom.get(), rec);
    comparator = NewCountingComparator(BytewiseComparator(), rec);
    listener = NewTracingListener(rec);
    options.env = tracing_env.get();
    options.block_cache = block_cache.get();
    options.table_handle_cache = table_cache.get();
    options.filter_policy = filter.get();
    options.comparator = comparator.get();
    options.listeners.push_back(listener.get());
  }

  Shadow shadow(shape.key_space);
  const WorkloadSpec spec =
      MakeSpec(workload, shape, config.seed, config.num_ops);
  ReferenceKernel kernel;
  std::vector<double> setup_reference_ns;
  const auto reference_runs = [&] {
    for (int i = 0; i < kSetupReferenceRuns; i++) {
      setup_reference_ns.push_back(static_cast<double>(kernel.Run()));
    }
  };

  // Set-up: open, preload half the key space (Table III), settle.
  reference_runs();
  const Clock::time_point setup_start = Clock::now();
  DB* raw = nullptr;
  result.status = DB::Open(options, kDbName, &raw);
  if (!result.status.ok()) return result;
  const std::unique_ptr<DB> db(raw);
  TimedDb timed(db.get(), &sim, &shadow, recorder.get());
  WorkloadDriver driver(&timed, &sim, &stats);
  result.status = driver.Preload(spec);
  result.setup_s = Seconds(Clock::now() - setup_start);
  if (!result.status.ok()) return result;
  reference_runs();
  result.calibrated_setup_s =
      result.setup_s * kReferenceNs / Percentile(setup_reference_ns, 0.5);

  // Measured phase.
  const uint64_t written_start = sim.TotalBytesWritten();
  uint64_t busy_start[kActivities];
  for (int a = 0; a < kActivities; a++) {
    busy_start[a] = sim.BusyMicros(static_cast<SimActivity>(a));
  }
  const uint64_t trivial_start = stats.Get(kTrivialMoves);
  std::vector<uint64_t> mark_engine_ns = {0};
  std::vector<uint64_t> mark_ops = {0};
  std::vector<size_t> mark_puts = {0};
  std::vector<size_t> mark_reads = {0};
  std::vector<double> mark_reference_ns;
  std::vector<LayerCounts> mark_layers;
  if (recorder != nullptr) {
    recorder->ResetCounts();
    recorder->set_export(true);
    mark_layers.push_back(recorder->counts());
  }
  const auto mark = [&](int k) {
    const PhaseRecord& r = timed.record();
    mark_engine_ns.push_back(r.engine_ns);
    mark_ops.push_back(r.ops);
    mark_puts.push_back(r.put_wall_us.size());
    mark_reads.push_back(r.read_wall_us.size());
    if (recorder != nullptr && k % kSegmentsPerTenth == 0) {
      mark_layers.push_back(recorder->counts());
    }
    mark_reference_ns.push_back(static_cast<double>(kernel.Run()));
  };
  timed.StartPhase(config.num_ops, kSegments, mark);

  mark_reference_ns.push_back(static_cast<double>(kernel.Run()));
  const NoiseSample noise_start = ReadNoise();
  const Clock::time_point run_start = Clock::now();
  const WorkloadResult run = driver.Run(spec);
  const double run_s = Seconds(Clock::now() - run_start);
  const NoiseSample noise_end = ReadNoise();
  if (recorder != nullptr) recorder->set_export(false);
  result.status = run.status;
  // A failed op stops the driver short of the planned op count.
  if (!result.status.ok()) return result;
  mark(kSegments);

  const PhaseRecord& rec = timed.record();
  ExactMetrics& exact = result.exact;
  exact.ops = rec.ops;
  exact.failed = rec.failed;
  exact.sim_ops_per_s = run.throughput_ops_per_sec;
  exact.sim_put_p999_us = Percentile(rec.put_sim_us, 0.999);
  exact.sim_read_p999_us = Percentile(rec.read_sim_us, 0.999);
  if (rec.put_bytes > 0) {
    exact.write_amp =
        static_cast<double>(sim.TotalBytesWritten() - written_start) /
        static_cast<double>(rec.put_bytes);
  }
  if (shadow.live_bytes() > 0) {
    exact.space_amp =
        static_cast<double>(NumericProperty(db.get(), "ldc.total-bytes")) /
        static_cast<double>(shadow.live_bytes());
  }

  // Reference runs 1..kSegments-1 fell inside the measured phase.
  double reference_in_run_ns = 0;
  for (int k = 1; k < kSegments; k++) {
    reference_in_run_ns += mark_reference_ns[k];
  }
  for (int k = 1; k <= kSegments; k++) {
    result.segment_engine_ns.push_back(mark_engine_ns[k] - mark_engine_ns[k - 1]);
    result.segment_reference_ns.push_back(
        (mark_reference_ns[k - 1] + mark_reference_ns[k]) / 2);
  }
  result.reference_ms = Percentile(mark_reference_ns, 0.5) / 1e6;
  result.engine_s = static_cast<double>(rec.engine_ns) / 1e9;
  result.calibrated_engine_s = CalibratedEngineSeconds({result});
  if (rec.engine_ns > 0) {
    result.ops_per_s = static_cast<double>(rec.ops) / result.engine_s;
    result.calibrated_ops_per_s =
        static_cast<double>(rec.ops) / result.calibrated_engine_s;
  }
  result.put_p50_us = Percentile(rec.put_wall_us, 0.5);
  result.read_p50_us = Percentile(rec.read_wall_us, 0.5);
  result.calibrated_put_p50_us = Percentile(
      Calibrated(rec.put_wall_us, mark_puts, result.segment_reference_ns), 0.5);
  result.calibrated_read_p50_us = Percentile(
      Calibrated(rec.read_wall_us, mark_reads, result.segment_reference_ns),
      0.5);
  if (rec.ops > 0) {
    result.harness_us_per_op =
        (run_s - result.engine_s - reference_in_run_ns / 1e9) * 1e6 /
        static_cast<double>(rec.ops);
  }
  result.noise.steal_ticks = noise_end.steal_ticks - noise_start.steal_ticks;
  result.noise.nivcsw = noise_end.nivcsw - noise_start.nivcsw;
  for (int t = 0; t < 10; t++) {
    const int a = t * kSegmentsPerTenth;
    const int b = a + kSegmentsPerTenth;
    const uint64_t ops = mark_ops[b] - mark_ops[a];
    result.tenth_us_per_op.push_back(
        ops == 0 ? 0
                 : static_cast<double>(mark_engine_ns[b] - mark_engine_ns[a]) /
                       1e3 / static_cast<double>(ops));
  }

  result.record = rec;
  result.record.put_wall_us.clear();
  result.record.read_wall_us.clear();
  result.record.put_sim_us.clear();
  result.record.read_sim_us.clear();
  result.trivial_moves = stats.Get(kTrivialMoves) - trivial_start;
  for (int a = 0; a < kActivities; a++) {
    result.busy_us[a] =
        sim.BusyMicros(static_cast<SimActivity>(a)) - busy_start[a];
  }
  result.frozen_bytes_end = NumericProperty(db.get(), "ldc.frozen-bytes");
  if (recorder != nullptr) {
    result.layers = recorder->counts();
    for (size_t k = 1; k < mark_layers.size(); k++) {
      result.tenth_layers.push_back(Minus(mark_layers[k], mark_layers[k - 1]));
    }
  }

  if (config.sweep) result.sweep = Sweep(db.get(), shadow);
  if (tracer != nullptr) {
    std::ofstream out(config.trace_path, std::ios::trunc);
    out << tracer->ExportChromeTrace();
    if (!out) result.status = Status::IOError("cannot write", config.trace_path);
  }
  return result;
}

}  // namespace perfbench
}  // namespace ldc
