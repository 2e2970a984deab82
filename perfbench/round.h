// One benchmark round: open a fresh simulator-backed DB, preload and settle
// it (set-up), run the measured phase through WorkloadDriver and TimedDb,
// and collect metrics. Rounds with the same workload, seed and op count do
// identical engine work, so their simulated ("exact") metrics must match
// bit for bit, and only the wall-clock ones vary.

#ifndef LDC_PERFBENCH_ROUND_H_
#define LDC_PERFBENCH_ROUND_H_

#include <cstdint>
#include <string>
#include <vector>

#include "layer_trace.h"
#include "ldc/sim.h"
#include "ldc/status.h"
#include "timed_db.h"
#include "workloads.h"

namespace ldc {
namespace perfbench {

// Equal shares of the measured phase's ops at which engine time is marked
// and the reference kernel runs.
constexpr int kSegments = 50;

struct RoundConfig {
  const BenchWorkload* workload = nullptr;
  BenchShape shape;
  uint64_t seed = 1;
  uint64_t num_ops = 0;
  // Installs the wrappers of layer_trace.h and fills RoundResult::layers.
  bool traced = false;
  // Runs the post-run Sweep and fills RoundResult::sweep.
  bool sweep = false;
  // Traced rounds only: writes the measured phase's spans here as Chrome
  // trace-event JSON ("" = no file).
  std::string trace_path;
};

// Metrics that depend only on the workload, seed and op count.
struct ExactMetrics {
  uint64_t ops = 0;
  uint64_t failed = 0;
  double sim_ops_per_s = 0;
  double sim_put_p999_us = 0;
  double sim_read_p999_us = 0;
  double write_amp = 0;
  double space_amp = 0;

  bool operator==(const ExactMetrics&) const = default;
};

struct NoiseSample {
  uint64_t steal_ticks = 0;  // /proc/stat steal, all CPUs, USER_HZ ticks
  uint64_t nivcsw = 0;       // involuntary context switches of this process
};

// Wall-clock figures come raw and calibrated. A calibrated time is the raw
// time divided by the reference kernel's time measured beside it, times
// kReferenceNs: what the time would have been had the machine run the kernel
// in exactly kReferenceNs.
struct RoundResult {
  Status status;
  ExactMetrics exact;
  double setup_s = 0;  // open + preload + settle, wall seconds
  double calibrated_setup_s = 0;
  double engine_s = 0;  // measured phase, wall seconds inside DB calls
  double calibrated_engine_s = 0;
  double ops_per_s = 0;  // exact.ops / engine_s
  double calibrated_ops_per_s = 0;
  double put_p50_us = 0;  // medians of per-op wall times
  double read_p50_us = 0;
  double calibrated_put_p50_us = 0;
  double calibrated_read_p50_us = 0;
  // Wall time of the measured phase spent outside DB calls and the
  // reference kernel, per op.
  double harness_us_per_op = 0;
  NoiseSample noise;
  // Median reference-kernel time of the round (kReferenceNs on a machine
  // running at the calibration's nominal speed).
  double reference_ms = 0;
  // Engine nanoseconds in each of the kSegments shares of the ops, and the
  // mean of the reference-kernel runs just before and just after each.
  std::vector<uint64_t> segment_engine_ns;
  std::vector<double> segment_reference_ns;
  // Engine microseconds per op in each tenth of the measured phase (the
  // trailing WaitForIdle falls in the last one).
  std::vector<double> tenth_us_per_op;
  SweepResult sweep;

  // Traced rounds: the measured phase's layer counts, and their per-tenth
  // deltas (a diagnostic).
  LayerCounts layers;
  std::vector<LayerCounts> tenth_layers;
  // Measured-phase deltas that need no wrapper.
  PhaseRecord record;  // latency vectors cleared
  uint64_t trivial_moves = 0;
  uint64_t busy_us[static_cast<int>(SimActivity::kActivityCount)] = {};
  uint64_t frozen_bytes_end = 0;
};

RoundResult RunRound(const RoundConfig& config);

// Linear interpolation between order statistics (q in [0, 1]).
double Percentile(std::vector<double> values, double q);

// Calibrated engine seconds of rounds that replay the same work: each
// segment's engine time over its reference time, at its median over the
// rounds, summed and scaled by kReferenceNs. A noise burst in part of one
// round drops out with the median; a slow stretch of the machine slows the
// reference kernel as well and divides out.
double CalibratedEngineSeconds(const std::vector<RoundResult>& rounds);

}  // namespace perfbench
}  // namespace ldc

#endif  // LDC_PERFBENCH_ROUND_H_
