// ldc_perfbench: the repository's end-to-end benchmark driver.
//
//   ldc_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                 [--trace-out FILE]
//
// One closed-loop client drives the paper's WorkloadDriver against a fresh
// DB on the deterministic SSD simulator (in-memory Env, sync=false writes
// through a buffered WAL). --seconds fixes the measured-phase op count
// through the workload's nominal rate, so a seed always replays the same
// operations.
//
// --trace 0 runs kRounds identical rounds (set-up + measured phase) and
// reports the end-to-end metrics: medians over rounds for wall-clock
// metrics, calibrated against a reference kernel run between segments (see
// reference_kernel.h), and the simulated metrics, which must agree bit for
// bit across rounds. --trace 1 runs one untraced and one traced round with
// the same inputs and reports the per-layer metrics; the two rounds'
// simulated metrics must agree. Earlier stdout lines carry diagnostics; the
// last line is {"correct", "attempted", "failed", "metrics"}.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "layer_trace.h"
#include "round.h"
#include "util/json.h"
#include "workloads.h"

namespace ldc {
namespace perfbench {
namespace {

// Set-up + measured-phase repetitions of an untraced run.
constexpr int kRounds = 5;
constexpr double kMiB = 1024.0 * 1024.0;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  int trace = -1;
  std::string trace_out;
};

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr,
               "ldc_perfbench: %s\nusage: ldc_perfbench --workload NAME "
               "--seed N --seconds S --trace 0|1 [--trace-out FILE]\n"
               "workloads:",
               why);
  for (const BenchWorkload& w : AllWorkloads()) {
    std::fprintf(stderr, " %s", w.name);
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

uint64_t ParseNumber(const char* flag, const char* text) {
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') Usage(flag);
  return v;
}

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i++) {
    const char* flag = argv[i];
    if (i + 1 >= argc) Usage("missing flag value");
    const char* value = argv[++i];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = ParseNumber(flag, value);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = ParseNumber(flag, value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = static_cast<int>(ParseNumber(flag, value));
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      args.trace_out = value;
    } else {
      Usage("unknown flag");
    }
  }
  if (args.workload.empty() || args.seconds == 0 || args.seconds > 3600 ||
      (args.trace != 0 && args.trace != 1)) {
    Usage("--workload, --seconds in [1, 3600] and --trace 0|1 are required");
  }
  return args;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// Metrics in output order, each with its unit.
class MetricList {
 public:
  void Add(const char* name, double value, const char* unit) {
    items_.push_back({name, value, unit});
  }
  void Write(JsonWriter* w) const {
    w->BeginObject();
    for (const Item& m : items_) {
      w->Key(m.name);
      w->BeginObject();
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", m.value);
      w->Key("value");
      w->Raw(buf);
      w->KV("unit", m.unit);
      w->EndObject();
    }
    w->EndObject();
  }

 private:
  struct Item {
    const char* name;
    double value;
    const char* unit;
  };
  std::vector<Item> items_;
};

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

// Wall-clock metrics are calibrated, and medians over the rounds, which
// replay the same engine work. ops_per_s takes the median per fiftieth of the
// measured phase (CalibratedEngineSeconds).
void EndToEndMetrics(const std::vector<RoundResult>& rounds,
                     MetricList* out) {
  std::vector<double> put_p50, read_p50, setup_s;
  for (const RoundResult& r : rounds) {
    put_p50.push_back(r.calibrated_put_p50_us);
    read_p50.push_back(r.calibrated_read_p50_us);
    setup_s.push_back(r.calibrated_setup_s);
  }
  const ExactMetrics& exact = rounds[0].exact;
  out->Add("ops_per_s",
           Ratio(static_cast<double>(exact.ops),
                 CalibratedEngineSeconds(rounds)),
           "1/s");
  out->Add("put_p50_us", Median(put_p50), "us");
  out->Add("read_p50_us", Median(read_p50), "us");
  out->Add("sim_ops_per_s", exact.sim_ops_per_s, "1/s");
  out->Add("write_amp", exact.write_amp, "ratio");
  out->Add("space_amp", exact.space_amp, "ratio");
  out->Add("peak_rss_mb", PeakRssMb(), "MB");
  out->Add("setup_s", Median(setup_s), "s");
}

void PerLayerMetrics(const RoundResult& traced, const RoundResult& untraced,
                     MetricList* out) {
  const LayerCounts& l = traced.layers;
  const JobCounters& jobs = l.jobs;
  const PhaseRecord& rec = traced.record;
  const double puts = static_cast<double>(rec.puts);
  const double gets = static_cast<double>(rec.gets);
  const double scans = static_cast<double>(rec.scans);
  const OwnerCounters& get = l.owner(Owner::kGet);
  const OwnerCounters& scan = l.owner(Owner::kScan);
  const OwnerCounters& flush = l.owner(Owner::kFlush);
  const OwnerCounters& merge = l.owner(Owner::kMerge);
  OwnerCounters all;
  for (const OwnerCounters& o : l.owners) {
    all.wal_bytes += o.wal_bytes;
    all.wal_ns += o.wal_ns;
    all.filter_create_ns += o.filter_create_ns;
    all.table_bytes_written += o.table_bytes_written;
    all.table_lookups += o.table_lookups;
    all.table_misses += o.table_misses;
    all.get_children += o.get_children;
  }
  const auto us = [](uint64_t ns) { return static_cast<double>(ns) / 1e3; };
  const auto self_us = [&](Span s) { return us(l.span(s).self_ns); };
  const double flush_mb = static_cast<double>(jobs.flush_bytes_written) / kMiB;
  const double merge_mb = static_cast<double>(jobs.merge_bytes_read) / kMiB;
  const double job_table_mb =
      static_cast<double>(flush.table_bytes_written +
                          merge.table_bytes_written) / kMiB;

  out->Add("db.put.self_us", Ratio(self_us(Span::kDbPut), puts), "us/op");
  out->Add("db.get.self_us", Ratio(self_us(Span::kDbGet), gets), "us/op");
  out->Add("db.scan.self_us", Ratio(self_us(Span::kDbScan), scans), "us/op");
  out->Add("db.stall.sim_us", static_cast<double>(jobs.stall_sim_us), "us");
  out->Add("db.stall.count", static_cast<double>(jobs.stalls), "count");
  out->Add("db.compaction.flush.count", static_cast<double>(jobs.flushes),
           "count");
  out->Add("db.compaction.flush.us_per_mb",
           Ratio(us(l.span(Span::kJobFlush).total_ns), flush_mb), "us/MB");
  out->Add("db.compaction.merge.count", static_cast<double>(jobs.merges),
           "count");
  out->Add("db.compaction.merge.us_per_mb",
           Ratio(us(l.span(Span::kJobMerge).total_ns), merge_mb), "us/MB");
  out->Add("db.compaction.merge.self_us_per_mb",
           Ratio(self_us(Span::kJobMerge), merge_mb), "us/MB");
  out->Add("db.compaction.trivial_moves",
           static_cast<double>(traced.trivial_moves), "count");
  out->Add("db.ldc.links", static_cast<double>(jobs.links), "count");
  out->Add("db.ldc.slices_per_link",
           Ratio(static_cast<double>(jobs.link_slices),
                 static_cast<double>(jobs.links)),
           "count/link");
  out->Add("db.ldc.slices_per_merge",
           Ratio(static_cast<double>(jobs.ldc_merge_slices),
                 static_cast<double>(jobs.ldc_merges)),
           "count/merge");
  out->Add("db.ldc.slices_per_get",
           Ratio(static_cast<double>(rec.get_slices_checked), gets),
           "count/op");
  out->Add("db.ldc.frozen_mb_end",
           static_cast<double>(traced.frozen_bytes_end) / kMiB, "MB");
  out->Add("memtbl.get_hit_ratio",
           Ratio(static_cast<double>(rec.get_memtable_hits), gets), "ratio");
  out->Add("wal.bytes_per_put", Ratio(static_cast<double>(all.wal_bytes), puts),
           "B/op");
  out->Add("wal.append_us_per_put", Ratio(us(all.wal_ns), puts), "us/op");
  out->Add("table.bloom.probes_per_get",
           Ratio(static_cast<double>(get.bloom_probes), gets), "count/op");
  out->Add("table.bloom.negative_ratio",
           Ratio(static_cast<double>(get.bloom_negatives),
                 static_cast<double>(get.bloom_probes)),
           "ratio");
  out->Add("table.bloom.create_us_per_mb",
           Ratio(us(all.filter_create_ns),
                 static_cast<double>(all.table_bytes_written) / kMiB),
           "us/MB");
  out->Add("table.block_reads_per_get",
           Ratio(static_cast<double>(get.table_reads), gets), "count/op");
  out->Add("table.read_us_per_get", Ratio(us(get.table_read_ns), gets),
           "us/op");
  out->Add("util.cache.block.lookups_per_get",
           Ratio(static_cast<double>(get.block_lookups), gets), "count/op");
  out->Add("util.cache.block.hit_ratio",
           Ratio(static_cast<double>(get.block_hits + scan.block_hits),
                 static_cast<double>(get.block_lookups + scan.block_lookups)),
           "ratio");
  out->Add("util.cache.block.inserts_per_mb",
           Ratio(static_cast<double>(flush.block_inserts + merge.block_inserts),
                 job_table_mb),
           "count/MB");
  out->Add("util.cache.table.lookups_per_get",
           Ratio(static_cast<double>(get.table_lookups), gets), "count/op");
  out->Add("util.cache.table.miss_ratio",
           Ratio(static_cast<double>(all.table_misses),
                 static_cast<double>(all.table_lookups)),
           "ratio");
  out->Add("util.cache.us_per_get", Ratio(us(get.cache_ns), gets), "us/op");
  out->Add("util.cmp.calls_per_get",
           Ratio(static_cast<double>(get.cmp_calls), gets), "count/op");
  out->Add("util.cmp.calls_per_scan",
           Ratio(static_cast<double>(scan.cmp_calls), scans), "count/op");
  out->Add("util.cmp.calls_per_merged_kb",
           Ratio(static_cast<double>(merge.cmp_calls), merge_mb * 1024),
           "count/KB");
  out->Add("env.get_children_per_job",
           Ratio(static_cast<double>(all.get_children),
                 static_cast<double>(jobs.flushes + jobs.merges)),
           "count/job");

  static const char* const kShareNames[] = {
      "sim.busy_share.compaction", "sim.busy_share.flush",
      "sim.busy_share.wal", "sim.busy_share.user_read", "sim.busy_share.cpu"};
  static_assert(std::size(kShareNames) ==
                static_cast<size_t>(SimActivity::kActivityCount));
  double busy_total = 0;
  for (uint64_t b : traced.busy_us) busy_total += static_cast<double>(b);
  for (size_t a = 0; a < std::size(kShareNames); a++) {
    out->Add(kShareNames[a],
             Ratio(static_cast<double>(traced.busy_us[a]), busy_total),
             "ratio");
  }
  // Virtual latencies are whole microseconds, and most ops cost the same
  // modeled CPU time, so these tails are per-layer diagnostics rather than
  // end-to-end metrics: they often read the same for every seed.
  out->Add("sim.put_p999_us", traced.exact.sim_put_p999_us, "us");
  out->Add("sim.read_p999_us", traced.exact.sim_read_p999_us, "us");
  out->Add("workload.harness_us_per_op", untraced.harness_us_per_op, "us/op");
  out->Add("trace.ops_per_s_ratio",
           Ratio(traced.calibrated_ops_per_s, untraced.calibrated_ops_per_s),
           "ratio");
}

void WriteRound(const RoundResult& r, JsonWriter* w) {
  w->BeginObject();
  w->KV("setup_s", r.setup_s);
  w->KV("engine_s", r.engine_s);
  w->KV("ops_per_s", r.ops_per_s);
  w->KV("put_p50_us", r.put_p50_us);
  w->KV("read_p50_us", r.read_p50_us);
  w->KV("calibrated_setup_s", r.calibrated_setup_s);
  w->KV("calibrated_engine_s", r.calibrated_engine_s);
  w->KV("calibrated_ops_per_s", r.calibrated_ops_per_s);
  w->KV("calibrated_put_p50_us", r.calibrated_put_p50_us);
  w->KV("calibrated_read_p50_us", r.calibrated_read_p50_us);
  w->KV("harness_us_per_op", r.harness_us_per_op);
  w->KV("reference_ms", r.reference_ms);
  w->KV("steal_ticks", r.noise.steal_ticks);
  w->KV("nivcsw", r.noise.nivcsw);
  w->KV("failed", r.exact.failed);
  w->Key("tenth_us_per_op");
  w->BeginArray();
  for (double v : r.tenth_us_per_op) w->Value(v);
  w->EndArray();
  w->EndObject();
}

// Per-tenth layer diagnostics of the traced round: span count and self
// microseconds of each span kind in each tenth of the measured phase.
void WriteTenths(const RoundResult& traced, JsonWriter* w) {
  w->BeginArray();
  for (size_t k = 0; k < traced.tenth_layers.size(); k++) {
    const LayerCounts& t = traced.tenth_layers[k];
    w->BeginObject();
    w->KV("tenth", static_cast<uint64_t>(k + 1));
    w->KV("engine_us_per_op", traced.tenth_us_per_op[k]);
    for (int s = 0; s < kSpanCount; s++) {
      const SpanTotals& st = t.spans[s];
      if (st.count == 0) continue;
      w->Key(SpanName(static_cast<Span>(s)));
      w->BeginObject();
      w->KV("count", st.count);
      w->KV("self_us", static_cast<double>(st.self_ns) / 1e3);
      w->EndObject();
    }
    w->EndObject();
  }
  w->EndArray();
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  const BenchWorkload* workload = FindWorkload(args.workload);
  if (workload == nullptr) Usage("unknown workload");

  RoundConfig config;
  config.workload = workload;
  config.seed = args.seed;
  config.num_ops = std::max<uint64_t>(
      1000, args.seconds * workload->ops_per_second / kRounds);

  std::vector<RoundResult> rounds;
  if (args.trace == 0) {
    for (int r = 0; r < kRounds; r++) {
      config.sweep = r == 0;  // rounds are identical; one sweep suffices
      rounds.push_back(RunRound(config));
    }
  } else {
    config.sweep = true;
    rounds.push_back(RunRound(config));
    config.sweep = false;
    config.traced = true;
    config.trace_path = args.trace_out;
    rounds.push_back(RunRound(config));
  }

  bool repeat = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  for (const RoundResult& r : rounds) {
    if (!r.status.ok()) {
      std::fprintf(stderr, "ldc_perfbench: %s\n", r.status.ToString().c_str());
      return 1;
    }
    attempted += r.exact.ops;
    failed += r.exact.failed;
    // Same inputs, same engine work: the simulated metrics must repeat
    // exactly (with tracing on, too).
    if (!(r.exact == rounds[0].exact)) repeat = false;
  }
  const SweepResult& sweep = rounds[0].sweep;
  const bool correct = repeat && failed == 0 && sweep.mismatches == 0;

  JsonWriter diag;
  diag.BeginObject();
  diag.KV("workload", workload->name);
  diag.KV("seed", args.seed);
  diag.KV("ops_per_round", config.num_ops);
  diag.KV("key_space", config.shape.key_space);
  diag.KV("value_size", static_cast<uint64_t>(config.shape.value_size));
  diag.KV("loop", "closed, 1 client");
  diag.KV("flush_policy", "sync=false, buffered WAL");
  diag.KV("exact_metrics_repeat", repeat);
  diag.Key("sweep");
  diag.BeginObject();
  diag.KV("checked", sweep.checked);
  diag.KV("mismatches", sweep.mismatches);
  diag.EndObject();
  diag.Key("failed_op_ratio");
  diag.Raw(std::to_string(Ratio(static_cast<double>(failed),
                                static_cast<double>(attempted))));
  diag.Key("rounds");
  diag.BeginArray();
  for (const RoundResult& r : rounds) WriteRound(r, &diag);
  diag.EndArray();
  if (args.trace == 1) {
    diag.Key("tenths");
    WriteTenths(rounds[1], &diag);
  }
  diag.EndObject();
  std::printf("%s\n", diag.str().c_str());

  MetricList metrics;
  if (args.trace == 0) {
    EndToEndMetrics(rounds, &metrics);
  } else {
    PerLayerMetrics(rounds[1], rounds[0], &metrics);
  }
  JsonWriter out;
  out.BeginObject();
  out.KV("correct", correct);
  out.KV("attempted", attempted);
  out.KV("failed", failed);
  out.Key("metrics");
  metrics.Write(&out);
  out.EndObject();
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench
}  // namespace ldc

int main(int argc, char** argv) { return ldc::perfbench::Main(argc, argv); }
