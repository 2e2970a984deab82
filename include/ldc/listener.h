// ldc::EventListener — typed callbacks for the engine's lifecycle events:
// flushes, compactions (UDC / Tiered / LDC merges), LDC link operations,
// frozen-file reclamation, and write stalls. Register listeners via
// Options::listeners before DB::Open; the DB invokes them synchronously on
// the thread performing the work. Begin callbacks fire just before the data
// work starts; Completed callbacks fire once the job's result is installed
// (a flush run while recovering the WAL reports after DB::Open installs
// its table). OnFrozenFileReclaimed fires once for each frozen file whose
// last slice link an LDC merge consumed, after that merge's
// OnCompactionCompleted and OnLdcMerge, with the merge's completion time;
// reopening a DB reports no reclaim again.
//
// Callbacks must not call back into the DB and should return quickly: they
// run inline with flush/compaction work. The info structs are only valid
// for the duration of the callback.

#ifndef LDC_INCLUDE_LISTENER_H_
#define LDC_INCLUDE_LISTENER_H_

#include <cstdint>
#include <string>

#include "ldc/options.h"

namespace ldc {

// Why a write was delayed or blocked (paper Fig. 1 / §II-C: compaction-
// induced stalls are the tail-latency driver LDC removes).
enum class WriteStallCause {
  kL0SlowdownTrigger = 0,  // >= l0_slowdown_trigger level-0 files: 1ms delay
  kL0StopTrigger,          // >= l0_stop_trigger level-0 files: hard stop
  kMemtableLimit,          // both memtables full, waiting on the flush
};

const char* WriteStallCauseName(WriteStallCause cause);

struct FlushJobInfo {
  std::string db_name;
  uint64_t file_number = 0;     // the level-0 (or pushed-down) output table
  uint64_t bytes_written = 0;   // size of the output table
  int output_level = 0;         // level the flushed file landed in
  uint64_t micros = 0;          // event timestamp (Env::NowMicros)
  uint64_t duration_micros = 0; // 0 in OnFlushBegin
};

struct CompactionJobInfo {
  std::string db_name;
  CompactionStyle style = CompactionStyle::kUdc;  // UDC / LDC / Tiered
  int input_level = 0;
  int output_level = 0;
  int num_input_files = 0;      // data sources read (files and slices)
  int num_output_files = 0;     // 0 in OnCompactionBegin
  uint64_t bytes_read = 0;      // estimated in OnCompactionBegin
  uint64_t bytes_written = 0;   // 0 in OnCompactionBegin
  uint64_t micros = 0;          // event timestamp
  uint64_t duration_micros = 0; // 0 in OnCompactionBegin
};

// An LDC link operation: metadata-only freeze of an upper-level file and
// attachment of its slices to lower-level tables (paper §III-B1).
struct LdcLinkInfo {
  std::string db_name;
  int upper_level = 0;           // level the file was linked down from
  uint64_t upper_file_number = 0;
  uint64_t upper_file_bytes = 0; // bytes frozen (no I/O was performed)
  int num_slices = 0;            // slices attached to lower-level files
  bool trivial_move = false;     // next level was empty: plain move, no links
  uint64_t micros = 0;
};

// An LDC lower-level-driven merge: one lower file rewritten together with
// all its linked slices (paper Algorithm 1).
struct LdcMergeInfo {
  std::string db_name;
  int level = 0;                  // level of the merged lower file
  uint64_t lower_file_number = 0;
  int num_slices = 0;             // linked slices consumed by the merge
  int num_output_files = 0;
  uint64_t bytes_read = 0;        // lower file + slice bytes
  uint64_t bytes_written = 0;
  int frozen_files_reclaimed = 0; // frozen files whose last link was consumed
  uint64_t micros = 0;
  uint64_t duration_micros = 0;
};

struct FrozenFileReclaimedInfo {
  std::string db_name;
  uint64_t file_number = 0;
  uint64_t file_size = 0;
  uint64_t micros = 0;
};

struct WriteStallInfo {
  std::string db_name;
  WriteStallCause cause = WriteStallCause::kL0SlowdownTrigger;
  uint64_t micros = 0;
  uint64_t duration_micros = 0;  // time this write spent delayed/blocked
};

class EventListener {
 public:
  EventListener() = default;
  virtual ~EventListener() = default;

  virtual void OnFlushBegin(const FlushJobInfo& /*info*/) {}
  virtual void OnFlushCompleted(const FlushJobInfo& /*info*/) {}

  // Fired by every policy that rewrites data: UDC compactions, tiered
  // merges, and LDC merges (which additionally fire OnLdcMerge).
  virtual void OnCompactionBegin(const CompactionJobInfo& /*info*/) {}
  virtual void OnCompactionCompleted(const CompactionJobInfo& /*info*/) {}

  virtual void OnLdcLink(const LdcLinkInfo& /*info*/) {}
  virtual void OnLdcMerge(const LdcMergeInfo& /*info*/) {}
  virtual void OnFrozenFileReclaimed(const FrozenFileReclaimedInfo& /*info*/) {}

  virtual void OnWriteStall(const WriteStallInfo& /*info*/) {}
};

}  // namespace ldc

#endif  // LDC_INCLUDE_LISTENER_H_
