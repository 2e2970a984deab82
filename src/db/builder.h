#ifndef LDC_DB_BUILDER_H_
#define LDC_DB_BUILDER_H_

#include "ldc/env.h"
#include "ldc/status.h"

namespace ldc {

struct Options;
struct FileMetaData;

class Iterator;
class TableCache;
class VersionEdit;

// Build a Table file from the contents of *iter. The generated file
// will be named according to meta->number. On success, the rest of
// *meta will be filled with metadata about the generated table.
// If no data is present in *iter, meta->file_size will be set to
// zero, and no Table file will be produced. The new table is read back
// in full through table_cache, which warms the block cache; if it cannot
// be read, the file is removed and the error returned. `hint` names the
// stream the table belongs to (kFlush for memtable flushes and recovery,
// kCompaction for merge outputs) so the Env can steer it to the right
// channel.
Status BuildTable(const std::string& dbname, Env* env, const Options& options,
                  TableCache* table_cache, Iterator* iter, FileMetaData* meta,
                  WriteHint hint);

}  // namespace ldc

#endif  // LDC_DB_BUILDER_H_
