// Crash- and reader-safe artifact writes.
//
// Daemons and scripts poll for files other iotax processes write: the
// fleet Supervisor and the smoke scripts wait for a shard's ready file,
// and `iotax serve` loads checkpoints that `train --out` or
// `monitor --candidate-out` produced. Writing such a file in place lets
// a reader open it between the truncate and the last write and see a
// prefix. write_file_atomic instead writes a sibling temp file, fsyncs
// it, and rename(2)s it over the path, so a reader sees either no file
// (or the previous one) or the complete new bytes — never a prefix,
// even if the writer is killed part-way.
#pragma once

#include <string>
#include <string_view>

namespace iotax::util {

/// Replace `path` with exactly `bytes`. The temp file lives in the same
/// directory (rename is only atomic within one file system) and is
/// removed on failure. Throws std::runtime_error naming the path and
/// the failing step.
void write_file_atomic(const std::string& path, std::string_view bytes);

}  // namespace iotax::util
