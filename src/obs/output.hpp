// The one way observability output reaches a file: trace and metrics
// dumps, flight-recorder blackboxes, model-checker reports and bench result
// documents all write through write_file, so every writer reports a full
// disk or an unwritable path the same way.
#pragma once

#include <string>
#include <string_view>

namespace perseas::obs {

/// Writes `bytes` to `path` ("-" = standard output), replacing the file.
/// Parent directories are NOT created — the caller picks (and prepares) the
/// destination.  Throws std::runtime_error, prefixed with `who` and carrying
/// the errno string, when the file cannot be opened or when writing,
/// flushing or closing it fails (so a full disk is an error, not a
/// truncated file).
void write_file(std::string_view who, const std::string& path, std::string_view bytes);

}  // namespace perseas::obs
