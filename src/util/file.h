// Whole-file reads for the loaders of reports, snapshots, cache entries,
// model blobs and CSVs.

#ifndef ALEM_UTIL_FILE_H_
#define ALEM_UTIL_FILE_H_

#include <string>

namespace alem {

// Reads the whole file at `path` into *out with one read into a buffer
// sized from the file length. Returns false when the file cannot be opened
// or read in full, or is not a regular file; *out is then unspecified.
bool ReadWholeFile(const std::string& path, std::string* out);

}  // namespace alem

#endif  // ALEM_UTIL_FILE_H_
