#include "util/file.h"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <system_error>

namespace alem {

bool ReadWholeFile(const std::string& path, std::string* out) {
  // file_size fails for a missing path and for anything but a regular file
  // (a directory's seek-to-end length is not its size).
  std::error_code ec;
  const std::uintmax_t size = std::filesystem::file_size(path, ec);
  if (ec) return false;
  std::ifstream file(path, std::ios::binary);
  out->assign(static_cast<size_t>(size), '\0');
  file.read(out->data(), static_cast<std::streamsize>(size));
  return file.good();
}

}  // namespace alem
