#include "obs/output.hpp"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perseas::obs {

void write_file(std::string_view who, const std::string& path, std::string_view bytes) {
  const bool to_stdout = path == "-";
  errno = 0;
  std::FILE* f = to_stdout ? stdout : std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    throw std::runtime_error(std::string(who) + ": cannot open '" + path +
                             "': " + std::strerror(errno) +
                             " (parent directories are not created)");
  }
  // The first failure's errno wins; a buffered write to a full disk only
  // fails at the flush.
  bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) == bytes.size();
  int err = ok ? 0 : errno;
  if (std::fflush(f) != 0 && ok) {
    ok = false;
    err = errno;
  }
  if (!to_stdout && std::fclose(f) != 0 && ok) {
    ok = false;
    err = errno;
  }
  if (!ok) {
    throw std::runtime_error(std::string(who) + ": write to '" + path +
                             "' failed: " + std::strerror(err != 0 ? err : EIO));
  }
}

}  // namespace perseas::obs
