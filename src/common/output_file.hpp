#pragma once

#include <fstream>
#include <ios>
#include <stdexcept>
#include <string>

namespace smiless {

/// A file opened for writing whose failed writes are errors. The
/// constructor throws `cannot write <path>` when the file cannot be opened,
/// and close() flushes and closes it and throws the same unless every byte
/// reached the file. A full disk (or /dev/full) accepts the open and fails
/// only when the buffered bytes are handed on, so a writer that does not
/// call close() loses that error.
class OutputFile {
 public:
  explicit OutputFile(const std::string& path, std::ios::openmode mode = std::ios::out)
      : path_(path), os_(path, mode) {
    check();
  }

  std::ostream& stream() { return os_; }

  void close() {
    os_.close();
    check();
  }

 private:
  void check() const {
    if (!os_.good()) throw std::runtime_error("cannot write " + path_);
  }

  std::string path_;
  std::ofstream os_;
};

}  // namespace smiless
