#pragma once
// Scratch paths for tests.  Each name gets the process id, before its
// extension, so that suites running at once (say from a release and a
// sanitizer build tree) never share a directory or a file.

#include <unistd.h>

#include <filesystem>
#include <string>

namespace gsnp {

/// `name` under the system temp directory, made unique to this process:
/// "gsnp_x" -> "<tmp>/gsnp_x_<pid>", "gsnp_x.bin" -> "<tmp>/gsnp_x_<pid>.bin".
inline std::filesystem::path test_temp_path(const std::string& name) {
  const std::filesystem::path path(name);
  return std::filesystem::temp_directory_path() /
         (path.stem().string() + "_" + std::to_string(::getpid()) +
          path.extension().string());
}

}  // namespace gsnp
