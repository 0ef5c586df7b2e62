// ScopedTempDir: a fresh private directory (mkdtemp) that is removed, with
// everything in it, when the object goes out of scope. Tests, benches and
// examples that touch the filesystem write under one instead of a fixed
// path, so processes running in parallel (ctest -j, two copies of a bench)
// never share or delete each other's files.
#pragma once

#include <stdlib.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>
#include <utility>

#include "common/error.hpp"

namespace alba {

class ScopedTempDir {
 public:
  /// Creates <temp dir>/<prefix>_XXXXXX.
  explicit ScopedTempDir(std::string_view prefix = "alba_test") {
    std::string pattern = (std::filesystem::temp_directory_path() /
                           (std::string(prefix) + "_XXXXXX"))
                              .string();
    ALBA_CHECK(mkdtemp(pattern.data()) != nullptr)
        << "mkdtemp failed for " << pattern;
    path_ = std::move(pattern);
  }
  ~ScopedTempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const noexcept { return path_; }
  /// Path of `name` inside the directory (the file is not created).
  std::string file(std::string_view name) const {
    return path_ + "/" + std::string(name);
  }

 private:
  std::string path_;
};

}  // namespace alba
