// A test's scratch directory that does not outlive the test.
#ifndef TUFFY_TESTS_TEMP_DIR_H_
#define TUFFY_TESTS_TEMP_DIR_H_

#include <gtest/gtest.h>
#include <stdlib.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace tuffy {

/// Creates a fresh directory `<test temp dir>/<prefix>_XXXXXX` and
/// removes it, with everything under it, when destroyed. Declare it
/// before anything that writes into it (a session, a server, a
/// follower), so those are gone first.
class ScopedTempDir {
 public:
  explicit ScopedTempDir(const std::string& prefix)
      : path_(::testing::TempDir() + prefix + "_XXXXXX") {
    EXPECT_NE(::mkdtemp(path_.data()), nullptr) << path_;
  }
  ~ScopedTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace tuffy

#endif  // TUFFY_TESTS_TEMP_DIR_H_
