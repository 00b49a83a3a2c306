// Per-test scratch file paths. ctest runs every TEST as its own process, so
// a fixed file name under TempDir() races under `ctest -j`; the test's name
// plus the process id keeps concurrent tests apart.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <string>

namespace camps::test_util {

/// TempDir()/<Suite>.<Test>.<pid><suffix> for the running test.
inline std::string temp_path(const std::string& suffix) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  return ::testing::TempDir() + "/" + info->test_suite_name() + "." +
         info->name() + "." + std::to_string(::getpid()) + suffix;
}

}  // namespace camps::test_util
