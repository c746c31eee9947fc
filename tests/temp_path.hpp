// Per-process, per-test temp paths for the test binaries.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace axnn::test_util {

/// A temp path unique to this process and test: `ctest -j` runs every test
/// in its own process, so fixed names would let one test delete, rename or
/// read another's files. From SetUpTestSuite (no current test) the suite
/// name stands in for the test name.
inline std::string unique_temp_path(const std::string& stem) {
  const ::testing::UnitTest* ut = ::testing::UnitTest::GetInstance();
  std::string name = stem + "_" + std::to_string(::getpid());
  if (const ::testing::TestInfo* info = ut->current_test_info())
    name += std::string("_") + info->test_suite_name() + "." + info->name();
  else if (const ::testing::TestSuite* suite = ut->current_test_suite())
    name += std::string("_") + suite->name();
  for (char& c : name)
    if (c == '/') c = '_';
  return (std::filesystem::temp_directory_path() / name).string();
}

}  // namespace axnn::test_util
