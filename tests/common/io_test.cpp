// atomic_write_file's crash-safety dance (tmp + fsync + rename + directory
// fsync), pinned step by step with the io_* fault points: a failure before
// the rename leaves the previous contents untouched, and a directory-fsync
// failure after the rename reports an error even though the new contents
// are already visible — the order proves the dir fsync really runs last.
#include "common/io.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "common/fault.h"

namespace rlccd {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::global().reset();
    // One file per test: ctest runs the cases as concurrent processes.
    path_ = std::string(::testing::TempDir()) + "/io_test_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".bin";
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  void TearDown() override {
    FaultInjector::global().reset();
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }

  std::string read_back() {
    std::string out;
    EXPECT_TRUE(read_file(path_, out).ok());
    return out;
  }

  std::string path_;
};

TEST_F(IoTest, RoundTripsBinaryContent) {
  std::string payload = "binary\0payload\xff\x01";
  payload.push_back('\0');
  ASSERT_TRUE(atomic_write_file(path_, payload).ok());
  EXPECT_EQ(read_back(), payload);
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(IoTest, OverwriteReplacesPreviousContent) {
  ASSERT_TRUE(atomic_write_file(path_, "old").ok());
  ASSERT_TRUE(atomic_write_file(path_, "new-and-longer").ok());
  EXPECT_EQ(read_back(), "new-and-longer");
}

TEST_F(IoTest, TmpWriteFailureLeavesTargetUntouchedAndRemovesTmp) {
  ASSERT_TRUE(atomic_write_file(path_, "survivor").ok());
  FaultInjector::global().arm({"io_write_tmp", 1, 1, 0.0});
  Status s = atomic_write_file(path_, "never lands");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(read_back(), "survivor");
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(IoTest, RenameFailureLeavesTargetUntouchedAndRemovesTmp) {
  ASSERT_TRUE(atomic_write_file(path_, "survivor").ok());
  FaultInjector::global().arm({"io_rename", 1, 1, 0.0});
  Status s = atomic_write_file(path_, "never lands");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(read_back(), "survivor");
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

// The directory fsync is the final step: when it fails, the rename has
// already happened (the new bytes are visible) but the writer still learns
// durability is not guaranteed. This pins both the failure reporting and
// the step order.
TEST_F(IoTest, DirFsyncFailureReportsErrorAfterRenameLanded) {
  ASSERT_TRUE(atomic_write_file(path_, "old").ok());
  FaultInjector::global().arm({"io_fsync_dir", 1, 1, 0.0});
  Status s = atomic_write_file(path_, "new");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  EXPECT_EQ(read_back(), "new");  // rename preceded the failed dir fsync
  EXPECT_FALSE(std::filesystem::exists(path_ + ".tmp"));
}

TEST_F(IoTest, EmptyPayloadIsWritable) {
  ASSERT_TRUE(atomic_write_file(path_, "").ok());
  EXPECT_EQ(read_back(), "");
}

}  // namespace
}  // namespace rlccd
