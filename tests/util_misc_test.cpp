#include <gtest/gtest.h>

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "src/util/atomic_file.hpp"
#include "src/util/csv.hpp"
#include "src/util/env.hpp"
#include "src/util/str.hpp"

namespace iotax {
namespace {

TEST(Str, SplitKeepsEmptyFields) {
  const auto parts = util::split("a,,b,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[1], "");
  EXPECT_EQ(parts[2], "b");
  EXPECT_EQ(parts[3], "");
}

TEST(Str, SplitSingleField) {
  const auto parts = util::split("hello", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "hello");
}

TEST(Str, TrimWhitespace) {
  EXPECT_EQ(util::trim("  x y \t\n"), "x y");
  EXPECT_EQ(util::trim(""), "");
  EXPECT_EQ(util::trim("   "), "");
}

TEST(Str, StartsWith) {
  EXPECT_TRUE(util::starts_with("POSIX_BYTES_READ", "POSIX_"));
  EXPECT_FALSE(util::starts_with("MPIIO_X", "POSIX_"));
  EXPECT_FALSE(util::starts_with("PO", "POSIX_"));
}

TEST(Str, Join) {
  EXPECT_EQ(util::join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(util::join({}, ","), "");
  EXPECT_EQ(util::join({"solo"}, ","), "solo");
}

TEST(Str, ParseDoubleStrict) {
  EXPECT_DOUBLE_EQ(util::parse_double(" 3.25 "), 3.25);
  EXPECT_DOUBLE_EQ(util::parse_double("-1e-3"), -1e-3);
  EXPECT_THROW(util::parse_double("3.25x"), std::invalid_argument);
  EXPECT_THROW(util::parse_double(""), std::invalid_argument);
}

TEST(Str, ParseIntStrict) {
  EXPECT_EQ(util::parse_int("42"), 42);
  EXPECT_EQ(util::parse_int("-7"), -7);
  EXPECT_THROW(util::parse_int("4.2"), std::invalid_argument);
  EXPECT_THROW(util::parse_int("abc"), std::invalid_argument);
}

TEST(Str, FormatDouble) {
  EXPECT_EQ(util::format_double(3.14159, 2), "3.14");
  EXPECT_EQ(util::format_double(-0.5, 1), "-0.5");
}

TEST(Str, HumanBytes) {
  EXPECT_EQ(util::human_bytes(512), "512.0 B");
  EXPECT_EQ(util::human_bytes(1536), "1.50 KiB");
  EXPECT_EQ(util::human_bytes(1.5 * 1024 * 1024 * 1024), "1.50 GiB");
}

TEST(Csv, ParseSimpleLine) {
  const auto f = util::parse_csv_line("a,b,c");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a");
  EXPECT_EQ(f[2], "c");
}

TEST(Csv, ParseQuotedFields) {
  const auto f = util::parse_csv_line(R"("a,b","say ""hi""",plain)");
  ASSERT_EQ(f.size(), 3u);
  EXPECT_EQ(f[0], "a,b");
  EXPECT_EQ(f[1], "say \"hi\"");
  EXPECT_EQ(f[2], "plain");
}

TEST(Csv, EscapeRoundTrip) {
  const std::string tricky = "x,\"y\"";
  const auto escaped = util::csv_escape(tricky);
  const auto parsed = util::parse_csv_line(escaped);
  ASSERT_EQ(parsed.size(), 1u);
  EXPECT_EQ(parsed[0], tricky);
}

TEST(Csv, ReadWriteRoundTrip) {
  util::Csv csv;
  csv.header = {"name", "value"};
  csv.rows = {{"alpha", "1.5"}, {"with,comma", "2"}};
  std::ostringstream out;
  util::write_csv(out, csv);
  std::istringstream in(out.str());
  const auto back = util::read_csv(in);
  EXPECT_EQ(back.header, csv.header);
  EXPECT_EQ(back.rows, csv.rows);
}

TEST(Csv, ColumnLookup) {
  util::Csv csv;
  csv.header = {"a", "b"};
  EXPECT_EQ(csv.column("b"), 1u);
  EXPECT_THROW(csv.column("z"), std::out_of_range);
}

TEST(Csv, SkipsBlankLinesAndCr) {
  std::istringstream in("a,b\r\n\r\n1,2\r\n");
  const auto csv = util::read_csv(in);
  ASSERT_EQ(csv.rows.size(), 1u);
  EXPECT_EQ(csv.rows[0][1], "2");
}

TEST(Env, ScaleDefaultsToOne) {
  unsetenv("IOTAX_SCALE");
  EXPECT_DOUBLE_EQ(util::env_scale(), 1.0);
}

TEST(Env, ScaleParsesAndClamps) {
  setenv("IOTAX_SCALE", "2.5", 1);
  EXPECT_DOUBLE_EQ(util::env_scale(), 2.5);
  setenv("IOTAX_SCALE", "0.001", 1);
  EXPECT_DOUBLE_EQ(util::env_scale(), 0.05);
  setenv("IOTAX_SCALE", "garbage", 1);
  EXPECT_DOUBLE_EQ(util::env_scale(), 1.0);
  unsetenv("IOTAX_SCALE");
}

TEST(Env, ScaledCountAppliesFloor) {
  setenv("IOTAX_SCALE", "0.05", 1);
  EXPECT_EQ(util::scaled_count(1000, 200), 200u);
  unsetenv("IOTAX_SCALE");
  EXPECT_EQ(util::scaled_count(1000, 200), 1000u);
}

TEST(Env, EnvOrFallback) {
  unsetenv("IOTAX_NOT_SET");
  EXPECT_EQ(util::env_or("IOTAX_NOT_SET", "dflt"), "dflt");
  setenv("IOTAX_NOT_SET", "v", 1);
  EXPECT_EQ(util::env_or("IOTAX_NOT_SET", "dflt"), "v");
  unsetenv("IOTAX_NOT_SET");
}

// -- atomic artifact writes -------------------------------------------------

std::string atomic_test_path(const std::string& tag) {
  return ::testing::TempDir() + "atomic_file_" + tag + "_" +
         std::to_string(::getpid());
}

bool read_whole(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream buf;
  buf << in.rdbuf();
  *out = buf.str();
  return true;
}

/// Temp files write_file_atomic left beside `path` (removed with them).
std::size_t leftover_temps(const std::string& path, bool remove = false) {
  const std::filesystem::path p(path);
  const std::string prefix = p.filename().string() + ".tmp.";
  std::size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(
           p.parent_path())) {
    if (entry.path().filename().string().rfind(prefix, 0) != 0) continue;
    ++n;
    if (remove) std::filesystem::remove(entry.path());
  }
  return n;
}

TEST(AtomicFile, ConcurrentReaderSeesNoFileOrCompleteBytes) {
  const auto path = atomic_test_path("race");
  std::remove(path.c_str());
  // Two payloads of different length and content: a torn read shows up
  // as a prefix, a mix, or a wrong length.
  const std::string a(256 * 1024, 'a');
  const std::string b(256 * 1024 + 4093, 'b');
  constexpr int kWrites = 60;
  std::atomic<bool> done{false};
  std::thread writer([&] {
    for (int i = 0; i < kWrites; ++i) {
      util::write_file_atomic(path, i % 2 == 0 ? a : b);
    }
    done.store(true);
  });
  std::size_t complete = 0;
  std::string defect;
  while (defect.empty() && (!done.load() || complete == 0)) {
    std::string got;
    if (!read_whole(path, &got)) {
      // No file yet is fine; once one was there, it must stay.
      if (complete > 0) defect = "the file vanished between writes";
      continue;
    }
    if (got != a && got != b) {
      defect = "read " + std::to_string(got.size()) +
               " bytes that are neither payload";
    }
    ++complete;
  }
  writer.join();
  EXPECT_EQ(defect, "");
  std::string last;
  ASSERT_TRUE(read_whole(path, &last));
  EXPECT_EQ(last, kWrites % 2 == 0 ? b : a);
  EXPECT_EQ(leftover_temps(path), 0u);
  std::remove(path.c_str());
}

TEST(AtomicFile, ReplacesWholeFileAndCleansUpOnFailure) {
  const auto path = atomic_test_path("replace");
  util::write_file_atomic(path, "a longer first version\n");
  util::write_file_atomic(path, "v2\n");  // no stale tail survives
  std::string got;
  ASSERT_TRUE(read_whole(path, &got));
  EXPECT_EQ(got, "v2\n");
  util::write_file_atomic(path, "");
  ASSERT_TRUE(read_whole(path, &got));
  EXPECT_EQ(got, "");
  EXPECT_EQ(leftover_temps(path), 0u);
  std::remove(path.c_str());

  // A directory that does not exist: the error names the path.
  const auto missing = atomic_test_path("no_such_dir") + "/artifact";
  try {
    util::write_file_atomic(missing, "x");
    FAIL() << "write into a missing directory succeeded";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(missing), std::string::npos)
        << e.what();
  }
  // Renaming onto a directory fails after the temp file was written;
  // the temp file must not be left behind.
  const auto dir = atomic_test_path("is_a_dir");
  std::filesystem::create_directory(dir);
  EXPECT_THROW(util::write_file_atomic(dir, "x"), std::runtime_error);
  EXPECT_EQ(leftover_temps(dir), 0u);
  std::filesystem::remove(dir);
}

TEST(AtomicFile, KilledWriterLeavesOldOrNewBytesNeverAPrefix) {
  // A writer SIGKILLed part-way (an OOM kill, a supervisor giving up on
  // a hung step) must leave the target as it was or as the writer meant
  // it, never cut short. The child rewrites a large file in a loop, so
  // the kill lands inside a write; the killed temp file stays behind.
  const auto path = atomic_test_path("killed");
  const std::string old_bytes(1 << 20, 'o');
  const std::string new_bytes(32 << 20, 'n');
  std::size_t interrupted = 0;
  for (const int delay_ms : {0, 3, 8, 15, 30, 60}) {
    util::write_file_atomic(path, old_bytes);
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      while (true) util::write_file_atomic(path, new_bytes);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(delay_ms));
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFSIGNALED(status));
    std::string got;
    ASSERT_TRUE(read_whole(path, &got));
    EXPECT_TRUE(got == old_bytes || got == new_bytes)
        << "after a kill at " << delay_ms << " ms the file holds "
        << got.size() << " bytes, neither version";
    if (leftover_temps(path, /*remove=*/true) > 0) ++interrupted;
  }
  // At least one kill landed mid-write, or the test proved nothing.
  EXPECT_GE(interrupted, 1u);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace iotax
