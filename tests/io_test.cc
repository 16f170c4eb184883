#include <gtest/gtest.h>

#include <cstdio>

#include "mln/io.h"

namespace tuffy {
namespace {

TEST(IoTest, FileRoundTrip) {
  std::string path = testing::TempDir() + "/tuffy_io_test.txt";
  ASSERT_TRUE(WriteStringToFile(path, "hello\nworld\n").ok());
  auto back = ReadFileToString(path);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value(), "hello\nworld\n");
  std::remove(path.c_str());
}

TEST(IoTest, MissingFileFails) {
  auto result = ReadFileToString("/nonexistent/path/file.mln");
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIOError);
}

TEST(IoTest, LoadProgramAndEvidenceFiles) {
  std::string dir = testing::TempDir();
  std::string prog_path = dir + "/t_prog.mln";
  std::string ev_path = dir + "/t_ev.db";
  ASSERT_TRUE(WriteStringToFile(prog_path,
                                "*r(t, t)\n"
                                "q(t)\n"
                                "1.5 r(x, y), q(x) => q(y)\n")
                  .ok());
  ASSERT_TRUE(WriteStringToFile(ev_path, "r(A, B)\nq(A)\n").ok());

  auto program = LoadProgramFile(prog_path);
  ASSERT_TRUE(program.ok()) << program.status().ToString();
  MlnProgram p = program.TakeValue();
  EXPECT_EQ(p.num_predicates(), 2u);
  EXPECT_EQ(p.clauses().size(), 1u);

  EvidenceDb db;
  ASSERT_TRUE(LoadEvidenceFile(ev_path, &p, &db).ok());
  EXPECT_EQ(db.num_evidence(), 2u);
  std::remove(prog_path.c_str());
  std::remove(ev_path.c_str());
}

TEST(IoTest, ProgramFileParseErrorPropagates) {
  std::string path = testing::TempDir() + "/t_bad.mln";
  ASSERT_TRUE(WriteStringToFile(path, "1 undeclared(x)\n").ok());
  auto program = LoadProgramFile(path);
  EXPECT_FALSE(program.ok());
  EXPECT_EQ(program.status().code(), StatusCode::kParseError);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace tuffy
