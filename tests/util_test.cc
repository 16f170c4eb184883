#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "util/result.h"
#include "util/rng.h"
#include "util/status.h"
#include "util/string_util.h"
#include "util/thread_pool.h"
#include "util/timer.h"
#include "util/union_find.h"

namespace tuffy {
namespace {

// ----------------------------------------------------------------- Status

TEST(StatusTest, DefaultIsOk) {
  Status st;
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(st.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status st = Status::InvalidArgument("bad thing");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message(), "bad thing");
  EXPECT_EQ(st.ToString(), "InvalidArgument: bad thing");
}

TEST(StatusTest, AllFactoryFunctionsSetTheirCode) {
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::IOError("x").code(), StatusCode::kIOError);
  EXPECT_EQ(Status::ParseError("x").code(), StatusCode::kParseError);
  EXPECT_EQ(Status::ResourceExhausted("x").code(),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::NotImplemented("x").code(), StatusCode::kNotImplemented);
}

Status FailIfNegative(int x) {
  if (x < 0) return Status::InvalidArgument("negative");
  return Status::OK();
}

Status Chained(int x) {
  TUFFY_RETURN_IF_ERROR(FailIfNegative(x));
  return Status::OK();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(Chained(1).ok());
  EXPECT_FALSE(Chained(-1).ok());
}

// ----------------------------------------------------------------- Result

Result<int> ParsePositive(int x) {
  if (x <= 0) return Status::InvalidArgument("not positive");
  return x * 2;
}

Result<int> UsesAssignOrReturn(int x) {
  TUFFY_ASSIGN_OR_RETURN(int doubled, ParsePositive(x));
  return doubled + 1;
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = ParsePositive(21);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = ParsePositive(-1);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnUnwrapsAndPropagates) {
  Result<int> ok = UsesAssignOrReturn(5);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 11);
  EXPECT_FALSE(UsesAssignOrReturn(0).ok());
}

TEST(ResultTest, TakeValueMoves) {
  Result<std::string> r(std::string("hello"));
  std::string s = r.TakeValue();
  EXPECT_EQ(s, "hello");
}

// ------------------------------------------------------------ string_util

TEST(StringUtilTest, JoinBasic) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
}

TEST(StringUtilTest, StrFormatFormats) {
  EXPECT_EQ(StrFormat("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(StrFormat("%.2f", 1.5), "1.50");
}

TEST(StringUtilTest, FormatBytesReadable) {
  EXPECT_EQ(FormatBytes(512), "512B");
  EXPECT_EQ(FormatBytes(2048), "2.0KB");
  EXPECT_EQ(FormatBytes(3500000), "3.5MB");
  EXPECT_EQ(FormatBytes(2100000000), "2.1GB");
}

// -------------------------------------------------------------------- Rng

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.Next(), b.Next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  bool any_diff = false;
  for (int i = 0; i < 10; ++i) any_diff |= (a.Next() != b.Next());
  EXPECT_TRUE(any_diff);
}

TEST(RngTest, UniformInBounds) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(rng.Uniform(10), 10u);
  }
}

TEST(RngTest, UniformIntInclusiveRange) {
  Rng rng(9);
  std::set<int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 3);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 3);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 7u);  // all values hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, BernoulliRoughlyCalibrated) {
  Rng rng(13);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) hits += rng.Bernoulli(0.3) ? 1 : 0;
  double rate = static_cast<double>(hits) / n;
  EXPECT_NEAR(rate, 0.3, 0.02);
}

// -------------------------------------------------------------- UnionFind

TEST(UnionFindTest, InitiallyDisjoint) {
  UnionFind uf(5);
  EXPECT_EQ(uf.CountSets(), 5u);
  EXPECT_FALSE(uf.Connected(0, 1));
}

TEST(UnionFindTest, UnionConnects) {
  UnionFind uf(5);
  uf.Union(0, 1);
  uf.Union(1, 2);
  EXPECT_TRUE(uf.Connected(0, 2));
  EXPECT_FALSE(uf.Connected(0, 3));
  EXPECT_EQ(uf.CountSets(), 3u);
}

TEST(UnionFindTest, SetSizeTracks) {
  UnionFind uf(6);
  uf.Union(0, 1);
  uf.Union(2, 3);
  uf.Union(0, 2);
  EXPECT_EQ(uf.SetSize(3), 4u);
  EXPECT_EQ(uf.SetSize(5), 1u);
}

TEST(UnionFindTest, UnionIdempotent) {
  UnionFind uf(3);
  uint32_t r1 = uf.Union(0, 1);
  uint32_t r2 = uf.Union(0, 1);
  EXPECT_EQ(r1, r2);
  EXPECT_EQ(uf.CountSets(), 2u);
}

TEST(UnionFindTest, LargeRandomChainConnectsAll) {
  const size_t n = 10000;
  UnionFind uf(n);
  for (size_t i = 1; i < n; ++i) uf.Union(i - 1, i);
  EXPECT_EQ(uf.CountSets(), 1u);
  EXPECT_TRUE(uf.Connected(0, n - 1));
}

// ------------------------------------------------------------- ThreadPool

TEST(ThreadPoolTest, ExecutesAllTasks) {
  ThreadPool pool(4);
  std::atomic<int> counter{0};
  for (int i = 0; i < 100; ++i) {
    pool.Submit([&counter] { counter.fetch_add(1); });
  }
  pool.WaitIdle();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPoolTest, WaitIdleOnEmptyPoolReturns) {
  ThreadPool pool(2);
  pool.WaitIdle();  // must not hang
  SUCCEED();
}

TEST(ThreadPoolTest, TasksRunConcurrently) {
  ThreadPool pool(4);
  std::atomic<int> in_flight{0};
  std::atomic<int> max_seen{0};
  for (int i = 0; i < 16; ++i) {
    pool.Submit([&] {
      int now = in_flight.fetch_add(1) + 1;
      int prev = max_seen.load();
      while (now > prev && !max_seen.compare_exchange_weak(prev, now)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
      in_flight.fetch_sub(1);
    });
  }
  pool.WaitIdle();
  EXPECT_GT(max_seen.load(), 1);
}

TEST(ThreadPoolTest, SubmitFirstRunsAheadOfQueuedTasksInOrder) {
  // One worker, held by a gate task while A and B queue behind it; X and
  // Y then go in first. With a null pool the group runs them inline, in
  // order.
  ThreadPool pool(1);
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::vector<std::string> order;
  auto record = [&](const char* name) {
    return [&, name] {
      std::lock_guard<std::mutex> lock(mu);
      order.push_back(name);
    };
  };
  {
    TaskGroup group(&pool);
    group.Submit([&] {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return open; });
    });
    group.Submit(record("A"));
    group.Submit(record("B"));
    group.SubmitFirst({record("X"), record("Y")});
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  EXPECT_EQ(order, (std::vector<std::string>{"X", "Y", "A", "B"}));

  order.clear();
  TaskGroup inline_group(nullptr);
  inline_group.SubmitFirst({record("X"), record("Y")});
  EXPECT_EQ(order, (std::vector<std::string>{"X", "Y"}));
}

// ------------------------------------------------------------------ Timer

TEST(TimerTest, MeasuresElapsed) {
  Timer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  double s = t.ElapsedSeconds();
  EXPECT_GE(s, 0.015);
  EXPECT_LT(s, 5.0);
  t.Restart();
  EXPECT_LT(t.ElapsedSeconds(), 0.015);
}

}  // namespace
}  // namespace tuffy
