#ifndef TUFFY_UTIL_THREAD_POOL_H_
#define TUFFY_UTIL_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace tuffy {

/// Fixed-size worker pool used by the partition scheduler to run WalkSAT
/// on several MRF components in parallel (Tuffy Section 3.3, Table 7).
class ThreadPool {
 public:
  explicit ThreadPool(size_t num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some worker.
  void Submit(std::function<void()> task);

  /// Enqueues `tasks`, in their order, ahead of every queued task: work
  /// that later work waits on (a rule's morsels, whose merge gates every
  /// later rule's) runs before work queued earlier.
  void SubmitFirst(std::vector<std::function<void()>> tasks);

  /// Blocks until every submitted task has finished executing.
  void WaitIdle();

  size_t num_threads() const { return workers_.size(); }

 private:
  void WorkerLoop();

  std::vector<std::thread> workers_;
  std::deque<std::function<void()>> queue_;
  std::mutex mu_;
  std::condition_variable cv_task_;
  std::condition_variable cv_idle_;
  size_t in_flight_ = 0;
  bool shutdown_ = false;
};

/// The most workers a thread count read from outside may ask for
/// (tuffy_cli -threads, EngineOptions and SessionOptions::num_threads,
/// ServerOptions::num_workers). Their validators refuse a larger count
/// with InvalidArgument before any thread starts.
constexpr int kMaxWorkerThreads = 256;

/// A pool of `num_threads` workers, or null for one thread: TaskGroup
/// then runs tasks inline, with no worker hand-off.
std::unique_ptr<ThreadPool> MakeWorkerPool(int num_threads);

/// Completion tracking for one client's batch of tasks on a *shared*
/// ThreadPool. Several serving sessions submit work to the same pool
/// concurrently; ThreadPool::WaitIdle would make each wait for everyone's
/// tasks, so a session instead submits through its own TaskGroup and
/// waits for just its batch. With a null pool, tasks run inline on the
/// submitting thread (the single-threaded configuration).
class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  ~TaskGroup() { Wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Submit(std::function<void()> task);
  /// ThreadPool::SubmitFirst through this group; inline, in order, with a
  /// null pool.
  void SubmitFirst(std::vector<std::function<void()>> tasks);

  /// Blocks until every task submitted through *this* group has finished.
  void Wait();

 private:
  ThreadPool* pool_;
  std::mutex mu_;
  std::condition_variable cv_done_;
  size_t pending_ = 0;
};

}  // namespace tuffy

#endif  // TUFFY_UTIL_THREAD_POOL_H_
