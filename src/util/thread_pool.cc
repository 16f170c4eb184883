#include "util/thread_pool.h"

#include "obs/metrics.h"

namespace tuffy {

namespace {
// One process-wide depth gauge across all pools: serving uses a single
// pool, and a global view is what the scrape wants anyway.
Gauge* QueueDepth() {
  static Gauge* g =
      MetricsRegistry::Global().GetGauge("threadpool.queue.depth");
  return g;
}
}  // namespace

ThreadPool::ThreadPool(size_t num_threads) {
  if (num_threads == 0) num_threads = 1;
  workers_.reserve(num_threads);
  for (size_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  cv_task_.notify_all();
  for (auto& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(task));
    QueueDepth()->Set(static_cast<int64_t>(queue_.size()));
  }
  cv_task_.notify_one();
}

void ThreadPool::SubmitFirst(std::vector<std::function<void()>> tasks) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.insert(queue_.begin(), std::make_move_iterator(tasks.begin()),
                  std::make_move_iterator(tasks.end()));
    QueueDepth()->Set(static_cast<int64_t>(queue_.size()));
  }
  cv_task_.notify_all();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::WorkerLoop() {
  while (true) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_task_.wait(lock, [this] { return shutdown_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (shutdown_) return;
        continue;
      }
      task = std::move(queue_.front());
      queue_.pop_front();
      QueueDepth()->Set(static_cast<int64_t>(queue_.size()));
      ++in_flight_;
    }
    task();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --in_flight_;
      if (queue_.empty() && in_flight_ == 0) cv_idle_.notify_all();
    }
  }
}

std::unique_ptr<ThreadPool> MakeWorkerPool(int num_threads) {
  if (num_threads <= 1) return nullptr;
  return std::make_unique<ThreadPool>(static_cast<size_t>(num_threads));
}

void TaskGroup::Submit(std::function<void()> task) {
  if (pool_ == nullptr) {
    task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++pending_;
  }
  pool_->Submit([this, task = std::move(task)] {
    task();
    std::lock_guard<std::mutex> lock(mu_);
    if (--pending_ == 0) cv_done_.notify_all();
  });
}

void TaskGroup::SubmitFirst(std::vector<std::function<void()>> tasks) {
  if (pool_ == nullptr) {
    for (std::function<void()>& task : tasks) task();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    pending_ += tasks.size();
  }
  for (std::function<void()>& task : tasks) {
    task = [this, task = std::move(task)] {
      task();
      std::lock_guard<std::mutex> lock(mu_);
      if (--pending_ == 0) cv_done_.notify_all();
    };
  }
  pool_->SubmitFirst(std::move(tasks));
}

void TaskGroup::Wait() {
  if (pool_ == nullptr) return;
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [this] { return pending_ == 0; });
}

}  // namespace tuffy
