#include "util/thread_pool.h"

#include <algorithm>

#include "obs/metrics.h"

namespace ctaver::util {

void TaskGroup::add_one() {
  std::lock_guard<std::mutex> lock(mu_);
  ++pending_;
}

void TaskGroup::finish_one() {
  // Notify while holding the lock: with stack-local groups (check_spec's
  // enumeration workers) the waiter may destroy the group the moment
  // wait() returns, so an after-unlock notify would touch a dead cv.
  std::lock_guard<std::mutex> lock(mu_);
  if (--pending_ == 0) cv_.notify_all();
}

void TaskGroup::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [&] { return pending_ == 0; });
}

int ThreadPool::hardware_workers() {
  unsigned hw = std::thread::hardware_concurrency();
  return static_cast<int>(hw == 0 ? 4 : hw);
}

ThreadPool::ThreadPool(int workers) {
  int n = workers > 0 ? workers : hardware_workers();
  worker_run_ =
      std::make_unique<std::atomic<std::uint64_t>[]>(static_cast<std::size_t>(n));
  queues_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  threads_.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    threads_.emplace_back(
        [this, i] { worker_loop(static_cast<std::size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  wait();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void ThreadPool::submit(Task fn, CancelToken token, TaskGroup* group) {
  if (group != nullptr) group->add_one();
  Item it{std::move(fn), std::move(token), group};
  std::size_t victim;
  {
    std::lock_guard<std::mutex> lock(mu_);
    victim = next_++ % queues_.size();
    ++queued_;
    ++pending_;
  }
  std::size_t depth;
  {
    std::lock_guard<std::mutex> lock(queues_[victim]->mu);
    queues_[victim]->q.push_back(std::move(it));
    depth = queues_[victim]->q.size();
    queues_[victim]->max_depth = std::max(queues_[victim]->max_depth, depth);
  }
  submitted_.fetch_add(1, std::memory_order_relaxed);
  obs::add(obs::Counter::kPoolSubmits);
  obs::gauge_max(obs::Gauge::kPoolMaxQueueDepth, depth);
  cv_work_.notify_one();
}

void ThreadPool::wait() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] { return pending_ == 0; });
}

bool ThreadPool::try_pop(std::size_t self, Item& out) {
  const std::size_t n = queues_.size();
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t i = (self + k) % n;
    WorkerQueue& wq = *queues_[i];
    {
      std::lock_guard<std::mutex> lock(wq.mu);
      if (wq.q.empty()) continue;
      if (k == 0) {
        // Owner side: FIFO keeps canonical submission order locally.
        out = std::move(wq.q.front());
        wq.q.pop_front();
      } else {
        // Thief side: steal from the opposite end to reduce contention.
        out = std::move(wq.q.back());
        wq.q.pop_back();
        stolen_.fetch_add(1, std::memory_order_relaxed);
        obs::add(obs::Counter::kPoolSteals);
      }
    }
    std::lock_guard<std::mutex> lock(mu_);
    --queued_;
    return true;
  }
  return false;
}

bool ThreadPool::try_pop_group(const TaskGroup* group, Item& out) {
  for (std::size_t i = 0; i < queues_.size(); ++i) {
    WorkerQueue& wq = *queues_[i];
    {
      std::lock_guard<std::mutex> lock(wq.mu);
      auto it = std::find_if(wq.q.begin(), wq.q.end(), [&](const Item& x) {
        return x.group == group;
      });
      if (it == wq.q.end()) continue;
      out = std::move(*it);
      wq.q.erase(it);
    }
    std::lock_guard<std::mutex> lock(mu_);
    --queued_;
    return true;
  }
  return false;
}

void ThreadPool::run_group(TaskGroup& group) {
  for (;;) {
    Item it;
    if (!try_pop_group(&group, it)) break;
    spilled_.fetch_add(1, std::memory_order_relaxed);
    obs::add(obs::Counter::kPoolGroupSpills);
    execute(it, SIZE_MAX);
    if (it.group != nullptr) it.group->finish_one();
    finish_one();
  }
  // No group task is queued anymore (only this thread and the workers pop,
  // and nobody re-enqueues group tasks), so the remainder is in flight on
  // workers: a plain group wait cannot deadlock.
  group.wait();
}

void ThreadPool::finish_one() {
  std::size_t left;
  {
    std::lock_guard<std::mutex> lock(mu_);
    left = --pending_;
  }
  if (left == 0) cv_done_.notify_all();
}

void ThreadPool::execute(Item& it, std::size_t worker) {
  // A task whose token tripped while queued is skipped, not run.
  if (!it.token.cancelled()) {
    run_.fetch_add(1, std::memory_order_relaxed);
    if (worker != SIZE_MAX) {
      worker_run_[worker].fetch_add(1, std::memory_order_relaxed);
    }
    obs::add(obs::Counter::kPoolTasksRun);
    it.fn();
  } else {
    skipped_.fetch_add(1, std::memory_order_relaxed);
    obs::add(obs::Counter::kPoolTasksSkipped);
  }
}

ThreadPool::Stats ThreadPool::stats() const {
  Stats s;
  s.submitted = submitted_.load(std::memory_order_relaxed);
  s.run = run_.load(std::memory_order_relaxed);
  s.skipped = skipped_.load(std::memory_order_relaxed);
  s.stolen = stolen_.load(std::memory_order_relaxed);
  s.spilled = spilled_.load(std::memory_order_relaxed);
  for (const auto& wq : queues_) {
    std::lock_guard<std::mutex> lock(wq->mu);
    s.max_queue_depth =
        std::max(s.max_queue_depth,
                 static_cast<std::uint64_t>(wq->max_depth));
  }
  s.tasks_per_worker.reserve(threads_.size());
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    s.tasks_per_worker.push_back(
        worker_run_[i].load(std::memory_order_relaxed));
  }
  return s;
}

void ThreadPool::worker_loop(std::size_t self) {
  for (;;) {
    Item it;
    if (try_pop(self, it)) {
      execute(it, self);
      if (it.group != nullptr) it.group->finish_one();
      finish_one();
      continue;
    }
    std::unique_lock<std::mutex> lock(mu_);
    cv_work_.wait(lock, [&] { return stop_ || queued_ > 0; });
    if (stop_ && queued_ == 0) return;
  }
}

}  // namespace ctaver::util
