// Work-stealing thread pool for the verification pipeline.
//
// Tasks are distributed round-robin over per-worker deques; an idle worker
// first drains its own deque (FIFO), then steals from the back of its
// siblings' deques. Each task carries a CancelToken: a task whose token is
// already cancelled when it is dequeued is skipped (counted as done, never
// run), which is how a tripped time/schema budget discards the queued
// remainder of a verification run in O(1) per task.
//
// The pool is a building block, not a scheduler singleton: no global
// mutable state exists and independent pools do not interact. Several
// logical clients can share one pool by tagging their submissions with a
// TaskGroup and waiting on the group instead of the whole pool — this is
// how `ctaver table2` keeps every protocol's obligations in flight at once
// while still collecting each protocol's results separately.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "util/cancel.h"

namespace ctaver::util {

/// Completion tracking for a subset of a pool's tasks: submissions tagged
/// with a group can be awaited independently of everything else running on
/// the pool. A group may be reused for several submission rounds; it must
/// outlive the tasks tagged with it.
class TaskGroup {
 public:
  /// Blocks until every task submitted with this group has run or been
  /// skipped (cancelled while queued).
  void wait();

 private:
  friend class ThreadPool;
  void add_one();
  void finish_one();

  std::mutex mu_;
  std::condition_variable cv_;
  std::size_t pending_ = 0;
};

class ThreadPool {
 public:
  using Task = std::function<void()>;

  /// Spawns `workers` threads (0 = hardware_workers()).
  explicit ThreadPool(int workers = 0);
  /// Waits for all submitted tasks, then joins the workers.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. If `token` is cancelled before the task is dequeued,
  /// the task is dropped without running (a default token never is). A
  /// non-null `group` (not owned; must outlive the task) tags the task so
  /// the submitter can TaskGroup::wait() on its own tasks while other
  /// clients keep using the pool. Tasks must not throw; wrap bodies that
  /// can (the pipeline parks each exception on its own task's slot).
  void submit(Task fn, CancelToken token = {}, TaskGroup* group = nullptr);

  /// Blocks until every task submitted so far has run or been skipped.
  /// The pool stays usable for further submit() rounds afterwards.
  void wait();

  /// Drains the tasks tagged with `group` on the CALLING thread, then blocks
  /// until the group's in-flight remainder (running on pool workers)
  /// completes. This is how a pool task that fans out subtasks onto its own
  /// pool waits without deadlocking: the blocked slot spills into running
  /// its own subtasks instead of parking while they starve in the queues.
  /// Only tasks of `group` are executed here, so the call never recurses
  /// into unrelated (potentially blocking) work; progress is guaranteed
  /// because group tasks themselves never wait on the pool.
  void run_group(TaskGroup& group);

  [[nodiscard]] int workers() const {
    return static_cast<int>(threads_.size());
  }

  /// Lifetime scheduling health of this pool. All counts are cumulative
  /// since construction and purely diagnostic — nothing reads them back
  /// into scheduling decisions, so they cannot perturb report bytes.
  struct Stats {
    std::uint64_t submitted = 0;  // tasks enqueued
    std::uint64_t run = 0;        // executed (by workers or run_group)
    std::uint64_t skipped = 0;    // dequeued with an already-tripped token
    std::uint64_t stolen = 0;     // run-or-skipped from a sibling's deque
    std::uint64_t spilled = 0;    // drained by run_group() callers
    std::uint64_t max_queue_depth = 0;  // high-water mark over all deques
    /// Tasks executed by each pool worker (spills excluded, so the values
    /// sum to run - spilled): how evenly the pool spread its tasks.
    std::vector<std::uint64_t> tasks_per_worker;
  };
  /// Safe to call while the pool is busy; counters are read relaxed, so a
  /// concurrent snapshot can be a few events stale but never torn.
  [[nodiscard]] Stats stats() const;

  /// std::thread::hardware_concurrency with a sane fallback.
  static int hardware_workers();

 private:
  struct Item {
    Task fn;
    CancelToken token;
    TaskGroup* group = nullptr;
  };
  struct WorkerQueue {
    std::mutex mu;
    std::deque<Item> q;
    std::size_t max_depth = 0;  // guarded by mu
  };

  void worker_loop(std::size_t self);
  bool try_pop(std::size_t self, Item& out);
  bool try_pop_group(const TaskGroup* group, Item& out);
  void finish_one();
  /// Runs or skips a dequeued item and bumps the matching stats/metrics.
  /// `worker` is the executing pool worker, or SIZE_MAX for run_group
  /// callers (spills).
  void execute(Item& it, std::size_t worker);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;

  // Diagnostic counters (see Stats). Writers use relaxed RMWs: these sit
  // off the queue locks on purpose so stats never add contention.
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> run_{0};
  std::atomic<std::uint64_t> skipped_{0};
  std::atomic<std::uint64_t> stolen_{0};
  std::atomic<std::uint64_t> spilled_{0};
  /// Tasks run per worker; sized once in the constructor (atomics cannot
  /// live in a resizable vector).
  std::unique_ptr<std::atomic<std::uint64_t>[]> worker_run_;

  std::mutex mu_;                  // guards sleeping / wait() coordination
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::size_t queued_ = 0;         // tasks sitting in some deque
  std::size_t pending_ = 0;        // submitted and not yet finished/skipped
  std::size_t next_ = 0;           // round-robin submission cursor
  bool stop_ = false;
};

}  // namespace ctaver::util
