#ifndef HASHJOIN_UTIL_THREAD_POOL_H_
#define HASHJOIN_UTIL_THREAD_POOL_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace hashjoin {

/// A small work-stealing thread pool for the morsel-driven executor.
/// Each worker owns a deque; Submit distributes tasks round-robin, a
/// worker pops from the front of its own deque and steals from the back
/// of a victim's when its own runs dry. Tasks receive the worker index
/// that runs them, so callers can keep per-worker state (memory models,
/// output sinks) without any locking on the hot path.
///
/// Two submission families coexist:
///  - plain Submit()/Wait(): the original per-invocation path (a pool
///    created, used, and destroyed by one executor run);
///  - TaskGroup submissions: several independent clients (concurrent
///    queries admitted by the join scheduler) share ONE pool. Each
///    client submits into its own group; an idle worker picks the group
///    with the fewest tasks currently in service, so the pool's workers
///    spread fairly across active groups instead of draining whichever
///    query submitted first. WaitGroup() waits for one group only.
///
/// Lock discipline (checked by -Wthread-safety under Clang): `mu_`
/// guards the sleep/wake and completion state, each WorkerQueue's `mu`
/// guards that deque, and `groups_mu_` guards the group registry plus
/// every TaskGroup's members. `mu_` and a queue/group mutex are never
/// held together except queue-after-mu_ in Submit; workers take them
/// strictly one at a time.
class ThreadPool {
 private:
  // Declared before TaskGroup so the HJ_GUARDED_BY(pool_->groups_mu_)
  // annotations below name an already-declared member.
  Mutex groups_mu_;

 public:
  using Task = std::function<void(uint32_t worker_id)>;

  /// One client's share of a shared pool. Created by CreateGroup();
  /// lifetime is managed by shared_ptr — the pool keeps a weak reference
  /// and prunes groups that clients dropped (on every CreateGroup and
  /// whenever a worker looks for group work). All members are guarded by
  /// the owning pool's groups_mu_ (one lock for the registry and the
  /// groups: the fair-share pick must compare queue depths across all
  /// groups atomically).
  class TaskGroup {
   public:
    TaskGroup() = default;
    TaskGroup(const TaskGroup&) = delete;
    TaskGroup& operator=(const TaskGroup&) = delete;

   private:
    friend class ThreadPool;
    ThreadPool* pool_ = nullptr;  // set once by CreateGroup
    std::deque<Task> tasks HJ_GUARDED_BY(pool_->groups_mu_);
    /// Tasks currently executing on a worker.
    uint32_t running HJ_GUARDED_BY(pool_->groups_mu_) = 0;
    /// Queued + running.
    uint64_t pending HJ_GUARDED_BY(pool_->groups_mu_) = 0;
    CondVar done_cv;  // signaled when pending hits 0
  };

  explicit ThreadPool(uint32_t num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Waits for all submitted tasks (both families), then joins the
  /// workers.
  ~ThreadPool();

  uint32_t num_workers() const { return uint32_t(workers_.size()); }

  /// Enqueues a task. Safe to call from any thread (including from
  /// inside a task); tasks submitted before Wait() returns are covered
  /// by it.
  void Submit(Task task) HJ_EXCLUDES(mu_);

  /// Blocks until every submitted task has finished executing.
  void Wait() HJ_EXCLUDES(mu_);

  /// Registers a new fair-share group on this pool.
  std::shared_ptr<TaskGroup> CreateGroup() HJ_EXCLUDES(groups_mu_);

  /// Enqueues a task into `group`. Safe from any thread.
  void Submit(const std::shared_ptr<TaskGroup>& group, Task task)
      HJ_EXCLUDES(mu_, groups_mu_);

  /// Blocks until every task submitted to `group` has finished. Other
  /// groups' tasks are not waited on.
  void WaitGroup(TaskGroup* group) HJ_EXCLUDES(groups_mu_);

 private:
  /// One worker's deque. Owner pops the front (LIFO-ish locality does
  /// not matter here: morsels are independent); thieves take the back,
  /// which holds the largest still-queued morsels under the
  /// largest-first submission order.
  struct WorkerQueue {
    Mutex mu;
    std::deque<Task> tasks HJ_GUARDED_BY(mu);
  };

  bool TryGetTask(uint32_t self, Task* out);
  /// Fair group pick: among groups with queued tasks, the one with the
  /// fewest running. Returns the owning group so the worker can retire
  /// the task against it.
  std::shared_ptr<TaskGroup> TryGetGroupTask(Task* out)
      HJ_EXCLUDES(groups_mu_);
  void FinishGroupTask(TaskGroup* group) HJ_EXCLUDES(groups_mu_);
  void WorkerLoop(uint32_t self);
  /// Publishes one enqueued task to sleeping workers: bumps queued_
  /// under mu_ (the workers' sleep predicate is checked under mu_, so a
  /// bump outside it could land between a worker's predicate check and
  /// its park — a lost wakeup) and notifies.
  void PublishQueued() HJ_EXCLUDES(mu_);

  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> workers_;

  Mutex mu_;  // guards pending_/stop_ and orders queued_ with the condvars
  CondVar work_cv_;
  CondVar done_cv_;
  uint64_t pending_ HJ_GUARDED_BY(mu_) = 0;  // submitted, not yet finished
  /// Submitted but not yet dequeued. Atomic so TryGetTask can decrement
  /// without mu_, but *increments* happen under mu_ (see PublishQueued).
  std::atomic<int64_t> queued_{0};
  std::atomic<uint32_t> next_queue_{0};
  bool stop_ HJ_GUARDED_BY(mu_) = false;

  std::vector<std::weak_ptr<TaskGroup>> groups_ HJ_GUARDED_BY(groups_mu_);
};

/// The executor handle the join code paths run on: either a private pool
/// (the original one-pool-per-join mode) or one fair-share group of a
/// pool shared across concurrent queries. Submit/Wait have the same
/// semantics either way — Wait() covers exactly this executor's tasks —
/// so GraceHashJoin and friends are agnostic to which mode they run in.
class PoolExecutor {
 public:
  /// Private-pool mode: owns a fresh pool of `num_threads` workers.
  explicit PoolExecutor(uint32_t num_threads)
      : owned_(std::make_unique<ThreadPool>(num_threads)),
        pool_(owned_.get()),
        group_(pool_->CreateGroup()) {}

  /// Shared-pool mode: one fair-share group of `shared` (must outlive
  /// this executor).
  explicit PoolExecutor(ThreadPool* shared)
      : pool_(shared), group_(pool_->CreateGroup()) {}

  PoolExecutor(const PoolExecutor&) = delete;
  PoolExecutor& operator=(const PoolExecutor&) = delete;

  ~PoolExecutor() { Wait(); }

  uint32_t num_workers() const { return pool_->num_workers(); }

  void Submit(ThreadPool::Task task) {
    pool_->Submit(group_, std::move(task));
  }

  /// Waits for this executor's tasks only (not the whole shared pool).
  void Wait() { pool_->WaitGroup(group_.get()); }

 private:
  std::unique_ptr<ThreadPool> owned_;
  ThreadPool* pool_;
  std::shared_ptr<ThreadPool::TaskGroup> group_;
};

}  // namespace hashjoin

#endif  // HASHJOIN_UTIL_THREAD_POOL_H_
