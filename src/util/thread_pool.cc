#include "util/thread_pool.h"

#include <limits>

#include "util/logging.h"

namespace hashjoin {

ThreadPool::ThreadPool(uint32_t num_threads) {
  HJ_CHECK(num_threads >= 1);
  queues_.reserve(num_threads);
  for (uint32_t i = 0; i < num_threads; ++i) {
    queues_.push_back(std::make_unique<WorkerQueue>());
  }
  workers_.reserve(num_threads);
  for (uint32_t i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

ThreadPool::~ThreadPool() {
  Wait();
  {
    MutexLock lk(mu_);
    stop_ = true;
  }
  work_cv_.NotifyAll();
  for (auto& w : workers_) w.join();
}

void ThreadPool::PublishQueued() {
  // The increment must be ordered with the workers' sleep predicate,
  // which is evaluated under mu_: an increment outside the lock can
  // land between a worker's predicate check (saw 0, decided to sleep)
  // and its park — the notify then fires before the wait begins and the
  // task is stranded until the next Submit (observed as a Wait()
  // deadlock). Taking mu_ around the bump forces the increment to
  // happen either before the predicate check (worker stays awake) or
  // after the worker parked (notify is delivered).
  {
    MutexLock lk(mu_);
    queued_.fetch_add(1, std::memory_order_release);
  }
  work_cv_.NotifyOne();
}

void ThreadPool::Submit(Task task) {
  uint32_t q = next_queue_.fetch_add(1, std::memory_order_relaxed) %
               uint32_t(queues_.size());
  {
    // pending_ goes up before the task becomes visible, so a fast worker
    // finishing it immediately can never drive the counter below zero.
    MutexLock lk(mu_);
    ++pending_;
  }
  {
    MutexLock lk(queues_[q]->mu);
    queues_[q]->tasks.push_back(std::move(task));
  }
  PublishQueued();
}

std::shared_ptr<ThreadPool::TaskGroup> ThreadPool::CreateGroup() {
  auto group = std::make_shared<TaskGroup>();
  group->pool_ = this;
  MutexLock lk(groups_mu_);
  // Workers prune dropped groups only while they look for group work,
  // so a pool that sits idle would otherwise keep one dead group per
  // client (a long-running service: one per query) forever.
  std::erase_if(groups_, [](const std::weak_ptr<TaskGroup>& g) {
    return g.expired();
  });
  groups_.push_back(group);
  return group;
}

void ThreadPool::Submit(const std::shared_ptr<TaskGroup>& group, Task task) {
  HJ_CHECK(group != nullptr);
  {
    MutexLock lk(mu_);
    ++pending_;
  }
  {
    MutexLock lk(groups_mu_);
    group->tasks.push_back(std::move(task));
    ++group->pending;
  }
  PublishQueued();
}

void ThreadPool::WaitGroup(TaskGroup* group) {
  MutexLock lk(groups_mu_);
  while (group->pending != 0) group->done_cv.Wait(lk);
}

bool ThreadPool::TryGetTask(uint32_t self, Task* out) {
  // Own queue first (front), then steal from the back of the others'.
  {
    WorkerQueue& q = *queues_[self];
    MutexLock lk(q.mu);
    if (!q.tasks.empty()) {
      *out = std::move(q.tasks.front());
      q.tasks.pop_front();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  for (size_t i = 1; i < queues_.size(); ++i) {
    WorkerQueue& q = *queues_[(self + i) % queues_.size()];
    MutexLock lk(q.mu);
    if (!q.tasks.empty()) {
      *out = std::move(q.tasks.back());
      q.tasks.pop_back();
      queued_.fetch_sub(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

std::shared_ptr<ThreadPool::TaskGroup> ThreadPool::TryGetGroupTask(
    Task* out) {
  MutexLock lk(groups_mu_);
  // Pick the group with the fewest tasks in service among those with
  // queued work — each active group converges to an equal worker share.
  std::shared_ptr<TaskGroup> best;
  uint32_t best_running = std::numeric_limits<uint32_t>::max();
  size_t live = 0;
  for (auto& weak : groups_) {
    std::shared_ptr<TaskGroup> g = weak.lock();
    if (g == nullptr) continue;  // client gone, prune below
    groups_[live++] = g;
    if (!g->tasks.empty() && g->running < best_running) {
      best = g;
      best_running = g->running;
    }
  }
  groups_.resize(live);
  if (best == nullptr) return nullptr;
  *out = std::move(best->tasks.front());
  best->tasks.pop_front();
  ++best->running;
  queued_.fetch_sub(1, std::memory_order_relaxed);
  return best;
}

void ThreadPool::FinishGroupTask(TaskGroup* group) {
  MutexLock lk(groups_mu_);
  --group->running;
  if (--group->pending == 0) group->done_cv.NotifyAll();
}

void ThreadPool::WorkerLoop(uint32_t self) {
  while (true) {
    Task task;
    std::shared_ptr<TaskGroup> group;
    bool got = TryGetTask(self, &task);
    if (!got) {
      group = TryGetGroupTask(&task);
      got = group != nullptr;
    }
    if (got) {
      task(self);
      if (group != nullptr) FinishGroupTask(group.get());
      MutexLock lk(mu_);
      --pending_;
      if (pending_ == 0) done_cv_.NotifyAll();
      continue;
    }
    MutexLock lk(mu_);
    while (!stop_ && queued_.load(std::memory_order_acquire) <= 0) {
      work_cv_.Wait(lk);
    }
    if (stop_ && queued_.load(std::memory_order_acquire) <= 0) return;
  }
}

void ThreadPool::Wait() {
  MutexLock lk(mu_);
  while (pending_ != 0) done_cv_.Wait(lk);
}

}  // namespace hashjoin
