#include "exec/thread_pool.h"

#if defined(__linux__)
#include <pthread.h>
#endif

namespace pacman::exec {

ThreadPool::ThreadPool(uint32_t num_threads, std::string name_prefix)
    : name_prefix_(std::move(name_prefix)) {
  PACMAN_CHECK(num_threads >= 1);
  threads_.reserve(num_threads);
  for (uint32_t id = 0; id < num_threads; ++id) {
    threads_.emplace_back([this, id] { WorkerLoop(id); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> g(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> g(mu_);
    PACMAN_CHECK(!stop_);
    queue_.push_back(std::move(fn));
  }
  work_cv_.notify_one();
}

void ThreadPool::WaitIdle() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [&] { return queue_.empty() && active_ == 0; });
}

void ThreadPool::WorkerLoop(uint32_t id) {
#if defined(__linux__)
  if (!name_prefix_.empty()) {
    // Kernel thread names cap at 15 chars + NUL; truncate the prefix so
    // the "-<id>" suffix always survives.
    std::string name =
        name_prefix_.substr(0, 12) + "-" + std::to_string(id % 100);
    pthread_setname_np(pthread_self(), name.c_str());
  }
#endif
  std::unique_lock<std::mutex> lock(mu_);
  while (true) {
    work_cv_.wait(lock, [&] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stop_ and fully drained.
    std::function<void()> job = std::move(queue_.front());
    queue_.pop_front();
    active_++;
    lock.unlock();
    job();
    lock.lock();
    active_--;
    if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
  }
}

}  // namespace pacman::exec
