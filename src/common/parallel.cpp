#include "common/parallel.hpp"

#include "common/env.hpp"

namespace ats::par {

int default_jobs() {
  if (const auto n = env_positive_int("ATS_JOBS")) return *n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int jobs) : jobs_(jobs > 0 ? jobs : default_jobs()) {
  workers_.reserve(static_cast<std::size_t>(jobs_ - 1));
  for (int i = 1; i < jobs_; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (auto& w : workers_) w.join();
}

void ThreadPool::drain(Grid& grid) {
  for (;;) {
    const std::size_t i = grid.next.fetch_add(1, std::memory_order_relaxed);
    if (i >= grid.n) return;
    if (!grid.failed.load(std::memory_order_acquire)) {
      try {
        (*grid.body)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(grid.error_mu);
        if (!grid.error) grid.error = std::current_exception();
        grid.failed.store(true, std::memory_order_release);
      }
    }
    grid.done.fetch_add(1, std::memory_order_acq_rel);
  }
}

void ThreadPool::worker_main() {
  std::uint64_t seen = 0;
  for (;;) {
    std::shared_ptr<Grid> grid;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return shutdown_ || epoch_ != seen; });
      if (shutdown_) return;
      seen = epoch_;
      grid = grid_;
    }
    if (!grid) continue;  // grid already finished by faster peers
    drain(*grid);
    // Notify under mu_: the caller checks grid->done while holding it, so
    // an unlocked notify can fall between that check and its wait and be
    // lost, leaving the caller asleep on a finished grid.
    std::lock_guard<std::mutex> lk(mu_);
    done_cv_.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (jobs_ <= 1 || n == 1) {
    for (std::size_t i = 0; i < n; ++i) body(i);
    return;
  }
  // One grid at a time: concurrent callers (e.g. the shared global pool)
  // queue up here instead of clobbering each other's grid.
  std::lock_guard<std::mutex> caller_lk(caller_mu_);
  auto grid = std::make_shared<Grid>();
  grid->n = n;
  grid->body = &body;
  {
    std::lock_guard<std::mutex> lk(mu_);
    grid_ = grid;
    ++epoch_;
  }
  work_cv_.notify_all();
  drain(*grid);  // the caller participates
  {
    std::unique_lock<std::mutex> lk(mu_);
    done_cv_.wait(lk, [&] {
      return grid->done.load(std::memory_order_acquire) >= grid->n;
    });
    grid_.reset();
  }
  if (grid->error) std::rethrow_exception(grid->error);
}

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& body) {
  static ThreadPool pool(default_jobs());
  pool.parallel_for(n, body);
}

}  // namespace ats::par
