#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/strutil.hpp"

namespace ats::par {

int default_jobs() {
  const char* env = std::getenv("ATS_JOBS");
  if (const auto n = parse_decimal<int>(env ? env : "", 1)) return *n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

ThreadPool::ThreadPool(int jobs) : jobs_(jobs > 0 ? jobs : default_jobs()) {}

void ThreadPool::parallel_for(
    std::size_t n, const std::function<void(std::size_t)>& body) const {
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;
  const auto drain = [&] {
    for (std::size_t i; (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
      if (failed.load(std::memory_order_acquire)) return;
      try {
        body(i);
      } catch (...) {
        std::lock_guard<std::mutex> lk(error_mu);
        if (!error) error = std::current_exception();
        failed.store(true, std::memory_order_release);
      }
    }
  };
  {
    const std::size_t width = std::min(static_cast<std::size_t>(jobs_), n);
    std::vector<std::jthread> helpers;
    for (std::size_t t = 1; t < width; ++t) helpers.emplace_back(drain);
    drain();  // the caller participates; the helpers join on scope exit
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace ats::par
