#include "service/admission.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ats::service {

AdmissionController::AdmissionController(AdmissionOptions opt)
    : opt_(opt),
      analyze_free_(std::max(1, opt.analyze_slots)),
      sweep_free_(std::max(1, opt.sweep_slots)),
      generate_free_(std::max(1, opt.generate_slots)) {
  require(opt_.queue_depth >= 1, "admission: queue_depth must be >= 1");
  opt_.workers = std::max(1, opt_.workers);
}

int& AdmissionController::slots_free(RequestClass c) {
  switch (c) {
    case RequestClass::kAnalyze: return analyze_free_;
    case RequestClass::kSweep: return sweep_free_;
    case RequestClass::kGenerate: return generate_free_;
    case RequestClass::kControl: break;
  }
  throw Error("admission: control requests are never queued");
}

int AdmissionController::retry_after_locked() const {
  // Expected drain time of the backlog ahead of a retry: one EWMA service
  // time per queued request, divided across the workers, floored at 1 ms
  // so a retry_after of zero can never suggest an immediate hammer-loop.
  const double backlog = static_cast<double>(queue_.size()) + 1.0;
  const double est = ewma_ms_ * backlog / static_cast<double>(opt_.workers);
  return static_cast<int>(std::clamp(est, 1.0, 60'000.0));
}

std::optional<AdmissionController::ShedInfo> AdmissionController::admit(
    QueuedRequest task) {
  std::lock_guard<std::mutex> lk(mu_);
  if (shutdown_) {
    return ShedInfo{1, static_cast<int>(queue_.size())};
  }
  if (queue_.size() >= static_cast<std::size_t>(opt_.queue_depth)) {
    return ShedInfo{retry_after_locked(), static_cast<int>(queue_.size())};
  }
  queue_.push_back(std::move(task));
  work_cv_.notify_one();
  return std::nullopt;
}

bool AdmissionController::next(QueuedRequest* task) {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    // First queued task whose class has a free slot (FIFO within a class).
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      int& free = slots_free(request_class(it->req.op));
      if (free > 0) {
        --free;
        *task = std::move(*it);
        queue_.erase(it);
        return true;
      }
    }
    if (shutdown_ && queue_.empty()) return false;
    work_cv_.wait(lk);
  }
}

void AdmissionController::release(RequestClass c) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++slots_free(c);
  }
  // A freed slot may unblock a queued task of this class.
  work_cv_.notify_all();
}

void AdmissionController::record_service_time(std::chrono::milliseconds ms) {
  std::lock_guard<std::mutex> lk(mu_);
  const double v = static_cast<double>(ms.count());
  if (!ewma_seeded_) {
    ewma_ms_ = std::max(1.0, v);
    ewma_seeded_ = true;
  } else {
    ewma_ms_ = 0.8 * ewma_ms_ + 0.2 * std::max(1.0, v);
  }
}

void AdmissionController::shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
}

int AdmissionController::queued() const {
  std::lock_guard<std::mutex> lk(mu_);
  return static_cast<int>(queue_.size());
}

int AdmissionController::retry_after_ms_estimate() const {
  std::lock_guard<std::mutex> lk(mu_);
  return retry_after_locked();
}

}  // namespace ats::service
