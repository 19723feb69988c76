// Admission control for the analysis service (docs/SERVICE.md).
//
// A long-running daemon must degrade predictably under overload: a
// request the server cannot serve promptly is *rejected immediately with
// a retry hint* (load shedding), never parked in an unbounded queue or
// silently dropped.  The controller enforces
//
//   * one bounded FIFO of admitted-but-not-started work (queue_depth);
//     an arrival that would exceed it is shed with a retry_after_ms
//     computed from the observed service time and the backlog,
//   * per-class concurrency limits: sweeps (long, many cells) are capped
//     independently from analyzes and generates, so a burst of sweeps
//     cannot monopolise every worker while cheap requests starve,
//   * shutdown draining: after shutdown(), no new work is admitted,
//     workers finish what was queued, and next() then returns false.
//
// The controller is pure bookkeeping — it owns no threads; the server's
// worker pool calls next()/release() and the connection readers call
// admit().
#pragma once

#include <chrono>
#include <cstdint>
#include <condition_variable>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "service/protocol.hpp"

namespace ats::service {

/// One admitted unit of work, queued between a connection reader and a
/// worker.  `reply` delivers the complete rendered response text; it is
/// null for work re-admitted from the recovery journal (the client is
/// gone — the result's value is warming the cache).
struct QueuedRequest {
  Request req;
  std::string canonical;  ///< canonical_request_line(req)
  std::uint64_t id = 0;   ///< fnv1a64(canonical)
  std::chrono::steady_clock::time_point enqueued{};
  /// Absolute deadline (steady clock); time_point::max() = none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  std::shared_ptr<std::promise<std::string>> reply;
};

struct AdmissionOptions {
  int queue_depth = 64;    ///< max admitted-but-not-started requests
  int workers = 4;         ///< informs the retry_after estimate
  int analyze_slots = 4;   ///< concurrent analyze executions
  int sweep_slots = 2;     ///< concurrent sweep executions
  int generate_slots = 4;  ///< concurrent generate executions
};

class AdmissionController {
 public:
  explicit AdmissionController(AdmissionOptions opt);

  struct ShedInfo {
    int retry_after_ms = 1;
    int queued = 0;
  };

  /// Admits `task` into the queue, or returns the shed decision when the
  /// queue is at depth.  Never blocks.
  std::optional<ShedInfo> admit(QueuedRequest task);

  /// Blocks until a task whose class has a free slot is available (the
  /// slot is claimed) or shutdown has drained the queue.  Returns false
  /// only at shutdown with an empty eligible queue.  Tasks of one class
  /// stay FIFO; across classes a task may overtake a blocked class.
  bool next(QueuedRequest* task);

  /// Returns the slot claimed by the next() that produced the task.
  void release(RequestClass c);

  /// Feeds the retry_after estimator with one observed execution time.
  void record_service_time(std::chrono::milliseconds ms);

  /// Stops admission; queued tasks still drain through next().
  void shutdown();

  int queued() const;
  /// The retry hint the next shed response would carry.
  int retry_after_ms_estimate() const;

 private:
  int& slots_free(RequestClass c);
  int retry_after_locked() const;

  AdmissionOptions opt_;
  mutable std::mutex mu_;
  std::condition_variable work_cv_;
  std::deque<QueuedRequest> queue_;
  int analyze_free_;
  int sweep_free_;
  int generate_free_;
  /// EWMA of observed per-request service time, for retry_after hints.
  double ewma_ms_ = 50.0;
  bool ewma_seeded_ = false;
  bool shutdown_ = false;
};

}  // namespace ats::service
