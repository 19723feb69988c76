// Stackful fibers — the engine's execution mechanism (see engine.hpp,
// DESIGN.md §9).
//
// A Fiber is a cooperatively scheduled execution context with its own
// stack.  Switching between the owning thread and a fiber is a plain
// userspace register swap: on x86-64 and aarch64 a hand-rolled
// callee-saved-register switch (~tens of nanoseconds, no syscall), on
// other POSIX platforms the ucontext fallback (correct, but swapcontext
// re-loads the signal mask with a kernel call per switch).
//
// Rules of use (all enforced by the engine, not the class):
//  * resume() and suspend() must be called from the same OS thread; fibers
//    never migrate between threads (so thread-local state stays valid).
//  * The entry function must not let an exception escape — there is no
//    unwind information below the fiber's first frame.  Exceptions thrown
//    and caught *within* the fiber (including full-stack unwinds during
//    engine shutdown) are fine: the whole throw/catch lives on the fiber's
//    own stack.
//  * A fiber that has started but not finished holds live frames on its
//    stack; unwind it (resume it and make it return or throw) before
//    destroying it, or those frames' destructors never run.
//  * The raw switch does not save floating-point control state (MXCSR /
//    FPCR); entry code must not change rounding or exception modes.
//
// Sanitizers: every switch, raw or ucontext, goes through one annotated
// path.  AddressSanitizer builds report each stack change with
// __sanitizer_{start,finish}_switch_fiber (so stack bounds, fake stacks
// and the unpoisoning done for an exception throw follow the fiber);
// ThreadSanitizer builds give each fiber its own TSan context via
// __tsan_{create,switch_to,destroy}_fiber.  Both are compile-time checks.
#pragma once

#include <cstddef>
#include <functional>

#if defined(ATS_FIBER_FORCE_UCONTEXT)
#define ATS_FIBER_UCONTEXT 1
#elif defined(__ELF__) && defined(__x86_64__)
#define ATS_FIBER_RAW 1
#elif defined(__ELF__) && defined(__aarch64__)
#define ATS_FIBER_RAW 1
#else
#define ATS_FIBER_UCONTEXT 1
#endif

#if defined(__SANITIZE_ADDRESS__)
#define ATS_FIBER_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ATS_FIBER_ASAN 1
#endif
#endif

#if defined(__SANITIZE_THREAD__)
#define ATS_FIBER_TSAN 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define ATS_FIBER_TSAN 1
#endif
#endif

#if defined(ATS_FIBER_UCONTEXT)
#include <ucontext.h>
#endif

namespace ats::simt {

class Fiber {
 public:
  /// Creates a fiber that will run `entry` on the caller-owned stack
  /// [stack_base, stack_base + stack_bytes) when first resumed.  Nothing
  /// runs until resume().  The stack is borrowed (see StackPool): the
  /// caller keeps it alive until the fiber is destroyed, and must not
  /// recycle it while the fiber has live frames.
  Fiber(char* stack_base, std::size_t stack_bytes,
        std::function<void()> entry);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Switches from the calling context into the fiber; returns when the
  /// fiber calls suspend() or its entry function returns.  Must not be
  /// called on a finished fiber.
  void resume();

  /// Called from inside the fiber: switches back to whoever called
  /// resume().  Returns when the fiber is resumed again.
  void suspend() { switch_out(false); }

  /// True once the entry function has returned.  A finished fiber's stack
  /// holds no live frames and may be destroyed freely.
  bool finished() const { return finished_; }

 private:
  friend void fiber_run_entry(Fiber* f);
  void run_entry();  // trampoline target: entry_(), then the final switch
  /// Fiber side of every switch back to the resumer; `final` marks the
  /// last one (the fiber's stack is dead afterwards and it never returns).
  void switch_out(bool final);
  // The platform layer (raw switch or ucontext), free of sanitizer
  // bookkeeping: prepare the first frame, switch in, switch out.
  void make_context();
  void jump_in();
  void jump_out();

  std::function<void()> entry_;
  char* stack_;  ///< borrowed, not owned
  std::size_t stack_bytes_;
  bool finished_ = false;

#if defined(ATS_FIBER_RAW)
  void* fiber_sp_ = nullptr;   // fiber's saved stack pointer while parked
  void* return_sp_ = nullptr;  // resumer's saved stack pointer while inside
#else
  ucontext_t fiber_ctx_;
  ucontext_t return_ctx_;
#endif
#if defined(ATS_FIBER_ASAN)
  const void* resumer_stack_ = nullptr;  // bounds of the resumer's stack
  std::size_t resumer_stack_bytes_ = 0;
#endif
#if defined(ATS_FIBER_TSAN)
  void* tsan_fiber_ = nullptr;    // this fiber's TSan context
  void* tsan_resumer_ = nullptr;  // the resumer's, while inside the fiber
#endif
};

}  // namespace ats::simt
