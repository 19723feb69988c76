#include "simt/fiber.hpp"

#include <cassert>
#include <cstdint>
#include <cstring>
#include <utility>

#if defined(ATS_FIBER_ASAN)
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(ATS_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace ats::simt {

// The C-linkage entry the switch code calls into; forwards to the private
// run_entry() through a friend so the asm only needs one symbol.
extern "C" void ats_fiber_run_c(void* f);

void fiber_run_entry(Fiber* f) { f->run_entry(); }

extern "C" void ats_fiber_run_c(void* f) {
  fiber_run_entry(static_cast<Fiber*>(f));
}

#if defined(ATS_FIBER_RAW)

// void ats_fiber_switch(void** save_sp, void* restore_sp)
//
// Saves the callee-saved register set on the current stack, stores the
// resulting stack pointer to *save_sp, installs restore_sp and pops the
// same set.  Everything the ABI lets a called function clobber is left to
// the compiler, so a switch costs one cache line of stores and loads —
// no signal mask, no kernel.
extern "C" void ats_fiber_switch(void** save_sp, void* restore_sp);

#if defined(__x86_64__)

// System V AMD64: rbx, rbp, r12-r15 are callee-saved.  A fresh fiber's
// stack is pre-filled so the restore path "returns" into the entry thunk
// with r12 = Fiber* and r13 = &ats_fiber_run_c (an indirect call avoids
// PLT relocation concerns inside hand-written asm).
asm(R"(
  .text
  .globl ats_fiber_switch
  .p2align 4
ats_fiber_switch:
  pushq %rbp
  pushq %rbx
  pushq %r12
  pushq %r13
  pushq %r14
  pushq %r15
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  popq %r15
  popq %r14
  popq %r13
  popq %r12
  popq %rbx
  popq %rbp
  ret

  .globl ats_fiber_entry_thunk
  .p2align 4
ats_fiber_entry_thunk:
  movq %r12, %rdi
  callq *%r13
  ud2
)");

extern "C" void ats_fiber_entry_thunk();

namespace {
// Indices into the pre-filled initial frame, matching the pop order of
// ats_fiber_switch: r15 r14 r13 r12 rbx rbp, then the return address.
constexpr std::size_t kFrameWords = 7;
constexpr std::size_t kSlotR13 = 2;
constexpr std::size_t kSlotR12 = 3;
constexpr std::size_t kSlotRet = 6;

void* make_initial_frame(char* stack, std::size_t bytes, Fiber* self) {
  // Entry-thunk alignment: the thunk starts at sp = frame + 56; its
  // `call` then gives ats_fiber_run_c the standard entry alignment
  // (sp % 16 == 8) provided frame % 16 == 8, which top16 - 56 satisfies.
  auto top16 = (reinterpret_cast<std::uintptr_t>(stack) + bytes) &
               ~static_cast<std::uintptr_t>(15);
  auto* frame = reinterpret_cast<std::uintptr_t*>(top16) - kFrameWords;
  std::memset(frame, 0, kFrameWords * sizeof(std::uintptr_t));
  frame[kSlotR12] = reinterpret_cast<std::uintptr_t>(self);
  frame[kSlotR13] = reinterpret_cast<std::uintptr_t>(&ats_fiber_run_c);
  frame[kSlotRet] = reinterpret_cast<std::uintptr_t>(&ats_fiber_entry_thunk);
  return frame;
}
}  // namespace

#elif defined(__aarch64__)

// AAPCS64: x19-x28, x29 (fp), x30 (lr) and d8-d15 are callee-saved.  A
// fresh fiber's frame carries x19 = Fiber*, x20 = &ats_fiber_run_c and
// x30 = the entry thunk, so the restore path's `ret` starts the fiber.
asm(R"(
  .text
  .globl ats_fiber_switch
  .p2align 4
ats_fiber_switch:
  sub sp, sp, #160
  stp x19, x20, [sp]
  stp x21, x22, [sp, #16]
  stp x23, x24, [sp, #32]
  stp x25, x26, [sp, #48]
  stp x27, x28, [sp, #64]
  stp x29, x30, [sp, #80]
  stp d8,  d9,  [sp, #96]
  stp d10, d11, [sp, #112]
  stp d12, d13, [sp, #128]
  stp d14, d15, [sp, #144]
  mov x2, sp
  str x2, [x0]
  mov sp, x1
  ldp x19, x20, [sp]
  ldp x21, x22, [sp, #16]
  ldp x23, x24, [sp, #32]
  ldp x25, x26, [sp, #48]
  ldp x27, x28, [sp, #64]
  ldp x29, x30, [sp, #80]
  ldp d8,  d9,  [sp, #96]
  ldp d10, d11, [sp, #112]
  ldp d12, d13, [sp, #128]
  ldp d14, d15, [sp, #144]
  add sp, sp, #160
  ret

  .globl ats_fiber_entry_thunk
  .p2align 4
ats_fiber_entry_thunk:
  mov x0, x19
  blr x20
  brk #0
)");

extern "C" void ats_fiber_entry_thunk();

namespace {
constexpr std::size_t kFrameBytes = 160;
constexpr std::size_t kSlotX19 = 0;   // byte offset / 8
constexpr std::size_t kSlotX20 = 1;
constexpr std::size_t kSlotX30 = 11;  // [sp, #88]

void* make_initial_frame(char* stack, std::size_t bytes, Fiber* self) {
  auto top16 = (reinterpret_cast<std::uintptr_t>(stack) + bytes) &
               ~static_cast<std::uintptr_t>(15);
  auto* frame = reinterpret_cast<std::uintptr_t*>(top16 - kFrameBytes);
  std::memset(frame, 0, kFrameBytes);
  frame[kSlotX19] = reinterpret_cast<std::uintptr_t>(self);
  frame[kSlotX20] = reinterpret_cast<std::uintptr_t>(&ats_fiber_run_c);
  frame[kSlotX30] = reinterpret_cast<std::uintptr_t>(&ats_fiber_entry_thunk);
  return frame;
}
}  // namespace

#endif  // arch

void Fiber::make_context() {
  fiber_sp_ = make_initial_frame(stack_, stack_bytes_, this);
}

void Fiber::jump_in() { ats_fiber_switch(&return_sp_, fiber_sp_); }

void Fiber::jump_out(Fiber* next) {
  if (next == nullptr) return ats_fiber_switch(&fiber_sp_, return_sp_);
  next->return_sp_ = return_sp_;
  ats_fiber_switch(&fiber_sp_, next->fiber_sp_);
}

#else  // ATS_FIBER_UCONTEXT

// Portable fallback: POSIX ucontext.  swapcontext saves and restores the
// signal mask with a kernel call per switch, so this path is an order of
// magnitude slower than the raw switch — still several times faster than
// a thread handoff.

namespace {
// makecontext passes only ints; split the Fiber pointer across two.
void trampoline(unsigned hi, unsigned lo) {
  auto p = (static_cast<std::uintptr_t>(hi) << 32) |
           static_cast<std::uintptr_t>(lo);
  ats_fiber_run_c(reinterpret_cast<void*>(p));
}
}  // namespace

void Fiber::make_context() {
  getcontext(&fiber_ctx_);
  fiber_ctx_.uc_stack.ss_sp = stack_;
  fiber_ctx_.uc_stack.ss_size = stack_bytes_;
  // The trampoline never returns: run_entry ends in an explicit final
  // switch, so there is no successor context.
  fiber_ctx_.uc_link = nullptr;
  const auto p = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&fiber_ctx_,
              reinterpret_cast<void (*)()>(
                  reinterpret_cast<void*>(&trampoline)),
              2, static_cast<unsigned>(p >> 32),
              static_cast<unsigned>(p & 0xffffffffu));
}

void Fiber::jump_in() {
  ucontext_t resumer;
  return_ctx_ = &resumer;
  swapcontext(&resumer, &fiber_ctx_);
}

void Fiber::jump_out(Fiber* next) {
  if (next == nullptr) return (void)swapcontext(&fiber_ctx_, return_ctx_);
  next->return_ctx_ = return_ctx_;
  swapcontext(&fiber_ctx_, &next->fiber_ctx_);
}

#endif  // ATS_FIBER_RAW / ATS_FIBER_UCONTEXT

// ------------------------------------------------ the annotated switch
//
// Everything above is the bare platform switch; everything below is shared
// by both implementations, so each sanitizer annotation appears once.
// AddressSanitizer must be told the bounds of the stack being switched to
// before each jump (start) and finish on the other side; TSan must be told
// which fiber context runs next, immediately before the jump.

Fiber::Fiber(char* stack_base, std::size_t stack_bytes,
             std::function<void()> entry)
    : entry_(std::move(entry)), stack_(stack_base),
      stack_bytes_(stack_bytes) {
  assert(stack_bytes_ >= kMinFiberStackBytes && "fiber stack too small");
  make_context();
#if defined(ATS_FIBER_TSAN)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#if defined(ATS_FIBER_TSAN)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
}

void Fiber::resume() {
  assert(!finished_ && "resume of a finished fiber");
#if defined(ATS_FIBER_ASAN)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, stack_, stack_bytes_);
#endif
#if defined(ATS_FIBER_TSAN)
  tsan_resumer_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
  jump_in();
#if defined(ATS_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

void Fiber::switch_out(Fiber* next, [[maybe_unused]] bool final) {
#if defined(ATS_FIBER_ASAN)
  // A null save slot on the final switch frees this fiber's fake stack.
  void* fake_stack = nullptr;
  if (next != nullptr) {
    next->resumer_stack_ = resumer_stack_;
    next->resumer_stack_bytes_ = resumer_stack_bytes_;
  }
  __sanitizer_start_switch_fiber(
      final ? nullptr : &fake_stack, next ? next->stack_ : resumer_stack_,
      next ? next->stack_bytes_ : resumer_stack_bytes_);
#endif
#if defined(ATS_FIBER_TSAN)
  if (next != nullptr) next->tsan_resumer_ = tsan_resumer_;
  __tsan_switch_to_fiber(next ? next->tsan_fiber_ : tsan_resumer_, 0);
#endif
  jump_out(next);
#if defined(ATS_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
}

void Fiber::run_entry() {
#if defined(ATS_FIBER_ASAN)
  // The stack switched from is the resumer's, unless switch_to started
  // this fiber and handed it the resumer's bounds already.
  const bool handed = resumer_stack_ != nullptr;
  __sanitizer_finish_switch_fiber(nullptr, handed ? nullptr : &resumer_stack_,
                                  handed ? nullptr : &resumer_stack_bytes_);
#endif
  entry_();
  finished_ = true;
  // Final switch out; nothing ever resumes a finished fiber, so control
  // never comes back (the raw thunk's trap instruction guards the
  // impossible).
  switch_out(nullptr, true);
}

}  // namespace ats::simt
