// Execution contexts for the engine's M:1 fibers (private to src/sim).
//
// A rank fiber owns an mmap'd stack of `kFiberStackBytes`, committed lazily
// page by page as the rank touches it (MAP_NORESERVE), with a PROT_NONE guard
// region below it so an overflow faults instead of silently corrupting a
// neighbouring mapping. The context that calls Engine::run is represented by
// a stackless Fiber: it keeps running on its own stack.
//
// The switch is a hand-rolled x86-64 System V routine: it saves the
// callee-saved registers and the FP control words on the outgoing stack and
// pops them from the incoming one — no system call, unlike swapcontext, which
// saves and restores the signal mask. Each switch also swaps the C++ runtime's
// per-thread exception state (the caught-exception stack and the uncaught
// count), so a rank that suspends inside a catch handler or during unwinding
// sees its own exceptions when it resumes, as it would on a thread of its
// own. Under ASan and TSan every switch is annotated so the sanitizers track
// the active stack.
#pragma once

#include <cstddef>

namespace tcio::sim::detail {

/// Usable stack per rank fiber: the default OS thread stack on Linux.
inline constexpr std::size_t kFiberStackBytes = std::size_t{8} << 20;
/// PROT_NONE region below each stack; larger than a page so a big frame
/// cannot step over it.
inline constexpr std::size_t kFiberGuardBytes = std::size_t{64} << 10;

class Fiber {
 public:
  using Entry = void (*)(void* arg);

  /// The calling context. It has no stack of its own; switching away from it
  /// saves where it stopped on the stack it already runs on.
  Fiber();
  /// A fiber whose first resumption calls `entry(arg)` on a fresh stack.
  /// `entry` must call `started()` first and must end with `exitTo()`.
  Fiber(Entry entry, void* arg);
  ~Fiber();

  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Suspends `*this` (which must be the running context) and resumes `to`.
  /// Returns once some context switches back to `*this`.
  void switchTo(Fiber& to);

  /// Final switch of a fiber whose entry has finished: `*this` is never
  /// resumed again, and `to` may destroy it.
  [[noreturn]] void exitTo(Fiber& to);

  /// Completes the switch that first entered this fiber.
  void started();

 private:
  void prepareSwitch(Fiber& to, bool exiting);
  void finishSwitch();

  void* sp_ = nullptr;        // saved stack pointer while suspended
  void* mapping_ = nullptr;   // guard region + stack; null for the caller
  // Sanitizer bookkeeping (unused in plain builds).
  const void* stack_bottom_ = nullptr;
  std::size_t stack_size_ = 0;
  void* asan_fake_stack_ = nullptr;
  void* tsan_fiber_ = nullptr;
  // The C++ runtime's per-thread exception globals, saved while suspended
  // (mirrors libstdc++'s __cxa_eh_globals on x86-64).
  struct EhGlobals {
    void* caught_exceptions = nullptr;
    unsigned int uncaught_exceptions = 0;
  } eh_;
};

}  // namespace tcio::sim::detail
