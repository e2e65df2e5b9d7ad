#include "sim/fiber.h"

#include <cxxabi.h>
#include <sys/mman.h>

#include <cstdint>
#include <cstring>

#include "common/error.h"

#if defined(__SANITIZE_ADDRESS__)
#include <sanitizer/asan_interface.h>
#include <sanitizer/common_interface_defs.h>
#endif
#if defined(__SANITIZE_THREAD__)
#include <sanitizer/tsan_interface.h>
#endif

#if !defined(__x86_64__)
#error "the engine's fiber switch is written for x86-64 (System V) only"
#endif

extern "C" {
// Pushes the running context's callee-saved registers and FP control words,
// stores the resulting stack pointer in *save_sp, then pops the same frame
// from load_sp and returns into that context.
void tcio_sim_fiber_switch(void** save_sp, void* load_sp);
// Where a new fiber's first switch returns to: calls entry(arg), which the
// initial frame placed in r13 and r12. It is the outermost frame of the
// fiber's stack (no return address above it for an unwinder to follow).
void tcio_sim_fiber_start();
}

asm(R"(
    .pushsection .text
    .p2align 4
    .globl tcio_sim_fiber_switch
    .hidden tcio_sim_fiber_switch
    .type tcio_sim_fiber_switch, @function
tcio_sim_fiber_switch:
    pushq %rbp
    pushq %rbx
    pushq %r12
    pushq %r13
    pushq %r14
    pushq %r15
    subq $8, %rsp
    stmxcsr (%rsp)
    fnstcw 4(%rsp)
    movq %rsp, (%rdi)
    movq %rsi, %rsp
    ldmxcsr (%rsp)
    fldcw 4(%rsp)
    addq $8, %rsp
    popq %r15
    popq %r14
    popq %r13
    popq %r12
    popq %rbx
    popq %rbp
    ret
    .size tcio_sim_fiber_switch, .-tcio_sim_fiber_switch

    .p2align 4
    .globl tcio_sim_fiber_start
    .hidden tcio_sim_fiber_start
    .type tcio_sim_fiber_start, @function
tcio_sim_fiber_start:
    .cfi_startproc
    .cfi_undefined rip
    movq %r12, %rdi
    callq *%r13
    ud2
    .cfi_endproc
    .size tcio_sim_fiber_start, .-tcio_sim_fiber_start
    .popsection
)");

namespace tcio::sim::detail {
namespace {

constexpr std::size_t kMappingBytes = kFiberGuardBytes + kFiberStackBytes;
// MXCSR (low half) and x87 control word (high half) at their power-on
// defaults: round to nearest, all exceptions masked.
constexpr std::uint64_t kDefaultFpControl = 0x0000037F00001F80ULL;

#if defined(__SANITIZE_ADDRESS__)
// The context that started the switch now completing; ASan reports its
// stack bounds there (this is how the caller's stack becomes known).
thread_local Fiber* t_switched_from = nullptr;
#endif

}  // namespace

Fiber::Fiber() {
#if defined(__SANITIZE_THREAD__)
  tsan_fiber_ = __tsan_get_current_fiber();
#endif
}

Fiber::Fiber(Entry entry, void* arg) {
  void* m = mmap(nullptr, kMappingBytes, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1,
                 0);
  TCIO_CHECK_MSG(m != MAP_FAILED, "mmap of a rank fiber stack failed");
  if (mprotect(m, kFiberGuardBytes, PROT_NONE) != 0) {
    munmap(m, kMappingBytes);
    TCIO_CHECK_MSG(false, "mprotect of a rank fiber guard region failed");
  }
  mapping_ = m;
  std::byte* bottom = static_cast<std::byte*>(m) + kFiberGuardBytes;
  stack_bottom_ = bottom;
  stack_size_ = kFiberStackBytes;

  // The frame tcio_sim_fiber_switch pops on the first switch into this
  // fiber. Its return address enters tcio_sim_fiber_start with a 16-byte
  // aligned stack pointer, as a call instruction expects.
  auto* top = reinterpret_cast<std::uint64_t*>(bottom + kFiberStackBytes);
  std::uint64_t* sp = top - 10;
  sp[0] = kDefaultFpControl;
  sp[1] = 0;                                       // r15
  sp[2] = 0;                                       // r14
  sp[3] = reinterpret_cast<std::uint64_t>(entry);  // r13
  sp[4] = reinterpret_cast<std::uint64_t>(arg);    // r12
  sp[5] = 0;                                       // rbx
  sp[6] = 0;  // rbp: frame-pointer walks stop here
  // Return address, then padding up to the aligned top of the stack.
  sp[7] = reinterpret_cast<std::uint64_t>(&tcio_sim_fiber_start);
  sp[8] = 0;
  sp[9] = 0;
  sp_ = sp;
#if defined(__SANITIZE_THREAD__)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
  if (mapping_ == nullptr) return;
#if defined(__SANITIZE_THREAD__)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
#if defined(__SANITIZE_ADDRESS__)
  // Frames still live when the fiber exited leave poisoned redzones behind;
  // clear them so a later mapping at this address starts clean.
  ASAN_UNPOISON_MEMORY_REGION(stack_bottom_, stack_size_);
#endif
  munmap(mapping_, kMappingBytes);
}

// TSan must learn of the switch immediately before it happens: an
// instrumented function return in between would already run on the new
// fiber's shadow call stack.
void Fiber::switchTo(Fiber& to) {
  prepareSwitch(to, /*exiting=*/false);
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(to.tsan_fiber_, 0);
#endif
  tcio_sim_fiber_switch(&sp_, to.sp_);
  finishSwitch();
}

void Fiber::exitTo(Fiber& to) {
  prepareSwitch(to, /*exiting=*/true);
#if defined(__SANITIZE_THREAD__)
  __tsan_switch_to_fiber(to.tsan_fiber_, 0);
#endif
  tcio_sim_fiber_switch(&sp_, to.sp_);
  __builtin_trap();  // an exited fiber is never resumed
}

void Fiber::started() { finishSwitch(); }

void Fiber::prepareSwitch(Fiber& to, bool exiting) {
  static_assert(sizeof(EhGlobals) == 16, "mirrors __cxa_eh_globals");
  void* eh = abi::__cxa_get_globals();
  std::memcpy(&eh_, eh, sizeof eh_);
  std::memcpy(eh, &to.eh_, sizeof eh_);
#if defined(__SANITIZE_ADDRESS__)
  t_switched_from = this;
  __sanitizer_start_switch_fiber(exiting ? nullptr : &asan_fake_stack_,
                                 to.stack_bottom_, to.stack_size_);
#else
  (void)exiting;
#endif
}

void Fiber::finishSwitch() {
#if defined(__SANITIZE_ADDRESS__)
  Fiber* from = t_switched_from;
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &from->stack_bottom_,
                                  &from->stack_size_);
#endif
}

}  // namespace tcio::sim::detail
