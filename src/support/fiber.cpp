#include "support/fiber.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdlib>
#include <system_error>
#include <utility>

// gcc flags sanitizer builds with __SANITIZE_*__, clang with __has_feature.
#if defined(__SANITIZE_ADDRESS__)
#define GRASP_FIBER_ASAN 1
#endif
#if defined(__SANITIZE_THREAD__)
#define GRASP_FIBER_TSAN 1
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define GRASP_FIBER_ASAN 1
#endif
#if __has_feature(thread_sanitizer)
#define GRASP_FIBER_TSAN 1
#endif
#endif

#if defined(GRASP_FIBER_ASAN)
#include <sanitizer/asan_interface.h>
#endif
#if defined(GRASP_FIBER_TSAN)
#include <sanitizer/tsan_interface.h>
#endif

namespace grasp {

Fiber::Fiber(std::function<void()> entry) : entry_(std::move(entry)) {
  if (getcontext(&context_) != 0)
    throw std::system_error(errno, std::generic_category(), "Fiber: context");
  const auto page = static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
  mapping_bytes_ = page + kStackBytes;
  mapping_ = mmap(nullptr, mapping_bytes_, PROT_READ | PROT_WRITE,
                  MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE | MAP_STACK, -1,
                  0);
  if (mapping_ == MAP_FAILED)
    throw std::system_error(errno, std::generic_category(), "Fiber: mmap");
  if (mprotect(mapping_, page, PROT_NONE) != 0) {
    const int err = errno;
    munmap(mapping_, mapping_bytes_);
    throw std::system_error(err, std::generic_category(), "Fiber: mprotect");
  }
  context_.uc_stack.ss_sp = static_cast<char*>(mapping_) + page;
  context_.uc_stack.ss_size = kStackBytes;
  context_.uc_link = nullptr;
  // makecontext passes int-sized arguments: split the pointer in two.
  const auto self = reinterpret_cast<std::uintptr_t>(this);
  makecontext(&context_, reinterpret_cast<void (*)()>(&Fiber::trampoline), 2,
              static_cast<unsigned>(self >> 32), static_cast<unsigned>(self));
#if defined(GRASP_FIBER_TSAN)
  tsan_fiber_ = __tsan_create_fiber(0);
#endif
}

Fiber::~Fiber() {
#if defined(GRASP_FIBER_TSAN)
  __tsan_destroy_fiber(tsan_fiber_);
#endif
#if defined(GRASP_FIBER_ASAN)
  // Frames that never returned (the final switch) leave poisoned shadow;
  // clear it so a later mapping at this address starts clean.
  ASAN_UNPOISON_MEMORY_REGION(context_.uc_stack.ss_sp, kStackBytes);
#endif
  munmap(mapping_, mapping_bytes_);
}

void Fiber::resume() {
  if (finished_) return;
#if defined(GRASP_FIBER_TSAN)
  tsan_resumer_ = __tsan_get_current_fiber();
  __tsan_switch_to_fiber(tsan_fiber_, 0);
#endif
#if defined(GRASP_FIBER_ASAN)
  void* fake_stack = nullptr;
  __sanitizer_start_switch_fiber(&fake_stack, context_.uc_stack.ss_sp,
                                 kStackBytes);
#endif
  swapcontext(&resumer_, &context_);
#if defined(GRASP_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(fake_stack, nullptr, nullptr);
#endif
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
}

void Fiber::suspend() { switch_out(false); }

void Fiber::switch_out(bool final) {
#if defined(GRASP_FIBER_ASAN)
  // A null save slot on the final switch frees this fiber's fake stack.
  __sanitizer_start_switch_fiber(final ? nullptr : &asan_fake_stack_,
                                 asan_resumer_bottom_, asan_resumer_size_);
#else
  (void)final;
#endif
#if defined(GRASP_FIBER_TSAN)
  __tsan_switch_to_fiber(tsan_resumer_, 0);
#endif
  swapcontext(&context_, &resumer_);
#if defined(GRASP_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(asan_fake_stack_, &asan_resumer_bottom_,
                                  &asan_resumer_size_);
#endif
}

void Fiber::trampoline(unsigned hi, unsigned lo) {
  auto* self = reinterpret_cast<Fiber*>((std::uintptr_t{hi} << 32) | lo);
#if defined(GRASP_FIBER_ASAN)
  __sanitizer_finish_switch_fiber(nullptr, &self->asan_resumer_bottom_,
                                  &self->asan_resumer_size_);
#endif
  try {
    self->entry_();
  } catch (...) {
    self->error_ = std::current_exception();
  }
  // Outside the handler: a switch must never happen inside one.
  self->finished_ = true;
  self->switch_out(true);
  std::abort();  // a finished fiber is never resumed
}

}  // namespace grasp
