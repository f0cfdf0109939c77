// Fiber: a stackful coroutine on the calling thread.
//
// A fiber owns a fixed-size stack and runs `entry` on it, interleaved with
// whoever resumes it: resume() switches into the fiber and returns when it
// calls suspend() or its entry returns; suspend() switches back to the
// resumer.  The switch is a user-space context swap (ucontext), so handing
// control between fibers costs no kernel wakeup and no context switch.
//
// Stacks are mmap'd at kStackBytes with a PROT_NONE guard page at their low
// end: an overflow faults on the guard instead of corrupting the heap.  The
// stack is released when the Fiber is destroyed.
//
// Sanitizer builds annotate every switch (TSan fiber contexts, ASan stack
// bounds), so both tools follow the execution onto and off fiber stacks.
//
// Rules:
//   * One thread: a fiber is resumed only from the thread that created it.
//   * Never switch inside a catch handler.  The C++ runtime keeps its
//     caught-exception stack per thread, so a fiber parked in a handler
//     would interleave its entry with another fiber's.
//   * An exception escaping `entry` finishes the fiber and is rethrown
//     from the resume() that ran it.
//   * Destroy a fiber only once it has finished (or was never resumed);
//     a suspended fiber's frames are never unwound.
#pragma once

#include <ucontext.h>

#include <cstddef>
#include <exception>
#include <functional>

namespace grasp {

class Fiber {
 public:
  static constexpr std::size_t kStackBytes = std::size_t{1} << 20;

  explicit Fiber(std::function<void()> entry);
  ~Fiber();
  Fiber(const Fiber&) = delete;
  Fiber& operator=(const Fiber&) = delete;

  /// Run the fiber until it suspends or finishes; rethrows what `entry`
  /// threw.  No-op once finished.
  void resume();
  /// From inside the fiber: switch back to the resumer.
  void suspend();
  /// The entry function has returned or thrown.
  [[nodiscard]] bool finished() const { return finished_; }

 private:
  static void trampoline(unsigned hi, unsigned lo);
  /// Leave the fiber for its resumer; `final` when it will never return.
  void switch_out(bool final);

  std::function<void()> entry_;
  void* mapping_ = nullptr;  ///< guard page + stack
  std::size_t mapping_bytes_ = 0;
  ucontext_t context_{};
  ucontext_t resumer_{};
  bool finished_ = false;
  std::exception_ptr error_;

  // Sanitizer bookkeeping (unused in plain builds).
  void* tsan_fiber_ = nullptr;
  void* tsan_resumer_ = nullptr;
  void* asan_fake_stack_ = nullptr;
  const void* asan_resumer_bottom_ = nullptr;
  std::size_t asan_resumer_size_ = 0;
};

}  // namespace grasp
