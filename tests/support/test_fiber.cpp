#include "support/fiber.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <string>

namespace grasp {
namespace {

TEST(Fiber, ResumeRunsUntilSuspendThenToCompletion) {
  std::string log;
  Fiber* self = nullptr;
  Fiber fiber([&] {
    log += "a";
    self->suspend();
    log += "b";
    self->suspend();
    log += "c";
  });
  self = &fiber;
  EXPECT_EQ(log, "");
  fiber.resume();
  EXPECT_EQ(log, "a");
  EXPECT_FALSE(fiber.finished());
  fiber.resume();
  EXPECT_EQ(log, "ab");
  fiber.resume();
  EXPECT_EQ(log, "abc");
  EXPECT_TRUE(fiber.finished());
  fiber.resume();  // no-op once finished
  EXPECT_EQ(log, "abc");
}

TEST(Fiber, FrameLocalsAreDestroyedWhenEntryReturns) {
  const auto sentinel = std::make_shared<int>(7);
  Fiber* self = nullptr;
  Fiber fiber([&] {
    const std::shared_ptr<int> held = sentinel;
    self->suspend();
  });
  self = &fiber;
  fiber.resume();
  EXPECT_EQ(sentinel.use_count(), 2);
  fiber.resume();
  EXPECT_TRUE(fiber.finished());
  EXPECT_EQ(sentinel.use_count(), 1);
}

TEST(Fiber, ExceptionsStayInsideTheirFiber) {
  // A fiber may throw and catch on its own stack; the switch happens
  // only after the handler has finished.
  std::string caught;
  Fiber* self = nullptr;
  Fiber fiber([&] {
    try {
      throw std::runtime_error("inner");
    } catch (const std::exception& e) {
      caught = e.what();
    }
    self->suspend();
  });
  self = &fiber;
  fiber.resume();
  EXPECT_EQ(caught, "inner");
  EXPECT_THROW(throw std::logic_error("outer"), std::logic_error);
  fiber.resume();
  EXPECT_TRUE(fiber.finished());
}

TEST(Fiber, EscapingExceptionFinishesAndReachesTheResumer) {
  Fiber fiber([] { throw std::runtime_error("escaped"); });
  EXPECT_THROW(fiber.resume(), std::runtime_error);
  EXPECT_TRUE(fiber.finished());
  fiber.resume();  // the error is delivered once
}

TEST(Fiber, FibersNest) {
  // A fiber may resume another: suspend returns to whoever resumed it.
  std::string log;
  Fiber* inner_self = nullptr;
  Fiber inner([&] {
    log += "i1";
    inner_self->suspend();
    log += "i2";
  });
  inner_self = &inner;
  Fiber* outer_self = nullptr;
  Fiber outer([&] {
    log += "o1";
    inner.resume();
    log += "o2";
    outer_self->suspend();
    inner.resume();
    log += "o3";
  });
  outer_self = &outer;
  outer.resume();
  EXPECT_EQ(log, "o1i1o2");
  outer.resume();
  EXPECT_EQ(log, "o1i1o2i2o3");
  EXPECT_TRUE(inner.finished());
  EXPECT_TRUE(outer.finished());
}

std::size_t recurse(std::size_t depth) {
  volatile char frame[4096];
  frame[0] = static_cast<char>(depth);
  if (depth == 0) return static_cast<std::size_t>(frame[0]);
  return recurse(depth - 1) + static_cast<std::size_t>(frame[0]);
}

TEST(Fiber, DeepStackUseFitsTheStack) {
  std::size_t result = 0;
  Fiber fiber([&] { result = recurse(64); });  // ~256 KiB of frames
  fiber.resume();
  EXPECT_TRUE(fiber.finished());
  EXPECT_GT(result, 0u);
}

TEST(FiberDeathTest, OverflowHitsTheGuardPage) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        Fiber fiber([] { (void)recurse(4 * Fiber::kStackBytes / 4096); });
        fiber.resume();
      },
      "");
}

}  // namespace
}  // namespace grasp
