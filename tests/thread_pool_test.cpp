// ThreadPool hardening tests (ISSUE satellite): exception propagation
// through submit futures and parallel_for, degenerate sizes (zero tasks,
// single-thread pool, fewer tasks than workers), a multi-producer submit
// stress, and the submit-after-shutdown contract (a task enqueued after
// the workers drained the queue used to deadlock its future forever; it
// now throws).

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "megate/util/thread_pool.h"

namespace megate::util {
namespace {

TEST(ThreadPoolHardening, SubmitAfterShutdownThrows) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([&] { ++ran; }).wait();
  pool.shutdown();
  EXPECT_EQ(ran.load(), 1);
  EXPECT_THROW(pool.submit([&] { ++ran; }), std::runtime_error);
  EXPECT_EQ(ran.load(), 1);  // the rejected task never runs
}

TEST(ThreadPoolHardening, ShutdownIsIdempotentAndDestructorSafe) {
  ThreadPool pool(2);
  pool.parallel_for(10, [](std::size_t) {});
  pool.shutdown();
  pool.shutdown();  // second call is a no-op
  EXPECT_THROW(pool.parallel_for(1, [](std::size_t) {}),
               std::runtime_error);
  // Destructor after explicit shutdown must not double-join.
}

TEST(ThreadPoolHardening, SubmitFuturePropagatesTaskException) {
  ThreadPool pool(2);
  auto f = pool.submit([] { throw std::logic_error("task failed"); });
  EXPECT_THROW(f.get(), std::logic_error);
  // The worker survives a throwing task.
  std::atomic<int> x{0};
  pool.submit([&] { x = 7; }).wait();
  EXPECT_EQ(x.load(), 7);
}

TEST(ThreadPoolHardening, SingleThreadPoolRunsEverything) {
  ThreadPool pool(1);
  EXPECT_EQ(pool.size(), 1u);
  std::vector<std::atomic<int>> hits(257);
  pool.parallel_for(hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolHardening, SingleThreadPoolPropagatesExceptions) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(5,
                                 [](std::size_t i) {
                                   if (i == 3) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // Usable afterwards.
  std::atomic<int> sum{0};
  pool.parallel_for(4, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum.load(), 6);
}

TEST(ThreadPoolHardening, FewerTasksThanWorkers) {
  ThreadPool pool(8);
  std::atomic<int> count{0};
  pool.parallel_for(3, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 3);
  pool.parallel_for(1, [&](std::size_t i) { EXPECT_EQ(i, 0u); });
}

TEST(ThreadPoolHardening, ZeroTasksNeverTouchTheQueue) {
  ThreadPool pool(2);
  pool.parallel_for(0, [](std::size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolHardening, ConcurrentProducersAllTasksComplete) {
  constexpr int kProducers = 4;
  constexpr int kTasksPerProducer = 250;
  ThreadPool pool(3);
  std::atomic<int> executed{0};
  std::vector<std::thread> producers;
  std::vector<std::vector<std::future<void>>> futures(kProducers);
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      futures[p].reserve(kTasksPerProducer);
      for (int i = 0; i < kTasksPerProducer; ++i) {
        futures[p].push_back(pool.submit([&] { ++executed; }));
      }
    });
  }
  for (auto& t : producers) t.join();
  for (auto& per_producer : futures) {
    for (auto& f : per_producer) f.wait();
  }
  EXPECT_EQ(executed.load(), kProducers * kTasksPerProducer);
}

TEST(ThreadPoolHardening, ParallelForFirstErrorWinsAndStops) {
  ThreadPool pool(4);
  std::atomic<int> calls{0};
  try {
    pool.parallel_for(10000, [&](std::size_t) {
      ++calls;
      throw std::runtime_error("every task fails");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "every task fails");
  }
  // Early-abort: once a failure is flagged, remaining chunks short-circuit,
  // so far fewer than all 10000 iterations actually ran.
  EXPECT_LT(calls.load(), 10000);
}

}  // namespace
}  // namespace megate::util
