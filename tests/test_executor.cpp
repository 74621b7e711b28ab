// The shared chunk executor carries the invariants every parallel path in the
// pipeline now leans on: exceptions cross the pool boundary with their
// original type (lowest failing chunk wins, so parallel errors match serial
// ones), a first failure cancels unclaimed chunks, ready chunks are consumed
// strictly in index order on the calling thread, and claimed-but-unconsumed
// chunks respect the in-flight bound.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "support/error.hpp"
#include "support/executor.hpp"

namespace ac {
namespace {

struct ChunkError : std::runtime_error {
  explicit ChunkError(const std::string& what) : std::runtime_error(what) {}
};

TEST(Executor, RunsEveryChunkInOrderSerially) {
  std::vector<std::size_t> tasks, ready;
  ExecutorOptions opts;
  opts.threads = 1;
  run_chunks(
      8, opts, [&](std::size_t c) { tasks.push_back(c); },
      [&](std::size_t c) { ready.push_back(c); });
  const std::vector<std::size_t> want{0, 1, 2, 3, 4, 5, 6, 7};
  EXPECT_EQ(tasks, want);
  EXPECT_EQ(ready, want);
}

TEST(Executor, OrderedReadyDelivery) {
  for (int threads : {2, 4}) {
    std::vector<std::size_t> ready;
    std::atomic<int> ran{0};
    ExecutorOptions opts;
    opts.threads = threads;
    run_chunks(
        64, opts,
        [&](std::size_t c) {
          // Stagger completion so later chunks routinely finish first.
          std::this_thread::sleep_for(std::chrono::microseconds((c % 7) * 50));
          ran.fetch_add(1);
        },
        [&](std::size_t c) { ready.push_back(c); });
    EXPECT_EQ(ran.load(), 64);
    ASSERT_EQ(ready.size(), 64u);
    for (std::size_t c = 0; c < 64; ++c) EXPECT_EQ(ready[c], c) << "threads=" << threads;
  }
}

TEST(Executor, ThrowingTaskKeepsTypeAndMessage) {
  for (int threads : {1, 4}) {
    ExecutorOptions opts;
    opts.threads = threads;
    try {
      run_chunks(32, opts, [&](std::size_t c) {
        if (c == 9) throw ChunkError("chunk nine is bad");
      });
      FAIL() << "error was swallowed (threads=" << threads << ")";
    } catch (const ChunkError& e) {
      EXPECT_STREQ("chunk nine is bad", e.what());
    } catch (const std::exception& e) {
      FAIL() << "exception type erased to: " << e.what();
    }
  }
}

TEST(Executor, LowestFailingChunkWins) {
  // Several chunks fail; the parallel run must surface the one the serial
  // run would have hit first, no matter which worker failed first in time.
  for (int threads : {2, 4}) {
    ExecutorOptions opts;
    opts.threads = threads;
    try {
      run_chunks(48, opts, [&](std::size_t c) {
        if (c % 11 == 5) {  // chunks 5, 16, 27, 38 fail
          // Let later failing chunks race ahead of chunk 5's throw.
          std::this_thread::sleep_for(std::chrono::microseconds(c == 5 ? 500 : 0));
          throw ChunkError("failed at chunk " + std::to_string(c));
        }
      });
      FAIL() << "error was swallowed";
    } catch (const ChunkError& e) {
      EXPECT_STREQ("failed at chunk 5", e.what()) << "threads=" << threads;
    }
  }
}

TEST(Executor, CancellationSkipsUnclaimedChunks) {
  // After chunk 2 fails, workers must stop claiming: with the executor's
  // prefix-claiming this bounds the executed set far below n.
  constexpr std::size_t kChunks = 10000;
  std::atomic<std::size_t> executed{0};
  ExecutorOptions opts;
  opts.threads = 4;
  EXPECT_THROW(run_chunks(kChunks, opts,
                          [&](std::size_t c) {
                            executed.fetch_add(1);
                            if (c == 2) throw ChunkError("early failure");
                            std::this_thread::sleep_for(std::chrono::microseconds(200));
                          }),
               ChunkError);
  // Generous slack for chunks already claimed when the flag went up.
  EXPECT_LT(executed.load(), std::size_t{256});
}

TEST(Executor, ConsumerFailureCancelsWorkers) {
  std::atomic<std::size_t> executed{0};
  ExecutorOptions opts;
  opts.threads = 4;
  opts.max_in_flight = 8;
  EXPECT_THROW(run_chunks(
                   10000, opts, [&](std::size_t) { executed.fetch_add(1); },
                   [&](std::size_t c) {
                     if (c == 3) throw ChunkError("consumer failure");
                   }),
               ChunkError);
  EXPECT_LT(executed.load(), std::size_t{256});
}

TEST(Executor, BoundedInFlight) {
  // Claimed-but-unconsumed chunks must never exceed max_in_flight: a slow
  // consumer holds the high-water mark down even with eager workers.
  constexpr std::size_t kBound = 4;
  std::mutex mu;
  std::size_t started = 0, consumed = 0, peak = 0;
  ExecutorOptions opts;
  opts.threads = 4;
  opts.max_in_flight = kBound;
  run_chunks(
      200, opts,
      [&](std::size_t) {
        std::lock_guard<std::mutex> lock(mu);
        ++started;
        peak = std::max(peak, started - consumed);
      },
      [&](std::size_t) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));  // slow consumer
        std::lock_guard<std::mutex> lock(mu);
        ++consumed;
      });
  EXPECT_EQ(consumed, 200u);
  EXPECT_LE(peak, kBound);
}

TEST(Executor, WorkerGroupTrapsEscapingExceptions) {
  FailState fail;
  {
    WorkerGroup group(fail);
    group.spawn([] { throw ChunkError("escaped the worker"); });
    group.spawn([&] {
      while (!fail.cancelled()) std::this_thread::yield();
    });
  }  // destructor joins; no std::terminate
  EXPECT_TRUE(fail.failed());
  EXPECT_THROW(fail.rethrow_if_failed(), ChunkError);
}

TEST(Executor, ZeroChunksIsANoop) {
  bool ran = false;
  run_chunks(0, {}, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(Executor, NonExceptionTypesSurviveToo) {
  ExecutorOptions opts;
  opts.threads = 2;
  EXPECT_THROW(run_chunks(4, opts,
                          [&](std::size_t c) {
                            if (c == 3) throw std::bad_alloc();
                          }),
               std::bad_alloc);
}

}  // namespace
}  // namespace ac
