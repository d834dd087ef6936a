// The compute executor's contract (src/common/parallel.hpp): exactly-once
// coverage, exclusive slots, exception propagation, the inline rules for
// nested calls, InlineComputeScope and ThreadPool tasks on busy CPUs, and
// concurrent callers.

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <chrono>
#include <fstream>
#include <future>
#include <latch>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/common/parallel.hpp"
#include "src/common/thread_pool.hpp"

namespace gsnp {
namespace {

/// Threads of this process, from /proc/self/status.
int process_threads() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  return -1;
}

/// One call's chunks, as the body saw them.
struct Chunk {
  std::size_t begin, end, slot;
  std::thread::id thread;
};

std::vector<Chunk> record_chunks(std::size_t n, std::size_t grain) {
  std::mutex mu;
  std::vector<Chunk> chunks;
  parallel_for(n, grain, [&](std::size_t begin, std::size_t end,
                             std::size_t slot) {
    const std::lock_guard<std::mutex> lock(mu);
    chunks.push_back({begin, end, slot, std::this_thread::get_id()});
  });
  return chunks;
}

// Runs first, so no earlier test has started the pool: calls that must run
// inline start no thread.
TEST(Parallel, InlineScopeRunsInlineAndStartsNoThread) {
  const int threads = process_threads();
  {
    const InlineComputeScope outer;
    {
      const InlineComputeScope inner;
    }
    // Leaving a nested scope keeps the outer one in force.
    EXPECT_FALSE(fans_out(100'000, 16));
    const std::vector<Chunk> chunks = record_chunks(100'000, 16);
    ASSERT_EQ(chunks.size(), 1u);
    EXPECT_EQ(chunks[0].begin, 0u);
    EXPECT_EQ(chunks[0].end, 100'000u);
    EXPECT_EQ(chunks[0].slot, 0u);
    EXPECT_EQ(chunks[0].thread, std::this_thread::get_id());
  }
  EXPECT_EQ(process_threads(), threads);
  EXPECT_EQ(fans_out(100'000, 16), compute_slots() > 1);
}

TEST(Parallel, ThreadPoolTaskFansOutWhileCpusAreFree) {
  if (compute_slots() == 1) GTEST_SKIP() << "one usable CPU: no pool";
  ThreadPool pool(1);
  const auto [worker, chunks] =
      pool.submit([] {
            return std::make_pair(std::this_thread::get_id(),
                                  record_chunks(1'000, 100));
          })
          .get();
  ASSERT_EQ(chunks.size(), 10u);
  for (const Chunk& c : chunks) {
    if (c.begin == 0) {
      EXPECT_EQ(c.thread, worker);
    }
  }
}

TEST(Parallel, ThreadPoolTasksRunInlineWhileEveryCpuRunsOne) {
  const std::size_t cpus = compute_slots();
  ThreadPool pool(cpus);
  std::latch all_running(static_cast<std::ptrdiff_t>(cpus));
  std::latch all_measured(static_cast<std::ptrdiff_t>(cpus));
  std::vector<std::future<std::size_t>> chunk_counts;
  for (std::size_t t = 0; t < cpus; ++t)
    chunk_counts.push_back(pool.submit([&] {
      all_running.arrive_and_wait();
      const std::size_t chunks = record_chunks(1'000, 100).size();
      all_measured.arrive_and_wait();
      return chunks;
    }));
  for (auto& f : chunk_counts) EXPECT_EQ(f.get(), 1u);
}

// Run under `taskset -c 0,1` too: the pool must follow the mask, not the
// machine's CPU count.
TEST(Parallel, SlotsFollowTheAffinityMask) {
  cpu_set_t set;
  CPU_ZERO(&set);
  ASSERT_EQ(sched_getaffinity(0, sizeof(set), &set), 0);
  EXPECT_EQ(compute_slots(), static_cast<std::size_t>(CPU_COUNT(&set)));
}

TEST(Parallel, BelowTwoGrainsRunsInline) {
  const std::vector<Chunk> chunks = record_chunks(127, 64);
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0].begin, 0u);
  EXPECT_EQ(chunks[0].end, 127u);
  EXPECT_EQ(chunks[0].thread, std::this_thread::get_id());
}

TEST(Parallel, EveryIndexRunsExactlyOnce) {
  constexpr std::size_t kGrain = 64;
  for (const std::size_t n :
       {std::size_t{0}, std::size_t{1}, kGrain - 1, kGrain, kGrain + 1,
        2 * kGrain, std::size_t{200'003}}) {
    std::vector<std::atomic<int>> hits(n);
    std::atomic<std::size_t> calls{0};
    parallel_for(n, kGrain, [&](std::size_t begin, std::size_t end,
                                std::size_t slot) {
      EXPECT_LT(begin, end);
      EXPECT_LE(end, n);
      EXPECT_LT(slot, compute_slots());
      ++calls;
      for (std::size_t i = begin; i < end; ++i) ++hits[i];
    });
    for (std::size_t i = 0; i < n; ++i)
      ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " index " << i;
    if (n == 0) {
      EXPECT_EQ(calls.load(), 0u);
    }
    if (n >= 2 * kGrain && compute_slots() > 1) {
      EXPECT_EQ(calls.load(), (n + kGrain - 1) / kGrain) << "n=" << n;
    }
  }
}

TEST(Parallel, FanOutChunksAreGrainSizedAndTheCallerRunsTheFirst) {
  if (compute_slots() == 1) GTEST_SKIP() << "one usable CPU: no pool";
  const std::vector<Chunk> chunks = record_chunks(1'000, 100);
  ASSERT_EQ(chunks.size(), 10u);
  for (const Chunk& c : chunks) {
    EXPECT_EQ(c.begin % 100, 0u);
    EXPECT_EQ(c.end - c.begin, 100u);
    if (c.begin == 0) {
      EXPECT_EQ(c.thread, std::this_thread::get_id());
      EXPECT_EQ(c.slot, 0u);
    }
  }
}

TEST(Parallel, ConcurrentChunksNeverShareASlot) {
  const std::size_t slots = compute_slots();
  std::vector<std::atomic<bool>> busy(slots);
  std::atomic<int> collisions{0};
  std::mutex mu;
  std::set<std::thread::id> threads;
  parallel_for(64, 1, [&](std::size_t, std::size_t, std::size_t slot) {
    ASSERT_LT(slot, slots);
    if (busy[slot].exchange(true)) ++collisions;
    {
      const std::lock_guard<std::mutex> lock(mu);
      threads.insert(std::this_thread::get_id());
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    busy[slot].store(false);
  });
  EXPECT_EQ(collisions.load(), 0);
  // Sleeping chunks leave the CPU to the workers, so they take some.
  if (slots > 1) {
    EXPECT_GT(threads.size(), 1u);
  }
}

TEST(Parallel, ThrowSkipsUnstartedChunksAndWaitsForRunningOnes) {
  constexpr std::size_t kChunks = 1'000;
  std::atomic<int> started{0}, running{0};
  bool caught = false;
  try {
    // With one usable CPU the call runs inline, as one chunk holding 3.
    parallel_for(kChunks, 1, [&](std::size_t begin, std::size_t end,
                                 std::size_t) {
      ++started;
      ++running;
      if (begin <= 3 && 3 < end) {
        --running;
        throw std::runtime_error("chunk 3 failed");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
      --running;
    });
  } catch (const std::runtime_error& e) {
    caught = true;
    EXPECT_STREQ(e.what(), "chunk 3 failed");
    // Every chunk that started has finished before the call returned.
    EXPECT_EQ(running.load(), 0);
  }
  EXPECT_TRUE(caught);
  EXPECT_LT(started.load(), static_cast<int>(kChunks));
}

TEST(Parallel, ThrowInTheCallersChunkReachesTheCaller) {
  EXPECT_THROW(parallel_for(100, 1,
                            [](std::size_t begin, std::size_t, std::size_t) {
                              if (begin == 0) throw std::logic_error("first");
                            }),
               std::logic_error);
}

TEST(Parallel, NestedCallRunsInlineOnItsThread) {
  std::atomic<int> inner_calls{0}, inline_calls{0};
  parallel_for(8, 1, [&](std::size_t begin, std::size_t end, std::size_t) {
    const std::thread::id self = std::this_thread::get_id();
    for (std::size_t i = begin; i < end; ++i) {
      const std::vector<Chunk> inner = record_chunks(10'000, 10);
      ++inner_calls;
      if (inner.size() == 1 && inner[0].begin == 0 &&
          inner[0].end == 10'000 && inner[0].slot == 0 &&
          inner[0].thread == self)
        ++inline_calls;
    }
  });
  EXPECT_EQ(inner_calls.load(), 8);
  EXPECT_EQ(inline_calls.load(), 8);
}

TEST(Parallel, ConcurrentPlainThreadsAllFinish) {
  constexpr int kCallers = 4;
  constexpr int kCalls = 25;
  constexpr std::size_t kN = 10'000;
  std::vector<std::thread> callers;
  std::vector<std::size_t> sums(kCallers, 0);
  for (int t = 0; t < kCallers; ++t) {
    callers.emplace_back([&, t] {
      for (int c = 0; c < kCalls; ++c) {
        std::atomic<std::size_t> sum{0};
        parallel_for(kN, 100, [&](std::size_t begin, std::size_t end,
                                  std::size_t) {
          std::size_t local = 0;
          for (std::size_t i = begin; i < end; ++i) local += i;
          sum += local;
        });
        sums[t] += sum.load();
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (const std::size_t s : sums) EXPECT_EQ(s, kCalls * (kN * (kN - 1) / 2));
}

}  // namespace
}  // namespace gsnp
