#pragma once
// The process-wide compute executor: one pool of workers, one fewer than the
// CPUs the process may run on, shared by the device simulator's block loop
// and the host window stages (count, sort, likelihood, posterior, output
// codecs).
//
// parallel_for(n, grain, body) splits [0, n) into chunks of `grain`
// consecutive indices and calls body(begin, end, slot) once per chunk:
//  - The calling thread works too.  It always runs the first chunk itself
//    (so chunk 0 is a place for work that must stay on the caller), then
//    takes chunks alongside the workers until none are left.
//  - `slot` is below compute_slots(), and no two chunks running at the same
//    time in one call share a slot, so per-slot scratch (arenas, counter
//    shards) needs no locking.  The caller is slot 0.
//  - A throwing chunk stops the call: chunks not yet started are skipped,
//    chunks already running finish, and then the first exception is
//    rethrown on the caller.
//  - A call runs inline, as one body(0, n, 0) on the calling thread, when it
//    has fewer than two grains of work, when it comes from a pool worker or
//    from inside another call's body, under an InlineComputeScope, or when
//    it comes from a ThreadPool task while every usable CPU runs a
//    ThreadPool task (a saturated gsnpd, whose workers then keep one thread
//    each).  A ThreadPool task with CPUs to spare fans out like any caller.
//  - Workers start on the first call that fans out and sleep on a condition
//    variable between calls; they never spin.
//
// Nothing configures the executor: no option, environment variable or
// config field sizes or disables it.

#include <cstddef>
#include <memory>
#include <type_traits>

namespace gsnp {

/// Slots a fan-out can use: the pool's workers plus the calling thread.
std::size_t compute_slots();

/// Whether a parallel_for of `n` indices in chunks of `grain`, issued now
/// from this thread, would fan out.  Callers whose split costs extra work
/// (count_window's per-range read lists) skip the split when it would not.
bool fans_out(std::size_t n, std::size_t grain);

/// While alive, every parallel_for the calling thread issues runs inline:
/// the paper benches' single-core baselines and the fan-out-versus-inline
/// tests.
class InlineComputeScope {
 public:
  InlineComputeScope();
  ~InlineComputeScope();
  InlineComputeScope(const InlineComputeScope&) = delete;
  InlineComputeScope& operator=(const InlineComputeScope&) = delete;

 private:
  bool saved_;
};

/// Counts the calling thread as running a ThreadPool task while alive;
/// ThreadPool wraps each task in one.
class PoolTaskScope {
 public:
  PoolTaskScope();
  ~PoolTaskScope();
  PoolTaskScope(const PoolTaskScope&) = delete;
  PoolTaskScope& operator=(const PoolTaskScope&) = delete;
};

namespace detail {
using ChunkFn = void (*)(void* body, std::size_t begin, std::size_t end,
                         std::size_t slot);
void parallel_for(std::size_t n, std::size_t grain, ChunkFn fn, void* body);
}  // namespace detail

template <typename Body>
void parallel_for(std::size_t n, std::size_t grain, Body&& body) {
  using B = std::remove_reference_t<Body>;
  detail::parallel_for(
      n, grain,
      [](void* b, std::size_t begin, std::size_t end, std::size_t slot) {
        (*static_cast<B*>(b))(begin, end, slot);
      },
      const_cast<void*>(static_cast<const void*>(std::addressof(body))));
}

}  // namespace gsnp
