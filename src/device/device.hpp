#pragma once
// gsnp::device — a deterministic SIMT device simulator.
//
// This module is the documented substitution for the paper's CUDA/Tesla M2050
// environment (DESIGN.md).  Kernels are written against a CUDA-shaped API:
// a launch is a grid of thread blocks; each block has its own shared-memory
// arena and executes *phases* separated by barriers (`BlockContext::threads`
// runs a functor for every thread id and the end of the call is a
// __syncthreads()); global/shared/constant memory accesses go through
// instrumented accessors on ThreadContext.
//
// Instrumentation model (drives paper Table III):
//   * `instructions` — incremented once per memory access plus explicitly via
//     ThreadContext::inst() for arithmetic work (a transcendental such as
//     log10 is conventionally counted as kTranscendentalCost).
//   * `global_loads` / `global_stores` — one count per global access request.
//   * `shared_loads` / `shared_stores` — one count per shared access.
//   * constant-memory reads are cached on real hardware; they count one
//     instruction and no global traffic.
//   * h2d/d2h transfer bytes are tracked per copy.
// The paper reports per-warp ("PW") counters; benches divide the raw
// per-thread counts by kWarpSize for presentation.
//
// Blocks execute in parallel on the compute executor (common/parallel.hpp),
// in chunks of kBlocksPerChunk, or inline on the launching thread when the
// executor's rules say so (a pool worker, a nested call, a ThreadPool task
// while every CPU runs one); within a block, threads of a phase run
// sequentially in tid order, which makes every kernel
// deterministic and race-free by construction provided threads write disjoint
// global locations within a phase (the CUDA discipline).

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/crc32.hpp"
#include "src/common/error.hpp"
#include "src/common/types.hpp"

namespace gsnp::device {

inline constexpr int kWarpSize = 32;
/// Instruction-count convention for a transcendental function call.
/// Calibrated against paper Table III: removing ten log10 calls plus ten
/// loads per aligned base lowered the profiler's issued-instruction count to
/// only ~73% of baseline, implying the transcendental issues few instructions
/// relative to the surrounding index arithmetic (kUpdateOverhead per
/// genotype-update iteration).
inline constexpr u64 kTranscendentalCost = 2;
inline constexpr u64 kUpdateOverhead = 8;

/// A device-level fault (failed kernel launch, corrupted transfer, wedged
/// card).  Subclass of gsnp::Error so existing catch sites still work; the
/// genome pipeline catches this type specifically to retry and degrade to
/// the CPU engine.
class DeviceFaultError : public Error {
 public:
  using Error::Error;
};

/// Device global-memory exhaustion, with the byte accounting that triggered
/// it.  Raised both by real budget violations (DeviceSpec::global_bytes, the
/// M2050's 3 GB) and by injected allocation faults.
class DeviceOomError : public DeviceFaultError {
 public:
  DeviceOomError(const std::string& what, u64 requested, u64 allocated)
      : DeviceFaultError(what), requested_bytes(requested),
        allocated_bytes(allocated) {}

  u64 requested_bytes;  ///< size of the allocation that failed
  u64 allocated_bytes;  ///< bytes already allocated when it failed
};

/// Deterministic fault-injection plan.  Device operations are counted per
/// category (allocations, kernel launches, H2D transfers, D2H transfers);
/// an operation whose 0-based sequence number falls in
/// [trigger, trigger + fault_count) fails.  `fault_count = -1` makes the
/// fault persistent (every operation from the trigger on fails) — the model
/// of a wedged card; a finite count models a transient glitch that heals,
/// e.g. `fault_count = max_attempts` fails every retry of one chromosome
/// and then clears.  Transfer corruption flips one seeded-random byte of the
/// destination copy; the end-to-end transfer CRC then detects it.
struct FaultPlan {
  i64 fail_alloc_at = -1;    ///< allocation index to start failing (-1 = off)
  i64 fail_launch_at = -1;   ///< kernel-launch index to start failing
  i64 corrupt_h2d_at = -1;   ///< H2D transfer index to start corrupting
  i64 corrupt_d2h_at = -1;   ///< D2H transfer index to start corrupting
  i64 fault_count = 1;       ///< ops affected from the trigger on; -1 = all
  u64 seed = 0x600D5EEDULL;  ///< corruption byte / mask selection

  /// Does operation number `seq` of a category with trigger `at` fault?
  bool hits(i64 at, u64 seq) const {
    if (at < 0 || static_cast<i64>(seq) < at) return false;
    return fault_count < 0 || static_cast<i64>(seq) < at + fault_count;
  }
  bool any() const {
    return fail_alloc_at >= 0 || fail_launch_at >= 0 || corrupt_h2d_at >= 0 ||
           corrupt_d2h_at >= 0;
  }
};

/// Hardware parameters of the simulated device (defaults: Tesla M2050).
struct DeviceSpec {
  u64 global_bytes = 3ULL << 30;   ///< 3 GB global memory
  u64 shared_bytes = 48 << 10;     ///< 48 KB shared memory per block
  u64 constant_bytes = 64 << 10;   ///< 64 KB constant memory
  int max_block_threads = 1024;
  FaultPlan fault;                 ///< fault-injection plan (default: none)
};

/// Memory access pattern annotation for global accesses.  Kernel authors
/// mark accesses the way a CUDA programmer reasons about them: kCoalesced for
/// warp-consecutive addresses (served at the device's streaming bandwidth),
/// kRandom for scattered addresses (served at the random-access bandwidth).
enum class Access : u8 { kCoalesced, kRandom };

/// Aggregated hardware counters for a Device.
struct DeviceCounters {
  u64 instructions = 0;
  u64 global_loads_coalesced = 0;
  u64 global_loads_random = 0;
  u64 global_stores_coalesced = 0;
  u64 global_stores_random = 0;
  u64 global_load_bytes_coalesced = 0;
  u64 global_load_bytes_random = 0;
  u64 global_store_bytes_coalesced = 0;
  u64 global_store_bytes_random = 0;
  u64 shared_loads = 0;
  u64 shared_stores = 0;
  u64 shared_bytes = 0;
  u64 h2d_bytes = 0;
  u64 d2h_bytes = 0;
  u64 kernel_launches = 0;

  u64 global_loads() const {
    return global_loads_coalesced + global_loads_random;
  }
  u64 global_stores() const {
    return global_stores_coalesced + global_stores_random;
  }

  DeviceCounters& operator+=(const DeviceCounters& o) {
    instructions += o.instructions;
    global_loads_coalesced += o.global_loads_coalesced;
    global_loads_random += o.global_loads_random;
    global_stores_coalesced += o.global_stores_coalesced;
    global_stores_random += o.global_stores_random;
    global_load_bytes_coalesced += o.global_load_bytes_coalesced;
    global_load_bytes_random += o.global_load_bytes_random;
    global_store_bytes_coalesced += o.global_store_bytes_coalesced;
    global_store_bytes_random += o.global_store_bytes_random;
    shared_loads += o.shared_loads;
    shared_stores += o.shared_stores;
    shared_bytes += o.shared_bytes;
    h2d_bytes += o.h2d_bytes;
    d2h_bytes += o.d2h_bytes;
    kernel_launches += o.kernel_launches;
    return *this;
  }
};

class Device;

/// Everything the device knows about one finished (or failed) kernel launch.
/// `name` points at the launch site's string literal and is only valid for
/// the duration of the callback.
struct LaunchInfo {
  std::string_view name;      ///< kernel name ("" for unnamed legacy launches)
  u32 grid_dim = 0;
  u32 block_dim = 0;
  u32 stream_id = 0;          ///< issuing stream (1-based); 0 = default queue
  bool failed = false;        ///< a block threw; delta covers blocks that ran
  DeviceCounters delta;       ///< counter movement attributable to the launch
  u64 allocated_bytes = 0;    ///< global bytes live when the launch finished
  u64 peak_global_bytes = 0;  ///< device-lifetime allocation high-water mark
};

/// Observer for kernel launches (the profiler implements this; the device
/// layer cannot depend on src/obs).  At most one listener per Device; the
/// callback runs on the launching host thread after block shards have been
/// reduced into the device aggregate, and must not launch kernels or throw.
class LaunchListener {
 public:
  virtual ~LaunchListener() = default;
  virtual void on_kernel_launch(const LaunchInfo& info) = 0;
};

/// A typed allocation in simulated device global memory.  Host code must not
/// dereference it directly; kernels access it through ThreadContext, host
/// code through Device::to_host / copy_to_host.
template <typename T>
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(DeviceBuffer&& o) noexcept { swap(o); }
  DeviceBuffer& operator=(DeviceBuffer&& o) noexcept {
    if (this != &o) {
      release();
      swap(o);
    }
    return *this;
  }
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  ~DeviceBuffer() { release(); }

  u64 size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  u64 bytes() const { return data_.size() * sizeof(T); }

 private:
  friend class Device;
  friend class ThreadContext;

  DeviceBuffer(Device* dev, std::vector<T> data)
      : dev_(dev), data_(std::move(data)) {}

  inline void release();
  void swap(DeviceBuffer& o) noexcept {
    std::swap(dev_, o.dev_);
    std::swap(data_, o.data_);
  }

  Device* dev_ = nullptr;
  std::vector<T> data_;
};

/// A table resident in (cached) constant memory: read-only for kernels,
/// limited to DeviceSpec::constant_bytes across all live tables.
template <typename T>
class ConstantTable {
 public:
  ConstantTable() = default;
  ConstantTable(ConstantTable&& o) noexcept { swap(o); }
  ConstantTable& operator=(ConstantTable&& o) noexcept {
    if (this != &o) {
      release();
      swap(o);
    }
    return *this;
  }
  ConstantTable(const ConstantTable&) = delete;
  ConstantTable& operator=(const ConstantTable&) = delete;
  ~ConstantTable() { release(); }

  u64 size() const { return data_.size(); }
  u64 bytes() const { return data_.size() * sizeof(T); }

 private:
  friend class Device;
  friend class ThreadContext;

  ConstantTable(Device* dev, std::vector<T> data)
      : dev_(dev), data_(std::move(data)) {}

  inline void release();
  void swap(ConstantTable& o) noexcept {
    std::swap(dev_, o.dev_);
    std::swap(data_, o.data_);
  }

  Device* dev_ = nullptr;
  std::vector<T> data_;
};

class BlockContext;

/// Per-thread view inside a kernel phase: instrumented memory accessors.
class ThreadContext {
 public:
  u32 tid() const { return tid_; }
  u32 block_dim() const { return block_dim_; }
  u32 block_idx() const { return block_idx_; }
  /// Global linear thread index across the launch.
  u64 global_tid() const {
    return static_cast<u64>(block_idx_) * block_dim_ + tid_;
  }

  /// Instrumented global-memory load.
  template <typename T>
  T gload(const DeviceBuffer<T>& buf, u64 i, Access acc = Access::kRandom) {
    GSNP_CHECK_MSG(i < buf.data_.size(),
                   "device gload out of range: " << i << "/" << buf.data_.size());
    if (acc == Access::kCoalesced) {
      counters_->global_loads_coalesced++;
      counters_->global_load_bytes_coalesced += sizeof(T);
    } else {
      counters_->global_loads_random++;
      counters_->global_load_bytes_random += sizeof(T);
    }
    counters_->instructions++;
    return buf.data_[i];
  }

  /// Instrumented global-memory store.
  template <typename T>
  void gstore(DeviceBuffer<T>& buf, u64 i, T v, Access acc = Access::kRandom) {
    GSNP_CHECK_MSG(i < buf.data_.size(),
                   "device gstore out of range: " << i << "/" << buf.data_.size());
    if (acc == Access::kCoalesced) {
      counters_->global_stores_coalesced++;
      counters_->global_store_bytes_coalesced += sizeof(T);
    } else {
      counters_->global_stores_random++;
      counters_->global_store_bytes_random += sizeof(T);
    }
    counters_->instructions++;
    buf.data_[i] = v;
  }

  /// Read-modify-write on global memory (counts one load + one store).
  template <typename T>
  void gadd(DeviceBuffer<T>& buf, u64 i, T v, Access acc = Access::kRandom) {
    gstore(buf, i, static_cast<T>(gload(buf, i, acc) + v), acc);
  }

  /// Instrumented shared-memory load.
  template <typename T>
  T sload(std::span<const T> shared, u64 i) {
    GSNP_CHECK_MSG(i < shared.size(), "device sload out of range");
    counters_->shared_loads++;
    counters_->shared_bytes += sizeof(T);
    counters_->instructions++;
    return shared[i];
  }

  /// Instrumented shared-memory store.
  template <typename T>
  void sstore(std::span<T> shared, u64 i, T v) {
    GSNP_CHECK_MSG(i < shared.size(), "device sstore out of range");
    counters_->shared_stores++;
    counters_->shared_bytes += sizeof(T);
    counters_->instructions++;
    shared[i] = v;
  }

  /// Bulk global load: `n` consecutive elements as one call (counts n loads).
  /// Models a thread/block streaming a contiguous run — same counter effect
  /// as n scalar gloads, far cheaper to simulate.
  template <typename T>
  std::span<const T> gload_bulk(const DeviceBuffer<T>& buf, u64 i, u64 n,
                                Access acc = Access::kCoalesced) {
    GSNP_CHECK_MSG(i + n <= buf.data_.size(), "device gload_bulk out of range");
    if (acc == Access::kCoalesced) {
      counters_->global_loads_coalesced += n;
      counters_->global_load_bytes_coalesced += n * sizeof(T);
    } else {
      counters_->global_loads_random += n;
      counters_->global_load_bytes_random += n * sizeof(T);
    }
    counters_->instructions += n;
    return std::span<const T>(buf.data_).subspan(i, n);
  }

  /// Constant-memory read: cached on hardware, no global traffic.
  template <typename T>
  T cload(const ConstantTable<T>& table, u64 i) {
    GSNP_CHECK_MSG(i < table.data_.size(), "device cload out of range");
    counters_->instructions++;
    return table.data_[i];
  }

  /// Account `n` arithmetic/control instructions.
  void inst(u64 n = 1) { counters_->instructions += n; }

 private:
  friend class BlockContext;
  ThreadContext(u32 tid, u32 block_dim, u32 block_idx, DeviceCounters* counters)
      : tid_(tid), block_dim_(block_dim), block_idx_(block_idx),
        counters_(counters) {}

  u32 tid_;
  u32 block_dim_;
  u32 block_idx_;
  DeviceCounters* counters_;
};

/// Per-block view inside a kernel: shared-memory arena and phase execution.
class BlockContext {
 public:
  u32 block_idx() const { return block_idx_; }
  u32 grid_dim() const { return grid_dim_; }
  u32 block_dim() const { return block_dim_; }

  /// Allocate a zero-initialized array in this block's shared memory.
  /// Throws if the block's shared-memory budget is exceeded.
  template <typename T>
  std::span<T> shared_array(u64 n) {
    const u64 bytes = n * sizeof(T);
    // Align the arena cursor to the element size.
    const u64 aligned = (shared_used_ + alignof(T) - 1) & ~(alignof(T) - 1);
    GSNP_CHECK_MSG(aligned + bytes <= arena_.size(),
                   "shared memory exceeded: need " << (aligned + bytes)
                                                   << " of " << arena_.size());
    T* ptr = reinterpret_cast<T*>(arena_.data() + aligned);
    shared_used_ = aligned + bytes;
    std::fill_n(ptr, n, T{});
    return {ptr, static_cast<std::size_t>(n)};
  }

  /// Execute one SIMT phase: `fn(ThreadContext&)` for every thread of the
  /// block.  The end of the call is a block-wide barrier (__syncthreads()).
  template <typename Fn>
  void threads(Fn&& fn) {
    for (u32 tid = 0; tid < block_dim_; ++tid) {
      ThreadContext ctx(tid, block_dim_, block_idx_, counters_);
      fn(ctx);
    }
  }

  /// Convenience: a phase where only thread 0 runs (e.g. block bookkeeping).
  template <typename Fn>
  void single_thread(Fn&& fn) {
    ThreadContext ctx(0, block_dim_, block_idx_, counters_);
    fn(ctx);
  }

 private:
  friend class Device;
  BlockContext(u32 block_idx, u32 grid_dim, u32 block_dim,
               std::span<std::byte> arena, DeviceCounters* counters)
      : block_idx_(block_idx), grid_dim_(grid_dim), block_dim_(block_dim),
        arena_(arena), counters_(counters) {}

  u32 block_idx_;
  u32 grid_dim_;
  u32 block_dim_;
  std::span<std::byte> arena_;
  u64 shared_used_ = 0;
  DeviceCounters* counters_;
};

/// The simulated device: allocation, transfers, kernel launches, counters.
class Device {
 public:
  explicit Device(const DeviceSpec& spec = {});

  const DeviceSpec& spec() const { return spec_; }

  /// Allocate `n` default-initialized elements of global memory.
  template <typename T>
  DeviceBuffer<T> alloc(u64 n, T init = T{}) {
    reserve_global(n * sizeof(T));
    return DeviceBuffer<T>(this, std::vector<T>(n, init));
  }

  /// Copy host data to a fresh device buffer (counts H2D bytes).  Every
  /// transfer is CRC-verified end-to-end: the source checksum is compared to
  /// the destination copy's, so (injected) DMA corruption raises
  /// DeviceFaultError instead of propagating garbage into kernels.
  template <typename T>
  DeviceBuffer<T> to_device(std::span<const T> host) {
    reserve_global(host.size() * sizeof(T));
    counters_.h2d_bytes += host.size() * sizeof(T);
    std::vector<T> data(host.begin(), host.end());
    finish_h2d({reinterpret_cast<std::byte*>(data.data()),
                data.size() * sizeof(T)},
               crc32(host.data(), host.size() * sizeof(T)));
    return DeviceBuffer<T>(this, std::move(data));
  }

  /// Copy a device buffer back to the host (counts D2H bytes, CRC-verified).
  template <typename T>
  std::vector<T> to_host(const DeviceBuffer<T>& buf) {
    counters_.d2h_bytes += buf.bytes();
    std::vector<T> host = buf.data_;
    finish_d2h({reinterpret_cast<std::byte*>(host.data()),
                host.size() * sizeof(T)},
               crc32(buf.data_.data(), buf.bytes()));
    return host;
  }

  /// Overwrite device buffer contents from host data (sizes must match,
  /// CRC-verified like to_device).
  template <typename T>
  void upload(DeviceBuffer<T>& buf, std::span<const T> host) {
    GSNP_CHECK_MSG(host.size() == buf.data_.size(), "upload size mismatch");
    counters_.h2d_bytes += host.size() * sizeof(T);
    std::copy(host.begin(), host.end(), buf.data_.begin());
    finish_h2d({reinterpret_cast<std::byte*>(buf.data_.data()),
                buf.data_.size() * sizeof(T)},
               crc32(host.data(), host.size() * sizeof(T)));
  }

  /// Place a read-only table in constant memory (counts H2D bytes; enforces
  /// the 64 KB constant budget across live tables).
  template <typename T>
  ConstantTable<T> to_constant(std::span<const T> host) {
    const u64 bytes = host.size() * sizeof(T);
    GSNP_CHECK_MSG(constant_used_ + bytes <= spec_.constant_bytes,
                   "constant memory exceeded: " << (constant_used_ + bytes)
                                                << " > " << spec_.constant_bytes);
    constant_used_ += bytes;
    counters_.h2d_bytes += bytes;
    std::vector<T> data(host.begin(), host.end());
    finish_h2d({reinterpret_cast<std::byte*>(data.data()),
                data.size() * sizeof(T)},
               crc32(host.data(), host.size() * sizeof(T)));
    return ConstantTable<T>(this, std::move(data));
  }

  /// Device-side fill (cudaMemset-style): counts coalesced stores for the
  /// whole buffer.
  template <typename T>
  void fill(DeviceBuffer<T>& buf, T value) {
    std::fill(buf.data_.begin(), buf.data_.end(), value);
    counters_.global_stores_coalesced += buf.size();
    counters_.global_store_bytes_coalesced += buf.bytes();
    counters_.instructions += buf.size();
  }

  /// Launch `grid_dim` blocks of `block_dim` threads running `kernel`, a
  /// callable taking BlockContext&.  Blocks run in parallel across host
  /// threads; each gets a private shared-memory arena.  `name` identifies the
  /// kernel to an attached LaunchListener (the profiler aggregates by it);
  /// pass a string literal so LaunchInfo::name stays valid in the callback.
  template <typename Kernel>
  void launch(std::string_view name, u32 grid_dim, u32 block_dim,
              Kernel&& kernel) {
    if (block_dim < 1 ||
        block_dim > static_cast<u32>(spec_.max_block_threads)) {
      std::ostringstream os;
      os << "bad block_dim " << block_dim << " (max_block_threads "
         << spec_.max_block_threads << ")";
      throw DeviceFaultError(os.str());
    }
    GSNP_CHECK(grid_dim >= 1);
    begin_launch();
    // Snapshot before bumping kernel_launches so the launch's own fixed cost
    // lands inside its delta.
    const DeviceCounters before = counters_;
    counters_.kernel_launches++;
    if (listener_.load(std::memory_order_acquire) == nullptr) {
      run_blocks(grid_dim, block_dim, [&](BlockContext& blk) { kernel(blk); });
      return;
    }
    try {
      run_blocks(grid_dim, block_dim, [&](BlockContext& blk) { kernel(blk); });
    } catch (...) {
      // run_blocks has already reduced the shards of the blocks that ran, so
      // the listener still sees an exact delta for the partial launch.
      notify_launch(name, grid_dim, block_dim, before, /*failed=*/true);
      throw;
    }
    notify_launch(name, grid_dim, block_dim, before, /*failed=*/false);
  }

  /// Unnamed launch (legacy sites and one-off test kernels).  Profilers
  /// aggregate these under "(unnamed)".
  template <typename Kernel>
  void launch(u32 grid_dim, u32 block_dim, Kernel&& kernel) {
    launch(std::string_view{}, grid_dim, block_dim,
           std::forward<Kernel>(kernel));
  }

  /// Attach/detach a launch observer (at most one; nullptr detaches).  The
  /// pointer is atomic so registration from one thread is visible to
  /// launches on another without a data race (ThreadSanitizer-clean); the
  /// listener object itself must outlive any launch that can observe it.
  void set_launch_listener(LaunchListener* listener) {
    listener_.store(listener, std::memory_order_release);
  }
  LaunchListener* launch_listener() const {
    return listener_.load(std::memory_order_acquire);
  }

  /// The stream currently draining ops on this device (set by StreamPool
  /// around each op; 0 = default synchronous queue).  Stamped into
  /// LaunchInfo::stream_id so profilers can key rows by (kernel, stream).
  void set_current_stream(u32 stream_id) { current_stream_ = stream_id; }
  u32 current_stream() const { return current_stream_; }

  const DeviceCounters& counters() const { return counters_; }
  void reset_counters() { counters_ = DeviceCounters{}; }

  u64 allocated_bytes() const { return global_used_.load(); }
  u64 peak_allocated_bytes() const { return global_peak_.load(); }
  u64 constant_bytes_used() const { return constant_used_; }

  /// Secondary high-water mark for scoped measurements (the batcher reads
  /// the actual peak of each batch through this).  Resetting rebases the
  /// watermark to the bytes currently live; the lifetime peak reported by
  /// peak_allocated_bytes() is never disturbed.
  void reset_peak_watermark() { watermark_peak_.store(global_used_.load()); }
  u64 peak_since_watermark() const { return watermark_peak_.load(); }

  /// Fault injection (see FaultPlan).  Operation sequence numbers keep
  /// counting across the device's whole lifetime, so a plan can target the
  /// Nth operation of a multi-chromosome run deterministically.
  void set_fault_plan(const FaultPlan& plan) { spec_.fault = plan; }
  const FaultPlan& fault_plan() const { return spec_.fault; }
  u64 alloc_count() const { return alloc_seq_; }
  u64 launch_count() const { return launch_seq_; }
  u64 h2d_count() const { return h2d_seq_; }
  u64 d2h_count() const { return d2h_seq_; }

 private:
  template <typename T>
  friend class DeviceBuffer;
  template <typename T>
  friend class ConstantTable;

  void reserve_global(u64 bytes);
  void release_global(u64 bytes) { global_used_ -= bytes; }
  void release_constant(u64 bytes) { constant_used_ -= bytes; }

  /// Fault-injection + CRC verification tail of every transfer: optionally
  /// corrupts the destination copy per the plan, then compares its CRC to
  /// the source's and throws DeviceFaultError on mismatch.
  void begin_launch();
  void finish_h2d(std::span<std::byte> dst, u32 src_crc);
  void finish_d2h(std::span<std::byte> dst, u32 src_crc);
  void verify_transfer(const char* dir, std::span<std::byte> dst, u32 src_crc,
                       u64 seq, bool corrupt);

  /// Blocks one executor chunk runs back to back.
  static constexpr std::size_t kBlocksPerChunk = 16;

  /// Type-erased block loop on the compute executor (device.cpp).
  void run_blocks(u32 grid_dim, u32 block_dim,
                  const std::function<void(BlockContext&)>& body);

  /// Non-template listener notification (device.cpp) so launch() stays lean.
  void notify_launch(std::string_view name, u32 grid_dim, u32 block_dim,
                     const DeviceCounters& before, bool failed);

  DeviceSpec spec_;
  DeviceCounters counters_;
  std::atomic<LaunchListener*> listener_{nullptr};
  u32 current_stream_ = 0;
  std::atomic<u64> global_used_{0};
  std::atomic<u64> global_peak_{0};
  std::atomic<u64> watermark_peak_{0};
  u64 constant_used_ = 0;
  // Operation sequence counters driving FaultPlan triggers (host-side only).
  u64 alloc_seq_ = 0;
  u64 launch_seq_ = 0;
  u64 h2d_seq_ = 0;
  u64 d2h_seq_ = 0;
};

template <typename T>
inline void DeviceBuffer<T>::release() {
  if (dev_) dev_->release_global(bytes());
  dev_ = nullptr;
  data_.clear();
}

template <typename T>
inline void ConstantTable<T>::release() {
  if (dev_) dev_->release_constant(bytes());
  dev_ = nullptr;
  data_.clear();
}

}  // namespace gsnp::device
