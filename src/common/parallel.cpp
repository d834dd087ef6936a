#include "src/common/parallel.hpp"

#include <sched.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

namespace gsnp {

namespace {

/// True on pool workers, callers inside a fan-out and threads under an
/// InlineComputeScope: a parallel_for from such a thread runs inline.
thread_local bool t_inline = false;
/// True while the thread runs a ThreadPool task.
thread_local bool t_pool_task = false;
/// ThreadPool tasks running in the process.
std::atomic<std::size_t> g_pool_tasks{0};

/// CPUs this process may run on: its affinity mask (taskset, cpusets,
/// numactl), else every online CPU.
std::size_t usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::size_t worker_count() {
  static const std::size_t n = usable_cpus() - 1;
  return n;
}

/// One fan-out.  Lives on the caller's stack; the caller leaves only after
/// every worker has detached from it.
struct Job {
  detail::ChunkFn fn = nullptr;
  void* body = nullptr;
  std::size_t n = 0;
  std::size_t grain = 1;
  std::size_t chunks = 0;
  std::atomic<std::size_t> next{1};  // chunk 0 belongs to the caller
  std::atomic<bool> failed{false};
  std::size_t attached = 0;  // workers inside the job; guarded by Pool::mu_
  std::exception_ptr error;  // first throw; guarded by Pool::mu_
};

class Pool {
 public:
  Pool() {
    const std::size_t n = worker_count();
    workers_.reserve(n);
    for (std::size_t w = 0; w < n; ++w) {
      try {
        workers_.emplace_back([this, w] { worker(w + 1); });
      } catch (const std::system_error&) {
        break;  // out of threads: the callers and the started workers suffice
      }
    }
  }

  ~Pool() {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      stopping_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  Pool(const Pool&) = delete;
  Pool& operator=(const Pool&) = delete;

  void run(Job& job) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      jobs_.push_back(&job);
    }
    const std::size_t helpers = std::min(workers_.size(), job.chunks - 1);
    for (std::size_t i = 0; i < helpers; ++i) work_cv_.notify_one();

    t_inline = true;  // nested calls from the caller's chunks run inline
    run_chunk(job, 0, 0);
    take_chunks(job, 0);
    t_inline = false;

    std::unique_lock<std::mutex> lock(mu_);
    retire(job);
    done_cv_.wait(lock, [&job] { return job.attached == 0; });
  }

 private:
  void worker(std::size_t slot) {
    t_inline = true;
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      work_cv_.wait(lock, [this] { return stopping_ || !jobs_.empty(); });
      if (stopping_) return;
      Job& job = *jobs_.front();
      ++job.attached;
      lock.unlock();
      take_chunks(job, slot);
      lock.lock();
      retire(job);
      if (--job.attached == 0) done_cv_.notify_all();
    }
  }

  /// Claim and run chunks until none are left or one has thrown.
  void take_chunks(Job& job, std::size_t slot) {
    while (!job.failed.load()) {
      const std::size_t c = job.next.fetch_add(1);
      if (c >= job.chunks) return;
      run_chunk(job, c, slot);
    }
  }

  void run_chunk(Job& job, std::size_t c, std::size_t slot) {
    const std::size_t begin = c * job.grain;
    const std::size_t end = std::min(job.n, begin + job.grain);
    try {
      job.fn(job.body, begin, end, slot);
    } catch (...) {
      job.failed.store(true);
      const std::lock_guard<std::mutex> lock(mu_);
      if (!job.error) job.error = std::current_exception();
    }
  }

  /// Take an exhausted or failed job off the queue so no worker attaches to
  /// it again (mu_ held).
  void retire(Job& job) {
    const auto it = std::find(jobs_.begin(), jobs_.end(), &job);
    if (it != jobs_.end()) jobs_.erase(it);
  }

  std::mutex mu_;
  std::condition_variable work_cv_;  // jobs queued or stopping
  std::condition_variable done_cv_;  // a job's last worker detached
  std::vector<Job*> jobs_;           // guarded by mu_
  bool stopping_ = false;            // guarded by mu_
  std::vector<std::thread> workers_;
};

Pool& pool() {
  static Pool instance;
  return instance;
}

}  // namespace

std::size_t compute_slots() { return worker_count() + 1; }

bool fans_out(std::size_t n, std::size_t grain) {
  if (t_inline || n / std::max<std::size_t>(grain, 1) < 2 ||
      worker_count() == 0)
    return false;
  // A ThreadPool task fans out only while some usable CPU runs no task:
  // when every CPU has one (a saturated gsnpd), helpers would only
  // time-slice busy CPUs.
  return !t_pool_task || g_pool_tasks.load() <= worker_count();
}

InlineComputeScope::InlineComputeScope() : saved_(t_inline) {
  t_inline = true;
}

InlineComputeScope::~InlineComputeScope() { t_inline = saved_; }

PoolTaskScope::PoolTaskScope() {
  t_pool_task = true;
  ++g_pool_tasks;
}

PoolTaskScope::~PoolTaskScope() {
  --g_pool_tasks;
  t_pool_task = false;
}

namespace detail {

void parallel_for(std::size_t n, std::size_t grain, ChunkFn fn, void* body) {
  if (n == 0) return;
  grain = std::max<std::size_t>(grain, 1);
  if (!fans_out(n, grain)) {
    fn(body, 0, n, 0);
    return;
  }
  Job job;
  job.fn = fn;
  job.body = body;
  job.n = n;
  job.grain = grain;
  job.chunks = (n + grain - 1) / grain;
  pool().run(job);
  if (job.error) std::rethrow_exception(job.error);
}

}  // namespace detail

}  // namespace gsnp
