#include "parallel/pool.h"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>

#include "obs/obs.h"
#include "obs/report.h"
#include "obs/telemetry.h"
#include "util/check.h"

namespace alem {
namespace parallel {

namespace {

thread_local bool t_pool_worker = false;

// ---- Profile globals ---------------------------------------------------

// Totals folded in from pools destroyed by SetNumThreads, so a run that
// reconfigures its thread count keeps its full accounting history.
struct FoldedTotals {
  int workers = 0;  // Largest worker count any folded pool had.
  double busy_seconds = 0.0;
  double idle_seconds = 0.0;
  double queue_wait_seconds = 0.0;
  double worker_wall_seconds = 0.0;
};

// Per-region running aggregate behind g_profile_mutex.
struct RegionAccum {
  uint64_t runs = 0;
  uint64_t chunks = 0;
  double min_chunk_seconds = std::numeric_limits<double>::infinity();
  double max_chunk_seconds = 0.0;
  double busy_seconds = 0.0;
  double wall_seconds = 0.0;
  // Sum over runs of workers × region wall — the utilization denominator.
  double capacity_seconds = 0.0;
};

std::mutex g_profile_mutex;
FoldedTotals g_folded;
std::map<std::string, RegionAccum>& Regions() {
  static std::map<std::string, RegionAccum>* regions =
      new std::map<std::string, RegionAccum>();
  return *regions;
}

std::atomic<int> g_active_workers{0};

void AccumulateRegionProfile(std::string_view region, int workers,
                             double wall_seconds,
                             const std::vector<double>& chunk_seconds) {
  double busy = 0.0;
  double min_chunk = std::numeric_limits<double>::infinity();
  double max_chunk = 0.0;
  for (const double s : chunk_seconds) {
    busy += s;
    min_chunk = std::min(min_chunk, s);
    max_chunk = std::max(max_chunk, s);
  }
  std::lock_guard<std::mutex> lock(g_profile_mutex);
  RegionAccum& accum = Regions()[std::string(region)];
  accum.runs += 1;
  accum.chunks += chunk_seconds.size();
  accum.min_chunk_seconds = std::min(accum.min_chunk_seconds, min_chunk);
  accum.max_chunk_seconds = std::max(accum.max_chunk_seconds, max_chunk);
  accum.busy_seconds += busy;
  accum.wall_seconds += wall_seconds;
  accum.capacity_seconds += static_cast<double>(workers) * wall_seconds;
}

// Telemetry pool-occupancy probe, registered from this TU so obs never
// depends on parallel. Probes() in obs/telemetry.cc is a leaked Meyers
// singleton, so registering from a static initializer is safe.
const bool g_pool_probe_registered = [] {
  obs::RegisterTelemetryProbe("telemetry.pool_active_workers", [] {
    return static_cast<double>(ActiveWorkers());
  });
  return true;
}();

}  // namespace

// ---- ThreadPool --------------------------------------------------------

ThreadPool::ThreadPool(int num_threads) {
  ALEM_CHECK_GE(num_threads, 1);
  accounts_ = std::make_unique<WorkerAccount[]>(
      static_cast<size_t>(num_threads));
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back(
        [this, i] { WorkerLoop(static_cast<size_t>(i)); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Fold the final accounting into the process-wide profile so a pool
  // rebuild (SetNumThreads) does not lose history.
  const Totals totals = SnapshotAccounts();
  std::lock_guard<std::mutex> lock(g_profile_mutex);
  g_folded.workers = std::max(g_folded.workers, num_threads());
  g_folded.busy_seconds += totals.busy_seconds;
  g_folded.idle_seconds += totals.idle_seconds;
  g_folded.queue_wait_seconds += totals.queue_wait_seconds;
  g_folded.worker_wall_seconds += totals.worker_wall_seconds;
}

bool ThreadPool::OnWorkerThread() { return t_pool_worker; }

ThreadPool::Totals ThreadPool::SnapshotAccounts() const {
  Totals totals;
  const uint64_t now = obs::TraceNowNanos();
  for (size_t i = 0; i < workers_.size(); ++i) {
    const WorkerAccount& account = accounts_[i];
    const uint64_t start = account.start_ns.load(std::memory_order_relaxed);
    if (start == 0) continue;  // Worker thread not up yet.
    const uint64_t end = account.end_ns.load(std::memory_order_relaxed);
    const uint64_t upto = end != 0 ? end : std::max(now, start);
    totals.worker_wall_seconds += static_cast<double>(upto - start) / 1e9;
    totals.busy_seconds +=
        static_cast<double>(
            account.busy_ns.load(std::memory_order_relaxed)) /
        1e9;
    totals.queue_wait_seconds +=
        static_cast<double>(
            account.queue_ns.load(std::memory_order_relaxed)) /
        1e9;
    double idle =
        static_cast<double>(account.idle_ns.load(std::memory_order_relaxed)) /
        1e9;
    // A live worker blocked in its job wait has an open idle interval;
    // extend it to "now" so busy + idle + queue-wait tracks the wall.
    const uint64_t idle_since =
        account.idle_since_ns.load(std::memory_order_relaxed);
    if (end == 0 && idle_since != 0 && now > idle_since) {
      idle += static_cast<double>(now - idle_since) / 1e9;
    }
    totals.idle_seconds += idle;
  }
  return totals;
}

void ThreadPool::WorkerLoop(size_t worker) {
  t_pool_worker = true;
  WorkerAccount& account = accounts_[worker];
  uint64_t seen_generation = 0;
  // One "cycle" spans from waking with a job to re-entering the wait; the
  // part of it that was not chunk execution (claim overhead, completion
  // notify, mutex re-acquisition) is charged to queue wait, so busy +
  // idle + queue-wait tiles the worker wall with no gaps. The wall clock
  // starts at the first wait, not at thread spawn: spawn -> first mutex
  // acquisition is scheduler noise that belongs to no bucket, and charging
  // it would open a gap in the tiling whenever the host CPU is contended.
  uint64_t cycle_start_ns = 0;  // wait_end of the previous cycle; 0 = none.
  uint64_t cycle_busy_ns = 0;
  while (true) {
    std::shared_ptr<Job> job;
    uint64_t wait_end = 0;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      const uint64_t wait_start = obs::TraceNowNanos();
      if (cycle_start_ns != 0) {
        account.queue_ns.fetch_add(wait_start - cycle_start_ns - cycle_busy_ns,
                                   std::memory_order_relaxed);
      } else {
        account.start_ns.store(wait_start, std::memory_order_relaxed);
      }
      account.idle_since_ns.store(wait_start, std::memory_order_relaxed);
      work_cv_.wait(lock, [&] {
        return shutdown_ || (generation_ != seen_generation && job_ != nullptr);
      });
      wait_end = obs::TraceNowNanos();
      account.idle_since_ns.store(0, std::memory_order_relaxed);
      account.idle_ns.fetch_add(wait_end - wait_start,
                                std::memory_order_relaxed);
      if (shutdown_) {
        account.end_ns.store(wait_end, std::memory_order_relaxed);
        return;
      }
      seen_generation = generation_;
      job = job_;
    }
    cycle_busy_ns = RunChunks(*job, account);
    cycle_start_ns = wait_end;
  }
}

uint64_t ThreadPool::RunChunks(Job& job, WorkerAccount& account) {
  uint64_t busy_ns = 0;
  while (true) {
    const size_t chunk = job.next_chunk.fetch_add(1, std::memory_order_relaxed);
    if (chunk >= job.num_chunks) break;
    const uint64_t chunk_start = obs::TraceNowNanos();
    g_active_workers.fetch_add(1, std::memory_order_relaxed);
    try {
      (*job.fn)(chunk);
    } catch (...) {
      // Keep the lowest-indexed chunk's exception so the rethrow in Run()
      // does not depend on scheduling.
      std::lock_guard<std::mutex> lock(job.error_mutex);
      if (job.error == nullptr || chunk < job.error_chunk) {
        job.error = std::current_exception();
        job.error_chunk = chunk;
      }
    }
    g_active_workers.fetch_sub(1, std::memory_order_relaxed);
    busy_ns += obs::TraceNowNanos() - chunk_start;
    // acq_rel: the final completion forms a release sequence Run()'s
    // acquire load synchronizes with, making every chunk's writes visible
    // to the submitter.
    if (job.completed.fetch_add(1, std::memory_order_acq_rel) + 1 ==
        job.num_chunks) {
      std::lock_guard<std::mutex> lock(mutex_);  // Pairs with Run()'s wait.
      done_cv_.notify_all();
    }
  }
  account.busy_ns.fetch_add(busy_ns, std::memory_order_relaxed);
  return busy_ns;
}

void ThreadPool::Run(size_t num_chunks, const std::function<void(size_t)>& fn) {
  if (OnWorkerThread()) {
    throw std::logic_error(
        "ThreadPool::Run: nested submission from a pool worker is rejected "
        "(it could deadlock); use ParallelFor, which runs nested regions "
        "inline");
  }
  if (num_chunks == 0) return;
  auto job = std::make_shared<Job>();
  job->fn = &fn;
  job->num_chunks = num_chunks;

  std::unique_lock<std::mutex> lock(mutex_);
  // Serialize concurrent submitters: one fork-join region at a time.
  done_cv_.wait(lock, [&] { return job_ == nullptr; });
  job_ = job;
  ++generation_;
  work_cv_.notify_all();
  done_cv_.wait(lock, [&] {
    return job->completed.load(std::memory_order_acquire) == job->num_chunks;
  });
  job_ = nullptr;
  done_cv_.notify_all();  // Wake submitters waiting for job_ == nullptr.
  lock.unlock();

  if (job->error != nullptr) std::rethrow_exception(job->error);
}

// ---- Global pool configuration -----------------------------------------

namespace {

std::mutex g_config_mutex;
int g_num_threads = 0;  // 0 = not yet resolved.
ThreadPool* g_pool = nullptr;

int ResolveDefaultThreads() {
  const char* env = std::getenv("ALEM_THREADS");
  if (env != nullptr && *env != '\0') {
    const long parsed = std::atol(env);
    if (parsed >= 1) return static_cast<int>(parsed);
  }
  return HardwareThreads();
}

// Callers must hold g_config_mutex.
int NumThreadsLocked() {
  if (g_num_threads == 0) g_num_threads = ResolveDefaultThreads();
  return g_num_threads;
}

}  // namespace

int HardwareThreads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int NumThreads() {
  std::lock_guard<std::mutex> lock(g_config_mutex);
  return NumThreadsLocked();
}

void SetNumThreads(int num_threads) {
  num_threads = std::max(1, num_threads);
  std::lock_guard<std::mutex> lock(g_config_mutex);
  if (num_threads == g_num_threads) return;
  g_num_threads = num_threads;
  delete g_pool;  // Joins the old workers (folding their accounting).
  g_pool = nullptr;
}

// ---- Pool utilization profile ------------------------------------------

int ActiveWorkers() {
  return g_active_workers.load(std::memory_order_relaxed);
}

PoolProfile SnapshotPoolProfile() {
  PoolProfile profile;
  {
    // Lock order: config before profile (the ~ThreadPool fold inside
    // SetNumThreads takes them in the same order).
    std::lock_guard<std::mutex> config_lock(g_config_mutex);
    ThreadPool::Totals live;
    int live_workers = 0;
    if (g_pool != nullptr) {
      live = g_pool->SnapshotAccounts();
      live_workers = g_pool->num_threads();
    }
    std::lock_guard<std::mutex> lock(g_profile_mutex);
    profile.workers = std::max(live_workers, g_folded.workers);
    profile.busy_seconds = g_folded.busy_seconds + live.busy_seconds;
    profile.idle_seconds = g_folded.idle_seconds + live.idle_seconds;
    profile.queue_wait_seconds =
        g_folded.queue_wait_seconds + live.queue_wait_seconds;
    profile.worker_wall_seconds =
        g_folded.worker_wall_seconds + live.worker_wall_seconds;
    for (const auto& [name, accum] : Regions()) {
      PoolRegionProfile region;
      region.name = name;
      region.runs = accum.runs;
      region.chunks = accum.chunks;
      region.min_chunk_seconds =
          accum.chunks > 0 ? accum.min_chunk_seconds : 0.0;
      region.max_chunk_seconds = accum.max_chunk_seconds;
      region.mean_chunk_seconds =
          accum.chunks > 0
              ? accum.busy_seconds / static_cast<double>(accum.chunks)
              : 0.0;
      region.busy_seconds = accum.busy_seconds;
      region.wall_seconds = accum.wall_seconds;
      region.utilization = accum.capacity_seconds > 0.0
                               ? accum.busy_seconds / accum.capacity_seconds
                               : 0.0;
      profile.regions.push_back(std::move(region));
    }
  }
  if (profile.worker_wall_seconds > 0.0) {
    profile.utilization =
        profile.busy_seconds / profile.worker_wall_seconds;
  }
  return profile;
}

void ResetPoolProfile() {
  std::lock_guard<std::mutex> config_lock(g_config_mutex);
  delete g_pool;  // Folds its accounting first...
  g_pool = nullptr;
  std::lock_guard<std::mutex> lock(g_profile_mutex);
  g_folded = FoldedTotals();  // ...which this then discards.
  Regions().clear();
}

void StampPoolProfile(obs::RunReport* report) {
  const PoolProfile profile = SnapshotPoolProfile();
  if (!profile.engaged()) return;  // Serial run: no pool section, no gauges.
  report->has_pool = true;
  report->pool.workers = profile.workers;
  report->pool.busy_seconds = profile.busy_seconds;
  report->pool.idle_seconds = profile.idle_seconds;
  report->pool.queue_wait_seconds = profile.queue_wait_seconds;
  report->pool.worker_wall_seconds = profile.worker_wall_seconds;
  report->pool.utilization = profile.utilization;
  report->pool.regions.clear();
  for (const PoolRegionProfile& region : profile.regions) {
    obs::PoolRegionStats stats;
    stats.name = region.name;
    stats.runs = region.runs;
    stats.chunks = region.chunks;
    stats.min_chunk_seconds = region.min_chunk_seconds;
    stats.max_chunk_seconds = region.max_chunk_seconds;
    stats.mean_chunk_seconds = region.mean_chunk_seconds;
    stats.utilization = region.utilization;
    report->pool.regions.push_back(std::move(stats));
  }
  if (obs::MetricsEnabled()) {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    registry.GetGauge("parallel.pool.workers")
        .Set(static_cast<double>(profile.workers));
    registry.GetGauge("parallel.pool.busy_seconds")
        .Set(profile.busy_seconds);
    registry.GetGauge("parallel.pool.idle_seconds")
        .Set(profile.idle_seconds);
    registry.GetGauge("parallel.pool.queue_wait_seconds")
        .Set(profile.queue_wait_seconds);
    registry.GetGauge("parallel.pool.worker_wall_seconds")
        .Set(profile.worker_wall_seconds);
    registry.GetGauge("parallel.pool.utilization")
        .Set(profile.utilization);
  }
}

// ---- ParallelFor -------------------------------------------------------

void ParallelFor(size_t begin, size_t end, size_t grain, const ChunkFn& fn,
                 std::string_view region) {
  ALEM_CHECK_GT(grain, 0u);
  if (end <= begin) return;
  const size_t num_chunks = NumChunks(begin, end, grain);
  auto run_chunk = [&](size_t chunk) {
    const size_t chunk_begin = begin + chunk * grain;
    const size_t chunk_end = std::min(end, chunk_begin + grain);
    fn(chunk_begin, chunk_end, chunk);
  };

  ThreadPool* pool = nullptr;
  if (num_chunks > 1 && !ThreadPool::OnWorkerThread()) {
    std::lock_guard<std::mutex> lock(g_config_mutex);
    if (NumThreadsLocked() > 1) {
      if (g_pool == nullptr) g_pool = new ThreadPool(g_num_threads);
      pool = g_pool;
    }
  }
  if (pool == nullptr) {
    // Serial path (threads=1, single chunk, or nested region): same chunk
    // decomposition, inline and in index order — bitwise-identical results,
    // and no extra trace spans so serial traces match the pre-parallel ones.
    for (size_t chunk = 0; chunk < num_chunks; ++chunk) run_chunk(chunk);
    return;
  }

  if (!region.empty()) {
    // Chunk durations land in disjoint per-chunk slots (only read after
    // Run()'s completion barrier), feeding the per-region imbalance stats.
    const bool profile = obs::MetricsEnabled();
    std::vector<double> chunk_seconds;
    if (profile) chunk_seconds.assign(num_chunks, 0.0);
    obs::ObsSpan aggregate_span(std::string(region) + ".parallel", "parallel");
    pool->Run(num_chunks, [&](size_t chunk) {
      obs::ObsSpan chunk_span("parallel.chunk", "parallel", region);
      run_chunk(chunk);
      if (profile) chunk_seconds[chunk] = chunk_span.Close();
    });
    const double wall_seconds = aggregate_span.Close();
    if (profile) {
      AccumulateRegionProfile(region, pool->num_threads(), wall_seconds,
                              chunk_seconds);
    }
  } else {
    pool->Run(num_chunks, run_chunk);
  }
}

uint64_t TaskSeed(uint64_t base, uint64_t index) {
  // splitmix64 finalizer over a golden-ratio stride: distinct indices land
  // in distinct, well-mixed streams for any fixed base.
  uint64_t z = base + 0x9e3779b97f4a7c15ULL * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace parallel
}  // namespace alem
