// Thread-pool scaling harness: end-to-end active-learning throughput at
// 1/2/4/8 worker threads. Exercises the three parallelized hot paths —
// bootstrap-committee fits, per-example committee/margin scoring, and
// per-tree forest fits — and asserts the determinism contract along the
// way: every thread count must reproduce the threads=1 curve bit for bit.
// Writes BENCH_parallel.json (into ALEM_CSV_DIR when set, else the cwd)
// with per-thread-count wall seconds and speedups.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/approaches.h"
#include "parallel/pool.h"
#include "synth/profiles.h"

namespace {

struct ScalingPoint {
  int threads = 1;
  double seconds = 0.0;
  double speedup = 1.0;
};

struct Workload {
  std::string name;
  std::vector<ScalingPoint> points;
  bool deterministic = true;
};

// Curves must agree exactly — same lengths, same selections (visible through
// labels_used), same float-for-float metrics.
bool SameCurve(const alem::RunResult& a, const alem::RunResult& b) {
  if (a.curve.size() != b.curve.size()) return false;
  for (size_t i = 0; i < a.curve.size(); ++i) {
    if (a.curve[i].labels_used != b.curve[i].labels_used) return false;
    if (a.curve[i].metrics.f1 != b.curve[i].metrics.f1) return false;
    if (a.curve[i].metrics.precision != b.curve[i].metrics.precision) {
      return false;
    }
    if (a.curve[i].metrics.recall != b.curve[i].metrics.recall) return false;
  }
  return a.best_f1 == b.best_f1;
}

}  // namespace

int main() {
  using namespace alem;
  namespace b = alem::bench;
  b::PrintHeader(
      "Parallel scaling: committee fits, example scoring, forest fits",
      "wall seconds per full active-learning run at 1/2/4/8 threads; every "
      "thread count must reproduce the threads=1 curve exactly");

  const double scale = b::ScaleFromEnv();
  const size_t max_labels = b::MaxLabelsFromEnv(120);
  const std::vector<int> thread_counts = {1, 2, 4, 8};
  std::printf("hardware threads: %d\n\n", parallel::HardwareThreads());

  const PreparedDataset data = PrepareDataset({.profile = AbtBuyProfile(),
                                               .data_seed = 7,
                                               .scale = scale});

  struct Spec {
    const char* name;
    ApproachSpec approach;
  };
  const std::vector<Spec> specs = {
      {"linear-qbc8", LinearQbcSpec(8)},   // Committee fits + QBC scoring.
      {"trees10", TreesSpec(10)},          // Forest fits + vote scoring.
      {"linear-margin", LinearMarginSpec(0)},  // Pure margin scoring.
  };

  std::vector<Workload> workloads;
  for (const Spec& spec : specs) {
    Workload workload;
    workload.name = spec.name;
    RunResult baseline;
    for (const int threads : thread_counts) {
      parallel::SetNumThreads(threads);
      const auto start = std::chrono::steady_clock::now();
      const RunResult result = b::Run(data, spec.approach, max_labels);
      const double seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        start)
              .count();
      if (threads == 1) {
        baseline = result;
      } else if (!SameCurve(baseline, result)) {
        workload.deterministic = false;
      }
      ScalingPoint point;
      point.threads = threads;
      point.seconds = seconds;
      point.speedup = workload.points.empty()
                          ? 1.0
                          : workload.points.front().seconds / seconds;
      workload.points.push_back(point);
    }
    parallel::SetNumThreads(1);

    std::printf("--- %s (best F1 %.3f) ---\n", workload.name.c_str(),
                baseline.best_f1);
    std::printf("%8s  %12s  %8s\n", "threads", "seconds", "speedup");
    for (const ScalingPoint& point : workload.points) {
      std::printf("%8d  %12.3f  %7.2fx\n", point.threads, point.seconds,
                  point.speedup);
    }
    std::printf("deterministic across thread counts: %s\n\n",
                workload.deterministic ? "yes" : "NO (BUG)");
    workloads.push_back(std::move(workload));
  }

  // Machine-readable summary for EXPERIMENTS.md / CI trend lines.
  const char* dir = std::getenv("ALEM_CSV_DIR");
  const std::string path =
      (dir != nullptr && *dir != '\0' ? std::string(dir) + "/" : std::string())
      + "BENCH_parallel.json";
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out != nullptr) {
    std::fprintf(out, "{\n  \"build\": \"%s\",\n", b::BuildGitSha());
    std::fprintf(out, "  \"hardware_threads\": %d,\n",
                 parallel::HardwareThreads());
    std::fprintf(out, "  \"scale\": %.3f,\n  \"max_labels\": %zu,\n", scale,
                 max_labels);
    std::fprintf(out, "  \"workloads\": [\n");
    for (size_t w = 0; w < workloads.size(); ++w) {
      const Workload& workload = workloads[w];
      std::fprintf(out, "    {\"name\": \"%s\", \"deterministic\": %s,\n",
                   workload.name.c_str(),
                   workload.deterministic ? "true" : "false");
      std::fprintf(out, "     \"points\": [");
      for (size_t p = 0; p < workload.points.size(); ++p) {
        const ScalingPoint& point = workload.points[p];
        std::fprintf(out,
                     "%s{\"threads\": %d, \"seconds\": %.6f, "
                     "\"speedup\": %.3f}",
                     p == 0 ? "" : ", ", point.threads, point.seconds,
                     point.speedup);
      }
      std::fprintf(out, "]}%s\n", w + 1 < workloads.size() ? "," : "");
    }
    std::fprintf(out, "  ]\n}\n");
    std::fclose(out);
    std::printf("(json written to %s)\n", path.c_str());
  }

  bool all_deterministic = true;
  for (const Workload& workload : workloads) {
    all_deterministic = all_deterministic && workload.deterministic;
  }
  return all_deterministic ? 0 : 1;
}
