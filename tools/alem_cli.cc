// alem_cli: command-line front end for the benchmark framework.
//
// Commands:
//   alem_cli list
//       Lists the built-in dataset profiles and approach names.
//   alem_cli kernels
//       Prints the available SIMD kernel backends and the one that is
//       active under the current --kernel-backend / ALEM_KERNEL_BACKEND
//       selection (docs/kernels.md).
//   alem_cli stats --dataset=<name> [--scale=S] [--seed=N]
//       Table-1 style statistics for one dataset.
//   alem_cli run --dataset=<name> --approach=<name>
//       [--max-labels=N] [--batch=N] [--seed-size=N] [--noise=P]
//       [--holdout] [--scale=S] [--seed=N] [--save-model=PATH] [--quiet]
//       [--threads=N] [--cache-dir=DIR] [--no-cache]
//       [--kernel-backend=auto|scalar|avx2] [--warm-start=off|on]
//       [--trace=PATH.json] [--trace-jsonl=PATH.jsonl] [--metrics=PATH.csv]
//       [--report=PATH.json] [--telemetry-hz=HZ]
//       Runs one active-learning experiment and prints the learning curve.
//       --threads sets the worker count for committee fits / example
//       scoring / forest fits / batch predict (default: ALEM_THREADS env
//       or hardware concurrency; 1 = the serial path). Results are
//       bitwise-identical at every thread count (docs/parallelism.md).
//       --cache-dir points the persistent feature-matrix cache at DIR
//       (default: $ALEM_CACHE_DIR; unset = no cache); --no-cache disables
//       it regardless (docs/featurization.md). --kernel-backend pins the
//       SIMD kernel backend (default auto = best available; an unknown or
//       unavailable name is an error — the ALEM_KERNEL_BACKEND env knob
//       instead warns and falls back to auto). Curves are bitwise-
//       identical across backends (docs/kernels.md); the choice is
//       stamped into config.kernel_backend of the report. --warm-start
//       selects warm-start refits (docs/training.md): off (default) refits
//       cold every iteration — the exact-replay path the golden baselines
//       pin; on warm-starts refits from the previous model (curves gated
//       by F1 tolerance, not bitwise). An unknown
//       flag value is an error — the ALEM_WARM_START env knob instead
//       warns and falls back to off. The mode is stamped into
//       config.warm_start of the report; a resumed session always
//       continues in the snapshot's mode. --trace captures every
//       pipeline span (prepare/train/evaluate/select/label/fit) as Chrome
//       trace-event JSON for chrome://tracing or Perfetto; --metrics dumps
//       the counter/gauge/histogram registry as CSV; --report writes the
//       RunReport flight-recorder JSON (config + build stamp +
//       per-iteration curve + counters + span rollup + wall/RSS totals)
//       consumed by tools/alem_report. --telemetry-hz starts the
//       background telemetry sampler at HZ samples/second (implies tracing
//       + metrics): RSS, cache traffic, predict calls, and pool occupancy
//       become Chrome-trace counter events so Perfetto shows resource
//       curves over the run. Absent path flags fall back to the
//       ALEM_TRACE_DIR / ALEM_REPORT_DIR / ALEM_TELEMETRY_HZ
//       environment knobs, same as the bench binaries (see
//       docs/observability.md).
//   alem_cli session <run|save|resume>
//       Drives a run through the step-wise LabelingSession API
//       (docs/sessions.md). `session run` takes the same flags as `run`
//       (active ensembles included) and behaves identically. `session
//       save --snapshot=PATH [--stop-after=N]` pauses after N iterations
//       and writes a checksummed ALSS snapshot — learner model, labeled
//       pool, selector/oracle RNG streams, curve, config, metric totals.
//       `session resume --snapshot=PATH` restores it in a fresh process
//       and continues; the stitched curve and report are bitwise-identical
//       to the uninterrupted run at any thread count, with the report
//       stamped config.session="resumed" / session_resumes=K. Resume also
//       accepts --stop-after=N with --snapshot-out=PATH to pause again.
//   alem_cli apply --model=PATH --dataset=<name> [--scale=S] [--seed=N]
//       [--limit=N]
//       Loads a saved forest/SVM model and prints its predicted matches on
//       a (fresh) dataset, with quality metrics against the ground truth.
//
// Examples:
//   alem_cli run --dataset=Abt-Buy --approach=trees20 --max-labels=300
//   alem_cli run --dataset=Cora --approach=linear-margin-1dim --noise=0.1

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>

#include "core/harness.h"
#include "core/run_report.h"
#include "kernels/backend.h"
#include "ml/metrics.h"
#include "ml/serialization.h"
#include "obs/artifacts.h"
#include "obs/obs.h"
#include "parallel/pool.h"
#include "synth/generator.h"
#include "synth/profiles.h"
#include "util/flags.h"

namespace alem {
namespace {

// Maps the shared CLI flags onto PrepareOptions; all three commands that
// prepare a dataset (stats/run/apply) accept the same provenance and cache
// knobs.
PrepareOptions PrepareOptionsFromFlags(const FlagParser& flags,
                                       const obs::ArtifactOptions& artifacts,
                                       const SynthProfile& profile) {
  PrepareOptions options;
  options.profile = profile;
  options.data_seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  options.scale = flags.GetDouble("scale", 1.0);
  options.use_cache = artifacts.use_cache;
  options.cache_dir = artifacts.cache_dir;
  options.threads = static_cast<int>(flags.GetInt("threads", 0));
  return options;
}

int CommandList() {
  std::printf("datasets:\n");
  for (const SynthProfile& profile : AllPublicProfiles()) {
    std::printf("  %s\n", profile.name.c_str());
  }
  std::printf("  SocialMedia\n");
  std::printf(
      "\napproaches:\n"
      "  trees<N>                 random forest of N trees + learner-aware "
      "QBC\n"
      "  linear-margin            linear SVM + margin selection\n"
      "  linear-margin-<K>dim     ... with K blocking dimensions\n"
      "  linear-margin-ensemble   ... with an active ensemble (tau 0.85)\n"
      "  linear-qbc<B>            linear SVM + bootstrap QBC(B)\n"
      "  nn-margin / nn-qbc<B>    neural-network variants\n"
      "  rules                    DNF rules + LFP/LFN\n"
      "  rules-qbc<B>             DNF rules + bootstrap QBC(B)\n"
      "  supervised-trees<N>      random-batch supervised baseline\n"
      "  deepmatcher              supervised deep proxy (Fig. 16)\n");
  return 0;
}

int CommandStats(const FlagParser& flags) {
  const std::string dataset_name = flags.GetString("dataset", "Abt-Buy");
  const SynthProfile profile = ProfileByName(dataset_name);
  const obs::ArtifactOptions artifacts =
      obs::ArtifactOptionsFromFlags(flags, "alem_cli_stats_" + dataset_name);
  const PrepareOptions options =
      PrepareOptionsFromFlags(flags, artifacts, profile);
  const PreparedDataset data = PrepareDataset(options);
  // PreparedDataset keeps no records (a cache hit never generates them), so
  // the record counts come from the same generation a miss runs.
  const EmDataset dataset =
      GenerateDataset(profile, options.data_seed, options.scale);
  std::printf("dataset:             %s\n", data.name.c_str());
  std::printf("left records:        %zu\n", dataset.left.num_rows());
  std::printf("right records:       %zu\n", dataset.right.num_rows());
  std::printf("total pairs:         %llu\n",
              static_cast<unsigned long long>(dataset.TotalPairs()));
  std::printf("post-blocking pairs: %zu\n", data.pairs.size());
  std::printf("true matches:        %zu\n", data.num_matches);
  std::printf("class skew:          %.3f\n", data.class_skew);
  std::printf("float features:      %zu\n", data.float_features.dims());
  std::printf("boolean atoms:       %zu\n", data.boolean_features.dims());
  return 0;
}

int SaveModel(const RunResult& result, const std::string& path) {
  std::string blob;
  if (const auto* svm =
          dynamic_cast<const SvmLearner*>(result.final_model.get())) {
    blob = SerializeSvm(svm->model());
  } else if (const auto* forest = dynamic_cast<const ForestLearner*>(
                 result.final_model.get())) {
    blob = SerializeForest(forest->model());
  } else if (const auto* nn = dynamic_cast<const NeuralNetLearner*>(
                 result.final_model.get())) {
    blob = SerializeNeuralNet(nn->model());
  } else if (const auto* rules = dynamic_cast<const RuleLearner*>(
                 result.final_model.get())) {
    blob = SerializeDnf(rules->dnf());
  } else {
    std::fprintf(stderr, "model type does not support serialization\n");
    return 1;
  }
  if (!SaveToFile(path, blob)) {
    std::fprintf(stderr, "failed to write %s\n", path.c_str());
    return 1;
  }
  std::printf("model saved to %s (%zu bytes)\n", path.c_str(), blob.size());
  return 0;
}

// Maps the shared run flags onto a RunConfig (used by `run` and the
// `session` subcommands). Returns false (error printed) on an invalid
// --warm-start value: like --kernel-backend, the explicit flag is a hard
// error while the forgiving ALEM_WARM_START environment knob warns and
// falls back to off (docs/training.md).
bool RunConfigFromFlags(const FlagParser& flags, const ApproachSpec& spec,
                        RunConfig* config) {
  config->approach = spec;
  config->max_labels = static_cast<size_t>(flags.GetInt("max-labels", 300));
  config->batch_size = static_cast<size_t>(flags.GetInt("batch", 10));
  config->seed_size = static_cast<size_t>(flags.GetInt("seed-size", 30));
  config->oracle_noise = flags.GetDouble("noise", 0.0);
  config->holdout = flags.GetBool("holdout", false);
  config->run_seed = static_cast<uint64_t>(flags.GetInt("run-seed", 1));
  if (flags.Has("warm-start")) {
    const std::string value = flags.GetString("warm-start", "off");
    if (!ParseWarmStartMode(value, &config->warm_start)) {
      std::fprintf(stderr,
                   "error: --warm-start: unknown mode '%s' (expected "
                   "off|on)\n",
                   value.c_str());
      return false;
    }
  } else if (const char* env = std::getenv("ALEM_WARM_START")) {
    if (!ParseWarmStartMode(env, &config->warm_start)) {
      std::fprintf(stderr,
                   "warning: ALEM_WARM_START: unknown mode '%s'; using "
                   "off\n",
                   env);
      config->warm_start = WarmStartMode::kOff;
    }
  }
  return true;
}

void PrintRunHeader(const PreparedDataset& data, const RunConfig& config) {
  std::printf("%s on %s (%zu pairs, skew %.3f)%s",
              config.approach.DisplayName().c_str(), data.name.c_str(),
              data.pairs.size(), data.class_skew,
              config.holdout ? ", holdout 80/20" : ", progressive");
  if (parallel::NumThreads() > 1) {
    std::printf(", threads=%d", parallel::NumThreads());
  }
  std::printf("\n");
}

void PrintRunResult(const FlagParser& flags, const RunResult& result) {
  if (!flags.GetBool("quiet", false)) {
    std::printf("%8s %10s %10s %10s %10s\n", "#labels", "precision",
                "recall", "F1", "wait(s)");
    for (const IterationStats& it : result.curve) {
      std::printf("%8zu %10.3f %10.3f %10.3f %10.4f\n", it.labels_used,
                  it.metrics.precision, it.metrics.recall, it.metrics.f1,
                  it.wait_seconds);
    }
  }
  std::printf("best F1 %.3f with %zu labels; total wait %.2fs\n",
              result.best_f1, result.labels_to_converge,
              result.total_wait_seconds);
  if (result.ensemble_accepted > 0) {
    std::printf("accepted ensemble members: %zu\n", result.ensemble_accepted);
  }
}

// Trace/metrics export + report artifact + --save-model, shared by `run`
// and the session subcommands. `session`/`session_resumes` land in the
// report's config block (docs/sessions.md).
int WriteRunArtifacts(const FlagParser& flags,
                      const obs::ArtifactOptions& artifacts,
                      const PreparedDataset& data, const RunConfig& config,
                      const RunResult& result,
                      std::chrono::steady_clock::time_point wall_start,
                      const std::string& session, uint64_t session_resumes) {
  int obs_status = artifacts.ExportTraceAndMetrics();
  if (!artifacts.report_path.empty()) {
    const std::string& path = artifacts.report_path;
    const double wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      wall_start)
            .count();
    obs::RunReport report =
        BuildRunReport(data, config, result, wall_seconds, "alem_cli");
    report.session = session;
    report.session_resumes = session_resumes;
    if (obs::WriteReportJson(path, report)) {
      std::printf("report written to %s (%zu iterations)\n", path.c_str(),
                  report.curve.size());
    } else {
      std::fprintf(stderr, "failed to write report to %s\n", path.c_str());
      obs_status = 1;
    }
  }
  if (flags.Has("save-model")) {
    const int save_status =
        SaveModel(result, flags.GetString("save-model", "model.txt"));
    if (save_status != 0) return save_status;
  }
  return obs_status;
}

int CommandRun(const FlagParser& flags) {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::string dataset_name = flags.GetString("dataset", "Abt-Buy");
  const std::string approach_name = flags.GetString("approach", "trees20");

  ApproachSpec spec;
  if (!ApproachFromName(approach_name, &spec)) {
    std::fprintf(stderr, "unknown approach '%s' (try: alem_cli list)\n",
                 approach_name.c_str());
    return 1;
  }
  const obs::ArtifactOptions artifacts = obs::ArtifactOptionsFromFlags(
      flags, "alem_cli_run_" + dataset_name + "_" + approach_name);
  artifacts.EnableObservability();
  const SynthProfile profile = ProfileByName(dataset_name);
  const PreparedDataset data =
      PrepareDataset(PrepareOptionsFromFlags(flags, artifacts, profile));

  RunConfig config;
  if (!RunConfigFromFlags(flags, spec, &config)) return 1;
  PrintRunHeader(data, config);
  const RunResult result = RunActiveLearning(data, config);
  PrintRunResult(flags, result);
  return WriteRunArtifacts(flags, artifacts, data, config, result, wall_start,
                           /*session=*/"fresh", /*session_resumes=*/0);
}

// `session run` drives a run through the step-wise LabelingSession API and
// `session save` additionally pauses it after --stop-after iterations,
// writing an ALSS snapshot (docs/sessions.md).
int CommandSessionStart(const FlagParser& flags, bool save) {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::string dataset_name = flags.GetString("dataset", "Abt-Buy");
  const std::string approach_name = flags.GetString("approach", "trees20");

  ApproachSpec spec;
  if (!ApproachFromName(approach_name, &spec)) {
    std::fprintf(stderr, "unknown approach '%s' (try: alem_cli list)\n",
                 approach_name.c_str());
    return 1;
  }
  const obs::ArtifactOptions artifacts = obs::ArtifactOptionsFromFlags(
      flags, "alem_cli_session_" + dataset_name + "_" + approach_name);
  artifacts.EnableObservability();
  // Snapshots carry the metric totals so a resumed run's counters stitch up
  // exactly; keep them accumulating even when no --metrics path was given.
  obs::SetMetricsEnabled(true);
  const SynthProfile profile = ProfileByName(dataset_name);
  const PreparedDataset data =
      PrepareDataset(PrepareOptionsFromFlags(flags, artifacts, profile));

  RunConfig config;
  if (!RunConfigFromFlags(flags, spec, &config)) return 1;
  PrintRunHeader(data, config);

  SessionRunner runner(data, config);
  if (save) {
    const size_t stop_after =
        static_cast<size_t>(flags.GetInt("stop-after", 2));
    const std::string path = flags.GetString("snapshot", "session.alss");
    runner.Run(stop_after);
    std::string error;
    if (!runner.Save(path, &error)) {
      std::fprintf(stderr, "error: session save: %s\n", error.c_str());
      return 1;
    }
    std::printf("session saved to %s after %zu iterations (%.*s)\n",
                path.c_str(), runner.session().curve().size(),
                static_cast<int>(
                    SessionStateName(runner.session().state()).size()),
                SessionStateName(runner.session().state()).data());
    return 0;
  }

  runner.Run();
  const RunResult result = runner.TakeResult();
  PrintRunResult(flags, result);
  return WriteRunArtifacts(flags, artifacts, data, config, result, wall_start,
                           /*session=*/"fresh", /*session_resumes=*/0);
}

// `session resume` re-prepares the dataset from the snapshot's provenance,
// restores the paused session in this fresh process, and runs it to
// completion (or pauses again under --stop-after, re-saving with
// --snapshot-out). The stitched curve and report are bitwise-identical to
// the uninterrupted run's at any thread count.
int CommandSessionResume(const FlagParser& flags) {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::string path = flags.GetString("snapshot", "");
  if (path.empty()) {
    std::fprintf(stderr, "session resume requires --snapshot=PATH\n");
    return 1;
  }
  SessionSnapshot snapshot;
  std::string error;
  if (!SessionSnapshot::ReadFile(path, &snapshot, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  SessionRunInfo info;
  if (!ReadSessionRunInfo(snapshot, &info, &error)) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }

  const obs::ArtifactOptions artifacts = obs::ArtifactOptionsFromFlags(
      flags, "alem_cli_session_resume_" + info.dataset);
  artifacts.EnableObservability();
  obs::SetMetricsEnabled(true);
  // Dataset provenance (profile, data seed, scale) comes from the snapshot;
  // execution knobs (threads, cache, kernel backend) stay CLI-controlled —
  // the determinism contract makes them free to vary across the pause.
  PrepareOptions options;
  options.profile = ProfileByName(info.dataset);
  options.data_seed = info.data_seed;
  options.scale = info.scale;
  options.use_cache = artifacts.use_cache;
  options.cache_dir = artifacts.cache_dir;
  options.threads = static_cast<int>(flags.GetInt("threads", 0));
  PreparedDataset data = PrepareDataset(options);
  // The stitched report describes the whole run, so config.cache carries
  // the original prepare's outcome, not this process's.
  data.feature_cache = info.feature_cache;

  std::unique_ptr<SessionRunner> runner =
      SessionRunner::Restore(data, info.config, snapshot, &error);
  if (runner == nullptr) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(), error.c_str());
    return 1;
  }
  const uint64_t resumes = runner->session().resume_count();
  std::printf("resumed %s on %s at iteration %zu (resume #%llu)\n",
              info.config.approach.DisplayName().c_str(),
              data.name.c_str(), runner->session().iteration(),
              static_cast<unsigned long long>(resumes));

  const size_t stop_after =
      static_cast<size_t>(flags.GetInt("stop-after", 0));
  runner->Run(stop_after);
  if (!runner->session().finished() && stop_after > 0) {
    const std::string out = flags.GetString("snapshot-out", path);
    if (!runner->Save(out, &error)) {
      std::fprintf(stderr, "error: session save: %s\n", error.c_str());
      return 1;
    }
    std::printf("session saved to %s after %zu iterations\n", out.c_str(),
                runner->session().curve().size());
    return 0;
  }

  const RunResult result = runner->TakeResult();
  PrintRunResult(flags, result);
  return WriteRunArtifacts(flags, artifacts, data, info.config, result,
                           wall_start, /*session=*/"resumed", resumes);
}

int CommandSession(const FlagParser& flags) {
  const std::string verb =
      flags.positional().size() > 1 ? flags.positional()[1] : "";
  if (verb == "run") return CommandSessionStart(flags, /*save=*/false);
  if (verb == "save") return CommandSessionStart(flags, /*save=*/true);
  if (verb == "resume") return CommandSessionResume(flags);
  std::fprintf(
      stderr,
      "usage: alem_cli session <run|save|resume> [flags]\n"
      "  alem_cli session run    --dataset=D --approach=A [run flags]\n"
      "  alem_cli session save   --dataset=D --approach=A "
      "--snapshot=PATH [--stop-after=N] [run flags]\n"
      "  alem_cli session resume --snapshot=PATH [--report=PATH.json]\n"
      "      [--threads=N] [--stop-after=N --snapshot-out=PATH]\n");
  return 1;
}

// A stored model reads features by index: applied to a dataset whose
// feature rows have another width it would read out of bounds.
int ModelWidthMismatch(size_t width) {
  std::fprintf(stderr,
               "model does not match this dataset's %zu-feature rows "
               "(trained on another dataset?)\n",
               width);
  return 1;
}

int CommandApply(const FlagParser& flags) {
  const std::string model_path = flags.GetString("model", "");
  if (model_path.empty()) {
    std::fprintf(stderr, "apply requires --model=PATH\n");
    return 1;
  }
  std::string blob;
  if (!LoadFromFile(model_path, &blob)) {
    std::fprintf(stderr, "cannot read %s\n", model_path.c_str());
    return 1;
  }
  const SynthProfile profile =
      ProfileByName(flags.GetString("dataset", "Abt-Buy"));
  const obs::ArtifactOptions artifacts =
      obs::ArtifactOptionsFromFlags(flags, "alem_cli_apply_" + profile.name);
  const PreparedDataset data =
      PrepareDataset(PrepareOptionsFromFlags(flags, artifacts, profile));

  std::vector<int> predictions;
  RandomForest forest;
  LinearSvm svm;
  const size_t width = data.float_features.dims();
  if (DeserializeForest(blob, &forest)) {
    if (!forest.FitsWidth(width)) return ModelWidthMismatch(width);
    predictions = forest.PredictAll(data.float_features);
  } else if (DeserializeSvm(blob, &svm)) {
    if (!svm.FitsWidth(width)) return ModelWidthMismatch(width);
    predictions = svm.PredictAll(data.float_features);
  } else {
    std::fprintf(stderr,
                 "unrecognized model blob (apply supports forest and svm "
                 "models)\n");
    return 1;
  }

  const BinaryMetrics metrics = ComputeBinaryMetrics(predictions, data.truth);
  std::printf("%s on %s: %zu pairs, precision %.3f, recall %.3f, F1 %.3f\n",
              model_path.c_str(), data.name.c_str(), data.pairs.size(),
              metrics.precision, metrics.recall, metrics.f1);

  const size_t limit = static_cast<size_t>(flags.GetInt("limit", 20));
  size_t shown = 0;
  for (size_t i = 0; i < data.pairs.size() && shown < limit; ++i) {
    if (predictions[i] != 1) continue;
    ++shown;
    std::printf("  left[%u] <-> right[%u]%s\n", data.pairs[i].left,
                data.pairs[i].right,
                data.truth[i] == 1 ? "" : "   (false positive)");
  }
  return 0;
}

int CommandKernels() {
  std::printf("available:");
  for (const std::string_view name : kernels::AvailableBackendNames()) {
    std::printf(" %.*s", static_cast<int>(name.size()), name.data());
  }
  std::printf("\nactive: %.*s\n",
              static_cast<int>(kernels::BackendName().size()),
              kernels::BackendName().data());
  return 0;
}

int Main(int argc, char** argv) {
  const FlagParser flags(argc, argv, {"holdout", "quiet", "no-cache"});
  const std::string command =
      flags.positional().empty() ? "help" : flags.positional()[0];
  // Resolve the kernel backend before any command touches similarity or
  // learner code. Unlike the forgiving ALEM_KERNEL_BACKEND environment
  // knob, an explicit flag naming an unknown or unavailable backend is a
  // hard error.
  if (flags.Has("kernel-backend")) {
    std::string error;
    if (!kernels::SetBackend(flags.GetString("kernel-backend", "auto"),
                             &error)) {
      std::fprintf(stderr, "error: --kernel-backend: %s\n", error.c_str());
      return 1;
    }
  }
  if (command == "kernels") return CommandKernels();
  if (command == "list") return CommandList();
  if (command == "stats") return CommandStats(flags);
  if (command == "run") return CommandRun(flags);
  if (command == "session") return CommandSession(flags);
  if (command == "apply") return CommandApply(flags);
  std::printf(
      "usage: alem_cli <list|stats|run|session|apply|kernels> [flags]\n"
      "  alem_cli list\n"
      "  alem_cli kernels\n"
      "  alem_cli stats --dataset=Abt-Buy\n"
      "  alem_cli run --dataset=Abt-Buy --approach=trees20 "
      "--max-labels=300\n"
      "  alem_cli run --dataset=Abt-Buy --approach=linear-margin "
      "--trace=out.json --metrics=out.csv\n"
      "  alem_cli run --dataset=Abt-Buy --approach=trees10 "
      "--report=out.report.json\n"
      "  alem_cli run --dataset=Abt-Buy --approach=linear-margin "
      "--warm-start=on\n"
      "  alem_cli session save --dataset=Abt-Buy --approach=linear-margin "
      "--snapshot=run.alss --stop-after=2\n"
      "  alem_cli session resume --snapshot=run.alss "
      "--report=out.report.json\n");
  return command == "help" ? 0 : 1;
}

}  // namespace
}  // namespace alem

int main(int argc, char** argv) { return alem::Main(argc, argv); }
