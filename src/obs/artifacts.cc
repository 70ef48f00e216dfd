#include "obs/artifacts.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>

#include "obs/obs.h"
#include "obs/telemetry.h"

namespace alem {
namespace obs {

namespace {

// "<dir-env>/<sanitized artifact><ext>" when the env var is set, else "".
std::string PathFromDirEnv(const char* env_name, const std::string& artifact,
                           const char* ext) {
  const char* dir = std::getenv(env_name);
  if (dir == nullptr || *dir == '\0') return "";
  return std::string(dir) + "/" + SanitizeArtifactName(artifact) + ext;
}

}  // namespace

std::string SanitizeArtifactName(const std::string& name) {
  std::string sanitized;
  sanitized.reserve(name.size());
  for (const char c : name) {
    sanitized.push_back(
        std::isalnum(static_cast<unsigned char>(c)) != 0 ? c : '_');
  }
  return sanitized;
}

ArtifactOptions ArtifactOptionsFromEnv(const std::string& artifact) {
  ArtifactOptions options;
  options.trace_path = PathFromDirEnv("ALEM_TRACE_DIR", artifact,
                                      ".trace.json");
  options.metrics_path = PathFromDirEnv("ALEM_TRACE_DIR", artifact,
                                        ".metrics.csv");
  options.report_path = PathFromDirEnv("ALEM_REPORT_DIR", artifact,
                                       ".report.json");
  const char* hz = std::getenv("ALEM_TELEMETRY_HZ");
  if (hz != nullptr && *hz != '\0') {
    const double parsed = std::atof(hz);
    if (parsed > 0.0) options.telemetry_hz = parsed;
  }
  // cache_dir stays empty: FeatureCache::ResolveDir reads ALEM_CACHE_DIR.
  return options;
}

ArtifactOptions ArtifactOptionsFromFlags(const FlagParser& flags,
                                         const std::string& artifact) {
  ArtifactOptions options = ArtifactOptionsFromEnv(artifact);
  if (flags.Has("trace")) {
    options.trace_path = flags.GetString("trace", "trace.json");
  }
  if (flags.Has("trace-jsonl")) {
    options.trace_jsonl_path = flags.GetString("trace-jsonl", "trace.jsonl");
  }
  if (flags.Has("metrics")) {
    options.metrics_path = flags.GetString("metrics", "metrics.csv");
  }
  if (flags.Has("report")) {
    options.report_path = flags.GetString("report", "report.json");
  }
  if (flags.Has("cache-dir")) {
    options.cache_dir = flags.GetString("cache-dir", "");
  }
  options.use_cache = !flags.GetBool("no-cache", false);
  if (flags.Has("telemetry-hz")) {
    options.telemetry_hz = flags.GetDouble("telemetry-hz", 0.0);
  }
  return options;
}

void ArtifactOptions::EnableObservability() const {
  if (tracing_wanted()) SetTracingEnabled(true);
  if (metrics_wanted()) SetMetricsEnabled(true);
  if (telemetry_hz > 0.0) TelemetrySampler::Global().Start(telemetry_hz);
}

int ArtifactOptions::ExportTraceAndMetrics() const {
  // Freeze the counter series before snapshotting any artifact (no-op when
  // the sampler never started).
  TelemetrySampler::Global().Stop();
  int status = 0;
  if (!trace_path.empty()) {
    if (TraceRecorder::Global().WriteChromeTrace(trace_path)) {
      std::printf("(trace written to %s (%zu spans))\n", trace_path.c_str(),
                  TraceRecorder::Global().size());
    } else {
      std::fprintf(stderr, "failed to write trace to %s\n",
                   trace_path.c_str());
      status = 1;
    }
  }
  if (!trace_jsonl_path.empty()) {
    if (TraceRecorder::Global().WriteJsonl(trace_jsonl_path)) {
      std::printf("(span JSONL written to %s)\n", trace_jsonl_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write spans to %s\n",
                   trace_jsonl_path.c_str());
      status = 1;
    }
  }
  if (!metrics_path.empty()) {
    if (MetricsRegistry::Global().WriteCsv(metrics_path)) {
      std::printf("(metrics written to %s)\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "failed to write metrics to %s\n",
                   metrics_path.c_str());
      status = 1;
    }
  }
  return status;
}

}  // namespace obs
}  // namespace alem
