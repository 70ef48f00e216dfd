#include "core/session.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/check.h"

namespace alem {
namespace {

// Snapshot container (all fields little-endian host layout), following the
// ALFM feature-cache conventions (features/feature_matrix.cc):
//   bytes 0..3   magic "ALSS"
//   bytes 4..7   uint32 format version (kSessionFormatVersion)
//   bytes 8..15  uint64 payload size
//   bytes 16..23 uint64 FNV-1a hash of the payload
//   bytes 24..   payload: sections, each [4-char tag][uint64 length][bytes]
constexpr char kSessionMagic[4] = {'A', 'L', 'S', 'S'};
constexpr uint32_t kSessionFormatVersion = 1;
constexpr size_t kSessionHeaderSize = 4 + 4 + 8 + 8;
constexpr size_t kTagSize = 4;

uint64_t Fnv1a(const void* data, size_t size) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  uint64_t hash = 1469598103934665603ULL;
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

void AppendRaw(std::string* out, const void* data, size_t size) {
  out->append(static_cast<const char*>(data), size);
}

// Field-by-field binary encoding, free of struct padding and alignment
// concerns. Doubles travel as raw bit patterns so they round-trip exactly.
class ByteWriter {
 public:
  void U8(uint8_t v) { AppendRaw(&out_, &v, sizeof(v)); }
  void U32(uint32_t v) { AppendRaw(&out_, &v, sizeof(v)); }
  void U64(uint64_t v) { AppendRaw(&out_, &v, sizeof(v)); }
  void I64(int64_t v) { AppendRaw(&out_, &v, sizeof(v)); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    U64(bits);
  }
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

// Bounds-checked reader over a section payload; every accessor fails on
// truncation instead of reading past the end.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  bool U8(uint8_t* v) { return Raw(v, sizeof(*v)); }
  bool U32(uint32_t* v) { return Raw(v, sizeof(*v)); }
  bool U64(uint64_t* v) { return Raw(v, sizeof(*v)); }
  bool I64(int64_t* v) { return Raw(v, sizeof(*v)); }
  bool F64(double* v) {
    uint64_t bits = 0;
    if (!U64(&bits)) return false;
    std::memcpy(v, &bits, sizeof(*v));
    return true;
  }
  bool AtEnd() const { return cursor_ == data_.size(); }

 private:
  bool Raw(void* out, size_t size) {
    if (data_.size() - cursor_ < size) return false;
    std::memcpy(out, data_.data() + cursor_, size);
    cursor_ += size;
    return true;
  }

  std::string_view data_;
  size_t cursor_ = 0;
};

// ---- Section encodings -------------------------------------------------

// "BCFG": the full ActiveLearningConfig (LoopBudget + seed + plateau +
// warm-start mode). The warm-start byte is a config knob that changes the
// result stream (like the seed), so it travels with the session and a
// resumed run continues in the saved mode.
std::string EncodeConfig(const ActiveLearningConfig& config) {
  ByteWriter w;
  w.U64(config.seed_size);
  w.U64(config.batch_size);
  w.U64(config.max_labels);
  w.F64(config.target_f1);
  w.U64(config.seed);
  w.U64(config.plateau_window);
  w.U8(static_cast<uint8_t>(config.warm_start));
  return w.Take();
}

bool DecodeConfig(std::string_view blob, ActiveLearningConfig* config) {
  ByteReader r(blob);
  uint64_t seed_size = 0;
  uint64_t batch_size = 0;
  uint64_t max_labels = 0;
  uint64_t plateau_window = 0;
  if (!r.U64(&seed_size) || !r.U64(&batch_size) || !r.U64(&max_labels) ||
      !r.F64(&config->target_f1) || !r.U64(&config->seed) ||
      !r.U64(&plateau_window)) {
    return false;
  }
  // Optional warm-start byte; snapshots written before warm starts end
  // here, meaning "off". 2 is the retired "auto" mode, which refit cold, so
  // its result stream is "off"'s.
  uint8_t warm = 0;
  if (!r.AtEnd() && (!r.U8(&warm) || warm > 2)) return false;
  if (!r.AtEnd()) return false;
  if (batch_size == 0) return false;
  config->seed_size = static_cast<size_t>(seed_size);
  config->batch_size = static_cast<size_t>(batch_size);
  config->max_labels = static_cast<size_t>(max_labels);
  config->plateau_window = static_cast<size_t>(plateau_window);
  config->warm_start = warm == 1 ? WarmStartMode::kOn : WarmStartMode::kOff;
  return true;
}

// "POOL": labeled rows in labeling order, so a replay reproduces the pool's
// internal ordering (and thus unlabeled_rows()) exactly.
std::string EncodePool(const ActivePool& pool) {
  ByteWriter w;
  const std::vector<size_t>& rows = pool.labeled_rows();
  w.U64(rows.size());
  for (const size_t row : rows) {
    w.U64(row);
    w.U8(static_cast<uint8_t>(pool.LabelOf(row)));
  }
  return w.Take();
}

bool ReplayPool(std::string_view blob, ActivePool* pool, std::string* error) {
  ByteReader r(blob);
  uint64_t count = 0;
  if (!r.U64(&count)) {
    *error = "session snapshot: truncated pool section";
    return false;
  }
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t row = 0;
    uint8_t label = 0;
    if (!r.U64(&row) || !r.U8(&label)) {
      *error = "session snapshot: truncated pool section";
      return false;
    }
    if (row >= pool->size() || (label != 0 && label != 1) ||
        pool->IsLabeled(static_cast<size_t>(row))) {
      *error = "session snapshot: invalid pool entry";
      return false;
    }
    pool->AddLabel(static_cast<size_t>(row), static_cast<int>(label));
  }
  if (!r.AtEnd()) {
    *error = "session snapshot: trailing bytes in pool section";
    return false;
  }
  return true;
}

// "CRVE": the cumulative IterationStats curve, every field, doubles as bit
// patterns — a resumed run's stitched curve is byte-for-byte the original's
// prefix plus its own iterations.
std::string EncodeCurve(const std::vector<IterationStats>& curve) {
  ByteWriter w;
  w.U64(curve.size());
  for (const IterationStats& s : curve) {
    w.U64(s.iteration);
    w.U64(s.labels_used);
    w.U64(s.metrics.true_positives);
    w.U64(s.metrics.false_positives);
    w.U64(s.metrics.false_negatives);
    w.U64(s.metrics.true_negatives);
    w.F64(s.metrics.precision);
    w.F64(s.metrics.recall);
    w.F64(s.metrics.f1);
    w.F64(s.train_seconds);
    w.F64(s.select_seconds);
    w.F64(s.committee_seconds);
    w.F64(s.scoring_seconds);
    w.F64(s.evaluate_seconds);
    w.F64(s.label_seconds);
    w.F64(s.wait_seconds);
    w.U64(s.dnf_atoms);
    w.I64(s.tree_depth);
    w.U64(s.scored_examples);
    w.U64(s.pruned_examples);
    w.U64(s.ensemble_size);
  }
  return w.Take();
}

bool DecodeCurve(std::string_view blob, std::vector<IterationStats>* curve) {
  ByteReader r(blob);
  uint64_t count = 0;
  if (!r.U64(&count)) return false;
  std::vector<IterationStats> parsed;
  for (uint64_t i = 0; i < count; ++i) {
    IterationStats s;
    uint64_t iteration = 0;
    uint64_t labels_used = 0;
    uint64_t tp = 0;
    uint64_t fp = 0;
    uint64_t fn = 0;
    uint64_t tn = 0;
    uint64_t dnf_atoms = 0;
    int64_t tree_depth = 0;
    uint64_t scored = 0;
    uint64_t pruned = 0;
    uint64_t ensemble = 0;
    if (!r.U64(&iteration) || !r.U64(&labels_used) || !r.U64(&tp) ||
        !r.U64(&fp) || !r.U64(&fn) || !r.U64(&tn) ||
        !r.F64(&s.metrics.precision) || !r.F64(&s.metrics.recall) ||
        !r.F64(&s.metrics.f1) || !r.F64(&s.train_seconds) ||
        !r.F64(&s.select_seconds) || !r.F64(&s.committee_seconds) ||
        !r.F64(&s.scoring_seconds) || !r.F64(&s.evaluate_seconds) ||
        !r.F64(&s.label_seconds) || !r.F64(&s.wait_seconds) ||
        !r.U64(&dnf_atoms) || !r.I64(&tree_depth) || !r.U64(&scored) ||
        !r.U64(&pruned) || !r.U64(&ensemble)) {
      return false;
    }
    s.iteration = static_cast<size_t>(iteration);
    s.labels_used = static_cast<size_t>(labels_used);
    s.metrics.true_positives = static_cast<size_t>(tp);
    s.metrics.false_positives = static_cast<size_t>(fp);
    s.metrics.false_negatives = static_cast<size_t>(fn);
    s.metrics.true_negatives = static_cast<size_t>(tn);
    s.dnf_atoms = static_cast<size_t>(dnf_atoms);
    s.tree_depth = static_cast<int>(tree_depth);
    s.scored_examples = static_cast<size_t>(scored);
    s.pruned_examples = static_cast<size_t>(pruned);
    s.ensemble_size = static_cast<size_t>(ensemble);
    parsed.push_back(s);
  }
  if (!r.AtEnd()) return false;
  *curve = std::move(parsed);
  return true;
}

// "PLAT": plateau-termination state.
std::string EncodePlateau(size_t stable_iterations,
                          const std::vector<int>& previous_predictions) {
  ByteWriter w;
  w.U64(stable_iterations);
  w.U64(previous_predictions.size());
  for (const int p : previous_predictions) w.U8(static_cast<uint8_t>(p));
  return w.Take();
}

bool DecodePlateau(std::string_view blob, size_t* stable_iterations,
                   std::vector<int>* previous_predictions) {
  ByteReader r(blob);
  uint64_t stable = 0;
  uint64_t count = 0;
  if (!r.U64(&stable) || !r.U64(&count)) return false;
  std::vector<int> predictions;
  predictions.reserve(static_cast<size_t>(std::min<uint64_t>(count, 1 << 20)));
  for (uint64_t i = 0; i < count; ++i) {
    uint8_t p = 0;
    if (!r.U8(&p) || p > 1) return false;
    predictions.push_back(static_cast<int>(p));
  }
  if (!r.AtEnd()) return false;
  *stable_iterations = static_cast<size_t>(stable);
  *previous_predictions = std::move(predictions);
  return true;
}

// "ENSM": the active ensemble, written only when one runs — the precision
// threshold, the accepted-member count, and every covered row in ascending
// order with its coverage state (1: excluded by the coverage scan, 2:
// already excluded, i.e. held out). Decoded by LabelingSession::
// RestoreEnsemble, which validates it against the pool.
std::string EncodeEnsemble(double precision, size_t accepted,
                           const std::vector<uint8_t>& covered) {
  ByteWriter w;
  w.F64(precision);
  w.U64(accepted);
  w.U64(covered.size() - static_cast<size_t>(std::count(
                             covered.begin(), covered.end(), uint8_t{0})));
  for (size_t row = 0; row < covered.size(); ++row) {
    if (covered[row] == 0) continue;
    w.U64(row);
    w.U8(covered[row]);
  }
  return w.Take();
}

// Below this many labeled predicted positives a candidate's precision is
// not judged, so it cannot be accepted on vacuous evidence.
constexpr size_t kEnsembleMinLabeledPositives = 5;

// "SCOR": the session's own progress record.
std::string EncodeCore(size_t iteration, uint32_t resume_count,
                       SessionState state, StopReason stop_reason,
                       const SeedResult& seed_result) {
  ByteWriter w;
  w.U64(iteration);
  w.U32(resume_count);
  w.U32(static_cast<uint32_t>(state));
  w.U32(static_cast<uint32_t>(stop_reason));
  w.U64(seed_result.labeled);
  w.U8(seed_result.has_both_classes ? 1 : 0);
  return w.Take();
}

struct DecodedCore {
  size_t iteration = 0;
  uint32_t resume_count = 0;
  SessionState state = SessionState::kNeedsStep;
  StopReason stop_reason = StopReason::kRunning;
  SeedResult seed_result;
};

bool DecodeCore(std::string_view blob, DecodedCore* core) {
  ByteReader r(blob);
  uint64_t iteration = 0;
  uint32_t state = 0;
  uint32_t stop_reason = 0;
  uint64_t seed_labeled = 0;
  uint8_t has_both = 0;
  if (!r.U64(&iteration) || !r.U32(&core->resume_count) || !r.U32(&state) ||
      !r.U32(&stop_reason) || !r.U64(&seed_labeled) || !r.U8(&has_both) ||
      !r.AtEnd()) {
    return false;
  }
  // Only iteration-boundary states are valid snapshot states.
  if (state != static_cast<uint32_t>(SessionState::kNeedsStep) &&
      state != static_cast<uint32_t>(SessionState::kFinished)) {
    return false;
  }
  if (stop_reason > static_cast<uint32_t>(StopReason::kSelectorExhausted)) {
    return false;
  }
  if (has_both > 1) return false;
  core->iteration = static_cast<size_t>(iteration);
  core->state = static_cast<SessionState>(state);
  core->stop_reason = static_cast<StopReason>(stop_reason);
  core->seed_result.labeled = static_cast<size_t>(seed_labeled);
  core->seed_result.has_both_classes = has_both == 1;
  return true;
}

}  // namespace

bool DecodeSessionLoopConfig(const SessionSnapshot& snapshot,
                             ActiveLearningConfig* config) {
  return snapshot.has("BCFG") &&
         DecodeConfig(snapshot.section("BCFG"), config);
}

std::string_view SessionStateName(SessionState state) {
  switch (state) {
    case SessionState::kNeedsStep:
      return "needs_step";
    case SessionState::kBatchReady:
      return "batch_ready";
    case SessionState::kAwaitingLabels:
      return "awaiting_labels";
    case SessionState::kFinished:
      return "finished";
    case SessionState::kFailed:
      return "failed";
  }
  return "unknown";
}

std::string_view StopReasonName(StopReason reason) {
  switch (reason) {
    case StopReason::kRunning:
      return "running";
    case StopReason::kBudgetExhausted:
      return "budget_exhausted";
    case StopReason::kTargetReached:
      return "target_reached";
    case StopReason::kPlateaued:
      return "plateaued";
    case StopReason::kSelectorExhausted:
      return "selector_exhausted";
  }
  return "unknown";
}

// ---- SessionSnapshot ---------------------------------------------------

bool SessionSnapshot::has(std::string_view tag) const {
  return sections.find(std::string(tag)) != sections.end();
}

const std::string& SessionSnapshot::section(std::string_view tag) const {
  static const std::string kEmpty;
  const auto it = sections.find(std::string(tag));
  return it == sections.end() ? kEmpty : it->second;
}

void SessionSnapshot::set(std::string_view tag, std::string payload) {
  ALEM_CHECK_EQ(tag.size(), kTagSize);
  sections[std::string(tag)] = std::move(payload);
}

std::string SessionSnapshot::Serialize() const {
  std::string payload;
  for (const auto& [tag, bytes] : sections) {
    ALEM_CHECK_EQ(tag.size(), kTagSize);
    payload.append(tag);
    const uint64_t length = bytes.size();
    AppendRaw(&payload, &length, sizeof(length));
    payload.append(bytes);
  }
  std::string out;
  out.reserve(kSessionHeaderSize + payload.size());
  out.append(kSessionMagic, sizeof(kSessionMagic));
  const uint32_t version = kSessionFormatVersion;
  AppendRaw(&out, &version, sizeof(version));
  const uint64_t payload_size = payload.size();
  AppendRaw(&out, &payload_size, sizeof(payload_size));
  const uint64_t checksum = Fnv1a(payload.data(), payload.size());
  AppendRaw(&out, &checksum, sizeof(checksum));
  out.append(payload);
  return out;
}

bool SessionSnapshot::Parse(std::string_view blob, SessionSnapshot* out,
                            std::string* error) {
  if (blob.size() < kSessionHeaderSize) {
    *error = "session snapshot: truncated header";
    return false;
  }
  const char* cursor = blob.data();
  if (std::memcmp(cursor, kSessionMagic, sizeof(kSessionMagic)) != 0) {
    *error = "session snapshot: bad magic (not an ALSS file)";
    return false;
  }
  cursor += sizeof(kSessionMagic);
  uint32_t version = 0;
  std::memcpy(&version, cursor, sizeof(version));
  cursor += sizeof(version);
  if (version != kSessionFormatVersion) {
    *error = "session snapshot: unsupported format version " +
             std::to_string(version) + " (expected " +
             std::to_string(kSessionFormatVersion) + ")";
    return false;
  }
  uint64_t payload_size = 0;
  uint64_t checksum = 0;
  std::memcpy(&payload_size, cursor, sizeof(payload_size));
  cursor += sizeof(payload_size);
  std::memcpy(&checksum, cursor, sizeof(checksum));
  cursor += sizeof(checksum);
  if (blob.size() - kSessionHeaderSize != payload_size) {
    *error = "session snapshot: payload size mismatch (truncated or padded)";
    return false;
  }
  if (Fnv1a(cursor, static_cast<size_t>(payload_size)) != checksum) {
    *error = "session snapshot: checksum mismatch (corrupt file)";
    return false;
  }

  SessionSnapshot parsed;
  size_t offset = 0;
  const std::string_view payload(cursor, static_cast<size_t>(payload_size));
  while (offset < payload.size()) {
    if (payload.size() - offset < kTagSize + sizeof(uint64_t)) {
      *error = "session snapshot: truncated section header";
      return false;
    }
    const std::string tag(payload.substr(offset, kTagSize));
    offset += kTagSize;
    uint64_t length = 0;
    std::memcpy(&length, payload.data() + offset, sizeof(length));
    offset += sizeof(length);
    if (payload.size() - offset < length) {
      *error = "session snapshot: truncated section '" + tag + "'";
      return false;
    }
    parsed.sections[tag] =
        std::string(payload.substr(offset, static_cast<size_t>(length)));
    offset += static_cast<size_t>(length);
  }
  *out = std::move(parsed);
  return true;
}

bool SessionSnapshot::WriteFile(const std::string& path,
                                std::string* error) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) {
    *error = "session snapshot: cannot open '" + path + "' for writing";
    return false;
  }
  const std::string blob = Serialize();
  out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
  out.flush();
  if (!out) {
    *error = "session snapshot: short write to '" + path + "'";
    return false;
  }
  return true;
}

bool SessionSnapshot::ReadFile(const std::string& path, SessionSnapshot* out,
                               std::string* error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    *error = "session snapshot: cannot open '" + path + "'";
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return Parse(buffer.str(), out, error);
}

// ---- LabelingSession ---------------------------------------------------

LabelingSession::LabelingSession(Learner& learner, ExampleSelector& selector,
                                 Oracle& oracle, const Evaluator& evaluator,
                                 ActivePool& pool,
                                 const ActiveLearningConfig& config)
    : LabelingSession(learner, selector, oracle, evaluator, pool, config,
                      /*seed_pool=*/true) {}

LabelingSession::LabelingSession(Learner& learner, ExampleSelector& selector,
                                 Oracle& oracle, const Evaluator& evaluator,
                                 ActivePool& pool,
                                 const ActiveLearningConfig& config,
                                 bool seed_pool)
    : learner_(learner),
      selector_(selector),
      oracle_(oracle),
      evaluator_(evaluator),
      pool_(pool),
      config_(config) {
  ALEM_CHECK(selector.CompatibleWith(learner));
  ALEM_CHECK_GT(config.batch_size, 0u);
  if (config_.ensemble_precision) covered_.assign(pool_.size(), kUncovered);
  run_span_ = std::make_unique<obs::ObsSpan>("loop.run", "core");
  if (seed_pool) {
    obs::ObsSpan seed_span("loop.seed", "core");
    seed_result_ = SeedPool(pool_, oracle_, config_.seed_size, config_.seed);
  }
}

LabelingSession::~LabelingSession() = default;

bool LabelingSession::Step() {
  if (state_ != SessionState::kNeedsStep) {
    return Reject("Step() requires the needs_step state (currently " +
                  std::string(SessionStateName(state_)) + ")");
  }
  static obs::Counter& iteration_counter =
      obs::MetricsRegistry::Global().GetCounter("loop.iterations");
  ++iteration_;
  iteration_span_ = std::make_unique<obs::ObsSpan>("loop.iteration", "core");
  iteration_counter.Increment();
  stats_ = IterationStats{};
  stats_.iteration = iteration_;
  stats_.labels_used = pool_.num_labeled();

  // 1. Train on the cumulative labeled data. Mode kOn asks the learner to
  // warm-start from the previous iteration's model; kOff always refits
  // cold, keeping the model stream bitwise-identical to the baselines. An
  // ensemble refits cold after accepting a member, and skips the fit (which
  // ends the run) once its accepted members cover a whole class of the
  // labeled rows.
  {
    obs::ObsSpan train_span("loop.train", "core");
    const std::vector<int> labels = pool_.ActiveLabeledLabels();
    fit_skipped_ = config_.ensemble_precision &&
                   (std::count(labels.begin(), labels.end(), 1) == 0 ||
                    std::count(labels.begin(), labels.end(), 0) == 0);
    const FitHint hint = config_.warm_start == WarmStartMode::kOn &&
                                 !AcceptedLastIteration()
                             ? FitHint::kWarm
                             : FitHint::kCold;
    if (!fit_skipped_) {
      learner_.Fit(pool_.ActiveLabeledFeatures(), labels, hint);
    }
    stats_.train_seconds = train_span.Close();
  }

  // 2. Evaluate. Excluded from user wait time: the paper's wait metric
  // only counts work between the user's label submissions.
  bool accept = false;
  {
    obs::ObsSpan evaluate_span("loop.evaluate", "core");
    const std::vector<size_t>& eval_rows = evaluator_.eval_rows();
    std::vector<int> predictions(eval_rows.size());
    if (config_.ensemble_precision) {
      accept = EnsemblePredict(&predictions);
    } else {
      // One batched sweep through the learner's vector kernel (the fan-out
      // runs under "ml.batch" inside this evaluate span).
      learner_.PredictBatch(pool_.features(), eval_rows, predictions.data());
    }
    stats_.metrics = evaluator_.Evaluate(predictions);
    CollectInterpretability(learner_, &stats_);

    // Plateau detection: count consecutive iterations whose predictions
    // are identical to the previous iteration's.
    if (config_.plateau_window > 0) {
      if (predictions == previous_predictions_) {
        ++stable_iterations_;
      } else {
        stable_iterations_ = 0;
      }
      previous_predictions_ = std::move(predictions);
    }
    stats_.evaluate_seconds = evaluate_span.Close();
  }
  if (config_.ensemble_precision) {
    static obs::Gauge& accepted_gauge =
        obs::MetricsRegistry::Global().GetGauge("ensemble.accepted");
    if (accept) Cover();
    stats_.ensemble_size = accepted_;
    accepted_gauge.Set(static_cast<double>(accepted_));
  }

  state_ = SessionState::kBatchReady;
  return true;
}

bool LabelingSession::EnsemblePredict(std::vector<int>* predictions) {
  // Precision gate: judge the candidate on the labeled rows it predicts
  // positive (their true labels came from the Oracle).
  const bool candidate_live = !fit_skipped_ && learner_.trained();
  bool accept = false;
  if (candidate_live) {
    const std::vector<size_t> labeled = pool_.ActiveLabeledRows();
    std::vector<int> gate(labeled.size());
    learner_.PredictBatch(pool_.features(), labeled, gate.data());
    size_t positives = 0;
    size_t correct = 0;
    for (size_t i = 0; i < labeled.size(); ++i) {
      if (gate[i] != 1) continue;
      ++positives;
      correct += pool_.LabelOf(labeled[i]) == 1 ? 1 : 0;
    }
    accept = positives >= kEnsembleMinLabeledPositives &&
             static_cast<double>(correct) / static_cast<double>(positives) >=
                 *config_.ensemble_precision;
  }
  // The candidate joins the union only while it looks precise (or before
  // any member is accepted, when there is nothing else to report): a
  // candidate trained on the post-coverage residue would otherwise pollute
  // the union with false positives. It judges exactly the rows no accepted
  // member covers: gather them, sweep them in one batch, scatter back.
  const bool include_candidate = candidate_live && (accepted_ == 0 || accept);
  const std::vector<size_t>& eval_rows = evaluator_.eval_rows();
  std::vector<size_t> rows;
  std::vector<size_t> slots;
  for (size_t i = 0; i < eval_rows.size(); ++i) {
    (*predictions)[i] = covered_[eval_rows[i]] != kUncovered ? 1 : 0;
    if ((*predictions)[i] == 0 && include_candidate) {
      rows.push_back(eval_rows[i]);
      slots.push_back(i);
    }
  }
  if (!rows.empty()) {
    std::vector<int> candidate(rows.size());
    learner_.PredictBatch(pool_.features(), rows, candidate.data());
    for (size_t j = 0; j < rows.size(); ++j) {
      (*predictions)[slots[j]] = candidate[j];
    }
  }
  return accept;
}

void LabelingSession::Cover() {
  obs::ObsSpan coverage_span("ensemble.coverage", "core");
  ++accepted_;
  // Scan every uncovered row still in play: the pool's selectable and
  // labeled rows, plus the evaluation rows, which a holdout split excludes
  // from the pool but the ensemble must still judge.
  std::vector<char> in_play(pool_.size(), 0);
  for (const size_t row : evaluator_.eval_rows()) in_play[row] = 1;
  std::vector<size_t> uncovered;
  uncovered.reserve(pool_.size());
  for (size_t row = 0; row < pool_.size(); ++row) {
    if (covered_[row] == kUncovered &&
        (in_play[row] != 0 || !pool_.IsExcluded(row))) {
      uncovered.push_back(row);
    }
  }
  std::vector<int> positive(uncovered.size());
  learner_.PredictBatch(pool_.features(), uncovered, positive.data());
  for (size_t j = 0; j < uncovered.size(); ++j) {
    if (positive[j] != 1) continue;
    const size_t row = uncovered[j];
    covered_[row] = pool_.IsExcluded(row) ? kCoveredHeldOut : kCovered;
    pool_.Exclude(row);
  }
}

bool LabelingSession::AcceptedLastIteration() const {
  const size_t n = curve_.size();
  return n > 0 && curve_[n - 1].ensemble_size >
                      (n > 1 ? curve_[n - 2].ensemble_size : 0);
}

std::vector<size_t> LabelingSession::NextBatch() {
  if (state_ != SessionState::kBatchReady) {
    Reject("NextBatch() requires the batch_ready state (currently " +
           std::string(SessionStateName(state_)) + ")");
    return {};
  }

  // 3. Select the next batch.
  const bool plateaued = config_.plateau_window > 0 &&
                         stable_iterations_ >= config_.plateau_window;
  const bool budget_exhausted =
      pool_.num_labeled() + config_.batch_size > config_.max_labels &&
      pool_.num_labeled() >= config_.max_labels;
  const bool target_reached =
      config_.target_f1 > 0.0 && stats_.metrics.f1 >= config_.target_f1;
  std::vector<size_t> batch;
  {
    obs::ObsSpan select_span("loop.select", "core");
    if (!budget_exhausted && !target_reached && !plateaued && !fit_skipped_ &&
        !pool_.unlabeled_rows().empty()) {
      SelectionTiming timing;
      const size_t remaining_budget =
          config_.max_labels > pool_.num_labeled()
              ? config_.max_labels - pool_.num_labeled()
              : 0;
      batch = selector_.Select(
          learner_, pool_, std::min(config_.batch_size, remaining_budget),
          &timing);
      stats_.committee_seconds = timing.committee_seconds;
      stats_.scoring_seconds = timing.scoring_seconds;
      stats_.scored_examples = timing.scored_examples;
      stats_.pruned_examples = timing.pruned_examples;
    }
    stats_.select_seconds = select_span.Close();
  }

  if (batch.empty()) {
    // Termination: budget, target, plateau, or selector exhaustion (which
    // includes an ensemble with nothing left to train on). The
    // no-op label span keeps the terminating iteration's trace shape
    // identical to the historical loop's.
    {
      obs::ObsSpan label_span("loop.label", "core");
      stats_.label_seconds = label_span.Close();
    }
    FinishIteration();
    Finish(budget_exhausted   ? StopReason::kBudgetExhausted
           : target_reached   ? StopReason::kTargetReached
           : plateaued        ? StopReason::kPlateaued
                              : StopReason::kSelectorExhausted);
    return {};
  }

  pending_batch_ = batch;
  state_ = SessionState::kAwaitingLabels;
  return batch;
}

bool LabelingSession::SubmitLabels() {
  if (state_ != SessionState::kAwaitingLabels) {
    return Reject("SubmitLabels() without a pending batch (currently " +
                  std::string(SessionStateName(state_)) + ")");
  }
  // 4. Query the Oracle and grow the training set. Label time is the
  // user's own and excluded from wait time.
  {
    obs::ObsSpan label_span("loop.label", "core");
    for (const size_t row : pending_batch_) {
      pool_.AddLabel(row, oracle_.Label(row));
    }
    stats_.label_seconds = label_span.Close();
  }
  pending_batch_.clear();
  FinishIteration();
  state_ = SessionState::kNeedsStep;
  return true;
}

bool LabelingSession::SubmitLabels(std::span<const int> labels) {
  if (state_ != SessionState::kAwaitingLabels) {
    return Reject("SubmitLabels() without a pending batch (currently " +
                  std::string(SessionStateName(state_)) + ")");
  }
  if (labels.size() != pending_batch_.size()) {
    return Reject("SubmitLabels(): got " + std::to_string(labels.size()) +
                  " labels for a batch of " +
                  std::to_string(pending_batch_.size()));
  }
  for (const int label : labels) {
    if (label != 0 && label != 1) {
      return Reject("SubmitLabels(): labels must be 0 or 1 (got " +
                    std::to_string(label) + ")");
    }
  }
  {
    obs::ObsSpan label_span("loop.label", "core");
    for (size_t i = 0; i < pending_batch_.size(); ++i) {
      pool_.AddLabel(pending_batch_[i], labels[i]);
    }
    stats_.label_seconds = label_span.Close();
  }
  pending_batch_.clear();
  FinishIteration();
  state_ = SessionState::kNeedsStep;
  return true;
}

void LabelingSession::FinishIteration() {
  static obs::Histogram& wait_histogram =
      obs::MetricsRegistry::Global().GetHistogram(
          "loop.wait_seconds", {0.001, 0.01, 0.1, 1.0, 10.0, 60.0});
  static obs::Gauge& labels_gauge =
      obs::MetricsRegistry::Global().GetGauge("loop.labels_used");
  // User wait time is the sum of the measured phase spans (train +
  // select); summing spans rather than re-reading a restarted wall clock
  // keeps evaluator time out of it (paper §6, Fig. 13).
  stats_.wait_seconds = stats_.train_seconds + stats_.select_seconds;
  wait_histogram.Observe(stats_.wait_seconds);
  labels_gauge.Set(static_cast<double>(pool_.num_labeled()));
  curve_.push_back(stats_);
  iteration_span_->Close();
  iteration_span_.reset();
}

void LabelingSession::Finish(StopReason reason) {
  stop_reason_ = reason;
  state_ = SessionState::kFinished;
  // High-water-mark memory at the end of the run, for the flight recorder.
  static obs::Gauge& peak_rss_gauge =
      obs::MetricsRegistry::Global().GetGauge("process.peak_rss_bytes");
  peak_rss_gauge.Set(static_cast<double>(obs::PeakRssBytes()));
  run_span_->Close();
}

bool LabelingSession::Reject(std::string message) {
  error_ = std::move(message);
  return false;
}

// ---- Snapshot / restore ------------------------------------------------

bool LabelingSession::SaveTo(SessionSnapshot* snapshot,
                             std::string* error) const {
  if (state_ != SessionState::kNeedsStep &&
      state_ != SessionState::kFinished) {
    *error = "session save requires an iteration boundary (needs_step or "
             "finished), currently " +
             std::string(SessionStateName(state_));
    return false;
  }
  snapshot->set("BCFG", EncodeConfig(config_));
  snapshot->set("SCOR", EncodeCore(iteration_, resume_count_, state_,
                                   stop_reason_, seed_result_));
  snapshot->set("POOL", EncodePool(pool_));
  snapshot->set("CRVE", EncodeCurve(curve_));
  snapshot->set("PLAT", EncodePlateau(stable_iterations_,
                                      previous_predictions_));
  snapshot->set("LRNR", learner_.SaveModel());
  snapshot->set("SLCT", selector_.SaveState());
  snapshot->set("ORCL", oracle_.SaveState());
  if (config_.ensemble_precision) {
    snapshot->set("ENSM", EncodeEnsemble(*config_.ensemble_precision,
                                         accepted_, covered_));
  }
  return true;
}

bool LabelingSession::Save(const std::string& path, std::string* error) const {
  SessionSnapshot snapshot;
  if (!SaveTo(&snapshot, error)) return false;
  return snapshot.WriteFile(path, error);
}

std::unique_ptr<LabelingSession> LabelingSession::Restore(
    Learner& learner, ExampleSelector& selector, Oracle& oracle,
    const Evaluator& evaluator, ActivePool& pool,
    const SessionSnapshot& snapshot, std::string* error) {
  for (const std::string_view tag :
       {"BCFG", "SCOR", "POOL", "CRVE", "PLAT"}) {
    if (!snapshot.has(tag)) {
      *error = "session snapshot: missing section '" + std::string(tag) + "'";
      return nullptr;
    }
  }
  ActiveLearningConfig config;
  if (!DecodeConfig(snapshot.section("BCFG"), &config)) {
    *error = "session snapshot: malformed config section";
    return nullptr;
  }
  DecodedCore core;
  if (!DecodeCore(snapshot.section("SCOR"), &core)) {
    *error = "session snapshot: malformed session-core section";
    return nullptr;
  }
  std::vector<IterationStats> curve;
  if (!DecodeCurve(snapshot.section("CRVE"), &curve)) {
    *error = "session snapshot: malformed curve section";
    return nullptr;
  }
  size_t stable_iterations = 0;
  std::vector<int> previous_predictions;
  if (!DecodePlateau(snapshot.section("PLAT"), &stable_iterations,
                     &previous_predictions)) {
    *error = "session snapshot: malformed plateau section";
    return nullptr;
  }
  // At an iteration boundary the curve holds exactly the completed
  // iterations.
  if (core.iteration != curve.size()) {
    *error = "session snapshot: iteration count disagrees with curve length";
    return nullptr;
  }
  if (pool.num_labeled() != 0) {
    *error = "session restore requires a freshly constructed (label-free) "
             "pool";
    return nullptr;
  }

  std::unique_ptr<LabelingSession> session(
      new LabelingSession(learner, selector, oracle, evaluator, pool, config,
                          /*seed_pool=*/false));
  if (!ReplayPool(snapshot.section("POOL"), &pool, error)) return nullptr;
  if (!learner.RestoreModel(snapshot.section("LRNR"),
                           pool.features().dims())) {
    *error = "session snapshot: learner model blob does not match the "
             "configured learner";
    return nullptr;
  }
  if (!selector.RestoreState(snapshot.section("SLCT"))) {
    *error = "session snapshot: selector state does not match the "
             "configured selector";
    return nullptr;
  }
  if (!oracle.RestoreState(snapshot.section("ORCL"))) {
    *error = "session snapshot: oracle state does not match the configured "
             "oracle";
    return nullptr;
  }

  session->iteration_ = core.iteration;
  session->resume_count_ = core.resume_count + 1;
  session->seed_result_ = core.seed_result;
  session->stop_reason_ = core.stop_reason;
  session->state_ = core.state;
  session->curve_ = std::move(curve);
  session->stable_iterations_ = stable_iterations;
  session->previous_predictions_ = std::move(previous_predictions);
  if (snapshot.has("ENSM") &&
      !session->RestoreEnsemble(snapshot.section("ENSM"), error)) {
    return nullptr;
  }
  if (session->state_ == SessionState::kFinished) {
    // Nothing left to run; close the run span the restoring constructor
    // opened so the trace does not dangle.
    session->run_span_->Close();
  }
  return session;
}

bool LabelingSession::RestoreEnsemble(std::string_view blob,
                                      std::string* error) {
  ByteReader r(blob);
  double precision = 0.0;
  uint64_t accepted = 0;
  uint64_t count = 0;
  if (!r.F64(&precision) || !r.U64(&accepted) || !r.U64(&count)) {
    *error = "session snapshot: truncated ensemble section";
    return false;
  }
  // The accepted count must be the one the curve ends on, and only an
  // ensemble with members covers rows.
  const size_t curve_accepted =
      curve_.empty() ? 0 : curve_.back().ensemble_size;
  if (!(precision >= 0.0 && precision <= 1.0) || accepted != curve_accepted ||
      count > pool_.size() || (accepted == 0 && count > 0)) {
    *error = "session snapshot: inconsistent ensemble section";
    return false;
  }
  std::vector<char> eval_row(pool_.size(), 0);
  for (const size_t row : evaluator_.eval_rows()) eval_row[row] = 1;
  std::vector<uint8_t> covered(pool_.size(), kUncovered);
  for (uint64_t i = 0; i < count; ++i) {
    uint64_t row = 0;
    uint8_t state = 0;
    if (!r.U64(&row) || !r.U8(&state)) {
      *error = "session snapshot: truncated ensemble section";
      return false;
    }
    if (row >= pool_.size() || covered[row] != kUncovered) {
      *error = "session snapshot: ensemble section has a covered row out of "
               "range or repeated";
      return false;
    }
    // A row the scan excluded must still be in play in the fresh pool; a
    // held-out one must be an excluded evaluation row.
    const bool excluded = pool_.IsExcluded(row);
    if (!(state == kCovered && !excluded) &&
        !(state == kCoveredHeldOut && excluded && eval_row[row] != 0)) {
      *error = "session snapshot: ensemble section disagrees with the "
               "pool's exclusions";
      return false;
    }
    covered[row] = state;
  }
  if (!r.AtEnd()) {
    *error = "session snapshot: trailing bytes in ensemble section";
    return false;
  }
  for (size_t row = 0; row < covered.size(); ++row) {
    if (covered[row] == kCovered) pool_.Exclude(row);
  }
  config_.ensemble_precision = precision;
  accepted_ = static_cast<size_t>(accepted);
  covered_ = std::move(covered);
  return true;
}

}  // namespace alem
