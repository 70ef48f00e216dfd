// LabelingSession: the step-wise, resumable core of the active-learning
// loop (docs/sessions.md).
//
// ActiveLearningLoop::Run used to own the whole iterate-until-termination
// control flow, which made pausing, snapshotting, or feeding labels from an
// external UI impossible without re-running from scratch. The session
// inverts that: the caller drives
//
//     Step()          train + evaluate the current labeled data
//     NextBatch()     select the next examples to label
//     SubmitLabels()  add the labels (from the Oracle or supplied directly)
//
// and termination is a queryable state instead of a loop exit:
//
//     kNeedsStep --Step()--> kBatchReady --NextBatch()--+
//         ^                                             | batch non-empty
//         |                                             v
//         +------SubmitLabels()------------------ kAwaitingLabels
//
//     NextBatch() with an empty batch  -> kFinished  (stop_reason() says why)
//     invalid transition / bad input   -> recoverable error (state unchanged)
//
// At any iteration boundary (kNeedsStep or kFinished) the session can be
// serialized with Save()/SaveTo() and reconstructed in a fresh process with
// Restore(): learner model, labeled-pool contents, selector + oracle RNG
// streams, the cumulative IterationStats curve, plateau state, and config
// all round-trip, so the resumed run's curve and RunReport are
// bitwise-identical to the uninterrupted run at any thread count. Active
// ensembles (Section 5.2) are a config of the same loop
// (ActiveLearningConfig::ensemble_precision), so they resume the same way.
//
// Snapshots use the checksummed binary-container conventions of the ALFM
// feature-cache format: "ALSS" magic, u32 version, u64 payload size, u64
// FNV-1a checksum, then tagged sections ([4-char tag][u64 length][bytes]).
// Corrupt, truncated, or version-skewed files fail Read() with a clean
// error. Harness-level callers (SessionRunner, alem_cli) add their own
// sections — dataset provenance, run config, metric counters — alongside
// the session's; unknown tags are preserved and ignored.

#ifndef ALEM_CORE_SESSION_H_
#define ALEM_CORE_SESSION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/active_loop.h"
#include "core/evaluator.h"
#include "core/learner.h"
#include "core/oracle.h"
#include "core/pool.h"
#include "core/selector.h"
#include "obs/obs.h"

namespace alem {

enum class SessionState {
  kNeedsStep,       // Ready to train/evaluate the next iteration.
  kBatchReady,      // Step done; call NextBatch().
  kAwaitingLabels,  // A batch is pending; call SubmitLabels().
  kFinished,        // Terminated; stop_reason() says why.
  kFailed,          // Unrecoverable (restore mismatch); error() says why.
};

enum class StopReason {
  kRunning,           // Not terminated yet.
  kBudgetExhausted,   // Label budget consumed.
  kTargetReached,     // Progressive F1 reached target_f1.
  kPlateaued,         // Predictions stable for plateau_window iterations.
  kSelectorExhausted  // Empty pool or the selector found nothing to label.
};

std::string_view SessionStateName(SessionState state);
std::string_view StopReasonName(StopReason reason);

// A validated ALSS snapshot container: 4-char tag -> payload bytes. The
// container layer owns magic/version/checksum handling; section payloads
// are opaque here and interpreted by their writers.
struct SessionSnapshot {
  std::map<std::string, std::string> sections;

  bool has(std::string_view tag) const;
  // Payload of `tag`, or empty when absent.
  const std::string& section(std::string_view tag) const;
  void set(std::string_view tag, std::string payload);

  // Serializes/parses the checksummed container. ReadFile/Parse fail (with
  // a human-readable *error) on bad magic, unsupported version, truncated
  // or oversized payload, checksum mismatch, or malformed section framing.
  std::string Serialize() const;
  static bool Parse(std::string_view blob, SessionSnapshot* out,
                    std::string* error);
  bool WriteFile(const std::string& path, std::string* error) const;
  static bool ReadFile(const std::string& path, SessionSnapshot* out,
                       std::string* error);
};

// Decodes the session's own loop-config section out of a snapshot (the
// harness rebuilds its RunConfig budget from it before re-constructing the
// environment and restoring the session).
bool DecodeSessionLoopConfig(const SessionSnapshot& snapshot,
                             ActiveLearningConfig* config);

class LabelingSession {
 public:
  // Construction seeds the pool (SeedPool) and opens the run: the session
  // starts in kNeedsStep. All references must outlive the session; the
  // learner is retrained in place each Step.
  LabelingSession(Learner& learner, ExampleSelector& selector, Oracle& oracle,
                  const Evaluator& evaluator, ActivePool& pool,
                  const ActiveLearningConfig& config);

  // Reconstructs a mid-run session from a snapshot. The pool must be
  // freshly constructed (no labels) over the same dataset, with the same
  // exclusions applied, and learner/selector/oracle/evaluator must match
  // the original run's construction — the snapshot re-labels the pool and
  // restores model, RNG streams, curve, and plateau state. Returns null
  // with *error set when the snapshot is incomplete or inconsistent.
  static std::unique_ptr<LabelingSession> Restore(
      Learner& learner, ExampleSelector& selector, Oracle& oracle,
      const Evaluator& evaluator, ActivePool& pool,
      const SessionSnapshot& snapshot, std::string* error);

  ~LabelingSession();

  LabelingSession(const LabelingSession&) = delete;
  LabelingSession& operator=(const LabelingSession&) = delete;

  // --- Stepping ---

  // Trains on the cumulative labeled data and evaluates (one iteration's
  // phases 1-2). Valid only in kNeedsStep; returns false (state unchanged,
  // error() set) otherwise.
  bool Step();

  // Selects the next batch (phase 3). Valid only in kBatchReady. An empty
  // batch terminates the session (kFinished); otherwise the returned rows
  // await labels (kAwaitingLabels).
  std::vector<size_t> NextBatch();

  // Labels the pending batch by querying the session's Oracle (phase 4).
  // Valid only in kAwaitingLabels; double submission or submission without
  // a pending batch returns false with error() set, state unchanged.
  bool SubmitLabels();

  // Labels the pending batch with caller-provided labels (an external
  // labeling UI standing in for the Oracle). `labels[i]` applies to
  // `pending_batch()[i]` and must be 0 or 1; a size mismatch or an invalid
  // label is rejected recoverably (false, state unchanged).
  bool SubmitLabels(std::span<const int> labels);

  // --- Introspection ---

  SessionState state() const { return state_; }
  StopReason stop_reason() const { return stop_reason_; }
  bool finished() const {
    return state_ == SessionState::kFinished || state_ == SessionState::kFailed;
  }
  // Last recoverable-rejection or failure message; empty when none.
  const std::string& error() const { return error_; }

  // Completed + in-flight iteration count (0 until the first Step).
  size_t iteration() const { return iteration_; }
  // #times this session has been restored from a snapshot (provenance).
  uint32_t resume_count() const { return resume_count_; }
  const SeedResult& seed_result() const { return seed_result_; }
  const std::vector<size_t>& pending_batch() const { return pending_batch_; }
  const ActiveLearningConfig& config() const { return config_; }

  // Per-iteration statistics recorded so far (one entry per completed
  // iteration; the terminating no-op iteration included once finished).
  const std::vector<IterationStats>& curve() const { return curve_; }
  std::vector<IterationStats> TakeCurve() && { return std::move(curve_); }

  // --- Snapshotting ---

  // Serializes the session's sections into `snapshot` (merging with any
  // sections already present, e.g. harness provenance). Valid only at an
  // iteration boundary — kNeedsStep or kFinished; mid-iteration saves are
  // rejected (false, *error set) because the determinism contract is
  // defined at boundaries.
  bool SaveTo(SessionSnapshot* snapshot, std::string* error) const;

  // SaveTo + WriteFile convenience.
  bool Save(const std::string& path, std::string* error) const;

 private:
  LabelingSession(Learner& learner, ExampleSelector& selector, Oracle& oracle,
                  const Evaluator& evaluator, ActivePool& pool,
                  const ActiveLearningConfig& config, bool seed_pool);

  // Phases 3b/4 bookkeeping shared by SubmitLabels and the terminating
  // NextBatch: wait time, metrics, curve push, iteration span close.
  void FinishIteration();
  void Finish(StopReason reason);
  bool Reject(std::string message);

  // Active-ensemble steps (config.ensemble_precision set; Section 5.2).
  // EnsemblePredict judges the candidate's precision gate, fills
  // `predictions` (aligned with eval_rows) with the union of the accepted
  // members' positives and the candidate's predictions on the uncovered
  // rows, and returns whether the candidate is accepted. Cover() records an
  // accepted candidate's positives and excludes them from the pool.
  bool EnsemblePredict(std::vector<int>* predictions);
  void Cover();
  // True when the previous iteration accepted a member: the training set
  // just shrank, so the next fit starts cold.
  bool AcceptedLastIteration() const;
  bool RestoreEnsemble(std::string_view blob, std::string* error);

  Learner& learner_;
  ExampleSelector& selector_;
  Oracle& oracle_;
  const Evaluator& evaluator_;
  ActivePool& pool_;
  ActiveLearningConfig config_;

  SessionState state_ = SessionState::kNeedsStep;
  StopReason stop_reason_ = StopReason::kRunning;
  std::string error_;

  size_t iteration_ = 0;
  uint32_t resume_count_ = 0;
  SeedResult seed_result_;
  std::vector<IterationStats> curve_;
  IterationStats stats_;  // The in-flight iteration's record.
  std::vector<size_t> pending_batch_;

  // Plateau-termination state (config.plateau_window > 0).
  std::vector<int> previous_predictions_;
  size_t stable_iterations_ = 0;

  // Active-ensemble state, snapshotted as the "ENSM" section: the number
  // of accepted members, and per pool row whether an accepted member
  // predicts it positive (kCovered rows were excluded from the pool by the
  // coverage scan; kCoveredHeldOut rows were already excluded, i.e.
  // held-out evaluation rows). fit_skipped_ marks a Step whose active
  // labeled set was single-class, which ends the run.
  enum Coverage : uint8_t { kUncovered, kCovered, kCoveredHeldOut };
  size_t accepted_ = 0;
  std::vector<uint8_t> covered_;
  bool fit_skipped_ = false;

  // The loop.run / loop.iteration trace spans outlive single calls, so the
  // session holds them open across the step-wise API (ObsSpan is
  // intentionally pinned — neither copyable nor movable).
  std::unique_ptr<obs::ObsSpan> run_span_;
  std::unique_ptr<obs::ObsSpan> iteration_span_;
};

}  // namespace alem

#endif  // ALEM_CORE_SESSION_H_
