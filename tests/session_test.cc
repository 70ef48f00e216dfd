// LabelingSession: the step-wise state machine, recoverable rejections,
// and the ALSS snapshot/restore determinism contract (docs/sessions.md):
// a run paused at ANY iteration boundary and restored into a freshly
// constructed environment must finish with a curve whose deterministic
// fields are bitwise-identical to the uninterrupted run's, at any thread
// count. Corrupt, truncated, and version-skewed snapshots must fail with
// clean errors, never crashes.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/active_loop.h"
#include "core/evaluator.h"
#include "core/learner.h"
#include "core/oracle.h"
#include "core/pool.h"
#include "core/selector.h"
#include "core/session.h"
#include "parallel/pool.h"
#include "util/rng.h"

namespace alem {
namespace {

// A 2-D, mostly separable problem with 10% class skew (like EM pairs).
struct Problem {
  FeatureMatrix features;
  std::vector<int> truth;
};

Problem MakeProblem(size_t n, uint64_t seed) {
  Rng rng(seed);
  Problem problem;
  problem.features = FeatureMatrix(n, 2);
  problem.truth.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool positive = i % 10 == 0;
    const double center = positive ? 0.75 : 0.3;
    problem.features.Set(
        i, 0, static_cast<float>(center + rng.NextGaussian() * 0.07));
    problem.features.Set(
        i, 1, static_cast<float>(center + rng.NextGaussian() * 0.07));
    problem.truth[i] = positive ? 1 : 0;
  }
  return problem;
}

// One run's worth of components, constructed identically every time — the
// restore contract requires the caller to rebuild the same environment a
// fresh run would get. NoisyOracle + QBC give both an oracle and a selector
// RNG stream for the snapshot to carry.
struct Env {
  ActivePool pool;
  NoisyOracle oracle;
  ProgressiveEvaluator evaluator;
  SvmLearner learner;
  QbcSelector selector;

  explicit Env(const Problem& problem)
      : pool(problem.features),
        oracle(problem.truth, 0.05, 99),
        evaluator(problem.truth),
        learner{LinearSvmConfig{}},
        selector(3, 7) {}
};

ActiveLearningConfig TestConfig() {
  ActiveLearningConfig config;
  config.seed_size = 30;
  config.batch_size = 10;
  config.max_labels = 100;
  return config;
}

// Drives the session until it finishes or — when stop_after > 0 — until
// that many iterations have completed and the session sits at the
// needs_step boundary.
void Drive(LabelingSession* session, size_t stop_after = 0) {
  while (!session->finished()) {
    if (stop_after > 0 && session->state() == SessionState::kNeedsStep &&
        session->curve().size() >= stop_after) {
      return;
    }
    switch (session->state()) {
      case SessionState::kNeedsStep:
        ASSERT_TRUE(session->Step());
        break;
      case SessionState::kBatchReady:
        session->NextBatch();
        break;
      case SessionState::kAwaitingLabels:
        ASSERT_TRUE(session->SubmitLabels());
        break;
      default:
        FAIL() << "unexpected state";
    }
  }
}

// Bitwise equality on the deterministic curve fields. Timing fields
// (train/select/wait seconds) are wall-clock and deliberately excluded —
// the determinism contract covers what the run computed, not how long it
// took.
void ExpectCurvesIdentical(const std::vector<IterationStats>& expected,
                           const std::vector<IterationStats>& actual) {
  ASSERT_EQ(expected.size(), actual.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("iteration " + std::to_string(i));
    const IterationStats& a = expected[i];
    const IterationStats& b = actual[i];
    EXPECT_EQ(a.iteration, b.iteration);
    EXPECT_EQ(a.labels_used, b.labels_used);
    EXPECT_EQ(a.metrics.true_positives, b.metrics.true_positives);
    EXPECT_EQ(a.metrics.false_positives, b.metrics.false_positives);
    EXPECT_EQ(a.metrics.false_negatives, b.metrics.false_negatives);
    EXPECT_EQ(a.metrics.true_negatives, b.metrics.true_negatives);
    EXPECT_EQ(a.metrics.precision, b.metrics.precision);  // bitwise doubles
    EXPECT_EQ(a.metrics.recall, b.metrics.recall);
    EXPECT_EQ(a.metrics.f1, b.metrics.f1);
    EXPECT_EQ(a.scored_examples, b.scored_examples);
    EXPECT_EQ(a.pruned_examples, b.pruned_examples);
    EXPECT_EQ(a.dnf_atoms, b.dnf_atoms);
    EXPECT_EQ(a.tree_depth, b.tree_depth);
    EXPECT_EQ(a.ensemble_size, b.ensemble_size);
  }
}

TEST(LabelingSessionTest, MatchesActiveLearningLoop) {
  const Problem problem = MakeProblem(600, 11);
  const ActiveLearningConfig config = TestConfig();

  Env loop_env(problem);
  ActiveLearningLoop loop(loop_env.learner, loop_env.selector,
                          loop_env.oracle, loop_env.evaluator, config);
  const std::vector<IterationStats> loop_curve = loop.Run(loop_env.pool);

  Env session_env(problem);
  LabelingSession session(session_env.learner, session_env.selector,
                          session_env.oracle, session_env.evaluator,
                          session_env.pool, config);
  Drive(&session);
  ASSERT_EQ(session.state(), SessionState::kFinished);
  EXPECT_EQ(session.stop_reason(), StopReason::kBudgetExhausted);
  ExpectCurvesIdentical(loop_curve, std::move(session).TakeCurve());
}

// The tentpole contract: pause at EVERY iteration boundary, round-trip the
// snapshot through the serialized container, restore into a fresh
// environment, and finish — the stitched curve must match the
// uninterrupted run bitwise. Verified at 1 and 4 threads.
void SaveRestoreAtEveryBoundary(int threads) {
  parallel::SetNumThreads(threads);
  const Problem problem = MakeProblem(600, 11);
  const ActiveLearningConfig config = TestConfig();

  Env golden_env(problem);
  LabelingSession golden(golden_env.learner, golden_env.selector,
                         golden_env.oracle, golden_env.evaluator,
                         golden_env.pool, config);
  Drive(&golden);
  ASSERT_EQ(golden.state(), SessionState::kFinished);
  const std::vector<IterationStats> golden_curve =
      std::move(golden).TakeCurve();
  ASSERT_GE(golden_curve.size(), 3u);

  for (size_t boundary = 1; boundary < golden_curve.size(); ++boundary) {
    SCOPED_TRACE("boundary " + std::to_string(boundary) + ", threads " +
                 std::to_string(threads));
    Env first_env(problem);
    LabelingSession first(first_env.learner, first_env.selector,
                          first_env.oracle, first_env.evaluator,
                          first_env.pool, config);
    Drive(&first, boundary);
    ASSERT_EQ(first.state(), SessionState::kNeedsStep);
    ASSERT_EQ(first.curve().size(), boundary);

    SessionSnapshot saved;
    std::string error;
    ASSERT_TRUE(first.SaveTo(&saved, &error)) << error;

    // Round-trip through the serialized container, as a real pause does.
    SessionSnapshot loaded;
    ASSERT_TRUE(SessionSnapshot::Parse(saved.Serialize(), &loaded, &error))
        << error;

    Env second_env(problem);
    std::unique_ptr<LabelingSession> resumed = LabelingSession::Restore(
        second_env.learner, second_env.selector, second_env.oracle,
        second_env.evaluator, second_env.pool, loaded, &error);
    ASSERT_NE(resumed, nullptr) << error;
    EXPECT_EQ(resumed->iteration(), boundary);
    EXPECT_EQ(resumed->resume_count(), 1u);

    Drive(resumed.get());
    ASSERT_EQ(resumed->state(), SessionState::kFinished);
    EXPECT_EQ(resumed->stop_reason(), StopReason::kBudgetExhausted);
    ExpectCurvesIdentical(golden_curve, std::move(*resumed).TakeCurve());
  }
  parallel::SetNumThreads(1);
}

TEST(SessionSnapshotTest, SaveRestoreBitwiseEveryBoundarySingleThread) {
  SaveRestoreAtEveryBoundary(1);
}

TEST(SessionSnapshotTest, SaveRestoreBitwiseEveryBoundaryFourThreads) {
  SaveRestoreAtEveryBoundary(4);
}

// A finished session snapshots and restores too (kFinished is an iteration
// boundary); the restored session is immediately finished with the same
// curve and stop reason.
TEST(SessionSnapshotTest, FinishedSessionRoundTrips) {
  const Problem problem = MakeProblem(500, 4);
  const ActiveLearningConfig config = TestConfig();

  Env env(problem);
  LabelingSession session(env.learner, env.selector, env.oracle,
                          env.evaluator, env.pool, config);
  Drive(&session);
  ASSERT_EQ(session.state(), SessionState::kFinished);

  SessionSnapshot snapshot;
  std::string error;
  ASSERT_TRUE(session.SaveTo(&snapshot, &error)) << error;

  Env env2(problem);
  std::unique_ptr<LabelingSession> resumed = LabelingSession::Restore(
      env2.learner, env2.selector, env2.oracle, env2.evaluator, env2.pool,
      snapshot, &error);
  ASSERT_NE(resumed, nullptr) << error;
  EXPECT_EQ(resumed->state(), SessionState::kFinished);
  EXPECT_EQ(resumed->stop_reason(), session.stop_reason());
  ExpectCurvesIdentical(session.curve(), resumed->curve());
}

// ---- Container robustness ---------------------------------------------

std::string SerializedSnapshot() {
  const Problem problem = MakeProblem(400, 5);
  Env env(problem);
  LabelingSession session(env.learner, env.selector, env.oracle,
                          env.evaluator, env.pool, TestConfig());
  Drive(&session, 1);
  SessionSnapshot snapshot;
  std::string error;
  EXPECT_TRUE(session.SaveTo(&snapshot, &error)) << error;
  return snapshot.Serialize();
}

TEST(SessionSnapshotTest, CorruptPayloadFailsChecksum) {
  std::string blob = SerializedSnapshot();
  blob[blob.size() / 2] ^= 0x5a;  // Flip bits mid-payload.
  SessionSnapshot out;
  std::string error;
  EXPECT_FALSE(SessionSnapshot::Parse(blob, &out, &error));
  EXPECT_NE(error.find("checksum"), std::string::npos) << error;
}

TEST(SessionSnapshotTest, TruncatedFileFailsCleanly) {
  const std::string blob = SerializedSnapshot();
  SessionSnapshot out;
  std::string error;
  // Truncated mid-payload: size mismatch. Truncated mid-header: header
  // error. Every prefix length must fail cleanly, never crash.
  EXPECT_FALSE(
      SessionSnapshot::Parse(blob.substr(0, blob.size() - 7), &out, &error));
  EXPECT_NE(error.find("mismatch"), std::string::npos) << error;
  EXPECT_FALSE(SessionSnapshot::Parse(blob.substr(0, 10), &out, &error));
  EXPECT_NE(error.find("truncated header"), std::string::npos) << error;
  EXPECT_FALSE(SessionSnapshot::Parse("", &out, &error));
}

TEST(SessionSnapshotTest, VersionSkewFailsCleanly) {
  std::string blob = SerializedSnapshot();
  blob[4] = 99;  // Format version lives at bytes 4..7.
  SessionSnapshot out;
  std::string error;
  EXPECT_FALSE(SessionSnapshot::Parse(blob, &out, &error));
  EXPECT_NE(error.find("version"), std::string::npos) << error;
}

TEST(SessionSnapshotTest, BadMagicFailsCleanly) {
  std::string blob = SerializedSnapshot();
  blob[0] = 'X';
  SessionSnapshot out;
  std::string error;
  EXPECT_FALSE(SessionSnapshot::Parse(blob, &out, &error));
  EXPECT_NE(error.find("magic"), std::string::npos) << error;
}

TEST(SessionSnapshotTest, MissingSectionFailsRestore) {
  const Problem problem = MakeProblem(400, 5);
  Env env(problem);
  LabelingSession session(env.learner, env.selector, env.oracle,
                          env.evaluator, env.pool, TestConfig());
  Drive(&session, 1);
  SessionSnapshot snapshot;
  std::string error;
  ASSERT_TRUE(session.SaveTo(&snapshot, &error)) << error;
  snapshot.sections.erase("CRVE");

  Env env2(problem);
  EXPECT_EQ(LabelingSession::Restore(env2.learner, env2.selector, env2.oracle,
                                     env2.evaluator, env2.pool, snapshot,
                                     &error),
            nullptr);
  EXPECT_NE(error.find("CRVE"), std::string::npos) << error;
}

TEST(SessionSnapshotTest, RestoreRequiresLabelFreePool) {
  const Problem problem = MakeProblem(400, 5);
  Env env(problem);
  LabelingSession session(env.learner, env.selector, env.oracle,
                          env.evaluator, env.pool, TestConfig());
  Drive(&session, 1);
  SessionSnapshot snapshot;
  std::string error;
  ASSERT_TRUE(session.SaveTo(&snapshot, &error)) << error;

  Env env2(problem);
  env2.pool.AddLabel(0, problem.truth[0]);  // Not freshly constructed.
  EXPECT_EQ(LabelingSession::Restore(env2.learner, env2.selector, env2.oracle,
                                     env2.evaluator, env2.pool, snapshot,
                                     &error),
            nullptr);
  EXPECT_NE(error.find("label-free"), std::string::npos) << error;
}

// ---- State-machine rejections -----------------------------------------

TEST(LabelingSessionTest, InvalidTransitionsAreRecoverable) {
  const Problem problem = MakeProblem(400, 6);
  Env env(problem);
  LabelingSession session(env.learner, env.selector, env.oracle,
                          env.evaluator, env.pool, TestConfig());

  // kNeedsStep: only Step() is valid.
  EXPECT_FALSE(session.SubmitLabels());
  EXPECT_FALSE(session.error().empty());
  EXPECT_TRUE(session.NextBatch().empty());
  EXPECT_EQ(session.state(), SessionState::kNeedsStep);

  ASSERT_TRUE(session.Step());
  EXPECT_EQ(session.state(), SessionState::kBatchReady);
  // kBatchReady: only NextBatch() is valid.
  EXPECT_FALSE(session.Step());
  EXPECT_FALSE(session.SubmitLabels());
  EXPECT_EQ(session.state(), SessionState::kBatchReady);

  const std::vector<size_t> batch = session.NextBatch();
  ASSERT_FALSE(batch.empty());
  EXPECT_EQ(session.state(), SessionState::kAwaitingLabels);
  EXPECT_EQ(session.pending_batch(), batch);

  ASSERT_TRUE(session.SubmitLabels());
  EXPECT_EQ(session.state(), SessionState::kNeedsStep);
  // Double submission is rejected, state unchanged.
  EXPECT_FALSE(session.SubmitLabels());
  EXPECT_EQ(session.state(), SessionState::kNeedsStep);

  // The session still works after every rejection above.
  Drive(&session);
  EXPECT_EQ(session.state(), SessionState::kFinished);
}

TEST(LabelingSessionTest, RejectsBadExternalLabels) {
  const Problem problem = MakeProblem(400, 7);
  Env env(problem);
  LabelingSession session(env.learner, env.selector, env.oracle,
                          env.evaluator, env.pool, TestConfig());
  ASSERT_TRUE(session.Step());
  const std::vector<size_t> batch = session.NextBatch();
  ASSERT_FALSE(batch.empty());

  // Wrong batch size: rejected, batch still pending.
  const std::vector<int> short_labels(batch.size() - 1, 0);
  EXPECT_FALSE(session.SubmitLabels(short_labels));
  EXPECT_EQ(session.state(), SessionState::kAwaitingLabels);
  EXPECT_NE(session.error().find("batch"), std::string::npos);

  // Invalid label value: rejected.
  std::vector<int> bad_labels(batch.size(), 0);
  bad_labels[0] = 2;
  EXPECT_FALSE(session.SubmitLabels(bad_labels));
  EXPECT_EQ(session.state(), SessionState::kAwaitingLabels);

  // Valid external labels are accepted and advance the state machine.
  std::vector<int> labels;
  for (const size_t row : batch) labels.push_back(problem.truth[row]);
  EXPECT_TRUE(session.SubmitLabels(labels));
  EXPECT_EQ(session.state(), SessionState::kNeedsStep);
}

TEST(LabelingSessionTest, MidIterationSaveRejected) {
  const Problem problem = MakeProblem(400, 8);
  Env env(problem);
  LabelingSession session(env.learner, env.selector, env.oracle,
                          env.evaluator, env.pool, TestConfig());
  ASSERT_TRUE(session.Step());

  SessionSnapshot snapshot;
  std::string error;
  EXPECT_FALSE(session.SaveTo(&snapshot, &error));  // kBatchReady
  EXPECT_NE(error.find("boundary"), std::string::npos) << error;

  ASSERT_FALSE(session.NextBatch().empty());
  EXPECT_FALSE(session.SaveTo(&snapshot, &error));  // kAwaitingLabels
}

// ---- Snapshot compatibility -------------------------------------------

// Snapshots written before warm-start "auto" was retired keep loading: a
// BCFG warm byte of 2 ("auto", which refit cold) decodes as "off", and the
// retired IEVL evaluation-cache section is skipped like any unknown tag.
TEST(SessionSnapshotTest, RetiredAutoModeAndEvalSectionStillRestore) {
  const Problem problem = MakeProblem(600, 11);
  Env golden_env(problem);
  LabelingSession golden(golden_env.learner, golden_env.selector,
                         golden_env.oracle, golden_env.evaluator,
                         golden_env.pool, TestConfig());
  Drive(&golden);

  Env first_env(problem);
  LabelingSession first(first_env.learner, first_env.selector,
                        first_env.oracle, first_env.evaluator, first_env.pool,
                        TestConfig());
  Drive(&first, 2);
  SessionSnapshot snapshot;
  std::string error;
  ASSERT_TRUE(first.SaveTo(&snapshot, &error)) << error;
  std::string config = snapshot.section("BCFG");
  ASSERT_EQ(config.back(), 0);  // The trailing warm-start byte: "off".
  config.back() = 2;
  snapshot.set("BCFG", config);
  snapshot.set("IEVL", std::string(45, '\x01'));

  SessionSnapshot loaded;
  ASSERT_TRUE(SessionSnapshot::Parse(snapshot.Serialize(), &loaded, &error))
      << error;
  ActiveLearningConfig decoded;
  ASSERT_TRUE(DecodeSessionLoopConfig(loaded, &decoded));
  EXPECT_EQ(decoded.warm_start, WarmStartMode::kOff);
  Env second_env(problem);
  std::unique_ptr<LabelingSession> resumed = LabelingSession::Restore(
      second_env.learner, second_env.selector, second_env.oracle,
      second_env.evaluator, second_env.pool, loaded, &error);
  ASSERT_NE(resumed, nullptr) << error;
  Drive(resumed.get());
  ExpectCurvesIdentical(golden.curve(), resumed->curve());
}

// ---- Model blobs against the pool's feature width ----------------------

// Env with a random forest in place of the SVM.
struct ForestEnv {
  ActivePool pool;
  NoisyOracle oracle;
  ProgressiveEvaluator evaluator;
  ForestLearner learner;
  QbcSelector selector;

  explicit ForestEnv(const Problem& problem)
      : pool(problem.features),
        oracle(problem.truth, 0.05, 99),
        evaluator(problem.truth),
        learner{RandomForestConfig{}},
        selector(3, 7) {}
};

// Rewrites the feature index of the first split node in a serialized
// forest. Node lines read "is_leaf label dim threshold left right".
std::string WithFirstSplitDim(const std::string& blob, size_t dim) {
  std::istringstream in(blob);
  std::string out;
  std::string line;
  bool rewritten = false;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    std::vector<std::string> tokens;
    for (std::string token; fields >> token;) tokens.push_back(token);
    if (!rewritten && tokens.size() == 6 && tokens[0] == "0") {
      tokens[2] = std::to_string(dim);
      line = tokens[0];
      for (size_t i = 1; i < tokens.size(); ++i) line += ' ' + tokens[i];
      rewritten = true;
    }
    out += line + '\n';
  }
  return out;
}

// A forest split on feature `width` (one past the pool's last column) is
// well-formed text, so only a check against the pool catches it. Restore
// must fail with the learner-model error rather than install a model whose
// first prediction reads out of bounds.
TEST(SessionSnapshotTest, ModelReadingPastFeatureWidthFailsRestore) {
  const Problem problem = MakeProblem(400, 5);
  ForestEnv env(problem);
  LabelingSession session(env.learner, env.selector, env.oracle,
                          env.evaluator, env.pool, TestConfig());
  Drive(&session, 1);
  SessionSnapshot snapshot;
  std::string error;
  ASSERT_TRUE(session.SaveTo(&snapshot, &error)) << error;
  const std::string blob = snapshot.section("LRNR");
  {
    ForestEnv fresh(problem);
    ASSERT_NE(LabelingSession::Restore(fresh.learner, fresh.selector,
                                       fresh.oracle, fresh.evaluator,
                                       fresh.pool, snapshot, &error),
              nullptr)
        << error;
  }

  const std::string corrupt =
      WithFirstSplitDim(blob, problem.features.dims());
  ASSERT_NE(corrupt, blob);
  snapshot.set("LRNR", corrupt);
  // Re-seal the container so the checksum holds and only the model check
  // can reject it.
  SessionSnapshot loaded;
  ASSERT_TRUE(SessionSnapshot::Parse(snapshot.Serialize(), &loaded, &error))
      << error;
  ForestEnv fresh(problem);
  error.clear();
  EXPECT_EQ(LabelingSession::Restore(fresh.learner, fresh.selector,
                                     fresh.oracle, fresh.evaluator,
                                     fresh.pool, loaded, &error),
            nullptr);
  EXPECT_NE(error.find("learner model blob does not match"),
            std::string::npos)
      << error;
}

// ---- Active ensembles -------------------------------------------------

// Two positive clusters, so the ensemble accepts more than one member.
Problem MakeTwoClusterProblem(size_t n, uint64_t seed) {
  Rng rng(seed);
  Problem problem;
  problem.features = FeatureMatrix(n, 2);
  problem.truth.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t kind = std::min<size_t>(i % 10, 2);
    const double x = kind == 0 ? 0.85 : kind == 1 ? 0.15 : 0.45;
    const double y = kind == 0 ? 0.15 : kind == 1 ? 0.85 : 0.45;
    problem.features.Set(i, 0,
                         static_cast<float>(x + rng.NextGaussian() * 0.04));
    problem.features.Set(i, 1,
                         static_cast<float>(y + rng.NextGaussian() * 0.04));
    problem.truth[i] = kind < 2 ? 1 : 0;
  }
  return problem;
}

// With `holdout`, every seventh row is a held-out evaluation row excluded
// from the pool, so snapshots also carry covered held-out rows.
bool IsHeldOut(size_t row) { return row % 7 == 0; }

struct EnsembleEnv {
  ActivePool pool;
  NoisyOracle oracle;
  std::unique_ptr<Evaluator> evaluator;
  SvmLearner learner;
  MarginSelector selector;

  EnsembleEnv(const Problem& problem, bool holdout)
      : pool(problem.features),
        oracle(problem.truth, 0.05, 99),
        learner{LinearSvmConfig{}} {
    if (!holdout) {
      evaluator = std::make_unique<ProgressiveEvaluator>(problem.truth);
      return;
    }
    std::vector<size_t> rows;
    std::vector<int> truth;
    for (size_t row = 0; row < pool.size(); ++row) {
      if (!IsHeldOut(row)) continue;
      rows.push_back(row);
      truth.push_back(problem.truth[row]);
      pool.Exclude(row);
    }
    evaluator = std::make_unique<HoldoutEvaluator>(rows, truth);
  }

  std::unique_ptr<LabelingSession> Restore(const SessionSnapshot& snapshot,
                                           std::string* error) {
    return LabelingSession::Restore(learner, selector, oracle, *evaluator,
                                    pool, snapshot, error);
  }
};

ActiveLearningConfig EnsembleTestConfig() {
  ActiveLearningConfig config = TestConfig();
  config.max_labels = 150;
  config.ensemble_precision = 0.85;
  return config;
}

void EnsembleSaveRestoreAtEveryBoundary(int threads, bool holdout) {
  parallel::SetNumThreads(threads);
  const Problem problem = MakeTwoClusterProblem(600, 21);
  EnsembleEnv golden_env(problem, holdout);
  LabelingSession golden(golden_env.learner, golden_env.selector,
                         golden_env.oracle, *golden_env.evaluator,
                         golden_env.pool, EnsembleTestConfig());
  Drive(&golden);
  ASSERT_EQ(golden.state(), SessionState::kFinished);
  ASSERT_GE(golden.curve().back().ensemble_size, 2u);

  for (size_t boundary = 1; boundary < golden.curve().size(); ++boundary) {
    SCOPED_TRACE("boundary " + std::to_string(boundary) + ", threads " +
                 std::to_string(threads) + ", holdout " +
                 std::to_string(holdout));
    EnsembleEnv first_env(problem, holdout);
    LabelingSession first(first_env.learner, first_env.selector,
                          first_env.oracle, *first_env.evaluator,
                          first_env.pool, EnsembleTestConfig());
    Drive(&first, boundary);
    ASSERT_EQ(first.state(), SessionState::kNeedsStep);
    SessionSnapshot saved;
    std::string error;
    ASSERT_TRUE(first.SaveTo(&saved, &error)) << error;
    ASSERT_TRUE(saved.has("ENSM"));
    SessionSnapshot loaded;
    ASSERT_TRUE(SessionSnapshot::Parse(saved.Serialize(), &loaded, &error))
        << error;

    EnsembleEnv second_env(problem, holdout);
    std::unique_ptr<LabelingSession> resumed =
        second_env.Restore(loaded, &error);
    ASSERT_NE(resumed, nullptr) << error;
    ASSERT_TRUE(resumed->config().ensemble_precision.has_value());
    Drive(resumed.get());
    EXPECT_EQ(resumed->stop_reason(), golden.stop_reason());
    ExpectCurvesIdentical(golden.curve(), resumed->curve());
  }
  parallel::SetNumThreads(1);
}

TEST(EnsembleSnapshotTest, SaveRestoreBitwiseEveryBoundarySingleThread) {
  EnsembleSaveRestoreAtEveryBoundary(1, /*holdout=*/false);
  EnsembleSaveRestoreAtEveryBoundary(1, /*holdout=*/true);
}

TEST(EnsembleSnapshotTest, SaveRestoreBitwiseEveryBoundaryFourThreads) {
  EnsembleSaveRestoreAtEveryBoundary(4, /*holdout=*/false);
  EnsembleSaveRestoreAtEveryBoundary(4, /*holdout=*/true);
}

// The ENSM payload: f64 precision, u64 accepted, u64 count, then count
// entries of (u64 row, u8 state); state 1 = excluded by coverage, 2 =
// covered held-out row.
struct EnsembleSection {
  std::string head;  // precision + accepted
  std::vector<std::pair<uint64_t, uint8_t>> rows;

  static EnsembleSection Parse(const std::string& blob) {
    EnsembleSection section;
    section.head = blob.substr(0, 16);
    uint64_t count = 0;
    std::memcpy(&count, blob.data() + 16, sizeof(count));
    EXPECT_EQ(blob.size(), 24 + count * 9);
    for (uint64_t i = 0; i < count; ++i) {
      uint64_t row = 0;
      std::memcpy(&row, blob.data() + 24 + i * 9, sizeof(row));
      section.rows.emplace_back(row, static_cast<uint8_t>(blob[32 + i * 9]));
    }
    return section;
  }

  std::string Serialize() const {
    std::string blob = head;
    const uint64_t count = rows.size();
    blob.append(reinterpret_cast<const char*>(&count), sizeof(count));
    for (const auto& [row, state] : rows) {
      blob.append(reinterpret_cast<const char*>(&row), sizeof(row));
      blob.push_back(static_cast<char>(state));
    }
    return blob;
  }
};

// Every corrupt ENSM section must fail Restore with an error, never crash.
TEST(EnsembleSnapshotTest, CorruptEnsembleSectionFailsRestore) {
  const Problem problem = MakeTwoClusterProblem(600, 21);
  EnsembleEnv env(problem, /*holdout=*/true);
  LabelingSession session(env.learner, env.selector, env.oracle,
                          *env.evaluator, env.pool, EnsembleTestConfig());
  while (!session.finished() && (session.curve().empty() ||
                                 session.curve().back().ensemble_size == 0)) {
    Drive(&session, session.curve().size() + 1);
  }
  ASSERT_EQ(session.state(), SessionState::kNeedsStep);
  SessionSnapshot snapshot;
  std::string error;
  ASSERT_TRUE(session.SaveTo(&snapshot, &error)) << error;
  const std::string blob = snapshot.section("ENSM");
  const EnsembleSection section = EnsembleSection::Parse(blob);
  ASSERT_EQ(section.Serialize(), blob);
  size_t excluded_entry = section.rows.size();
  size_t held_out_entries = 0;
  for (size_t i = 0; i < section.rows.size(); ++i) {
    if (section.rows[i].second == 1) excluded_entry = i;
    held_out_entries += section.rows[i].second == 2 ? 1 : 0;
  }
  ASSERT_LT(excluded_entry, section.rows.size());
  EXPECT_GT(held_out_entries, 0u);  // Holdout coverage is recorded.
  {
    EnsembleEnv fresh(problem, /*holdout=*/true);
    ASSERT_NE(fresh.Restore(snapshot, &error), nullptr) << error;
  }

  EnsembleSection out_of_range = section;
  out_of_range.rows[excluded_entry].first = problem.truth.size();
  EnsembleSection duplicate = section;
  duplicate.rows.push_back(section.rows[excluded_entry]);
  // A held-out row (already excluded by the split) claimed as a row the
  // coverage scan excluded.
  EnsembleSection already_excluded = section;
  for (size_t row = 0;; row += 7) {
    ASSERT_TRUE(IsHeldOut(row));
    if (std::none_of(section.rows.begin(), section.rows.end(),
                     [&](const auto& entry) { return entry.first == row; })) {
      already_excluded.rows[excluded_entry].first = row;
      break;
    }
  }
  const std::vector<std::pair<std::string, std::string>> corrupt = {
      {"out of range", out_of_range.Serialize()},
      {"duplicate", duplicate.Serialize()},
      {"already excluded", already_excluded.Serialize()},
      {"truncated", blob.substr(0, blob.size() - 1)},
      {"truncated header", blob.substr(0, 12)},
      {"trailing bytes", blob + "x"},
  };
  for (const auto& [name, bytes] : corrupt) {
    SCOPED_TRACE(name);
    SessionSnapshot bad = snapshot;
    bad.set("ENSM", bytes);
    EnsembleEnv fresh(problem, /*holdout=*/true);
    error.clear();
    EXPECT_EQ(fresh.Restore(bad, &error), nullptr);
    EXPECT_NE(error.find("ensemble section"), std::string::npos) << error;
  }
}

}  // namespace
}  // namespace alem
