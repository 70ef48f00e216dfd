// Evaluators: turn per-iteration model predictions into quality metrics.
//
// ProgressiveEvaluator implements the paper's progressive F1: the model is
// tested on the *entire* post-blocking pair space (labeled + unlabeled) every
// iteration. HoldoutEvaluator implements the conventional 80/20 split used
// for the active-vs-supervised comparisons (Figs. 16-17), where a fixed 20%
// test set never participates in example selection.

#ifndef ALEM_CORE_EVALUATOR_H_
#define ALEM_CORE_EVALUATOR_H_

#include <vector>

#include "ml/metrics.h"

namespace alem {

class Evaluator {
 public:
  virtual ~Evaluator() = default;

  // Pool rows the model must be applied to each iteration.
  virtual const std::vector<size_t>& eval_rows() const = 0;

  // Metrics for predictions aligned with eval_rows().
  virtual BinaryMetrics Evaluate(
      const std::vector<int>& predictions) const = 0;
};

class ProgressiveEvaluator final : public Evaluator {
 public:
  // `truth` holds the ground-truth label of every pool row.
  explicit ProgressiveEvaluator(std::vector<int> truth);

  const std::vector<size_t>& eval_rows() const override { return rows_; }
  BinaryMetrics Evaluate(const std::vector<int>& predictions) const override;

 private:
  std::vector<int> truth_;
  std::vector<size_t> rows_;
};

class HoldoutEvaluator final : public Evaluator {
 public:
  // `test_rows` are pool rows reserved for evaluation; `truth` is aligned
  // with `test_rows`.
  HoldoutEvaluator(std::vector<size_t> test_rows, std::vector<int> truth);

  const std::vector<size_t>& eval_rows() const override { return rows_; }
  BinaryMetrics Evaluate(const std::vector<int>& predictions) const override;

 private:
  std::vector<size_t> rows_;
  std::vector<int> truth_;
};

}  // namespace alem

#endif  // ALEM_CORE_EVALUATOR_H_
