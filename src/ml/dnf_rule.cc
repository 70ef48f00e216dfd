#include "ml/dnf_rule.h"

#include <algorithm>

#include "util/check.h"

namespace alem {

bool Conjunction::Matches(const float* boolean_row) const {
  for (const size_t atom : atoms) {
    if (boolean_row[atom] < 0.5f) return false;
  }
  return true;
}

bool Dnf::Matches(const float* boolean_row) const {
  for (const Conjunction& conjunction : conjunctions) {
    if (conjunction.Matches(boolean_row)) return true;
  }
  return false;
}

bool Dnf::FitsWidth(size_t width) const {
  for (const Conjunction& conjunction : conjunctions) {
    for (const size_t atom : conjunction.atoms) {
      if (atom >= width) return false;
    }
  }
  return true;
}

size_t Dnf::NumAtoms() const {
  size_t atoms = 0;
  for (const Conjunction& conjunction : conjunctions) {
    atoms += conjunction.atoms.size();
  }
  return atoms;
}

std::vector<Conjunction> Dnf::RuleMinusVariants() const {
  std::vector<Conjunction> variants;
  for (const Conjunction& conjunction : conjunctions) {
    if (conjunction.atoms.size() < 2) continue;
    for (size_t drop = 0; drop < conjunction.atoms.size(); ++drop) {
      Conjunction relaxed;
      relaxed.atoms.reserve(conjunction.atoms.size() - 1);
      for (size_t i = 0; i < conjunction.atoms.size(); ++i) {
        if (i != drop) relaxed.atoms.push_back(conjunction.atoms[i]);
      }
      variants.push_back(std::move(relaxed));
    }
  }
  return variants;
}

size_t Dnf::Simplify() {
  // Work on sorted atom sets; subset testing is a sorted merge.
  std::vector<Conjunction> sorted(conjunctions);
  for (Conjunction& conjunction : sorted) {
    std::sort(conjunction.atoms.begin(), conjunction.atoms.end());
  }
  auto is_subset = [](const std::vector<size_t>& small,
                      const std::vector<size_t>& large) {
    return std::includes(large.begin(), large.end(), small.begin(),
                         small.end());
  };
  std::vector<char> keep(sorted.size(), 1);
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (keep[i] == 0) continue;
    for (size_t j = 0; j < sorted.size(); ++j) {
      if (i == j || keep[j] == 0) continue;
      // Drop j when i's atoms are a subset of j's (i matches everything j
      // matches). Ties (equal sets) keep the earlier conjunction.
      if (is_subset(sorted[i].atoms, sorted[j].atoms) &&
          (sorted[i].atoms.size() < sorted[j].atoms.size() || i < j)) {
        keep[j] = 0;
      }
    }
  }
  std::vector<Conjunction> kept;
  for (size_t i = 0; i < sorted.size(); ++i) {
    if (keep[i] != 0) kept.push_back(conjunctions[i]);
  }
  const size_t removed = conjunctions.size() - kept.size();
  conjunctions = std::move(kept);
  return removed;
}

std::string Dnf::ToString(const BooleanFeaturizer& featurizer) const {
  if (conjunctions.empty()) return "<empty DNF>";
  std::string out;
  for (size_t c = 0; c < conjunctions.size(); ++c) {
    if (c > 0) out += "\n  OR ";
    out += "(";
    for (size_t a = 0; a < conjunctions[c].atoms.size(); ++a) {
      if (a > 0) out += " AND ";
      out += featurizer.atom(conjunctions[c].atoms[a]).description;
    }
    out += ")";
  }
  return out;
}

void DnfRuleLearner::Fit(const FeatureMatrix& boolean_features,
                         const std::vector<int>& labels) {
  ALEM_CHECK_EQ(boolean_features.rows(), labels.size());
  dnf_.conjunctions.clear();
  trained_ = true;
  const size_t n = boolean_features.rows();
  const size_t num_atoms = boolean_features.dims();
  if (n == 0 || num_atoms == 0) return;

  // `active[i]`: example i has not been covered by an accepted conjunction.
  std::vector<char> active(n, 1);
  size_t active_positives = 0;
  for (size_t i = 0; i < n; ++i) active_positives += labels[i] == 1 ? 1 : 0;

  while (active_positives > 0 &&
         dnf_.conjunctions.size() < config_.max_conjunctions) {
    // Greedy learn-one-rule: track the example set matched by the current
    // partial conjunction (within the active examples only).
    std::vector<char> matched = active;
    size_t matched_count = 0;
    size_t matched_positives = 0;
    for (size_t i = 0; i < n; ++i) {
      if (matched[i] != 0) {
        ++matched_count;
        matched_positives += labels[i] == 1 ? 1 : 0;
      }
    }

    Conjunction conjunction;
    while (conjunction.atoms.size() < config_.max_atoms_per_conjunction) {
      const double current_precision =
          matched_count == 0 ? 0.0
                             : static_cast<double>(matched_positives) /
                                   static_cast<double>(matched_count);
      if (matched_positives > 0 && matched_count == matched_positives) {
        break;  // Perfect precision; no further atoms needed.
      }

      // Pick the atom whose addition maximizes precision, breaking ties by
      // the number of positives retained. Only *strict* improvements over
      // the current precision qualify — otherwise an atom that leaves the
      // matched set unchanged (e.g., one already in the conjunction) would
      // be re-added forever.
      double best_precision = 0.0;
      size_t best_positives = 0;
      int best_atom = -1;
      for (size_t atom = 0; atom < num_atoms; ++atom) {
        size_t next_count = 0;
        size_t next_positives = 0;
        for (size_t i = 0; i < n; ++i) {
          if (matched[i] == 0) continue;
          if (boolean_features.At(i, atom) >= 0.5f) {
            ++next_count;
            next_positives += labels[i] == 1 ? 1 : 0;
          }
        }
        if (next_positives == 0) continue;  // Must keep covering positives.
        const double precision = static_cast<double>(next_positives) /
                                 static_cast<double>(next_count);
        if (precision <= current_precision + 1e-12) continue;
        if (best_atom < 0 || precision > best_precision + 1e-12 ||
            (precision > best_precision - 1e-12 &&
             next_positives > best_positives)) {
          best_precision = precision;
          best_positives = next_positives;
          best_atom = static_cast<int>(atom);
        }
      }
      if (best_atom < 0) break;  // No atom improves precision.

      conjunction.atoms.push_back(static_cast<size_t>(best_atom));
      matched_count = 0;
      matched_positives = 0;
      for (size_t i = 0; i < n; ++i) {
        if (matched[i] != 0 &&
            boolean_features.At(i, static_cast<size_t>(best_atom)) < 0.5f) {
          matched[i] = 0;
        }
        if (matched[i] != 0) {
          ++matched_count;
          matched_positives += labels[i] == 1 ? 1 : 0;
        }
      }
    }

    if (conjunction.atoms.empty()) break;
    const double precision =
        matched_count == 0 ? 0.0
                           : static_cast<double>(matched_positives) /
                                 static_cast<double>(matched_count);
    if (precision < config_.min_precision || matched_positives == 0) {
      break;  // Cannot learn another acceptable high-precision rule.
    }

    // Accept: remove everything the conjunction covers from the active set.
    dnf_.conjunctions.push_back(conjunction);
    for (size_t i = 0; i < n; ++i) {
      if (active[i] != 0 &&
          conjunction.Matches(boolean_features.Row(i))) {
        active[i] = 0;
        if (labels[i] == 1) --active_positives;
      }
    }
  }
  // Drop redundant (subsumed/duplicate) conjunctions; semantics unchanged,
  // interpretability (atom count) improved.
  dnf_.Simplify();
}

int DnfRuleLearner::Predict(const float* boolean_row) const {
  ALEM_CHECK(trained_);
  return dnf_.Matches(boolean_row) ? 1 : 0;
}

std::vector<int> DnfRuleLearner::PredictAll(
    const FeatureMatrix& boolean_features) const {
  std::vector<int> predictions(boolean_features.rows());
  for (size_t i = 0; i < boolean_features.rows(); ++i) {
    predictions[i] = Predict(boolean_features.Row(i));
  }
  return predictions;
}

}  // namespace alem
