// Synthetic EM dataset generator.
//
// GenerateDataset materializes a SynthProfile into a concrete EmDataset:
// a universe of canonical entities is generated from seeded vocabulary
// pools; each matched entity is rendered once into the left table (light
// noise) and one-or-more times into the right table (heavier noise:
// typos, token drops, abbreviations, truncation, value jitter, missing
// fields); hard-negative "sibling" entities share brand/category or title
// stems with a matched entity but differ in model/year, so they survive
// blocking and force classifiers to use fine-grained features.
//
// This module is the documented substitution for the paper's public EM
// datasets (see DESIGN.md): active-learning dynamics depend on the induced
// feature distribution, which the generator reproduces, not on the literal
// strings.

#ifndef ALEM_SYNTH_GENERATOR_H_
#define ALEM_SYNTH_GENERATOR_H_

#include <cstdint>

#include "data/dataset.h"
#include "synth/profiles.h"

namespace alem {

// Version of GenerateDataset's output. Feature-cache entries hold the
// post-blocking pairs and their ground truth and are keyed on this
// constant, so any change to the records generated for a (profile, seed,
// scale), to their order, to the Rng stream they draw from or to the
// matches EmDataset::LabelsFor reports must bump it (the same rule as
// kSimRegistryVersion and kBlockingVersion); the bump turns every cached
// entry into a miss.
inline constexpr uint32_t kSynthVersion = 1;

// Generates a dataset. `scale` multiplies all entity counts (1.0 keeps the
// profile's laptop-scale defaults). Deterministic in (profile, seed, scale).
EmDataset GenerateDataset(const SynthProfile& profile, uint64_t seed,
                          double scale = 1.0);

}  // namespace alem

#endif  // ALEM_SYNTH_GENERATOR_H_
