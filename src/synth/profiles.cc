#include "synth/profiles.h"

#include <type_traits>

#include "util/check.h"
#include "util/fnv.h"

namespace alem {

SynthProfile AbtBuyProfile() {
  SynthProfile profile;
  profile.name = "Abt-Buy";
  profile.heterogeneous_modes = true;
  profile.family_size = 8;
  profile.family_desc_share = 0.8;
  profile.domain = DomainKind::kProduct;
  profile.columns = {{"name", ColumnKind::kName},
                     {"description", ColumnKind::kDescription},
                     {"price", ColumnKind::kPrice}};
  profile.num_matched_entities = 420;
  profile.num_left_only = 60;
  profile.num_right_only = 60;
  profile.left_noise = 0.12;
  profile.right_noise = 0.34;
  profile.null_rate = 0.12;
  profile.sibling_rate = 0.9;
  profile.blocking_threshold = 0.1875;
  profile.vocab_seed = 1001;
  return profile;
}

SynthProfile AmazonGoogleProfile() {
  SynthProfile profile;
  profile.name = "Amazon-GoogleProducts";
  profile.heterogeneous_modes = true;
  profile.family_size = 10;
  profile.domain = DomainKind::kProduct;
  profile.columns = {{"name", ColumnKind::kName},
                     {"description", ColumnKind::kDescription},
                     {"manufacturer", ColumnKind::kBrand},
                     {"price", ColumnKind::kPrice}};
  profile.num_matched_entities = 450;
  profile.num_left_only = 80;
  profile.num_right_only = 80;
  // The hardest product dataset in the paper (best F1 ~0.7 for non-tree
  // learners): heavier noise and more hard negatives.
  profile.left_noise = 0.14;
  profile.right_noise = 0.38;
  profile.sibling_rate = 1.0;
  profile.null_rate = 0.08;
  profile.blocking_threshold = 0.12;
  profile.vocab_seed = 1002;
  return profile;
}

SynthProfile DblpAcmProfile() {
  SynthProfile profile;
  profile.name = "DBLP-ACM";
  profile.family_size = 5;
  profile.domain = DomainKind::kPublication;
  profile.columns = {{"title", ColumnKind::kTitle},
                     {"authors", ColumnKind::kAuthors},
                     {"venue", ColumnKind::kVenue},
                     {"year", ColumnKind::kYear}};
  // The cleanest dataset (F1 ~0.98 in the paper): light noise.
  profile.num_matched_entities = 500;
  profile.num_left_only = 40;
  profile.num_right_only = 40;
  profile.left_noise = 0.04;
  profile.right_noise = 0.12;
  profile.sibling_rate = 0.35;
  profile.null_rate = 0.02;
  profile.blocking_threshold = 0.1875;
  profile.vocab_seed = 1003;
  return profile;
}

SynthProfile DblpScholarProfile() {
  SynthProfile profile;
  profile.name = "DBLP-Scholar";
  profile.family_size = 9;
  profile.domain = DomainKind::kPublication;
  profile.columns = {{"title", ColumnKind::kTitle},
                     {"authors", ColumnKind::kAuthors},
                     {"venue", ColumnKind::kVenue},
                     {"year", ColumnKind::kYear}};
  // Scholar-side records are noisy (F1 ~0.93 in the paper).
  profile.num_matched_entities = 650;
  profile.num_left_only = 60;
  profile.num_right_only = 120;
  profile.left_noise = 0.05;
  profile.right_noise = 0.28;
  profile.sibling_rate = 0.8;
  profile.null_rate = 0.10;
  profile.blocking_threshold = 0.1875;
  profile.vocab_seed = 1004;
  return profile;
}

SynthProfile CoraProfile() {
  SynthProfile profile;
  profile.name = "Cora";
  profile.family_size = 8;
  profile.domain = DomainKind::kPublication;
  profile.columns = {{"author", ColumnKind::kAuthors},
                     {"title", ColumnKind::kTitle},
                     {"venue", ColumnKind::kVenue},
                     {"address", ColumnKind::kAddress},
                     {"publisher", ColumnKind::kPublisher},
                     {"editor", ColumnKind::kEditor},
                     {"date", ColumnKind::kDate},
                     {"vol", ColumnKind::kVolume},
                     {"pgs", ColumnKind::kPages}};
  // Citation clusters: most entities have several right-side variants, so
  // the post-blocking pair space is the largest of the five (as in the
  // paper, where Cora has 114K post-blocking pairs).
  profile.num_matched_entities = 260;
  profile.num_left_only = 30;
  profile.num_right_only = 40;
  profile.multi_match_rate = 0.85;
  profile.max_right_copies = 5;
  profile.left_noise = 0.10;
  profile.right_noise = 0.26;
  profile.sibling_rate = 0.5;
  profile.null_rate = 0.15;
  profile.blocking_threshold = 0.16;
  profile.vocab_seed = 1005;
  return profile;
}

SynthProfile WalmartAmazonProfile() {
  SynthProfile profile;
  profile.name = "Walmart-Amazon";
  profile.heterogeneous_modes = true;
  profile.family_size = 11;
  profile.domain = DomainKind::kProduct;
  profile.columns = {{"brand", ColumnKind::kBrand},
                     {"modelno", ColumnKind::kModel},
                     {"title", ColumnKind::kName},
                     {"price", ColumnKind::kPrice},
                     {"dimensions", ColumnKind::kDimensions},
                     {"shipweight", ColumnKind::kWeight},
                     {"orig_longdescr", ColumnKind::kDescription},
                     {"shortdescr", ColumnKind::kShortText},
                     {"longdescr", ColumnKind::kDescription},
                     {"groupname", ColumnKind::kCategory}};
  // A challenging dataset: convergence needs many labels (Fig. 15a).
  profile.num_matched_entities = 380;
  profile.num_left_only = 70;
  profile.num_right_only = 70;
  profile.left_noise = 0.14;
  profile.right_noise = 0.36;
  profile.sibling_rate = 1.0;
  profile.null_rate = 0.12;
  profile.blocking_threshold = 0.16;
  profile.vocab_seed = 1006;
  return profile;
}

SynthProfile AmazonBestBuyProfile() {
  SynthProfile profile;
  profile.name = "Amazon-BestBuy";
  profile.family_size = 7;
  profile.domain = DomainKind::kProduct;
  profile.columns = {{"brand", ColumnKind::kBrand},
                     {"title", ColumnKind::kName},
                     {"price", ColumnKind::kPrice},
                     {"features", ColumnKind::kDescription}};
  // The paper uses the 395-pair labeled sample as the post-blocking set.
  profile.num_matched_entities = 55;
  profile.num_left_only = 8;
  profile.num_right_only = 8;
  profile.left_noise = 0.08;
  profile.right_noise = 0.24;
  profile.sibling_rate = 1.0;
  profile.blocking_threshold = 0.14;
  profile.vocab_seed = 1007;
  return profile;
}

SynthProfile BeerProfile() {
  SynthProfile profile;
  profile.name = "BeerAdvocate-RateBeer";
  profile.family_size = 7;
  profile.family_desc_share = 0.4;
  profile.domain = DomainKind::kProduct;
  profile.columns = {{"beer_name", ColumnKind::kName},
                     {"brew_factory_name", ColumnKind::kBrand},
                     {"style", ColumnKind::kStyle},
                     {"abv", ColumnKind::kAbv}};
  profile.num_matched_entities = 62;
  profile.num_left_only = 10;
  profile.num_right_only = 10;
  profile.left_noise = 0.08;
  profile.right_noise = 0.26;
  profile.sibling_rate = 1.0;
  profile.blocking_threshold = 0.26;
  profile.vocab_seed = 1008;
  return profile;
}

SynthProfile BabyProductsProfile() {
  SynthProfile profile;
  profile.name = "BuyBuyBaby-BabiesRUs";
  profile.family_size = 4;
  profile.domain = DomainKind::kProduct;
  profile.columns = {{"title", ColumnKind::kName},
                     {"price", ColumnKind::kPrice},
                     {"is_discounted", ColumnKind::kBoolean},
                     {"category", ColumnKind::kCategory},
                     {"company_struct", ColumnKind::kBrand},
                     {"company_free", ColumnKind::kBrand},
                     {"brand", ColumnKind::kBrand},
                     {"weight", ColumnKind::kWeight},
                     {"length", ColumnKind::kDimensions},
                     {"width", ColumnKind::kDimensions},
                     {"height", ColumnKind::kDimensions},
                     {"fabrics", ColumnKind::kStyle},
                     {"colors", ColumnKind::kStyle},
                     {"materials", ColumnKind::kStyle}};
  // Highest class skew of the nine (0.27 in Table 1).
  profile.num_matched_entities = 70;
  profile.num_left_only = 6;
  profile.num_right_only = 6;
  profile.left_noise = 0.10;
  profile.right_noise = 0.30;
  profile.sibling_rate = 0.7;
  profile.null_rate = 0.10;
  profile.blocking_threshold = 0.24;
  profile.vocab_seed = 1009;
  return profile;
}

SynthProfile SocialMediaProfile() {
  SynthProfile profile;
  profile.name = "SocialMedia";
  profile.family_size = 5;
  profile.domain = DomainKind::kSocial;
  profile.columns = {{"name", ColumnKind::kPersonName},
                     {"location", ColumnKind::kCity},
                     {"email", ColumnKind::kEmail},
                     {"occupation", ColumnKind::kOccupation},
                     {"gender", ColumnKind::kGender},
                     {"url", ColumnKind::kUrl}};
  // Employee records (left) vs a much larger profile universe (right).
  profile.num_matched_entities = 500;
  profile.num_left_only = 100;
  profile.num_right_only = 1500;
  profile.left_noise = 0.06;
  profile.right_noise = 0.22;
  profile.sibling_rate = 0.4;
  profile.null_rate = 0.18;
  profile.blocking_threshold = 0.3;
  profile.vocab_seed = 1010;
  return profile;
}

std::vector<SynthProfile> AllPublicProfiles() {
  return {AbtBuyProfile(),        AmazonGoogleProfile(),
          DblpAcmProfile(),       DblpScholarProfile(),
          CoraProfile(),          WalmartAmazonProfile(),
          AmazonBestBuyProfile(), BeerProfile(),
          BabyProductsProfile()};
}

SynthProfile ProfileByName(const std::string& name) {
  for (SynthProfile& profile : AllPublicProfiles()) {
    if (profile.name == name) return profile;
  }
  if (name == "SocialMedia") return SocialMediaProfile();
  ALEM_CHECK(false);  // Unknown dataset name.
}

namespace {

uint64_t MixString(uint64_t hash, const std::string& s) {
  hash = Fnv1aMix(hash, s.data(), s.size());
  return Fnv1aMix(hash, "|", 1);
}

template <typename T>
uint64_t MixValue(uint64_t hash, const T& value) {
  static_assert(std::is_trivially_copyable_v<T>);
  return Fnv1aMix(hash, &value, sizeof(value));
}

}  // namespace

uint64_t ProfileFingerprint(const SynthProfile& profile) {
  // Every field that influences generated records contributes; doubles are
  // hashed by bit pattern (profile parameters are exact literals, never
  // computed values, so bit equality is the right identity).
  uint64_t hash = 1469598103934665603ULL;
  hash = MixString(hash, profile.name);
  hash = MixValue(hash, static_cast<int32_t>(profile.domain));
  hash = MixValue(hash, static_cast<uint64_t>(profile.columns.size()));
  for (const ColumnSpec& column : profile.columns) {
    hash = MixString(hash, column.name);
    hash = MixValue(hash, static_cast<int32_t>(column.kind));
  }
  hash = MixValue(hash, static_cast<int64_t>(profile.num_matched_entities));
  hash = MixValue(hash, static_cast<int64_t>(profile.num_left_only));
  hash = MixValue(hash, static_cast<int64_t>(profile.num_right_only));
  hash = MixValue(hash, profile.multi_match_rate);
  hash = MixValue(hash, static_cast<int64_t>(profile.max_right_copies));
  hash = MixValue(hash, profile.left_noise);
  hash = MixValue(hash, profile.right_noise);
  hash = MixValue(hash, profile.null_rate);
  hash = MixValue(hash, static_cast<int64_t>(profile.family_size));
  hash = MixValue(hash, profile.family_desc_share);
  hash = MixValue(hash, static_cast<int32_t>(profile.heterogeneous_modes));
  hash = MixValue(hash, profile.sibling_rate);
  hash = MixValue(hash, profile.blocking_threshold);
  hash = MixValue(hash, profile.vocab_seed);
  return hash;
}

}  // namespace alem
