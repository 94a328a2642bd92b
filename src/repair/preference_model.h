// Learning from user choices — the paper's second future-work direction
// ("learning from provided user choices in the questioning strategies",
// Section 7).
//
// The model observes every answered question and estimates the user's
// choice propensity along two cheap, smoothed dimensions:
//   * value kind — does this user resolve errors with fresh nulls
//     ("unknown") or with concrete active-domain constants?
//   * position habit — how often has a fix at this (predicate, argument)
//     been chosen when offered?
// Propensities use Laplace smoothing, so the model is usable from the
// first question on.
//
// The opti-learn strategy (Strategy::kOptiLearn) is opti-mcd plus this
// model: generated questions are re-ordered so the fixes the user is
// most likely to pick come first. Soundness is untouched — the fix set
// is the same, only its presentation order changes — but the user's
// scanning effort (the index of the chosen fix) drops over the session
// for any user with stable preferences, which is what the ext_learning
// benchmark measures.

#ifndef KBREPAIR_REPAIR_PREFERENCE_MODEL_H_
#define KBREPAIR_REPAIR_PREFERENCE_MODEL_H_

#include <cstdint>
#include <unordered_map>

#include "kb/fact_base.h"
#include "kb/symbol_table.h"
#include "repair/fix.h"
#include "repair/question.h"

namespace kbrepair {

class PreferenceModel {
 public:
  explicit PreferenceModel(const SymbolTable* symbols);

  // Records an answered question (chosen_index < question.fixes.size()).
  void Observe(const Question& question, size_t chosen_index,
               const FactBase& facts);

  // Estimated propensity of the user choosing `fix`, in (0, 1); the
  // product of the smoothed kind- and position-propensities.
  double Propensity(const Fix& fix, const FactBase& facts) const;

  // Stable-sorts the question's fixes by descending propensity.
  void OrderQuestion(Question& question, const FactBase& facts) const;

  size_t observations() const { return observations_; }

  // Smoothed probability that this user resolves with a fresh null.
  double NullPreference() const;

 private:
  struct PositionStats {
    size_t offered = 0;
    size_t chosen = 0;
  };

  static uint64_t Key(PredicateId pred, int arg) {
    return PositionKey(static_cast<uint32_t>(pred), arg);
  }

  const SymbolTable* symbols_;
  std::unordered_map<uint64_t, PositionStats> position_stats_;
  size_t null_chosen_ = 0;
  size_t constant_chosen_ = 0;
  size_t observations_ = 0;
};

}  // namespace kbrepair

#endif  // KBREPAIR_REPAIR_PREFERENCE_MODEL_H_
