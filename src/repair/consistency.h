// Consistency checking for knowledge bases (Section 2 / Section 5).
//
// K = (F, Σ_T, Σ_C) is consistent iff no CDD body has a homomorphism into
// the chased base Cl(F). Two implementations are provided:
//
//  * CHECKCONSISTENCY — the naive variant: chase to saturation, then
//    evaluate each CDD body;
//  * CHECKCONSISTENCY-OPT — the paper's optimization: CDDs are checked
//    while the chase runs (⊥ as a produced constant) and the check stops
//    at the first violation.
//
// Both agree on the answer; OPT is strictly faster on inconsistent KBs.

#ifndef KBREPAIR_REPAIR_CONSISTENCY_H_
#define KBREPAIR_REPAIR_CONSISTENCY_H_

#include <vector>

#include "chase/chase.h"
#include "kb/fact_base.h"
#include "kb/symbol_table.h"
#include "rules/cdd.h"
#include "rules/knowledge_base.h"
#include "rules/tgd.h"
#include "util/status.h"

namespace kbrepair {

class ConsistencyChecker {
 public:
  // The pointed-to objects must outlive the checker. `symbols` is mutated
  // (fresh nulls minted by the chase).
  ConsistencyChecker(SymbolTable* symbols, const std::vector<Tgd>* tgds,
                     const std::vector<Cdd>* cdds,
                     ChaseOptions chase_options = {});

  // Naive CHECKCONSISTENCY: full chase, then evaluate each CDD.
  StatusOr<bool> IsConsistentNaive(const FactBase& facts) const;

  // CHECKCONSISTENCY-OPT: ⊥-detecting chase with early stop. The chase
  // owns its input (ChaseEngine::Run), so a throwaway base moved in is
  // never copied.
  StatusOr<bool> IsConsistentOpt(FactBase facts) const;

  const std::vector<Tgd>& tgds() const { return *tgds_; }
  const std::vector<Cdd>& cdds() const { return *cdds_; }
  SymbolTable& symbols() const { return *symbols_; }

 private:
  SymbolTable* symbols_;
  const std::vector<Tgd>* tgds_;
  const std::vector<Cdd>* cdds_;
  ChaseOptions chase_options_;
};

// Convenience entry point over a KnowledgeBase (uses the OPT variant).
StatusOr<bool> IsConsistent(KnowledgeBase& kb);

}  // namespace kbrepair

#endif  // KBREPAIR_REPAIR_CONSISTENCY_H_
