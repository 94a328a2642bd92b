#include "repair/repair_checks.h"

#include <unordered_map>
#include <utility>

#include "repair/conflict.h"
#include "util/logging.h"

namespace kbrepair {

StatusOr<bool> IsCFix(const FactBase& facts, const std::vector<Fix>& fixes,
                      const ConsistencyChecker& checker) {
  if (!IsValidFixSet(fixes)) {
    return Status::InvalidArgument("fix set is not valid");
  }
  FactBase updated = facts;
  KBREPAIR_RETURN_IF_ERROR(ApplyFixes(updated, fixes));
  return checker.IsConsistentOpt(std::move(updated));
}

StatusOr<bool> IsRFixSingleRemoval(const FactBase& facts,
                                   const std::vector<Fix>& fixes,
                                   const ConsistencyChecker& checker) {
  KBREPAIR_ASSIGN_OR_RETURN(const bool is_cfix,
                            IsCFix(facts, fixes, checker));
  if (!is_cfix) return false;
  for (size_t i = 0; i < fixes.size(); ++i) {
    std::vector<Fix> without = fixes;
    without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
    KBREPAIR_ASSIGN_OR_RETURN(const bool still_cfix,
                              IsCFix(facts, without, checker));
    if (still_cfix) return false;
  }
  return true;
}

StatusOr<bool> IsRFixExhaustive(const FactBase& facts,
                                const std::vector<Fix>& fixes,
                                const ConsistencyChecker& checker) {
  KBREPAIR_CHECK_LE(fixes.size(), 20u)
      << " exhaustive r-fix check is exponential";
  KBREPAIR_ASSIGN_OR_RETURN(const bool is_cfix,
                            IsCFix(facts, fixes, checker));
  if (!is_cfix) return false;
  const size_t n = fixes.size();
  // Every proper subset (by bitmask) must fail to be a c-fix.
  for (uint64_t mask = 0; mask + 1 < (uint64_t{1} << n); ++mask) {
    std::vector<Fix> subset;
    for (size_t i = 0; i < n; ++i) {
      if (mask & (uint64_t{1} << i)) subset.push_back(fixes[i]);
    }
    KBREPAIR_ASSIGN_OR_RETURN(const bool subset_cfix,
                              IsCFix(facts, subset, checker));
    if (subset_cfix) return false;
  }
  return true;
}

StatusOr<std::vector<Fix>> GreedyRFix(KnowledgeBase& kb) {
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());

  FactBase working = kb.facts();
  std::vector<Fix> fixes;
  // Null a resolving position of the atom supporting the most conflicts
  // (the conflict-hypergraph hub) until consistent. Naive conflicts
  // first (cheap); fall back to chase conflicts.
  while (true) {
    std::vector<Conflict> conflicts = finder.NaiveConflicts(working);
    if (conflicts.empty()) {
      KBREPAIR_ASSIGN_OR_RETURN(conflicts, finder.AllConflicts(working));
      if (conflicts.empty()) break;
    }
    std::unordered_map<AtomId, size_t> degree;
    for (const Conflict& conflict : conflicts) {
      for (AtomId id : conflict.support) ++degree[id];
    }
    AtomId hub = conflicts.front().support.front();
    size_t best = 0;
    for (const auto& [id, d] : degree) {
      if (d > best || (d == best && id < hub)) {
        best = d;
        hub = id;
      }
    }

    // Find a resolving position of the hub: the argument a CDD body
    // matched through a join variable or constant in some conflict.
    Fix fix{hub, 0, kb.symbols().MakeFreshNull()};
    bool found = false;
    for (const Conflict& conflict : conflicts) {
      const Cdd& cdd = kb.cdds()[conflict.cdd_index];
      for (size_t j = 0; j < conflict.matched.size() && !found; ++j) {
        if (conflict.matched[j] != hub) continue;
        if (conflict.matched[j] >= working.size()) continue;  // derived
        if (cdd.resolving_positions(j).empty()) continue;
        fix.arg = cdd.resolving_positions(j)[0];
        found = true;
      }
      if (found) break;
    }
    ApplyFix(working, fix);
    fixes.push_back(fix);
  }

  // Minimize: drop any fix whose removal keeps the update consistent.
  for (size_t i = 0; i < fixes.size();) {
    std::vector<Fix> without = fixes;
    without.erase(without.begin() + static_cast<std::ptrdiff_t>(i));
    KBREPAIR_ASSIGN_OR_RETURN(const bool still_cfix,
                              IsCFix(kb.facts(), without, checker));
    if (still_cfix) {
      fixes = std::move(without);
    } else {
      ++i;
    }
  }
  return fixes;
}

StatusOr<FactBase> MakeURepair(const KnowledgeBase& kb,
                               const std::vector<Fix>& fixes) {
  FactBase repaired = kb.facts();
  KBREPAIR_RETURN_IF_ERROR(ApplyFixes(repaired, fixes));
  return repaired;
}

}  // namespace kbrepair
