// Micro-benchmarks (google-benchmark) for the framework's primitives.
// These back the complexity claims of Sections 3-4:
//
//  * chase saturation throughput (weakly-acyclic TGDs);
//  * homomorphism enumeration (allconflicts);
//  * naive vs. ⊥-early-stop consistency checking;
//  * Π-repairability: Algorithm 1 vs. the Π-REPOPT fast path;
//  * UPDATECONFLICTS vs. full naive-conflict recomputation;
//  * sound-question generation delay as the KB grows — the observable
//    side of the polynomial-delay result (Corollary 4.11).

// `--quick [--out FILE]` bypasses google-benchmark and emits a reduced
// join + saturation ladder in the BENCH_*.json schema bench_diff
// understands (baseline: bench/baselines/BENCH_micro_primitives_quick
// .json). The schema's two engine columns are reused per ladder:
//   size_ladder  "join ..."        scratch = full naive-conflict rescan,
//                                  incremental = UPDATECONFLICTS probe;
//   depth_ladder "saturation ..."  scratch = ChaseEngine::Run,
//                                  incremental = IncrementalChase::
//                                  Initialize, on the same KB.
// Each row therefore gates one hot primitive of the cache-dense chase
// path (columnar candidate scan / arena-backed wave saturation) in both
// engines.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "chase/incremental_chase.h"
#include "gen/synthetic.h"
#include "kb/homomorphism.h"
#include "repair/conflict.h"
#include "repair/consistency.h"
#include "repair/question.h"
#include "repair/repairability.h"
#include "util/logging.h"

namespace kbrepair {
namespace {

SyntheticKb MakeKb(size_t num_facts, double ratio, size_t num_tgds = 0,
                   int depth = 1) {
  SyntheticKbOptions options;
  options.seed = 99;
  options.num_facts = num_facts;
  options.inconsistency_ratio = ratio;
  options.num_cdds = 20;
  options.cdd_min_atoms = 2;
  options.cdd_max_atoms = 4;
  options.min_arity = 2;
  options.max_arity = 6;
  options.num_tgds = num_tgds;
  options.conflict_depth = depth;
  options.routed_violation_share = num_tgds > 0 ? 0.5 : 0.0;
  options.min_multiplicity = 1;
  options.max_multiplicity = 2;
  StatusOr<SyntheticKb> generated = GenerateSyntheticKb(options);
  KBREPAIR_CHECK(generated.ok()) << generated.status();
  return std::move(generated).value();
}

void BM_ChaseSaturation(benchmark::State& state) {
  SyntheticKb generated =
      MakeKb(static_cast<size_t>(state.range(0)), 0.1, /*num_tgds=*/20,
             /*depth=*/2);
  KnowledgeBase& kb = generated.kb;
  size_t derived = 0;
  for (auto _ : state) {
    StatusOr<ChaseResult> chased =
        RunChase(kb.facts(), kb.tgds(), kb.symbols());
    KBREPAIR_CHECK(chased.ok());
    derived = chased->num_derived();
    benchmark::DoNotOptimize(derived);
  }
  state.counters["derived_atoms"] = static_cast<double>(derived);
}
BENCHMARK(BM_ChaseSaturation)->Arg(500)->Arg(1000)->Arg(2000);

// The raw backtracking join: enumerate every homomorphism of every CDD
// body, no conflict materialization — the candidate scan the columnar
// posting index feeds.
void BM_CddBodyJoin(benchmark::State& state) {
  SyntheticKb generated = MakeKb(static_cast<size_t>(state.range(0)), 0.3);
  KnowledgeBase& kb = generated.kb;
  HomomorphismFinder finder(&kb.symbols(), &kb.facts());
  size_t total = 0;
  for (auto _ : state) {
    total = 0;
    for (const Cdd& cdd : kb.cdds()) {
      total += finder.Count(cdd.body());
    }
    benchmark::DoNotOptimize(total);
  }
  state.counters["matches"] = static_cast<double>(total);
}
BENCHMARK(BM_CddBodyJoin)->Arg(500)->Arg(1000)->Arg(2000)->Arg(4000);

void BM_AllConflicts(benchmark::State& state) {
  SyntheticKb generated = MakeKb(static_cast<size_t>(state.range(0)), 0.3);
  KnowledgeBase& kb = generated.kb;
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  size_t conflicts = 0;
  for (auto _ : state) {
    StatusOr<std::vector<Conflict>> all = finder.AllConflicts(kb.facts());
    KBREPAIR_CHECK(all.ok());
    conflicts = all->size();
    benchmark::DoNotOptimize(conflicts);
  }
  state.counters["conflicts"] = static_cast<double>(conflicts);
}
BENCHMARK(BM_AllConflicts)->Arg(500)->Arg(1000)->Arg(2000)->Arg(4000);

void BM_ConsistencyNaive(benchmark::State& state) {
  SyntheticKb generated = MakeKb(static_cast<size_t>(state.range(0)), 0.2,
                                 /*num_tgds=*/10, /*depth=*/2);
  KnowledgeBase& kb = generated.kb;
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  for (auto _ : state) {
    StatusOr<bool> consistent = checker.IsConsistentNaive(kb.facts());
    KBREPAIR_CHECK(consistent.ok());
    benchmark::DoNotOptimize(consistent.value());
  }
}
BENCHMARK(BM_ConsistencyNaive)->Arg(1000)->Arg(2000);

void BM_ConsistencyOpt(benchmark::State& state) {
  SyntheticKb generated = MakeKb(static_cast<size_t>(state.range(0)), 0.2,
                                 /*num_tgds=*/10, /*depth=*/2);
  KnowledgeBase& kb = generated.kb;
  ConsistencyChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  for (auto _ : state) {
    StatusOr<bool> consistent = checker.IsConsistentOpt(kb.facts());
    KBREPAIR_CHECK(consistent.ok());
    benchmark::DoNotOptimize(consistent.value());
  }
}
BENCHMARK(BM_ConsistencyOpt)->Arg(1000)->Arg(2000);

void BM_PiRepairability(benchmark::State& state) {
  SyntheticKb generated = MakeKb(static_cast<size_t>(state.range(0)), 0.2);
  KnowledgeBase& kb = generated.kb;
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  for (auto _ : state) {
    StatusOr<bool> repairable = checker.IsPiRepairable(kb.facts(), {});
    KBREPAIR_CHECK(repairable.ok());
    benchmark::DoNotOptimize(repairable.value());
  }
}
BENCHMARK(BM_PiRepairability)->Arg(500)->Arg(1000)->Arg(2000);

void BM_PiRepOptScopeFastPath(benchmark::State& state) {
  SyntheticKb generated = MakeKb(1000, 0.2);
  KnowledgeBase& kb = generated.kb;
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  RepairabilityChecker::Scope scope(&checker, kb.facts(), {});
  const TermId fresh = kb.symbols().MakeFreshNull();
  const Fix fix{0, 0, fresh};
  for (auto _ : state) {
    StatusOr<bool> keeps = scope.FixKeepsRepairable(fix);
    KBREPAIR_CHECK(keeps.ok());
    benchmark::DoNotOptimize(keeps.value());
  }
  state.counters["fast_paths"] =
      static_cast<double>(scope.num_fast_paths());
}
BENCHMARK(BM_PiRepOptScopeFastPath);

void BM_PiRepOptScopeFullCheck(benchmark::State& state) {
  SyntheticKb generated = MakeKb(1000, 0.2);
  KnowledgeBase& kb = generated.kb;
  // Freeze one position so its value collides and forces full checks.
  const TermId frozen_value = kb.facts().atom(0).args[0];
  PositionSet pi = {Position{0, 0}};
  RepairabilityChecker checker(&kb.symbols(), &kb.tgds(), &kb.cdds());
  RepairabilityChecker::Scope scope(&checker, kb.facts(), pi);
  const Fix fix{1, 0, frozen_value};
  for (auto _ : state) {
    StatusOr<bool> keeps = scope.FixKeepsRepairable(fix);
    KBREPAIR_CHECK(keeps.ok());
    benchmark::DoNotOptimize(keeps.value());
  }
  state.counters["full_checks"] =
      static_cast<double>(scope.num_full_checks());
}
BENCHMARK(BM_PiRepOptScopeFullCheck);

void BM_UpdateConflictsIncremental(benchmark::State& state) {
  SyntheticKb generated = MakeKb(static_cast<size_t>(state.range(0)), 0.3);
  KnowledgeBase& kb = generated.kb;
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  ConflictTracker tracker(&finder);
  FactBase working = kb.facts();
  tracker.Initialize(working);
  const TermId fresh = kb.symbols().MakeFreshNull();
  const TermId original = working.atom(0).args[0];
  bool flip = false;
  for (auto _ : state) {
    working.SetArg(0, 0, flip ? original : fresh);
    flip = !flip;
    tracker.OnFixApplied(working, 0);
    benchmark::DoNotOptimize(tracker.size());
  }
}
BENCHMARK(BM_UpdateConflictsIncremental)->Arg(1000)->Arg(2000);

void BM_UpdateConflictsFullRecompute(benchmark::State& state) {
  SyntheticKb generated = MakeKb(static_cast<size_t>(state.range(0)), 0.3);
  KnowledgeBase& kb = generated.kb;
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  FactBase working = kb.facts();
  const TermId fresh = kb.symbols().MakeFreshNull();
  const TermId original = working.atom(0).args[0];
  bool flip = false;
  for (auto _ : state) {
    working.SetArg(0, 0, flip ? original : fresh);
    flip = !flip;
    const std::vector<Conflict> conflicts =
        finder.NaiveConflicts(working);
    benchmark::DoNotOptimize(conflicts.size());
  }
}
BENCHMARK(BM_UpdateConflictsFullRecompute)->Arg(1000)->Arg(2000);

// Polynomial-delay evidence: time one full sound-question generation
// (conflict positions x active-domain candidates, each Π-REPOPT
// filtered) while the KB size grows.
void BM_SoundQuestionGeneration(benchmark::State& state) {
  SyntheticKb generated = MakeKb(static_cast<size_t>(state.range(0)), 0.2);
  KnowledgeBase& kb = generated.kb;
  RepairabilityChecker repairability(&kb.symbols(), &kb.tgds(),
                                     &kb.cdds());
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  QuestionGenerator generator(&kb.symbols(), &repairability);
  const std::vector<Conflict> conflicts =
      finder.NaiveConflicts(kb.facts());
  KBREPAIR_CHECK(!conflicts.empty());
  size_t question_size = 0;
  for (auto _ : state) {
    StatusOr<Question> question = generator.SoundQuestion(
        kb.facts(), {}, conflicts.front(), kb.cdds(),
        PositionSelection::kAllPositions);
    KBREPAIR_CHECK(question.ok());
    question_size = question->fixes.size();
    benchmark::DoNotOptimize(question_size);
  }
  state.counters["question_size"] = static_cast<double>(question_size);
}
BENCHMARK(BM_SoundQuestionGeneration)
    ->Arg(250)
    ->Arg(500)
    ->Arg(1000)
    ->Arg(2000)
    ->Arg(4000);

// ---------------------------------------------------------------------
// --quick gate mode (bench_diff schema; see file comment).

struct QuickStats {
  double mean_ms = 0;
  double median_ms = 0;
  double max_ms = 0;
};

// Times `reps` calls of `fn` (after one untimed warmup call, so cold
// caches and lazy pool spin-up don't skew the gated mean) and
// summarizes per-call wall time.
template <typename Fn>
QuickStats MeasureMs(int reps, Fn&& fn) {
  fn();
  std::vector<double> samples;
  samples.reserve(reps);
  for (int i = 0; i < reps; ++i) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    const auto end = std::chrono::steady_clock::now();
    samples.push_back(
        std::chrono::duration<double, std::milli>(end - start).count());
  }
  std::sort(samples.begin(), samples.end());
  QuickStats out;
  for (double s : samples) out.mean_ms += s;
  out.mean_ms /= samples.size();
  out.median_ms = samples[samples.size() / 2];
  out.max_ms = samples.back();
  return out;
}

std::string StatsJson(const QuickStats& stats) {
  char buffer[160];
  std::snprintf(buffer, sizeof(buffer),
                "{\"mean_delay_ms\": %.3f, \"median_delay_ms\": %.3f, "
                "\"max_delay_ms\": %.3f}",
                stats.mean_ms, stats.median_ms, stats.max_ms);
  return buffer;
}

std::string RowJson(const std::string& config, const QuickStats& scratch,
                    const QuickStats& incremental) {
  return "    {\"config\": \"" + config + "\",\n     \"scratch\": " +
         StatsJson(scratch) + ",\n     \"incremental\": " +
         StatsJson(incremental) + "}";
}

// One join row: full naive rescan vs the incremental UPDATECONFLICTS
// probe, both dominated by the columnar candidate scan.
std::string JoinRow(size_t num_facts) {
  SyntheticKb generated = MakeKb(num_facts, 0.3);
  KnowledgeBase& kb = generated.kb;
  ConflictFinder finder(&kb.symbols(), &kb.tgds(), &kb.cdds());
  FactBase working = kb.facts();
  const TermId fresh = kb.symbols().MakeFreshNull();
  const TermId original = working.atom(0).args[0];
  bool flip = false;
  const QuickStats scratch = MeasureMs(12, [&] {
    working.SetArg(0, 0, flip ? original : fresh);
    flip = !flip;
    const std::vector<Conflict> conflicts = finder.NaiveConflicts(working);
    KBREPAIR_CHECK(!conflicts.empty());
  });
  ConflictTracker tracker(&finder);
  tracker.Initialize(working);
  const QuickStats incremental = MeasureMs(12, [&] {
    working.SetArg(0, 0, flip ? original : fresh);
    flip = !flip;
    tracker.OnFixApplied(working, 0);
  });
  return RowJson("join " + std::to_string(num_facts) + " facts", scratch,
                 incremental);
}

// One saturation row: a full wave saturation by the scratch engine
// (ChaseEngine::Run) and by the delta engine (IncrementalChase::
// Initialize) over a TGD-heavy workload. Workloads are sized so each run
// is a few milliseconds — on an oversubscribed runner a scheduler
// preemption then shifts the 16-sample mean by a few percent instead of
// doubling it.
std::string SaturationRow(size_t num_facts) {
  SyntheticKb generated =
      MakeKb(num_facts, 0.1, /*num_tgds=*/20, /*depth=*/2);
  KnowledgeBase& kb = generated.kb;
  ChaseOptions options;
  options.stop_on_violation = false;
  ChaseEngine engine(&kb.symbols(), &kb.tgds(), nullptr, options);
  const QuickStats scratch = MeasureMs(16, [&] {
    StatusOr<ChaseResult> chased = engine.Run(kb.facts());
    KBREPAIR_CHECK(chased.ok()) << chased.status();
    benchmark::DoNotOptimize(chased->num_derived());
  });
  IncrementalChase delta(&kb.symbols(), &kb.tgds(), options);
  const QuickStats incremental = MeasureMs(16, [&] {
    const Status status = delta.Initialize(kb.facts());
    KBREPAIR_CHECK(status.ok()) << status;
    benchmark::DoNotOptimize(delta.facts().size());
  });
  return RowJson("saturation " + std::to_string(num_facts) + " facts d2",
                 scratch, incremental);
}

int RunQuickGate(const std::string& out_path) {
  std::string json = "{\n  \"bench\": \"micro_primitives\",\n";
  json += "  \"size_ladder\": [\n";
  json += JoinRow(1000) + ",\n";
  json += JoinRow(2000) + "\n";
  json += "  ],\n  \"depth_ladder\": [\n";
  json += SaturationRow(2000) + ",\n";
  json += SaturationRow(4000) + "\n";
  json += "  ]\n}\n";
  if (out_path.empty()) {
    std::fputs(json.c_str(), stdout);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  out << json;
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

}  // namespace
}  // namespace kbrepair

int main(int argc, char** argv) {
  bool quick = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    }
  }
  if (quick) return kbrepair::RunQuickGate(out_path);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
