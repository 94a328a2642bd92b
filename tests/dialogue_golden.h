// Golden dialogue record support shared by dialogue_golden_test and the
// tool that writes tests/data/dialogue_golden.txt
// (tests/dialogue_golden_record.cc).
//
// A case is one full inquiry dialogue on a small synthetic KB, answered
// by a seeded random chooser. Its transcript renders everything the
// engine decides: per question the phase, source CDD, considered
// positions, offered fixes, the choice and conflicts_remaining; at the
// end the repaired facts and the engine counters (propagated positions,
// demotions, Π-REPOPT fast paths and full checks). The record keeps one
// line per case:
//
//   <case key> <16-hex-digit FNV-1a of the transcript>
//
// The cases cross every strategy with both engine modes (two_phase),
// the three convergence recordings, both conflict engines, seeds 1-4
// and three KB shapes (no TGDs, chain TGDs, chain plus existential
// noise TGDs); then sessions forked from a shared snapshot, and
// sessions started on a non-empty initial Π.

#ifndef KBREPAIR_TESTS_DIALOGUE_GOLDEN_H_
#define KBREPAIR_TESTS_DIALOGUE_GOLDEN_H_

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gen/synthetic.h"
#include "repair/inquiry.h"
#include "repair/kb_snapshot.h"
#include "util/rng.h"

namespace kbrepair::dialogue_golden {

enum class Shape { kFlat, kChain, kNoise };
enum class Start { kCold, kForked, kInitialPi };

struct Case {
  Shape shape = Shape::kFlat;
  uint64_t seed = 1;
  Strategy strategy = Strategy::kRandom;
  bool two_phase = true;
  ConvergenceRecording recording = ConvergenceRecording::kOff;
  ConflictEngineKind engine = ConflictEngineKind::kScratch;
  Start start = Start::kCold;
};

inline const char* ShapeName(Shape shape) {
  switch (shape) {
    case Shape::kFlat:
      return "flat";
    case Shape::kChain:
      return "chain";
    case Shape::kNoise:
      return "noise";
  }
  return "?";
}

inline const char* RecordingName(ConvergenceRecording recording) {
  switch (recording) {
    case ConvergenceRecording::kOff:
      return "off";
    case ConvergenceRecording::kTotalConflicts:
      return "total";
    case ConvergenceRecording::kDiscoveredConflicts:
      return "discovered";
  }
  return "?";
}

inline const char* StartName(Start start) {
  switch (start) {
    case Start::kCold:
      return "cold";
    case Start::kForked:
      return "forked";
    case Start::kInitialPi:
      return "pi";
  }
  return "?";
}

// e.g. "chain/s1/opti-mcd/2ph/off/scratch/cold".
inline std::string Key(const Case& c) {
  std::string key = ShapeName(c.shape);
  key += "/s" + std::to_string(c.seed);
  key += "/";
  key += StrategyName(c.strategy);
  key += c.two_phase ? "/2ph/" : "/basic/";
  key += RecordingName(c.recording);
  key += "/";
  key += ConflictEngineName(c.engine);
  key += "/";
  key += StartName(c.start);
  return key;
}

inline SyntheticKbOptions KbOptions(Shape shape, uint64_t seed) {
  SyntheticKbOptions options;
  options.seed = seed;
  options.num_facts = 60;
  options.inconsistency_ratio = 0.25;
  options.num_cdds = 5;
  options.cdd_min_atoms = 2;
  options.cdd_max_atoms = 3;
  if (shape != Shape::kFlat) {
    options.num_tgds = 6;
    options.conflict_depth = 2;
    options.routed_violation_share = 0.5;
  }
  if (shape == Shape::kNoise) {
    options.num_noise_tgds = 4;
    options.noise_tgd_fire_share = 1.0;
  }
  return options;
}

inline std::vector<Case> AllCases() {
  const Strategy kStrategies[] = {Strategy::kRandom, Strategy::kOptiJoin,
                                  Strategy::kOptiProp, Strategy::kOptiMcd,
                                  Strategy::kOptiLearn};
  const ConflictEngineKind kEngines[] = {ConflictEngineKind::kScratch,
                                         ConflictEngineKind::kIncremental};
  const Shape kShapes[] = {Shape::kFlat, Shape::kChain, Shape::kNoise};
  std::vector<Case> cases;
  for (const Shape shape : kShapes) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      for (const Strategy strategy : kStrategies) {
        for (const bool two_phase : {true, false}) {
          for (const ConvergenceRecording recording :
               {ConvergenceRecording::kOff,
                ConvergenceRecording::kTotalConflicts,
                ConvergenceRecording::kDiscoveredConflicts}) {
            for (const ConflictEngineKind engine : kEngines) {
              cases.push_back({shape, seed, strategy, two_phase, recording,
                               engine, Start::kCold});
            }
          }
        }
      }
    }
  }
  // Forked sessions and a non-empty initial Π, on the default recording.
  for (const Start start : {Start::kForked, Start::kInitialPi}) {
    for (const Shape shape : kShapes) {
      for (uint64_t seed = 1; seed <= 2; ++seed) {
        for (const Strategy strategy : kStrategies) {
          for (const bool two_phase : {true, false}) {
            for (const ConflictEngineKind engine : kEngines) {
              cases.push_back({shape, seed, strategy, two_phase,
                               ConvergenceRecording::kOff, engine, start});
            }
          }
        }
      }
    }
  }
  return cases;
}

// FNV-1a, rendered as 16 hex digits.
inline std::string Digest(const std::string& text) {
  uint64_t h = 14695981039346656037ull;
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

// The initial Π of Start::kInitialPi: the first argument of atoms 0 and
// 1, which sit in violation clusters (the generator emits those first).
inline PositionSet InitialPi() {
  PositionSet pi;
  pi.insert(Position{0, 0});
  pi.insert(Position{1, 0});
  return pi;
}

inline std::string Transcript(const Case& c) {
  StatusOr<SyntheticKb> generated =
      GenerateSyntheticKb(KbOptions(c.shape, c.seed));
  if (!generated.ok()) return "generate: " + generated.status().ToString();

  InquiryOptions options;
  options.strategy = c.strategy;
  options.two_phase = c.two_phase;
  options.seed = c.seed * 17 + 3;
  options.record_convergence = c.recording;
  options.conflict_engine = c.engine;

  std::shared_ptr<const SharedKbSnapshot> snapshot;
  KnowledgeBase kb;
  if (c.start == Start::kForked) {
    StatusOr<std::shared_ptr<const SharedKbSnapshot>> built =
        BuildSharedKbSnapshot(std::move(generated->kb), "golden",
                              options.chase_options);
    if (!built.ok()) return "snapshot: " + built.status().ToString();
    snapshot = std::move(built).value();
    kb = snapshot->Fork();
  } else {
    kb = std::move(generated->kb);
  }

  InquiryEngine engine(&kb, options);
  const Status begun =
      c.start == Start::kForked ? engine.BeginShared(snapshot->Seed())
      : c.start == Start::kInitialPi ? engine.Begin(InitialPi())
                                     : engine.Begin();
  std::ostringstream out;
  if (!begun.ok()) {
    out << "begin: " << begun << "\n";
    return out.str();
  }
  out << "initial " << engine.progress().initial_conflicts << " "
      << engine.progress().initial_naive_conflicts << "\n";

  const SymbolTable& symbols = kb.symbols();
  Rng chooser(c.seed * 101 + 13);
  while (true) {
    StatusOr<const Question*> next = engine.NextQuestion();
    if (!next.ok()) {
      out << "next: " << next.status() << "\n";
      return out.str();
    }
    const Question* question = *next;
    if (question == nullptr) break;
    out << "q phase" << engine.current_phase() << " cdd"
        << question->source_cdd << " at";
    for (const Position& p : question->considered_positions) {
      out << " " << p.atom << "/" << p.arg;
    }
    out << " fixes";
    for (const Fix& fix : question->fixes) {
      out << " " << fix.atom << "/" << fix.arg << "="
          << symbols.term_name(fix.value);
    }
    const size_t choice = chooser.UniformIndex(question->fixes.size());
    out << " choose " << choice;
    const Status answered = engine.Answer(choice);
    if (!answered.ok()) {
      out << "\nanswer: " << answered << "\n";
      return out.str();
    }
    out << " remaining "
        << engine.progress().records.back().conflicts_remaining << "\n";
  }

  StatusOr<InquiryResult> result = engine.Finish();
  if (!result.ok()) {
    out << "finish: " << result.status() << "\n";
    return out.str();
  }
  for (AtomId id = 0; id < result->facts.size(); ++id) {
    out << result->facts.atom(id).ToString(symbols) << "\n";
  }
  out << "propagated " << result->propagated_positions << " fallbacks "
      << result->engine_fallbacks << " fast_paths "
      << result->repairability_fast_paths << " full_checks "
      << result->repairability_full_checks << "\n";
  return out.str();
}

// Reads "<key> <digest>" lines, skipping blank and '#' lines. False on
// an unreadable file or a malformed line.
inline bool ReadRecord(const std::string& path,
                       std::map<std::string, std::string>* record) {
  std::ifstream in(path);
  if (!in) return false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    const size_t space = line.find(' ');
    if (space == std::string::npos) return false;
    (*record)[line.substr(0, space)] = line.substr(space + 1);
  }
  return true;
}

}  // namespace kbrepair::dialogue_golden

#endif  // KBREPAIR_TESTS_DIALOGUE_GOLDEN_H_
