// The in-process workloads: fig5-scratch and deep-chase-incremental.
//
// Each dialogue draws its KB seed and its user seed from the workload
// seed. Set-up generates the synthetic KB, prints it as DLGP and parses
// it back (so the parser is on the set-up path), constructs the engine
// and calls Begin(). The dialogue then runs single-threaded to
// consistency with a seeded RandomUser; the benchmark's own clock times
// every NextQuestion() and Answer() call.
//
// The run first replays one dialogue under both conflict engines (the
// engine-agreement check, which also warms the process up). The untraced
// run then measures dialogues until --seconds have passed, at least
// kMinQuestions questions were asked and the workload's min_dialogues
// dialogues ran, and times the set-up of further KBs up to kMinSetups.
// A turn here is one NextQuestion() call: the call that hands the user
// a question. Answer() is timed too and lands in the question delay.
//
// The traced run measures the same way for half the time, then replays
// exactly those dialogues with the span recorder on: it drains the spans
// after every timed call and attributes their self time to layers, and
// at sampled steps it times side calls into the layers (a by-value copy
// of the working base, a chase, a conflict census and a Π-repairability
// check) on a cloned symbol table, so they never mint nulls into the
// live one. The two passes must produce identical dialogues.

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "gen/synthetic.h"
#include "parser/dlgp_parser.h"
#include "repair/conflict.h"
#include "repair/consistency.h"
#include "repair/fix.h"
#include "repair/inquiry.h"
#include "repair/repairability.h"
#include "repair/user.h"
#include "report.h"
#include "spans.h"
#include "stats.h"
#include "util/trace.h"

namespace kbbench {
namespace {

using kbrepair::ConflictEngineKind;
using kbrepair::Fix;
using kbrepair::InquiryEngine;
using kbrepair::InquiryOptions;
using kbrepair::KnowledgeBase;
using kbrepair::SyntheticKbOptions;
using Clock = std::chrono::steady_clock;

// Enough questions per run that a p99 has at least ten samples beyond it.
constexpr size_t kMinQuestions = 1500;
// Set-ups per run (KBs generated, parsed and begun, up to the first
// question), so setup_s and first_question_p50_ms are medians over many
// KBs even when few dialogues fit in the run.
constexpr size_t kMinSetups = 16;
// Traced run: side calls every this many questions of a dialogue.
constexpr size_t kSampleEvery = 16;
// Seed stream of the engine-agreement check (measured dialogues use
// streams 0, 1, 2, ...; this one is far out of their reach).
constexpr uint64_t kCheckStream = uint64_t{1} << 40;

struct Workload {
  SyntheticKbOptions gen;
  InquiryOptions inquiry;
  ConflictEngineKind replay_engine;
  // Every run measures at least this many dialogues; questions_per_dialogue
  // is their mean, so it is a function of the seed alone.
  size_t min_dialogues = 0;
  // The engine-agreement check runs both engines over one dialogue on a
  // smaller KB of the same shape (the scratch engine re-chases before
  // every question, which on the full deep-chase KB would cost more
  // than the measured run).
  size_t check_facts = 0;
  size_t check_noise_tgds = 0;
};

// The frozen workload definitions (see kbbench/README.md for why).
std::optional<Workload> FindWorkload(const std::string& name) {
  Workload w;
  w.inquiry.strategy = kbrepair::Strategy::kOptiMcd;
  w.inquiry.two_phase = true;
  if (name == "fig5-scratch") {
    // Figure 5(b) generator settings, no TGDs.
    w.gen.num_facts = 3000;
    w.gen.inconsistency_ratio = 0.3;
    w.gen.num_cdds = 40;
    w.gen.cdd_min_atoms = 2;
    w.gen.cdd_max_atoms = 4;
    w.gen.min_arity = 2;
    w.gen.max_arity = 6;
    w.gen.min_multiplicity = 1;
    w.gen.max_multiplicity = 2;
    w.inquiry.conflict_engine = ConflictEngineKind::kScratch;
    w.replay_engine = ConflictEngineKind::kIncremental;
    w.min_dialogues = 6;
    w.check_facts = 1000;
    return w;
  }
  if (name == "deep-chase-incremental") {
    // Chains of depth 4 feed most conflicts through the chase; the
    // existential noise rules make the derived base larger than F.
    w.gen.num_facts = 2000;
    w.gen.inconsistency_ratio = 0.15;
    w.gen.num_cdds = 60;
    w.gen.cdd_min_atoms = 2;
    w.gen.cdd_max_atoms = 3;
    w.gen.min_arity = 2;
    w.gen.max_arity = 4;
    w.gen.min_multiplicity = 1;
    w.gen.max_multiplicity = 2;
    w.gen.num_tgds = 200;
    w.gen.conflict_depth = 4;
    w.gen.routed_violation_share = 0.8;
    w.gen.num_noise_tgds = 1800;
    w.gen.noise_tgd_fire_share = 1.0;
    w.inquiry.conflict_engine = ConflictEngineKind::kIncremental;
    w.replay_engine = ConflictEngineKind::kScratch;
    w.min_dialogues = 16;
    w.check_facts = 600;
    w.check_noise_tgds = 400;
    return w;
  }
  return std::nullopt;
}

// Raw samples and totals of one pass over a list of dialogues.
struct Pass {
  Samples setup_s;
  Samples parse_ms;
  Samples begin_ms;
  Samples delay_ms;  // first NextQuestion, then each Answer+NextQuestion
  Samples ask_ms;     // NextQuestion calls: the in-process turn
  Samples answer_ms;  // Answer calls
  Samples first_question_ms;  // Begin + first NextQuestion
  Samples questions_per_dialogue;  // the first min_dialogues dialogues
  double timed_call_ms = 0.0;  // sum over every timed call
  // VmHWM once the first min_dialogues dialogues ran: over the same KBs
  // on every run of a seed, however many more dialogues fit in the time.
  double peak_rss_mb = 0.0;
  size_t questions = 0;
  size_t dialogues = 0;
  // InquiryResult instrumentation, summed.
  size_t fast_paths = 0;
  size_t full_checks = 0;
  size_t candidates = 0;
  size_t filtered = 0;
  size_t fallbacks = 0;
  // Traced pass only.
  SelfTotals self;
  double attributed_ms = 0.0;  // span self time inside timed calls
  Samples copy_ms;
  Samples working_atoms;
  Samples chase_run_ms;
  Samples derived_atoms;
  Samples all_conflicts_ms;
  Samples is_pi_repairable_ms;
  std::vector<std::vector<Fix>> fixes;  // per dialogue, applied order
};

std::vector<Span> DrainSpans() {
  std::vector<Span> spans;
  for (kbrepair::trace::SpanRecord& record :
       kbrepair::trace::Recorder::Instance().Drain()) {
    spans.push_back({record.id, record.parent, record.name, record.start_us,
                     record.duration_us, std::move(record.detail)});
  }
  return spans;
}

class InProcessRun {
 public:
  InProcessRun(const Workload& workload, const RunOptions& options,
               RunOutcome* outcome)
      : workload_(workload), options_(options), outcome_(outcome) {}

  // Generates, prints and parses dialogue d's KB.
  std::optional<KnowledgeBase> MakeKb(size_t d, Pass* pass) {
    SyntheticKbOptions gen = workload_.gen;
    gen.seed = MixSeed(options_.seed, 2 * d);
    kbrepair::StatusOr<kbrepair::SyntheticKb> generated =
        kbrepair::GenerateSyntheticKb(gen);
    outcome_->CountAttempt();
    if (!generated.ok()) {
      Failure("generate KB " + std::to_string(d) + ": " +
              generated.status().ToString());
      return std::nullopt;
    }
    const std::string text = kbrepair::PrintDlgp(generated->kb);
    const Clock::time_point parse_start = Clock::now();
    kbrepair::StatusOr<KnowledgeBase> parsed = kbrepair::ParseDlgp(text);
    pass->parse_ms.Add(MsBetween(parse_start, Clock::now()));
    if (!parsed.ok() || !parsed->Validate().ok()) {
      Failure("parse KB " + std::to_string(d) + " back from DLGP");
      return std::nullopt;
    }
    return std::move(*parsed);
  }

  uint64_t UserSeed(size_t d) const { return MixSeed(options_.seed, 2 * d + 1); }

  // Runs dialogue d, timed, into `pass`; with `setup_only`, up to its
  // first question. False when it failed.
  bool RunDialogue(size_t d, bool traced, bool setup_only, Pass* pass) {
    const Clock::time_point setup_start = Clock::now();
    std::optional<KnowledgeBase> kb = MakeKb(d, pass);
    if (!kb) return false;
    InquiryEngine engine(&*kb, workload_.inquiry);
    const Clock::time_point begin_start = Clock::now();
    outcome_->CountAttempt();
    const kbrepair::Status begun = engine.Begin();
    const Clock::time_point begin_end = Clock::now();
    if (!begun.ok()) {
      Failure("Begin on KB " + std::to_string(d) + ": " + begun.ToString());
      return false;
    }
    pass->setup_s.Add(MsBetween(setup_start, begin_end) / 1000.0);
    pass->begin_ms.Add(MsBetween(begin_start, begin_end));
    if (traced) DrainSpans();  // Begin's spans belong to set-up

    kbrepair::RandomUser user(UserSeed(d));
    size_t questions = 0;
    double pending_answer_ms = 0.0;
    while (true) {
      const Clock::time_point ask_start = Clock::now();
      kbrepair::StatusOr<const kbrepair::Question*> question =
          engine.NextQuestion();
      const double ask_ms = MsBetween(ask_start, Clock::now());
      outcome_->CountAttempt();
      if (!question.ok()) {
        Failure("NextQuestion: " + question.status().ToString());
        return false;
      }
      if (questions == 0) {
        pass->first_question_ms.Add(MsBetween(begin_start, begin_end) +
                                    ask_ms);
        if (setup_only) return true;
      }
      RecordCall(ask_ms, traced, pass);
      pass->ask_ms.Add(ask_ms);
      if (*question == nullptr) break;
      pass->delay_ms.Add(pending_answer_ms + ask_ms);
      ++questions;
      if (traced && questions % kSampleEvery == 1) SideCalls(*kb, engine, pass);

      const std::optional<size_t> choice =
          user.ChooseFix(**question, engine.View());
      if (!choice) {
        Failure("the user chose no fix");
        return false;
      }
      const Clock::time_point answer_start = Clock::now();
      const kbrepair::Status answered = engine.Answer(*choice);
      pending_answer_ms = MsBetween(answer_start, Clock::now());
      outcome_->CountAttempt();
      if (!answered.ok()) {
        Failure("Answer: " + answered.ToString());
        return false;
      }
      RecordCall(pending_answer_ms, traced, pass);
      pass->answer_ms.Add(pending_answer_ms);
    }
    kbrepair::StatusOr<kbrepair::InquiryResult> result = engine.Finish();
    if (!result.ok()) {
      Failure("Finish: " + result.status().ToString());
      return false;
    }
    pass->questions += questions;
    pass->dialogues += 1;
    if (d < workload_.min_dialogues) {
      pass->questions_per_dialogue.Add(static_cast<double>(questions));
    }
    pass->fast_paths += result->repairability_fast_paths;
    pass->full_checks += result->repairability_full_checks;
    pass->candidates += result->question_candidates;
    pass->filtered += result->question_filtered;
    pass->fallbacks += result->engine_fallbacks;
    pass->fixes.push_back(result->applied_fixes);
    if (result->engine_fallbacks != 0) {
      Failure("dialogue " + std::to_string(d) + " fell back to scratch");
    }
    CheckConsistent(*kb, result->facts, d);
    return true;
  }

  void Run() {
    CheckEnginesAgree();
    Pass plain;
    const double plain_seconds =
        options_.trace ? options_.seconds / 2 : options_.seconds;
    const Clock::time_point start = Clock::now();
    for (size_t d = 0;; ++d) {
      const double elapsed = MsBetween(start, Clock::now()) / 1000.0;
      if (elapsed >= plain_seconds && plain.questions >= kMinQuestions &&
          plain.dialogues >= workload_.min_dialogues) {
        break;
      }
      if (elapsed >= 2 * options_.seconds + 60) {
        Failure("too few questions in the time allowed");
        break;
      }
      if (!RunDialogue(d, false, false, &plain)) return;
      if (plain.dialogues == workload_.min_dialogues) {
        plain.peak_rss_mb = PeakRssMb(0);
      }
    }
    for (size_t d = plain.dialogues; d < kMinSetups && !options_.trace; ++d) {
      if (!RunDialogue(d, false, true, &plain)) return;
    }
    if (!options_.trace) {
      ReportEndToEnd(plain);
      return;
    }

    kbrepair::trace::Recorder& recorder = kbrepair::trace::Recorder::Instance();
    recorder.Enable("");
    Pass traced;
    for (size_t d = 0; d < plain.dialogues; ++d) {
      if (!RunDialogue(d, true, false, &traced)) break;
      if (traced.fixes[d] != plain.fixes[d]) {
        Failure("traced dialogue " + std::to_string(d) +
                " differs from the untraced one");
      }
    }
    const uint64_t dropped = recorder.dropped();
    recorder.Disable();
    ReportPerLayer(plain, traced, dropped);
  }

 private:
  void Failure(const std::string& why) {
    outcome_->CountFailure();
    outcome_->Fail(why);
  }

  void RecordCall(double ms, bool traced, Pass* pass) {
    pass->timed_call_ms += ms;
    if (!traced) return;
    const std::vector<Span> spans = DrainSpans();
    SelfTotals call;
    call.Add(spans);
    pass->self.Add(spans);
    const double attributed = static_cast<double>(call.TotalSelfUs()) / 1000.0;
    pass->attributed_ms += attributed;
  }

  // Side calls into the kb, chase and repair layers on the working base
  // of a suspended dialogue, each against its own clone of the symbol
  // table. Their spans are discarded.
  void SideCalls(const KnowledgeBase& kb, const InquiryEngine& engine,
                 Pass* pass) {
    const kbrepair::FactBase& working = engine.working_facts();
    pass->working_atoms.Add(static_cast<double>(working.size()));

    Clock::time_point t = Clock::now();
    const kbrepair::FactBase copy = working;
    pass->copy_ms.Add(MsBetween(t, Clock::now()));

    std::unique_ptr<kbrepair::SymbolTable> symbols = kb.symbols().Clone();
    const kbrepair::ChaseEngine chase(symbols.get(), &kb.tgds());
    t = Clock::now();
    kbrepair::StatusOr<kbrepair::ChaseResult> chased = chase.Run(copy);
    pass->chase_run_ms.Add(MsBetween(t, Clock::now()));
    if (chased.ok()) {
      pass->derived_atoms.Add(static_cast<double>(chased->num_derived()));
    } else {
      Failure("side chase: " + chased.status().ToString());
    }

    symbols = kb.symbols().Clone();
    const kbrepair::ConflictFinder finder(symbols.get(), &kb.tgds(),
                                          &kb.cdds());
    t = Clock::now();
    const auto conflicts = finder.AllConflicts(copy);
    pass->all_conflicts_ms.Add(MsBetween(t, Clock::now()));
    if (!conflicts.ok() || conflicts->empty()) {
      Failure("side census found no conflict on an inconsistent base");
    }

    symbols = kb.symbols().Clone();
    const kbrepair::RepairabilityChecker checker(symbols.get(), &kb.tgds(),
                                                 &kb.cdds());
    t = Clock::now();
    const kbrepair::StatusOr<bool> repairable =
        checker.IsPiRepairable(copy, engine.current_pi());
    pass->is_pi_repairable_ms.Add(MsBetween(t, Clock::now()));
    if (!repairable.ok() || !*repairable) {
      Failure("working base lost Π-repairability mid-dialogue");
    }
    DrainSpans();
  }

  void CheckConsistent(KnowledgeBase& kb, const kbrepair::FactBase& facts,
                       size_t d) {
    std::unique_ptr<kbrepair::SymbolTable> symbols = kb.symbols().Clone();
    const kbrepair::ConsistencyChecker checker(symbols.get(), &kb.tgds(),
                                               &kb.cdds());
    const kbrepair::StatusOr<bool> consistent = checker.IsConsistentOpt(facts);
    if (!consistent.ok() || !*consistent) {
      Failure("repair of dialogue " + std::to_string(d) +
              " is not consistent");
    }
  }

  // One dialogue on a smaller KB of the workload's shape, run under
  // both conflict engines with the same user seed: they must choose the
  // same fixes, reach the same repair up to null renaming, and that
  // repair must be consistent.
  void CheckEnginesAgree() {
    SyntheticKbOptions gen = workload_.gen;
    gen.seed = MixSeed(options_.seed, kCheckStream);
    gen.num_facts = workload_.check_facts;
    gen.num_noise_tgds = workload_.check_noise_tgds;
    kbrepair::StatusOr<kbrepair::SyntheticKb> generated =
        kbrepair::GenerateSyntheticKb(gen);
    outcome_->CountAttempt();
    if (!generated.ok()) {
      Failure("generate the engine-check KB: " + generated.status().ToString());
      return;
    }
    KnowledgeBase& kb = generated->kb;
    std::vector<kbrepair::InquiryResult> results;
    for (const ConflictEngineKind engine_kind :
         {workload_.inquiry.conflict_engine, workload_.replay_engine}) {
      InquiryOptions inquiry = workload_.inquiry;
      inquiry.conflict_engine = engine_kind;
      InquiryEngine engine(&kb, inquiry);
      kbrepair::RandomUser user(MixSeed(options_.seed, kCheckStream + 1));
      kbrepair::StatusOr<kbrepair::InquiryResult> result = engine.Run(user);
      if (!result.ok()) {
        Failure(std::string("engine check under ") +
                kbrepair::ConflictEngineName(engine_kind) + ": " +
                result.status().ToString());
        return;
      }
      results.push_back(std::move(*result));
    }
    const std::vector<Fix>& a = results[0].applied_fixes;
    const std::vector<Fix>& b = results[1].applied_fixes;
    bool same = !a.empty() && a.size() == b.size() &&
                kbrepair::EqualUpToNullRenaming(results[0].facts,
                                                results[1].facts,
                                                kb.symbols());
    for (size_t i = 0; same && i < a.size(); ++i) {
      same = a[i].position() == b[i].position();
    }
    if (!same) {
      Failure(std::string("the ") +
              kbrepair::ConflictEngineName(workload_.replay_engine) +
              " engine chose other fixes than the " +
              kbrepair::ConflictEngineName(workload_.inquiry.conflict_engine) +
              " engine");
    }
    CheckConsistent(kb, results[0].facts, kCheckStream);
    outcome_->detail().Set(
        "engine_check",
        kbrepair::JsonValue::String(
            std::to_string(a.size()) + " fixes, " +
            kbrepair::ConflictEngineName(workload_.replay_engine) +
            (same ? " agrees" : " differs")));
  }

  void ReportEndToEnd(const Pass& pass) {
    RunOutcome& out = *outcome_;
    out.Set("setup_s", pass.setup_s.Quantile(0.5), pass.setup_s.count());
    out.Set("question_delay_p50_ms", pass.delay_ms.Quantile(0.5),
            pass.delay_ms.count());
    out.SetP99("question_delay_p99_ms", pass.delay_ms);
    out.Set("questions_per_s",
            1000.0 * static_cast<double>(pass.questions) / pass.timed_call_ms,
            pass.questions);
    out.Set("questions_per_dialogue", pass.questions_per_dialogue.Mean(),
            pass.questions_per_dialogue.count());
    out.Set("turn_p50_ms", pass.ask_ms.Quantile(0.5), pass.ask_ms.count());
    out.SetP99("turn_p99_ms", pass.ask_ms);
    out.Set("first_question_p50_ms", pass.first_question_ms.Quantile(0.5),
            pass.first_question_ms.count());
    out.Set("peak_rss_mb", pass.peak_rss_mb, 1);
    out.detail().Set("dialogues",
                     kbrepair::JsonValue::Number(
                         static_cast<uint64_t>(pass.dialogues)));
    out.detail().Set("tails", TailDetail({{"delay", &pass.delay_ms},
                                          {"turn", &pass.ask_ms},
                                          {"answer", &pass.answer_ms}}));
    out.detail().Set("answer_p50_ms",
                     kbrepair::JsonValue::Number(pass.answer_ms.Quantile(0.5)));
  }

  void ReportPerLayer(const Pass& plain, const Pass& traced,
                      uint64_t dropped) {
    RunOutcome& out = *outcome_;
    const double q = static_cast<double>(std::max<size_t>(traced.questions, 1));
    const SelfTotals& self = traced.self;
    auto per_question = [&](std::initializer_list<const char*> names) {
      int64_t us = 0;
      for (const char* name : names) us += self.SelfUs(name);
      return static_cast<double>(us) / 1000.0 / q;
    };
    auto median = [](const Samples& s) {
      return s.empty() ? 0.0 : s.Quantile(0.5);
    };
    const size_t n = traced.questions;
    out.Set("parser.parse_ms", median(traced.parse_ms), traced.parse_ms.count());
    out.Set("kb.copy_ms", median(traced.copy_ms), traced.copy_ms.count());
    out.Set("kb.working_atoms", median(traced.working_atoms),
            traced.working_atoms.count());
    out.Set("chase.run_ms", median(traced.chase_run_ms),
            traced.chase_run_ms.count());
    out.Set("chase.derived_atoms", median(traced.derived_atoms),
            traced.derived_atoms.count());
    out.Set("repair.all_conflicts_ms", median(traced.all_conflicts_ms),
            traced.all_conflicts_ms.count());
    out.Set("repair.is_pi_repairable_ms", median(traced.is_pi_repairable_ms),
            traced.is_pi_repairable_ms.count());

    // Span self time per question, by layer.
    const std::map<std::string, std::vector<const char*>> layers = {
        {"chase.saturate_self_ms", {"chase.saturate"}},
        {"chase.delta_saturate_self_ms", {"chase.delta_saturate"}},
        {"repair.question_gen_self_ms", {"inquiry.select_question"}},
        {"repair.next_question_self_ms", {"inquiry.next_question"}},
        {"repair.repairability_self_ms", {"repair.repairability"}},
        {"repair.conflict_scan_self_ms",
         {"conflicts.enumerate", "conflicts.naive"}},
        {"repair.delta_enumerate_self_ms", {"conflicts.delta_enumerate"}},
        {"repair.apply_answer_self_ms", {"inquiry.apply_answer"}},
    };
    double named_ms = 0.0;
    std::string dominant;
    double dominant_ms = -1.0;
    for (const auto& [metric, spans] : layers) {
      double ms = 0.0;
      for (const char* span : spans) ms += per_question({span});
      out.Set(metric, ms, n);
      named_ms += ms;
      if (ms > dominant_ms) {
        dominant_ms = ms;
        dominant = metric;
      }
    }
    const double timed_ms = traced.timed_call_ms / q;
    const double unattributed_ms = timed_ms - named_ms;
    out.Set("repair.timed_call_ms", timed_ms, n);
    out.Set("repair.unattributed_ms", unattributed_ms, n);
    if (unattributed_ms > dominant_ms) dominant = "repair.unattributed_ms";
    // Span self times lie inside the timed calls: their sum may not
    // exceed the calls' time by more than clock granularity.
    const double attributed_share = traced.attributed_ms / traced.timed_call_ms;
    if (attributed_share > 1.05) {
      Failure("span self time exceeds timed call time");
    }
    // Question generation checks Π-repairability through
    // RepairabilityChecker::Scope, which records no span of its own: its
    // time is in repair.question_gen_self_ms, its count in InquiryResult.
    const size_t checks = traced.fast_paths + traced.full_checks;
    out.Set("repair.repairability_calls", static_cast<double>(checks) / q, n);
    out.Set("repair.repopt_fast_path_ratio",
            checks == 0 ? 0.0
                        : static_cast<double>(traced.fast_paths) /
                              static_cast<double>(checks),
            checks);
    out.Set("repair.candidate_keep_ratio",
            traced.candidates == 0
                ? 0.0
                : 1.0 - static_cast<double>(traced.filtered) /
                            static_cast<double>(traced.candidates),
            traced.candidates);
    out.Set("repair.begin_ms", median(traced.begin_ms), traced.begin_ms.count());
    out.Set("repair.engine_fallbacks", static_cast<double>(traced.fallbacks),
            traced.dialogues);
    // The turn path through the daemon is not exercised in process.
    for (const MetricSpec& spec : kPerLayerMetrics) {
      const std::string name = spec.name;
      if (name.rfind("service.", 0) == 0 || name.rfind("loadgen.", 0) == 0) {
        out.Set(name, 0.0, 0);
      }
    }
    const double plain_ms = plain.timed_call_ms / plain.questions;
    out.Set("trace.overhead_pct", 100.0 * (timed_ms - plain_ms) / plain_ms, n);
    out.Set("trace.dropped_spans", static_cast<double>(dropped), 1);
    out.detail().Set("dominant_layer", kbrepair::JsonValue::String(dominant));
    out.detail().Set("attributed_share_of_timed_calls",
                     kbrepair::JsonValue::Number(attributed_share));
    out.detail().Set("dialogues", kbrepair::JsonValue::Number(
                                      static_cast<uint64_t>(traced.dialogues)));
  }

  const Workload& workload_;
  const RunOptions& options_;
  RunOutcome* outcome_;
};

}  // namespace

void RunInProcess(const RunOptions& options, RunOutcome* outcome) {
  const std::optional<Workload> workload = FindWorkload(options.workload);
  if (!workload) {
    outcome->Fail("unknown workload " + options.workload);
    return;
  }
  InProcessRun(*workload, options, outcome).Run();
}

}  // namespace kbbench
