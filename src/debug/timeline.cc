#include "debug/timeline.h"

#include <optional>
#include <utility>

#include "repair/session_log.h"
#include "repair/user.h"
#include "service/protocol.h"
#include "service/session.h"
#include "util/logging.h"

namespace kbrepair {
namespace debug {

namespace {

std::string EntryWhere(const RecordedStep& rec, size_t index) {
  return "WAL record " + std::to_string(rec.record_index) + " (byte offset " +
         std::to_string(rec.byte_offset) + ", entry " +
         std::to_string(index + 1) + ")";
}

// Validates the shape shared by every consumer of a recorded entry.
Status CheckEntryShape(const RecordedStep& rec, size_t index) {
  const JsonValue& fixes = rec.entry.Get("question").Get("fixes");
  if (!rec.entry.Get("chosen").is_number() || !fixes.is_array()) {
    return Status::InvalidArgument(EntryWhere(rec, index) +
                                   " needs 'chosen' and 'question.fixes'");
  }
  const size_t chosen = static_cast<size_t>(rec.entry.Get("chosen").AsInt(0));
  if (chosen >= fixes.size()) {
    return Status::InvalidArgument(EntryWhere(rec, index) +
                                   " chose a fix index out of range");
  }
  return Status::Ok();
}

}  // namespace

StatusOr<SessionTimeline> SessionTimeline::Create(RecordedSession recorded,
                                                  TimelineOptions options) {
  if (recorded.create_params.Get("base").is_string()) {
    return Status::InvalidArgument(
        "recording belongs to a base-forked session ('base' in the create "
        "params): the WAL alone cannot rebuild its KB — replay it through "
        "kbrepaird --recover-dir with the base registry present");
  }
  SessionTimeline timeline;
  timeline.recorded_ = std::move(recorded);
  timeline.options_ = std::move(options);
  KBREPAIR_ASSIGN_OR_RETURN(
      timeline.inquiry_options_,
      InquiryOptionsFromParams(timeline.recorded_.create_params));
  if (!timeline.options_.engine_override.empty()) {
    KBREPAIR_ASSIGN_OR_RETURN(
        timeline.inquiry_options_.conflict_engine,
        ParseConflictEngine(timeline.options_.engine_override));
  }
  std::string label;
  KBREPAIR_ASSIGN_OR_RETURN(
      KnowledgeBase kb,
      BuildKbFromParams(timeline.recorded_.create_params, &label));
  KBREPAIR_ASSIGN_OR_RETURN(
      timeline.snapshot_,
      BuildSharedKbSnapshot(std::move(kb), label,
                            timeline.inquiry_options_.chase_options));

  // The validation pass: replay every entry once, collecting the notes.
  KBREPAIR_ASSIGN_OR_RETURN(Cursor cursor, timeline.FreshCursor());
  timeline.notes_.reserve(timeline.recorded_.steps.size());
  while (cursor.step < timeline.recorded_.steps.size()) {
    StepNote note;
    KBREPAIR_RETURN_IF_ERROR(timeline.AdvanceCursor(cursor, &note));
    timeline.notes_.push_back(std::move(note));
  }
  timeline.current_ = std::move(cursor);

  // Pre-warm the parked-cursor ladder for backward seeks.
  if (timeline.options_.checkpoint_every > 0) {
    for (size_t m = timeline.options_.checkpoint_every;
         m < timeline.recorded_.steps.size();
         m += timeline.options_.checkpoint_every) {
      KBREPAIR_ASSIGN_OR_RETURN(Cursor parked, timeline.FreshCursor());
      while (parked.step < m) {
        KBREPAIR_RETURN_IF_ERROR(timeline.AdvanceCursor(parked, nullptr));
      }
      timeline.parked_.emplace(m, std::move(parked));
    }
  }
  return timeline;
}

StatusOr<SessionTimeline::Cursor> SessionTimeline::FreshCursor() const {
  Cursor cursor;
  cursor.kb = std::make_unique<KnowledgeBase>(snapshot_->Fork());
  cursor.engine =
      std::make_unique<InquiryEngine>(cursor.kb.get(), inquiry_options_);
  KBREPAIR_RETURN_IF_ERROR(cursor.engine->BeginShared(snapshot_->Seed()));
  return cursor;
}

Status SessionTimeline::AdvanceCursor(Cursor& cursor, StepNote* note) const {
  const size_t i = cursor.step;
  KBREPAIR_CHECK(i < recorded_.steps.size());
  const RecordedStep& rec = recorded_.steps[i];
  if (note == nullptr && i < notes_.size() && notes_[i].ghost) {
    cursor.step = i + 1;
    return Status::Ok();
  }
  KBREPAIR_RETURN_IF_ERROR(CheckEntryShape(rec, i));
  const JsonValue& fixes_json = rec.entry.Get("question").Get("fixes");
  const size_t chosen = static_cast<size_t>(rec.entry.Get("chosen").AsInt(0));
  const bool duplicate_of_previous =
      i > 0 && rec.entry.Dump() == recorded_.steps[i - 1].entry.Dump();
  KBREPAIR_ASSIGN_OR_RETURN(const Question* question,
                            cursor.engine->NextQuestion());
  std::optional<size_t> choice;
  if (question != nullptr) {
    choice = MatchRecordedFixJson(fixes_json.at(chosen), *question,
                                  cursor.engine->View(),
                                  cursor.kb->symbols());
  }
  if (question == nullptr || !choice.has_value()) {
    // Same ghost rule as daemon recovery: an append whose fsync failed
    // was rejected, retried verbatim, and logged twice; the regenerated
    // dialogue has no question for the duplicate.
    if (duplicate_of_previous) {
      if (note != nullptr) {
        note->index = i;
        note->question_index = cursor.engine->progress().records.size();
        note->record_index = rec.record_index;
        note->byte_offset = rec.byte_offset;
        note->ghost = true;
      }
      cursor.step = i + 1;
      return Status::Ok();
    }
    if (question == nullptr) {
      return Status::Internal(
          "replay diverged at " + EntryWhere(rec, i) +
          ": dialogue reached consistency with recorded answers left");
    }
    return Status::Internal(
        "replay diverged at " + EntryWhere(rec, i) +
        ": recorded fix not offered by the regenerated question");
  }
  if (note != nullptr) {
    note->index = i;
    note->question_index = cursor.engine->progress().records.size() + 1;
    note->record_index = rec.record_index;
    note->byte_offset = rec.byte_offset;
    note->chosen = *choice;
    note->num_fixes = question->fixes.size();
    note->source_cdd = question->source_cdd;
    const Fix& fix = question->fixes[*choice];
    note->chosen_atom = fix.atom;
    note->chosen_arg = fix.arg;
    note->chosen_text =
        fix.ToString(cursor.kb->symbols(), cursor.engine->working_facts());
  }
  KBREPAIR_RETURN_IF_ERROR(cursor.engine->Answer(*choice));
  if (note != nullptr) {
    const QuestionRecord& record = cursor.engine->progress().records.back();
    note->phase = record.phase;
    note->conflicts_remaining = record.conflicts_remaining;
    note->demoted =
        cursor.engine->active_engine() != inquiry_options_.conflict_engine;
  }
  cursor.step = i + 1;
  return Status::Ok();
}

StatusOr<SessionTimeline::Cursor> SessionTimeline::Materialize(size_t step) {
  Cursor cursor;
  auto it = parked_.upper_bound(step);
  if (it != parked_.begin()) {
    --it;
    cursor = std::move(it->second);
    parked_.erase(it);
  } else {
    KBREPAIR_ASSIGN_OR_RETURN(cursor, FreshCursor());
  }
  while (cursor.step < step) {
    KBREPAIR_RETURN_IF_ERROR(AdvanceCursor(cursor, nullptr));
  }
  return cursor;
}

void SessionTimeline::Park(Cursor cursor) {
  constexpr size_t kMaxParked = 64;
  const size_t step = cursor.step;
  parked_[step] = std::move(cursor);
  if (parked_.size() <= kMaxParked) return;
  // Thin the pool: prefer dropping off-ladder positions (backward seeks
  // deposit cursors wherever the user happened to be), keep the ladder.
  const size_t stride =
      options_.checkpoint_every == 0 ? 1 : options_.checkpoint_every;
  for (auto it = parked_.rbegin(); it != parked_.rend(); ++it) {
    if (it->first != step && (it->first % stride) != 0) {
      parked_.erase(std::next(it).base());
      return;
    }
  }
  parked_.erase(std::prev(parked_.end()));
}

size_t SessionTimeline::num_questions() const {
  size_t count = 0;
  for (const StepNote& note : notes_) {
    if (!note.ghost) ++count;
  }
  return count;
}

Status SessionTimeline::SeekTo(size_t step) {
  if (step > recorded_.steps.size()) {
    return Status::InvalidArgument(
        "step " + std::to_string(step) + " out of range (recording has " +
        std::to_string(recorded_.steps.size()) + " entries)");
  }
  if (step == current_.step) return Status::Ok();
  if (step > current_.step) {
    while (current_.step < step) {
      KBREPAIR_RETURN_IF_ERROR(AdvanceCursor(current_, nullptr));
    }
    return Status::Ok();
  }
  KBREPAIR_ASSIGN_OR_RETURN(Cursor target, Materialize(step));
  Park(std::move(current_));
  current_ = std::move(target);
  return Status::Ok();
}

Status SessionTimeline::StepBack() {
  if (position() == 0) {
    return Status::FailedPrecondition("already at step 0");
  }
  return SeekTo(position() - 1);
}

StatusOr<const Question*> SessionTimeline::PendingQuestion() {
  return current_.engine->NextQuestion();
}

StatusOr<std::vector<Conflict>> SessionTimeline::Census() const {
  return current_.engine->InspectCensus();
}

uint64_t SessionTimeline::StateHash() const {
  return current_.engine->working_facts().ContentHash(current_.kb->symbols());
}

Status SessionTimeline::ReplayVerify() {
  KBREPAIR_ASSIGN_OR_RETURN(Cursor cursor, FreshCursor());
  for (size_t i = 0; i < recorded_.steps.size(); ++i) {
    const RecordedStep& rec = recorded_.steps[i];
    if (notes_[i].ghost) {
      cursor.step = i + 1;
      continue;
    }
    KBREPAIR_ASSIGN_OR_RETURN(const Question* question,
                              cursor.engine->NextQuestion());
    if (question == nullptr) {
      return Status::Internal(
          "replay diverged at " + EntryWhere(rec, i) +
          ": dialogue reached consistency with recorded answers left");
    }
    const JsonValue& fixes_json = rec.entry.Get("question").Get("fixes");
    const size_t chosen =
        static_cast<size_t>(rec.entry.Get("chosen").AsInt(0));
    const std::optional<size_t> choice = MatchRecordedFixJson(
        fixes_json.at(chosen), *question, cursor.engine->View(),
        cursor.kb->symbols());
    if (!choice.has_value()) {
      return Status::Internal(
          "replay diverged at " + EntryWhere(rec, i) +
          ": recorded fix not offered by the regenerated question");
    }
    const JsonValue regenerated = SessionTranscript::EntryToJson(
        TranscriptEntry{*question, *choice}, cursor.kb->symbols());
    if (regenerated.Dump() != rec.entry.Dump()) {
      return Status::Internal(
          "replay not byte-identical at " + EntryWhere(rec, i) +
          "\n  recorded:    " + rec.entry.Dump() +
          "\n  regenerated: " + regenerated.Dump());
    }
    KBREPAIR_RETURN_IF_ERROR(cursor.engine->Answer(*choice));
    cursor.step = i + 1;
  }
  return Status::Ok();
}

StatusOr<ForkBranch> SessionTimeline::Fork(size_t from_step,
                                           size_t alt_choice,
                                           uint64_t user_seed,
                                           size_t max_extra_questions) {
  if (from_step > num_entries()) {
    return Status::InvalidArgument(
        "fork step " + std::to_string(from_step) +
        " out of range (recording has " + std::to_string(num_entries()) +
        " entries)");
  }
  KBREPAIR_ASSIGN_OR_RETURN(Cursor cursor, Materialize(from_step));
  ForkBranch branch;
  branch.from_step = from_step;
  branch.alt_choice = alt_choice;
  branch.user_seed = user_seed;
  for (size_t i = 0; i < from_step; ++i) {
    if (!notes_[i].ghost) branch.entries.push_back(recorded_.steps[i].entry);
  }
  KBREPAIR_ASSIGN_OR_RETURN(const Question* question,
                            cursor.engine->NextQuestion());
  if (question == nullptr) {
    return Status::FailedPrecondition(
        "dialogue is already consistent at entry " +
        std::to_string(from_step) + "; nothing to answer differently");
  }
  if (alt_choice >= question->fixes.size()) {
    return Status::InvalidArgument(
        "choice " + std::to_string(alt_choice) +
        " out of range (question has " +
        std::to_string(question->fixes.size()) + " fixes)");
  }
  branch.entries.push_back(SessionTranscript::EntryToJson(
      TranscriptEntry{*question, alt_choice}, cursor.kb->symbols()));
  KBREPAIR_RETURN_IF_ERROR(cursor.engine->Answer(alt_choice));
  branch.num_questions = 1;
  RandomUser user(user_seed);
  for (size_t extra = 0; extra < max_extra_questions; ++extra) {
    KBREPAIR_ASSIGN_OR_RETURN(question, cursor.engine->NextQuestion());
    if (question == nullptr) {
      branch.completed = true;
      break;
    }
    const std::optional<size_t> pick =
        user.ChooseFix(*question, cursor.engine->View());
    if (!pick.has_value()) {
      return Status::Internal("simulated user declined to answer");
    }
    branch.entries.push_back(SessionTranscript::EntryToJson(
        TranscriptEntry{*question, *pick}, cursor.kb->symbols()));
    KBREPAIR_RETURN_IF_ERROR(cursor.engine->Answer(*pick));
    ++branch.num_questions;
  }
  if (!branch.completed) {
    KBREPAIR_ASSIGN_OR_RETURN(question, cursor.engine->NextQuestion());
    branch.completed = question == nullptr;
  }
  branch.final_state_hash =
      cursor.engine->working_facts().ContentHash(cursor.kb->symbols());
  return branch;
}

StatusOr<EngineDivergence> DiffEngines(const RecordedSession& recorded) {
  if (recorded.create_params.Get("base").is_string()) {
    return Status::InvalidArgument(
        "recording belongs to a base-forked session; diff-engines needs the "
        "create params alone to rebuild the KB");
  }
  struct Side {
    std::shared_ptr<const SharedKbSnapshot> snapshot;
    std::unique_ptr<KnowledgeBase> kb;
    std::unique_ptr<InquiryEngine> engine;
  };
  const auto make_side = [&](ConflictEngineKind kind) -> StatusOr<Side> {
    Side side;
    KBREPAIR_ASSIGN_OR_RETURN(InquiryOptions opts,
                              InquiryOptionsFromParams(recorded.create_params));
    opts.conflict_engine = kind;
    std::string label;
    KBREPAIR_ASSIGN_OR_RETURN(KnowledgeBase kb,
                              BuildKbFromParams(recorded.create_params,
                                                &label));
    KBREPAIR_ASSIGN_OR_RETURN(
        side.snapshot,
        BuildSharedKbSnapshot(std::move(kb), label, opts.chase_options));
    side.kb = std::make_unique<KnowledgeBase>(side.snapshot->Fork());
    side.engine = std::make_unique<InquiryEngine>(side.kb.get(), opts);
    KBREPAIR_RETURN_IF_ERROR(side.engine->BeginShared(side.snapshot->Seed()));
    return side;
  };
  KBREPAIR_ASSIGN_OR_RETURN(Side scratch,
                            make_side(ConflictEngineKind::kScratch));
  KBREPAIR_ASSIGN_OR_RETURN(Side incremental,
                            make_side(ConflictEngineKind::kIncremental));

  // How one side sees the recorded entry: the transcript record it
  // would regenerate, or why it cannot.
  struct SideView {
    const Question* question = nullptr;
    std::optional<size_t> choice;
    std::string regen;
  };
  EngineDivergence out;
  for (size_t i = 0; i < recorded.steps.size(); ++i) {
    const RecordedStep& rec = recorded.steps[i];
    KBREPAIR_RETURN_IF_ERROR(CheckEntryShape(rec, i));
    const JsonValue& fixes_json = rec.entry.Get("question").Get("fixes");
    const size_t chosen =
        static_cast<size_t>(rec.entry.Get("chosen").AsInt(0));
    const bool duplicate_of_previous =
        i > 0 && rec.entry.Dump() == recorded.steps[i - 1].entry.Dump();
    const auto observe = [&](Side& side) -> StatusOr<SideView> {
      SideView view;
      KBREPAIR_ASSIGN_OR_RETURN(view.question, side.engine->NextQuestion());
      if (view.question == nullptr) {
        view.regen = "<consistent>";
        return view;
      }
      view.choice =
          MatchRecordedFixJson(fixes_json.at(chosen), *view.question,
                               side.engine->View(), side.kb->symbols());
      if (view.choice.has_value()) {
        view.regen = SessionTranscript::EntryToJson(
                         TranscriptEntry{*view.question, *view.choice},
                         side.kb->symbols())
                         .Dump();
      } else {
        view.regen =
            "<no matching fix> question=" +
            QuestionToWireJson(*view.question, side.engine->View()).Dump();
      }
      return view;
    };
    KBREPAIR_ASSIGN_OR_RETURN(SideView s, observe(scratch));
    KBREPAIR_ASSIGN_OR_RETURN(SideView d, observe(incremental));
    // A ghost both sides reject is skipped, exactly as in recovery.
    if (duplicate_of_previous && !s.choice.has_value() &&
        !d.choice.has_value()) {
      continue;
    }
    const std::string recorded_dump = rec.entry.Dump();
    const bool s_matches = s.choice.has_value() && s.regen == recorded_dump;
    const bool d_matches = d.choice.has_value() && d.regen == recorded_dump;
    if (!s_matches || !d_matches) {
      out.diverged = true;
      out.step = i + 1;
      out.recorded_entry = recorded_dump;
      out.scratch_entry = s.regen;
      out.incremental_entry = d.regen;
      if (!s_matches && !d_matches) {
        out.reason = "both engines diverge from the recording at " +
                     EntryWhere(rec, i);
      } else if (!d_matches) {
        out.reason =
            "incremental engine diverges from the recording at " +
            EntryWhere(rec, i) + " (scratch still matches)";
      } else {
        out.reason = "scratch engine diverges from the recording at " +
                     EntryWhere(rec, i) + " (incremental still matches)";
      }
      return out;
    }
    KBREPAIR_RETURN_IF_ERROR(scratch.engine->Answer(*s.choice));
    KBREPAIR_RETURN_IF_ERROR(incremental.engine->Answer(*d.choice));
  }
  return out;
}

}  // namespace debug
}  // namespace kbrepair
