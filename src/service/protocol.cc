#include "service/protocol.h"

namespace kbrepair {

StatusOr<ServiceRequest> ParseRequest(JsonValue json) {
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }
  ServiceRequest request;
  request.id = json.Get("id").AsString();
  if (!json.Get("command").is_string() ||
      json.Get("command").AsString().empty()) {
    return Status::InvalidArgument("request needs a string 'command'");
  }
  request.command = json.Get("command").AsString();
  request.session_id = json.Get("session").AsString();
  request.params = std::move(json);
  return request;
}

StatusOr<ServiceRequest> ParseRequestLine(const std::string& line) {
  KBREPAIR_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(line));
  return ParseRequest(std::move(json));
}

namespace {

std::string Envelope(const std::string& id, bool ok, JsonValue payload) {
  JsonValue out = JsonValue::Object();
  if (!id.empty()) out.Set("id", JsonValue::String(id));
  out.Set("ok", JsonValue::Bool(ok));
  out.Set(ok ? "result" : "error", std::move(payload));
  return out.Dump();
}

JsonValue StatusToJson(const Status& status) {
  JsonValue error = JsonValue::Object();
  error.Set("code", JsonValue::String(StatusCodeName(status.code())));
  error.Set("message", JsonValue::String(status.message()));
  return error;
}

}  // namespace

std::string OkResponseLine(const ServiceRequest& request, JsonValue result) {
  return Envelope(request.id, /*ok=*/true, std::move(result));
}

std::string ErrorResponseLine(const ServiceRequest& request,
                              const Status& status) {
  return Envelope(request.id, /*ok=*/false, StatusToJson(status));
}

std::string ErrorResponseForLine(const std::string& line,
                                 const Status& status) {
  std::string id;
  if (StatusOr<JsonValue> json = JsonValue::Parse(line); json.ok()) {
    id = json->Get("id").AsString();
  }
  return Envelope(id, /*ok=*/false, StatusToJson(status));
}

JsonValue FixToWireJson(size_t index, const Fix& fix,
                        const InquiryView& view) {
  JsonValue out = JsonValue::Object();
  out.Set("index", JsonValue::Number(static_cast<int64_t>(index)));
  out.Set("atom", JsonValue::Number(static_cast<int64_t>(fix.atom)));
  out.Set("arg", JsonValue::Number(static_cast<int64_t>(fix.arg)));
  out.Set("value", JsonValue::String(view.symbols->term_name(fix.value)));
  out.Set("value_kind",
          JsonValue::String(view.symbols->IsNull(fix.value) ? "null"
                                                            : "constant"));
  out.Set("text", JsonValue::String(fix.ToString(*view.symbols, *view.facts)));
  return out;
}

JsonValue QuestionToWireJson(const Question& question,
                             const InquiryView& view) {
  JsonValue out = JsonValue::Object();
  out.Set("source_cdd",
          JsonValue::Number(static_cast<int64_t>(question.source_cdd)));
  if (view.cdds != nullptr && question.source_cdd < view.cdds->size()) {
    out.Set("cdd", JsonValue::String(
                       (*view.cdds)[question.source_cdd].ToString(
                           *view.symbols)));
  }
  JsonValue positions = JsonValue::Array();
  for (const Position& p : question.considered_positions) {
    JsonValue pos = JsonValue::Array();
    pos.Append(JsonValue::Number(static_cast<int64_t>(p.atom)));
    pos.Append(JsonValue::Number(static_cast<int64_t>(p.arg)));
    positions.Append(std::move(pos));
  }
  out.Set("positions", std::move(positions));
  out.Set("num_fixes",
          JsonValue::Number(static_cast<int64_t>(question.fixes.size())));
  JsonValue fixes = JsonValue::Array();
  for (size_t i = 0; i < question.fixes.size(); ++i) {
    fixes.Append(FixToWireJson(i, question.fixes[i], view));
  }
  out.Set("fixes", std::move(fixes));
  return out;
}

}  // namespace kbrepair
