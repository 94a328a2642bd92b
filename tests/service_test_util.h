// Request builders and fixtures shared by the service tests.

#ifndef KBREPAIR_TESTS_SERVICE_TEST_UTIL_H_
#define KBREPAIR_TESTS_SERVICE_TEST_UTIL_H_

#include <stdlib.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>

#include "service/protocol.h"
#include "util/json.h"
#include "util/logging.h"

namespace kbrepair {

// The request the daemon would build from `params` as a wire line.
// Aborts on a document ParseRequest rejects: every caller passes a
// "command".
inline ServiceRequest MakeRequest(JsonValue params) {
  StatusOr<ServiceRequest> request = ParseRequest(std::move(params));
  KBREPAIR_CHECK(request.ok()) << request.status();
  return std::move(request).value();
}

// `create` for a synthetic KB of `num_facts` facts; the generator and
// the scripted user are both seeded with `seed`.
inline JsonValue SyntheticCreate(uint64_t seed, int64_t num_facts = 30,
                                 const std::string& strategy = "random",
                                 const std::string& engine = "scratch") {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String("create"));
  params.Set("kb", JsonValue::String("synthetic"));
  params.Set("kb_seed", JsonValue::Number(static_cast<int64_t>(seed)));
  params.Set("num_facts", JsonValue::Number(num_facts));
  params.Set("strategy", JsonValue::String(strategy));
  params.Set("engine", JsonValue::String(engine));
  params.Set("seed", JsonValue::Number(static_cast<int64_t>(seed)));
  return params;
}

inline ServiceRequest SessionCommand(const std::string& command,
                                     const std::string& session) {
  JsonValue params = JsonValue::Object();
  params.Set("command", JsonValue::String(command));
  params.Set("session", JsonValue::String(session));
  return MakeRequest(std::move(params));
}

inline ServiceRequest AnswerCommand(const std::string& session,
                                    int64_t choice) {
  ServiceRequest request = SessionCommand("answer", session);
  request.params.Set("choice", JsonValue::Number(choice));
  return request;
}

// A fresh directory under /tmp, removed with everything in it when the
// fixture goes out of scope. Aborts if mkdtemp fails rather than let a
// test write into an unnamed directory.
struct TempDir {
  TempDir() {
    char tmpl[] = "/tmp/kbrepair_test_XXXXXX";
    KBREPAIR_CHECK(::mkdtemp(tmpl) != nullptr)
        << "mkdtemp failed: " << std::strerror(errno);
    path = tmpl;
  }
  ~TempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path, ignored);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;

  std::string path;
};

// The deterministic part of a close result: everything except the
// wall-clock timing fields, which legitimately differ between runs.
inline std::string CloseFingerprint(const JsonValue& closed) {
  JsonValue out = JsonValue::Object();
  out.Set("session", closed.Get("session"));
  out.Set("consistent", closed.Get("consistent"));
  out.Set("questions", closed.Get("questions"));
  out.Set("applied_fixes", closed.Get("applied_fixes"));
  out.Set("facts", closed.Get("facts"));
  return out.Dump();
}

}  // namespace kbrepair

#endif  // KBREPAIR_TESTS_SERVICE_TEST_UTIL_H_
