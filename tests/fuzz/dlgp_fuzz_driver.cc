// Seeded, time-boxed mutation driver for the DLGP fuzz target, for
// toolchains without libFuzzer (g++):
//
//   dlgp_fuzz_driver <golden-record> <seconds> [seed]
//
// Runs every input and recorded mutant of the golden parser record
// (tests/data/parser_golden.txt), then until the time box closes feeds
// the target random stacks of 1-4 token-level mutations (drop, dup,
// swap, put, stray byte, truncate) of a random record input. Any failed
// check aborts inside the target; exit 0 means none did.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "dlgp_corpus.h"
#include "util/rng.h"

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size);

namespace {

void Run(const std::string& input) {
  LLVMFuzzerTestOneInput(reinterpret_cast<const uint8_t*>(input.data()),
                         input.size());
}

}  // namespace

int main(int argc, char** argv) {
  namespace corpus = kbrepair::corpus;
  if (argc < 3 || argc > 4) {
    std::fprintf(stderr, "usage: %s <golden-record> <seconds> [seed]\n",
                 argv[0]);
    return 2;
  }
  corpus::GoldenRecord record;
  if (!corpus::ParseRecord(corpus::ReadFile(argv[1]), &record) ||
      record.inputs.empty()) {
    std::fprintf(stderr, "cannot read a golden record from %s\n", argv[1]);
    return 2;
  }
  const double seconds = std::atof(argv[2]);
  const uint64_t seed = argc == 4 ? std::strtoull(argv[3], nullptr, 10) : 1;

  size_t executions = 0;
  for (const corpus::GoldenInput& input : record.inputs) {
    Run(input.text);
    ++executions;
  }
  for (const corpus::GoldenMutant& mutant : record.mutants) {
    const corpus::GoldenInput* base = record.Find(mutant.base);
    if (base == nullptr) continue;
    Run(corpus::ApplyMutation(base->text, mutant.mutation));
    ++executions;
  }

  kbrepair::Rng rng(seed);
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(seconds);
  while (std::chrono::steady_clock::now() < deadline) {
    std::string text = rng.Choose(record.inputs).text;
    const int64_t edits = rng.UniformInt(1, 4);
    for (int64_t e = 0; e < edits; ++e) {
      text = corpus::ApplyMutation(text, corpus::RandomMutation(text, rng));
    }
    Run(text);
    ++executions;
  }
  std::printf("dlgp_fuzz_driver: %zu executions, seed %llu, no failure\n",
              executions, static_cast<unsigned long long>(seed));
  return 0;
}
