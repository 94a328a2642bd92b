// Writes the golden dialogue record that dialogue_golden_test checks
// (format: tests/dialogue_golden.h). Run it only for a deliberate change
// of dialogue output, from the source root:
//
//   ./build/tests/dialogue_golden_record > tests/data/dialogue_golden.txt

#include <iostream>

#include "dialogue_golden.h"

int main() {
  namespace golden = kbrepair::dialogue_golden;
  std::cout << "# Golden inquiry dialogues; see tests/dialogue_golden_test.cc.\n"
               "# Format: tests/dialogue_golden.h.\n";
  for (const golden::Case& c : golden::AllCases()) {
    std::cout << golden::Key(c) << " "
              << golden::Digest(golden::Transcript(c)) << "\n";
  }
  return 0;
}
