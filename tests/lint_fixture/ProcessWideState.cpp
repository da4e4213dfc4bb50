// Input for the analysis_state_lint_trips test: exactly three lines below
// declare process-wide state, and the rest must pass the lint.
#include <mutex>

namespace {

struct Table {
  std::mutex M;                             // flagged: a std mutex
  static Table &get();                      // a static member function
  static constexpr unsigned Cap = 8;        // constexpr
};

int counter() {
  thread_local int Calls = 0;               // flagged: a thread_local
  static const int Base = 3;                // const
  static std::vector<int> Seen;             // flagged: a mutable static
  return static_cast<int>(Base + ++Calls);  // static_cast
}

} // namespace
