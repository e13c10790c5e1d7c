// Deliberate unregistered failure point: notify() of a name that is not a
// row of src/core/failure_points.hpp.
//
// This file is NOT part of any library or test target.  tests/
// CMakeLists.txt feeds it straight to the compiler with -fsyntax-only
// twice, on every compiler:
//   * with PERSEAS_UNREGISTERED_POINT defined, under a ctest entry marked
//     WILL_FAIL: the test PASSES precisely when the typo'd name FAILS to
//     compile, proving core::points::PointId's consteval conversion has
//     teeth;
//   * without it, as the positive control: the same file must compile, so
//     the first entry cannot pass on an unrelated error.
#include "sim/failure.hpp"

int main() {
  perseas::sim::FailureInjector injector;
  injector.notify("perseas.commit.done");
#ifdef PERSEAS_UNREGISTERED_POINT
  injector.notify("perseas.commit.dome");
#endif
  return injector.hits("perseas.commit.done") == 1 ? 0 : 1;
}
