// Build provenance for every bench binary's JSON context.
//
// hyperion_bench() links this object into each bench, so a recorded BENCH
// file says which build type and compiler produced its numbers, and
// tools/check_bench_regression.py can refuse to compare a Release baseline
// with a Debug run. The commit comes from the command line:
//
//   ./build/bench/bench_lsm --benchmark_context=commit=$(git rev-parse HEAD) ...

#include <benchmark/benchmark.h>

namespace {

// AddCustomContext may run before main(): it allocates the context map on
// first use, and benchmark::Initialize adds the --benchmark_context pairs
// to the same map.
const bool kRegistered = [] {
  benchmark::AddCustomContext("build_type", HYPERION_BUILD_TYPE);
  benchmark::AddCustomContext("compiler", HYPERION_COMPILER);
  return true;
}();

}  // namespace
