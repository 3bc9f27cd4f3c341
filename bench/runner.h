// parcoach_bench: one driver for every micro-benchmark family in bench/.
//
// Usage: parcoach_bench FAMILY|all [--smoke] [--json-dir=DIR] [--opmix]
//   static     Figure-1 compile overhead, HERA analysis scaling, label
//              keying, per-stage analysis times, Algorithm-1 refinements
//   simmpi     collective latency curves, multithreaded allreduce,
//              nonblocking shapes, comm scaling, CC protocol rounds
//   overhead   cost of the runtime checks, the tracer and the fault layer
//   selective  selective vs blanket instrumentation, comm-class arming
//   interp     AST tree-walker vs bytecode VM
//   --smoke     fewer repetitions (CI and the bench_smoke test)
//   --json-dir  write each family's BENCH_*.json files into DIR
//   --opmix     interp only: print the bytecode opcode mix instead of timing
//
// Exit status: 0 when every family's self-checks hold, 1 when one fails,
// 2 on a usage error. A run that breaks an invariant the bench relies on
// (an unclean program, a wrong slot count) aborts the process at once.
#pragma once

#include "driver/pipeline.h"
#include "interp/executor.h"
#include "support/json_writer.h"

#include <algorithm>
#include <chrono>
#include <functional>
#include <limits>
#include <memory>
#include <string>

namespace parcoach::bench {

struct Options {
  bool smoke = false;
  std::string json_dir; // empty: no JSON output
  bool opmix = false;
};

// Each family prints its tables to stdout and returns false when one of its
// self-checks fails.
bool run_static(const Options& opts);
bool run_simmpi(const Options& opts);
bool run_overhead(const Options& opts);
bool run_selective(const Options& opts);
bool run_interp(const Options& opts);

/// Wall-clock nanoseconds of one call of `fn`.
template <typename Fn>
double time_ns(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return static_cast<double>(
      (std::chrono::steady_clock::now() - start).count());
}

/// Minimum of `reps` calls of `fn` (each returns a duration): the best-of-N
/// statistic every table reports, robust against machine noise.
template <typename Fn>
double best_of(int reps, Fn&& fn) {
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < reps; ++rep) best = std::min(best, fn());
  return best;
}

/// Writes DIR/`file` through `fill` when --json-dir is set; a file that
/// cannot be opened exits the process with status 1.
void write_json(const Options& opts, const std::string& file,
                const std::function<void(JsonWriter&)>& fill);

/// Aborts the process with `what` on stderr.
[[noreturn]] void fail(const std::string& what);

/// A program compiled once and run many times.
struct Compiled {
  SourceManager sm;
  driver::CompileResult result;
};

/// Compiles `source`; a compile error aborts (bench inputs are fixed).
std::unique_ptr<Compiled> compile(const std::string& name,
                                  const std::string& source,
                                  const driver::PipelineOptions& opts = {});

struct TimedRun {
  double ns = 0;
  interp::ExecResult result;
};

/// Runs `c` once under `plan` (null: uninstrumented); a run that is not
/// clean aborts.
TimedRun run(const Compiled& c, const core::InstrumentationPlan* plan,
             const interp::ExecOptions& eopts);

} // namespace parcoach::bench
