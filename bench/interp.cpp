// `interp` family: the AST tree-walker vs the bytecode VM.
//
// The dynamic side of the validator only pays off if instrumented execution
// is fast enough for real workloads, and the interpreter is its dominant
// cost. The two engines race on:
//
//   corpus_interp_bound  an arithmetic/control-heavy kernel (1 rank, 1
//                        thread, MPI only at the edges): pure interpreter
//                        throughput, reported as ns/statement — the
//                        bytecode engine's pre-resolved slots must beat the
//                        tree-walker's scope-chain hash lookups by >= 3x;
//   corpus_clean_sweep   every Clean corpus entry executed end-to-end under
//                        its selective plan (the integration-suite shape);
//   npb_bt_mz / epcc     the Figure-1 workload generators at bench scale,
//                        reported as collectives/sec (MPI-bound, so the
//                        expected win is smaller but must not regress).
//
// BENCH_interp.json is gated by scripts/bench_guard.py against
// bench/BENCH_interp.baseline.json. --opmix runs the scenarios once with
// opcode-mix profiling and prints the retire histogram (vm.op.* counters)
// instead of timing: the workflow that picks fusion candidates.
#include "runner.h"
#include "support/metrics.h"
#include "support/str.h"
#include "workloads/corpus.h"
#include "workloads/workloads.h"

#include <iomanip>
#include <iostream>

namespace parcoach::bench {
namespace {

constexpr interp::Engine kEngines[] = {interp::Engine::Ast,
                                       interp::Engine::Bytecode};

/// Arithmetic/control-heavy kernel. Statements executed per outer iteration
/// (exec_stmt invocations in the AST engine): var t, t=, if, branch assign,
/// var j, while entry, 4 * (2 body stmts), acc= -> ~15; used as the common
/// ns/statement denominator for both engines.
constexpr int kStmtsPerIter = 15;

std::string interp_bound_source(int64_t iters) {
  return str::cat(R"(func kernel(n) {
  var acc = 0;
  for (i = 0 to n) {
    var t = i * 3 + acc;
    t = t % 1009;
    if (t % 2 == 0) {
      acc = acc + t;
    } else {
      acc = acc - t / 2;
    }
    var j = 0;
    while (j < 4) {
      acc = acc + j * i;
      j = j + 1;
    }
    acc = acc % 100003;
  }
  return acc;
}
func main() {
  mpi_init(single);
  var r = kernel()", iters, R"();
  var s = mpi_allreduce(r, sum);
  print(s);
  mpi_finalize();
}
)");
}

workloads::GeneratedProgram npb_bt_mz() {
  workloads::NpbParams np;
  np.zones = 4;
  np.steps = 2;
  np.threads = 2;
  np.stages = 2;
  return workloads::make_npb_mz(workloads::NpbVariant::BT, np);
}

std::unique_ptr<Compiled> compile_tainted(const std::string& name,
                                          const std::string& source) {
  driver::PipelineOptions opts;
  opts.algorithm1.rank_taint_filter = true;
  return compile(name, source, opts);
}

interp::ExecOptions exec_options(interp::Engine engine, int32_t ranks,
                                 int32_t threads) {
  interp::ExecOptions eopts;
  eopts.engine = engine;
  eopts.num_ranks = ranks;
  eopts.num_threads = threads;
  eopts.max_steps = 200'000'000;
  eopts.mpi.hang_timeout = std::chrono::milliseconds(10000);
  return eopts;
}

TimedRun run_engine(const Compiled& c, interp::Engine engine, int32_t ranks,
                    int32_t threads) {
  return run(c, &c.result.plan, exec_options(engine, ranks, threads));
}

struct EngineResult {
  double wall_ms = 0;     // best of reps
  double ns_per_stmt = 0; // interp-bound scenarios
  double ns_per_coll = 0; // collective scenarios
  double colls_per_sec = 0;
  uint64_t bytecode_ops = 0;
};

struct ScenarioResult {
  std::string name;
  std::string kind; // "ns_per_stmt" | "collectives_per_sec" | "wall_ms"
  uint64_t work_stmts = 0;
  EngineResult engines[2]; // indexed by Engine
  [[nodiscard]] double speedup() const {
    const double a = engines[0].wall_ms, b = engines[1].wall_ms;
    return b > 0 ? a / b : 0;
  }
};

ScenarioResult measure_interp_bound(int reps, int64_t iters) {
  const auto c =
      compile_tainted("corpus_interp_bound", interp_bound_source(iters));
  ScenarioResult sr;
  sr.name = "corpus_interp_bound";
  sr.kind = "ns_per_stmt";
  sr.work_stmts = static_cast<uint64_t>(iters) * kStmtsPerIter;
  for (size_t e = 0; e < 2; ++e) {
    const double best = best_of(reps, [&] {
      const auto t = run_engine(*c, kEngines[e], 1, 1);
      sr.engines[e].bytecode_ops = t.result.mpi.bytecode_ops;
      return t.ns;
    });
    sr.engines[e].wall_ms = best / 1e6;
    sr.engines[e].ns_per_stmt = best / static_cast<double>(sr.work_stmts);
  }
  return sr;
}

ScenarioResult measure_corpus_sweep(int reps) {
  // Compile every deterministic Clean entry once; time the full sweep.
  std::vector<std::unique_ptr<Compiled>> cases;
  std::vector<std::pair<int32_t, int32_t>> shapes;
  for (const auto& e : workloads::corpus()) {
    if (e.dynamic != workloads::DynamicOutcome::Clean) continue;
    cases.push_back(compile_tainted(e.name, e.source));
    shapes.emplace_back(e.ranks, e.threads);
  }
  ScenarioResult sr;
  sr.name = "corpus_clean_sweep";
  sr.kind = "wall_ms";
  for (size_t e = 0; e < 2; ++e) {
    sr.engines[e].wall_ms = best_of(reps, [&] {
      return time_ns([&] {
        for (size_t i = 0; i < cases.size(); ++i)
          run_engine(*cases[i], kEngines[e], shapes[i].first,
                     shapes[i].second);
      });
    }) / 1e6;
  }
  return sr;
}

ScenarioResult measure_workload(const std::string& name,
                                const workloads::GeneratedProgram& g,
                                int reps, int32_t ranks, int32_t threads) {
  const auto c = compile_tainted(g.name, g.source);
  ScenarioResult sr;
  sr.name = name;
  sr.kind = "collectives_per_sec";
  for (size_t e = 0; e < 2; ++e) {
    uint64_t slots = 0;
    const double best = best_of(reps, [&] {
      const auto t = run_engine(*c, kEngines[e], ranks, threads);
      slots = t.result.mpi.app_slots_completed;
      sr.engines[e].bytecode_ops = t.result.mpi.bytecode_ops;
      return t.ns;
    });
    sr.engines[e].wall_ms = best / 1e6;
    if (slots > 0) {
      sr.engines[e].ns_per_coll = best / static_cast<double>(slots);
      sr.engines[e].colls_per_sec = 1e9 / sr.engines[e].ns_per_coll;
    }
  }
  return sr;
}

std::vector<ScenarioResult> measure_all(bool smoke) {
  const int reps = smoke ? 3 : 5;
  std::vector<ScenarioResult> out;
  out.push_back(measure_interp_bound(reps, smoke ? 60'000 : 200'000));
  out.push_back(measure_corpus_sweep(smoke ? 1 : 3));
  out.push_back(measure_workload("npb_bt_mz", npb_bt_mz(), reps, 2, 2));
  workloads::EpccParams ep;
  ep.reps = smoke ? 3 : 6;
  ep.threads = 2;
  ep.data_sizes = 4;
  out.push_back(
      measure_workload("epcc", workloads::make_epcc_suite(ep), reps, 2, 2));
  return out;
}

void print_table(const std::vector<ScenarioResult>& results) {
  std::cout << "\n=== Execution engines: AST tree-walker vs bytecode VM ===\n\n"
            << std::left << std::setw(24) << "scenario" << std::right
            << std::setw(14) << "ast ms" << std::setw(14) << "bytecode ms"
            << std::setw(10) << "speedup" << std::setw(16) << "ast ns/stmt"
            << std::setw(14) << "bc ns/stmt" << '\n';
  for (const auto& sr : results) {
    std::cout << std::left << std::setw(24) << sr.name << std::right
              << std::fixed << std::setprecision(2) << std::setw(14)
              << sr.engines[0].wall_ms << std::setw(14)
              << sr.engines[1].wall_ms << std::setw(9)
              << std::setprecision(2) << sr.speedup() << 'x';
    if (sr.kind == "ns_per_stmt")
      std::cout << std::setw(16) << std::setprecision(1)
                << sr.engines[0].ns_per_stmt << std::setw(14)
                << sr.engines[1].ns_per_stmt;
    std::cout << '\n';
  }
  std::cout << "\nShape to check: corpus_interp_bound is pure interpreter "
               "work, so the bytecode VM's\npre-resolved slots and flat "
               "dispatch should win >= 3x; the MPI-bound workloads are\n"
               "dominated by slot matching, so their win is smaller but must "
               "never dip below 1x.\n";
}

void write_interp_json(const Options& opts,
                       const std::vector<ScenarioResult>& results) {
  write_json(opts, "BENCH_interp.json", [&](JsonWriter& w) {
    w.begin_object();
    w.key("engines");
    w.begin_array();
    w.value("ast");
    w.value("bytecode");
    w.end_array();
    w.key("scenarios");
    w.begin_array();
    for (const auto& sr : results) {
      w.begin_object();
      w.kv("scenario", sr.name);
      w.kv("kind", sr.kind);
      if (sr.work_stmts > 0) w.kv("stmts", sr.work_stmts);
      for (size_t e = 0; e < 2; ++e) {
        const auto& er = sr.engines[e];
        w.key(e == 0 ? "ast" : "bytecode");
        w.begin_object();
        w.kv("wall_ms", er.wall_ms, 3);
        if (sr.kind == "ns_per_stmt") w.kv("ns_per_stmt", er.ns_per_stmt, 2);
        if (sr.kind == "collectives_per_sec") {
          w.kv("ns_per_collective", er.ns_per_coll, 1);
          w.kv("collectives_per_sec", er.colls_per_sec, 0);
        }
        if (e == 1 && er.bytecode_ops > 0)
          w.kv("bytecode_ops", er.bytecode_ops);
        w.end_object();
      }
      w.kv("speedup", sr.speedup(), 3);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  });
}

/// Runs one scenario under the bytecode engine with vm.op.* profiling on and
/// prints the retire histogram, highest share first. A hot Load/Const/compare
/// shape at the top of this table is the next fusion candidate in
/// bc_passes.cpp.
void profile_opmix(const std::string& name, const Compiled& c, int32_t ranks,
                   int32_t threads) {
  auto eopts = exec_options(interp::Engine::Bytecode, ranks, threads);
  eopts.opmix = true;
  MetricsRegistry metrics;
  eopts.metrics = &metrics;
  (void)run(c, &c.result.plan, eopts);
  std::vector<std::pair<std::string, uint64_t>> ops;
  uint64_t total = 0;
  for (const auto& s : metrics.snapshot()) {
    if (s.name.rfind("vm.op.", 0) != 0) continue;
    ops.emplace_back(s.name.substr(6), s.value);
    total += s.value;
  }
  std::sort(ops.begin(), ops.end(), [](const auto& a, const auto& b) {
    return a.second != b.second ? a.second > b.second : a.first < b.first;
  });
  std::cout << "\n--- opcode mix: " << name << " (" << total
            << " instructions retired) ---\n";
  for (const auto& [op, n] : ops)
    std::cout << "  " << std::left << std::setw(14) << op << std::right
              << std::setw(12) << n << std::setw(7) << std::fixed
              << std::setprecision(1)
              << 100.0 * static_cast<double>(n) / static_cast<double>(total)
              << "%\n";
}

} // namespace

bool run_interp(const Options& opts) {
  if (opts.opmix) {
    profile_opmix("corpus_interp_bound",
                  *compile_tainted("corpus_interp_bound",
                                   interp_bound_source(60'000)),
                  1, 1);
    const auto g = npb_bt_mz();
    profile_opmix("npb_bt_mz", *compile_tainted(g.name, g.source), 2, 2);
    return true;
  }
  const auto results = measure_all(opts.smoke);
  print_table(results);
  write_interp_json(opts, results);
  return true;
}

} // namespace parcoach::bench
