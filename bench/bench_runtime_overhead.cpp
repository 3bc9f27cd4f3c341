// Execution-time overhead of the runtime checks ("The cost of the runtime
// checks is limited by a selective instrumentation, avoiding unnecessary
// checks" — Section 5).
//
// Three EPCC-style hybrid kernels run under four instrumentation levels:
//   none        uninstrumented execution
//   selective   the paper's plan. NOTE: collectives inside loops are
//               control-dependent on the loop conditional, so Algorithm 1
//               conservatively warns and arms the CC protocol even on these
//               clean kernels — exactly the original tool's behaviour.
//   taint       selective + rank-taint refinement: loop bounds are
//               rank-uniform, the warnings disappear, and so do the checks
//               (the refinement's runtime payoff).
//   blanket     checks at every site (the ablation upper bound).
// The summary reports wall-clock overhead vs `none`, the number of CC
// agreements actually executed, and the synchronization rounds per
// collective (always 1.0: the runtime's only CC protocol rides inside the
// application collective's own slot; bench_cc_protocol measures the paper's
// dedicated round against it).
//
// Flags (accepted before the google-benchmark flags):
//   --json=PATH   write machine-readable results to PATH (BENCH_runtime.json
//                 in CI) with ns per kernel/level, overhead vs none, CC
//                 rounds and sync rounds per collective.
//   --smoke       skip the registered google-benchmark runs and produce the
//                 summary/JSON from fewer repetitions (CI smoke step).
#include "driver/pipeline.h"
#include "interp/executor.h"
#include "support/json_writer.h"
#include "support/str.h"

#include <benchmark/benchmark.h>

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <iostream>

namespace {

using namespace parcoach;

struct Kernel {
  const char* name;
  std::string source;
};

std::vector<Kernel> kernels() {
  auto loop_kernel = [](const char* name, const char* body, int reps) {
    return Kernel{name, str::cat("func main() {\n  mpi_init(serialized);\n"
                                 "  var x = rank() + 1;\n  for (r = 0 to ",
                                 reps, ") {\n", body,
                                 "  }\n  mpi_finalize();\n}\n")};
  };
  return {
      loop_kernel("serialized_allreduce",
                  "    omp parallel num_threads(2) {\n"
                  "      omp single {\n"
                  "        x = mpi_allreduce(x, sum);\n"
                  "      }\n"
                  "      omp for nowait (i = 0 to 64) {\n"
                  "        var w = i * 2;\n"
                  "      }\n"
                  "      omp barrier;\n"
                  "    }\n",
                  150),
      loop_kernel("masteronly_bcast_reduce",
                  "    x = mpi_bcast(x, 0);\n"
                  "    x = mpi_reduce(x, sum, 0);\n"
                  "    omp parallel num_threads(2) {\n"
                  "      omp for (i = 0 to 64) {\n"
                  "        var w = i + r;\n"
                  "      }\n"
                  "    }\n",
                  150),
      loop_kernel("funneled_barrier",
                  "    omp parallel num_threads(2) {\n"
                  "      omp barrier;\n"
                  "      omp master {\n"
                  "        mpi_barrier();\n"
                  "      }\n"
                  "      omp barrier;\n"
                  "    }\n",
                  150),
  };
}

enum class Level { None, Selective, Taint, Blanket };

constexpr const char* kLevelNames[] = {"none", "selective", "taint", "blanket"};

struct Compiled {
  SourceManager sm;
  driver::CompileResult result;
  core::InstrumentationPlan taint_plan;
  core::InstrumentationPlan blanket;
};

std::unique_ptr<Compiled> compile_kernel(const Kernel& k) {
  auto c = std::make_unique<Compiled>();
  DiagnosticEngine diags;
  driver::PipelineOptions opts;
  opts.mode = driver::Mode::WarningsAndCodegen;
  c->result = driver::compile(c->sm, k.name, k.source, diags, opts);
  if (!c->result.ok) std::abort();
  c->blanket = core::make_blanket_plan(*c->result.module);
  {
    SourceManager sm2;
    DiagnosticEngine d2;
    driver::PipelineOptions o2;
    o2.mode = driver::Mode::WarningsAndCodegen;
    o2.algorithm1.rank_taint_filter = true;
    const auto r2 = driver::compile(sm2, k.name, k.source, d2, o2);
    if (!r2.ok) std::abort();
    c->taint_plan = r2.plan;
  }
  return c;
}

struct RunStats {
  double ns = 0;
  uint64_t cc_rounds = 0;         // CC agreements executed (piggybacked)
  double rounds_per_coll = 1.0;   // sync rounds per collective: the lane adds none
};

RunStats run_once(const Compiled& c, Level level) {
  const core::InstrumentationPlan* plan = nullptr;
  if (level == Level::Selective) plan = &c.result.plan;
  if (level == Level::Taint) plan = &c.taint_plan;
  if (level == Level::Blanket) plan = &c.blanket;
  interp::Executor exec(c.result.program, c.sm, plan);
  interp::ExecOptions eopts;
  eopts.num_ranks = 2;
  eopts.num_threads = 2;
  eopts.mpi.hang_timeout = std::chrono::milliseconds(5000);
  const auto start = std::chrono::steady_clock::now();
  const auto result = exec.run(eopts);
  const auto ns = std::chrono::steady_clock::now() - start;
  if (!result.clean) std::abort();
  RunStats s;
  s.ns = static_cast<double>(ns.count());
  s.cc_rounds = result.mpi.cc_piggybacked;
  return s;
}

void bench_run(benchmark::State& state, size_t kernel, Level level) {
  static const auto ks = kernels();
  const auto c = compile_kernel(ks[kernel]);
  uint64_t cc = 0;
  for (auto _ : state) {
    const auto stats = run_once(*c, level);
    state.SetIterationTime(stats.ns / 1e9);
    cc = stats.cc_rounds;
  }
  state.counters["cc_rounds"] = benchmark::Counter(static_cast<double>(cc));
}

void register_benchmarks() {
  static const auto ks = kernels();
  static constexpr Level kLevels[] = {Level::None, Level::Selective,
                                      Level::Taint, Level::Blanket};
  for (size_t k = 0; k < ks.size(); ++k) {
    for (Level level : kLevels) {
      benchmark::RegisterBenchmark(
          (std::string("RuntimeOverhead/") + ks[k].name + "/" +
           kLevelNames[static_cast<size_t>(level)])
              .c_str(),
          [k, level](benchmark::State& st) { bench_run(st, k, level); })
          ->Unit(benchmark::kMillisecond)
          ->UseManualTime()
          ->Iterations(3);
    }
  }
}

double min_of(const std::vector<double>& v) {
  return *std::min_element(v.begin(), v.end());
}

struct LevelResult {
  double ns = 0;          // best-of-reps wall clock
  double overhead = 0;    // vs `none`, fractional
  uint64_t cc_rounds = 0;
  double rounds_per_coll = 1.0;
};

struct KernelResult {
  std::string kernel;
  LevelResult levels[4]; // indexed by Level
};

std::vector<KernelResult> measure_all(int reps) {
  std::vector<KernelResult> out;
  for (const auto& k : kernels()) {
    const auto c = compile_kernel(k);
    KernelResult kr;
    kr.kernel = k.name;
    std::vector<double> ns[4];
    for (int rep = 0; rep < reps; ++rep) {
      for (size_t l = 0; l < 4; ++l) {
        const auto s = run_once(*c, static_cast<Level>(l));
        ns[l].push_back(s.ns);
        kr.levels[l].cc_rounds = s.cc_rounds;
        kr.levels[l].rounds_per_coll = s.rounds_per_coll;
      }
    }
    for (size_t l = 0; l < 4; ++l) kr.levels[l].ns = min_of(ns[l]);
    for (size_t l = 0; l < 4; ++l)
      kr.levels[l].overhead = kr.levels[l].ns / kr.levels[0].ns - 1.0;
    out.push_back(std::move(kr));
  }
  return out;
}

void print_summary(const std::vector<KernelResult>& results, int reps) {
  std::cout << "\n=== Runtime-check overhead (2 ranks x 2 threads, best of "
            << reps << " runs) ===\n\n"
            << std::left << std::setw(26) << "kernel" << std::right
            << std::setw(12) << "none ms" << std::setw(14) << "selective %"
            << std::setw(10) << "taint %" << std::setw(12) << "blanket %"
            << std::setw(10) << "cc(sel)" << std::setw(10) << "cc(tnt)"
            << std::setw(10) << "cc(blkt)" << std::setw(12) << "rounds/coll"
            << '\n';
  for (const auto& kr : results) {
    std::cout << std::left << std::setw(26) << kr.kernel << std::right
              << std::setw(12) << std::fixed << std::setprecision(2)
              << kr.levels[0].ns / 1e6 << std::setw(13) << std::setprecision(1)
              << 100.0 * kr.levels[1].overhead << '%' << std::setw(9)
              << 100.0 * kr.levels[2].overhead << '%' << std::setw(11)
              << 100.0 * kr.levels[3].overhead << '%' << std::setw(10)
              << kr.levels[1].cc_rounds << std::setw(10)
              << kr.levels[2].cc_rounds << std::setw(10)
              << kr.levels[3].cc_rounds << std::setw(12)
              << std::setprecision(2) << kr.levels[3].rounds_per_coll << '\n';
  }
  std::cout << "\nShape to check: taint-refined plans drop to ~0% (zero CC "
               "rounds) on these clean\nkernels; unrefined selective pays "
               "CC on loop collectives (conservative Algorithm 1,\nas in "
               "the original tool); blanket is the upper bound. With the "
               "piggybacked protocol\nevery level runs 1.0 sync round per "
               "collective — the dedicated CC round is gone.\n";
}

void write_json(const std::string& path, const std::vector<KernelResult>& results) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path << "\n";
    std::exit(1);
  }
  JsonWriter w(os);
  w.begin_object();
  w.kv("protocol", "piggybacked");
  w.kv("engine", to_string(interp::ExecOptions{}.engine));
  w.key("kernels");
  w.begin_array();
  for (const auto& kr : results) {
    w.begin_object();
    w.kv("kernel", kr.kernel);
    w.key("levels");
    w.begin_object();
    for (size_t l = 0; l < 4; ++l) {
      const auto& lv = kr.levels[l];
      w.key(kLevelNames[l]);
      w.begin_object();
      w.kv("ns", static_cast<int64_t>(lv.ns));
      w.kv("overhead_vs_none", lv.overhead, 4);
      w.kv("cc_rounds", lv.cc_rounds);
      w.kv("sync_rounds_per_collective", lv.rounds_per_coll, 4);
      w.end_object();
    }
    w.end_object();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << "\n";
  std::cout << "wrote " << path << "\n";
}

} // namespace

int main(int argc, char** argv) {
  std::string json_path;
  bool smoke = false;
  // Strip our flags before handing argv to google-benchmark.
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--smoke") {
      smoke = true;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  if (!smoke) {
    register_benchmarks();
    benchmark::Initialize(&argc, argv);
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
  }
  const int reps = smoke ? 2 : 5;
  const auto results = measure_all(reps);
  print_summary(results, reps);
  if (!json_path.empty()) write_json(json_path, results);
  return 0;
}
