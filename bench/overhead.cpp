// `overhead` family: what an optional layer costs on clean hybrid kernels.
// Every study runs its kernels uninstrumented-or-not under a list of
// variants (2 ranks x 2 threads, variants interleaved per repetition, best
// of N runs) and reports each variant's overhead against the first one.
//
//   runtime  the runtime checks ("the cost of the runtime checks is limited
//            by a selective instrumentation" — Section 5):
//              none       uninstrumented execution
//              selective  the paper's plan. Collectives inside loops are
//                         control-dependent on the loop conditional, so
//                         Algorithm 1 conservatively arms the CC protocol
//                         even on these clean kernels, as the original
//                         tool does.
//              taint      selective + rank-taint refinement: loop bounds are
//                         rank-uniform, so the warnings and the checks go
//              blanket    checks at every site (the ablation upper bound)
//            plus the CC agreements executed and the sync rounds per
//            collective, measured as slots completed against `none` (an
//            armed run adds one exit-sentinel slot, nothing per collective).
//   trace    the flight recorder: no Tracer, a disabled Tracer (one branch
//            on a cached null pointer per emit point), an enabled one.
//   fault    the fault injector: none, a disabled injector (filtered to
//            null by effective()), an armed one whose crash never fires
//            (the live per-arrival counter). BENCH_fault.json is gated by
//            scripts/bench_guard.py --fault.
//
// JSON (BENCH_runtime.json, BENCH_trace.json, BENCH_fault.json), one schema:
// {"ranks", "kernels": [{"kernel", "variants": {NAME: {"ns" (best of N),
// "ns_per_collective", "overhead_vs_baseline", and per study "cc_rounds" +
// "sync_rounds_per_collective" or "events_captured"}}}]}.
#include "runner.h"
#include "support/fault.h"
#include "support/str.h"
#include "support/trace.h"

#include <iomanip>
#include <iostream>

namespace parcoach::bench {
namespace {

struct Kernel {
  const char* name;
  std::string source;
};

/// `body` repeated `reps` times inside one serialized-MPI main.
Kernel loop_kernel(const char* name, bool with_x, int reps, const char* body) {
  return {name, str::cat("func main() {\n  mpi_init(serialized);\n",
                         with_x ? "  var x = rank() + 1;\n" : "",
                         "  for (r = 0 to ", reps, ") {\n", body,
                         "  }\n  mpi_finalize();\n}\n")};
}

Kernel funneled_barrier() {
  return loop_kernel("funneled_barrier", false, 150,
                     "    omp parallel num_threads(2) {\n"
                     "      omp barrier;\n"
                     "      omp master {\n"
                     "        mpi_barrier();\n"
                     "      }\n"
                     "      omp barrier;\n"
                     "    }\n");
}

Kernel bcast_reduce_loop() {
  return loop_kernel("bcast_reduce_loop", true, 300,
                     "    x = mpi_bcast(x, 0);\n"
                     "    x = mpi_reduce(x, sum, 0);\n");
}

enum class Plan { None, Selective, Taint, Blanket };
enum class Hook { None, TracerOff, TracerOn, FaultOff, FaultIdle };

struct Variant {
  const char* name;
  Plan plan = Plan::None;
  Hook hook = Hook::None;
};

struct Study {
  const char* title;
  const char* json_file;
  std::vector<Kernel> kernels;
  std::vector<Variant> variants; // [0] is the baseline
  bool cc_columns = false;       // cc_rounds + sync rounds per collective
  bool event_columns = false;    // trace events captured
  const char* shape;
};

std::vector<Study> studies() {
  return {
      {"Runtime-check overhead",
       "BENCH_runtime.json",
       {loop_kernel("serialized_allreduce", true, 150,
                    "    omp parallel num_threads(2) {\n"
                    "      omp single {\n"
                    "        x = mpi_allreduce(x, sum);\n"
                    "      }\n"
                    "      omp for nowait (i = 0 to 64) {\n"
                    "        var w = i * 2;\n"
                    "      }\n"
                    "      omp barrier;\n"
                    "    }\n"),
        loop_kernel("masteronly_bcast_reduce", true, 150,
                    "    x = mpi_bcast(x, 0);\n"
                    "    x = mpi_reduce(x, sum, 0);\n"
                    "    omp parallel num_threads(2) {\n"
                    "      omp for (i = 0 to 64) {\n"
                    "        var w = i + r;\n"
                    "      }\n"
                    "    }\n"),
        funneled_barrier()},
       {{"none"},
        {"selective", Plan::Selective},
        {"taint", Plan::Taint},
        {"blanket", Plan::Blanket}},
       true,
       false,
       "taint-refined plans drop to ~0% (zero CC rounds) on these clean\n"
       "kernels; unrefined selective pays CC on loop collectives (conservative "
       "Algorithm 1,\nas in the original tool); blanket is the upper bound. "
       "With the piggybacked protocol\nno level adds a sync round per "
       "collective — the dedicated CC round is gone; rounds/coll\nsits above "
       "1.0 only by the one exit-sentinel slot per run (checked)."},
      {"Flight-recorder overhead",
       "BENCH_trace.json",
       {bcast_reduce_loop(), funneled_barrier()},
       {{"baseline"},
        {"traced_off", Plan::None, Hook::TracerOff},
        {"traced_on", Plan::None, Hook::TracerOn}},
       false,
       true,
       "traced_off must sit on the baseline (the disabled layer is one\n"
       "branch on a cached null pointer per emit point — <1% is the budget); "
       "traced_on\npays for ring writes but must stay within a small constant "
       "factor."},
      {"Fault-injection overhead",
       "BENCH_fault.json",
       {bcast_reduce_loop(), funneled_barrier()},
       {{"baseline"},
        {"fault_off", Plan::None, Hook::FaultOff},
        {"fault_idle", Plan::None, Hook::FaultIdle}},
       false,
       false,
       "fault_off must sit on the baseline (the disabled layer is one\n"
       "branch on a cached null pointer per hook — <1% is the budget); "
       "fault_idle pays\nfor one relaxed fetch_add per collective arrival and "
       "should stay within a\nfew percent."},
  };
}

/// A kernel with every plan a variant may ask for.
struct KernelPlans {
  std::unique_ptr<Compiled> c;
  core::InstrumentationPlan taint;
  core::InstrumentationPlan blanket;
};

KernelPlans compile_kernel(const Kernel& k) {
  KernelPlans kp;
  kp.c = compile(k.name, k.source);
  kp.blanket = core::make_blanket_plan(*kp.c->result.module);
  driver::PipelineOptions taint;
  taint.algorithm1.rank_taint_filter = true;
  kp.taint = compile(k.name, k.source, taint)->result.plan;
  return kp;
}

struct RunStats {
  double ns = 0;
  uint64_t slots = 0;     // application collectives completed
  uint64_t cc_rounds = 0; // CC agreements executed (piggybacked)
  uint64_t events = 0;    // trace events captured
};

RunStats run_variant(const KernelPlans& kp, const Variant& v) {
  const core::InstrumentationPlan* plan = nullptr;
  if (v.plan == Plan::Selective) plan = &kp.c->result.plan;
  if (v.plan == Plan::Taint) plan = &kp.taint;
  if (v.plan == Plan::Blanket) plan = &kp.blanket;
  // Fresh tracer and injector per run: ring registration and the per-rank
  // arrival counters are run state that reuse would flatter.
  std::unique_ptr<Tracer> tracer;
  if (v.hook == Hook::TracerOff)
    tracer = std::make_unique<Tracer>(Tracer::Options{/*enabled=*/false});
  if (v.hook == Hook::TracerOn) tracer = std::make_unique<Tracer>();
  std::unique_ptr<FaultInjector> inj;
  if (v.hook == Hook::FaultOff || v.hook == Hook::FaultIdle) {
    FaultPlan fp;
    fp.enabled = v.hook == Hook::FaultIdle; // off: filtered by effective()
    fp.crash_rank = 0;
    fp.crash_at = 1u << 30; // never reached: counter cost only
    inj = std::make_unique<FaultInjector>(fp, 2);
  }
  interp::ExecOptions eopts;
  eopts.num_ranks = 2;
  eopts.num_threads = 2;
  eopts.mpi.hang_timeout = std::chrono::milliseconds(5000);
  eopts.tracer = tracer.get();
  eopts.mpi.fault = inj.get();
  const auto t = run(*kp.c, plan, eopts);
  if (inj && inj->crashes_fired() != 0) fail("idle fault injector fired");
  return {t.ns, t.result.mpi.app_slots_completed, t.result.mpi.cc_piggybacked,
          tracer ? tracer->events_captured() : 0};
}

struct VariantResult {
  double ns = 0;          // best of reps
  double ns_per_coll = 0; // best of reps / baseline app collectives
  double overhead = 0;    // vs the baseline variant, fractional
  double rounds_per_coll = 0;
  RunStats last;
};

using KernelResult = std::vector<VariantResult>; // indexed like variants

std::vector<KernelResult> measure(const Study& s, int reps) {
  std::vector<KernelResult> out;
  for (const auto& k : s.kernels) {
    const auto kp = compile_kernel(k);
    KernelResult kr(s.variants.size());
    for (auto& vr : kr) vr.ns = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < reps; ++rep) {
      for (size_t v = 0; v < kr.size(); ++v) {
        kr[v].last = run_variant(kp, s.variants[v]);
        kr[v].ns = std::min(kr[v].ns, kr[v].last.ns);
      }
    }
    const double base_slots =
        static_cast<double>(std::max<uint64_t>(kr[0].last.slots, 1));
    for (auto& vr : kr) {
      vr.ns_per_coll = vr.ns / base_slots;
      vr.overhead = vr.ns / kr[0].ns - 1.0;
      vr.rounds_per_coll = static_cast<double>(vr.last.slots) / base_slots;
    }
    out.push_back(std::move(kr));
  }
  return out;
}

void print_table(const Study& s, const std::vector<KernelResult>& results,
                 int reps) {
  std::cout << "\n=== " << s.title << " (2 ranks x 2 threads, best of " << reps
            << " runs) ===\n\n"
            << std::left << std::setw(26) << "kernel" << std::right
            << std::setw(10) << "base ms" << std::setw(13) << "base ns/c";
  for (size_t v = 1; v < s.variants.size(); ++v)
    std::cout << std::setw(13) << str::cat(s.variants[v].name, " %");
  if (s.cc_columns) {
    for (size_t v = 1; v < s.variants.size(); ++v)
      std::cout << std::setw(14) << str::cat("cc(", s.variants[v].name, ")");
    std::cout << std::setw(13) << "rounds/coll";
  }
  if (s.event_columns) std::cout << std::setw(10) << "events";
  std::cout << '\n';
  for (size_t k = 0; k < results.size(); ++k) {
    const auto& kr = results[k];
    std::cout << std::left << std::setw(26) << s.kernels[k].name << std::right
              << std::fixed << std::setprecision(2) << std::setw(10)
              << kr[0].ns / 1e6 << std::setprecision(0) << std::setw(13)
              << kr[0].ns_per_coll << std::setprecision(2);
    for (size_t v = 1; v < kr.size(); ++v)
      std::cout << std::setw(12) << 100.0 * kr[v].overhead << '%';
    if (s.cc_columns) {
      for (size_t v = 1; v < kr.size(); ++v)
        std::cout << std::setw(14) << kr[v].last.cc_rounds;
      std::cout << std::setw(13) << std::setprecision(3)
                << kr.back().rounds_per_coll;
    }
    if (s.event_columns) std::cout << std::setw(10) << kr.back().last.events;
    std::cout << '\n';
  }
  std::cout << "\nShape to check: " << s.shape << '\n';
}

void write_study_json(const Options& opts, const Study& s,
                      const std::vector<KernelResult>& results) {
  write_json(opts, s.json_file, [&](JsonWriter& w) {
    w.begin_object();
    w.kv("ranks", 2);
    w.key("kernels");
    w.begin_array();
    for (size_t k = 0; k < results.size(); ++k) {
      w.begin_object();
      w.kv("kernel", s.kernels[k].name);
      w.key("variants");
      w.begin_object();
      for (size_t v = 0; v < results[k].size(); ++v) {
        const auto& vr = results[k][v];
        w.key(s.variants[v].name);
        w.begin_object();
        w.kv("ns", static_cast<int64_t>(vr.ns));
        w.kv("ns_per_collective", vr.ns_per_coll, 1);
        w.kv("overhead_vs_baseline", vr.overhead, 4);
        if (s.cc_columns) {
          w.kv("cc_rounds", vr.last.cc_rounds);
          w.kv("sync_rounds_per_collective", vr.rounds_per_coll, 4);
        }
        if (s.event_columns) w.kv("events_captured", vr.last.events);
        w.end_object();
      }
      w.end_object();
      w.end_object();
    }
    w.end_array();
    w.end_object();
  });
}

} // namespace

bool run_overhead(const Options& opts) {
  const int reps = opts.smoke ? 2 : 5;
  bool ok = true;
  for (const auto& s : studies()) {
    const auto results = measure(s, reps);
    print_table(s, results, reps);
    write_study_json(opts, s, results);
    // The CC lane rides inside the application collective's own slot, so no
    // plan adds a round per collective; an armed world pays one exit-sentinel
    // (Finalize) slot per run.
    if (s.cc_columns)
      for (const auto& kr : results)
        for (const auto& vr : kr) ok &= vr.last.slots <= kr[0].last.slots + 1;
  }
  if (!ok)
    std::cerr << "FAIL: an instrumentation level added sync rounds beyond the "
                 "exit sentinel\n";
  return ok;
}

} // namespace parcoach::bench
