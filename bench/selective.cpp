// `selective` family: Ablation A — selective vs blanket instrumentation,
// per comm class.
//
// The paper's selective instrumentation only inserts checks where the static
// analysis could not prove correctness. This family quantifies the win on
// two axes:
//   static   checks inserted across the corpus and the Figure-1 suites
//            (selective vs blanket), and plan construction + materialization
//            cost on HERA;
//   dynamic  the comm-class arming matrix: scenarios where a *clean*
//            communicator (world, or N clean subcomms) does the hot-loop
//            work while a *dirty* communicator is statically flagged. The
//            clean comm runs the unarmed zero-overhead path — no CC lane,
//            no id bookkeeping — so its ns/collective must sit on top of the
//            uninstrumented baseline while the dirty comm stays fully
//            checked. Program-wide arming (the pre-matrix behaviour) is the
//            comparison upper bound.
//
// BENCH_selective.json: per scenario the site/class census, armed vs skipped
// sites, and ns/collective per arming level.
#include "core/instrumentation.h"
#include "runner.h"
#include "support/str.h"
#include "workloads/corpus.h"
#include "workloads/workloads.h"

#include <iomanip>
#include <iostream>

namespace parcoach::bench {
namespace {

// ---- Static census (selective vs blanket) -----------------------------------

struct Row {
  std::string name;
  size_t collective_sites = 0;
  size_t selective_checks = 0;
  size_t blanket_checks = 0;
};

Row measure(const std::string& name, const std::string& source) {
  const auto c = compile(name, source);
  return {name, c->result.plan.total_collective_sites,
          c->result.plan.check_count(),
          core::make_blanket_plan(*c->result.module).check_count()};
}

double saved_pct(size_t selective, size_t blanket) {
  return blanket == 0 ? 0.0
                      : 100.0 * (1.0 - static_cast<double>(selective) /
                                           static_cast<double>(blanket));
}

void print_static_table() {
  std::vector<Row> rows;
  for (const auto& e : workloads::corpus())
    rows.push_back(measure(e.name, e.source));
  for (const auto& g : workloads::figure1_suite())
    rows.push_back(measure(g.name, g.source));

  std::cout << "\n=== Ablation A: selective vs blanket instrumentation ===\n\n"
            << std::left << std::setw(34) << "program" << std::right
            << std::setw(8) << "sites" << std::setw(12) << "selective"
            << std::setw(10) << "blanket" << std::setw(12) << "saved %"
            << '\n';
  size_t tot_sel = 0, tot_blk = 0;
  for (const auto& r : rows) {
    tot_sel += r.selective_checks;
    tot_blk += r.blanket_checks;
    std::cout << std::left << std::setw(34) << r.name << std::right
              << std::setw(8) << r.collective_sites << std::setw(12)
              << r.selective_checks << std::setw(10) << r.blanket_checks
              << std::setw(11) << std::fixed << std::setprecision(1)
              << saved_pct(r.selective_checks, r.blanket_checks) << "%\n";
  }
  std::cout << std::left << std::setw(34) << "TOTAL" << std::right
            << std::setw(8) << ' ' << std::setw(12) << tot_sel << std::setw(10)
            << tot_blk << std::setw(11) << saved_pct(tot_sel, tot_blk)
            << "%\n";
  std::cout << "\nClean programs (the suites, clean_* corpus entries) get "
               "zero checks; only programs\nwith potential errors pay for "
               "verification. Buggy programs still check fewer sites\nthan "
               "blanket when phase-1/2 findings are localized.\n";
}

/// Plan construction + materialization on HERA, the largest subject. Each
/// repetition works on a freshly compiled module (apply mutates it); only
/// the plan and apply calls are timed.
void print_plan_and_apply(int reps) {
  const auto g = workloads::figure1_suite()[4]; // HERA, the largest
  driver::PipelineOptions opts;
  opts.mode = driver::Mode::Warnings;
  std::cout << "\nplan+apply on " << g.name << " (best of " << reps << "):";
  for (const bool blanket : {false, true}) {
    size_t inserted = 0;
    const double best = best_of(reps, [&] {
      const auto c = compile(g.name, g.source, opts);
      auto& r = c->result;
      return time_ns([&] {
        const auto plan = blanket ? core::make_blanket_plan(*r.module)
                                  : core::make_plan(*r.module, r.phases,
                                                    r.algorithm1);
        inserted = core::apply_plan(*r.module, plan);
      });
    });
    std::cout << (blanket ? "  blanket " : "  selective ") << std::fixed
              << std::setprecision(1) << best / 1e3 << " us (" << inserted
              << " instrs inserted)";
  }
  std::cout << '\n';
}

// ---- Dynamic comm scenarios (the arming matrix at runtime) ------------------
//
// Each scenario has a "dirty" communicator: a rank-dependent conditional
// whose branches run the SAME sequence on it, so Algorithm 1 flags the class
// (match_sequences is off, like the original tool) but the program runs
// clean — the armed comm is fully checked on every iteration while the
// clean comms never touch the CC lane. The hot loop is on the clean
// comm(s); its bound is rank-uniform, so the rank-taint refinement keeps
// the clean classes unarmed (without it, Algorithm 1 conservatively flags
// every loop-carried collective — the `overhead` family's runtime study).

struct Scenario {
  const char* name;
  std::string source;
};

std::vector<Scenario> scenarios(int reps) {
  const std::string dirty_subcomm =
      "  if (rank() >= 0) {\n"
      "    x = mpi_allreduce(x, sum, d);\n"
      "  } else {\n"
      "    x = mpi_allreduce(x, sum, d);\n"
      "  }\n";
  return {
      {"clean_world+dirty_subcomm",
       str::cat("func main() {\n  mpi_init(single);\n"
                "  var d = mpi_comm_dup();\n  var x = rank() + 1;\n",
                dirty_subcomm,
                "  for (r = 0 to ", reps, ") {\n"
                "    x = mpi_allreduce(x, sum);\n"
                "  }\n"
                "  mpi_comm_free(d);\n  mpi_finalize();\n}\n")},
      {"3_clean_subcomms+1_dirty",
       str::cat("func main() {\n  mpi_init(single);\n"
                "  var a = mpi_comm_dup();\n  var b = mpi_comm_dup();\n"
                "  var c = mpi_comm_dup();\n  var d = mpi_comm_dup();\n"
                "  var x = rank() + 1;\n",
                dirty_subcomm,
                "  for (r = 0 to ", reps, ") {\n"
                "    x = mpi_allreduce(x, sum, a);\n"
                "    x = mpi_allreduce(x, sum, b);\n"
                "    x = mpi_allreduce(x, sum, c);\n"
                "  }\n"
                "  mpi_comm_free(a);\n  mpi_comm_free(b);\n"
                "  mpi_comm_free(c);\n  mpi_comm_free(d);\n"
                "  mpi_finalize();\n}\n")},
  };
}

constexpr const char* kLevelNames[] = {"none", "selective", "programwide"};

struct LevelResult {
  double ns_per_coll = 0; // best of reps
  double overhead = 0;    // vs `none`, fractional
  uint64_t cc_rounds = 0;
};

struct ScenarioResult {
  std::string name;
  size_t sites = 0;
  size_t sites_armed = 0;
  size_t classes_total = 0;
  size_t classes_armed = 0;
  LevelResult levels[3]; // indexed like kLevelNames
};

std::vector<ScenarioResult> measure_scenarios(int reps, int loop_reps) {
  std::vector<ScenarioResult> out;
  for (const auto& s : scenarios(loop_reps)) {
    driver::PipelineOptions opts;
    opts.algorithm1.rank_taint_filter = true; // keep clean loop classes clean
    const auto c = compile(s.name, s.source, opts);
    const auto& r = c->result;
    const auto programwide =
        core::make_programwide_plan(*r.module, r.phases, r.algorithm1);
    const core::InstrumentationPlan* plans[3] = {nullptr, &r.plan,
                                                 &programwide};
    ScenarioResult sr;
    sr.name = s.name;
    sr.sites = r.plan.total_collective_sites;
    sr.sites_armed = r.plan.cc_stmts.size();
    sr.classes_total = r.plan.total_cc_classes;
    sr.classes_armed = r.plan.cc_classes.size();
    interp::ExecOptions eopts;
    eopts.num_ranks = 2;
    eopts.num_threads = 1;
    eopts.mpi.hang_timeout = std::chrono::milliseconds(5000);
    double best[3] = {1e30, 1e30, 1e30};
    for (int rep = 0; rep < reps; ++rep) {
      for (size_t l = 0; l < 3; ++l) {
        const auto t = run(*c, plans[l], eopts);
        const auto slots = std::max<uint64_t>(t.result.mpi.app_slots_completed, 1);
        best[l] = std::min(best[l], t.ns / static_cast<double>(slots));
        sr.levels[l].cc_rounds = t.result.mpi.cc_piggybacked;
      }
    }
    for (size_t l = 0; l < 3; ++l) {
      sr.levels[l].ns_per_coll = best[l];
      sr.levels[l].overhead = best[l] / best[0] - 1.0;
    }
    out.push_back(std::move(sr));
  }
  return out;
}

void print_scenarios(const std::vector<ScenarioResult>& results, int reps) {
  std::cout << "\n=== Comm-class arming matrix (2 ranks, best of " << reps
            << " runs) ===\n\n"
            << std::left << std::setw(28) << "scenario" << std::right
            << std::setw(7) << "sites" << std::setw(7) << "armed"
            << std::setw(9) << "classes" << std::setw(13) << "none ns/c"
            << std::setw(14) << "selective %" << std::setw(15)
            << "programwide %" << std::setw(9) << "cc(sel)" << '\n';
  for (const auto& sr : results) {
    std::cout << std::left << std::setw(28) << sr.name << std::right
              << std::setw(7) << sr.sites << std::setw(7) << sr.sites_armed
              << std::setw(6) << sr.classes_armed << '/' << sr.classes_total
              << std::setw(13) << std::fixed << std::setprecision(0)
              << sr.levels[0].ns_per_coll << std::setw(13)
              << std::setprecision(1) << 100.0 * sr.levels[1].overhead << '%'
              << std::setw(14) << 100.0 * sr.levels[2].overhead << '%'
              << std::setw(9) << sr.levels[1].cc_rounds << '\n';
  }
  std::cout << "\nShape to check: the clean comms carry the hot loop, so "
               "selective ns/collective sits\non the uninstrumented baseline "
               "(the unarmed path has no CC lane at all) while the\ndirty "
               "comm still runs every check (cc(sel) > 0); program-wide "
               "arming pays the CC\nlane on every collective of every "
               "comm.\n";
}

void write_selective_json(const Options& opts,
                          const std::vector<ScenarioResult>& results) {
  write_json(opts, "BENCH_selective.json", [&](JsonWriter& w) {
    w.begin_object();
    w.kv("arming", "per_comm_class");
    w.kv("engine", to_string(interp::ExecOptions{}.engine));
    w.key("scenarios");
    w.begin_array();
    for (const auto& sr : results) {
      w.begin_object();
      w.kv("scenario", sr.name);
      w.kv("sites", sr.sites);
      w.kv("sites_armed", sr.sites_armed);
      w.kv("sites_skipped", sr.sites - sr.sites_armed);
      w.kv("classes_total", sr.classes_total);
      w.kv("classes_armed", sr.classes_armed);
      w.key("levels");
      w.begin_object();
      for (size_t l = 0; l < 3; ++l) {
        const auto& lv = sr.levels[l];
        w.key(kLevelNames[l]);
        w.begin_object();
        w.kv("ns_per_collective", lv.ns_per_coll, 1);
        w.kv("overhead_vs_none", lv.overhead, 4);
        w.kv("cc_rounds", lv.cc_rounds);
        w.end_object();
      }
      w.end_object();
      w.kv("clean_comm_overhead_vs_none", sr.levels[1].overhead, 4);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  });
}

} // namespace

bool run_selective(const Options& opts) {
  print_static_table();
  print_plan_and_apply(opts.smoke ? 3 : 20);
  const int reps = opts.smoke ? 3 : 7;
  const auto results = measure_scenarios(reps, opts.smoke ? 150 : 400);
  print_scenarios(results, reps);
  write_selective_json(opts, results);
  return true;
}

} // namespace parcoach::bench
