// `static` family: the compile-time side of the validator.
//
//   Figure 1      compile-time overhead of the verification, with and
//                 without check codegen, on BT-MZ, SP-MZ, LU-MZ, the EPCC
//                 mixed-mode suite and HERA (synthetic skeletons):
//                 overhead% = 100 * (t_mode / t_baseline - 1), best of N
//                 interleaved full compiles per mode.
//   HERA scaling  analysis cost versus program size, swept over HERA
//                 skeleton scale (packages x kernels): the analyses must
//                 stay near-linear in IR size.
//   label keying  one Algorithm-1 pass shape over the module's collective
//                 labels, keyed by concatenated strings vs interned ids.
//   stage times   summaries, phases 1+2 and Algorithm 1 per subject.
//   refinements   phase-3 warnings per subject under the paper's PDF+
//                 membership test and its two refinements. Self-check: a
//                 refinement only ever removes warnings.
#include "core/algorithm1.h"
#include "core/phases.h"
#include "core/summaries.h"
#include "frontend/lowering.h"
#include "frontend/parser.h"
#include "frontend/sema.h"
#include "runner.h"
#include "support/interner.h"
#include "support/str.h"
#include "workloads/workloads.h"

#include <array>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>

namespace parcoach::bench {
namespace {

// ---- Figure 1 -----------------------------------------------------------------

double compile_ns(const SourceManager& sm, int32_t id, driver::Mode mode) {
  driver::PipelineOptions opts;
  opts.mode = mode;
  DiagnosticEngine diags;
  bool ok = false;
  const double ns = time_ns(
      [&] { ok = driver::compile_buffer(sm, id, diags, opts).ok; });
  if (!ok) fail(str::cat("compile failed: ", sm.buffer_name(id)));
  return ns;
}

void print_figure1(int reps) {
  constexpr driver::Mode kModes[] = {driver::Mode::Baseline,
                                     driver::Mode::Warnings,
                                     driver::Mode::WarningsAndCodegen};
  std::cout << "\n=== Figure 1: compile-time overhead (best of " << reps
            << " compiles; min is robust against machine noise) ===\n\n"
            << std::left << std::setw(12) << "program" << std::right
            << std::setw(8) << "lines" << std::setw(14) << "baseline ms"
            << std::setw(14) << "warnings %" << std::setw(18)
            << "warn+codegen %" << '\n';
  for (const auto& g : workloads::figure1_suite()) {
    SourceManager sm;
    const int32_t id = sm.add_buffer(g.name, g.source);
    double best[3] = {1e30, 1e30, 1e30};
    // Interleave modes so frequency scaling affects all three equally.
    for (int rep = 0; rep < reps; ++rep)
      for (size_t m = 0; m < 3; ++m)
        best[m] = std::min(best[m], compile_ns(sm, id, kModes[m]));
    std::cout << std::left << std::setw(12) << g.name << std::right
              << std::setw(8) << g.code_lines << std::setw(14) << std::fixed
              << std::setprecision(3) << best[0] / 1e6 << std::setw(13)
              << std::setprecision(2) << 100.0 * (best[1] / best[0] - 1.0)
              << '%' << std::setw(17) << 100.0 * (best[2] / best[0] - 1.0)
              << "%\n";
  }
  std::cout << "\nPaper reference (GCC middle end, real suites): overheads "
               "<= ~6%. Reference only:\nthe baseline here is the small "
               "MiniHPC pipeline, not GCC, so the same analyses\nweigh more "
               "against it. README records a measured table.\n";
}

// ---- Analysis on lowered IR ---------------------------------------------------

struct Lowered {
  SourceManager sm;
  std::unique_ptr<ir::Module> mod;
};

std::unique_ptr<Lowered> lower(const workloads::GeneratedProgram& g) {
  auto p = std::make_unique<Lowered>();
  DiagnosticEngine diags;
  auto prog = frontend::Parser::parse_source(p->sm, g.name, g.source, diags);
  frontend::Sema::analyze(prog, diags);
  p->mod = frontend::Lowering::lower(prog, diags);
  if (diags.has_errors()) fail("lowering failed: " + g.name);
  return p;
}

workloads::GeneratedProgram hera(int32_t packages) {
  workloads::HeraParams params;
  params.packages = packages;
  params.kernels = 8;
  return workloads::make_hera(params);
}

/// Best-of-`reps` ns of each analysis stage: summaries, phases 1+2,
/// Algorithm 1.
std::array<double, 3> stage_ns(const ir::Module& mod, int reps) {
  const auto sums = core::Summaries::build(mod);
  const auto best = [reps](auto&& stage) {
    return best_of(reps, [&] { return time_ns(stage); });
  };
  return {best([&] { (void)core::Summaries::build(mod); }),
          best([&] {
            DiagnosticEngine diags;
            (void)core::run_phases(mod, sums, {}, diags);
          }),
          best([&] {
            DiagnosticEngine diags;
            (void)core::run_algorithm1(mod, sums, {}, diags);
          })};
}

double full_analysis_ns(const ir::Module& mod) {
  DiagnosticEngine diags;
  return time_ns([&] {
    const auto sums = core::Summaries::build(mod);
    (void)core::run_phases(mod, sums, {}, diags);
    (void)core::run_algorithm1(mod, sums, {}, diags);
  });
}

void print_hera_scaling(int reps) {
  std::cout << "\n=== Analysis scaling over HERA skeleton size (best of "
            << reps << ") ===\n\n"
            << std::left << std::setw(10) << "packages" << std::right
            << std::setw(10) << "lines" << std::setw(12) << "instrs"
            << std::setw(14) << "analysis ms" << std::setw(14) << "ns/instr"
            << '\n';
  for (int32_t packages : {2, 4, 8, 16, 32}) {
    const auto g = hera(packages);
    const auto p = lower(g);
    const double best =
        best_of(reps, [&] { return full_analysis_ns(*p->mod); });
    const size_t instrs = p->mod->num_instructions();
    std::cout << std::left << std::setw(10) << packages << std::right
              << std::setw(10) << g.code_lines << std::setw(12) << instrs
              << std::setw(14) << std::fixed << std::setprecision(2)
              << best / 1e6 << std::setw(14) << std::setprecision(1)
              << best / static_cast<double>(instrs) << '\n';
  }
  std::cout << "\nShape to check: ns/instr roughly flat (near-linear "
               "analysis), keeping compile\noverhead bounded on large "
               "codes.\n";
}

// ---- Label keying: strings vs interned ids ------------------------------------
// Algorithm 1 keys its per-label maps on collective labels
// ("MPI_Allreduce@c", "call mpi_phase()", ...) and the balanced-branch
// refinement compares whole per-path label *sequences*. The analysis interns
// each label once and works with dense int32 ids afterwards. One pass here
// models an analysis over the module's label occurrences: group the seeds,
// then run the PDF+ loop's repeated per-(conditional, label) set probes and
// the sequence solver's per-path sequence equality.

std::vector<std::string> collect_labels(const ir::Module& mod) {
  std::vector<std::string> labels;
  for (const auto& fn : mod.functions()) {
    for (const auto& bb : fn->blocks()) {
      for (const auto& in : bb.instrs) {
        if (in.op == ir::Opcode::CollComm && ir::is_matched(in.collective)) {
          std::string l(ir::to_string(in.collective));
          if (in.comm) l += str::cat("@", ir::to_string(*in.comm));
          labels.push_back(std::move(l));
        } else if (in.op == ir::Opcode::Call) {
          labels.push_back(str::cat("call ", in.callee, "()"));
        }
      }
    }
  }
  return labels;
}

/// One analysis-shaped pass; returns a checksum so the work stays observable.
size_t label_pass(const std::vector<std::string>& labels, bool interned) {
  // Realistic shape per pass: every PDF+ conditional probes the reported-set
  // per seed label several times, and every block pair in the sequence
  // solver compares label sequences of a few elements.
  constexpr int kProbesPerLabel = 16;
  constexpr size_t kSeqLen = 4;
  size_t checksum = 0;
  if (interned) {
    Interner in;
    std::vector<int32_t> ids;
    ids.reserve(labels.size());
    std::map<int32_t, int32_t> seeds;
    for (const auto& l : labels) {
      const int32_t id = in.intern(l);
      ids.push_back(id);
      ++seeds[id];
    }
    std::set<std::pair<int32_t, int32_t>> reported;
    for (int probe = 0; probe < kProbesPerLabel; ++probe)
      for (int32_t id : ids) checksum += reported.emplace(probe, id).second;
    for (size_t i = 0; i + 2 * kSeqLen <= ids.size(); i += kSeqLen) {
      const std::vector<int32_t> a(ids.begin() + i, ids.begin() + i + kSeqLen);
      const std::vector<int32_t> b(ids.begin() + i + kSeqLen,
                                   ids.begin() + i + 2 * kSeqLen);
      checksum += a == b;
    }
    return checksum + seeds.size();
  }
  std::map<std::string, int32_t> seeds;
  for (const auto& l : labels) ++seeds[l];
  std::set<std::pair<int32_t, std::string>> reported;
  for (int probe = 0; probe < kProbesPerLabel; ++probe)
    for (const auto& l : labels) checksum += reported.emplace(probe, l).second;
  for (size_t i = 0; i + 2 * kSeqLen <= labels.size(); i += kSeqLen) {
    std::string a, b;
    for (size_t k = 0; k < kSeqLen; ++k) {
      a += labels[i + k];
      a += ';';
      b += labels[i + kSeqLen + k];
      b += ';';
    }
    checksum += a == b;
  }
  return checksum + seeds.size();
}

bool print_label_keying(int reps) {
  const auto labels = collect_labels(*lower(hera(16))->mod);
  size_t sums[2] = {0, 0};
  double ns[2] = {0, 0};
  for (const bool interned : {false, true})
    ns[interned] = best_of(reps, [&] {
      return time_ns([&] { sums[interned] = label_pass(labels, interned); });
    });
  std::cout << "\nlabel keying, one pass over " << labels.size()
            << " HERA(16) label occurrences (best of " << reps
            << "): strings " << std::fixed << std::setprecision(1)
            << ns[0] / 1e3 << " us, interned " << ns[1] / 1e3 << " us ("
            << std::setprecision(2) << ns[0] / ns[1] << "x)\n";

  // Label-interning census on the largest skeleton: the per-class maps key
  // on this many dense ids instead of concatenated strings.
  const auto p = lower(hera(32));
  DiagnosticEngine diags;
  const auto sums32 = core::Summaries::build(*p->mod);
  const auto alg1 = core::run_algorithm1(*p->mod, sums32, {}, diags);
  std::cout << "label interner: " << alg1.labels_interned
            << " distinct labels across " << collect_labels(*p->mod).size()
            << " label occurrences on HERA(32)\n";
  // Both keyings must see the same seeds, probes and sequence matches.
  if (sums[0] != sums[1]) {
    std::cerr << "FAIL: string and interned label keying disagree\n";
    return false;
  }
  return true;
}

// ---- Per-subject stage times and Algorithm-1 refinements -------------------

void print_stage_times(int reps) {
  std::cout << "\n=== Analysis stage times per subject (best of " << reps
            << ") ===\n\n"
            << std::left << std::setw(12) << "program" << std::right
            << std::setw(15) << "summaries ms" << std::setw(16)
            << "phases 1+2 ms" << std::setw(17) << "algorithm 1 ms" << '\n';
  for (const auto& g : workloads::figure1_suite()) {
    const auto ns = stage_ns(*lower(g)->mod, reps);
    std::cout << std::left << std::setw(12) << g.name << std::right
              << std::fixed << std::setprecision(3) << std::setw(15)
              << ns[0] / 1e6 << std::setw(16) << ns[1] / 1e6 << std::setw(17)
              << ns[2] / 1e6 << '\n';
  }
}

bool print_refinements() {
  struct Config {
    const char* name;
    bool taint;
    bool sequences;
  };
  constexpr Config kConfigs[] = {
      {"paper (PDF+ membership)", false, false},
      {"+rank-taint", true, false},
      {"+sequence-match", false, true},
      {"+both", true, true},
  };
  const auto subjects = workloads::figure1_suite();
  std::cout << "\n=== Algorithm 1 refinements (phase-3 warning count per "
               "subject) ===\n\n"
            << std::left << std::setw(28) << "configuration" << std::right;
  for (const auto& g : subjects) std::cout << std::setw(12) << g.name;
  std::cout << '\n';
  std::vector<size_t> counts[4];
  for (size_t c = 0; c < 4; ++c) {
    std::cout << std::left << std::setw(28) << kConfigs[c].name << std::right;
    for (size_t s = 0; s < subjects.size(); ++s) {
      driver::PipelineOptions opts;
      opts.mode = driver::Mode::Warnings;
      opts.algorithm1.rank_taint_filter = kConfigs[c].taint;
      opts.algorithm1.match_sequences = kConfigs[c].sequences;
      counts[c].push_back(compile(subjects[s].name, subjects[s].source, opts)
                              ->result.algorithm1.divergences.size());
      std::cout << std::setw(12) << counts[c].back();
    }
    std::cout << '\n';
  }
  bool monotone = true;
  for (size_t s = 0; s < subjects.size(); ++s)
    monotone &= counts[1][s] <= counts[0][s] && counts[2][s] <= counts[0][s] &&
                counts[3][s] <= counts[1][s] && counts[3][s] <= counts[2][s];
  std::cout << "\nEach refinement only removes warnings (checked). The "
               "+rank-taint rows follow data\nflow only and miss "
               "control-dependent rank flows, so their 0s are not a proof.\n";
  if (!monotone)
    std::cerr << "FAIL: an Algorithm-1 refinement added a warning\n";
  return monotone;
}

} // namespace

bool run_static(const Options& opts) {
  print_figure1(opts.smoke ? 3 : 15);
  print_hera_scaling(opts.smoke ? 1 : 3);
  const bool keying_ok = print_label_keying(opts.smoke ? 3 : 30);
  print_stage_times(opts.smoke ? 3 : 20);
  const bool refinements_ok = print_refinements();
  return keying_ok && refinements_ok;
}

} // namespace parcoach::bench
