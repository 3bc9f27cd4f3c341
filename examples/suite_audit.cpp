// Suite audit: batch-analyzes the five Figure-1 subjects (BT-MZ, SP-MZ,
// LU-MZ, EPCC suite, HERA skeletons) and prints the warning census — the
// compile-time output the paper describes in Section 4 — followed by the
// Algorithm-1 refinement ablation (phase-3 conditionals per subject under
// the paper's PDF+ membership test and its two opt-in refinements).
//
// Usage: suite_audit
#include "driver/pipeline.h"
#include "driver/report.h"
#include "workloads/workloads.h"

#include <iomanip>
#include <iostream>

int main() {
  using namespace parcoach;
  const auto subjects = workloads::figure1_suite();
  std::vector<driver::WarningCensus> rows;
  for (const auto& subject : subjects) {
    SourceManager sm;
    DiagnosticEngine diags;
    driver::PipelineOptions opts;
    opts.mode = driver::Mode::WarningsAndCodegen;
    const auto r = driver::compile(sm, subject.name, subject.source, diags, opts);
    if (!r.ok) {
      std::cerr << subject.name << ": compile failed\n" << diags.to_text(sm);
      return 1;
    }
    auto census = driver::census_of(subject.name, r, diags);
    census.code_lines = subject.code_lines;
    rows.push_back(census);
    std::cout << subject.name << ": " << driver::format_stage_times(r.times)
              << '\n';
  }
  std::cout << "\nWarning census (ph1 = multithreaded collective, ph2 = "
               "concurrent collectives,\n ph3 = divergence conditionals, "
               "ph3-rank = after rank-taint refinement):\n\n"
            << driver::format_census_table(rows);

  struct Refinement {
    const char* name;
    bool taint;
    bool sequences;
  };
  constexpr Refinement kRefinements[] = {
      {"paper (PDF+ membership)", false, false},
      {"+rank-taint", true, false},
      {"+sequence-match", false, true},
      {"+both", true, true},
  };
  std::cout << "\nAlgorithm 1 refinements (ph3 per subject):\n\n"
            << std::left << std::setw(28) << "configuration" << std::right;
  for (const auto& subject : subjects) std::cout << std::setw(12) << subject.name;
  std::cout << '\n';
  for (const auto& cfg : kRefinements) {
    std::cout << std::left << std::setw(28) << cfg.name << std::right;
    for (const auto& subject : subjects) {
      SourceManager sm;
      DiagnosticEngine diags;
      driver::PipelineOptions opts;
      opts.mode = driver::Mode::Warnings;
      opts.algorithm1.rank_taint_filter = cfg.taint;
      opts.algorithm1.match_sequences = cfg.sequences;
      const auto r = driver::compile(sm, subject.name, subject.source, diags, opts);
      std::cout << std::setw(12) << r.algorithm1.divergences.size();
    }
    std::cout << '\n';
  }
  std::cout << "\nAll subjects are hybrid-clean: ph1/ph2 are true negatives; "
               "ph3 counts the\nconditionals the dynamic phase checks at run "
               "time. ph3-rank and the +rank-taint\nrows come from the "
               "rank-taint filter, which follows data flow only and misses\n"
               "control-dependent rank flows: their 0s are a hint that those "
               "conditionals are\nrank-uniform, not a proof.\n";
  return 0;
}
