// Static instrumentation for execution-time verification (Section 3).
//
// From the analysis results this pass derives an InstrumentationPlan and can
// materialize it into the IR ("verification code generation", the measured
// quantity of Figure 1):
//   - CheckCC before collectives of *armed comm equivalence classes*, and
//     CheckCCFinal before returns of main when any class is armed. The CC
//     protocol is a distributed agreement per communicator, so it is armed
//     per comm class or not at all: every rank of an armed comm runs the
//     same checks (textual classes guarantee the uniformity), while
//     provably-clean communicators — MPI_COMM_WORLD included — pay nothing.
//     A clean program gets zero checks;
//   - CheckMono before collectives in set S (phase-1 violations) — at
//     runtime the occupancy counter validates that the region is *actually*
//     monothreaded, killing the static false positives the paper mentions
//     (if clauses, num_threads(1), serialized nested regions);
//   - RegionEnter/RegionExit around regions in Scc so the runtime registry
//     can detect two monothreaded regions with collectives running
//     concurrently (and self-overlap across loop iterations).
#pragma once

#include "core/algorithm1.h"
#include "core/phases.h"
#include "ir/module.h"

#include <map>
#include <set>
#include <unordered_set>
#include <vector>

namespace parcoach::core {

struct InstrumentationPlan {
  /// Stmt ids of collectives that get a CC check (union over armed classes;
  /// the per-call lookup the interpreter and apply_plan use).
  std::unordered_set<int32_t> cc_stmts;
  /// Stmt ids of collectives that get an occupancy (monothread) check.
  std::unordered_set<int32_t> mono_stmts;
  /// Region ids watched by the concurrent-region registry.
  std::unordered_set<int32_t> watched_regions;
  /// Insert CheckCCFinal before main's returns (and at its end). At runtime
  /// the sentinel is per-comm: FINAL is piggybacked on every armed comm the
  /// rank still holds, and on MPI_COMM_WORLD only when world is armed.
  bool cc_final_in_main = false;

  /// The arming matrix: armed comm equivalence class ("" = MPI_COMM_WORLD)
  /// -> stmt ids of that class's collective sites, in stmt order.
  std::map<std::string, std::vector<int32_t>> cc_stmts_by_class;
  /// Armed classes (the keys of cc_stmts_by_class).
  std::set<std::string> cc_classes;

  size_t total_collective_sites = 0; // census for selectivity stats
  size_t total_cc_classes = 0;       // distinct comm classes in the module

  [[nodiscard]] bool world_cc_armed() const {
    return cc_classes.count(std::string()) > 0;
  }
  [[nodiscard]] bool empty() const noexcept {
    return cc_stmts.empty() && mono_stmts.empty() && watched_regions.empty() &&
           !cc_final_in_main;
  }
  [[nodiscard]] size_t check_count() const noexcept {
    return cc_stmts.size() + mono_stmts.size() + watched_regions.size() +
           (cc_final_in_main ? 1 : 0);
  }
};

/// Derives the selective plan from the analysis results: CC is armed only
/// for the classes named by Algorithm1Result::divergent_classes and
/// PhaseResult::hazard_classes.
[[nodiscard]] InstrumentationPlan
make_plan(const ir::Module& m, const PhaseResult& phases,
          const Algorithm1Result& alg1);

/// Program-wide arming: like make_plan but, when anything diverges, arms
/// every class (the pre-matrix behaviour; kept as the parity baseline for
/// tests and the `selective` bench family).
[[nodiscard]] InstrumentationPlan
make_programwide_plan(const ir::Module& m, const PhaseResult& phases,
                      const Algorithm1Result& alg1);

/// Blanket plan: checks at every collective site regardless of analysis
/// results (the ablation baseline for the `selective` bench family).
[[nodiscard]] InstrumentationPlan make_blanket_plan(const ir::Module& m);

/// Materializes the plan into the IR (inserts Check*/Region* instructions).
/// Returns the number of instructions inserted.
size_t apply_plan(ir::Module& m, const InstrumentationPlan& plan);

} // namespace parcoach::core
