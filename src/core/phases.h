// Phases 1 and 2 of the compile-time verification (Section 2 of the paper):
//
//   Phase 1 — every collective must execute in a monothreaded context:
//     pw[n] must satisfy the mono rule (set S of violating collective nodes,
//     set Sipw of the enclosing parallel-region entries to re-check at
//     runtime, since `if`/`num_threads(1)` clauses can make a region
//     dynamically monothreaded).
//
//   Phase 2 — no two collectives may execute concurrently within a process:
//     collective nodes in *concurrent monothreaded regions*
//     (pw decompositions w S_j u / w S_k v, j != k) form set Scc, plus the
//     loop refinement: a single/section region inside a loop with no barrier
//     in the loop body may overlap itself across iterations.
#pragma once

#include "core/summaries.h"
#include "ir/module.h"
#include "support/diagnostics.h"

#include <string>
#include <vector>

namespace parcoach::core {

struct AnalysisOptions {
  /// Initial parallelism context for root functions (the paper's
  /// compile-time option).
  InitialContext initial_context = InitialContext::Serial;
  /// Analyze functions unreachable from main as standalone roots.
  bool analyze_unreachable_roots = true;
};

/// A phase-1 violation: a collective whose context is not monothreaded.
struct MonoViolation {
  ir::CollectiveKind kind{};
  SourceLoc loc;
  int32_t stmt_id = -1;
  Word word;
  std::vector<SourceLoc> call_chain;
  /// Region id of the innermost enclosing parallel region (-1 when the
  /// multithreading comes from the initial context).
  int32_t sipw_region = -1;
  /// Communicator equivalence class of the collective ("" = world): a
  /// multithreaded collective can desynchronize exactly this comm's slot
  /// sequence, so the planner arms the CC protocol for this class only.
  std::string comm_class;
};

/// A phase-2 violation: two collectives in concurrent monothreaded regions
/// (or one collective in a region that can overlap itself across loop
/// iterations, in which case b_* mirror the a_* fields and `self` is set).
struct ConcurrencyViolation {
  ir::CollectiveKind a_kind{}, b_kind{};
  SourceLoc a_loc, b_loc;
  int32_t a_stmt = -1, b_stmt = -1;
  int32_t a_region = -1, b_region = -1; // the diverging S region ids (Scc)
  bool self = false;
  /// Comm equivalence classes of the two collectives ("" = world). A
  /// nondeterministic interleaving reorders each comm's slot sequence, so
  /// both classes need the CC protocol.
  std::string a_comm, b_comm;
};

struct PhaseResult {
  std::vector<MonoViolation> multithreaded;     // paper's set S (+ Sipw info)
  std::vector<ConcurrencyViolation> concurrent; // paper's sets S/Scc
  /// Region ids to watch at runtime (union of Scc regions).
  std::vector<int32_t> watched_regions;
  /// Stmt ids of collectives that need runtime occupancy checks.
  std::vector<int32_t> mono_check_stmts;
  /// Sorted union of the comm classes of all phase-1/2 violations: the
  /// classes an intra-process hazard can desynchronize. Feeds the per-class
  /// CC arming decision exactly like Algorithm1Result::divergent_classes.
  std::vector<std::string> hazard_classes;
};

/// Runs phases 1 and 2 over the whole program. Roots: `main` when present;
/// optionally every function not reachable from main. Reports
/// MultithreadedCollective / ConcurrentCollectives / WordAmbiguity warnings.
[[nodiscard]] PhaseResult run_phases(const ir::Module& m, const Summaries& sums,
                                     const AnalysisOptions& opts,
                                     DiagnosticEngine& diags);

} // namespace parcoach::core
