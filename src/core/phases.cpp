#include "core/phases.h"

#include "ir/loops.h"
#include "support/str.h"

#include <algorithm>
#include <set>
#include <unordered_set>

namespace parcoach::core {

namespace {

/// Root selection: `main` plus (optionally) functions not reachable from it.
std::vector<std::string> select_roots(const ir::Module& m, const Summaries& sums,
                                      const AnalysisOptions& opts) {
  std::vector<std::string> roots;
  std::unordered_set<std::string> reachable;
  if (m.find("main")) {
    roots.push_back("main");
    // Mark everything reachable from main.
    std::vector<std::string> work{"main"};
    while (!work.empty()) {
      const std::string cur = work.back();
      work.pop_back();
      if (!reachable.insert(cur).second) continue;
      const FunctionSummary* fs = sums.find(cur);
      if (!fs) continue;
      for (const auto& bb : fs->fn->blocks())
        for (const auto& in : bb.instrs)
          if (in.op == ir::Opcode::Call) work.push_back(in.callee);
    }
  }
  if (opts.analyze_unreachable_roots) {
    for (const auto& fn : m.functions())
      if (!reachable.count(fn->name)) roots.push_back(fn->name);
  }
  return roots;
}

struct SiteOccurrence {
  Summaries::Expanded site;
  std::string root;
};

/// Diagnostic name of an expanded site, comm class included ("MPI_Allreduce"
/// on world, "MPI_Allreduce@c" on a named communicator) — per-comm streams
/// make the communicator part of a collective's identity in reports.
std::string site_name(const Summaries::Expanded& e) {
  std::string name(ir::to_string(e.kind));
  if (!e.comm.empty()) name += str::cat("@", e.comm);
  return name;
}

} // namespace

PhaseResult run_phases(const ir::Module& m, const Summaries& sums,
                       const AnalysisOptions& opts, DiagnosticEngine& diags) {
  PhaseResult result;
  std::set<std::string> hazard_classes;
  Word base;
  if (opts.initial_context == InitialContext::Multithreaded)
    base.append_parallel(-1);

  // Gather expanded collective occurrences per root.
  std::vector<SiteOccurrence> occurrences;
  for (const auto& root : select_roots(m, sums, opts)) {
    for (auto& e : sums.expand_from(root, base))
      occurrences.push_back(SiteOccurrence{std::move(e), root});
  }

  // ---- Phase 1: monothreaded contexts -------------------------------------
  std::set<std::pair<int32_t, std::string>> mono_reported; // (stmt, word)
  std::unordered_set<int32_t> mono_stmts;
  for (const auto& occ : occurrences) {
    const auto& e = occ.site;
    if (e.truncated_by_recursion) {
      diags.report(Severity::Warning, DiagKind::WordAmbiguity, e.loc,
                   str::cat("recursive call prevents static analysis of the "
                            "collectives below this call site (root ",
                            occ.root, ")"));
      continue;
    }
    const bool mono = e.word.monothreaded();
    if (mono && !e.ambiguous) continue;
    if (!mono_reported.emplace(e.stmt_id, e.word.str()).second) continue;
    if (mono && e.ambiguous) {
      diags.report(Severity::Warning, DiagKind::WordAmbiguity, e.loc,
                   str::cat(site_name(e),
                            " has ambiguous parallelism word [", e.word.str(),
                            "] (disagreeing control-flow paths); treating as "
                            "potentially multithreaded"));
    }
    if (!mono || e.ambiguous) {
      MonoViolation v;
      v.kind = e.kind;
      v.loc = e.loc;
      v.stmt_id = e.stmt_id;
      v.word = e.word;
      v.call_chain = e.call_chain;
      v.comm_class = e.comm;
      hazard_classes.insert(e.comm);
      if (const WordToken* p = e.word.innermost_parallel()) v.sipw_region = p->id;
      if (!mono) {
        auto& d = diags.report(
            Severity::Warning, DiagKind::MultithreadedCollective, e.loc,
            str::cat(site_name(e),
                     " may be executed by multiple threads (parallelism word [",
                     e.word.str(), "], root ", occ.root, ")"));
        for (const auto& c : e.call_chain) d.notes.emplace_back(c, "reached via call");
      }
      if (mono_stmts.insert(v.stmt_id).second)
        result.mono_check_stmts.push_back(v.stmt_id);
      result.multithreaded.push_back(std::move(v));
    }
  }

  // ---- Phase 2: concurrent monothreaded regions ---------------------------
  std::set<std::pair<int32_t, int32_t>> pair_reported;
  std::set<int32_t> watched;
  auto watch = [&](int32_t region) {
    if (region >= 0) watched.insert(region);
  };
  for (size_t i = 0; i < occurrences.size(); ++i) {
    const auto& a = occurrences[i].site;
    if (a.truncated_by_recursion || !a.word.monothreaded()) continue;
    for (size_t j = i + 1; j < occurrences.size(); ++j) {
      const auto& b = occurrences[j].site;
      if (b.truncated_by_recursion || !b.word.monothreaded()) continue;
      if (occurrences[i].root != occurrences[j].root) continue;
      if (!words_concurrent(a.word, b.word)) continue;
      const size_t lcp = a.word.common_prefix_len(b.word);
      const WordToken& ta = a.word.tokens()[lcp];
      const WordToken& tb = b.word.tokens()[lcp];
      // Two master constructs both run on thread 0: ordered, not concurrent.
      if (ta.omp == ir::OmpKind::Master && tb.omp == ir::OmpKind::Master)
        continue;
      const auto key = std::minmax(a.stmt_id, b.stmt_id);
      if (!pair_reported.emplace(key.first, key.second).second) continue;
      ConcurrencyViolation v;
      v.a_kind = a.kind;
      v.b_kind = b.kind;
      v.a_loc = a.loc;
      v.b_loc = b.loc;
      v.a_stmt = a.stmt_id;
      v.b_stmt = b.stmt_id;
      v.a_region = ta.id;
      v.b_region = tb.id;
      v.a_comm = a.comm;
      v.b_comm = b.comm;
      hazard_classes.insert(a.comm);
      hazard_classes.insert(b.comm);
      watch(ta.id);
      watch(tb.id);
      auto& d = diags.report(
          Severity::Warning, DiagKind::ConcurrentCollectives, a.loc,
          str::cat(site_name(a), " and ", site_name(b),
                   " are in concurrent monothreaded regions (S", ta.id, " vs S",
                   tb.id, ", words [", a.word.str(), "] / [", b.word.str(),
                   "]) and may execute simultaneously"));
      d.notes.emplace_back(b.loc, str::cat("second collective (",
                                           site_name(b), ") here"));
      result.concurrent.push_back(std::move(v));
    }
  }

  // ---- Phase 2 refinement: loop self-overlap -------------------------------
  // A single/section region inside a natural loop whose body contains no
  // barrier can overlap itself across iterations (different threads execute
  // different iterations' region instances).
  for (const auto& fn : m.functions()) {
    const FunctionSummary* fs = sums.find(fn->name);
    if (!fs || !fs->has_collective) continue;
    const ir::DomTree dom(*fn, ir::DomTree::Direction::Forward);
    const auto loops = ir::find_natural_loops(*fn, dom);
    if (loops.empty()) continue;
    for (const auto& bb : fn->blocks()) {
      for (const auto& in : bb.instrs) {
        if (in.op != ir::Opcode::OmpBegin) continue;
        if (in.omp != ir::OmpKind::Single && in.omp != ir::OmpKind::Section)
          continue;
        // The region must contain a collective (directly or via calls):
        // check expanded sites for an S token with this region id. Collect
        // the comm classes of those collectives — a self-overlap reorders
        // exactly their comms' slot sequences.
        bool region_has_collective = false;
        std::set<std::string> region_classes;
        for (const auto& occ : occurrences) {
          for (const auto& t : occ.site.word.tokens()) {
            if (t.kind == TokKind::S && t.id == in.region_id) {
              region_has_collective = true;
              region_classes.insert(occ.site.comm);
              break;
            }
          }
        }
        if (!region_has_collective) continue;
        // The region entry must be inside a parallel region (otherwise no
        // thread can run a second instance).
        const Word w = word_at(fs->words, *fn, bb.id, 0);
        if (!w.innermost_parallel()) continue;
        for (const auto& loop : loops) {
          if (!loop.contains(bb.id)) continue;
          bool loop_has_barrier = false;
          for (ir::BlockId lb : loop.body) {
            for (const auto& li : fn->block(lb).instrs) {
              if (li.op == ir::Opcode::ImplicitBarrier ||
                  li.op == ir::Opcode::ExplicitBarrier) {
                loop_has_barrier = true;
                break;
              }
            }
            if (loop_has_barrier) break;
          }
          if (loop_has_barrier) continue;
          if (!pair_reported.emplace(in.stmt_id, in.stmt_id).second) continue;
          ConcurrencyViolation v;
          v.self = true;
          v.a_loc = v.b_loc = in.loc;
          v.a_stmt = v.b_stmt = in.stmt_id;
          v.a_region = v.b_region = in.region_id;
          // Name up to two of the region's classes on the record (both ends
          // of the set); the full set feeds hazard_classes below either way.
          if (!region_classes.empty()) {
            v.a_comm = *region_classes.begin();
            v.b_comm = *region_classes.rbegin();
          }
          hazard_classes.insert(region_classes.begin(), region_classes.end());
          watch(in.region_id);
          diags.report(
              Severity::Warning, DiagKind::ConcurrentCollectives, in.loc,
              str::cat(ir::to_string(in.omp), " region S", in.region_id,
                       " contains MPI collectives and sits in a loop with no "
                       "barrier: instances from different iterations may "
                       "overlap"));
          result.concurrent.push_back(std::move(v));
          break;
        }
      }
    }
  }

  result.watched_regions.assign(watched.begin(), watched.end());
  std::sort(result.mono_check_stmts.begin(), result.mono_check_stmts.end());
  result.hazard_classes.assign(hazard_classes.begin(), hazard_classes.end());
  return result;
}

} // namespace parcoach::core
