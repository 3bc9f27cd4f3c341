// Execution-time verification (Section 3 of the paper).
//
// The CC check runs *before* each instrumented collective and compares the
// id of the collective every rank is about to execute. The paper spends a
// dedicated agreement round on a separate communicator for it; here the
// comparison is piggybacked instead: the interpreter's MPI-semantics layer
// (interp/mpi_effects.h) puts the id (cc_lane_id, or cc_skeleton patched by
// cc_patch) in the collective's own slot arrival, the slot engine compares
// the ids of all arrivals, and a disagreement reaches report_cc_mismatch on
// exactly one thread. The error is reported with the collective names and
// source locations involved, and the world is aborted — *before* the
// mismatched application collectives can deadlock. A sentinel id
// (check_cc_final_piggybacked / _on) is deposited before a process leaves
// main, catching "rank 0 returned while rank 1 still waits in MPI_Allreduce"
// situations. The paper's dedicated round survives only as the baseline of
// the `simmpi` family of parcoach_bench (bench/simmpi.cpp).
//
// Occupancy checks guard collectives that the static phase could not prove
// monothreaded: a per-site counter detects two threads inside the same
// collective statement. The region registry detects two concurrent
// monothreaded regions (set Scc) overlapping inside one process, including a
// region overlapping itself across loop iterations. An optional rendezvous
// window dwells inside checks to make genuinely racy overlaps deterministic
// in tests.
#pragma once

#include "ir/collective.h"
#include "simmpi/world.h"
#include "support/diagnostics.h"
#include "support/source_manager.h"

#include <chrono>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <tuple>

namespace parcoach::rt {

struct VerifierOptions {
  /// Dwell time inside occupancy/region checks; widens real race windows so
  /// tests can observe them deterministically. Zero = no dwell.
  std::chrono::milliseconds rendezvous{0};
  /// Record (not abort) thread-level violations.
  bool abort_on_thread_level = false;
  /// Include reduction operator and root rank in the CC agreement (extension
  /// over the paper, which checks collective *types* only — "the correctness
  /// of collectives arguments ... is not checked"). Off = paper-faithful:
  /// an op/root divergence then manifests as a hang caught by the watchdog.
  bool check_arguments = true;
};

class Verifier {
public:
  Verifier(const SourceManager& sm, VerifierOptions opts);

  // -- Piggybacked CC (zero extra synchronization rounds) ---------------------
  /// CC id for an instrumented collective, to ride in simmpi::Signature::cc:
  /// the agreement value travels inside the application collective's own
  /// slot arrival, so the check costs no extra synchronization round. `op`
  /// and `root` (the *evaluated* root rank, -1 for rootless collectives)
  /// take part when options.check_arguments is set. `comm_id` is the
  /// registry identity of the communicator the collective runs on
  /// (0 = MPI_COMM_WORLD); it always takes part, so identical collectives on
  /// different communicators never spuriously agree.
  [[nodiscard]] int64_t cc_lane_id(ir::CollectiveKind kind,
                                   std::optional<ir::ReduceOp> op = std::nullopt,
                                   int32_t root = -1,
                                   int32_t comm_id = 0) const;

  /// Compile-once CC id skeleton for an armed collective site: the kind and
  /// reduce-op fields are pre-encoded (honouring check_arguments), the root
  /// and comm-id fields are left empty. The bytecode engine builds one
  /// skeleton per armed site per run instead of re-running encode_cc per
  /// call.
  [[nodiscard]] int64_t
  cc_skeleton(ir::CollectiveKind kind,
              std::optional<ir::ReduceOp> op = std::nullopt) const;

  /// Patches the runtime-dependent fields — the *evaluated* root rank (when
  /// arguments are checked) and the registry comm id — into a skeleton.
  /// Invariant: cc_patch(cc_skeleton(k, op), r, c) == cc_lane_id(k, op, r, c).
  [[nodiscard]] int64_t cc_patch(int64_t skeleton, int32_t root,
                                 int32_t comm_id) const;

  /// Reports a piggybacked CC disagreement — the CcMismatchError the slot
  /// engine throws to exactly one thread world-wide — naming every rank's
  /// collective, then aborts the world (simmpi::AbortedError into the
  /// calling rank like any abort).
  [[noreturn]] void report_cc_mismatch(simmpi::Rank& rank,
                                       ir::CollectiveKind kind, SourceLoc loc,
                                       const simmpi::CcMismatchError& e);

  /// Piggybacked exit sentinel: deposits the FINAL id into the rank's next
  /// application-communicator slot, where it meets whatever the other ranks
  /// do next (their next collective, or their own sentinel) in one shared
  /// synchronization round. Used for MPI_COMM_WORLD, and only when world's
  /// comm class is armed.
  void check_cc_final_piggybacked(simmpi::Rank& rank, SourceLoc loc);

  /// Per-comm exit sentinel for an armed sub-communicator the rank still
  /// holds: *posts* (nonblocking) the FINAL id into the comm's next slot, so
  /// a member still issuing collectives on that comm trips the CC lane,
  /// while legitimate membership divergence (a rank that already freed its
  /// handle, or opted out of the split) cannot deadlock the exit path.
  /// Freed/invalid handles are skipped silently.
  void check_cc_final_piggybacked_on(simmpi::Rank& rank, int64_t comm_handle,
                                     SourceLoc loc);

  /// RAII guard for collective-site occupancy (set S / Sipw validation).
  class MonoGuard {
  public:
    MonoGuard(Verifier& v, simmpi::Rank& rank, int32_t stmt_id, SourceLoc loc);
    ~MonoGuard();
    MonoGuard(const MonoGuard&) = delete;
    MonoGuard& operator=(const MonoGuard&) = delete;

  private:
    Verifier& v_;
    simmpi::Rank& rank_;
    int32_t stmt_id_;
  };

  /// RAII guard for watched monothreaded regions (set Scc validation).
  class RegionGuard {
  public:
    RegionGuard(Verifier& v, simmpi::Rank& rank, int32_t region_id,
                SourceLoc loc);
    ~RegionGuard();
    RegionGuard(const RegionGuard&) = delete;
    RegionGuard& operator=(const RegionGuard&) = delete;

  private:
    Verifier& v_;
    simmpi::Rank& rank_;
    int32_t region_id_;
  };

  /// Thread-level usage check at a collective site. `master_only` = the
  /// executing thread is thread 0 of every enclosing team. A violation is
  /// recorded once per (rank, source location), however often the
  /// statement runs.
  void check_thread_usage(simmpi::Rank& rank, bool in_parallel, bool master_only,
                          SourceLoc loc);

  // -- Request discipline (nonblocking collectives) ---------------------------
  /// Reports a request-discipline violation detected by the request engine
  /// (double wait, cross-thread wait race, foreign/unknown handle) and
  /// aborts the world: after misuse the request state is unreliable, so
  /// continuing would produce cascading nonsense.
  [[noreturn]] void report_request_misuse(simmpi::Rank& rank, SourceLoc loc,
                                          const std::string& what);

  /// Reports requests still outstanding when `rank` reaches mpi_finalize
  /// (leaked: issued but never completed by wait/test). Recording only — the
  /// program completes, the run is just not clean.
  void report_leaked_requests(simmpi::Rank& rank, SourceLoc loc,
                              const std::vector<std::string>& leaked);

  /// Runtime diagnostics collected so far (thread-safe copy).
  [[nodiscard]] std::vector<Diagnostic> diagnostics() const;
  [[nodiscard]] size_t error_count() const;

private:
  void record(Severity sev, DiagKind kind, SourceLoc loc, std::string msg,
              std::vector<std::pair<SourceLoc, std::string>> notes = {});

  const SourceManager& sm_;
  VerifierOptions opts_;

  mutable std::mutex mu_;
  std::vector<Diagnostic> diags_;
  /// (rank, file, line, column) of every thread-level violation already
  /// recorded. Guarded by mu_.
  std::set<std::tuple<int32_t, int32_t, int32_t, int32_t>> thread_level_seen_;
  /// Occupancy per (rank, stmt). Guarded by mu_.
  std::map<std::pair<int32_t, int32_t>, int32_t> site_occupancy_;
  /// Active watched regions per (rank, region) with entry loc. Guarded by mu_.
  std::map<std::pair<int32_t, int32_t>, int32_t> region_active_;
  std::map<std::pair<int32_t, int32_t>, SourceLoc> region_loc_;
};

} // namespace parcoach::rt
