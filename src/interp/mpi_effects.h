// The MPI-semantics layer shared by both execution engines.
//
// One MpiEffects per rank owns every MPI rule: the planned runtime checks and
// their order, CC id construction, the operation itself, ULFM status
// mapping, request-misuse routing, communicator management with the exit
// sentinels, and the rank prologue. An engine only evaluates a statement's
// operands into MpiArgs and stores the returned value when the statement has
// a target (MpiFlags::has_target).
//
// Check order for every collective and communicator operation — the paper's
// Section 3 order, with the trace span outermost so that a collective
// aborted by a check is traced the same way by both engines:
//
//   CollEnter span -> occupancy guard (set S) -> thread-level check ->
//   leaked-request report (mpi_finalize only) -> CC id -> execute
//
// The CC agreement is piggybacked: the id rides in the collective's own slot
// arrival (Signature::cc), so the check costs no dedicated synchronization
// round; a disagreement surfaces as CcMismatchError on exactly one thread,
// which produces the report. Nonblocking collectives are checked at issue
// time, where the slot is claimed. mpi_init, mpi_abort, mpi_recv and the
// request operations (wait/test/waitall) open no span. mpi_send carries no
// rule, so the engines call simmpi for it directly.
#pragma once

#include "interp/bytecode.h"
#include "interp/exec_internal.h"
#include "support/trace.h"

#include <atomic>
#include <mutex>
#include <span>
#include <type_traits>
#include <vector>

namespace parcoach::interp {

/// Evaluated operands of one MPI statement; fields a statement does not
/// spell keep their defaults.
struct MpiArgs {
  int64_t root = -1;   // root rank / split key / recv source
  int64_t payload = 0; // payload / split color / agree flag / errhandler
                       // mode / abort code
  int64_t comm = simmpi::Rank::kCommWorld; // communicator operand
  bool has_comm = false;                   // the statement spelled one
};

/// One entry of a thread's CommRef cache: a resolved communicator stays
/// valid while the handle value matches and no mpi_comm_free ran on this
/// rank since (the epoch), so steady-state collectives on a sub-communicator
/// cost one thread-local compare plus one relaxed atomic load instead of a
/// registry lookup.
struct CommCacheEntry {
  int64_t handle = 0;
  uint64_t epoch = 0;
  bool valid = false;
  simmpi::Rank::CommRef ref;
};

/// Per-run CC-skeleton table for the VM: one pre-encoded (kind, reduce-op)
/// id per armed site, indexed by MpiFlags::cc_slot. Depends on
/// VerifierOptions, so it is built once per run rather than at compile time.
[[nodiscard]] std::vector<int64_t> make_cc_skeletons(const BcProgram& bc,
                                                     const rt::Verifier& v);

class MpiEffects {
public:
  /// `cc_skeletons` is the VM's per-run table (make_cc_skeletons); without
  /// one (the AST engine) armed sites encode their skeleton per call.
  MpiEffects(SharedState& shared, simmpi::Rank& rank,
             const std::vector<int64_t>* cc_skeletons = nullptr);
  MpiEffects(const MpiEffects&) = delete;
  MpiEffects& operator=(const MpiEffects&) = delete;

  /// The rank's serial OpenMP context, root of every team chain. It is bound
  /// to the rank's ProcessDomain, which carries the fault injector's
  /// thread-spawn jitter when one is configured.
  [[nodiscard]] miniomp::ThreadContext& root_context() noexcept {
    return root_;
  }

  /// Exit sentinels when the rank leaves main: every armed communicator the
  /// rank still holds gets a FINAL post (creation order, identical on all
  /// members since arming is per textual class), then world, blocking, when
  /// the world class itself is armed.
  void leave_main(SourceLoc loc);

  /// The flags of `s` under the run's plan (the AST engine's per-call view
  /// of what the VM bakes into MpiSite).
  [[nodiscard]] MpiFlags flags_for(const frontend::Stmt& s) const;

  /// Any MpiCall statement — mpi_init, mpi_abort, communicator operations
  /// and collectives — in the check order above. Returns the value for the
  /// statement's target. `cache` may be null (no CommRef caching).
  int64_t call(const frontend::Stmt& s, const MpiFlags& f, const MpiArgs& a,
               const miniomp::ThreadContext& omp, CommCacheEntry* cache);

  /// A quickened collective: the flavor (armed, on a registry communicator,
  /// nonblocking) was fixed at compile time, and the site has no occupancy
  /// guard and is not mpi_finalize, so only the span, the thread-level check
  /// and the CC id remain.
  template <bool kArmed, bool kComm, bool kNb>
  int64_t collective(const frontend::Stmt& s, const MpiFlags& f,
                     const MpiArgs& a, const miniomp::ThreadContext& omp,
                     CommCacheEntry* cache) {
    TraceSpan span = coll_span(s, static_cast<int32_t>(a.root));
    check_thread_level(s.loc, omp);
    return issue(s, f, a, cache, std::bool_constant<kArmed>{},
                 std::bool_constant<kComm>{}, std::bool_constant<kNb>{});
  }

  int64_t recv(const frontend::Stmt& s, const MpiFlags& f, int64_t source,
               int64_t tag);
  /// MPI_Wait/Test/Waitall are MPI calls: they fall under the same
  /// thread-level rules as collectives (e.g. a non-master wait under
  /// FUNNELED). Waitall completes its requests in order.
  int64_t wait(const frontend::Stmt& s, const MpiFlags& f, int64_t request,
               const miniomp::ThreadContext& omp);
  int64_t test(const frontend::Stmt& s, const MpiFlags& f, int64_t request,
               const miniomp::ThreadContext& omp);
  void waitall(const frontend::Stmt& s, std::span<const int64_t> requests,
               const miniomp::ThreadContext& omp);

private:
  TraceSpan coll_span(const frontend::Stmt& s, int32_t root) const {
    return TraceSpan(
        shared_.tracer, rank_.rank(),
        trace_pack_coll(static_cast<int32_t>(s.coll),
                        s.reduce_op ? static_cast<int32_t>(*s.reduce_op) + 1
                                    : 0),
        root);
  }

  void check_thread_level(SourceLoc loc, const miniomp::ThreadContext& omp) {
    if (shared_.plan)
      verifier_.check_thread_usage(rank_, omp.in_parallel(),
                                   is_master_chain(&omp), loc);
  }

  /// CC id of an armed site: its skeleton (from the VM's table, or encoded
  /// now) patched with the evaluated root and the communicator's id.
  int64_t cc_id(const frontend::Stmt& s, const MpiFlags& f, int32_t root,
                int32_t comm_id) const {
    const int64_t skeleton =
        f.cc_slot >= 0 ? (*skeletons_)[static_cast<size_t>(f.cc_slot)]
                       : verifier_.cc_skeleton(s.coll, s.reduce_op);
    return verifier_.cc_patch(skeleton, root, comm_id);
  }

  /// Cached communicator resolution (`cache` null: one registry lookup).
  simmpi::Rank::CommRef resolve(int64_t handle, CommCacheEntry* cache) {
    if (!cache) return rank_.comm_ref(handle);
    const uint64_t epoch = comm_epoch_.load(std::memory_order_acquire);
    if (cache->valid && cache->handle == handle && cache->epoch == epoch)
      return cache->ref;
    cache->ref = rank_.comm_ref(handle); // throws UsageError on bad handles
    cache->handle = handle;
    cache->epoch = epoch;
    cache->valid = true;
    return cache->ref;
  }

  /// CC id and execution of a collective. The flavor parameters are either
  /// plain bools (the generic path) or std::bool_constant (quickened sites,
  /// whose untaken branches fold away). The world communicator takes the
  /// registry-free fast path; a communicator operand costs ONE resolve for
  /// both the CC id and the execution.
  template <class Armed, class OnComm, class Nonblocking>
  int64_t issue(const frontend::Stmt& s, const MpiFlags& f, const MpiArgs& a,
                CommCacheEntry* cache, Armed armed, OnComm on_comm,
                Nonblocking nonblocking) {
    simmpi::Signature sig;
    sig.kind = s.coll;
    sig.root = static_cast<int32_t>(a.root);
    sig.op = s.reduce_op;
    return guarded(s, f.has_target, [&]() -> int64_t {
      if (!on_comm) {
        if (armed) sig.cc = cc_id(s, f, sig.root, 0);
        if (nonblocking) return rank_.istart(sig, a.payload);
        return rank_.execute(sig, a.payload).scalar;
      }
      const simmpi::Rank::CommRef ref = resolve(a.comm, cache);
      if (armed) sig.cc = cc_id(s, f, sig.root, ref.comm->comm_id());
      if (nonblocking) return rank_.istart_on(ref, sig, a.payload);
      return rank_.execute_on(ref, sig, a.payload).scalar;
    });
  }

  /// Runs `body` under the error routing every MPI operation shares: a CC
  /// disagreement is reported (and aborts the world); a `return`-mode
  /// failure becomes the statement's status (ULFM semantics).
  template <class Body>
  int64_t guarded(const frontend::Stmt& s, bool has_target, Body&& body) {
    try {
      return body();
    } catch (const simmpi::CcMismatchError& e) {
      cc_mismatch(s, e);
    } catch (const simmpi::RankFailedError& e) {
      return failed_status(e, has_target);
    } catch (const simmpi::RevokedError&) {
      return revoked_status(has_target);
    }
  }

  [[noreturn]] void cc_mismatch(const frontend::Stmt& s,
                                const simmpi::CcMismatchError& e);
  /// Status forms absorb a failure as a negative status: -1 for a failed
  /// peer, -2 for a revoked communicator. A statement with no target
  /// rethrows and the rank unwinds; so does the dying rank itself, whose own
  /// crash is not a recoverable peer failure. Only callable from a catch
  /// block (bare rethrow).
  int64_t failed_status(const simmpi::RankFailedError& e,
                        bool has_target) const;
  int64_t revoked_status(bool has_target) const;
  /// Routes a request-discipline violation: through the verifier when checks
  /// are planned (precise diagnostic + abort), as a plain runtime fault
  /// otherwise (the uninstrumented behaviour).
  [[noreturn]] void request_misuse(SourceLoc loc, const std::string& what);
  int64_t comm_op(const frontend::Stmt& s, const MpiFlags& f,
                  const MpiArgs& a);

  SharedState& shared_;
  rt::Verifier& verifier_;
  simmpi::Rank& rank_;
  const std::vector<int64_t>* skeletons_;
  miniomp::ProcessDomain domain_; // per-rank process-wide OpenMP state
  miniomp::ThreadContext root_;
  /// Bumped by every mpi_comm_free on this rank; invalidates CommRef caches.
  std::atomic<uint64_t> comm_epoch_{0};
  /// Live handles of communicators created at armed-class split/dup sites
  /// (the per-comm exit sentinel targets). Threads of one rank share this
  /// under MPI_THREAD_MULTIPLE.
  std::mutex armed_comms_mu_;
  std::vector<int64_t> armed_comms_;
};

} // namespace parcoach::interp
