#include "interp/mpi_effects.h"

#include "support/str.h"

#include <optional>

namespace parcoach::interp {

using frontend::Stmt;
using ir::CollectiveKind;

std::vector<int64_t> make_cc_skeletons(const BcProgram& bc,
                                       const rt::Verifier& v) {
  std::vector<int64_t> out;
  out.reserve(bc.cc_sites.size());
  for (const CcSiteInfo& info : bc.cc_sites)
    out.push_back(v.cc_skeleton(info.kind, info.op));
  return out;
}

MpiEffects::MpiEffects(SharedState& shared, simmpi::Rank& rank,
                       const std::vector<int64_t>* cc_skeletons)
    : shared_(shared), verifier_(*shared.verifier), rank_(rank),
      skeletons_(cc_skeletons) {
  if (FaultInjector* fault = shared.fault) {
    const int32_t wr = rank.rank();
    domain_.spawn_jitter = [fault, wr](int32_t tid) {
      fault->thread_start_jitter(wr, tid);
    };
  }
  root_.domain = &domain_;
}

void MpiEffects::leave_main(SourceLoc loc) {
  const core::InstrumentationPlan* plan = shared_.plan;
  if (!plan || !plan->cc_final_in_main) return;
  std::vector<int64_t> armed;
  {
    std::scoped_lock lk(armed_comms_mu_);
    armed = armed_comms_;
  }
  for (int64_t handle : armed)
    verifier_.check_cc_final_piggybacked_on(rank_, handle, loc);
  if (plan->world_cc_armed())
    verifier_.check_cc_final_piggybacked(rank_, loc);
}

MpiFlags MpiEffects::flags_for(const Stmt& s) const {
  MpiFlags f;
  f.has_target = !s.name.empty();
  if (const core::InstrumentationPlan* plan = shared_.plan) {
    f.mono = plan->mono_stmts.count(s.stmt_id) > 0;
    f.armed = plan->cc_stmts.count(s.stmt_id) > 0;
    f.child_armed =
        ir::is_comm_ctor(s.coll) && plan->cc_classes.count(s.name) > 0;
  }
  return f;
}

int64_t MpiEffects::call(const Stmt& s, const MpiFlags& f, const MpiArgs& a,
                         const miniomp::ThreadContext& omp,
                         CommCacheEntry* cache) {
  if (s.is_mpi_init) {
    rank_.init(s.init_level);
    return 0;
  }
  if (s.is_mpi_abort) {
    const std::string msg =
        str::cat("rank ", rank_.rank(), ": mpi_abort(", a.payload, ")");
    rank_.abort(msg);
    throw simmpi::AbortedError(msg);
  }
  const bool is_comm_op = ir::is_comm_op(s.coll);
  TraceSpan span =
      coll_span(s, is_comm_op ? -1 : static_cast<int32_t>(a.root));
  std::optional<rt::Verifier::MonoGuard> mono_guard;
  if (f.mono) mono_guard.emplace(verifier_, rank_, s.stmt_id, s.loc);
  check_thread_level(s.loc, omp);
  if (is_comm_op) return comm_op(s, f, a);
  if (s.coll == CollectiveKind::Finalize && shared_.plan)
    verifier_.report_leaked_requests(
        rank_, s.loc, rank_.requests().outstanding(rank_.rank()));
  return issue(s, f, a, cache, f.armed, a.has_comm,
               ir::is_nonblocking(s.coll));
}

/// mpi_comm_split/dup/shrink/agree are collectives over the parent comm: the
/// CC id, scoped by the parent's comm id, rides in their agreement round.
/// free, set_errhandler and revoke are local.
int64_t MpiEffects::comm_op(const Stmt& s, const MpiFlags& f,
                            const MpiArgs& a) {
  const int64_t parent = a.comm;
  switch (s.coll) {
    case CollectiveKind::CommFree: {
      rank_.comm_free(parent);
      // Invalidate every thread's CommRef cache for this rank: handles are
      // never reused, so a stale hit would bypass the use-after-free check.
      comm_epoch_.fetch_add(1, std::memory_order_release);
      std::scoped_lock lk(armed_comms_mu_);
      std::erase(armed_comms_, parent);
      return 0;
    }
    // Local (unmatched) recovery ops: set_errhandler configures, revoke
    // poisons asynchronously. Neither synchronizes, so the ULFM idiom
    // `if (rank == 0) mpi_comm_revoke(c)` is legal rank-guarded. No epoch
    // bump: the handle stays valid, and shrink/agree still resolve revoked
    // comms.
    case CollectiveKind::CommSetErrhandler:
      rank_.comm_set_errhandler(parent, a.payload != 0
                                            ? simmpi::Errhandler::Return
                                            : simmpi::Errhandler::Abort);
      return 0;
    case CollectiveKind::CommRevoke:
      rank_.comm_revoke(parent);
      return 0;
    default:
      break;
  }
  const int64_t cc =
      f.armed ? cc_id(s, f, -1, a.has_comm ? rank_.comm_id_of(parent) : 0)
              : simmpi::kCcNone;
  return guarded(s, f.has_target, [&]() -> int64_t {
    // Fault-tolerant AND-reduction: completes despite failed members (and
    // on revoked communicators); the agreed flag is the result.
    if (s.coll == CollectiveKind::CommAgree)
      return rank_.comm_agree(parent, a.payload, cc);
    // The result handle's comm class is the textual result variable (sema
    // forbids comm aliasing, so every collective on the child spells this
    // name). Unarmed classes get children without a CC lane — the true
    // zero-overhead path — and are excluded from the exit sentinel.
    int64_t handle = 0;
    if (s.coll == CollectiveKind::CommSplit)
      handle = rank_.comm_split(parent, /*color=*/a.payload, /*key=*/a.root,
                                cc, f.child_armed);
    else if (s.coll == CollectiveKind::CommShrink)
      handle = rank_.comm_shrink(parent, cc, f.child_armed);
    else
      handle = rank_.comm_dup(parent, cc, f.child_armed);
    if (f.child_armed && handle != simmpi::CommRegistry::kNull) {
      std::scoped_lock lk(armed_comms_mu_);
      armed_comms_.push_back(handle);
    }
    return handle;
  });
}

int64_t MpiEffects::recv(const Stmt& s, const MpiFlags& f, int64_t source,
                         int64_t tag) {
  return guarded(s, f.has_target, [&] {
    return rank_.recv(static_cast<int32_t>(source), static_cast<int32_t>(tag));
  });
}

int64_t MpiEffects::wait(const Stmt& s, const MpiFlags& f, int64_t request,
                         const miniomp::ThreadContext& omp) {
  check_thread_level(s.loc, omp);
  return guarded(s, f.has_target, [&] {
    const auto out = rank_.wait_outcome(request);
    if (!out.ok()) request_misuse(s.loc, out.error);
    return out.value;
  });
}

int64_t MpiEffects::test(const Stmt& s, const MpiFlags& f, int64_t request,
                         const miniomp::ThreadContext& omp) {
  check_thread_level(s.loc, omp);
  return guarded(s, f.has_target, [&]() -> int64_t {
    bool done = false;
    const auto out = rank_.test_outcome(request, done);
    if (!out.ok()) request_misuse(s.loc, out.error);
    return done ? 1 : 0;
  });
}

void MpiEffects::waitall(const Stmt& s, std::span<const int64_t> requests,
                         const miniomp::ThreadContext& omp) {
  check_thread_level(s.loc, omp);
  for (const int64_t request : requests) {
    const auto out = rank_.wait_outcome(request);
    if (!out.ok()) request_misuse(s.loc, out.error);
  }
}

void MpiEffects::cc_mismatch(const Stmt& s, const simmpi::CcMismatchError& e) {
  verifier_.report_cc_mismatch(rank_, s.coll, s.loc, e);
}

int64_t MpiEffects::failed_status(const simmpi::RankFailedError& e,
                                  bool has_target) const {
  if (e.dead_rank == rank_.rank() || !has_target) throw;
  return simmpi::kMpiErrRankFailed;
}

int64_t MpiEffects::revoked_status(bool has_target) const {
  if (!has_target) throw;
  return simmpi::kMpiErrRevoked;
}

void MpiEffects::request_misuse(SourceLoc loc, const std::string& what) {
  if (shared_.plan) verifier_.report_request_misuse(rank_, loc, what);
  throw EvalError(what);
}

} // namespace parcoach::interp
