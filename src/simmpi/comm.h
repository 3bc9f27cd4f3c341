// Communicator with slot-based collective matching.
//
// Semantics mirror a real blocking MPI implementation: the k-th collective
// call a rank issues on a communicator matches the k-th call of every other
// rank. The first arriver stamps the slot's signature (kind, root, reduce
// op); later arrivers with a different signature either block forever
// (default — the behaviour that turns mismatches into application hangs,
// which the watchdog then reports) or fail fast in `strict` mode (MUST-like
// reference behaviour used by tests to cross-check the validator).
//
// All entry points are fully thread-safe: with MPI_THREAD_MULTIPLE, several
// threads of one rank may call concurrently; each call consumes its own slot
// index, faithfully reproducing the desynchronization such races cause.
//
// Slot engine (lock-light). Arrival claims the rank's next index with an
// atomic fetch-add, looks the slot up under a short structure lock, and then
// operates on per-slot state only: contributions land in per-rank lanes
// (disjoint indices, no lock), the last depositor computes results and
// publishes them with a release store on `complete`, and readers consume
// them after an acquire load without retaking any communicator-wide lock.
// Waiters park on the slot's own mutex/condvar instead of one communicator
// condition variable, so a completion wakes exactly the ranks of that slot.
//
// CC lane (piggybacked agreement). A Signature may carry a CC id
// (Signature::cc); the id rides in the rank's slot arrival, so the paper's
// collective-consistency agreement costs zero extra synchronization rounds
// for blocking collectives. When every rank has arrived at a slot, the
// arrival that completed the lane compares the armed ids; on disagreement it
// throws CcMismatchError carrying the per-rank picture — before the slot can
// complete (and therefore before the mismatched application collectives can
// deadlock). The id is not part of the matching signature.
#pragma once

#include "ir/collective.h"
#include "simmpi/errors.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace parcoach {
class FaultInjector;
class MetricsRegistry;
class Tracer;
} // namespace parcoach

namespace parcoach::simmpi {

using ir::CollectiveKind;
using ir::ReduceOp;

/// Signature::cc value for "no CC id piggybacked on this call".
inline constexpr int64_t kCcNone = INT64_MIN;
/// CC-lane entry recorded for an arrival that carried no id while other
/// arrivals at the slot did (mixed instrumentation); excluded from the
/// agreement comparison.
inline constexpr int64_t kCcUnchecked = INT64_MIN + 1;

/// Collective call signature; all ranks must agree per slot. `cc` is the
/// piggybacked CC-agreement id (kCcNone when the call is uninstrumented);
/// it rides in the slot's CC lane and does NOT take part in slot matching.
struct Signature {
  CollectiveKind kind{};
  int32_t root = -1;
  std::optional<ReduceOp> op;
  int64_t cc = kCcNone;

  friend bool operator==(const Signature& a, const Signature& b) {
    return a.kind == b.kind && a.root == b.root && a.op == b.op;
  }
  [[nodiscard]] std::string str() const;
};

/// Per-communicator error-handler mode (ULFM semantics). `Abort` is the
/// historical fail-stop behavior and the default: a rank crash aborts the
/// whole world with the precise death site. `Return` delivers failures to
/// the caller instead (RankFailedError / RevokedError), enabling
/// revoke/shrink/agree recovery on the survivors.
enum class Errhandler : uint8_t { Abort, Return };

/// Shared world state: abort flag + progress heartbeat for the watchdog.
/// Communicators register wakers so that an abort wakes every rank blocked
/// anywhere in the world (per-slot condvars included).
struct WorldState {
  std::mutex mu; // guards abort_reason / registries; flags are atomics
  /// The watchdog's wake-up (World::run waits on it between polls): abort()
  /// and the last finishing rank notify it; mark_failed's notify only makes
  /// it re-check its predicate.
  std::condition_variable cv;
  std::atomic<bool> aborted{false};
  std::string abort_reason;
  std::atomic<uint64_t> progress{0}; // bumped on every slot completion

  /// Sets the abort flag (first reason wins) and wakes the watchdog and all
  /// waiters of all registered communicators.
  void abort(const std::string& reason);
  [[nodiscard]] bool is_aborted() const noexcept {
    return aborted.load(std::memory_order_acquire);
  }
  /// Abort reason (thread-safe copy).
  [[nodiscard]] std::string reason();
  /// Registers a callback run on abort (communicators wake their per-slot
  /// parkers and mail waiters through this).
  void register_waker(std::function<void()> waker);

  // -- Failure tracking (ULFM return-mode recovery) ---------------------------
  /// Sizes the per-rank failed flags; called once by World before any rank
  /// runs.
  void init_failure(int32_t num_ranks);
  /// Marks `world_rank` dead with the human-readable death site ("rank 1
  /// died in MPI_Allreduce[sum] @MPI_COMM_WORLD") and wakes every parked
  /// waiter in the world WITHOUT aborting: the wait loops re-check their
  /// predicates and surface per-peer RankFailedError where the dead rank
  /// blocks completion. Idempotent per rank.
  void mark_failed(int32_t world_rank, const std::string& note);
  /// Fast guard for the failure-aware paths: one relaxed atomic load when no
  /// rank ever died (the hot-path contract of the tracer/fault hooks).
  [[nodiscard]] bool any_failed() const noexcept {
    return failures_.load(std::memory_order_acquire) > 0;
  }
  [[nodiscard]] bool is_failed(int32_t world_rank) const noexcept {
    return world_rank >= 0 && world_rank < failure_slots_ &&
           failed_[static_cast<size_t>(world_rank)].load(
               std::memory_order_acquire);
  }
  /// Sorted world ranks that died (census for RunReport).
  [[nodiscard]] std::vector<int32_t> failed_ranks();
  /// The recorded death site of a failed rank ("" when alive).
  [[nodiscard]] std::string death_note(int32_t world_rank);

  /// Observability hooks, set by World before any component is constructed.
  /// `tracer` is already effective()-filtered (null = tracing off), so
  /// components cache it and every emit point is one predictable branch.
  Tracer* tracer = nullptr;
  MetricsRegistry* metrics = nullptr;
  /// Fault-injection hook, same discipline: already effective()-filtered
  /// (null = no faults armed), cached by every component at construction.
  FaultInjector* fault = nullptr;

private:
  std::vector<std::function<void()>> wakers_;
  std::atomic<uint64_t> failures_{0};
  std::unique_ptr<std::atomic<bool>[]> failed_;
  int32_t failure_slots_ = 0;
  std::vector<std::string> death_notes_; // under mu, indexed by world rank
};

/// Per-rank blocked-state snapshot for deadlock reports. Every blocked path
/// fills `comm` (communicator name) and, for slot waits, `sig`/`slot`, so
/// watchdog reports read uniformly for collectives, requests and p2p.
/// Materialized from POD records only when a snapshot is actually taken.
struct BlockedInfo {
  bool blocked = false;
  bool mismatch = false; // arrived with a signature that differs from slot's
  bool in_wait = false;  // blocked in MPI_Wait on a nonblocking request
  size_t slot = 0;
  /// WORLD rank of the blocked thread (sub-communicator snapshots translate
  /// their local indices so cross-communicator reports name one rank space).
  int32_t rank = -1;
  Signature sig;
  std::string comm; // communicator name ("" when not blocked)
  /// Non-empty for point-to-point waits ("recv from 1 tag 0").
  std::string p2p;

  /// One-line human description ("blocked in MPI_Wait on MPI_COMM_WORLD
  /// slot 3 in MPI_Iallreduce[sum]"), shared by the watchdog and tests.
  [[nodiscard]] std::string describe() const;
};

/// Shared site formatter ("MPI_COMM_WORLD slot 3") used by every blocked /
/// mismatch / leak description so communicator naming stays uniform now that
/// comm names vary (MPI_COMM_WORLD, comm_split#N, comm_dup#N, comm_shrink#N).
[[nodiscard]] std::string slot_site(std::string_view comm, size_t slot);

class Comm {
public:
  /// `comm_id` is the registry-assigned identity used by the CC encoding
  /// (0 = MPI_COMM_WORLD); `world_ranks` maps local rank -> world rank for
  /// sub-communicators (empty = identity, i.e. a world-sized communicator).
  /// `cc_lane_enabled` = false gives an *unarmed* communicator the true
  /// zero-overhead path: slots allocate no CC lane, arrivals never publish
  /// or compare ids, and an arrival that does carry a CC id is a caller bug
  /// (UsageError) — the instrumentation planner promises unarmed comms are
  /// never checked.
  Comm(std::string name, int32_t size, WorldState& world, bool strict,
       int32_t comm_id = 0, std::vector<int32_t> world_ranks = {},
       bool cc_lane_enabled = true);

  [[nodiscard]] int32_t size() const noexcept { return size_; }
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] int32_t comm_id() const noexcept { return comm_id_; }
  [[nodiscard]] bool cc_lane_enabled() const noexcept { return cc_enabled_; }

  // -- ULFM error-handler mode ------------------------------------------------
  /// The mode is a property of the (shared) simulated communicator object:
  /// all members see one mode, last set_errhandler wins (programs set it
  /// uniformly; a real per-process handler table is a documented
  /// simplification). Children created by split/dup/shrink inherit the
  /// parent's mode at creation.
  void set_errhandler(Errhandler mode) noexcept {
    errh_.store(static_cast<uint8_t>(mode), std::memory_order_release);
  }
  [[nodiscard]] Errhandler errhandler() const noexcept {
    return static_cast<Errhandler>(errh_.load(std::memory_order_acquire));
  }

  /// ULFM revoke: asynchronous poison. Marks the communicator revoked and
  /// wakes every parked member; all operations except the registry's
  /// shrink/agree then unwind with RevokedError (Return mode) or abort the
  /// world (Abort mode). Idempotent; returns true on the first revocation.
  bool revoke(int32_t world_rank);
  [[nodiscard]] bool is_revoked() const noexcept {
    return revoked_.load(std::memory_order_acquire);
  }

  /// Entry hooks for registry-driven recovery collectives (shrink/agree):
  /// aborted-world fail-fast, self-failure check, and the fault-injection
  /// arrival hooks (delay + possible crash) under this communicator's
  /// error-handler semantics. Deliberately does NOT check revocation:
  /// shrink/agree complete on revoked communicators.
  void recovery_arrival(int32_t rank, const Signature& sig);
  /// World rank of a member (identity when no member map is attached).
  [[nodiscard]] int32_t world_rank_of(int32_t local) const noexcept {
    return world_ranks_.empty() ? local
                                : world_ranks_[static_cast<size_t>(local)];
  }

  struct Result {
    int64_t scalar = 0;
    std::vector<int64_t> vec;
    /// Matching-slot index the result came from; communicator-construction
    /// collectives key their registry creation event on (comm, slot).
    size_t slot = 0;
  };

  /// Executes one blocking collective for `rank`. `scalar` is the rank's
  /// scalar contribution; `vec` its vector contribution (for scatter at
  /// root / alltoall). Blocks until all ranks arrive at the slot (or the
  /// world aborts -> AbortedError / strict mismatch -> MismatchError /
  /// piggybacked CC disagreement -> CcMismatchError on the one arrival that
  /// completed the slot's CC lane).
  Result execute(int32_t rank, const Signature& sig, int64_t scalar,
                 const std::vector<int64_t>& vec = {});

  /// Snapshot of who is blocked where (for the watchdog's report); the
  /// human-readable strings are built here, not on the blocking hot path.
  [[nodiscard]] std::vector<BlockedInfo> blocked_snapshot();
  /// Cheap poll for the watchdog: sets `parked[w]` for every world rank `w`
  /// with a thread currently parked on this communicator (`parked` is
  /// indexed by world rank) and returns whether any was.
  bool mark_parked(std::vector<uint8_t>& parked);

  /// Number of completed slots (tests & stats).
  [[nodiscard]] uint64_t completed_slots() const noexcept {
    return completed_.load(std::memory_order_relaxed);
  }
  /// Number of slots whose piggybacked CC lane ran a full agreement
  /// comparison (one per instrumented collective — the "rounds" the CC
  /// protocol adds beyond the collective itself: zero).
  [[nodiscard]] uint64_t cc_checked_slots() const noexcept {
    return cc_checked_.load(std::memory_order_relaxed);
  }

  // -- Nonblocking slot access (the request engine) ---------------------------
  /// Issues a nonblocking collective: claims `rank`'s next slot, stamps or
  /// checks the signature and deposits the contribution WITHOUT blocking.
  /// On a signature mismatch nothing is deposited: strict mode aborts the
  /// world immediately (MismatchError); otherwise `mismatch` is set and the
  /// hang surfaces when the request is waited on. Returns the slot index.
  /// A piggybacked CC id is compared like in execute() (issue-time check).
  size_t post(int32_t rank, const Signature& sig, int64_t scalar,
              const std::vector<int64_t>& vec, bool& mismatch);

  /// Completes a posted slot for `rank` (MPI_Wait): blocks until every rank
  /// arrived, publishing a BlockedInfo with `in_wait` set meanwhile. A
  /// mismatched post blocks until the world aborts (the deferred hang).
  Result finish(int32_t rank, size_t slot, const Signature& sig, bool mismatched);

  /// Non-blocking completion probe (MPI_Test): if the slot is complete,
  /// consumes `rank`'s result and returns true; otherwise returns false
  /// without blocking. A mismatched post never completes.
  bool try_finish(int32_t rank, size_t slot, bool mismatched, Result& out);

  // -- Point-to-point ---------------------------------------------------------
  /// Blocking send. Default semantics are *eager* (buffered: enqueues and
  /// returns); with `rendezvous` the sender blocks until the matching
  /// receive arrives — reproducing the classic head-to-head exchange
  /// deadlock of unbuffered MPI_Send.
  void send(int32_t src, int32_t dst, int32_t tag, int64_t value,
            bool rendezvous = false);

  /// Blocking receive of one message from (src, tag). Messages from the
  /// same (src, dst, tag) triple arrive in send order (MPI ordering rule).
  int64_t recv(int32_t dst, int32_t src, int32_t tag);

  /// POD blocked-state record; strings are materialized only by
  /// blocked_snapshot() (the watchdog), never on the blocking path. Public
  /// so the registry's recovery events (shrink/agree waiters parked outside
  /// the slot engine) publish their blocked state through the same channel.
  struct BlockedRecord {
    bool blocked = false;
    bool mismatch = false;
    bool in_wait = false;
    size_t slot = 0;
    Signature sig;
    enum class P2p : uint8_t { None, Send, Recv } p2p = P2p::None;
    int32_t peer = -1;
    int32_t tag = 0;
  };

  /// RAII publication of a thread's blocked state around a park. Each scope
  /// owns its record and registers it per rank, so several blocked threads
  /// of one rank (MPI_THREAD_MULTIPLE) stay individually visible to the
  /// watchdog — one thread unblocking must not hide another still parked.
  class BlockedScope {
  public:
    BlockedScope(Comm& c, int32_t rank, const BlockedRecord& rec);
    ~BlockedScope();
    BlockedScope(const BlockedScope&) = delete;
    BlockedScope& operator=(const BlockedScope&) = delete;

  private:
    Comm& c_;
    size_t rank_;
    BlockedRecord rec_;
    int64_t park_a_ = 0;
    int64_t park_c_ = 0;
  };

private:
  struct Slot {
    // Stamped by the first arriver under `m`, read-only afterwards.
    Signature sig;
    bool sig_stamped = false;

    // Per-rank deposit lanes: disjoint indices, written lock-free before the
    // arrival counter's release increment. `present` is atomic because the
    // failure-aware wait loops read it concurrently (dead-nondepositor
    // accounting) while late arrivers are still depositing.
    std::vector<std::atomic<uint8_t>> present;
    std::vector<int64_t> contrib;
    std::vector<std::vector<int64_t>> vec_contrib;

    // CC lane (piggybacked agreement). Every arrival publishes an id
    // (kCcUnchecked when unarmed) and bumps cc_seen with acq_rel; the
    // arrival that brings it to comm size compares the armed ids.
    std::vector<int64_t> cc_ids;
    std::atomic<int32_t> cc_seen{0};
    std::atomic<bool> cc_armed{false};

    // Completion: deposited counts matching-signature contributions; the
    // last depositor computes results and release-publishes `complete`.
    std::atomic<int32_t> deposited{0};
    std::atomic<bool> complete{false};
    std::atomic<int32_t> consumed{0};
    std::vector<int64_t> out_scalar;
    std::vector<std::vector<int64_t>> out_vec;

    // Per-slot parking lot: waiters of this slot only.
    std::mutex m;
    std::condition_variable cv;
  };

  void compute_results(Slot& s);
  /// Returns the slot for `idx`, creating it if needed (short structure
  /// lock only; the returned pointer stays valid until the slot retires).
  Slot* slot_for(size_t idx);
  /// One arrival: stamps/checks the signature, runs the piggybacked CC
  /// lane, deposits on match. Returns false when the signature mismatched
  /// (caller parks for the hang); throws on strict mismatch / CC failure.
  bool arrive(Slot& s, size_t idx, int32_t rank, const Signature& sig,
              int64_t scalar, const std::vector<int64_t>& vec,
              const char* verb);
  /// Publishes the CC id and, as the lane-completing arrival, compares the
  /// agreement. Requires no locks; throws CcMismatchError on disagreement.
  void cc_lane(Slot& s, size_t idx, int32_t rank, int64_t cc);
  /// Extracts `rank`'s result from a complete slot (lock-free) and retires
  /// fully consumed slots off the front.
  Result take_result(int32_t rank, Slot& s, size_t idx);
  /// Parks until the slot completes, the world aborts, the communicator is
  /// revoked, or a failed member leaves the slot permanently incomplete.
  void wait_complete(Slot& s);
  /// Parks until the world aborts (signature-mismatch hang) — or, in a
  /// degraded world, until revocation / a dead nondepositor resolves the
  /// hang into an error. Always throws.
  [[noreturn]] void wait_abort(Slot& s);
  /// Shared resolution of a wait that ended without slot completion: maps
  /// aborted/revoked/dead-member to the right exception, or returns to park
  /// again on a spurious resolution.
  void resolve_incomplete(Slot& s);
  /// World rank of a failed member that has NOT deposited into `s` (-1 =
  /// none). Stable once non-negative: crashes fire before the slot claim,
  /// so a dead rank never deposits afterwards — survivors' collectives on a
  /// comm containing it deterministically complete (dead rank already
  /// deposited) or error (it never will), never hang.
  [[nodiscard]] int32_t dead_nondepositor(Slot& s) const noexcept;
  /// Fast predicate form of the above (guarded by WorldState::any_failed).
  [[nodiscard]] bool slot_dead(Slot& s) const noexcept {
    return world_.any_failed() && dead_nondepositor(s) >= 0;
  }
  /// Raises a peer failure under this communicator's error-handler mode:
  /// Abort => world abort with the recorded death site + AbortedError;
  /// Return => RankFailedError carrying the dead world rank.
  [[noreturn]] void raise_failure(int32_t dead_world_rank);
  /// Raises revocation under the error-handler mode (Abort => world abort,
  /// Return => RevokedError).
  [[noreturn]] void raise_revoked();
  /// A failed rank may still have live sibling threads (a crash unwinds one
  /// thread); every MPI entry re-checks so the whole rank fails stop.
  void throw_if_self_failed(int32_t rank) {
    if (!world_.any_failed()) return;
    const int32_t wr = world_rank_of(rank);
    if (world_.is_failed(wr)) throw RankFailedError(world_.death_note(wr), wr);
  }
  /// Wakes every parked waiter of every live slot (abort path).
  void wake_all_slots();
  /// Strict-mode signature clash: aborts the world and throws. `verb` is
  /// "called" (blocking) or "issued" (nonblocking).
  [[noreturn]] void fail_strict(size_t idx, int32_t rank, const Signature& sig,
                                const Signature& slot_sig, const char* verb);
  /// Entry pre-check shared by every public operation: an already-aborted
  /// world fails fast with the recorded reason.
  void throw_if_aborted() {
    if (world_.is_aborted()) throw AbortedError(world_.reason());
  }
  /// Fault hooks for a collective arrival: a seeded delayed arrival, then a
  /// possible rank crash — "rank R died in <sig> @<comm>" aborts the world
  /// so every parked peer unwinds with that exact diagnostic.
  void fault_arrival(int32_t rank, const Signature& sig);

  std::string name_;
  int32_t size_;
  WorldState& world_;
  bool strict_;
  int32_t comm_id_ = 0;
  std::vector<int32_t> world_ranks_; // local -> world (empty = identity)
  bool cc_enabled_ = true;           // false = no CC lane ever (unarmed comm)
  std::atomic<uint8_t> errh_{static_cast<uint8_t>(Errhandler::Abort)};
  std::atomic<bool> revoked_{false};

  struct MailKey {
    int32_t src, dst, tag;
    friend auto operator<=>(const MailKey&, const MailKey&) = default;
  };
  struct Mailbox {
    std::deque<int64_t> messages;
    int32_t recv_waiting = 0; // receivers blocked on this key (rendezvous)
  };

  // Mailboxes keep the classic lock (p2p is not the hot path).
  std::mutex mail_mu_;
  std::condition_variable mail_cv_;
  std::map<MailKey, Mailbox> mail_;

  // Slot storage: unique_ptr gives address stability while the deque
  // mutates; slots_mu_ guards only the structure, never a wait.
  std::mutex slots_mu_;
  std::deque<std::unique_ptr<Slot>> slots_;
  size_t slot_base_ = 0; // index of slots_.front()
  std::unique_ptr<std::atomic<size_t>[]> next_slot_;

  std::mutex blocked_mu_; // guards blocked_ (slow path + watchdog only)
  /// Active blocked records per rank, newest last; entries point into live
  /// BlockedScope frames and are unregistered on scope exit.
  std::vector<std::vector<const BlockedRecord*>> blocked_;

  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> cc_checked_{0};

  // Observability (cached from WorldState at construction; null = off).
  Tracer* trace_ = nullptr;
  std::atomic<uint64_t>* slot_waits_ = nullptr; // metrics: parks on this comm
  std::atomic<uint64_t>* cc_rounds_ = nullptr;  // metrics: CC agreements run
  // Fault injection (cached from WorldState at construction; null = off).
  FaultInjector* fault_ = nullptr;
};

/// Applies a reduction operator.
[[nodiscard]] int64_t apply_reduce(ReduceOp op, int64_t a, int64_t b) noexcept;

} // namespace parcoach::simmpi
