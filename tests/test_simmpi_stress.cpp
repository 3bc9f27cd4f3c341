// Stress + parity tests for the piggybacked-CC agreement and the lock-light
// slot engine:
//   - multi-thread x multi-rank hammering of mixed blocking/nonblocking
//     collectives under SERIALIZED usage (per-rank mutex), asserting slot
//     counts and data results — the engine's per-slot parking and atomic
//     arrival counters must survive real thread churn;
//   - piggybacked CC rounds: instrumented blocking collectives cost exactly
//     one synchronization round (the collective's own slot), end-to-end
//     through the interpreter too;
//   - parity: every CC diagnostic the paper's dedicated-communicator
//     protocol produced (kind mismatch, argument divergence, early-exit
//     sentinel, type-only hang) keeps its wording on the piggybacked lane;
//     the two exact-wording tests compare against strings captured from
//     that protocol's last implementation.
#include "driver/pipeline.h"
#include "interp/executor.h"
#include "rt/verifier.h"
#include "simmpi/world.h"
#include "support/metrics.h"
#include "support/trace.h"

#include <gtest/gtest.h>

#include <barrier>
#include <mutex>
#include <thread>

namespace parcoach {
namespace {

using simmpi::Rank;
using simmpi::ReduceOp;
using simmpi::Signature;
using simmpi::World;

World::Options fast_world(int32_t ranks) {
  World::Options o;
  o.num_ranks = ranks;
  o.hang_timeout = std::chrono::milliseconds(2000);
  return o;
}

// ---- Slot-engine stress -------------------------------------------------------

TEST(SlotEngineStress, MixedBlockingNonblockingUnderSerialized) {
  constexpr int32_t kRanks = 4;
  constexpr int kThreads = 3;
  constexpr int kIters = 40;
  World w(fast_world(kRanks));
  std::atomic<int64_t> checked{0};
  const auto rep = w.run([&](Rank& mpi) {
    mpi.init(ir::ThreadLevel::Serialized);
    // SERIALIZED usage: threads of one rank take turns in MPI. Phases are
    // homogeneous (every slot of a phase carries the same signature), so any
    // thread interleaving matches across ranks; a per-rank barrier separates
    // the phases.
    std::mutex mpi_mu;
    std::barrier phase(kThreads);
    auto worker = [&] {
      // Phase A: blocking allreduce.
      for (int i = 0; i < kIters; ++i) {
        std::scoped_lock lk(mpi_mu);
        if (mpi.allreduce(1, ReduceOp::Sum) == kRanks) checked.fetch_add(1);
      }
      phase.arrive_and_wait();
      // Phase B: nonblocking iallreduce, waited immediately.
      for (int i = 0; i < kIters; ++i) {
        std::scoped_lock lk(mpi_mu);
        const int64_t r = mpi.iallreduce(1, ReduceOp::Sum);
        if (mpi.wait(r) == kRanks) checked.fetch_add(1);
      }
      phase.arrive_and_wait();
      // Phase C: nonblocking barrier.
      for (int i = 0; i < kIters; ++i) {
        std::scoped_lock lk(mpi_mu);
        if (mpi.wait(mpi.ibarrier()) == 0) checked.fetch_add(1);
      }
    };
    std::vector<std::thread> threads;
    for (int t = 1; t < kThreads; ++t) threads.emplace_back(worker);
    worker();
    for (auto& t : threads) t.join();
  });
  EXPECT_TRUE(rep.ok) << rep.abort_reason << rep.deadlock_details;
  EXPECT_TRUE(rep.thread_level_violations.empty())
      << "mutex-serialized calls must satisfy SERIALIZED";
  EXPECT_TRUE(rep.leaked_requests.empty());
  // Every (rank, thread, iter, phase) consumed exactly one slot.
  EXPECT_EQ(rep.app_slots_completed,
            static_cast<uint64_t>(kThreads) * kIters * 3);
  EXPECT_EQ(checked.load(), int64_t{kRanks} * kThreads * kIters * 3);
}

TEST(SlotEngineStress, ConcurrentThreadsUnderMultipleNoSerialization) {
  // MPI_THREAD_MULTIPLE: threads race into the slot engine with no external
  // lock at all; same-signature slots match in any interleaving.
  constexpr int32_t kRanks = 2;
  constexpr int kThreads = 4;
  constexpr int kIters = 100;
  World w(fast_world(kRanks));
  const auto rep = w.run([&](Rank& mpi) {
    mpi.init(ir::ThreadLevel::Multiple);
    auto worker = [&] {
      for (int i = 0; i < kIters; ++i) mpi.allreduce(1, ReduceOp::Sum);
    };
    std::vector<std::thread> threads;
    for (int t = 1; t < kThreads; ++t) threads.emplace_back(worker);
    worker();
    for (auto& t : threads) t.join();
  });
  EXPECT_TRUE(rep.ok) << rep.abort_reason << rep.deadlock_details;
  EXPECT_TRUE(rep.thread_level_violations.empty());
  EXPECT_EQ(rep.app_slots_completed,
            static_cast<uint64_t>(kThreads) * kIters);
}

TEST(SlotEngineStress, WatchdogSeesSecondBlockedThreadOfARank) {
  // Two threads of rank 0 claim slots 0 and 1; rank 1 only ever arrives at
  // slot 0. The thread stuck on slot 1 must stay visible to the watchdog
  // even after its sibling unblocks — one BlockedScope exiting must not
  // hide another thread of the same rank that is still parked.
  World::Options o = fast_world(2);
  o.hang_timeout = std::chrono::milliseconds(200);
  World w(o);
  const auto rep = w.run([&](Rank& mpi) {
    mpi.init(ir::ThreadLevel::Multiple);
    auto one_allreduce = [&] {
      try {
        mpi.allreduce(1, ReduceOp::Sum);
      } catch (const simmpi::AbortedError&) {
        // the slot-1 thread unwinds when the watchdog aborts
      }
    };
    if (mpi.rank() == 0) {
      std::thread extra(one_allreduce);
      one_allreduce();
      extra.join();
    } else {
      one_allreduce();
    }
  });
  EXPECT_TRUE(rep.deadlock) << "watchdog must see the still-parked thread";
  EXPECT_NE(rep.deadlock_details.find("rank 0 blocked"), std::string::npos)
      << rep.deadlock_details;
}

TEST(SlotEngineStress, ThreadsSplitAcrossTwoCommsUnderSerialized) {
  // Each rank joins a parity subcomm; threads alternate collectives between
  // the subcomm and the world, serialized per rank. Both comms' lock-light
  // slot engines run under churn; matching on one must not disturb the
  // other.
  constexpr int32_t kRanks = 4;
  constexpr int kThreads = 3;
  constexpr int kIters = 30;
  World w(fast_world(kRanks));
  std::atomic<int64_t> checked{0};
  const auto rep = w.run([&](Rank& mpi) {
    mpi.init(ir::ThreadLevel::Serialized);
    const int64_t c = mpi.comm_split(Rank::kCommWorld, mpi.rank() % 2, 0);
    std::mutex mpi_mu;
    auto worker = [&] {
      for (int i = 0; i < kIters; ++i) {
        std::scoped_lock lk(mpi_mu);
        const Signature sum{ir::CollectiveKind::Allreduce, -1, ReduceOp::Sum};
        if (mpi.execute_on(c, sum, 1).scalar == 2) checked.fetch_add(1);
        if (mpi.allreduce(1, ReduceOp::Sum) == kRanks) checked.fetch_add(1);
      }
    };
    std::vector<std::thread> threads;
    for (int t = 1; t < kThreads; ++t) threads.emplace_back(worker);
    worker();
    for (auto& t : threads) t.join();
  });
  EXPECT_TRUE(rep.ok) << rep.abort_reason << rep.deadlock_details;
  EXPECT_TRUE(rep.thread_level_violations.empty());
  EXPECT_EQ(rep.comms_created, 2u);
  // Per comm, each matched collective completes one slot: 1 split on world,
  // kThreads*kIters world allreduces, kThreads*kIters per subcomm.
  EXPECT_EQ(rep.app_slots_completed,
            1u + static_cast<uint64_t>(kThreads) * kIters * 3);
  EXPECT_EQ(checked.load(), int64_t{kRanks} * kThreads * kIters * 2);
}

TEST(SlotEngineStress, ThreadsSplitAcrossTwoCommsUnderMultiple) {
  // MPI_THREAD_MULTIPLE: no external lock; homogeneous phases per comm so
  // any interleaving matches. Threads hammer the subcomm and the world
  // concurrently.
  constexpr int32_t kRanks = 2;
  constexpr int kThreads = 4;
  constexpr int kIters = 60;
  World w(fast_world(kRanks));
  const auto rep = w.run([&](Rank& mpi) {
    mpi.init(ir::ThreadLevel::Multiple);
    const int64_t c = mpi.comm_split(Rank::kCommWorld, 0, mpi.rank());
    auto worker = [&] {
      const Signature sum{ir::CollectiveKind::Allreduce, -1, ReduceOp::Sum};
      for (int i = 0; i < kIters; ++i) mpi.execute_on(c, sum, 1);
      for (int i = 0; i < kIters; ++i) mpi.allreduce(1, ReduceOp::Sum);
    };
    std::vector<std::thread> threads;
    for (int t = 1; t < kThreads; ++t) threads.emplace_back(worker);
    worker();
    for (auto& t : threads) t.join();
  });
  EXPECT_TRUE(rep.ok) << rep.abort_reason << rep.deadlock_details;
  EXPECT_TRUE(rep.thread_level_violations.empty());
  EXPECT_EQ(rep.comms_created, 1u);
  EXPECT_EQ(rep.app_slots_completed,
            1u + static_cast<uint64_t>(kThreads) * kIters * 2);
}

TEST(SlotEngineStress, TracedMultipleWithConcurrentFlightRecorderReader) {
  // MPI_THREAD_MULTIPLE churn with the flight recorder armed, while another
  // thread keeps reading the rings (snapshot + flight_recorder), exactly
  // what the watchdog does on a live hang. The all-relaxed-atomic ring slots
  // and the release/acquire head handoff must keep this TSan-clean, and
  // tracing must not disturb the slot accounting.
  constexpr int32_t kRanks = 2;
  constexpr int kThreads = 4;
  constexpr int kIters = 60;
  Tracer tracer(Tracer::Options{true, /*ring_capacity=*/128});
  MetricsRegistry metrics;
  World::Options o = fast_world(kRanks);
  o.tracer = &tracer;
  o.metrics = &metrics;
  World w(o);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)tracer.snapshot();
      (void)tracer.flight_recorder({0, 1}, 4);
    }
  });
  const auto rep = w.run([&](Rank& mpi) {
    mpi.init(ir::ThreadLevel::Multiple);
    auto worker = [&] {
      for (int i = 0; i < kIters; ++i) mpi.allreduce(1, ReduceOp::Sum);
    };
    std::vector<std::thread> threads;
    for (int t = 1; t < kThreads; ++t) threads.emplace_back(worker);
    worker();
    for (auto& t : threads) t.join();
  });
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_TRUE(rep.ok) << rep.abort_reason << rep.deadlock_details;
  EXPECT_EQ(rep.app_slots_completed,
            static_cast<uint64_t>(kThreads) * kIters);
  EXPECT_GT(tracer.events_captured(), 0u);
  EXPECT_GT(metrics.counter("comm.MPI_COMM_WORLD.slot_waits").load(), 0u);
}

// ---- Recovery stress: revoke racing parked arrivals ---------------------------

TEST(RecoveryStress, ConcurrentRevokeVsParkedArrivalsAndFlightReader) {
  // One rank per round revokes a dup'd comm while the other ranks' threads
  // are still hammering allreduces on it — so arrivals are parked in slots
  // the revoker will never fill — and a flight-recorder reader thread keeps
  // snapshotting the rings throughout (what the watchdog does on a live
  // hang). Every parked thread must wake with RevokedError (no hang), the
  // post-revoke agree must still complete on the revoked comm, and the
  // shrink must hand back a working communicator. The whole dance must be
  // TSan-clean.
  constexpr int32_t kRanks = 4;
  constexpr int kThreads = 3;
  constexpr int kIters = 50;
  constexpr int kRounds = 4;
  Tracer tracer(Tracer::Options{true, /*ring_capacity=*/128});
  World::Options o = fast_world(kRanks);
  o.tracer = &tracer;
  World w(o);
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      (void)tracer.snapshot();
      (void)tracer.flight_recorder({0, 1, 2, 3}, 4);
    }
  });
  std::atomic<int64_t> revoked_seen{0};
  std::atomic<int64_t> shrunk_checked{0};
  const auto rep = w.run([&](Rank& mpi) {
    mpi.init(ir::ThreadLevel::Multiple);
    mpi.comm_set_errhandler(Rank::kCommWorld, simmpi::Errhandler::Return);
    for (int round = 0; round < kRounds; ++round) {
      const int64_t c = mpi.comm_dup(Rank::kCommWorld);
      auto worker = [&] {
        const Signature sum{ir::CollectiveKind::Allreduce, -1, ReduceOp::Sum};
        for (int i = 0; i < kIters; ++i) {
          try {
            mpi.execute_on(c, sum, 1);
          } catch (const simmpi::RevokedError&) {
            revoked_seen.fetch_add(1);
            break;
          }
        }
      };
      std::vector<std::thread> threads;
      for (int t = 1; t < kThreads; ++t) threads.emplace_back(worker);
      if (mpi.rank() == round % kRanks) {
        // The revoker's main thread poisons the comm while its sibling
        // threads and every other rank are mid-hammer.
        mpi.comm_revoke(c);
      } else {
        worker();
      }
      for (auto& t : threads) t.join();
      // Fault-tolerant consensus completes on the revoked comm and
      // resynchronizes the round; the shrunk comm (same membership — nobody
      // died) must be fully usable.
      EXPECT_EQ(mpi.comm_agree(c, 1), 1);
      const int64_t fresh = mpi.comm_shrink(c);
      const Signature sum{ir::CollectiveKind::Allreduce, -1, ReduceOp::Sum};
      if (mpi.execute_on(fresh, sum, 1).scalar == kRanks)
        shrunk_checked.fetch_add(1);
    }
  });
  stop.store(true, std::memory_order_relaxed);
  reader.join();
  EXPECT_TRUE(rep.ok) << rep.abort_reason << rep.deadlock_details;
  EXPECT_FALSE(rep.deadlock) << rep.deadlock_details;
  EXPECT_EQ(rep.comms_revoked, static_cast<uint64_t>(kRounds));
  EXPECT_EQ(rep.comms_shrunk, static_cast<uint64_t>(kRounds));
  // At least the revoker's own parked siblings observe the revocation every
  // round; typically far more do.
  EXPECT_GT(revoked_seen.load(), 0);
  EXPECT_EQ(shrunk_checked.load(), int64_t{kRanks} * kRounds);
  EXPECT_GT(tracer.events_captured(), 0u);
}

// ---- Piggybacked CC: round counting -------------------------------------------

TEST(PiggybackedCc, AgreementCostsZeroDedicatedRounds) {
  constexpr int32_t kRanks = 4;
  constexpr int kIters = 200;
  SourceManager sm;
  World w(fast_world(kRanks));
  rt::Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    for (int i = 0; i < kIters; ++i) {
      Signature sig{ir::CollectiveKind::Allreduce, -1, ReduceOp::Sum};
      sig.cc = v.cc_lane_id(sig.kind, sig.op, sig.root);
      EXPECT_EQ(mpi.execute(sig, 1).scalar, kRanks);
    }
  });
  EXPECT_TRUE(rep.ok) << rep.abort_reason;
  EXPECT_EQ(v.error_count(), 0u);
  // One synchronization round per instrumented collective: the app slot
  // itself.
  EXPECT_EQ(rep.app_slots_completed, static_cast<uint64_t>(kIters));
  EXPECT_EQ(rep.cc_piggybacked, static_cast<uint64_t>(kIters));
}

TEST(PiggybackedCc, EndToEndInterpreterUsesNoVerifierRounds) {
  // A loop collective is conservatively CC-armed by Algorithm 1; the
  // instrumented run must do all its checking inside application slots.
  static constexpr const char* kSrc = R"(func main() {
  mpi_init(single);
  var x = rank() + 1;
  for (i = 0 to 10) {
    x = mpi_allreduce(x, sum);
  }
  mpi_finalize();
}
)";
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions opts;
  opts.mode = driver::Mode::WarningsAndCodegen;
  const auto r = driver::compile(sm, "piggyback_e2e", kSrc, diags, opts);
  ASSERT_TRUE(r.ok) << diags.to_text(sm);
  ASSERT_FALSE(r.plan.cc_stmts.empty());

  interp::Executor exec(r.program, sm, &r.plan);
  interp::ExecOptions eopts;
  eopts.num_ranks = 2;
  eopts.mpi.hang_timeout = std::chrono::milliseconds(2500);
  const auto res = exec.run(eopts);
  EXPECT_TRUE(res.clean) << res.mpi.abort_reason << res.mpi.deadlock_details;
  EXPECT_GE(res.mpi.cc_piggybacked, 10u);
}

// ---- Parity: CC diagnostics keep their wording --------------------------------

// Reports of the paper's dedicated-communicator protocol (an allgather of
// the CC ids before every collective), captured from its last
// implementation: rank 0 about to bcast (root 0) while rank 1 reduces (sum,
// root 0), and rank 0 leaving main while rank 1 checks a barrier.
constexpr const char* kLegacyKindMismatch =
    "CC check: MPI processes are about to execute different collectives "
    "(rank 0=MPI_Bcast(root=0), rank 1=MPI_Reduce[sum](root=0)); stopping "
    "before deadlock";
constexpr const char* kLegacyEarlyExit =
    "CC check: some processes leave main while others still execute "
    "collectives (rank 0=<left main>, rank 1=MPI_Barrier); stopping before "
    "deadlock";

TEST(PiggybackedCcParity, KindMismatchWordingIdenticalToLegacy) {
  SourceManager sm;
  World w(fast_world(2));
  rt::Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    Signature sig = mpi.rank() == 0
                        ? Signature{ir::CollectiveKind::Bcast, 0, {}}
                        : Signature{ir::CollectiveKind::Reduce, 0, ReduceOp::Sum};
    sig.cc = v.cc_lane_id(sig.kind, sig.op, sig.root);
    try {
      mpi.execute(sig, 1);
    } catch (const simmpi::CcMismatchError& e) {
      v.report_cc_mismatch(mpi, sig.kind, {}, e);
    }
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock) << "CC must fire before the watchdog";
  ASSERT_EQ(v.error_count(), 1u);
  EXPECT_EQ(v.diagnostics()[0].message, kLegacyKindMismatch)
      << "piggybacked CC must reproduce the legacy report bit-for-bit";
  EXPECT_EQ(v.diagnostics()[0].kind, DiagKind::RtCollectiveMismatch);
}

TEST(PiggybackedCcParity, EarlyExitSentinelWordingIdenticalToLegacy) {
  // The sentinel deposits FINAL into the rank's next app slot.
  SourceManager sm;
  World w(fast_world(2));
  rt::Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 0) {
      v.check_cc_final_piggybacked(mpi, {});
    } else {
      Signature sig{ir::CollectiveKind::Barrier, -1, {}};
      sig.cc = v.cc_lane_id(sig.kind, sig.op, sig.root);
      try {
        mpi.execute(sig, 0);
      } catch (const simmpi::CcMismatchError& e) {
        v.report_cc_mismatch(mpi, sig.kind, {}, e);
      }
    }
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock);
  ASSERT_EQ(v.error_count(), 1u);
  EXPECT_EQ(v.diagnostics()[0].message, kLegacyEarlyExit);
}

TEST(PiggybackedCcParity, ArgumentDivergenceCaughtWithOpNames) {
  SourceManager sm;
  World w(fast_world(2));
  rt::Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    const auto op = mpi.rank() == 0 ? ReduceOp::Sum : ReduceOp::Max;
    Signature sig{ir::CollectiveKind::Allreduce, -1, op};
    sig.cc = v.cc_lane_id(sig.kind, sig.op, sig.root);
    try {
      mpi.execute(sig, 1);
    } catch (const simmpi::CcMismatchError& e) {
      v.report_cc_mismatch(mpi, sig.kind, {}, e);
    }
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock);
  ASSERT_EQ(v.error_count(), 1u);
  EXPECT_NE(v.diagnostics()[0].message.find("[sum]"), std::string::npos);
  EXPECT_NE(v.diagnostics()[0].message.find("[max]"), std::string::npos);
}

TEST(PiggybackedCcParity, RootDivergenceCaughtWithRootNames) {
  SourceManager sm;
  World w(fast_world(2));
  rt::Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    Signature sig{ir::CollectiveKind::Bcast, mpi.rank(), {}};
    sig.cc = v.cc_lane_id(sig.kind, sig.op, sig.root);
    try {
      mpi.execute(sig, 1);
    } catch (const simmpi::CcMismatchError& e) {
      v.report_cc_mismatch(mpi, sig.kind, {}, e);
    }
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock);
  ASSERT_EQ(v.error_count(), 1u);
  EXPECT_NE(v.diagnostics()[0].message.find("root="), std::string::npos);
}

TEST(PiggybackedCcParity, TypeOnlyModeStillHangsOnRootDivergence) {
  // Paper-faithful mode: kinds agree, the wrong root is NOT part of the
  // agreement, so the divergence must surface as a watchdog hang naming the
  // roots — exactly like the legacy protocol.
  SourceManager sm;
  auto wopts = fast_world(2);
  wopts.hang_timeout = std::chrono::milliseconds(200);
  World w(wopts);
  rt::VerifierOptions vopts;
  vopts.check_arguments = false;
  rt::Verifier v(sm, vopts);
  const auto rep = w.run([&](Rank& mpi) {
    Signature sig{ir::CollectiveKind::Bcast, mpi.rank(), {}};
    sig.cc = v.cc_lane_id(sig.kind, sig.op, sig.root);
    try {
      mpi.execute(sig, 1);
    } catch (const simmpi::CcMismatchError& e) {
      v.report_cc_mismatch(mpi, sig.kind, {}, e);
    }
  });
  EXPECT_EQ(v.error_count(), 0u) << "type-only CC must not see the root";
  EXPECT_TRUE(rep.deadlock) << "root divergence must surface as a hang";
  EXPECT_NE(rep.deadlock_details.find("root="), std::string::npos)
      << rep.deadlock_details;
}

TEST(PiggybackedCcParity, NonblockingIssueTimeMismatchCaught) {
  SourceManager sm;
  World w(fast_world(2));
  rt::Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    Signature sig = mpi.rank() == 0
                        ? Signature{ir::CollectiveKind::Ibarrier, -1, {}}
                        : Signature{ir::CollectiveKind::Iallreduce, -1,
                                    ReduceOp::Sum};
    sig.cc = v.cc_lane_id(sig.kind, sig.op, sig.root);
    try {
      const int64_t r = mpi.istart(sig, 1);
      mpi.wait(r);
    } catch (const simmpi::CcMismatchError& e) {
      v.report_cc_mismatch(mpi, sig.kind, {}, e);
    }
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock) << "CC must fire at issue time, before the waits";
  ASSERT_EQ(v.error_count(), 1u);
  const auto diags = v.diagnostics();
  EXPECT_NE(diags[0].message.find("MPI_Ibarrier"), std::string::npos);
  EXPECT_NE(diags[0].message.find("MPI_Iallreduce"), std::string::npos);
}

// ---- Parity: the rest of the runtime diagnostics stay intact ------------------

TEST(PiggybackedCcParity, InterpreterDiagnosticsKeepTheirWording) {
  // End-to-end corpus-shaped programs through the instrumented interpreter:
  // the exact phrases asserted throughout test_rt / test_nonblocking must
  // keep firing on the piggybacked path.
  struct Case {
    const char* src;
    const char* phrase; // must appear in some rt diagnostic
  };
  const Case cases[] = {
      {R"(func main() {
  mpi_init(single);
  var x = rank() + 5;
  if (rank() == 0) {
    x = mpi_reduce(x, sum, 0);
  } else {
    x = mpi_bcast(x, 0);
  }
  mpi_finalize();
}
)",
       "CC check: MPI processes are about to execute different collectives"},
      {R"(func main() {
  mpi_init(single);
  var x = rank();
  if (rank() == 0) {
    return;
  }
  mpi_barrier();
  mpi_finalize();
}
)",
       "CC check: some processes leave main while others still execute "
       "collectives"},
      {R"(func main() {
  mpi_init(single);
  var r = mpi_ibarrier();
  if (rank() == 0) {
    mpi_wait(r);
  }
  mpi_finalize();
}
)",
       "request check: rank 1 reaches mpi_finalize with 1 outstanding "
       "nonblocking request"},
  };
  for (const Case& c : cases) {
    SourceManager sm;
    DiagnosticEngine diags;
    driver::PipelineOptions opts;
    opts.mode = driver::Mode::WarningsAndCodegen;
    const auto r = driver::compile(sm, "parity", c.src, diags, opts);
    ASSERT_TRUE(r.ok) << diags.to_text(sm);
    interp::Executor exec(r.program, sm, &r.plan);
    interp::ExecOptions eopts;
    eopts.num_ranks = 2;
    eopts.mpi.hang_timeout = std::chrono::milliseconds(2500);
    const auto res = exec.run(eopts);
    EXPECT_FALSE(res.mpi.deadlock) << c.phrase << "\n"
                                   << res.mpi.deadlock_details;
    bool found = false;
    for (const auto& d : res.rt_diags)
      found |= d.message.find(c.phrase) != std::string::npos;
    EXPECT_TRUE(found) << "missing diagnostic phrase: " << c.phrase;
  }
}

} // namespace
} // namespace parcoach
