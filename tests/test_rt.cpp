// Unit tests: the runtime verifier — CC protocol on the piggybacked lane
// (agreement, mismatch, process-exit sentinel), occupancy guards, region
// registry, thread-usage checks. Exercised directly over simmpi worlds (no
// interpreter); the remaining CC lane cases (exact report wording, op/root
// divergence, nonblocking issue) live in test_simmpi_stress.cpp.
#include "rt/verifier.h"

#include "driver/pipeline.h"
#include "interp/executor.h"
#include "support/str.h"

#include <gtest/gtest.h>

namespace parcoach::rt {
namespace {

using simmpi::Rank;
using simmpi::Signature;
using simmpi::World;

World::Options fast_world(int32_t ranks) {
  World::Options o;
  o.num_ranks = ranks;
  o.hang_timeout = std::chrono::milliseconds(200);
  return o;
}

/// Issues `sig` with its CC id on the piggybacked lane, the way the
/// interpreter's MPI-semantics layer does: the id rides in the collective's
/// own slot arrival, and a disagreement reaches report_cc_mismatch on the one
/// thread the slot engine throws it to. Nonblocking kinds are issued and then
/// waited on. `comm_id` is the identity encoded in the id (the registry id of
/// `comm` in real use).
void lane(Verifier& v, Rank& mpi, Signature sig, int32_t comm_id = 0,
          int64_t comm = Rank::kCommWorld) {
  sig.cc = v.cc_lane_id(sig.kind, sig.op, sig.root, comm_id);
  try {
    if (ir::is_nonblocking(sig.kind))
      mpi.wait(mpi.istart_on(comm, sig, 1));
    else
      mpi.execute_on(comm, sig, 1);
  } catch (const simmpi::CcMismatchError& e) {
    v.report_cc_mismatch(mpi, sig.kind, {}, e);
  }
}

TEST(CcProtocol, AgreementPassesInOneRoundPerCollective) {
  SourceManager sm;
  World w(fast_world(4));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    lane(v, mpi, {ir::CollectiveKind::Allreduce, -1, simmpi::ReduceOp::Sum});
    lane(v, mpi, {ir::CollectiveKind::Barrier, -1, {}});
  });
  EXPECT_TRUE(rep.ok) << rep.abort_reason;
  EXPECT_EQ(v.error_count(), 0u);
  EXPECT_EQ(rep.app_slots_completed, 2u);
  EXPECT_EQ(rep.cc_piggybacked, 2u);
}

TEST(CcProtocol, TypeOnlyModeIsPaperFaithful) {
  // With check_arguments off, an op divergence passes CC (the paper does not
  // check arguments) and becomes a hang caught by the watchdog instead.
  SourceManager sm;
  World w(fast_world(2));
  VerifierOptions vopts;
  vopts.check_arguments = false;
  Verifier v(sm, vopts);
  const auto rep = w.run([&](Rank& mpi) {
    const auto op = mpi.rank() == 0 ? simmpi::ReduceOp::Sum : simmpi::ReduceOp::Max;
    lane(v, mpi, {ir::CollectiveKind::Allreduce, -1, op});
  });
  EXPECT_EQ(v.error_count(), 0u) << "type-only CC must not flag op divergence";
  EXPECT_TRUE(rep.deadlock) << "the op mismatch then hangs in the collective";
}

TEST(CcProtocol, BlockingVsNonblockingKindDistinguished) {
  SourceManager sm;
  World w(fast_world(2));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    lane(v, mpi,
         {mpi.rank() == 0 ? ir::CollectiveKind::Barrier
                          : ir::CollectiveKind::Ibarrier,
          -1, {}});
  });
  EXPECT_FALSE(rep.deadlock);
  ASSERT_EQ(v.error_count(), 1u);
  const auto diags = v.diagnostics();
  EXPECT_NE(diags[0].message.find("MPI_Barrier"), std::string::npos);
  EXPECT_NE(diags[0].message.find("MPI_Ibarrier"), std::string::npos);
}

TEST(CcProtocol, EarlyExitDetectedBySentinel) {
  SourceManager sm;
  World w(fast_world(3));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 0) {
      // Leaving while the others still communicate.
      v.check_cc_final_piggybacked(mpi, {});
    } else {
      lane(v, mpi, {ir::CollectiveKind::Barrier, -1, {}});
    }
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock);
  ASSERT_EQ(v.error_count(), 1u);
  const std::string msg = v.diagnostics()[0].message;
  EXPECT_NE(msg.find("leave main"), std::string::npos) << msg;
  EXPECT_NE(msg.find("rank 2=MPI_Barrier"), std::string::npos) << msg;
}

TEST(CcProtocol, AllFinalsPass) {
  SourceManager sm;
  World w(fast_world(3));
  Verifier v(sm, {});
  const auto rep =
      w.run([&](Rank& mpi) { v.check_cc_final_piggybacked(mpi, {}); });
  EXPECT_TRUE(rep.ok) << rep.abort_reason;
  EXPECT_EQ(v.error_count(), 0u);
}

TEST(CcProtocol, CommIdentityDistinguishesSameKindOnDifferentComms) {
  // Two identical collectives whose ids name different communicators must
  // not agree: with the comm identity in the encoding, the CC catches the
  // divergence and names both comms.
  SourceManager sm;
  World w(fast_world(2));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    // Rank r claims to run the allreduce on comm id r+1.
    lane(v, mpi, {ir::CollectiveKind::Allreduce, -1, simmpi::ReduceOp::Sum},
         /*comm_id=*/mpi.rank() + 1);
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock) << "comm divergence must be a CC abort, not a hang";
  ASSERT_EQ(v.error_count(), 1u);
  const std::string msg = v.diagnostics()[0].message;
  EXPECT_NE(msg.find("@comm#1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("@comm#2"), std::string::npos) << msg;
}

TEST(CcProtocol, CommIdentityTakesPartEvenInTypeOnlyMode) {
  // "Which communicator" is part of the collective's identity, not an
  // argument: the paper-faithful type-only mode must still see it.
  SourceManager sm;
  VerifierOptions vopts;
  vopts.check_arguments = false;
  World w(fast_world(2));
  Verifier v(sm, vopts);
  const auto rep = w.run([&](Rank& mpi) {
    lane(v, mpi, {ir::CollectiveKind::Barrier, -1, {}},
         /*comm_id=*/mpi.rank() == 0 ? 0 : 3);
  });
  EXPECT_FALSE(rep.ok);
  ASSERT_EQ(v.error_count(), 1u);
  EXPECT_NE(v.diagnostics()[0].message.find("@comm#3"), std::string::npos)
      << v.diagnostics()[0].message;
}

TEST(CcProtocol, WorldCommIdKeepsLegacyIdsBitIdentical) {
  // comm id 0 must not change any world-only encoding: every world
  // diagnostic wording (asserted string-equal elsewhere) depends on it.
  SourceManager sm;
  Verifier v(sm, {});
  EXPECT_EQ(v.cc_lane_id(ir::CollectiveKind::Allreduce, simmpi::ReduceOp::Sum,
                         -1),
            v.cc_lane_id(ir::CollectiveKind::Allreduce, simmpi::ReduceOp::Sum,
                         -1, /*comm_id=*/0));
  EXPECT_NE(v.cc_lane_id(ir::CollectiveKind::Allreduce, simmpi::ReduceOp::Sum,
                         -1, /*comm_id=*/1),
            v.cc_lane_id(ir::CollectiveKind::Allreduce, simmpi::ReduceOp::Sum,
                         -1, /*comm_id=*/2));
}

TEST(CcProtocol, PiggybackedPerCommStreamCatchesDupMismatch) {
  // End-to-end on a dup'd communicator: ranks disagree on the reduce op of
  // the collective they run on the dup; the CC id rides in the dup comm's
  // own slot and the report names the comm identity.
  SourceManager sm;
  World w(fast_world(2));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    const int64_t d = mpi.comm_dup(Rank::kCommWorld);
    const auto op =
        mpi.rank() == 0 ? simmpi::ReduceOp::Sum : simmpi::ReduceOp::Max;
    lane(v, mpi, {ir::CollectiveKind::Allreduce, -1, op}, mpi.comm_id_of(d), d);
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock) << "per-comm CC must fire before the hang";
  ASSERT_EQ(v.error_count(), 1u);
  const std::string msg = v.diagnostics()[0].message;
  EXPECT_NE(msg.find("[sum]@comm#1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("[max]@comm#1"), std::string::npos) << msg;
}

TEST(CcProtocol, SubcommMismatchReportNamesWorldRanks) {
  // World ranks 1 and 2 form comm_split#1 (rank 0 opts out) and disagree on
  // the reduce op there. The CC ids are gathered by comm-LOCAL rank; the
  // report must translate to world ranks — naming rank 0 (not even a
  // member) or misattributing rank 2's op to rank 1 would be wrong.
  SourceManager sm;
  World w(fast_world(3));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    const int64_t c =
        mpi.comm_split(Rank::kCommWorld, mpi.rank() == 0 ? -1 : 0, 0);
    if (mpi.rank() == 0) return;
    const auto op =
        mpi.rank() == 1 ? simmpi::ReduceOp::Sum : simmpi::ReduceOp::Max;
    lane(v, mpi, {ir::CollectiveKind::Allreduce, -1, op}, mpi.comm_id_of(c), c);
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock);
  ASSERT_EQ(v.error_count(), 1u);
  const std::string msg = v.diagnostics()[0].message;
  EXPECT_NE(msg.find("rank 1=MPI_Allreduce[sum]@comm#1"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("rank 2=MPI_Allreduce[max]@comm#1"), std::string::npos)
      << msg;
  EXPECT_EQ(msg.find("rank 0="), std::string::npos)
      << "non-members must not appear: " << msg;
}

TEST(MonoGuard, SingleThreadPasses) {
  SourceManager sm;
  World w(fast_world(2));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    for (int i = 0; i < 5; ++i) {
      Verifier::MonoGuard guard(v, mpi, /*stmt_id=*/7, {});
      mpi.barrier();
    }
  });
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(v.error_count(), 0u);
}

TEST(MonoGuard, ConcurrentThreadsDetected) {
  SourceManager sm;
  World w(fast_world(1));
  VerifierOptions vopts;
  vopts.rendezvous = std::chrono::milliseconds(50);
  Verifier v(sm, vopts);
  const auto rep = w.run([&](Rank& mpi) {
    auto hit_site = [&] {
      try {
        Verifier::MonoGuard guard(v, mpi, /*stmt_id=*/9, {});
      } catch (const simmpi::AbortedError&) {
        // expected on the detecting thread
      }
    };
    std::thread t(hit_site);
    hit_site();
    t.join();
  });
  (void)rep;
  ASSERT_GE(v.error_count(), 1u);
  EXPECT_EQ(v.diagnostics()[0].kind, DiagKind::RtMultithreadedCollective);
}

TEST(RegionGuard, DistinctRegionsConcurrentlyActiveDetected) {
  SourceManager sm;
  World w(fast_world(1));
  VerifierOptions vopts;
  vopts.rendezvous = std::chrono::milliseconds(50);
  Verifier v(sm, vopts);
  w.run([&](Rank& mpi) {
    auto enter = [&](int32_t region) {
      try {
        Verifier::RegionGuard guard(v, mpi, region, {});
      } catch (const simmpi::AbortedError&) {
      }
    };
    std::thread t([&] { enter(1); });
    enter(2);
    t.join();
  });
  ASSERT_GE(v.error_count(), 1u);
  EXPECT_EQ(v.diagnostics()[0].kind, DiagKind::RtConcurrentCollectives);
}

TEST(RegionGuard, SelfOverlapDetected) {
  SourceManager sm;
  World w(fast_world(1));
  VerifierOptions vopts;
  vopts.rendezvous = std::chrono::milliseconds(50);
  Verifier v(sm, vopts);
  w.run([&](Rank& mpi) {
    auto enter = [&] {
      try {
        Verifier::RegionGuard guard(v, mpi, 5, {});
      } catch (const simmpi::AbortedError&) {
      }
    };
    std::thread t(enter);
    enter();
    t.join();
  });
  ASSERT_GE(v.error_count(), 1u);
  EXPECT_NE(v.diagnostics()[0].message.find("overlaps itself"),
            std::string::npos);
}

TEST(RegionGuard, LoopIterationReentryIsFine) {
  // The same region entered once per loop iteration, strictly sequentially
  // (the conforming shape): never a self-overlap.
  SourceManager sm;
  World w(fast_world(2));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    for (int iter = 0; iter < 6; ++iter) {
      Verifier::RegionGuard guard(v, mpi, /*region_id=*/3, {});
      mpi.barrier();
    }
  });
  EXPECT_TRUE(rep.ok) << rep.abort_reason;
  EXPECT_EQ(v.error_count(), 0u);
}

TEST(RegionGuard, LoopCarriedSelfOverlapDetected) {
  // A nowait single in a loop lets iteration i+1's instance start while
  // iteration i's is still running (another thread). Model the two loop
  // iterations as two threads racing into the SAME region id.
  SourceManager sm;
  World w(fast_world(1));
  VerifierOptions vopts;
  vopts.rendezvous = std::chrono::milliseconds(50);
  Verifier v(sm, vopts);
  w.run([&](Rank& mpi) {
    auto iteration = [&] {
      try {
        Verifier::RegionGuard guard(v, mpi, /*region_id=*/8, {});
      } catch (const simmpi::AbortedError&) {
      }
    };
    std::thread next_iter(iteration);
    iteration();
    next_iter.join();
  });
  ASSERT_GE(v.error_count(), 1u);
  EXPECT_EQ(v.diagnostics()[0].kind, DiagKind::RtConcurrentCollectives);
  EXPECT_NE(v.diagnostics()[0].message.find("overlaps itself"),
            std::string::npos);
}

TEST(CcProtocol, FinalSentinelAgainstNonblockingIssue) {
  // Rank 0 leaves main while rank 1 is about to issue an Iallreduce: the
  // sentinel names both sides.
  SourceManager sm;
  World w(fast_world(2));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 0) {
      v.check_cc_final_piggybacked(mpi, {});
    } else {
      lane(v, mpi, {ir::CollectiveKind::Iallreduce, -1, simmpi::ReduceOp::Sum});
    }
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock);
  ASSERT_EQ(v.error_count(), 1u);
  const auto diags = v.diagnostics();
  EXPECT_NE(diags[0].message.find("leave main"), std::string::npos);
  EXPECT_NE(diags[0].message.find("MPI_Iallreduce"), std::string::npos);
}

TEST(CcProtocol, FinalSentinelSymmetricInTypeOnlyMode) {
  // The sentinel works identically when argument checking is off (it
  // compares the FINAL id, not arguments).
  SourceManager sm;
  VerifierOptions vopts;
  vopts.check_arguments = false;
  World w(fast_world(2));
  Verifier v(sm, vopts);
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 0) {
      v.check_cc_final_piggybacked(mpi, {});
    } else {
      lane(v, mpi, {ir::CollectiveKind::Barrier, -1, {}});
    }
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock);
  ASSERT_EQ(v.error_count(), 1u);
  EXPECT_NE(v.diagnostics()[0].message.find("leave main"), std::string::npos);
}

TEST(RegionGuard, SequentialRegionsAreFine) {
  SourceManager sm;
  World w(fast_world(2));
  Verifier v(sm, {});
  const auto rep = w.run([&](Rank& mpi) {
    for (int32_t region = 0; region < 4; ++region) {
      Verifier::RegionGuard guard(v, mpi, region, {});
    }
  });
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(v.error_count(), 0u);
}

TEST(RegionGuard, DifferentRanksDoNotInterfere) {
  SourceManager sm;
  World w(fast_world(2));
  VerifierOptions vopts;
  vopts.rendezvous = std::chrono::milliseconds(30);
  Verifier v(sm, vopts);
  // Rank 0 sits in region 1 while rank 1 sits in region 2: fine (the
  // registry is per process).
  const auto rep = w.run([&](Rank& mpi) {
    Verifier::RegionGuard guard(v, mpi, mpi.rank() + 1, {});
    mpi.barrier(); // both inside simultaneously
  });
  EXPECT_TRUE(rep.ok) << rep.abort_reason;
  EXPECT_EQ(v.error_count(), 0u);
}

TEST(ThreadUsage, FunneledViolationRecorded) {
  SourceManager sm;
  World w(fast_world(1));
  Verifier v(sm, {});
  w.run([&](Rank& mpi) {
    mpi.init(ir::ThreadLevel::Funneled);
    v.check_thread_usage(mpi, /*in_parallel=*/true, /*master_only=*/false, {});
    v.check_thread_usage(mpi, /*in_parallel=*/true, /*master_only=*/true, {});
    v.check_thread_usage(mpi, /*in_parallel=*/false, /*master_only=*/true, {});
  });
  const auto diags = v.diagnostics();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].kind, DiagKind::RtThreadLevelViolation);
  EXPECT_EQ(diags[0].severity, Severity::Warning);
}

TEST(ThreadUsage, RepeatedViolationRecordedOncePerRankAndSite) {
  SourceManager sm;
  World w(fast_world(2));
  Verifier v(sm, {});
  const SourceLoc site{0, 4, 7};
  const SourceLoc other{0, 9, 3};
  w.run([&](Rank& mpi) {
    mpi.init(ir::ThreadLevel::Funneled);
    for (int i = 0; i < 100; ++i)
      v.check_thread_usage(mpi, /*in_parallel=*/true, /*master_only=*/false,
                           site);
    v.check_thread_usage(mpi, /*in_parallel=*/true, /*master_only=*/false,
                         other);
  });
  const auto diags = v.diagnostics();
  ASSERT_EQ(diags.size(), 4u) << "one warning per (rank, site)";
  for (int32_t r = 0; r < 2; ++r) {
    for (const SourceLoc& loc : {site, other}) {
      size_t n = 0;
      for (const auto& d : diags)
        n += d.loc == loc && str::contains(d.message, str::cat("in rank ", r));
      EXPECT_EQ(n, 1u) << "rank " << r << " line " << loc.line;
    }
  }
}

TEST(ThreadUsage, LoopedViolationWarnsOncePerRankOnBothEngines) {
  // A non-master thread runs a collective 200 times under FUNNELED: each
  // rank gets one rt-thread-level warning for the site, not one per call.
  static constexpr const char* kSrc = R"(func main() {
  mpi_init(funneled);
  var x = rank();
  omp parallel num_threads(2) {
    if (omp_thread_num() == 1) {
      for (i = 0 to 200) {
        omp critical {
          x = mpi_allreduce(x, sum);
        }
      }
    }
  }
  mpi_finalize();
}
)";
  SourceManager sm;
  DiagnosticEngine diags;
  driver::PipelineOptions popts;
  popts.mode = driver::Mode::WarningsAndCodegen;
  const auto r = driver::compile(sm, "looped_funneled", kSrc, diags, popts);
  ASSERT_TRUE(r.ok) << diags.to_text(sm);
  for (const auto engine : {interp::Engine::Ast, interp::Engine::Bytecode}) {
    SCOPED_TRACE(to_string(engine));
    interp::Executor exec(r.program, sm, &r.plan);
    interp::ExecOptions eopts;
    eopts.engine = engine;
    eopts.num_ranks = 2;
    eopts.mpi.hang_timeout = std::chrono::milliseconds(5000);
    const auto res = exec.run(eopts);
    EXPECT_TRUE(res.mpi.ok) << res.mpi.abort_reason << res.mpi.deadlock_details;
    size_t per_rank[2] = {0, 0};
    for (const auto& d : res.rt_diags) {
      ASSERT_EQ(d.kind, DiagKind::RtThreadLevelViolation) << d.message;
      for (int32_t rank = 0; rank < 2; ++rank)
        per_rank[rank] += str::contains(d.message, str::cat("in rank ", rank));
    }
    EXPECT_EQ(res.rt_diags.size(), 2u);
    EXPECT_EQ(per_rank[0], 1u);
    EXPECT_EQ(per_rank[1], 1u);
  }
}

TEST(ThreadUsage, SingleLevelViolationAndAbortOption) {
  SourceManager sm;
  VerifierOptions vopts;
  vopts.abort_on_thread_level = true;
  World w(fast_world(1));
  Verifier v(sm, vopts);
  const auto rep = w.run([&](Rank& mpi) {
    mpi.init(ir::ThreadLevel::Single);
    v.check_thread_usage(mpi, /*in_parallel=*/true, /*master_only=*/true, {});
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_GE(v.diagnostics().size(), 1u);
}

TEST(ThreadUsage, UninitializedRankIsIgnored) {
  SourceManager sm;
  World w(fast_world(1));
  Verifier v(sm, {});
  w.run([&](Rank& mpi) {
    v.check_thread_usage(mpi, true, false, {});
  });
  EXPECT_TRUE(v.diagnostics().empty());
}

// The bytecode engine pre-encodes the CC id skeleton (kind + reduce op) once
// per armed site per run and patches only root/comm-id at call time; the
// patched id must be bit-identical to the per-call encoding the AST engine
// uses, for every kind/op/root/comm combination, in both argument-checking
// modes — otherwise the engines would disagree about agreement itself.
TEST(CcProtocol, SkeletonPlusPatchMatchesLaneId) {
  SourceManager sm;
  for (const bool check_args : {true, false}) {
    VerifierOptions opts;
    opts.check_arguments = check_args;
    Verifier v(sm, opts);
    for (int k = 0; k < ir::kNumCollectiveKinds; ++k) {
      const auto kind = static_cast<ir::CollectiveKind>(k);
      const std::optional<ir::ReduceOp> ops[] = {std::nullopt,
                                                 ir::ReduceOp::Sum,
                                                 ir::ReduceOp::Max};
      for (const auto& op : ops) {
        const int64_t skeleton = v.cc_skeleton(kind, op);
        for (const int32_t root : {-1, 0, 3, 9999, -77}) {
          for (const int32_t comm : {0, 1, 42}) {
            EXPECT_EQ(v.cc_patch(skeleton, root, comm),
                      v.cc_lane_id(kind, op, root, comm))
                << "kind=" << static_cast<int>(k) << " root=" << root
                << " comm=" << comm << " check_args=" << check_args;
          }
        }
      }
    }
  }
}

} // namespace
} // namespace parcoach::rt
