// Unit tests: simulated MPI — data semantics of every collective, slot
// matching, mismatch behaviours (hang + watchdog vs strict), abort
// propagation, thread-level monitoring.
#include "simmpi/world.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <numeric>
#include <set>
#include <thread>

namespace parcoach::simmpi {
namespace {

World::Options fast_world(int32_t ranks) {
  World::Options o;
  o.num_ranks = ranks;
  o.hang_timeout = std::chrono::milliseconds(150);
  return o;
}

TEST(SimMpi, BarrierCompletes) {
  World w(fast_world(4));
  const auto rep = w.run([](Rank& mpi) {
    mpi.init(ir::ThreadLevel::Single);
    mpi.barrier();
    mpi.barrier();
  });
  EXPECT_TRUE(rep.ok) << rep.abort_reason << rep.deadlock_details;
  EXPECT_EQ(rep.app_slots_completed, 2u);
}

TEST(SimMpi, BcastDistributesRootValue) {
  World w(fast_world(4));
  std::atomic<int> correct{0};
  w.run([&](Rank& mpi) {
    const int64_t v = mpi.bcast(mpi.rank() == 2 ? 777 : -1, 2);
    if (v == 777) correct.fetch_add(1);
  });
  EXPECT_EQ(correct.load(), 4);
}

TEST(SimMpi, AllreduceOps) {
  World w(fast_world(4));
  std::atomic<int> checked{0};
  w.run([&](Rank& mpi) {
    const int64_t r = mpi.rank();
    if (mpi.allreduce(r, ReduceOp::Sum) == 6) checked.fetch_add(1);
    if (mpi.allreduce(r, ReduceOp::Max) == 3) checked.fetch_add(1);
    if (mpi.allreduce(r, ReduceOp::Min) == 0) checked.fetch_add(1);
    if (mpi.allreduce(r + 1, ReduceOp::Prod) == 24) checked.fetch_add(1);
    if (mpi.allreduce(r % 2, ReduceOp::Land) == 0) checked.fetch_add(1);
    if (mpi.allreduce(r % 2, ReduceOp::Lor) == 1) checked.fetch_add(1);
    if (mpi.allreduce(r, ReduceOp::Bor) == 3) checked.fetch_add(1);
    if (mpi.allreduce(r + 4, ReduceOp::Band) == 4) checked.fetch_add(1);
  });
  EXPECT_EQ(checked.load(), 4 * 8);
}

TEST(SimMpi, ReduceOnlyRootGetsResult) {
  World w(fast_world(3));
  std::atomic<int> ok{0};
  w.run([&](Rank& mpi) {
    const int64_t v = mpi.reduce(mpi.rank() + 1, ReduceOp::Sum, 1);
    if (mpi.rank() == 1 && v == 6) ok.fetch_add(1);
    if (mpi.rank() != 1 && v == mpi.rank() + 1) ok.fetch_add(1); // own input
  });
  EXPECT_EQ(ok.load(), 3);
}

TEST(SimMpi, GatherAndAllgather) {
  World w(fast_world(3));
  std::atomic<int> ok{0};
  w.run([&](Rank& mpi) {
    const auto g = mpi.gather(mpi.rank() * 10, 0);
    if (mpi.rank() == 0) {
      if (g == std::vector<int64_t>{0, 10, 20}) ok.fetch_add(1);
    } else if (g.empty()) {
      ok.fetch_add(1);
    }
    const auto ag = mpi.allgather(mpi.rank() + 1);
    if (ag == std::vector<int64_t>{1, 2, 3}) ok.fetch_add(1);
  });
  EXPECT_EQ(ok.load(), 6);
}

TEST(SimMpi, ScatterDistributesRootVector) {
  World w(fast_world(3));
  std::atomic<int> ok{0};
  w.run([&](Rank& mpi) {
    std::vector<int64_t> data;
    if (mpi.rank() == 0) data = {100, 200, 300};
    const int64_t mine = mpi.scatter(data, 0);
    if (mine == (mpi.rank() + 1) * 100) ok.fetch_add(1);
  });
  EXPECT_EQ(ok.load(), 3);
}

TEST(SimMpi, AlltoallTransposes) {
  World w(fast_world(3));
  std::atomic<int> ok{0};
  w.run([&](Rank& mpi) {
    // Rank r sends r*10 + q to rank q.
    std::vector<int64_t> out(3);
    for (int64_t q = 0; q < 3; ++q) out[static_cast<size_t>(q)] = mpi.rank() * 10 + q;
    const auto in = mpi.alltoall(out);
    // Rank r receives q*10 + r from every q.
    std::vector<int64_t> want(3);
    for (int64_t q = 0; q < 3; ++q) want[static_cast<size_t>(q)] = q * 10 + mpi.rank();
    if (in == want) ok.fetch_add(1);
  });
  EXPECT_EQ(ok.load(), 3);
}

TEST(SimMpi, ScanIsPrefixReduction) {
  World w(fast_world(4));
  std::atomic<int> ok{0};
  w.run([&](Rank& mpi) {
    const int64_t p = mpi.scan(mpi.rank() + 1, ReduceOp::Sum);
    // prefix sums of 1,2,3,4: 1,3,6,10
    const int64_t want = (mpi.rank() + 1) * (mpi.rank() + 2) / 2;
    if (p == want) ok.fetch_add(1);
  });
  EXPECT_EQ(ok.load(), 4);
}

// Integers wrap (64-bit two's complement, as in the interpreter): reductions
// and the DSL bridge's gather/allgather/alltoall checksums past INT64_MAX
// stay defined.
TEST(SimMpi, SumsPastInt64MaxWrap) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  World w(fast_world(2));
  std::atomic<int> ok{0};
  w.run([&](Rank& mpi) {
    // 2 * MAX = 2^64 - 2 and MAX * MAX = 2^126 - 2^64 + 1, modulo 2^64.
    if (mpi.allreduce(kMax, ReduceOp::Sum) == -2) ok.fetch_add(1);
    if (mpi.allreduce(kMax, ReduceOp::Prod) == 1) ok.fetch_add(1);
    if (mpi.scan(kMax, ReduceOp::Sum) == (mpi.rank() == 0 ? kMax : -2))
      ok.fetch_add(1);
    Signature sig;
    sig.kind = ir::CollectiveKind::Allgather;
    if (mpi.execute(sig, kMax).scalar == -2) ok.fetch_add(1);
    sig.kind = ir::CollectiveKind::Alltoall;
    if (mpi.execute(sig, kMax).scalar == -2) ok.fetch_add(1);
    sig.kind = ir::CollectiveKind::Gather;
    sig.root = 0;
    const int64_t gathered = mpi.execute(sig, kMax).scalar;
    if (mpi.rank() != 0 || gathered == -2) ok.fetch_add(1);
  });
  EXPECT_EQ(ok.load(), 2 * 6);
}

TEST(SimMpi, KindMismatchHangsAndWatchdogReports) {
  World w(fast_world(2));
  const auto rep = w.run([](Rank& mpi) {
    if (mpi.rank() == 0) {
      mpi.barrier();
    } else {
      mpi.bcast(1, 0);
    }
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_TRUE(rep.deadlock);
  EXPECT_NE(rep.deadlock_details.find("MPI_Bcast"), std::string::npos);
  EXPECT_NE(rep.deadlock_details.find("signature differs"), std::string::npos);
}

TEST(SimMpi, RootMismatchAlsoHangs) {
  World w(fast_world(2));
  const auto rep = w.run([](Rank& mpi) {
    mpi.bcast(1, mpi.rank()); // different roots
  });
  EXPECT_TRUE(rep.deadlock);
}

TEST(SimMpi, MissingParticipantHangs) {
  World w(fast_world(2));
  const auto rep = w.run([](Rank& mpi) {
    if (mpi.rank() == 0) mpi.barrier();
  });
  EXPECT_TRUE(rep.deadlock);
  EXPECT_NE(rep.deadlock_details.find("rank 0 blocked"), std::string::npos);
}

TEST(SimMpi, StrictModeReportsMismatchImmediately) {
  auto opts = fast_world(2);
  opts.strict_matching = true;
  opts.hang_timeout = std::chrono::milliseconds(5000); // must not be needed
  World w(opts);
  const auto rep = w.run([](Rank& mpi) {
    if (mpi.rank() == 0) {
      mpi.barrier();
    } else {
      mpi.allreduce(1, ReduceOp::Sum);
    }
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_FALSE(rep.deadlock) << "strict mode must not need the watchdog";
  EXPECT_NE(rep.abort_reason.find("collective mismatch"), std::string::npos);
}

TEST(SimMpi, AbortUnblocksEveryone) {
  World w(fast_world(3));
  const auto rep = w.run([](Rank& mpi) {
    if (mpi.rank() == 2) {
      mpi.abort("user abort");
      return;
    }
    mpi.barrier(); // ranks 0,1 blocked until the abort
  });
  EXPECT_TRUE(rep.aborted);
  EXPECT_EQ(rep.abort_reason, "user abort");
  EXPECT_FALSE(rep.deadlock);
}

TEST(SimMpi, CollectiveAfterFinalizeIsUsageError) {
  World w(fast_world(2));
  const auto rep = w.run([](Rank& mpi) {
    mpi.init(ir::ThreadLevel::Single);
    mpi.finalize();
    if (mpi.rank() == 0) mpi.barrier();
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.rank_errors[0].find("after mpi_finalize"), std::string::npos);
}

TEST(SimMpi, ProvidedLevelCappedByWorld) {
  auto opts = fast_world(2);
  opts.max_provided_level = ir::ThreadLevel::Serialized;
  World w(opts);
  std::atomic<int> ok{0};
  w.run([&](Rank& mpi) {
    if (mpi.init(ir::ThreadLevel::Multiple) == ir::ThreadLevel::Serialized)
      ok.fetch_add(1);
    if (mpi.provided() == ir::ThreadLevel::Serialized) ok.fetch_add(1);
  });
  EXPECT_EQ(ok.load(), 4);
}

TEST(SimMpi, ConcurrentCallsAtLowLevelAreRecorded) {
  World w(fast_world(2));
  const auto rep = w.run([](Rank& mpi) {
    mpi.init(ir::ThreadLevel::Serialized);
    // Two threads per rank calling concurrently (allreduce matches in any
    // order since all slots carry the same signature).
    std::thread t([&] {
      for (int i = 0; i < 20; ++i) mpi.allreduce(1, ReduceOp::Sum);
    });
    for (int i = 0; i < 20; ++i) mpi.allreduce(1, ReduceOp::Sum);
    t.join();
  });
  EXPECT_FALSE(rep.deadlock) << rep.deadlock_details;
  EXPECT_FALSE(rep.thread_level_violations.empty())
      << "concurrent MPI calls under SERIALIZED must be recorded";
}

TEST(SimMpi, RacingCallsRecordedOncePerRankAndCall) {
  World w(fast_world(2));
  const auto rep = w.run([](Rank& mpi) {
    mpi.init(ir::ThreadLevel::Serialized);
    std::thread t([&] {
      for (int i = 0; i < 3000; ++i) mpi.allreduce(1, ReduceOp::Sum);
    });
    for (int i = 0; i < 3000; ++i) mpi.allreduce(1, ReduceOp::Sum);
    t.join();
  });
  EXPECT_FALSE(rep.deadlock) << rep.deadlock_details;
  EXPECT_FALSE(rep.thread_level_violations.empty());
  // Only MPI_Allreduce races here, so at most one entry per rank.
  EXPECT_LE(rep.thread_level_violations.size(), 2u);
  std::set<std::string> ranks;
  for (const auto& v : rep.thread_level_violations) {
    ASSERT_NE(v.find("(MPI_Allreduce)"), std::string::npos) << v;
    ranks.insert(v.substr(0, v.find(':')));
  }
  EXPECT_EQ(ranks.size(), rep.thread_level_violations.size())
      << "one entry per (rank, call)";
}

TEST(SimMpi, ManySlotsMemoryBounded) {
  World w(fast_world(2));
  const auto rep = w.run([](Rank& mpi) {
    for (int i = 0; i < 5000; ++i) mpi.barrier();
  });
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(rep.app_slots_completed, 5000u);
}

// ---- Watchdog wake-ups and the stage-2 census ---------------------------------

TEST(SimMpiWatchdog, EmptyRunsReturnWhenTheLastRankEnds) {
  // The last finishing rank wakes the watchdog: no run waits out a poll
  // tick. 200 runs of a 2 ms tick alone would take 400 ms.
  const auto start = std::chrono::steady_clock::now();
  for (int i = 0; i < 200; ++i) {
    World w(fast_world(2));
    const auto rep = w.run([](Rank&) {});
    ASSERT_TRUE(rep.ok);
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::milliseconds(300))
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count()
      << " ms for 200 empty runs";
}

TEST(SimMpiWatchdog, AbortWakesTheWatchdogWithoutADeadlockVerdict) {
  auto opts = fast_world(2);
  opts.hang_timeout = std::chrono::milliseconds(60'000);
  World w(opts);
  const auto start = std::chrono::steady_clock::now();
  const auto rep = w.run([](Rank& mpi) {
    if (mpi.rank() == 0) {
      mpi.abort("stop now");
      return;
    }
    mpi.barrier();
  });
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::seconds(10));
  EXPECT_TRUE(rep.aborted);
  EXPECT_FALSE(rep.deadlock);
  EXPECT_EQ(rep.abort_reason, "stop now");
  EXPECT_NE(rep.rank_errors[1].find("stop now"), std::string::npos)
      << rep.rank_errors[1];
}

TEST(SimMpiWatchdog, ComputingRankIsNotDeadlocked) {
  // Rank 1 parks in the allreduce for several hang timeouts while rank 0
  // computes: no progress, but rank 0 may still arrive.
  auto opts = fast_world(2);
  opts.hang_timeout = std::chrono::milliseconds(20);
  World w(opts);
  const auto rep = w.run([](Rank& mpi) {
    if (mpi.rank() == 0)
      std::this_thread::sleep_for(std::chrono::milliseconds(120));
    mpi.allreduce(1, ReduceOp::Sum);
  });
  EXPECT_TRUE(rep.ok) << rep.deadlock_details;
  EXPECT_FALSE(rep.deadlock);
}

TEST(SimMpiWatchdog, TestLoopLivelockIsStillAHang) {
  // Rank 0 polls an ibarrier that can never match rank 1's allreduce: it
  // never parks, but polling MPI_Test counts as stuck in MPI.
  auto opts = fast_world(2);
  opts.hang_timeout = std::chrono::milliseconds(50);
  World w(opts);
  const auto rep = w.run([](Rank& mpi) {
    if (mpi.rank() == 0) {
      const int64_t req = mpi.ibarrier();
      while (!mpi.test(req)) {
      }
    } else {
      mpi.allreduce(1, ReduceOp::Sum);
    }
  });
  EXPECT_TRUE(rep.deadlock);
  EXPECT_NE(rep.deadlock_details.find("hang detected"), std::string::npos);
  EXPECT_NE(rep.deadlock_details.find("rank 1 blocked"), std::string::npos)
      << rep.deadlock_details;
}

} // namespace
} // namespace parcoach::simmpi

namespace parcoach::simmpi {
namespace {

TEST(SimMpiP2P, SendRecvDeliversValue) {
  World w(fast_world(2));
  std::atomic<int64_t> got{-1};
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 0) {
      mpi.send(4242, 1, 7);
    } else {
      got.store(mpi.recv(0, 7));
    }
  });
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(got.load(), 4242);
}

TEST(SimMpiP2P, FifoOrderPerChannel) {
  World w(fast_world(2));
  std::vector<int64_t> got;
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 0) {
      for (int i = 0; i < 5; ++i) mpi.send(i * 10, 1, 0);
    } else {
      for (int i = 0; i < 5; ++i) got.push_back(mpi.recv(0, 0));
    }
  });
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(got, (std::vector<int64_t>{0, 10, 20, 30, 40}));
}

TEST(SimMpiP2P, TagsIsolateChannels) {
  World w(fast_world(2));
  std::atomic<int64_t> a{0}, b{0};
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 0) {
      mpi.send(1, 1, /*tag=*/5);
      mpi.send(2, 1, /*tag=*/9);
    } else {
      // Receive in the opposite tag order: tags keep channels apart.
      b.store(mpi.recv(0, 9));
      a.store(mpi.recv(0, 5));
    }
  });
  EXPECT_TRUE(rep.ok) << rep.deadlock_details;
  EXPECT_EQ(a.load(), 1);
  EXPECT_EQ(b.load(), 2);
}

TEST(SimMpiP2P, PingPongRoundTrip) {
  World w(fast_world(2));
  std::atomic<int64_t> final_val{0};
  const auto rep = w.run([&](Rank& mpi) {
    int64_t v = 100;
    for (int i = 0; i < 20; ++i) {
      if (mpi.rank() == 0) {
        mpi.send(v, 1, 0);
        v = mpi.recv(1, 1);
      } else {
        const int64_t m = mpi.recv(0, 0);
        mpi.send(m + 1, 0, 1);
      }
    }
    if (mpi.rank() == 0) final_val.store(v);
  });
  EXPECT_TRUE(rep.ok);
  EXPECT_EQ(final_val.load(), 120); // +1 per round trip, 20 rounds
}

TEST(SimMpiP2P, RecvWithoutSendDeadlocksWithP2pReport) {
  World w(fast_world(2));
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 1) {
      const int64_t v = mpi.recv(0, 3); // never sent
      (void)v;
    }
  });
  EXPECT_TRUE(rep.deadlock);
  EXPECT_NE(rep.deadlock_details.find("recv from 0 tag 3"), std::string::npos);
}

TEST(SimMpiP2P, EagerSendsAllowHeadToHeadExchange) {
  World w(fast_world(2));
  const auto rep = w.run([&](Rank& mpi) {
    const int32_t other = 1 - mpi.rank();
    mpi.send(mpi.rank(), other, 0); // both send first: fine when buffered
    const int64_t got = mpi.recv(other, 0);
    EXPECT_EQ(got, other);
  });
  EXPECT_TRUE(rep.ok) << rep.deadlock_details;
}

TEST(SimMpiP2P, RendezvousRecvFirstCycleDeadlocks) {
  auto opts = fast_world(2);
  opts.rendezvous_sends = true;
  World w(opts);
  const auto rep = w.run([&](Rank& mpi) {
    const int32_t other = 1 - mpi.rank();
    // Both receive first: classic cyclic wait under unbuffered semantics.
    const int64_t got = mpi.recv(other, 0);
    mpi.send(mpi.rank(), other, 0);
    (void)got;
  });
  EXPECT_TRUE(rep.deadlock);
}

TEST(SimMpiP2P, MixedP2pAndCollectives) {
  World w(fast_world(3));
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 0) mpi.send(5, 1, 0);
    if (mpi.rank() == 1) {
      EXPECT_EQ(mpi.recv(0, 0), 5);
    }
    const int64_t s = mpi.allreduce(1, ReduceOp::Sum);
    EXPECT_EQ(s, 3);
    mpi.barrier();
  });
  EXPECT_TRUE(rep.ok) << rep.deadlock_details;
}

TEST(SimMpiP2P, InvalidPeerIsUsageError) {
  World w(fast_world(2));
  const auto rep = w.run([&](Rank& mpi) {
    if (mpi.rank() == 0) mpi.send(1, 99, 0);
  });
  EXPECT_FALSE(rep.ok);
  EXPECT_NE(rep.rank_errors[0].find("invalid rank"), std::string::npos);
}

} // namespace
} // namespace parcoach::simmpi
