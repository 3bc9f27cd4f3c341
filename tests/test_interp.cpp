// Unit tests: the hybrid interpreter — expression/statement semantics,
// OpenMP execution, MPI bridging, output capture, fault handling.
#include "driver/pipeline.h"
#include "interp/executor.h"
#include "support/str.h"

#include <gtest/gtest.h>

namespace parcoach::interp {
namespace {

struct Ran {
  ExecResult result;
  SourceManager sm;
  DiagnosticEngine diags;
  driver::CompileResult compiled;
};

std::unique_ptr<Ran> run_src(const std::string& src, int32_t ranks = 2,
                             int32_t threads = 2, bool instrument = false) {
  auto r = std::make_unique<Ran>();
  driver::PipelineOptions popts;
  popts.mode = instrument ? driver::Mode::WarningsAndCodegen
                          : driver::Mode::Baseline;
  popts.optimize = false; // interpretation uses the AST; skip IR opt noise
  r->compiled = driver::compile(r->sm, "t", src, r->diags, popts);
  EXPECT_TRUE(r->compiled.ok) << r->diags.to_text(r->sm);
  Executor exec(r->compiled.program, r->sm,
                instrument ? &r->compiled.plan : nullptr);
  ExecOptions eopts;
  eopts.num_ranks = ranks;
  eopts.num_threads = threads;
  eopts.mpi.hang_timeout = std::chrono::milliseconds(400);
  r->result = exec.run(eopts);
  return r;
}

TEST(Interp, ArithmeticAndControlFlow) {
  auto r = run_src(R"(func fib(n) {
    if (n < 2) {
      return n;
    }
    var a = 0;
    var b = 1;
    for (i = 2 to n + 1) {
      var t = a + b;
      a = b;
      b = t;
    }
    return b;
  }
  func main() {
    var f = fib(10);
    if (rank() == 0) {
      print(f);
    }
  })",
                   1, 1);
  ASSERT_TRUE(r->result.clean) << r->result.mpi.abort_reason;
  ASSERT_EQ(r->result.output.size(), 1u);
  EXPECT_EQ(r->result.output[0], "rank 0: 55");
}

TEST(Interp, WhileAndModulo) {
  auto r = run_src(R"(func main() {
    var n = 27;
    var steps = 0;
    while (n != 1) {
      if (n % 2 == 0) {
        n = n / 2;
      } else {
        n = 3 * n + 1;
      }
      steps = steps + 1;
    }
    if (rank() == 0) {
      print(steps);
    }
  })",
                   1, 1);
  ASSERT_TRUE(r->result.clean);
  EXPECT_EQ(r->result.output[0], "rank 0: 111");
}

TEST(Interp, BuiltinsReflectContext) {
  auto r = run_src(R"(func main() {
    print(rank(), size());
  })",
                   3, 1);
  ASSERT_TRUE(r->result.clean);
  ASSERT_EQ(r->result.output.size(), 3u);
  EXPECT_EQ(r->result.output[0], "rank 0: 0 3");
  EXPECT_EQ(r->result.output[2], "rank 2: 2 3");
}

TEST(Interp, MpiBridgeSemantics) {
  auto r = run_src(R"(func main() {
    var s = mpi_allreduce(rank() + 1, sum);
    var m = mpi_allreduce(rank(), max);
    var b = mpi_bcast(rank() * 100, 1);
    var sc = mpi_scan(1, sum);
    if (rank() == 0) {
      print(s, m, b, sc);
    }
  })",
                   4, 1);
  ASSERT_TRUE(r->result.clean) << r->result.mpi.abort_reason;
  // sum(1..4)=10, max(rank)=3, bcast from rank1=100, scan rank0=1.
  EXPECT_EQ(r->result.output[0], "rank 0: 10 3 100 1");
}

TEST(Interp, GatherChecksumAndScatterSynthetic) {
  auto r = run_src(R"(func main() {
    var g = mpi_gather(rank() + 1, 0);
    var sc = mpi_scatter(50, 0);
    print(g, sc);
  })",
                   3, 1);
  ASSERT_TRUE(r->result.clean);
  // gather checksum at root: 1+2+3=6 (0 elsewhere); scatter: 50 + rank.
  EXPECT_EQ(r->result.output[0], "rank 0: 6 50");
  EXPECT_EQ(r->result.output[1], "rank 1: 0 51");
  EXPECT_EQ(r->result.output[2], "rank 2: 0 52");
}

TEST(Interp, SharedVariablesAcrossTeam) {
  auto r = run_src(R"(func main() {
    var hits = 0;
    omp parallel num_threads(4) {
      omp critical {
        hits = hits + 1;
      }
    }
    if (rank() == 0) {
      print(hits);
    }
  })",
                   1, 4);
  ASSERT_TRUE(r->result.clean);
  EXPECT_EQ(r->result.output[0], "rank 0: 4");
}

TEST(Interp, PrivateInnerScopes) {
  auto r = run_src(R"(func main() {
    var total = 0;
    omp parallel num_threads(4) {
      var mine = omp_thread_num() + 1;
      omp critical {
        total = total + mine;
      }
    }
    if (rank() == 0) {
      print(total);
    }
  })",
                   1, 4);
  ASSERT_TRUE(r->result.clean);
  EXPECT_EQ(r->result.output[0], "rank 0: 10");
}

TEST(Interp, WorksharingForSplitsIterations) {
  auto r = run_src(R"(func main() {
    var total = 0;
    omp parallel num_threads(4) {
      omp for (i = 0 to 100) {
        omp critical {
          total = total + i;
        }
      }
    }
    if (rank() == 0) {
      print(total);
    }
  })",
                   1, 4);
  ASSERT_TRUE(r->result.clean);
  EXPECT_EQ(r->result.output[0], "rank 0: 4950");
}

TEST(Interp, SectionsRunEachBodyOnce) {
  auto r = run_src(R"(func main() {
    var a = 0;
    var b = 0;
    omp parallel num_threads(2) {
      omp sections {
        omp section {
          a = a + 1;
        }
        omp section {
          b = b + 10;
        }
      }
    }
    if (rank() == 0) {
      print(a, b);
    }
  })",
                   1, 2);
  ASSERT_TRUE(r->result.clean);
  EXPECT_EQ(r->result.output[0], "rank 0: 1 10");
}

TEST(Interp, NumThreadsClauseAndIfClause) {
  auto r = run_src(R"(func main() {
    var n1 = 0;
    var n2 = 0;
    omp parallel num_threads(3) {
      omp master {
        n1 = omp_num_threads();
      }
    }
    omp parallel num_threads(3) if(0) {
      omp master {
        n2 = omp_num_threads();
      }
    }
    if (rank() == 0) {
      print(n1, n2);
    }
  })",
                   1, 2);
  ASSERT_TRUE(r->result.clean);
  EXPECT_EQ(r->result.output[0], "rank 0: 3 1");
}

TEST(Interp, HybridSingleAllreduceAcrossRanksAndThreads) {
  auto r = run_src(R"(func main() {
    mpi_init(serialized);
    var x = rank() + 1;
    omp parallel num_threads(4) {
      omp single {
        x = mpi_allreduce(x, sum);
      }
    }
    print(x);
    mpi_finalize();
  })",
                   4, 4);
  ASSERT_TRUE(r->result.clean) << r->result.mpi.abort_reason;
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(r->result.output[static_cast<size_t>(i)],
              str::cat("rank ", i, ": 10"));
}

TEST(Interp, DivisionByZeroAbortsCleanly) {
  auto r = run_src(R"(func main() {
    var x = 1;
    var y = x / (x - 1);
  })",
                   2, 1);
  EXPECT_FALSE(r->result.clean);
  EXPECT_FALSE(r->result.mpi.deadlock);
  bool mentioned = false;
  for (const auto& e : r->result.mpi.rank_errors)
    mentioned |= e.find("division by zero") != std::string::npos;
  EXPECT_TRUE(mentioned || r->result.mpi.abort_reason.find("division") !=
                               std::string::npos);
}

TEST(Interp, StepLimitStopsRunawayPrograms) {
  driver::PipelineOptions popts;
  popts.mode = driver::Mode::Baseline;
  SourceManager sm;
  DiagnosticEngine diags;
  auto compiled = driver::compile(sm, "t", R"(func main() {
    var x = 1;
    while (x > 0) {
      x = x + 1;
    }
  })",
                                  diags, popts);
  ASSERT_TRUE(compiled.ok);
  Executor exec(compiled.program, sm, nullptr);
  ExecOptions eopts;
  eopts.num_ranks = 1;
  eopts.max_steps = 10'000;
  const auto result = exec.run(eopts);
  EXPECT_FALSE(result.clean);
  EXPECT_NE(result.mpi.abort_reason.find("step limit"), std::string::npos);
}

TEST(Interp, ReturnValuePropagatesThroughCalls) {
  auto r = run_src(R"(func inner(v) {
    return v * 3;
  }
  func outer(v) {
    var x = inner(v);
    return x + 1;
  }
  func main() {
    var y = outer(5);
    if (rank() == 0) {
      print(y);
    }
  })",
                   1, 1);
  ASSERT_TRUE(r->result.clean);
  EXPECT_EQ(r->result.output[0], "rank 0: 16");
}

TEST(Interp, OutputIsDeterministicallySorted) {
  auto r = run_src("func main() { print(rank()); }", 4, 1);
  ASSERT_EQ(r->result.output.size(), 4u);
  for (int i = 0; i < 4; ++i)
    EXPECT_EQ(r->result.output[static_cast<size_t>(i)],
              str::cat("rank ", i, ": ", i));
}

TEST(InterpWatchdog, ComputingRankIsNotAHangOnBothEngines) {
  // Rank 0 computes far past the 20 ms hang timeout while rank 1 is parked
  // in the allreduce. No collective progress, but rank 0 is not stuck in
  // MPI, so the watchdog must wait for it on either engine.
  driver::PipelineOptions popts;
  popts.mode = driver::Mode::WarningsAndCodegen;
  SourceManager sm;
  DiagnosticEngine diags;
  auto compiled = driver::compile(sm, "t", R"(func main() {
    var s = 0;
    if (rank() == 0) {
      for (i = 0 to 3000000) {
        s = s + i;
      }
    }
    var t = mpi_allreduce(s, sum);
    print(t);
  })",
                                  diags, popts);
  ASSERT_TRUE(compiled.ok) << diags.to_text(sm);
  for (const Engine engine : {Engine::Ast, Engine::Bytecode}) {
    Executor exec(compiled.program, sm, &compiled.plan);
    ExecOptions eopts;
    eopts.engine = engine;
    eopts.num_ranks = 2;
    eopts.num_threads = 1;
    eopts.mpi.hang_timeout = std::chrono::milliseconds(20);
    const auto result = exec.run(eopts);
    EXPECT_FALSE(result.mpi.deadlock)
        << to_string(engine) << ": " << result.mpi.deadlock_details;
    EXPECT_TRUE(result.clean) << to_string(engine) << ": "
                              << result.mpi.abort_reason;
    EXPECT_EQ(result.output,
              (std::vector<std::string>{"rank 0: 4499998500000",
                                        "rank 1: 4499998500000"}))
        << to_string(engine);
  }
}

} // namespace
} // namespace parcoach::interp

namespace parcoach::interp {
namespace {

TEST(InterpP2P, PingPongProgram) {
  auto r = run_src(R"(func main() {
    var v = 100;
    for (i = 0 to 10) {
      if (rank() == 0) {
        mpi_send(v, 1, 0);
        v = mpi_recv(1, 1);
      }
      if (rank() == 1) {
        var m = mpi_recv(0, 0);
        mpi_send(m + 1, 0, 1);
      }
    }
    if (rank() == 0) {
      print(v);
    }
  })",
                   2, 1);
  ASSERT_TRUE(r->result.clean) << r->result.mpi.deadlock_details;
  EXPECT_EQ(r->result.output[0], "rank 0: 110"); // +1 per round trip
}

TEST(InterpP2P, HaloExchangeAmongRanks) {
  auto r = run_src(R"(func main() {
    var left = (rank() + size() - 1) % size();
    var right = (rank() + 1) % size();
    mpi_send(rank() * 10, right, 0);
    var from_left = mpi_recv(left, 0);
    print(from_left);
  })",
                   4, 1);
  ASSERT_TRUE(r->result.clean) << r->result.mpi.deadlock_details;
  EXPECT_EQ(r->result.output[0], "rank 0: 30");
  EXPECT_EQ(r->result.output[1], "rank 1: 0");
  EXPECT_EQ(r->result.output[3], "rank 3: 20");
}

TEST(InterpP2P, MissingSendIsCaughtByWatchdog) {
  auto r = run_src(R"(func main() {
    if (rank() == 1) {
      var v = mpi_recv(0, 0);
      print(v);
    }
  })",
                   2, 1);
  EXPECT_TRUE(r->result.mpi.deadlock);
  EXPECT_NE(r->result.mpi.deadlock_details.find("recv from 0"),
            std::string::npos);
}

TEST(InterpP2P, P2pDoesNotDisturbCollectiveChecking) {
  // p2p + a real collective bug: the CC check still fires on the collective.
  driver::PipelineOptions popts;
  popts.mode = driver::Mode::WarningsAndCodegen;
  SourceManager sm;
  DiagnosticEngine diags;
  auto compiled = driver::compile(sm, "t", R"(func main() {
    if (rank() == 0) {
      mpi_send(1, 1, 0);
    }
    if (rank() == 1) {
      var v = mpi_recv(0, 0);
    }
    if (rank() == 0) {
      mpi_barrier();
    }
    mpi_finalize();
  })",
                                  diags, popts);
  ASSERT_TRUE(compiled.ok) << diags.to_text(sm);
  Executor exec(compiled.program, sm, &compiled.plan);
  ExecOptions eopts;
  eopts.num_ranks = 2;
  const auto result = exec.run(eopts);
  EXPECT_FALSE(result.mpi.deadlock);
  EXPECT_GE(result.rt_error_count(), 1u);
}

} // namespace
} // namespace parcoach::interp
