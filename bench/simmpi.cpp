// `simmpi` family: the simulated MPI substrate on its own, with no
// interpreter in the way. Keeps the simulator honest — collectives must
// scale sanely with participants so runtime-overhead measurements upstream
// are meaningful.
//
//   latency      each blocking collective vs rank count (EPCC-style
//                per-operation curves); every collective must complete
//                exactly one slot;
//   mt allreduce threads per rank racing same-signature allreduces through
//                the slot engine (MPI_THREAD_MULTIPLE): per-slot parking must
//                not degrade with thread count;
//   nonblocking  issue+wait latency of the request engine vs its blocking
//                counterpart, and windows of outstanding requests drained by
//                waitall;
//   comm scaling collectives/sec as live communicators grow 1 -> 8, all
//                through the registry's handle path (BENCH_comm.json);
//   CC protocol  marginal cost of the runtime check per instrumented
//                collective for the paper's dedicated round (an allgather of
//                the CC ids on a dup of world, then the collective) and the
//                runtime's piggybacked lane. Self-check: the world's slot
//                counters must show exactly 2.0 and 1.0 sync rounds per
//                collective.
#include "rt/verifier.h"
#include "runner.h"
#include "simmpi/world.h"
#include "support/str.h"

#include <iomanip>
#include <iostream>
#include <thread>
#include <vector>

namespace parcoach::bench {
namespace {

using simmpi::Rank;
using simmpi::ReduceOp;
using simmpi::Signature;

constexpr int32_t kRankCounts[] = {2, 4, 8};

struct WorldRun {
  double ns = 0;
  simmpi::RunReport report;
};

/// Runs `body` on every rank of a fresh world; a failed run aborts.
template <typename Body>
WorldRun run_world(int32_t ranks, Body&& body) {
  simmpi::World::Options wopts;
  wopts.num_ranks = ranks;
  wopts.hang_timeout = std::chrono::milliseconds(10000);
  simmpi::World world(wopts);
  WorldRun r;
  r.ns = time_ns([&] { r.report = world.run(body); });
  if (!r.report.ok) fail("simmpi run failed: " + r.report.abort_reason);
  return r;
}

/// One row per name, one ns/op column per rank count.
template <typename NsAt>
void print_rank_table(const char* first_col, const std::vector<const char*>& rows,
                      NsAt&& ns_at) {
  std::cout << std::left << std::setw(16) << first_col << std::right;
  for (int32_t ranks : kRankCounts)
    std::cout << std::setw(10) << str::cat("ranks=", ranks);
  std::cout << '\n';
  for (size_t row = 0; row < rows.size(); ++row) {
    std::cout << std::left << std::setw(16) << rows[row] << std::right;
    for (int32_t ranks : kRankCounts)
      std::cout << std::setw(10) << static_cast<long>(ns_at(row, ranks));
    std::cout << '\n';
  }
}

// ---- Blocking collective latency ----------------------------------------------

enum class Op { Barrier, Bcast, Allreduce, Allgather, Alltoall, Scan };
const std::vector<const char*> kOpNames = {"barrier",   "bcast",    "allreduce",
                                           "allgather", "alltoall", "scan"};

void run_op(Rank& mpi, Op op) {
  switch (op) {
    case Op::Barrier: mpi.barrier(); break;
    case Op::Bcast: (void)mpi.bcast(1, 0); break;
    case Op::Allreduce: (void)mpi.allreduce(mpi.rank(), ReduceOp::Sum); break;
    case Op::Allgather: (void)mpi.allgather(mpi.rank()); break;
    case Op::Alltoall:
      (void)mpi.alltoall(
          std::vector<int64_t>(static_cast<size_t>(mpi.size()), mpi.rank()));
      break;
    case Op::Scan: (void)mpi.scan(1, ReduceOp::Sum); break;
  }
}

double op_latency_ns(Op op, int32_t ranks, int rounds) {
  const auto r = run_world(ranks, [&](Rank& mpi) {
    for (int i = 0; i < rounds; ++i) run_op(mpi, op);
  });
  // Slot-engine accounting: every collective must cost exactly one
  // synchronization round (one completed slot).
  if (r.report.app_slots_completed != static_cast<uint64_t>(rounds))
    fail("a blocking collective did not complete exactly one slot");
  return r.ns / rounds;
}

/// `threads` per rank race same-signature allreduces through the slot
/// engine with no external serialization: exercises the per-slot parking
/// and atomic arrival path the single-threaded curves cannot.
double mt_allreduce_ns(int threads, int rounds_per_thread) {
  const auto r = run_world(2, [&](Rank& mpi) {
    mpi.init(ir::ThreadLevel::Multiple);
    auto worker = [&] {
      for (int i = 0; i < rounds_per_thread; ++i)
        (void)mpi.allreduce(1, ReduceOp::Sum);
    };
    std::vector<std::thread> ts;
    for (int t = 1; t < threads; ++t) ts.emplace_back(worker);
    worker();
    for (auto& t : ts) t.join();
  });
  const uint64_t total = static_cast<uint64_t>(threads) * rounds_per_thread;
  if (r.report.app_slots_completed != total)
    fail("multithreaded allreduces did not complete one slot each");
  return r.ns / static_cast<double>(total);
}

void print_latency(int reps, int rounds, int mt_rounds) {
  std::cout << "\n=== simmpi collective latency (ns/op, 1 slot round per op, "
               "best of "
            << reps << ") ===\n\n";
  print_rank_table("op", kOpNames, [&](size_t op, int32_t ranks) {
    return best_of(reps, [&] {
      return op_latency_ns(static_cast<Op>(op), ranks, rounds);
    });
  });
  std::cout << "\n=== multithreaded allreduce (2 ranks, ns/op vs "
               "threads/rank) ===\n\n";
  for (int threads : {1, 2, 4})
    std::cout << "threads=" << threads << std::setw(10)
              << static_cast<long>(best_of(reps, [&] {
                   return mt_allreduce_ns(threads, mt_rounds);
                 }))
              << '\n';
  std::cout << "\nShape to check: per-op latency grows gently with rank "
               "count; the multithreaded\ncurve must not explode with thread "
               "count (per-slot parking, no thundering herd).\n";
}

// ---- Nonblocking shapes -------------------------------------------------------

enum class Shape {
  Blocking,     // baseline: allreduce per round
  IssueWait,    // iallreduce immediately waited (no overlap)
  Window4,      // 4 outstanding iallreduces, then waitall
  Window16,     // 16 outstanding
  IbarrierPoll, // ibarrier completed by a test-poll loop
};
const std::vector<const char*> kShapeNames = {
    "blocking", "issue+wait", "window4", "window16", "ibarrier-poll"};

void run_shape(Rank& mpi, Shape s, int rounds) {
  switch (s) {
    case Shape::Blocking:
      for (int i = 0; i < rounds; ++i) (void)mpi.allreduce(i, ReduceOp::Sum);
      break;
    case Shape::IssueWait:
      for (int i = 0; i < rounds; ++i)
        (void)mpi.wait(mpi.iallreduce(i, ReduceOp::Sum));
      break;
    case Shape::Window4:
    case Shape::Window16: {
      const int window = s == Shape::Window4 ? 4 : 16;
      for (int i = 0; i < rounds; i += window) {
        std::vector<int64_t> reqs;
        for (int k = 0; k < window; ++k)
          reqs.push_back(mpi.iallreduce(i + k, ReduceOp::Sum));
        mpi.waitall(reqs);
      }
      break;
    }
    case Shape::IbarrierPoll:
      for (int i = 0; i < rounds; ++i) {
        const int64_t r = mpi.ibarrier();
        while (!mpi.test(r).has_value()) std::this_thread::yield();
      }
      break;
  }
}

void print_nonblocking(int reps, int rounds) {
  std::cout << "\n=== nonblocking collectives (ns/op, best of " << reps
            << ") ===\n\n";
  print_rank_table("shape", kShapeNames, [&](size_t shape, int32_t ranks) {
    return best_of(reps, [&] {
      const auto r = run_world(ranks, [&](Rank& mpi) {
        run_shape(mpi, static_cast<Shape>(shape), rounds);
      });
      if (!r.report.leaked_requests.empty()) fail("leaked request");
      return r.ns / rounds;
    });
  });
  std::cout << "\nShape to check: issue stays cheap (no blocking work) and "
               "deep windows do not\ndegrade (slot bookkeeping is O(1) "
               "amortized).\n";
}

// ---- Communicator scaling -----------------------------------------------------

constexpr int32_t kCommRanks = 4;

struct Point {
  int comms = 1;
  double ns_per_coll = 0;
  double colls_per_sec = 0;
  uint64_t slots = 0;
};

/// C live comms, `iters` allreduces per rank round-robin over them.
Point comm_point(int n_comms, int iters) {
  const auto r = run_world(kCommRanks, [&](Rank& mpi) {
    std::vector<int64_t> comms{Rank::kCommWorld};
    for (int c = 1; c < n_comms; ++c)
      comms.push_back(mpi.comm_dup(Rank::kCommWorld));
    const Signature sum{ir::CollectiveKind::Allreduce, -1, ReduceOp::Sum};
    for (int i = 0; i < iters; ++i)
      mpi.execute_on(comms[static_cast<size_t>(i) % comms.size()], sum, 1);
  });
  Point p;
  p.comms = n_comms;
  p.ns_per_coll = r.ns / iters;
  p.colls_per_sec = 1e9 / p.ns_per_coll;
  p.slots = r.report.app_slots_completed;
  return p;
}

void comm_scaling(const Options& opts) {
  const int iters = opts.smoke ? 1500 : 6000;
  const int reps = opts.smoke ? 2 : 4;
  std::vector<Point> points;
  for (int c : {1, 2, 4, 8}) {
    Point best;
    for (int rep = 0; rep < reps; ++rep) {
      const Point p = comm_point(c, iters);
      if (rep == 0 || p.ns_per_coll < best.ns_per_coll) best = p;
    }
    points.push_back(best);
  }
  std::cout << "\n=== Communicator scaling (" << kCommRanks
            << " ranks, round-robin allreduce, " << iters
            << " colls/rank, best of " << reps << ") ===\n\n"
            << std::left << std::setw(10) << "comms" << std::right
            << std::setw(16) << "ns/collective" << std::setw(18)
            << "collectives/s" << std::setw(12) << "slots" << '\n';
  for (const auto& p : points)
    std::cout << std::left << std::setw(10) << p.comms << std::right
              << std::setw(16) << std::fixed << std::setprecision(0)
              << p.ns_per_coll << std::setw(18) << p.colls_per_sec
              << std::setw(12) << p.slots << '\n';
  std::cout << "\nShape to check: ns/collective stays roughly flat as live "
               "comms grow — per-comm\nslot engines are independent; only "
               "the registry resolve is shared.\n";
  write_json(opts, "BENCH_comm.json", [&](JsonWriter& w) {
    w.begin_object();
    w.kv("ranks", kCommRanks);
    w.key("points");
    w.begin_array();
    for (const auto& p : points) {
      w.begin_object();
      w.kv("comms", p.comms);
      w.kv("ns_per_collective", p.ns_per_coll, 1);
      w.kv("collectives_per_sec", p.colls_per_sec, 0);
      w.kv("slots", p.slots);
      w.end_object();
    }
    w.end_array();
    w.end_object();
  });
}

// ---- CC protocol rounds -------------------------------------------------------

enum class Protocol { Dedicated, Piggybacked };

struct ProtocolStats {
  double ns_per_coll = 0;
  double rounds_per_coll = 0;
};

/// Times `rounds` CC-checked allreduces per rank under protocol `p`; sync
/// rounds per collective come from the world's slot counters.
ProtocolStats protocol_cost(Protocol p, int32_t ranks, int rounds) {
  SourceManager sm;
  const rt::Verifier verifier(sm, {});
  const int64_t id = verifier.cc_lane_id(ir::CollectiveKind::Allreduce,
                                         ir::ReduceOp::Sum, -1);
  const auto r = run_world(ranks, [&](Rank& mpi) {
    if (p == Protocol::Piggybacked) {
      Signature sig{ir::CollectiveKind::Allreduce, -1, ReduceOp::Sum};
      sig.cc = id;
      for (int i = 0; i < rounds; ++i) (void)mpi.execute(sig, 1);
      return;
    }
    const int64_t cc_comm = mpi.comm_dup(Rank::kCommWorld);
    const Signature gather{ir::CollectiveKind::Allgather, -1, {}};
    for (int i = 0; i < rounds; ++i) {
      for (const int64_t other : mpi.execute_on(cc_comm, gather, id).vec) {
        if (other != id) {
          mpi.abort("CC mismatch");
          return;
        }
      }
      (void)mpi.allreduce(1, ReduceOp::Sum);
    }
  });
  // Each comm_dup completes one world slot: building the dedicated
  // communicator is set-up, not a per-collective round.
  return {r.ns / rounds,
          static_cast<double>(r.report.app_slots_completed -
                              r.report.comms_created) /
              static_cast<double>(rounds)};
}

bool cc_protocol(int rounds) {
  std::cout << "\n=== CC protocol cost per instrumented collective ===\n\n"
            << std::left << std::setw(8) << "ranks" << std::setw(14)
            << "protocol" << std::right << std::setw(10) << "ns/coll"
            << std::setw(20) << "sync-rounds/coll" << '\n';
  bool ok = true;
  for (int32_t ranks : kRankCounts) {
    const auto dedicated = protocol_cost(Protocol::Dedicated, ranks, rounds);
    const auto piggy = protocol_cost(Protocol::Piggybacked, ranks, rounds);
    for (const auto& [name, s] :
         {std::pair{"dedicated", dedicated}, std::pair{"piggybacked", piggy}})
      std::cout << std::left << std::setw(8) << ranks << std::setw(14) << name
                << std::right << std::setw(10)
                << static_cast<long>(s.ns_per_coll) << std::setw(20)
                << std::fixed << std::setprecision(2) << s.rounds_per_coll << '\n';
    ok &= dedicated.rounds_per_coll == 2.0 && piggy.rounds_per_coll == 1.0;
  }
  std::cout << "\nShape to check: piggybacked runs exactly 1.0 sync round per "
               "collective (the\ncollective itself) where the dedicated round "
               "pays 2.0 (checked), and ns/coll drops\naccordingly.\n";
  if (!ok)
    std::cerr << "FAIL: sync rounds per collective must be exactly 2.0 "
                 "(dedicated) and 1.0 (piggybacked)\n";
  return ok;
}

} // namespace

bool run_simmpi(const Options& opts) {
  const int reps = opts.smoke ? 1 : 3;
  print_latency(reps, opts.smoke ? 100 : 600, opts.smoke ? 100 : 400);
  print_nonblocking(reps, opts.smoke ? 64 : 512);
  comm_scaling(opts);
  return cc_protocol(opts.smoke ? 200 : 1000);
}

} // namespace parcoach::bench
