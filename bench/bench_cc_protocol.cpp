// CC-protocol cost: marginal cost the instrumentation adds per verified
// collective, for both protocols:
//
//   dedicated    the paper's scheme, rebuilt here from public Rank calls —
//                an allgather of the CC ids on a dedicated communicator (a
//                dup of world) and a compare before every instrumented
//                collective (2 synchronization rounds per collective);
//   piggybacked  the runtime's protocol — the agreement id rides inside the
//                application collective's own slot arrival (1 synchronization
//                round per collective).
//
// The summary reports ns per instrumented collective and the measured
// synchronization rounds per collective (from the world's slot counters) —
// the headline number is the drop from 2 to 1. The process exits non-zero
// unless the measured rounds are exactly 2.0 and 1.0, so a smoke run with
// --benchmark_filter='^$' (summary only) doubles as a check.
#include "rt/verifier.h"

#include <benchmark/benchmark.h>

#include <iostream>

namespace {

using namespace parcoach;

enum class Protocol { Dedicated, Piggybacked };

struct ProtocolStats {
  double ns_per_coll = 0;
  double rounds_per_coll = 0;
};

/// Times `rounds` CC-checked allreduces per rank under protocol `p`; sync
/// rounds per collective are derived from the world's slot counters.
ProtocolStats protocol_cost(Protocol p, int32_t ranks, int rounds) {
  simmpi::World::Options wopts;
  wopts.num_ranks = ranks;
  wopts.hang_timeout = std::chrono::milliseconds(10000);
  simmpi::World world(wopts);
  SourceManager sm;
  const rt::Verifier verifier(sm, {});
  const int64_t id = verifier.cc_lane_id(ir::CollectiveKind::Allreduce,
                                         ir::ReduceOp::Sum, -1);
  const auto start = std::chrono::steady_clock::now();
  const auto rep = world.run([&](simmpi::Rank& mpi) {
    if (p == Protocol::Piggybacked) {
      simmpi::Signature sig{ir::CollectiveKind::Allreduce, -1,
                            simmpi::ReduceOp::Sum};
      sig.cc = id;
      for (int i = 0; i < rounds; ++i)
        benchmark::DoNotOptimize(mpi.execute(sig, 1).scalar);
      return;
    }
    const int64_t cc_comm = mpi.comm_dup(simmpi::Rank::kCommWorld);
    const simmpi::Signature gather{ir::CollectiveKind::Allgather, -1, {}};
    for (int i = 0; i < rounds; ++i) {
      for (const int64_t other : mpi.execute_on(cc_comm, gather, id).vec) {
        if (other != id) {
          mpi.abort("CC mismatch");
          return;
        }
      }
      benchmark::DoNotOptimize(mpi.allreduce(1, simmpi::ReduceOp::Sum));
    }
  });
  const auto ns = std::chrono::steady_clock::now() - start;
  if (!rep.ok) std::abort();
  ProtocolStats s;
  s.ns_per_coll = static_cast<double>(ns.count()) / rounds;
  // Each comm_dup completes one world slot: building the dedicated
  // communicator is set-up, not a per-collective round.
  s.rounds_per_coll =
      static_cast<double>(rep.app_slots_completed - rep.comms_created) /
      static_cast<double>(rounds);
  return s;
}

void bench_cc(benchmark::State& state, Protocol p) {
  const int32_t ranks = static_cast<int32_t>(state.range(0));
  constexpr int kRounds = 400;
  for (auto _ : state) {
    const ProtocolStats s = protocol_cost(p, ranks, kRounds);
    state.SetIterationTime(s.ns_per_coll * kRounds / 1e9);
    state.counters["rounds_per_coll"] = benchmark::Counter(s.rounds_per_coll);
  }
  state.SetItemsProcessed(state.iterations() * kRounds);
}

/// Prints the summary table; false when a protocol's measured rounds per
/// collective differ from its expected 2.0 (dedicated) / 1.0 (piggybacked).
bool print_summary() {
  std::cout << "\n=== CC protocol cost per instrumented collective ===\n\n"
            << "ranks   protocol      ns/coll   sync-rounds/coll\n";
  bool ok = true;
  for (int32_t ranks : {2, 4, 8}) {
    const ProtocolStats dedicated =
        protocol_cost(Protocol::Dedicated, ranks, 1000);
    const ProtocolStats piggy =
        protocol_cost(Protocol::Piggybacked, ranks, 1000);
    std::cout << ranks << "       dedicated     "
              << static_cast<long>(dedicated.ns_per_coll) << "      "
              << dedicated.rounds_per_coll << "\n"
              << ranks << "       piggybacked   "
              << static_cast<long>(piggy.ns_per_coll) << "      "
              << piggy.rounds_per_coll << "\n";
    ok &= dedicated.rounds_per_coll == 2.0 && piggy.rounds_per_coll == 1.0;
  }
  std::cout << "\nShape to check: piggybacked runs exactly 1.0 sync round per "
               "collective (the\ncollective itself) where the dedicated round "
               "pays 2.0, and ns/coll drops\naccordingly.\n";
  if (!ok)
    std::cerr << "FAIL: sync rounds per collective must be exactly 2.0 "
                 "(dedicated) and 1.0 (piggybacked)\n";
  return ok;
}

} // namespace

int main(int argc, char** argv) {
  benchmark::RegisterBenchmark(
      "CcProtocol/dedicated",
      [](benchmark::State& st) { bench_cc(st, Protocol::Dedicated); })
      ->Arg(2)
      ->Arg(4)
      ->Arg(8)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond)
      ->Iterations(2);
  benchmark::RegisterBenchmark(
      "CcProtocol/piggybacked",
      [](benchmark::State& st) { bench_cc(st, Protocol::Piggybacked); })
      ->Arg(2)
      ->Arg(4)
      ->Arg(8)
      ->UseManualTime()
      ->Unit(benchmark::kMillisecond)
      ->Iterations(2);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return print_summary() ? 0 : 1;
}
