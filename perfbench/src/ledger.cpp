// The per-layer ledger: statistics helpers, trace decoding of one traced
// item, and the outside micro-calls into simmpi and miniomp.
#include "bench.h"

#include "miniomp/team.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

using namespace parcoach;

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

uint64_t digest(const std::vector<std::string>& lines) {
  uint64_t h = 1469598103934665603ULL; // FNV-1a
  for (const auto& l : lines) {
    for (unsigned char ch : l) h = (h ^ ch) * 1099511628211ULL;
    h = (h ^ '\n') * 1099511628211ULL;
  }
  return h;
}

double Ledger::median_of(const std::string& name) const {
  const auto it = samples_.find(name);
  return it == samples_.end() ? 0 : median(it->second);
}

double Ledger::sum_of(const std::string& name) const {
  const auto it = samples_.find(name);
  double total = 0;
  if (it != samples_.end())
    for (double v : it->second) total += v;
  return total;
}

void decode_trace(const Probe& probe, const ItemOutcome& out, Ledger& ledger) {
  const Tracer& tracer = *probe.tracer;
  ledger.add("trace.events_dropped",
             static_cast<double>(tracer.events_dropped()));
  const auto events = tracer.snapshot(); // ts order

  // Per emitting thread: parked interval and collective nesting. A
  // collective's self time is its outermost span minus the time parked
  // inside it.
  struct ThreadState {
    int64_t park_start = -1;
    int depth = 0;
    int64_t coll_start = 0;
    int64_t parked_in_coll = 0;
  };
  std::map<int32_t, ThreadState> threads;
  std::map<int32_t, std::pair<int64_t, int64_t>> rank_span; // first, last ts
  uint64_t parks = 0, compares = 0, mismatches = 0;
  int64_t park_ns = 0, coll_self_ns = 0, last_wait_ts = -1;
  for (const auto& e : events) {
    ThreadState& t = threads[e.tid];
    if (e.rank >= 0) {
      auto [it, fresh] = rank_span.try_emplace(e.rank, e.ts_ns, e.ts_ns);
      if (!fresh) it->second.second = e.ts_ns;
    }
    switch (e.kind) {
      case TraceEv::Park:
        ++parks;
        t.park_start = e.ts_ns;
        last_wait_ts = e.ts_ns;
        break;
      case TraceEv::Unpark:
        if (t.park_start >= 0) {
          const int64_t d = e.ts_ns - t.park_start;
          park_ns += d;
          if (t.depth > 0) t.parked_in_coll += d;
          t.park_start = -1;
        }
        break;
      case TraceEv::SlotArrive: last_wait_ts = e.ts_ns; break;
      case TraceEv::CollEnter:
        if (t.depth++ == 0) {
          t.coll_start = e.ts_ns;
          t.parked_in_coll = 0;
        }
        break;
      case TraceEv::CollExit:
        if (t.depth > 0 && --t.depth == 0)
          coll_self_ns += e.ts_ns - t.coll_start - t.parked_in_coll;
        break;
      case TraceEv::CcCompare: ++compares; break;
      case TraceEv::CcMismatch: ++mismatches; break;
      case TraceEv::Deadlock:
        if (last_wait_ts >= 0)
          ledger.add("simmpi.deadlock_detect_ms",
                     static_cast<double>(e.ts_ns - last_wait_ts) / 1e6);
        break;
      default: break;
    }
  }
  ledger.add("simmpi.parks", static_cast<double>(parks));
  ledger.add("simmpi.park_ms", static_cast<double>(park_ns) / 1e6);
  ledger.add("simmpi.coll_self_ms", static_cast<double>(coll_self_ns) / 1e6);
  ledger.add("rt.cc_compares", static_cast<double>(compares));
  ledger.add("rt.mismatches", static_cast<double>(mismatches));
  ledger.add("simmpi.slots", static_cast<double>(out.slots));
  int64_t longest_rank = 0;
  for (const auto& [rank, span] : rank_span)
    longest_rank = std::max(longest_rank, span.second - span.first);
  ledger.add("_rank_active_ms", static_cast<double>(longest_rank) / 1e6);
  for (const auto& rep : out.reports)
    for (const auto& [name, value] : rep.metrics)
      if (name == "watchdog.polls")
        ledger.add("simmpi.watchdog_polls", static_cast<double>(value));
}

void measure_micro_calls(Ledger& ledger) {
  using simmpi::Rank;
  using simmpi::World;
  World::Options wopts;
  wopts.num_ranks = 2;
  wopts.hang_timeout = kHangTimeout;

  // An empty 2-rank world: thread start/join plus the watchdog's exit poll.
  for (int i = 0; i < 40; ++i) {
    World world(wopts);
    const auto t0 = Clock::now();
    (void)world.run([](Rank&) {});
    ledger.add("simmpi.world_floor_ms", ms_since(t0));
  }

  // A 2-rank allreduce loop timed on rank 0 inside one World::run.
  constexpr int kAllreduces = 2000;
  for (int w = 0; w < 5; ++w) {
    World world(wopts);
    double us = 0;
    (void)world.run([&](Rank& r) {
      r.init(ir::ThreadLevel::Single);
      for (int i = 0; i < 100; ++i) (void)r.allreduce(i, simmpi::ReduceOp::Sum);
      const auto t0 = Clock::now();
      for (int i = 0; i < kAllreduces; ++i)
        (void)r.allreduce(i, simmpi::ReduceOp::Sum);
      if (r.rank() == 0) us = ms_since(t0) * 1e3 / kAllreduces;
      r.finalize();
    });
    ledger.add("simmpi.allreduce_us", us);
  }

  // An empty 2-thread OpenMP region: one worker spawn and the join.
  miniomp::ThreadContext root;
  for (int i = 0; i < 400; ++i) {
    const auto t0 = Clock::now();
    miniomp::Runtime::parallel(root, 2, true, [](miniomp::ThreadContext&) {});
    ledger.add("miniomp.fork_us", ms_since(t0) * 1e3);
  }

  // Team barriers in a 2-thread team, timed on the master.
  constexpr int kBarriers = 2000;
  for (int w = 0; w < 5; ++w) {
    double us = 0;
    miniomp::Runtime::parallel(root, 2, true, [&](miniomp::ThreadContext& ctx) {
      for (int i = 0; i < 100; ++i) miniomp::Runtime::barrier(ctx);
      const auto t0 = Clock::now();
      for (int i = 0; i < kBarriers; ++i) miniomp::Runtime::barrier(ctx);
      if (ctx.thread_num == 0) us = ms_since(t0) * 1e3 / kBarriers;
    });
    ledger.add("miniomp.barrier_us", us);
  }
}

} // namespace perfbench
