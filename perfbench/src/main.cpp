// End-to-end benchmark of the PARCOACH-MT validator.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// One process runs one workload. Set-up (inputs from the seed, compiles, one
// untimed warm-up item) is made kSetups times, spread over the run, and
// reported as a median; the timed phase cycles over the workload's items for
// S seconds, each item checked against its known answer. With --trace 0 the
// last stdout line carries the end-to-end metrics; with --trace 1 it carries
// the per-layer ledger of a separate traced pass. The process exits 1 when
// any verdict or output is wrong, 2 on a usage error.
//
// Maintenance flags: --dump-fig1-answers prints the stored-answer table of
// analyze_fig1; --corrupt-oracle flips one known answer (self-check);
// --describe SEED lists verdict_sweep's items and what it leaves out.
#include "bench.h"

#include "support/json_writer.h"

#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <string>

namespace {

using namespace perfbench;

constexpr size_t kSetups = 9;

struct Metric {
  const char* name;
  const char* unit;
};

constexpr Metric kEndToEnd[] = {
    {"setup_s", "s"},
    {"verdict_ms.p50", "ms"},
    {"verdict_ms.p90", "ms"},
    {"lines_per_s", "1/s"},
    {"peak_rss_mb", "MB"},
};

constexpr Metric kPerLayer[] = {
    {"frontend.parse_ms", "ms"},     {"frontend.sema_ms", "ms"},
    {"frontend.lower_ms", "ms"},     {"passes.optimize_ms", "ms"},
    {"driver.emit_ms", "ms"},        {"core.analysis_ms", "ms"},
    {"core.instrument_ms", "ms"},    {"core.overhead_pct", "%"},
    {"core.warnings", "count"},      {"core.armed_share", "ratio"},
    {"rt.cc_compares", "count"},     {"rt.check_overhead_pct", "%"},
    {"rt.mismatches", "count"},      {"interp.bc_compile_ms", "ms"},
    {"interp.ops", "count"},         {"interp.ns_per_op", "ns"},
    {"simmpi.slots", "count"},       {"simmpi.parks", "count"},
    {"simmpi.park_ms", "ms"},        {"simmpi.coll_self_ms", "ms"},
    {"simmpi.allreduce_us", "us"},   {"simmpi.world_floor_ms", "ms"},
    {"simmpi.watchdog_polls", "count"},
    {"simmpi.deadlock_detect_ms", "ms"},
    {"miniomp.fork_us", "us"},       {"miniomp.barrier_us", "us"},
    {"support.trace_overhead_pct", "%"},
    {"support.span_coverage_pct", "%"},
    {"trace.events_dropped", "count"},
    {"wrong_verdicts", "share"},
};

/// Stated tolerance for the span ledger: on the run workloads the longest
/// rank span of the trace plus the world floor must account for the traced
/// item time. (Against the untraced time it would also absorb the tracing
/// overhead, which support.trace_overhead_pct reports on its own.)
constexpr double kCoverageLo = 70, kCoverageHi = 130;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool corrupt_oracle = false;
};

[[noreturn]] void usage(const char* msg) {
  std::cerr << "perfbench: " << msg
            << "\nusage: perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--corrupt-oracle]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + k).c_str());
      return argv[++i];
    };
    try {
      if (k == "--workload") a.workload = next();
      else if (k == "--seed") a.seed = std::stoull(next());
      else if (k == "--seconds") a.seconds = std::stod(next());
      else if (k == "--trace") a.trace = std::stoi(next()) != 0;
      else if (k == "--corrupt-oracle") a.corrupt_oracle = true;
      else usage(("unknown argument " + k).c_str());
    } catch (const std::logic_error&) {
      usage(("bad value for " + k).c_str());
    }
  }
  if (a.seconds <= 0 || a.seconds > 120) usage("--seconds out of range");
  return a;
}

/// Peak RSS of this process image. getrusage's ru_maxrss would carry over
/// the launcher's peak across execve; VmHWM belongs to this address space.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0; // reported in kB
  return 0;
}

/// Tallies attempted/failed items and checks outputs against references.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<uint64_t> digests; // of items reporting an output

  void count(const ItemOutcome& out) {
    ++attempted;
    if (!out.ok) {
      if (failed < 5) std::cerr << "wrong verdict: " << out.why << "\n";
      ++failed;
    }
    if (out.has_output) digests.push_back(out.output_digest);
  }
  /// Output comparison happens after timing, outside set-up.
  void check_outputs(Workload& wl) {
    if (digests.empty()) return;
    const auto ref = wl.reference_digest();
    uint64_t wrong = 0;
    for (uint64_t d : digests) wrong += !ref || d != *ref;
    if (wrong) std::cerr << "wrong output on " << wrong << " items\n";
    failed += wrong;
  }
};

/// Runs one item; an exception escaping the engine counts as a wrong
/// verdict, like a crash of the checked program would.
ItemOutcome run_item(Workload& wl, size_t i, const RunMode& mode) {
  try {
    return wl.run(i, mode);
  } catch (const std::exception& e) {
    ItemOutcome out;
    out.fail(std::string("item threw: ") + e.what());
    return out;
  }
}

/// One set-up: a fresh workload generates and compiles its inputs and runs
/// one untimed warm-up item.
std::unique_ptr<Workload> set_up(const Args& a, std::vector<double>& setup_ms,
                                 Ledger& ledger, Tally& tally) {
  const auto t0 = Clock::now();
  auto wl = make_workload(a.workload);
  wl->corrupt_oracle = a.corrupt_oracle;
  wl->prepare(a.seed);
  const ItemOutcome warm = run_item(*wl, wl->warmup_item(), RunMode{});
  setup_ms.push_back(ms_since(t0));
  tally.count(warm);
  ledger.add("interp.bc_compile_ms", wl->bc_compile_ms);
  return wl;
}

/// The result line: one JSON object, the last line of stdout.
void print_result(bool correct, const Tally& t,
                  const std::vector<std::pair<Metric, double>>& metrics) {
  parcoach::JsonWriter w(std::cout, /*pretty=*/false);
  w.begin_object();
  w.kv("correct", correct);
  w.kv("attempted", t.attempted);
  w.kv("failed", t.failed);
  w.key("metrics");
  w.begin_object();
  for (const auto& [m, v] : metrics) {
    w.key(m.name);
    w.begin_object();
    w.kv("value", v, 9);
    w.kv("unit", m.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << std::endl;
}

// ---- --trace 0: end-to-end metrics ------------------------------------------

int run_end_to_end(const Args& a) {
  Ledger ledger;
  Tally tally;
  std::vector<double> setup_ms;
  auto wl = set_up(a, setup_ms, ledger, tally);

  // The timed phase is cut into kSetups slices with one more set-up between
  // slices (outside the timed clock), so the set-up median samples the whole
  // run rather than its first moment.
  //
  // Throughput is taken per whole cycle of the item list (every cycle holds
  // the same programs) and reported as the median over cycles, so a burst
  // of outside load shifts one cycle, not the figure.
  std::vector<double> item_ms, cycle_rates;
  uint64_t cycle_lines = 0;
  double cycle_ms = 0;
  const auto& order = wl->order();
  const double budget_ms = a.seconds * 1e3;
  double timed_ms = 0;
  for (size_t n = 0; timed_ms < budget_ms; ++n) {
    if (timed_ms >= budget_ms * static_cast<double>(setup_ms.size()) / kSetups)
      (void)set_up(a, setup_ms, ledger, tally);
    const auto t0 = Clock::now();
    const ItemOutcome out = run_item(*wl, order[n % order.size()], RunMode{});
    item_ms.push_back(ms_since(t0));
    timed_ms += item_ms.back();
    tally.count(out);
    cycle_lines += out.lines;
    cycle_ms += item_ms.back();
    if ((n + 1) % order.size() == 0) {
      cycle_rates.push_back(static_cast<double>(cycle_lines) * 1e3 / cycle_ms);
      cycle_lines = 0;
      cycle_ms = 0;
    }
  }
  if (cycle_rates.empty())
    cycle_rates.push_back(static_cast<double>(cycle_lines) * 1e3 / cycle_ms);
  tally.check_outputs(*wl);

  const size_t beyond_p90 = item_ms.size() / 10;
  std::cerr << a.workload << ": " << item_ms.size() << " timed items ("
            << beyond_p90 << " beyond p90, " << cycle_rates.size()
            << " cycles), " << tally.failed
            << " wrong; item ms q10/q25/q50/q75/q90/max "
            << quantile(item_ms, 0.1) << " / " << quantile(item_ms, 0.25)
            << " / " << quantile(item_ms, 0.5) << " / "
            << quantile(item_ms, 0.75) << " / " << quantile(item_ms, 0.9)
            << " / " << quantile(item_ms, 1.0) << "\n";
  if (beyond_p90 < 10)
    std::cerr << "warning: fewer than ten samples beyond p90\n";
  const double wrong_share =
      static_cast<double>(tally.failed) / static_cast<double>(tally.attempted);
  std::cerr << "wrong_verdicts share: " << wrong_share << "\n";
  print_result(tally.failed == 0, tally,
               {{kEndToEnd[0], median(setup_ms) / 1e3},
                {kEndToEnd[1], quantile(item_ms, 0.5)},
                {kEndToEnd[2], quantile(item_ms, 0.9)},
                {kEndToEnd[3], median(cycle_rates)},
                {kEndToEnd[4], peak_rss_mb()}});
  return tally.failed == 0 ? 0 : 1;
}

// ---- --trace 1: the per-layer ledger ----------------------------------------

void add_compile(Ledger& ledger, const parcoach::driver::StageTimes& t) {
  ledger.add("frontend.parse_ms", to_ms(t.parse));
  ledger.add("frontend.sema_ms", to_ms(t.sema));
  ledger.add("frontend.lower_ms", to_ms(t.lower));
  ledger.add("passes.optimize_ms", to_ms(t.optimize));
  ledger.add("driver.emit_ms", to_ms(t.emit));
  ledger.add("core.analysis_ms", to_ms(t.analysis));
  ledger.add("core.instrument_ms", to_ms(t.instrument));
  const double base = to_ms(t.baseline());
  if (base > 0)
    ledger.add("core.overhead_pct",
               100.0 * (to_ms(t.analysis) + to_ms(t.instrument)) / base);
}

void add_item_facts(Ledger& ledger, const ItemOutcome& out) {
  if (out.compiled) {
    add_compile(ledger, out.stages);
    ledger.add("core.warnings", static_cast<double>(out.warnings));
  }
  ledger.add("_cc_sites_armed", static_cast<double>(out.cc_sites_armed));
  ledger.add("_collective_sites", static_cast<double>(out.collective_sites));
  if (out.ran) ledger.add("interp.ops", static_cast<double>(out.ops));
}

/// Per-sweep counts: on verdict_sweep these are summed over one traced
/// cycle of the item list instead of taken per item.
bool per_sweep_count(const std::string& name) {
  return name == "core.warnings" || name == "rt.mismatches" ||
         name == "rt.cc_compares" || name == "simmpi.slots" ||
         name == "simmpi.parks" || name == "interp.ops";
}

int run_traced(const Args& a) {
  Ledger ledger;
  Tally tally;
  std::vector<double> setup_ms;
  auto wl = set_up(a, setup_ms, ledger, tally);
  while (setup_ms.size() < kSetups) wl = set_up(a, setup_ms, ledger, tally);
  const bool sweep = a.workload == "verdict_sweep";
  const bool runs = wl->has_plan_free_twin();
  if (runs) {
    add_compile(ledger, wl->setup_stages);
    ledger.add("core.warnings", static_cast<double>(wl->setup_warnings));
  }
  const auto& order = wl->order();
  const double budget_ms = a.seconds * 1e3;

  // Phase 1, untraced: planned items, alternating with their plan-free
  // twins where the workload has them (run-time check overhead).
  std::vector<double> plain_ms, no_plan_ms;
  auto start = Clock::now();
  for (size_t n = 0; ms_since(start) < 0.4 * budget_ms; ++n) {
    const size_t i = order[n % order.size()];
    for (bool no_plan : {false, true}) {
      if (no_plan && !runs) continue;
      const auto t0 = Clock::now();
      const ItemOutcome out = run_item(*wl, i, RunMode{nullptr, no_plan});
      (no_plan ? no_plan_ms : plain_ms).push_back(ms_since(t0));
      tally.count(out);
      if (!no_plan && !sweep) add_item_facts(ledger, out);
    }
  }
  tally.check_outputs(*wl);

  // Phase 2, traced: a fresh tracer and metrics registry per item. The
  // sweep traces exactly one full cycle, so its counts are per sweep.
  std::vector<double> traced_ms;
  start = Clock::now();
  for (size_t n = 0;
       sweep ? n < order.size() : ms_since(start) < 0.5 * budget_ms; ++n) {
    Probe probe;
    const auto t0 = Clock::now();
    const ItemOutcome out =
        run_item(*wl, order[n % order.size()], RunMode{&probe});
    traced_ms.push_back(ms_since(t0));
    tally.count(out);
    if (probe.tracer) decode_trace(probe, out, ledger);
    if (sweep) add_item_facts(ledger, out);
  }

  // Phase 3: outside micro-calls into simmpi and miniomp.
  measure_micro_calls(ledger);

  const double plain = median(plain_ms);
  const double traced = median(traced_ms);
  std::map<std::string, double> derived;
  const double sites = ledger.sum_of("_collective_sites");
  derived["core.armed_share"] =
      sites > 0 ? ledger.sum_of("_cc_sites_armed") / sites : 0;
  derived["rt.check_overhead_pct"] =
      runs ? 100.0 * (plain - median(no_plan_ms)) / median(no_plan_ms) : 0;
  const double ops = ledger.median_of("interp.ops");
  derived["interp.ns_per_op"] = runs && ops > 0 ? plain * 1e6 / ops : 0;
  derived["support.trace_overhead_pct"] = 100.0 * (traced - plain) / plain;
  derived["support.span_coverage_pct"] =
      runs ? 100.0 *
                 (ledger.median_of("_rank_active_ms") +
                  ledger.median_of("simmpi.world_floor_ms")) /
                 traced
           : 0;
  derived["trace.events_dropped"] = ledger.sum_of("trace.events_dropped");
  derived["wrong_verdicts"] = static_cast<double>(tally.failed) /
                              static_cast<double>(tally.attempted);

  std::vector<std::pair<Metric, double>> metrics;
  for (const Metric& m : kPerLayer) {
    const std::string name = m.name;
    double v = ledger.median_of(name);
    if (sweep && per_sweep_count(name)) v = ledger.sum_of(name);
    if (const auto it = derived.find(name); it != derived.end()) v = it->second;
    metrics.emplace_back(m, v);
  }

  bool correct = tally.failed == 0;
  if (derived["trace.events_dropped"] > 0) {
    std::cerr << "traced run dropped events: enlarge the ring\n";
    correct = false;
  }
  const double cov = derived["support.span_coverage_pct"];
  if (runs && (cov < kCoverageLo || cov > kCoverageHi)) {
    std::cerr << "span ledger covers " << cov
              << "% of the traced item time, outside [" << kCoverageLo << ", "
              << kCoverageHi << "]\n";
    correct = false;
  }
  std::cerr << a.workload << ": untraced " << plain << " ms, traced " << traced
            << " ms over " << traced_ms.size() << " traced items\n";
  print_result(correct, tally, metrics);
  return correct ? 0 : 1;
}

} // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--dump-fig1-answers") == 0) {
    dump_fig1_answers();
    return 0;
  }
  if (argc == 3 && std::strcmp(argv[1], "--describe") == 0) {
    describe_sweep(std::stoull(argv[2]));
    return 0;
  }
  const Args a = parse(argc, argv);
  if (!make_workload(a.workload))
    usage(("unknown workload " + a.workload).c_str());
  try {
    return a.trace ? run_traced(a) : run_end_to_end(a);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
