// Shared pieces of the end-to-end benchmark: timing, statistics, the
// per-item outcome record and the per-layer ledger.
#pragma once

#include "driver/pipeline.h"
#include "simmpi/world.h"
#include "support/metrics.h"
#include "support/trace.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

[[nodiscard]] inline double to_ms(std::chrono::nanoseconds ns) {
  return static_cast<double>(ns.count()) / 1e6;
}

/// Linear-interpolated quantile (q in [0, 1]) of an unsorted sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Order-sensitive digest of a run's output lines.
[[nodiscard]] uint64_t digest(const std::vector<std::string>& lines);

/// Watchdog stall limit used by every run the benchmark makes. It must sit
/// well above the longest clean item's time without MPI progress (corpus
/// race entries hold a 40 ms rendezvous window), so a clean program is never
/// declared deadlocked, while a deadlock verdict still costs one short item.
inline constexpr std::chrono::milliseconds kHangTimeout{100};
/// Backstop per run: a run still busy after this long is aborted, and the
/// item counts as a wrong verdict, so no item can hold the benchmark.
inline constexpr std::chrono::milliseconds kHardDeadline{10000};
/// Step budget per run. The AST reference run of run_npb exceeds the
/// executor's 50 M default; the hard deadline stops runaways instead.
inline constexpr uint64_t kMaxSteps = 1'000'000'000;

/// Per-thread ring of the traced run. Every forked OpenMP worker registers
/// its own ring, so the size is a per-thread budget: large enough that a
/// rank thread of a run_epcc item keeps every event, small enough that the
/// hundreds of short-lived workers of that item do not swamp it.
inline constexpr size_t kTraceRing = 16384;

/// The tracer and metrics registry the traced run attaches to one execution,
/// kept for decoding after the run.
struct Probe {
  std::unique_ptr<parcoach::Tracer> tracer;
  std::unique_ptr<parcoach::MetricsRegistry> metrics;
};

/// The outcome of one timed item: its verdict against the known answer plus
/// the layer facts the item produced for free.
struct ItemOutcome {
  bool ok = true;
  std::string why;     // first mismatch against the known answer
  uint64_t lines = 0;  // checked code lines
  // Compile side (summed over the programs of the item).
  parcoach::driver::StageTimes stages;
  bool compiled = false;
  uint64_t warnings = 0;
  uint64_t cc_sites_armed = 0;
  uint64_t collective_sites = 0;
  // Run side (summed over the runs of the item).
  bool ran = false;
  uint64_t ops = 0;
  uint64_t slots = 0;
  std::vector<parcoach::simmpi::RunReport> reports; // traced runs only
  // Output of a checked run, compared after timing with a reference.
  bool has_output = false;
  uint64_t output_digest = 0;

  void fail(const std::string& reason) {
    if (ok) why = reason;
    ok = false;
  }
};

/// How an item is executed: plainly (end-to-end), under a probe (traced
/// run), or with the instrumentation plan dropped (run-time check overhead).
struct RunMode {
  Probe* probe = nullptr;
  bool no_plan = false;
};

/// A workload: seeded inputs plus the items the timed phase cycles over.
class Workload {
public:
  virtual ~Workload() = default;
  /// Generates the inputs from `seed` and compiles them (set-up work).
  virtual void prepare(uint64_t seed) = 0;
  /// Program text to verdict for item `i`, checked against its known answer.
  [[nodiscard]] virtual ItemOutcome run(size_t i, const RunMode& mode) = 0;
  /// Item order for the timed phase (derived from the seed in prepare()).
  [[nodiscard]] virtual const std::vector<size_t>& order() const = 0;
  /// The untimed warm-up item that ends set-up.
  [[nodiscard]] virtual size_t warmup_item() const { return order().front(); }
  /// Called once after timing: the reference digest of the output of items
  /// that report one (ItemOutcome::has_output), computed independently of
  /// the engine under test. Nullopt when the reference run itself failed.
  [[nodiscard]] virtual std::optional<uint64_t> reference_digest() {
    return std::nullopt;
  }
  /// Whether run(i, {.no_plan = true}) is meaningful (run-time overhead).
  [[nodiscard]] virtual bool has_plan_free_twin() const { return false; }
  /// Set-up facts reported by the traced run (compile stages of the
  /// workload's programs, bytecode compile time).
  parcoach::driver::StageTimes setup_stages;
  double bc_compile_ms = 0;
  uint64_t setup_warnings = 0;
  /// Self-check hook: flip one known answer so the oracle must fail.
  bool corrupt_oracle = false;
};

/// Null for an unknown workload name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(const std::string& name);
/// Prints the stored-answer table of analyze_fig1 for the current analysis.
void dump_fig1_answers();
/// Lists verdict_sweep's items for `seed` and the corpus entries it leaves
/// out.
void describe_sweep(uint64_t seed);

/// Per-layer samples, keyed by metric name; reported as medians.
class Ledger {
public:
  void add(const std::string& name, double v) { samples_[name].push_back(v); }
  [[nodiscard]] double median_of(const std::string& name) const;
  [[nodiscard]] double sum_of(const std::string& name) const;

private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Decodes one traced item's events and counters into the ledger.
void decode_trace(const Probe& probe, const ItemOutcome& out, Ledger& ledger);

/// Outside micro-calls into simmpi (World::run, Rank::allreduce) and
/// miniomp (Runtime::parallel, Runtime::barrier).
void measure_micro_calls(Ledger& ledger);

} // namespace perfbench
