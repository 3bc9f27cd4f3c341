// The four workloads, each with the known answer of every item it times.
//
//   analyze_fig1   one item = one Figure-1 pass: the five subjects compiled in
//                  WarningsAndCodegen mode, never run. Known answer: a stored
//                  digest of each subject's static verdict.
//   run_npb        one item = BT-MZ executed by the bytecode engine under its
//                  selective plan. Known answer: a clean run whose output
//                  equals the AST engine's output.
//   run_epcc       the same for the EPCC mixed-mode suite.
//   verdict_sweep  one item = one small program driven from text to a
//                  verdict: corpus entries (known answer: DynamicOutcome and
//                  expected/forbidden static kinds) and seeded random
//                  programs (known answer: the generator's mutation label).
#include "bench.h"

#include "interp/bytecode.h"
#include "interp/executor.h"
#include "support/rng.h"
#include "support/str.h"
#include "workloads/corpus.h"
#include "workloads/testgen.h"
#include "workloads/workloads.h"

#include <algorithm>
#include <iostream>
#include <map>
#include <stdexcept>

namespace perfbench {

namespace {

using namespace parcoach;
using workloads::DynamicOutcome;
using workloads::Mutation;

/// Every run: 2 ranks x 2 threads, the machine's four cores.
constexpr int32_t kRanks = 2;
constexpr int32_t kThreads = 2;

struct Compiled {
  SourceManager sm;
  DiagnosticEngine diags;
  driver::CompileResult r;
};

std::unique_ptr<Compiled> compile_text(const std::string& name,
                                       const std::string& source) {
  auto c = std::make_unique<Compiled>();
  driver::PipelineOptions opts;
  opts.mode = driver::Mode::WarningsAndCodegen;
  c->r = driver::compile(c->sm, name, source, c->diags, opts);
  return c;
}

uint64_t warning_count(const DiagnosticEngine& d) {
  return d.count(Severity::Warning);
}

void record_compile(const Compiled& c, ItemOutcome& out) {
  const auto& t = c.r.times;
  auto& s = out.stages;
  s.parse += t.parse;
  s.sema += t.sema;
  s.lower += t.lower;
  s.optimize += t.optimize;
  s.emit += t.emit;
  s.analysis += t.analysis;
  s.instrument += t.instrument;
  out.compiled = true;
  out.warnings += warning_count(c.diags);
  out.cc_sites_armed += c.r.plan.cc_stmts.size();
  out.collective_sites += c.r.plan.total_collective_sites;
}

struct RunShape {
  int32_t ranks = kRanks;
  int32_t threads = kThreads;
  std::chrono::milliseconds rendezvous{0};
  interp::Engine engine = interp::Engine::Bytecode;
  std::chrono::milliseconds hang_timeout = kHangTimeout;
};

interp::ExecResult execute(const Compiled& c, const RunMode& mode,
                           const RunShape& shape, ItemOutcome& out) {
  interp::Executor exec(c.r.program, c.sm, mode.no_plan ? nullptr : &c.r.plan);
  interp::ExecOptions opts;
  opts.num_ranks = shape.ranks;
  opts.num_threads = shape.threads;
  opts.engine = shape.engine;
  opts.mpi.hang_timeout = shape.hang_timeout;
  opts.mpi.hard_deadline = kHardDeadline;
  opts.max_steps = kMaxSteps;
  opts.verify.rendezvous = shape.rendezvous;
  if (mode.probe) {
    TracerOptions topts;
    topts.ring_capacity = kTraceRing;
    mode.probe->tracer = std::make_unique<Tracer>(topts);
    mode.probe->metrics = std::make_unique<MetricsRegistry>();
    opts.tracer = mode.probe->tracer.get();
    opts.metrics = mode.probe->metrics.get();
  }
  auto result = exec.run(opts);
  const auto& reason = result.mpi.abort_reason;
  if (reason.find("hard deadline exceeded") != std::string::npos)
    out.fail("run killed: " + reason);
  out.ran = true;
  out.ops += result.mpi.bytecode_ops;
  out.slots += result.mpi.app_slots_completed;
  if (mode.probe) out.reports.push_back(result.mpi);
  return result;
}

std::vector<size_t> seeded_order(size_t n, uint64_t seed) {
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  SplitMix64 rng(seed);
  for (size_t i = n; i > 1; --i) std::swap(order[i - 1], order[rng.below(i)]);
  return order;
}

// ---- analyze_fig1 -----------------------------------------------------------

/// Stored static verdict of one Figure-1 subject at default scale. These
/// programs are hybrid-clean by construction, so the warnings are the
/// analysis' conservatism; any change to them is a change of verdict.
struct Fig1Answer {
  const char* name;
  uint64_t code_lines;
  uint64_t warnings;
  uint64_t cc_sites_armed;
  uint64_t collective_sites;
  uint64_t inserted_checks;
  uint64_t emitted_bytes;
};

constexpr Fig1Answer kFig1Answers[] = {
#include "fig1_answers.inc"
};

class AnalyzeFig1 final : public Workload {
public:
  void prepare(uint64_t seed) override {
    suite_ = workloads::figure1_suite();
    for (const auto& g : suite_) {
      const auto* a = answer_for(g.name);
      if (!a) throw std::runtime_error("no stored answer for " + g.name);
      if (a->code_lines != g.code_lines)
        throw std::runtime_error("generator drift: " + g.name + " has " +
                                 std::to_string(g.code_lines) + " code lines");
    }
    // Each item is one whole-suite pass; the seed fixes the program order of
    // every pass (a percentile over single programs of different sizes
    // flips, a whole pass does not).
    constexpr size_t kOrders = 24;
    SplitMix64 rng(seed);
    passes_.clear();
    for (size_t k = 0; k < kOrders; ++k)
      passes_.push_back(seeded_order(suite_.size(), rng.next()));
    order_ = seeded_order(kOrders, seed);
  }
  [[nodiscard]] const std::vector<size_t>& order() const override {
    return order_;
  }

  ItemOutcome run(size_t i, const RunMode&) override {
    ItemOutcome out;
    for (size_t p : passes_[i]) {
      const auto& g = suite_[p];
      const auto c = compile_text(g.name, g.source);
      record_compile(*c, out);
      out.lines += g.code_lines;
      check(g, *c, out);
    }
    return out;
  }

  /// Prints the stored-answer table for the current analysis (used to
  /// refresh fig1_answers.inc after an intended verdict change).
  static void dump_answers() {
    for (const auto& g : workloads::figure1_suite()) {
      const auto c = compile_text(g.name, g.source);
      std::cout << "{\"" << g.name << "\", " << g.code_lines << ", "
                << warning_count(c->diags) << ", " << c->r.plan.cc_stmts.size()
                << ", " << c->r.plan.total_collective_sites << ", "
                << c->r.inserted_checks << ", " << c->r.emitted_bytes
                << "},\n";
    }
  }

private:
  static const Fig1Answer* answer_for(const std::string& name) {
    for (const auto& a : kFig1Answers)
      if (name == a.name) return &a;
    return nullptr;
  }

  void check(const workloads::GeneratedProgram& g, const Compiled& c,
             ItemOutcome& out) const {
    const Fig1Answer& a = *answer_for(g.name);
    uint64_t warnings = a.warnings;
    if (corrupt_oracle && &g == &suite_.front()) ++warnings;
    if (!c.r.ok || c.diags.has_errors())
      return out.fail(g.name + ": compile failed");
    if (warning_count(c.diags) != warnings)
      return out.fail(str::cat(g.name, ": ", warning_count(c.diags),
                               " warnings, expected ", warnings));
    if (c.r.plan.cc_stmts.size() != a.cc_sites_armed ||
        c.r.plan.total_collective_sites != a.collective_sites)
      return out.fail(g.name + ": instrumentation plan differs");
    if (c.r.inserted_checks != a.inserted_checks ||
        c.r.emitted_bytes != a.emitted_bytes)
      return out.fail(g.name + ": emitted code differs");
  }

  std::vector<workloads::GeneratedProgram> suite_;
  std::vector<std::vector<size_t>> passes_;
  std::vector<size_t> order_;
};

// ---- run_npb / run_epcc -----------------------------------------------------

/// One generated program executed by the bytecode engine under its
/// selective plan; outputs are checked against the AST engine afterwards.
class RunProgram final : public Workload {
public:
  explicit RunProgram(workloads::GeneratedProgram (*gen)()) : gen_(gen) {}

  void prepare(uint64_t seed) override {
    prog_ = gen_();
    compiled_ = compile_text(prog_.name, prog_.source);
    if (!compiled_->r.ok)
      throw std::runtime_error(prog_.name + " does not compile:\n" +
                               compiled_->diags.to_text(compiled_->sm));
    setup_stages = compiled_->r.times;
    setup_warnings = warning_count(compiled_->diags);
    const auto t0 = Clock::now();
    auto bc = interp::compile(compiled_->r.program, compiled_->sm,
                              &compiled_->r.plan);
    interp::run_passes(bc);
    bc_compile_ms = ms_since(t0);
    // One program at the stated input size: the seed does not change it.
    order_ = {0};
    (void)seed;
  }
  [[nodiscard]] const std::vector<size_t>& order() const override {
    return order_;
  }
  [[nodiscard]] bool has_plan_free_twin() const override { return true; }

  ItemOutcome run(size_t, const RunMode& mode) override {
    ItemOutcome out;
    out.lines = prog_.code_lines;
    const auto res = execute(*compiled_, mode, RunShape{}, out);
    out.cc_sites_armed = res.mpi.cc_sites_armed;
    out.collective_sites = res.mpi.total_collective_sites;
    if (!res.clean)
      out.fail(prog_.name + " run not clean: " + res.mpi.abort_reason +
               res.mpi.deadlock_details);
    out.has_output = true;
    out.output_digest = digest(res.output);
    return out;
  }

  std::optional<uint64_t> reference_digest() override {
    // The reference output comes from the AST tree-walker, an independent
    // interpreter of the same program and plan. It is several times slower
    // than the bytecode engine, so a rank can compute longer than
    // kHangTimeout between collectives and be taken for deadlocked; the
    // reference run only has to produce the output, so it waits longer.
    ItemOutcome ref_facts; // the reference run is not an item
    RunShape ast;
    ast.engine = interp::Engine::Ast;
    ast.hang_timeout = kHardDeadline / 2;
    const auto ref = execute(*compiled_, RunMode{}, ast, ref_facts);
    if (!ref.clean) {
      std::cerr << "reference run of " << prog_.name
                << " not clean: " << ref.mpi.abort_reason << "\n";
      return std::nullopt;
    }
    return digest(ref.output) + (corrupt_oracle ? 1 : 0);
  }

private:
  workloads::GeneratedProgram (*gen_)();
  workloads::GeneratedProgram prog_;
  std::unique_ptr<Compiled> compiled_;
  std::vector<size_t> order_;
};

/// BT-MZ sized so that VM dispatch dominates and one 2 ms watchdog tick is a
/// small share of an item. The generator fixes the zone grid at 32 x 24,
/// which leaves about 13 k VM ops per OpenMP region, so fork/join would take
/// half of an item; the grid is widened to 256 x 24 so each region carries
/// enough work.
workloads::GeneratedProgram npb_program() {
  workloads::NpbParams p;
  p.zones = 8;
  p.steps = 6;
  p.stages = 4;
  p.threads = kThreads;
  auto g = workloads::make_npb_mz(workloads::NpbVariant::BT, p);
  const std::string grid = "var nx = 32;";
  const size_t at = g.source.find(grid);
  if (at == std::string::npos)
    throw std::runtime_error("BT-MZ generator no longer declares " + grid);
  g.source.replace(at, grid.size(), "var nx = 256;");
  return g;
}

/// The EPCC suite sized so that an item holds thousands of collective slots,
/// parks and OpenMP forks.
workloads::GeneratedProgram epcc_program() {
  workloads::EpccParams p;
  p.reps = 10;
  p.threads = kThreads;
  p.data_sizes = 8;
  return workloads::make_epcc_suite(p);
}

// ---- verdict_sweep ----------------------------------------------------------

enum class Answer : uint8_t {
  Clean,            // runs clean
  Caught,           // runtime verifier reports `expected_rt`, no hang
  NoHang,           // neither deadlock nor abort required, only no hang
  CommCycle,        // watchdog report naming MPI_COMM_WORLD and comm_split#
  Deadlock,         // watchdog reports a deadlock (plan-free run)
  MutantCaught,     // mutated: caught (or unreachable and clean), no hang
  MutantMustCatch,  // early-exit mutant: always caught
};

struct SweepItem {
  std::string name;
  std::string source;
  Answer answer = Answer::Clean;
  bool with_plan = true;
  RunShape shape;
  std::vector<DiagKind> expected_static;
  std::vector<DiagKind> forbidden_static;
  DiagKind expected_rt = DiagKind::RtCollectiveMismatch;
  uint64_t lines = 0;
};

/// Peak thread count of a corpus entry: ranks times the largest product of
/// nested team sizes (num_threads clause, else the entry's default).
int32_t thread_demand(const workloads::CorpusEntry& e) {
  const std::string& s = e.source;
  std::vector<std::pair<int, int32_t>> open; // (brace depth, team size)
  int depth = 0;
  int32_t pending = 0, peak = 1;
  for (size_t i = 0; i < s.size(); ++i) {
    if (s.compare(i, 12, "omp parallel") == 0) {
      pending = e.threads;
      const size_t eol = s.find('\n', i);
      const size_t nt = s.find("num_threads(", i);
      if (nt != std::string::npos && nt < eol)
        pending = std::stoi(s.substr(nt + 12));
    } else if (s[i] == '{') {
      ++depth;
      if (pending > 0) {
        open.emplace_back(depth, pending);
        pending = 0;
        int32_t product = 1;
        for (const auto& o : open) product *= o.second;
        peak = std::max(peak, product);
      }
    } else if (s[i] == '}') {
      if (!open.empty() && open.back().first == depth) open.pop_back();
      --depth;
    }
  }
  return e.ranks * peak;
}

constexpr int32_t kThreadBudget = kRanks * kThreads;
constexpr int kGenClean = 12;
constexpr int kGenMutants = 12;

class VerdictSweep final : public Workload {
public:
  void prepare(uint64_t seed) override {
    items_.clear();
    for (const auto& e : workloads::corpus()) add_corpus(e);
    add_generated(seed);
    // Set-up compiles every program once (driver and bytecode) so that a
    // program that cannot compile fails before timing starts.
    for (const auto& it : items_) {
      const auto c = compile_text(it.name, it.source);
      if (!c->r.ok)
        throw std::runtime_error(it.name + " does not compile:\n" +
                                 c->diags.to_text(c->sm));
      const auto t0 = Clock::now();
      auto bc = interp::compile(c->r.program, c->sm, &c->r.plan);
      interp::run_passes(bc);
      bc_compile_ms += ms_since(t0);
    }
    order_ = seeded_order(items_.size(), seed ^ 0x5eedULL);
  }
  [[nodiscard]] const std::vector<size_t>& order() const override {
    return order_;
  }
  /// The first clean item: a watchdog item would put one hang timeout into
  /// set-up for some seeds and not others.
  [[nodiscard]] size_t warmup_item() const override {
    for (size_t i : order_)
      if (items_[i].answer == Answer::Clean) return i;
    return order_.front();
  }

  ItemOutcome run(size_t i, const RunMode& mode) override {
    const SweepItem& it = items_[i];
    ItemOutcome out;
    out.lines = it.lines;
    const auto c = compile_text(it.name, it.source);
    record_compile(*c, out);
    if (!c->r.ok) {
      out.fail(it.name + ": compile failed");
      return out;
    }
    for (DiagKind k : it.expected_static)
      if (c->diags.count(k) == 0)
        out.fail(str::cat(it.name, ": missing static ", to_string(k)));
    for (DiagKind k : it.forbidden_static)
      if (c->diags.count(k) != 0)
        out.fail(str::cat(it.name, ": unexpected static ", to_string(k)));
    RunMode m = mode;
    m.no_plan = !it.with_plan;
    const auto res = execute(*c, m, it.shape, out);
    Answer want = it.answer;
    if (corrupt_oracle && i == warmup_item())
      want = want == Answer::Clean ? Answer::Deadlock : Answer::Clean;
    check_dynamic(it, want, res, out);
    return out;
  }

  void describe(std::ostream& os) const {
    static const char* kNames[] = {"clean",    "caught",        "no-hang",
                                   "comm-cycle", "deadlock",    "mutant",
                                   "mutant-must-catch"};
    std::map<std::string, int> by_answer;
    for (const auto& it : items_) {
      ++by_answer[kNames[static_cast<int>(it.answer)]];
      os << "  " << it.name << ": " << kNames[static_cast<int>(it.answer)]
         << (it.with_plan ? "" : " (no plan)") << ", " << it.shape.ranks
         << "x" << it.shape.threads << "\n";
    }
    for (const auto& [answer, n] : by_answer)
      os << "  total " << answer << ": " << n << "\n";
  }

private:
  void add_corpus(const workloads::CorpusEntry& e) {
    if (thread_demand(e) > kThreadBudget) return;
    SweepItem it;
    it.name = e.name;
    it.source = e.source;
    it.shape.ranks = e.ranks;
    it.shape.threads = e.threads;
    it.expected_static = e.expected_static;
    it.forbidden_static = e.forbidden_static;
    it.expected_rt = e.expected_rt;
    it.lines = str::count_code_lines(e.source);
    switch (e.dynamic) {
      case DynamicOutcome::Clean: it.answer = Answer::Clean; break;
      case DynamicOutcome::CaughtRace:
        it.shape.rendezvous = std::chrono::milliseconds(40);
        [[fallthrough]];
      case DynamicOutcome::CaughtBeforeHang:
      case DynamicOutcome::CaughtAtFinalize: it.answer = Answer::Caught; break;
      case DynamicOutcome::ThreadLevelWarn: it.answer = Answer::NoHang; break;
      case DynamicOutcome::DeadlockReported:
        it.answer = Answer::CommCycle;
        break;
    }
    items_.push_back(it);
    if (e.dynamic == DynamicOutcome::CaughtBeforeHang) {
      // Uninstrumented, the same program hangs: the watchdog must say so.
      it.name += "/no-plan";
      it.with_plan = false;
      it.answer = Answer::Deadlock;
      items_.push_back(it);
    }
  }

  void add_generated(uint64_t seed) {
    SplitMix64 rng(seed);
    int clean = 0, mutants = 0;
    while (clean < kGenClean || mutants < kGenMutants) {
      workloads::GenOptions g;
      g.seed = rng.next();
      const auto base = workloads::generate_random_program(g);
      if (base.collective_sites == 0) continue;
      SweepItem it;
      it.shape = RunShape{};
      if (clean < kGenClean) {
        it.name = str::cat("gen", g.seed, "/clean");
        it.source = base.source;
        it.answer = Answer::Clean;
        it.forbidden_static = {DiagKind::MultithreadedCollective,
                               DiagKind::ConcurrentCollectives,
                               DiagKind::ThreadLevelViolation};
        it.lines = str::count_code_lines(it.source);
        items_.push_back(it);
        ++clean;
        continue;
      }
      static constexpr Mutation kKinds[] = {
          Mutation::EarlyExit, Mutation::RankGuard, Mutation::KindDivergence};
      g.mutation = kKinds[mutants % 3];
      g.mutation_site = static_cast<int32_t>(
          rng.below(static_cast<uint64_t>(base.collective_sites)));
      const auto mut = workloads::generate_random_program(g);
      if (!mut.mutation_applied) continue; // the label would be wrong
      it.name =
          str::cat("gen", g.seed, "/mutant", static_cast<int>(g.mutation));
      it.source = mut.source;
      it.expected_static = {DiagKind::CollectiveMismatch};
      it.lines = str::count_code_lines(it.source);
      it.answer = g.mutation == Mutation::EarlyExit ? Answer::MutantMustCatch
                                                    : Answer::MutantCaught;
      items_.push_back(it);
      if (g.mutation == Mutation::EarlyExit) {
        // Rank 0 leaves main early: with no plan the peer blocks forever.
        it.name += "/no-plan";
        it.with_plan = false;
        it.answer = Answer::Deadlock;
        it.expected_static.clear();
        items_.push_back(it);
      }
      ++mutants;
    }
  }

  static void check_dynamic(const SweepItem& it, Answer want,
                            const interp::ExecResult& res, ItemOutcome& out) {
    const auto& mpi = res.mpi;
    const bool caught = res.rt_error_count() >= 1;
    bool kind_found = false;
    for (const auto& d : res.rt_diags) kind_found |= d.kind == it.expected_rt;
    const std::string tag = it.name + ": ";
    switch (want) {
      case Answer::Clean:
        if (!res.clean)
          out.fail(tag + "not clean: " + mpi.abort_reason +
                   mpi.deadlock_details);
        break;
      case Answer::Caught:
        if (mpi.deadlock) out.fail(tag + "hang instead of a runtime catch");
        else if (!caught || !kind_found)
          out.fail(
              str::cat(tag, "expected runtime ", to_string(it.expected_rt)));
        break;
      case Answer::NoHang:
        if (mpi.deadlock) out.fail(tag + "unexpected hang");
        break;
      case Answer::CommCycle:
        if (!mpi.deadlock ||
            mpi.deadlock_details.find("MPI_COMM_WORLD") == std::string::npos ||
            mpi.deadlock_details.find("comm_split#") == std::string::npos)
          out.fail(tag + "cross-communicator deadlock not reported");
        break;
      case Answer::Deadlock:
        if (!mpi.deadlock) out.fail(tag + "watchdog did not report the hang");
        break;
      case Answer::MutantCaught:
      case Answer::MutantMustCatch:
        if (mpi.deadlock) out.fail(tag + "instrumented mutant hung");
        else if (want == Answer::MutantMustCatch && !caught)
          out.fail(tag + "early exit not caught");
        else if (!caught && !res.clean)
          out.fail(tag + "neither caught nor clean: " + mpi.abort_reason);
        else if (caught && !kind_found)
          out.fail(tag + "caught with the wrong diagnostic kind");
        break;
    }
  }

  std::vector<SweepItem> items_;
  std::vector<size_t> order_;
};

} // namespace

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "analyze_fig1") return std::make_unique<AnalyzeFig1>();
  if (name == "run_npb") return std::make_unique<RunProgram>(npb_program);
  if (name == "run_epcc") return std::make_unique<RunProgram>(epcc_program);
  if (name == "verdict_sweep") return std::make_unique<VerdictSweep>();
  return nullptr;
}

void dump_fig1_answers() { AnalyzeFig1::dump_answers(); }

void describe_sweep(uint64_t seed) {
  std::cout << "verdict_sweep leaves out (more than " << kThreadBudget
            << " threads):\n";
  for (const auto& e : workloads::corpus())
    if (const int32_t demand = thread_demand(e); demand > kThreadBudget)
      std::cout << "  " << e.name << " (" << demand << " threads)\n";
  VerdictSweep sweep;
  sweep.prepare(seed);
  std::cout << "items for seed " << seed << ":\n";
  sweep.describe(std::cout);
}

} // namespace perfbench
