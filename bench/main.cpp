// parcoach_bench entry point and the helpers shared by the families; see
// runner.h for the usage.
#include "runner.h"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string_view>

namespace parcoach::bench {

void write_json(const Options& opts, const std::string& file,
                const std::function<void(JsonWriter&)>& fill) {
  if (opts.json_dir.empty()) return;
  const auto path = std::filesystem::path(opts.json_dir) / file;
  std::ofstream os(path);
  if (!os) {
    std::cerr << "cannot write " << path.string() << "\n";
    std::exit(1);
  }
  JsonWriter w(os);
  fill(w);
  os << "\n";
  std::cout << "wrote " << path.string() << "\n";
}

void fail(const std::string& what) {
  std::cerr << "parcoach_bench: " << what << "\n";
  std::abort();
}

std::unique_ptr<Compiled> compile(const std::string& name,
                                  const std::string& source,
                                  const driver::PipelineOptions& opts) {
  auto c = std::make_unique<Compiled>();
  DiagnosticEngine diags;
  c->result = driver::compile(c->sm, name, source, diags, opts);
  if (!c->result.ok)
    fail("compile failed: " + name + "\n" + diags.to_text(c->sm));
  return c;
}

TimedRun run(const Compiled& c, const core::InstrumentationPlan* plan,
             const interp::ExecOptions& eopts) {
  interp::Executor exec(c.result.program, c.sm, plan);
  TimedRun t;
  t.ns = time_ns([&] { t.result = exec.run(eopts); });
  if (!t.result.clean)
    fail("run not clean: " + t.result.mpi.abort_reason + "\n" +
         t.result.mpi.deadlock_details);
  return t;
}

} // namespace parcoach::bench

namespace {

using namespace parcoach::bench;

struct Family {
  std::string_view name;
  bool (*run)(const Options&);
};

constexpr Family kFamilies[] = {
    {"static", run_static},       {"simmpi", run_simmpi},
    {"overhead", run_overhead},   {"selective", run_selective},
    {"interp", run_interp},
};

int usage() {
  std::cerr << "usage: parcoach_bench static|simmpi|overhead|selective|"
               "interp|all [--smoke] [--json-dir=DIR]\n"
               "       parcoach_bench interp --opmix\n";
  return 2;
}

} // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string_view family;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--smoke") {
      opts.smoke = true;
    } else if (arg.starts_with("--json-dir=")) {
      opts.json_dir = arg.substr(11);
    } else if (arg == "--opmix") {
      opts.opmix = true;
    } else if (family.empty() && !arg.starts_with("-")) {
      family = arg;
    } else {
      return usage();
    }
  }
  if (family.empty() || (opts.opmix && family != "interp")) return usage();
  if (!opts.json_dir.empty())
    std::filesystem::create_directories(opts.json_dir);

  bool matched = false;
  bool ok = true;
  for (const auto& f : kFamilies) {
    if (family != "all" && family != f.name) continue;
    matched = true;
    if (!f.run(opts)) {
      std::cerr << "parcoach_bench: " << f.name << ": self-check FAILED\n";
      ok = false;
    }
  }
  if (!matched) return usage();
  return ok ? 0 : 1;
}
