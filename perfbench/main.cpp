// perfbench: one end-to-end benchmark of the nscc pipeline.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--corpus DIR] [--out DIR]
//
// Every workload runs whole rounds over its requests (a program plus an
// input) until S seconds have passed.  A round has up to three parts:
//
//   compile  (compile_corpus only) every program compiled cold, unit and
//            lifted batch program at O2, the way a cold serve request
//            compiles it: front end, then the ProgramCache of a Service
//            misses and compiles.  The compile is composed here from the
//            public entry points of each layer (nsa, sa, opt) and checked
//            to give the same code as sa::compile_nsc.
//   direct   every request run once on the serial engine and once on the
//            parallel backend (2 pool workers), through the three steps of
//            sa::run_compiled (encode, bvram::run, decode), the path
//            `nscc run` and library callers take.
//   serve    a closed loop: the main thread keeps a fixed number of the
//            round's requests outstanding against a Service with 2
//            workers, timing each from submit to the moment it sees the
//            response.
//
// The workloads differ in their requests and in which part dominates:
//   compile_corpus  the declared inputs of all 12 corpus programs; the
//                   compile part is 99% of the round.
//   run_large       one large seeded input per program; the direct part.
//   serve_mix       600 small seeded requests over all 12 programs, 12 of
//                   them trap_division requests that trap, served four
//                   times per round; the serve part.
//
// Every result is checked: direct runs and serve responses against the NSC
// evaluator (value and trap), or for full-size inputs against hand-written
// C++ references that are themselves checked against the evaluator on
// down-sized twins; serial against parallel (value, T, W); O2 against O0
// executed T and W on every declared input; and the composed compile
// against sa::compile_nsc.  The last line of stdout is one JSON object:
// the end-to-end metrics (--trace 0: set-up time, code size, executed T
// and W, peak memory after one round) or the per-layer metrics, timings
// included, of a run with spans around every layer call (--trace 1, which
// also writes a Chrome trace to the --out directory).
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bvram/machine.hpp"
#include "front/front.hpp"
#include "inputs.hpp"
#include "nsa/from_nsc.hpp"
#include "nsc/build.hpp"
#include "nsc/eval.hpp"
#include "opt/fuse.hpp"
#include "opt/liveness.hpp"
#include "opt/opt.hpp"
#include "sa/compile.hpp"
#include "sa/layout.hpp"
#include "serve/service.hpp"
#include "support/parallel.hpp"
#include "support/prng.hpp"
#include "trace.hpp"

namespace {

namespace F = nsc::front;
namespace L = nsc::lang;
using nsc::Cost;
using nsc::SplitMix64;
using nsc::Value;
using nsc::ValueRef;
using perfbench::Clock;
using perfbench::now_ns;
using perfbench::Span;
using perfbench::Tracer;

constexpr std::size_t kServeWorkers = 2;
constexpr const char* kPoolWorkers = "2";
constexpr std::size_t kMixPerProgram = 50;
constexpr std::size_t kMixTraps = 12;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string corpus = "tests/corpus";
  std::string out = "perfbench/out";
};

[[noreturn]] void die(const std::string& why) {
  std::fprintf(stderr, "perfbench: %s\n", why.c_str());
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) die("missing value for " + flag);
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
        have_seconds = a.seconds > 0;
      } else if (flag == "--trace") {
        if (v != "0" && v != "1") die("--trace takes 0 or 1");
        a.trace = v == "1";
        have_trace = true;
      } else if (flag == "--corpus") {
        a.corpus = v;
      } else if (flag == "--out") {
        a.out = v;
      } else {
        die("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      die("bad value '" + v + "' for " + flag);
    }
  }
  if (a.workload != "compile_corpus" && a.workload != "run_large" &&
      a.workload != "serve_mix") {
    die("--workload must be compile_corpus, run_large or serve_mix");
  }
  if (!have_seed || !have_seconds || !have_trace) {
    die("usage: perfbench --workload NAME --seed N --seconds S --trace 0|1");
  }
  return a;
}

double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
double since_ms(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

/// Nearest-rank quantile of a sorted sample.
double quantile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::min(sorted.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += std::log(x);
  return std::exp(s / static_cast<double>(v.size()));
}

/// Peak resident set of the process so far, in MB.
double peak_rss_mb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---------------------------------------------------------------------------
// Checks
// ---------------------------------------------------------------------------

/// Every failed check lands here; the run reports correct = false.
struct Checker {
  std::uint64_t failures = 0;
  void fail(const std::string& what) {
    if (failures++ < 20) std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n", what.c_str());
  }
  void expect(bool ok, const std::string& what) {
    if (!ok) fail(what);
  }
};

/// A result as the evaluator defines it: a value, or the Omega trap.
struct Expected {
  bool trapped = false;
  ValueRef value;
};

Expected evaluate(const L::FuncRef& fn, const ValueRef& arg) {
  Expected e;
  try {
    e.value = L::apply_fn(fn, arg).value;
  } catch (const nsc::EvalError&) {
    e.trapped = true;
  }
  return e;
}

Expected cxx_reference(const std::string& program, const ValueRef& arg) {
  Expected e;
  try {
    e.value = perfbench::reference(program, arg);
  } catch (const nsc::EvalError&) {
    e.trapped = true;
  }
  return e;
}

bool same(const Expected& a, const Expected& b) {
  return a.trapped == b.trapped && (a.trapped || Value::equal(a.value, b.value));
}

// ---------------------------------------------------------------------------
// Programs and the layer calls around them
// ---------------------------------------------------------------------------

struct Program {
  std::string name;
  std::string text;
  F::ResolvedModule module;  ///< from the set-up compile's front end
  nsc::serve::CacheKey key;
  std::shared_ptr<const nsc::serve::CompiledProgram> compiled;
  std::string ref_unit, ref_batch;  ///< sa::compile_nsc disassembly
  std::vector<double> compile_ms, exec_ms, exec_par_ms;  ///< samples
};

/// Counts the traced run collects besides span times.
struct Counters {
  std::uint64_t instrs_O0 = 0, regs_O0 = 0, opt_rounds = 0, instrs_removed = 0,
                fused_groups = 0;
  std::uint64_t op_ns[16] = {};
  std::uint64_t fused_run = 0, fused_fallbacks = 0, pool_hits = 0,
                pool_misses = 0, inplace_hits = 0, move_swaps = 0;
  std::uint64_t par_calls = 0, par_serial = 0, par_chunks = 0;
  std::uint64_t queue_wait_ns = 0, queue_waits = 0, submit_ns = 0;
};

/// NSC function -> O2 BVRAM program with every layer called separately:
/// variable elimination, flattening (at O0, i.e. the naive catalog
/// emission), the optimizer pipeline, then the last-use and fusion
/// annotations.  sa::compile_nsc runs the same steps inside one call.
nsc::bvram::Program lower(const L::FuncRef& fn, Tracer& tr, Counters& c) {
  const nsc::nsa::NsaRef f =
      tr.timed("nsa", [&] { return nsc::nsa::from_closed_func(fn); });
  nsc::bvram::Program p = tr.timed(
      "sa.flatten", [&] { return nsc::sa::compile_nsa(f, nsc::opt::OptLevel::O0); });
  const nsc::opt::PipelineStats st =
      tr.timed("opt", [&] { return nsc::opt::optimize(p, nsc::opt::OptLevel::O2); });
  tr.timed("opt.annotate", [&] {
    nsc::opt::annotate_last_use(p);
    nsc::opt::annotate_fusion(p);
  });
  if (tr.on()) {
    c.instrs_O0 += st.instrs_before;
    c.regs_O0 += st.regs_before;
    c.opt_rounds += st.rounds;
    c.instrs_removed += st.instrs_before - st.instrs_after;
    c.fused_groups += p.fusion.size();
    for (const auto& ps : st.passes) tr.add("opt." + ps.name, ps.wall_ns);
  }
  return p;
}

/// One cold compile as Service::load does it: front end, then a cache
/// lookup that compiles the unit and the lifted batch program on a miss.
/// Returns the artifact; `module_out` receives the front end's module.
std::shared_ptr<const nsc::serve::CompiledProgram> compile_cold(
    const Program& p, nsc::serve::Service& svc, Tracer& tr, Counters& c,
    F::ResolvedModule* module_out) {
  const F::SourceFile src(p.name, p.text);
  F::ResolvedModule mod = tr.timed("front", [&] { return F::compile_file(src); });
  const F::ResolvedFn& fn = mod.main();
  auto prog = svc.cache().get_or_compile(p.key, [&] {
    const auto t0 = Clock::now();
    auto out = std::make_shared<nsc::serve::CompiledProgram>();
    out->key = p.key;
    out->name = p.name + ":" + fn.name;
    out->dom = fn.dom;
    out->cod = fn.cod;
    out->unit = lower(fn.fn, tr, c);
    out->batch = lower(L::map_f(fn.fn), tr, c);
    out->compile_wall_ns = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count());
    return std::shared_ptr<const nsc::serve::CompiledProgram>(std::move(out));
  });
  if (module_out != nullptr) *module_out = std::move(mod);
  return prog;
}

struct RunOutcome {
  Expected result;
  bool failed = false;  ///< anything but a value or an Omega
  std::string error;
  Cost cost;
};

RunOutcome run_direct(const nsc::serve::CompiledProgram& cp, const ValueRef& arg,
                      bool parallel, Tracer& tr, Counters& c) {
  nsc::bvram::RunConfig cfg;
  cfg.parallel_backend = parallel;
  cfg.profile = tr.on();
  RunOutcome o;
  try {
    // sa::run_compiled's three steps, each under its own span (spans and
    // the engine's per-instruction timestamps are off in untraced runs).
    const auto in = tr.timed("sa.encode", [&] { return nsc::sa::encode_value(arg, cp.dom); });
    const nsc::bvram::RunResult rr =
        tr.timed("bvram.run", [&] { return nsc::bvram::run(cp.unit, in, cfg); });
    o.result.value =
        tr.timed("sa.decode", [&] { return nsc::sa::decode_value(cp.cod, rr.outputs); });
    o.cost = rr.cost;
    if (tr.on()) {
      for (std::size_t i = 0; i < rr.profile.size(); ++i) {
        c.op_ns[static_cast<std::size_t>(cp.unit.code[i].op)] += rr.profile[i].wall_ns;
      }
      c.fused_run += rr.engine.fused_groups;
      c.fused_fallbacks += rr.engine.fused_fallbacks;
      c.pool_hits += rr.engine.pool_hits;
      c.pool_misses += rr.engine.pool_misses;
      c.inplace_hits += rr.engine.inplace_hits;
      c.move_swaps += rr.engine.move_swaps;
    }
  } catch (const nsc::EvalError& e) {
    o.result.trapped = true;
    o.error = e.what();
  } catch (const std::exception& e) {
    o.failed = true;
    o.error = e.what();
  }
  return o;
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Request {
  std::size_t program = 0;
  ValueRef arg;
  Expected expected;
  bool have_cost = false;  ///< first serial run seen
  Cost cost;               ///< its T and W
  std::string trap;        ///< its trap message
};

struct Bench {
  Args args;
  Tracer tr;
  Counters c;
  Checker check;
  std::vector<Program> programs;
  std::vector<Request> requests;
  nsc::obs::SpanLog serve_spans;  ///< the service's own spans (traced runs)
  std::uint64_t serve_spans_origin = now_ns();
  nsc::serve::Service svc;
  // The round plan (see main()).
  bool compile_each_round = false;
  std::size_t serve_passes = 1;
  std::size_t outstanding = 2;  ///< requests the serve part keeps in flight

  std::uint64_t attempted = 0, failed = 0, rounds = 0, op_id = 0;
  std::uint64_t compile_passes = 0;
  std::vector<double> latencies_ms;
  std::uint64_t served = 0;
  double serve_s = 0;  ///< wall time of the serve parts
  double peak_rss_mb_round1 = 0;

  Bench(const Args& a, nsc::serve::ServeConfig cfg)
      : args(a), tr(a.trace), svc(with_spans(std::move(cfg))) {}

  nsc::serve::ServeConfig with_spans(nsc::serve::ServeConfig cfg) {
    if (args.trace) cfg.spans = &serve_spans;
    return cfg;
  }

  /// Move the service's spans into the trace, summing queue waits.
  void collect_serve_spans() {
    for (auto& s : serve_spans.drain()) {
      if (s.phase == "queue-wait") {
        c.queue_wait_ns += s.dur_ns;
        ++c.queue_waits;
      }
      Span sp;
      sp.name = "serve." + s.phase;
      sp.t0_ns = serve_spans_origin + s.t0_ns;
      sp.dur_ns = s.dur_ns;
      sp.tid = static_cast<std::uint32_t>(s.worker);
      sp.op = s.request_id;
      tr.record(std::move(sp));
    }
  }

  void fail_op(const std::string& what) {
    ++failed;
    if (failed <= 20) std::fprintf(stderr, "perfbench: operation failed: %s\n", what.c_str());
  }

  // -- set-up -------------------------------------------------------------

  void load_sources() {
    for (const std::string& name : perfbench::corpus_programs()) {
      Program p;
      p.name = name;
      const std::string path = args.corpus + "/" + name + ".nsc";
      std::ifstream in(path);
      if (!in) die("cannot read " + path);
      std::ostringstream text;
      text << in.rdbuf();
      p.text = text.str();
      p.key.source_hash = nsc::serve::hash_source(p.text, "main");
      p.key.fuse = svc.config().fuse;
      programs.push_back(std::move(p));
    }
  }

  void compile_all() {
    for (Program& p : programs) {
      tr.begin_op(++op_id);
      const auto t0 = Clock::now();
      p.compiled = compile_cold(p, svc, tr, c, &p.module);
      if (!compile_each_round) p.compile_ms.push_back(since_ms(t0));
    }
    ++compile_passes;
  }

  // -- reference computations (not part of set-up or of the timed phase) --

  void check_compiles(const Program& p, const nsc::serve::CompiledProgram& cp) {
    check.expect(cp.unit.disassemble() == p.ref_unit,
                 p.name + ": composed unit program differs from sa::compile_nsc");
    check.expect(cp.batch.disassemble() == p.ref_batch,
                 p.name + ": composed batch program differs from sa::compile_nsc");
  }

  void reference_compiles() {
    for (Program& p : programs) {
      const F::ResolvedFn& fn = p.module.main();
      const auto unit = nsc::sa::compile_nsc(fn.fn);
      const auto batch = nsc::sa::compile_nsc(L::map_f(fn.fn));
      p.ref_unit = unit.disassemble();
      p.ref_batch = batch.disassemble();
      check_compiles(p, *p.compiled);
      check.expect(unit.fusion.size() == p.compiled->unit.fusion.size() &&
                       batch.fusion.size() == p.compiled->batch.fusion.size(),
                   p.name + ": composed fusion plan differs from sa::compile_nsc");
    }
  }

  /// The optimizer's contract on every declared input: the O2 program
  /// computes what the evaluator does, with executed T and W no larger
  /// than the naive O0 emission's.
  void check_declared_inputs() {
    Tracer off(false);
    Counters scratch;
    for (Program& p : programs) {
      const F::ResolvedFn& fn = p.module.main();
      nsc::serve::CompiledProgram o0 = *p.compiled;
      o0.unit = nsc::sa::compile_nsc(fn.fn, nsc::opt::OptLevel::O0);
      for (const auto& in : p.module.inputs) {
        const ValueRef arg = L::eval(in.term).value;
        const Expected want = evaluate(fn.fn, arg);
        const RunOutcome a = run_direct(o0, arg, false, off, scratch);
        const RunOutcome b = run_direct(*p.compiled, arg, false, off, scratch);
        check.expect(!a.failed && !b.failed && same(a.result, want) && same(b.result, want),
                     p.name + ": O0/O2 result differs from the evaluator on " + arg->show());
        if (!a.result.trapped && !b.result.trapped) {
          check.expect(b.cost.time <= a.cost.time && b.cost.work <= a.cost.work,
                       p.name + ": O2 executes more T or W than O0 on " + arg->show());
        }
      }
    }
  }

  void make_requests() {
    SplitMix64 rng(args.seed);
    if (args.workload == "compile_corpus") {
      for (std::size_t i = 0; i < programs.size(); ++i) {
        for (const auto& in : programs[i].module.inputs) {
          Request r;
          r.program = i;
          r.arg = L::eval(in.term).value;
          r.expected = evaluate(programs[i].module.main().fn, r.arg);
          requests.push_back(std::move(r));
        }
      }
    } else if (args.workload == "run_large") {
      for (std::size_t i = 0; i < programs.size(); ++i) {
        const std::string& name = programs[i].name;
        // The evaluator is far too slow at full size: it checks a twin
        // made the same way at a sixteenth of the size, and the C++
        // reference, checked on that twin, checks the full-size result.
        const ValueRef twin = perfbench::make_input(name, perfbench::large_size(name) / 16, rng);
        const Expected want = evaluate(programs[i].module.main().fn, twin);
        check.expect(same(cxx_reference(name, twin), want),
                     name + ": C++ reference differs from the evaluator on the twin input");
        Tracer off(false);
        const RunOutcome got = run_direct(*programs[i].compiled, twin, false, off, c);
        check.expect(!got.failed && same(got.result, want),
                     name + ": compiled result differs from the evaluator on the twin input");
        Request r;
        r.program = i;
        r.arg = perfbench::make_input(name, perfbench::large_size(name), rng);
        r.expected = cxx_reference(name, r.arg);
        requests.push_back(std::move(r));
      }
    } else {
      const std::size_t trap_program = programs.size() - 1;  // trap_division
      for (std::size_t i = 0; i < programs.size(); ++i) {
        for (std::size_t k = 0; k < kMixPerProgram; ++k) {
          Request r;
          r.program = i;
          const bool trap = i == trap_program && k < kMixTraps;
          // Sizes spread evenly over [16, 128] and only the contents drawn
          // from the seed, so that every seed asks for the same amount of work.
          const std::size_t size = 16 + k * 112 / (kMixPerProgram - 1);
          r.arg = perfbench::make_input(programs[i].name, size, rng, trap);
          r.expected = evaluate(programs[i].module.main().fn, r.arg);
          check.expect(same(cxx_reference(programs[i].name, r.arg), r.expected),
                       programs[i].name + ": C++ reference differs from the evaluator");
          check.expect(r.expected.trapped == trap,
                       programs[i].name + ": request traps unexpectedly");
          requests.push_back(std::move(r));
        }
      }
    }
  }

  // -- timed phase --------------------------------------------------------

  void compile_part(const std::vector<std::size_t>& program_order) {
    svc.cache().clear();
    for (const std::size_t i : program_order) {
      Program& p = programs[i];
      tr.begin_op(++op_id);
      ++attempted;
      const auto t0 = Clock::now();
      try {
        auto cp = compile_cold(p, svc, tr, c, nullptr);
        p.compile_ms.push_back(since_ms(t0));
        p.compiled = std::move(cp);
        check_compiles(p, *p.compiled);
      } catch (const std::exception& e) {
        fail_op(p.name + ": compile threw: " + e.what());
      }
    }
    ++compile_passes;
  }

  void direct_part(const std::vector<std::size_t>& order) {
    for (const std::size_t ri : order) {
      Request& r = requests[ri];
      Program& p = programs[r.program];
      tr.begin_op(++op_id);
      attempted += 2;
      auto t0 = Clock::now();
      const RunOutcome s = run_direct(*p.compiled, r.arg, false, tr, c);
      p.exec_ms.push_back(since_ms(t0));
      nsc::ParallelCounters before;
      if (tr.on()) before = nsc::parallel_counters();
      t0 = Clock::now();
      const RunOutcome q = run_direct(*p.compiled, r.arg, true, tr, c);
      p.exec_par_ms.push_back(since_ms(t0));
      if (tr.on()) {
        const nsc::ParallelCounters after = nsc::parallel_counters();
        c.par_calls += after.calls - before.calls;
        c.par_serial += after.serial_calls - before.serial_calls;
        c.par_chunks += after.chunks - before.chunks;
      }
      if (s.failed || q.failed) {
        fail_op(p.name + ": run threw: " + (s.failed ? s.error : q.error));
        continue;
      }
      check.expect(same(s.result, r.expected),
                   p.name + ": serial result differs from the reference");
      check.expect(same(q.result, s.result) && q.error == s.error &&
                       (s.result.trapped || (q.cost.time == s.cost.time &&
                                             q.cost.work == s.cost.work)),
                   p.name + ": parallel backend differs from serial (value, trap, T or W)");
      if (!r.have_cost) {
        r.have_cost = true;
        r.cost = s.cost;
        r.trap = s.error;
      } else {
        check.expect(r.cost.time == s.cost.time && r.cost.work == s.cost.work &&
                         r.trap == s.error,
                     p.name + ": T, W or trap changed between rounds");
      }
    }
  }

  void check_response(const Request& r, const nsc::serve::Response& resp) {
    const Program& p = programs[r.program];
    using nsc::serve::Outcome;
    if (resp.outcome != Outcome::Ok && resp.outcome != Outcome::Trap) {
      fail_op(p.name + ": serve " + nsc::serve::outcome_name(resp.outcome) + ": " + resp.error);
      return;
    }
    Expected got;
    got.trapped = resp.outcome == Outcome::Trap;
    got.value = resp.value;
    check.expect(same(got, r.expected), p.name + ": serve response differs from the reference");
  }

  void serve_part(const std::vector<std::size_t>& order) {
    // Clients name programs by key; every round looks each one up in the
    // service's cache once, as `nscc serve` does per loaded file.
    std::vector<std::shared_ptr<const nsc::serve::CompiledProgram>> handles;
    for (const Program& p : programs) {
      handles.push_back(svc.cache().get_or_compile(p.key, [&]() -> std::shared_ptr<const nsc::serve::CompiledProgram> {
        throw std::logic_error("program " + p.name + " missing from the cache");
      }));
    }
    struct InFlight {
      std::size_t request;
      Clock::time_point t0;
      std::future<nsc::serve::Response> response;
    };
    std::vector<InFlight> flight;
    flight.reserve(outstanding);
    std::size_t next = 0;
    const auto start = Clock::now();
    while (next < order.size() || !flight.empty()) {
      while (flight.size() < outstanding && next < order.size()) {
        const std::size_t ri = order[next++];
        ++attempted;
        const std::uint64_t s0 = tr.on() ? now_ns() : 0;
        const auto t0 = Clock::now();
        auto fut = svc.submit(handles[requests[ri].program], requests[ri].arg);
        if (tr.on()) c.submit_ns += now_ns() - s0;
        flight.push_back({ri, t0, std::move(fut)});
      }
      flight.front().response.wait();
      const auto seen = Clock::now();
      std::size_t keep = 0;
      for (std::size_t k = 0; k < flight.size(); ++k) {
        if (k == 0 || flight[k].response.wait_for(std::chrono::seconds(0)) ==
                          std::future_status::ready) {
          latencies_ms.push_back(
              std::chrono::duration<double, std::milli>(seen - flight[k].t0).count());
          check_response(requests[flight[k].request], flight[k].response.get());
        } else {
          flight[keep++] = std::move(flight[k]);
        }
      }
      flight.resize(keep);
    }
    served += order.size();
    serve_s += std::chrono::duration<double>(Clock::now() - start).count();
    if (tr.on()) collect_serve_spans();
  }

  void timed_phase() {
    SplitMix64 order_rng(args.seed ^ 0x6a09e667f3bcc908ull);
    const auto shuffled = [&](std::size_t n) {
      std::vector<std::size_t> v(n);
      for (std::size_t i = 0; i < n; ++i) v[i] = i;
      for (std::size_t i = n; i > 1; --i) std::swap(v[i - 1], v[order_rng.below(i)]);
      return v;
    };
    const auto start = Clock::now();
    do {
      if (compile_each_round) compile_part(shuffled(programs.size()));
      direct_part(shuffled(requests.size()));
      for (std::size_t k = 0; k < serve_passes; ++k) serve_part(shuffled(requests.size()));
      // Peak memory after one round: later rounds would read more, and by
      // how much would depend on how many rounds the host lets a run fit,
      // because the service's arenas grow with every request served
      // (see README.md).
      if (++rounds == 1) peak_rss_mb_round1 = peak_rss_mb();
    } while (std::chrono::duration<double>(Clock::now() - start).count() < args.seconds);
  }
};

// ---------------------------------------------------------------------------
// Metrics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string number(double v) {
  char buf[64];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, r.ptr);
}

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + ms[i].name + "\": {\"value\": " + number(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "}";
}

/// What a user of each part of the round waits for: geomeans over programs
/// of per-program median times, and the serve loop's throughput and
/// latency percentiles.  They are per-layer metrics, not end-to-end ones:
/// on a shared host they drift by 10-30% between runs minutes apart (see
/// README.md), so they cannot carry a regression bound.
std::vector<Metric> timings(const Bench& b) {
  std::vector<double> compile, exec, exec_par;
  for (const Program& p : b.programs) {
    compile.push_back(median(p.compile_ms));
    exec.push_back(median(p.exec_ms));
    exec_par.push_back(median(p.exec_par_ms));
  }
  std::vector<double> lat = b.latencies_ms;
  std::sort(lat.begin(), lat.end());
  return {
      {"compile_ms", geomean(compile), "ms"},
      {"exec_ms", geomean(exec), "ms"},
      {"exec_par_ms", geomean(exec_par), "ms"},
      {"serve_rps", static_cast<double>(b.served) / b.serve_s, "requests/s"},
      {"serve_p50_ms", quantile(lat, 0.50), "ms"},
      {"serve_p99_ms", quantile(lat, 0.99), "ms"},
  };
}

std::vector<Metric> end_to_end(const Bench& b, double setup_s, double peak_mb) {
  std::uint64_t instrs = 0, T = 0, W = 0;
  for (const Program& p : b.programs) {
    instrs += p.compiled->unit.code.size() + p.compiled->batch.code.size();
  }
  for (const Request& r : b.requests) {
    T += r.cost.time;
    W += r.cost.work;
  }
  return {
      {"setup_s", setup_s, "s"},
      {"code_instrs", static_cast<double>(instrs), "instructions"},
      {"bvram_T", static_cast<double>(T), "steps"},
      {"bvram_W", static_cast<double>(W), "elements"},
      {"peak_rss_mb", peak_mb, "MB"},
  };
}

/// Layer times and counts.  Compile layers are per compile pass (the
/// set-up pass, plus one per round in compile_corpus); everything else is
/// per round of the timed phase.
std::vector<Metric> per_layer(const Bench& b, const nsc::serve::ServeStats& st) {
  const Counters& c = b.c;
  const double rounds = static_cast<double>(std::max<std::uint64_t>(b.rounds, 1));
  const double passes = static_cast<double>(std::max<std::uint64_t>(b.compile_passes, 1));
  const auto per_pass = [&](const std::string& layer) {
    return ns_to_ms(b.tr.total_ns(layer)) / passes;
  };
  const auto per_round_ms = [&](const std::string& layer) {
    return ns_to_ms(b.tr.total_ns(layer)) / rounds;
  };
  std::vector<Metric> m = timings(b);
  const std::vector<Metric> layers = {
      {"front.ms", per_pass("front"), "ms"},
      {"nsa.ms", per_pass("nsa"), "ms"},
      {"sa.flatten_ms", per_pass("sa.flatten"), "ms"},
      {"sa.instrs_O0", static_cast<double>(c.instrs_O0) / passes, "instructions"},
      {"sa.regs_O0", static_cast<double>(c.regs_O0) / passes, "registers"},
      {"opt.ms", per_pass("opt"), "ms"},
  };
  m.insert(m.end(), layers.begin(), layers.end());
  for (const char* pass : {"copy-prop", "gvn", "licm", "peephole", "dce", "reg-compact"}) {
    m.push_back({std::string("opt.") + pass + ".ms", per_pass(std::string("opt.") + pass), "ms"});
  }
  m.push_back({"opt.rounds", static_cast<double>(c.opt_rounds) / passes, "count"});
  m.push_back({"opt.instrs_removed", static_cast<double>(c.instrs_removed) / passes, "instructions"});
  m.push_back({"opt.annotate_ms", per_pass("opt.annotate"), "ms"});
  m.push_back({"opt.fused_groups", static_cast<double>(c.fused_groups) / passes, "count"});
  m.push_back({"sa.encode_ms", per_round_ms("sa.encode"), "ms"});
  m.push_back({"sa.decode_ms", per_round_ms("sa.decode"), "ms"});
  m.push_back({"bvram.run_ms", per_round_ms("bvram.run"), "ms"});
  for (int op = 0; op <= static_cast<int>(nsc::bvram::Op::Halt); ++op) {
    m.push_back({std::string("bvram.op.") + nsc::bvram::op_name(static_cast<nsc::bvram::Op>(op)) + ".ms",
                 ns_to_ms(c.op_ns[op]) / rounds, "ms"});
  }
  const auto per_round = [&](std::uint64_t v) { return static_cast<double>(v) / rounds; };
  m.push_back({"bvram.fused_groups_run", per_round(c.fused_run), "count"});
  m.push_back({"bvram.fused_fallbacks", per_round(c.fused_fallbacks), "count"});
  m.push_back({"bvram.pool_hits", per_round(c.pool_hits), "count"});
  m.push_back({"bvram.pool_misses", per_round(c.pool_misses), "count"});
  m.push_back({"bvram.inplace_hits", per_round(c.inplace_hits), "count"});
  m.push_back({"bvram.move_swaps", per_round(c.move_swaps), "count"});
  m.push_back({"parallel.calls", per_round(c.par_calls), "count"});
  m.push_back({"parallel.serial_calls", per_round(c.par_serial), "count"});
  m.push_back({"parallel.chunks", per_round(c.par_chunks), "count"});
  m.push_back({"serve.submit_ms", ns_to_ms(c.submit_ns) / rounds, "ms"});
  m.push_back({"serve.queue_wait_ms",
               c.queue_waits == 0 ? 0 : ns_to_ms(c.queue_wait_ns) / static_cast<double>(c.queue_waits),
               "ms"});
  m.push_back({"serve.exec_ms", ns_to_ms(st.exec_wall_ns) / rounds, "ms"});
  m.push_back({"serve.batch_occupancy", st.batch_occupancy, "requests"});
  m.push_back({"serve.runs", per_round(st.runs), "count"});
  m.push_back({"serve.replays", per_round(st.replays), "count"});
  m.push_back({"serve.cache_hits", per_round(st.cache.hits), "count"});
  m.push_back({"serve.cache_misses", static_cast<double>(st.cache.misses) / passes, "count"});
  m.push_back({"serve.compile_ms", ns_to_ms(st.cache.compile_wall_ns) / passes, "ms"});
  m.push_back({"serve.arenas_created", static_cast<double>(st.arena.created), "count"});
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  // The parallel backend's pool reads NSCC_WORKERS once, at first use.
  setenv("NSCC_WORKERS", kPoolWorkers, 1);

  nsc::serve::ServeConfig cfg;
  cfg.workers = kServeWorkers;
  Bench b(args, cfg);
  // Every round runs each request once on each backend and serve_passes
  // times through the service; compile_corpus first compiles every
  // program cold.  serve_mix serves the pool four times per round so that
  // the serve loop takes most of its time.
  b.compile_each_round = args.workload == "compile_corpus";
  if (args.workload == "serve_mix") {
    b.serve_passes = 4;
    b.outstanding = 32;
  }

  // Set-up: read the sources, compile every program cold into the cache.
  b.load_sources();
  b.compile_all();
  const double setup_s = static_cast<double>(now_ns()) / 1e9;

  const double peak_setup_mb = peak_rss_mb();

  // The benchmark's own reference computations.
  b.reference_compiles();
  b.check_declared_inputs();
  b.make_requests();
  const double peak_before_timed_mb = peak_rss_mb();

  const nsc::serve::ServeStats st0 = b.svc.stats();
  b.timed_phase();
  // Run and request counters over the timed phase; cache counters over
  // the whole run, set-up included.
  nsc::serve::ServeStats st = b.svc.stats();
  st.exec_wall_ns -= st0.exec_wall_ns;
  st.runs -= st0.runs;
  st.replays -= st0.replays;
  st.cache.hits -= st0.cache.hits;

  std::vector<Metric> out = end_to_end(b, setup_s, b.peak_rss_mb_round1);
  if (args.trace) {
    out = per_layer(b, st);
    std::filesystem::create_directories(args.out);
    b.tr.write_chrome(args.out + "/" + args.workload + ".trace.json", metrics_json(out));
  }
  // The timings and the per-program rows behind their geomeans, for the
  // record (stderr).
  std::fprintf(stderr, "%-24s %12s %12s %12s %8s %12s %14s\n", "program", "compile_ms",
               "exec_ms", "exec_par_ms", "instrs", "T", "W");
  for (std::size_t i = 0; i < b.programs.size(); ++i) {
    const Program& p = b.programs[i];
    Cost cost;
    for (const Request& r : b.requests) {
      if (r.program == i) cost += r.cost;
    }
    std::fprintf(stderr, "%-24s %12.3f %12.4f %12.4f %8zu %12llu %14llu\n", p.name.c_str(),
                 median(p.compile_ms), median(p.exec_ms), median(p.exec_par_ms),
                 p.compiled->unit.code.size() + p.compiled->batch.code.size(),
                 static_cast<unsigned long long>(cost.time),
                 static_cast<unsigned long long>(cost.work));
  }
  std::fprintf(stderr, "rounds %llu, timings %s\n", static_cast<unsigned long long>(b.rounds),
               metrics_json(timings(b)).c_str());
  // peak_rss_mb is the process's high-water mark after round 1; these show
  // whether set-up or the reference computations could have set it.
  std::fprintf(stderr, "peak_rss_mb after set-up %.3f, before the timed phase %.3f, after round 1 %.3f\n",
               peak_setup_mb, peak_before_timed_mb, b.peak_rss_mb_round1);
  const bool correct = b.check.failures == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": %s}\n",
              correct ? "true" : "false", static_cast<unsigned long long>(b.attempted),
              static_cast<unsigned long long>(b.failed), metrics_json(out).c_str());
  return 0;
}
