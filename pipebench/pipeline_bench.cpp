// The pipeline benchmark: the 14 mini-apps through source -> verdict, and the
// CheckpointEngine through commit -> recover, driven through the library's
// public entry points and measured from outside.
//
//   pipeline_bench --workload paper-text|mctb-reanalyze|ckpt-stream
//                  --seed N --seconds S --trace 0|1 --work-dir DIR
//                  [--spans FILE] [--small]
//   pipeline_bench --calibrate --work-dir DIR [--small]
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same work once
// untraced and once with layer spans, and prints the per-layer metrics. The
// last stdout line is the result object; the `host` and `detail` lines
// before it carry the host fingerprint and the workload-specific figures.
// --calibrate prints the per-app checkpoint traffic that ckpt-stream replays.
// README.md in this directory explains each workload and metric.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <cmath>
#include <filesystem>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/session.hpp"
#include "apps/app.hpp"
#include "ckpt/engine.hpp"
#include "minic/compiler.hpp"
#include "support.hpp"
#include "trace/mctb.hpp"
#include "trace/source.hpp"
#include "trace/writer.hpp"
#include "vm/interp.hpp"
#include "vm/memory.hpp"

namespace fs = std::filesystem;
namespace pb = pipebench;
using namespace ac;

namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool small = false;
  bool calibrate = false;
  std::string work_dir;
  std::string spans_out;
};

int worker_threads() { return static_cast<int>(std::max(1u, std::thread::hardware_concurrency())); }

/// Per-run scratch directory for traces and checkpoint files, removed at
/// exit (error paths included).
class ScratchDir {
 public:
  explicit ScratchDir(std::string path) : path_(std::move(path)) {
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  std::string file(const std::string& name) const { return path_ + "/" + name; }

 private:
  std::string path_;
};

/// Removes the named files when the scope ends, so a failed operation still
/// leaves at most one trace on disk.
struct RemoveOnExit {
  std::vector<std::string> paths;
  ~RemoveOnExit() {
    std::error_code ec;
    for (const auto& p : paths) fs::remove(p, ec);
  }
};

/// Everything a measured pass accumulates; each workload fills its part.
struct Acc {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  int units = 0;                // sweeps (trace workloads) or streams (ckpt-stream)
  std::vector<double> op_ms;    // per-operation caller wait: an app, or a commit
  std::vector<double> rate;     // items per second: of each app, or of each stream
  std::vector<double> sweep_rate;  // trace records per second of each 14-app sweep
  double items = 0;             // trace records, or protected cells committed
  double busy_s = 0;            // operation time the items were processed in
  double op_peak_rss_mib = 0;   // largest app peak of the current sweep (see start_op)
  std::vector<double> sweep_peak_rss_mib;  // op_peak_rss_mib of each sweep
  double stored_bytes = 0;      // trace file bytes, or checkpoint bytes written
  std::uint64_t steps = 0;      // VM steps
  double preprocess_s = 0, dep_s = 0, identify_s = 0;  // Report::timings
  // ckpt-stream
  std::int64_t commits = 0;
  std::vector<double> flush_ms, recover_ms, replay_ms;
  ckpt::EngineStats engine;     // summed over streams

  void fail(const std::string& what) {
    ++failed;
    std::fprintf(stderr, "pipeline_bench: operation failed: %s\n", what.c_str());
  }
};

void add_stats(ckpt::EngineStats& sum, const ckpt::EngineStats& s) {
  sum.checkpoints += s.checkpoints;
  sum.full_checkpoints += s.full_checkpoints;
  sum.delta_checkpoints += s.delta_checkpoints;
  sum.cells_captured += s.cells_captured;
  sum.l1_bytes += s.l1_bytes;
  sum.l2_bytes += s.l2_bytes;
  sum.l3_bytes += s.l3_bytes;
  sum.payload_raw_bytes += s.payload_raw_bytes;
  sum.payload_encoded_bytes += s.payload_encoded_bytes;
  sum.async_stalls += s.async_stalls;
}

double per(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Self time of `layer` in a per-layer map (0 when the layer did not run).
double layer_ns(const std::map<std::string, double>& self_ns, const char* layer) {
  const auto it = self_ns.find(layer);
  return it == self_ns.end() ? 0.0 : it->second;
}

/// Inputs and figures a workload turns into metrics.
struct LayerView {
  const Acc& acc;
  std::map<std::string, double> pass_ns;   // self ns per layer, traced pass
  std::map<std::string, double> setup_ns;  // self ns per layer, traced set-up
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Build the inputs; called several times, the last result is used.
  virtual void setup(pb::Tracer& t) = 0;
  /// One measured unit: a 14-app sweep or a checkpoint stream.
  virtual void unit(pb::Tracer& t, Acc& acc) = 0;
  /// Minimum sample count reached (besides the time budget).
  virtual bool enough(const Acc&) const { return true; }
  /// The typical operation wait: the median, unless the operations differ
  /// in kind (see TraceWorkload).
  virtual double op_ms(const Acc& acc) const { return pb::median(acc.op_ms); }
  /// The workload's own names for its end-to-end figures (the detail line).
  virtual std::vector<pb::Metric> detail(const Acc& acc) const = 0;
  /// Per-layer figures this workload exercises, by metric name.
  virtual std::map<std::string, double> layers(const LayerView& v) const = 0;
};

// ---------------------------------------------------------------------------
// Trace workloads: the 14 apps, in a seed-drawn order per sweep.
// ---------------------------------------------------------------------------

struct AppCase {
  const apps::App* app = nullptr;
  std::string source;
  analysis::MclRegion region;
};

std::vector<AppCase> app_cases(bool small) {
  std::vector<AppCase> out;
  for (const apps::App& app : apps::registry()) {
    out.push_back({&app, app.source(small ? app.default_params : app.table2_params), app.mcl()});
  }
  return out;
}

bool verdict_matches(const apps::App& app, const analysis::Report& report) {
  std::map<std::string, analysis::DepType> want, got;
  for (const auto& e : app.expected) want[e.name] = e.type;
  for (const auto& cv : report.critical()) got[cv.name] = cv.type;
  return want == got;
}

/// Program-reported phase times. Report::timings folds the source's read
/// time into preprocessing; the benchmark times that read as its own layer.
void add_timings(Acc& acc, const analysis::Report& r, double read_s) {
  acc.preprocess_s += r.timings.preprocessing - read_s;
  acc.dep_s += r.timings.dep_analysis;
  acc.identify_s += r.timings.identify;
}

class TraceWorkload : public Workload {
 public:
  TraceWorkload(const Args& a, const ScratchDir& dir)
      : cases_(app_cases(a.small)), dir_(dir), rng_(a.seed) {}

  /// One sweep: every app once. Each app is one operation, sampled on its
  /// own; the sweep's rate is its records over the sum of its operations.
  void unit(pb::Tracer& t, Acc& acc) override {
    std::vector<std::size_t> order(cases_.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng_.shuffle(order);
    const double busy0 = acc.busy_s;
    const double items0 = acc.items;
    for (const std::size_t i : order) run_app(cases_[i], t, acc);
    acc.sweep_rate.push_back(per(acc.items - items0, acc.busy_s - busy0));
    acc.sweep_peak_rss_mib.push_back(acc.op_peak_rss_mib);
    acc.op_peak_rss_mib = 0;
    ++acc.units;
  }

  std::vector<pb::Metric> detail(const Acc& a) const override {
    return {{"records_per_s", pb::median(a.sweep_rate), "1/s"}};
  }

  /// The geometric mean over app operations. The apps' times span two
  /// orders of magnitude, and the median falls between two of them, so it
  /// jumps when they trade places; the geometric mean weighs every app the
  /// same and averages their jitter.
  double op_ms(const Acc& acc) const override { return pb::geomean(acc.op_ms); }

  std::map<std::string, double> layers(const LayerView& v) const override {
    const Acc& a = v.acc;
    const double sweeps = std::max(1, a.units);
    return {
        {"analysis.session_ns_per_record", per(layer_ns(v.pass_ns, "analysis.session"), a.items)},
        {"analysis.preprocess_ms", a.preprocess_s * 1e3 / sweeps},
        {"analysis.dep_analysis_ms", a.dep_s * 1e3 / sweeps},
        {"analysis.identify_ms", a.identify_s * 1e3 / sweeps},
    };
  }

 protected:
  virtual void run_app(const AppCase& c, pb::Tracer& t, Acc& acc) = 0;

  /// Restart the peak-RSS watermark before an operation. An operation's
  /// peak is the process's resident size before the first operation plus
  /// this operation's growth — the peak of a fresh tool process per app, as
  /// in the paper's workflow. Neither the app order (heap residue) nor the
  /// benchmark's own cross-check moves it.
  void start_op(pb::Tracer& t, const std::string& name) {
    pb::Scope s(t, "bench.rss", name);
    pb::reset_peak_rss();
    op_rss0_ = pb::rss_mib();
    if (base_rss_ < 0) base_rss_ = op_rss0_;
  }
  void end_op(Acc& acc) const {
    acc.op_peak_rss_mib =
        std::max(acc.op_peak_rss_mib, base_rss_ + pb::peak_rss_mib() - op_rss0_);
  }
  /// Book one completed operation's records and time.
  static void add_op(Acc& acc, std::uint64_t records, double op_s) {
    acc.items += static_cast<double>(records);
    acc.busy_s += op_s;
    acc.op_ms.push_back(op_s * 1e3);
    acc.rate.push_back(per(static_cast<double>(records), op_s));
  }

  std::vector<AppCase> cases_;
  const ScratchDir& dir_;
  pb::Rng rng_;

 private:
  double base_rss_ = -1;
  double op_rss0_ = 0;
};

/// paper-text: the paper's workflow with the tool's defaults — compile, run
/// the VM into the LLVM-Tracer text sink, parse the file back serially,
/// analyze with one thread. Each app's report is also re-derived through an
/// MCTB container on the parallel path and must match byte for byte.
class PaperText final : public TraceWorkload {
 public:
  using TraceWorkload::TraceWorkload;

  void setup(pb::Tracer&) override {
    // Everything per app happens inside the operation; set-up only proves
    // each instantiated source compiles.
    for (const AppCase& c : cases_) (void)minic::compile(c.source);
  }

  std::map<std::string, double> layers(const LayerView& v) const override {
    auto out = TraceWorkload::layers(v);
    const Acc& a = v.acc;
    auto ns = [&](const char* layer) { return layer_ns(v.pass_ns, layer); };
    out["minic.compile_ms"] = ns("minic.compile") / 1e6 / std::max(1, a.units);
    out["vm.steps"] = per(static_cast<double>(a.steps), std::max(1, a.units));
    out["vm.interpret_ns_per_step"] = per(ns("vm.run"), static_cast<double>(a.steps));
    out["trace.text_emit_ns_per_record"] = per(ns("trace.text_emit"), a.items);
    out["trace.text_bytes_per_record"] = per(a.stored_bytes, a.items);
    out["trace.text_parse_ns_per_record"] = per(ns("trace.text_parse"), a.items);
    return out;
  }

 private:
  void run_app(const AppCase& c, pb::Tracer& t, Acc& acc) override {
    const std::string& name = c.app->name;
    const std::string text_path = dir_.file(name + ".trace");
    const std::string mctb_path = dir_.file(name + ".mctb");
    RemoveOnExit cleanup{{text_path, mctb_path}};
    ++acc.attempted;
    try {
      start_op(t, name);
      const std::uint64_t t0 = pb::now_ns();
      ir::Module module;
      {
        pb::Scope s(t, "minic.compile", name);
        module = minic::compile(c.source);
      }
      std::unique_ptr<trace::TraceSink> sink;
      {
        pb::Scope s(t, "trace.text_emit", name);
        sink = trace::make_file_sink(trace::TraceFormat::Text, text_path);
      }
      vm::RunResult run;
      {
        pb::Scope s(t, "vm.run", name);
        pb::TimedSink timed(*sink);
        vm::RunOptions ropts;
        ropts.sink = t.on() ? static_cast<trace::TraceSink*>(&timed) : sink.get();
        run = vm::run_module(module, ropts);
        t.add_aggregate("trace.text_emit", s.id(), timed.ns());
      }
      {
        pb::Scope s(t, "trace.text_emit", name);
        sink->close();
      }
      auto src = std::make_shared<trace::FileSource>(text_path, 1);
      {
        pb::Scope s(t, "trace.text_parse", name);
        src->buffer();
      }
      analysis::Report report;
      {
        pb::Scope s(t, "analysis.session", name);
        report = analysis::Session().source(src).region(c.region).options({.threads = 1}).run();
      }
      bool ok = false;
      std::string json;
      {
        pb::Scope s(t, "bench.verify", name);
        ok = verdict_matches(*c.app, report);
        json = report.to_json(false);
      }
      const double op_s = static_cast<double>(pb::now_ns() - t0) * 1e-9;
      end_op(acc);
      const double read_s = src->read_seconds();

      bool same = false;
      {
        // Not part of the operation's time: the same trace as an MCTB
        // container, decoded and analyzed on nproc threads.
        pb::Scope s(t, "bench.crosscheck", name);
        trace::write_mctb_file(src->buffer(), mctb_path);
        src.reset();
        const int n = worker_threads();
        auto msrc = std::make_shared<trace::FileSource>(mctb_path, n);
        const analysis::Report r2 =
            analysis::Session().source(msrc).region(c.region).options({.threads = n}).run();
        same = r2.to_json(false) == json;
      }
      {
        pb::Scope s(t, "bench.cleanup", name);
        std::error_code ec;
        fs::remove(text_path, ec);
        fs::remove(mctb_path, ec);
      }

      add_op(acc, sink->count(), op_s);
      acc.steps += run.steps;
      acc.stored_bytes += static_cast<double>(sink->bytes());
      add_timings(acc, report, read_s);
      if (!ok || !same) {
        acc.fail(name + (ok ? ": text/serial and MCTB/parallel reports differ"
                            : ": verdict differs from Table II"));
      }
    } catch (const std::exception& e) {
      acc.fail(name + ": " + e.what());
    }
  }
};

/// mctb-reanalyze: traces already on disk as MCTB containers, re-analyzed on
/// the parallel path. The VM and the encoder run only in set-up.
class MctbReanalyze final : public TraceWorkload {
 public:
  using TraceWorkload::TraceWorkload;

  void setup(pb::Tracer& t) override {
    setup_steps_ = 0;
    setup_records_ = 0;
    for (const AppCase& c : cases_) {
      const std::string& name = c.app->name;
      ir::Module module;
      {
        pb::Scope s(t, "minic.compile", name);
        module = minic::compile(c.source);
      }
      const auto sink = trace::make_file_sink(trace::TraceFormat::Mctb, path(c));
      {
        pb::Scope s(t, "vm.run", name);
        pb::TimedSink timed(*sink);
        vm::RunOptions ropts;
        ropts.sink = t.on() ? static_cast<trace::TraceSink*>(&timed) : sink.get();
        setup_steps_ += vm::run_module(module, ropts).steps;
        t.add_aggregate("trace.mctb_append", s.id(), timed.ns());
      }
      {
        pb::Scope s(t, "trace.mctb_encode", name);
        sink->close();
      }
      setup_records_ += sink->count();
    }
  }

  std::map<std::string, double> layers(const LayerView& v) const override {
    auto out = TraceWorkload::layers(v);
    const Acc& a = v.acc;
    // VM and encode figures come from set-up, where this workload runs them.
    out["minic.compile_ms"] = layer_ns(v.setup_ns, "minic.compile") / 1e6;
    out["vm.steps"] = static_cast<double>(setup_steps_);
    out["vm.interpret_ns_per_step"] =
        per(layer_ns(v.setup_ns, "vm.run"), static_cast<double>(setup_steps_));
    out["trace.mctb_encode_ns_per_record"] =
        per(layer_ns(v.setup_ns, "trace.mctb_encode"), static_cast<double>(setup_records_));
    out["trace.mctb_decode_ns_per_record"] = per(layer_ns(v.pass_ns, "trace.mctb_decode"), a.items);
    out["trace.mctb_bytes_per_record"] = per(a.stored_bytes, a.items);
    return out;
  }

 private:
  std::string path(const AppCase& c) const { return dir_.file(c.app->name + ".mctb"); }

  void run_app(const AppCase& c, pb::Tracer& t, Acc& acc) override {
    const std::string& name = c.app->name;
    const int n = worker_threads();
    ++acc.attempted;
    try {
      start_op(t, name);
      const std::uint64_t t0 = pb::now_ns();
      auto src = std::make_shared<trace::FileSource>(path(c), n);
      {
        pb::Scope s(t, "trace.mctb_decode", name);
        src->buffer();
      }
      analysis::Report report;
      {
        pb::Scope s(t, "analysis.session", name);
        report = analysis::Session().source(src).region(c.region).options({.threads = n}).run();
      }
      bool ok = false;
      bool same = false;
      {
        pb::Scope s(t, "bench.verify", name);
        ok = verdict_matches(*c.app, report);
        std::string json = report.to_json(false);
        const auto [it, fresh] = first_json_.emplace(name, json);
        same = fresh || it->second == json;
      }
      const double op_s = static_cast<double>(pb::now_ns() - t0) * 1e-9;
      end_op(acc);
      const std::uint64_t records = src->record_count();
      const double read_s = src->read_seconds();
      {
        pb::Scope s(t, "bench.cleanup", name);
        src.reset();
      }
      add_op(acc, records, op_s);
      acc.stored_bytes += static_cast<double>(fs::file_size(path(c)));
      add_timings(acc, report, read_s);
      if (!ok || !same) {
        acc.fail(name + (ok ? ": report bytes changed between sweeps"
                            : ": verdict differs from Table II"));
      }
    } catch (const std::exception& e) {
      acc.fail(name + ": " + e.what());
    }
  }

  std::uint64_t setup_steps_ = 0;
  std::uint64_t setup_records_ = 0;
  std::map<std::string, std::string> first_json_;  // per app, from the first sweep
};

// ---------------------------------------------------------------------------
// ckpt-stream: the 14 apps' real checkpoint traffic, replayed at scale.
// ---------------------------------------------------------------------------

/// One app's checkpoint traffic, recorded from a real run with its Table II
/// critical set protected: the protected state at every commit, and the
/// cells the engine captured at each commit (cells written since the last
/// one, whether or not their bits changed).
struct AppTraffic {
  const apps::App* app = nullptr;
  std::vector<ckpt::CheckpointImage> states;
  std::vector<std::uint64_t> captured;

  std::uint64_t cells() const {
    std::uint64_t n = 0;
    for (const auto& v : states.front().vars()) n += v.cells.size();
    return n;
  }
};

AppTraffic record_traffic(const apps::App& app, bool small, const std::string& dir) {
  AppTraffic out;
  out.app = &app;
  const ir::Module module =
      minic::compile(app.source(small ? app.default_params : app.table2_params));
  const analysis::MclRegion region = app.mcl();
  ckpt::EngineConfig cfg;
  cfg.dir = dir;
  cfg.tag = app.name;
  cfg.full_every = 1 << 30;  // one base, then deltas only
  cfg.async = false;
  cfg.fsync_commits = false;
  fs::create_directories(dir);
  ckpt::CheckpointEngine engine(cfg);
  engine.reset();
  vm::RunOptions ropts;
  ropts.mcl = vm::MclRegion{region.function, region.begin_line, region.end_line};
  ropts.engine = &engine;
  for (const auto& e : app.expected) {
    engine.protect(e.name);
    ropts.protect.push_back(e.name);
  }
  // on_checkpoint sees each boundary's image just before the engine commits
  // it, so the engine's running count there covers the earlier commits.
  std::vector<std::uint64_t> count{0};
  ropts.on_checkpoint = [&](const ckpt::CheckpointImage& img) {
    if (!out.states.empty()) count.push_back(engine.stats().cells_captured);
    out.states.push_back(img);
  };
  vm::run_module(module, ropts);
  engine.flush();
  count.push_back(engine.stats().cells_captured);
  engine.reset();
  for (std::size_t k = 1; k < count.size(); ++k) out.captured.push_back(count[k] - count[k - 1]);
  if (out.states.size() < 2 || out.captured.size() != out.states.size()) {
    throw std::runtime_error(app.name + ": recorded commits do not match its loop iterations");
  }
  return out;
}

/// Replays one app's traffic over `copies` side-by-side copies of each of its
/// protected variables. Every copy walks the recorded states forward and back
/// (0, 1, ..., n-1, n-2, ..., 1, 0, 1, ...) from its own phase, so each step
/// writes exactly the cells the engine captured at one real commit, with that
/// commit's values (or the step's reverse). The cells written with unchanged
/// bits are taken in variable order from the cells the step leaves alone. A
/// copy scales its floats and offsets its integers by its own constants: the
/// copies share the app's structure but not its bytes, so no codec stage can
/// match one copy against another.
class Replay {
 public:
  Replay(AppTraffic traffic, std::uint64_t copies, pb::Rng& rng, vm::Arena& arena,
         std::vector<ckpt::ProtectedRegion>& regions)
      : t_(std::move(traffic)), period_(2 * (t_.states.size() - 1)) {
    const auto& first = t_.states.front().vars();
    for (const auto& v : first) {
      const std::uint64_t bytes = copies * v.cells.size() * vm::kCellBytes;
      base_.push_back(arena.alloc_global(bytes));
      regions.push_back({t_.app->name + "." + v.name, base_.back(), bytes});
    }
    for (std::uint64_t c = 0; c < copies; ++c) {
      copies_.push_back({rng.below(period_), 1.0 + rng.unit(), rng.below(1u << 16)});
    }
    build_steps();
    for (std::uint64_t c = 0; c < copies; ++c) {
      const Copy& cp = copies_[c];
      const auto& vars = t_.states[state_at(cp.phase)].vars();
      for (std::size_t v = 0; v < vars.size(); ++v) {
        for (std::size_t k = 0; k < vars[v].cells.size(); ++k) {
          write(arena, c, v, k, vars[v].cells[k]);
        }
      }
    }
  }

  /// Write stream iteration `g` (g >= 1) into the arena.
  void step(vm::Arena& arena, std::uint64_t g) const {
    for (std::uint64_t c = 0; c < copies_.size(); ++c) {
      const std::uint64_t s = copies_[c].phase + g;
      const std::uint64_t from = state_at(s - 1), to = state_at(s);
      const auto& vars = t_.states[to].vars();
      const auto& writes = steps_[std::min(from, to)];
      for (std::size_t v = 0; v < vars.size(); ++v) {
        for (const std::uint32_t k : writes[v]) write(arena, c, v, k, vars[v].cells[k]);
      }
    }
  }

 private:
  struct Copy {
    std::uint64_t phase;
    double scale;
    std::uint64_t offset;
  };

  /// State index at position `s` of the forward-and-back walk.
  std::uint64_t state_at(std::uint64_t s) const {
    s %= period_;
    return s < t_.states.size() ? s : period_ - s;
  }

  /// steps_[k][v]: the cells of variable v written between states k and k+1.
  void build_steps() {
    const std::size_t nvars = t_.states.front().vars().size();
    for (std::size_t k = 0; k + 1 < t_.states.size(); ++k) {
      const auto& a = t_.states[k].vars();
      const auto& b = t_.states[k + 1].vars();
      std::vector<std::vector<std::uint32_t>> writes(nvars);
      std::uint64_t n = 0;
      for (std::size_t v = 0; v < nvars; ++v) {
        for (std::uint32_t i = 0; i < b[v].cells.size(); ++i) {
          if (!(a[v].cells[i] == b[v].cells[i])) writes[v].push_back(i), ++n;
        }
      }
      std::uint64_t fill = t_.captured[k + 1] > n ? t_.captured[k + 1] - n : 0;
      for (std::size_t v = 0; v < nvars && fill > 0; ++v) {
        std::vector<std::uint32_t> merged;
        std::size_t j = 0;
        for (std::uint32_t i = 0; i < b[v].cells.size(); ++i) {
          if (j < writes[v].size() && writes[v][j] == i) {
            ++j;
          } else if (fill > 0) {
            --fill;
          } else {
            continue;
          }
          merged.push_back(i);
        }
        writes[v] = std::move(merged);
      }
      steps_.push_back(std::move(writes));
    }
  }

  void write(vm::Arena& arena, std::uint64_t c, std::size_t v, std::size_t k,
             const ckpt::Cell& cell) const {
    const Copy& cp = copies_[c];
    const std::uint64_t len = t_.states.front().vars()[v].cells.size();
    vm::Arena::RawCell raw{cell.payload, static_cast<trace::ValueKind>(cell.kind)};
    if (raw.kind == trace::ValueKind::Float) {
      double x = 0;
      std::memcpy(&x, &raw.payload, sizeof x);
      x *= cp.scale;
      std::memcpy(&raw.payload, &x, sizeof x);
    } else if (raw.kind == trace::ValueKind::Int) {
      raw.payload += cp.offset;
    }
    arena.write_raw(base_[v] + (c * len + k) * vm::kCellBytes, raw);
  }

  AppTraffic t_;
  std::uint64_t period_;
  std::vector<std::uint64_t> base_;  // arena address of each variable's copies
  std::vector<Copy> copies_;
  std::vector<std::vector<std::vector<std::uint32_t>>> steps_;
};

constexpr int kStreamCommits = 40;
constexpr std::int64_t kMinCommitSamples = 200;  // >= 10 samples beyond p95

class CkptStream final : public Workload {
 public:
  CkptStream(const Args& a, const ScratchDir& dir)
      : rng_(a.seed),
        small_(a.small),
        target_cells_(a.small ? (1u << 15) : (1u << 18)),
        dir_(dir) {}

  void setup(pb::Tracer& t) override {
    // Record the 14 apps' traffic, then tile it to target_cells_ protected
    // cells (2 MiB; 256 KiB with --small), an equal share per app. The seed
    // draws each copy's phase and constants; the mix stays fixed, so the
    // stored bytes per cell barely move from seed to seed.
    std::vector<AppTraffic> traffic;
    for (const apps::App& app : apps::registry()) {
      pb::Scope s(t, "bench.record", app.name);
      traffic.push_back(record_traffic(app, small_, dir_.file("record")));
    }
    pb::Rng gen = rng_;  // every set-up builds the same state
    arena_ = std::make_unique<vm::Arena>();
    regions_.clear();
    replays_.clear();
    total_cells_ = 0;
    for (std::size_t i = 0; i < traffic.size(); ++i) {
      const std::uint64_t cells = traffic[i].cells();
      const std::uint64_t copies =
          std::max<std::uint64_t>(1, target_cells_ / traffic.size() / cells);
      total_cells_ += copies * cells;
      replays_.emplace_back(std::move(traffic[i]), copies, gen, *arena_, regions_);
    }
    iteration_ = 0;
    cfg_ = ckpt::EngineConfig{};
    cfg_.dir = dir_.file("local");
    cfg_.partner_dir = dir_.file("partner");
    cfg_.tag = "stream";
    cfg_.level = ckpt::EngineLevel::L3;
    cfg_.incremental = true;
    cfg_.full_every = 8;
    cfg_.async = true;
    cfg_.fsync_commits = true;
    cfg_.l1_codec = ckpt::CodecChain::parse("rle");
    cfg_.l2_codec = ckpt::CodecChain::parse("rle");
    cfg_.l3_codec = ckpt::CodecChain::parse("xor+rle+lz");
    fs::create_directories(cfg_.dir);
    fs::create_directories(cfg_.partner_dir);
  }

  void unit(pb::Tracer& t, Acc& acc) override {
    const std::string sreq = "stream:" + std::to_string(acc.units);
    const std::uint64_t t0 = pb::now_ns();
    std::unique_ptr<ckpt::CheckpointEngine> engine;
    {
      pb::Scope s(t, "ckpt.open", sreq);
      engine = std::make_unique<ckpt::CheckpointEngine>(cfg_);
      engine->reset();
    }
    bool stream_ok = true;
    for (int it = 1; it <= kStreamCommits; ++it) {
      const std::string req = sreq + ".iter:" + std::to_string(it);
      {
        pb::Scope s(t, "bench.replay", req);
        const std::uint64_t m0 = pb::now_ns();
        ++iteration_;
        for (const Replay& r : replays_) r.step(*arena_, iteration_);
        acc.replay_ms.push_back(static_cast<double>(pb::now_ns() - m0) * 1e-6);
      }
      ++acc.attempted;
      pb::Scope s(t, "ckpt.commit", req);
      const std::uint64_t c0 = pb::now_ns();
      try {
        engine->on_iteration(it, *arena_, regions_);
      } catch (const std::exception& e) {
        acc.fail(req + ": " + e.what());
        stream_ok = false;
      }
      acc.op_ms.push_back(static_cast<double>(pb::now_ns() - c0) * 1e-6);
    }
    {
      pb::Scope s(t, "ckpt.flush", sreq);
      const std::uint64_t f0 = pb::now_ns();
      try {
        engine->flush();
      } catch (const std::exception& e) {
        acc.fail(sreq + " flush: " + e.what());
        stream_ok = false;
      }
      acc.flush_ms.push_back(static_cast<double>(pb::now_ns() - f0) * 1e-6);
    }
    const double stream_s = static_cast<double>(pb::now_ns() - t0) * 1e-9;
    const ckpt::EngineStats st = engine->stats();

    ckpt::CheckpointImage expect;
    {
      pb::Scope s(t, "bench.snapshot", sreq);
      expect = own_snapshot(kStreamCommits);
    }
    ++acc.attempted;
    try {
      ckpt::CheckpointImage got;
      {
        pb::Scope s(t, "ckpt.recover", sreq);
        const std::uint64_t r0 = pb::now_ns();
        const ckpt::CheckpointEngine fresh(cfg_);
        got = fresh.recover();
        acc.recover_ms.push_back(static_cast<double>(pb::now_ns() - r0) * 1e-6);
      }
      pb::Scope s(t, "bench.verify", sreq);
      if (!stream_ok || !(got == expect)) acc.fail(sreq + ": recovered image is not bit-identical");
    } catch (const std::exception& e) {
      acc.fail(sreq + " recover: " + e.what());
    }
    {
      pb::Scope s(t, "bench.cleanup", sreq);
      engine->reset();
      engine.reset();
    }
    acc.commits += st.checkpoints;
    acc.items += static_cast<double>(st.checkpoints) * static_cast<double>(total_cells_);
    acc.busy_s += stream_s;
    acc.rate.push_back(
        per(static_cast<double>(st.checkpoints) * static_cast<double>(total_cells_), stream_s));
    acc.stored_bytes += static_cast<double>(st.total_bytes());
    add_stats(acc.engine, st);
    ++acc.units;
  }

  bool enough(const Acc& a) const override { return a.commits >= kMinCommitSamples; }

  std::vector<pb::Metric> detail(const Acc& a) const override {
    return {
        {"commit_ms_p50", pb::quantile(a.op_ms, 0.50), "ms"},
        {"commit_ms_p95", pb::quantile(a.op_ms, 0.95), "ms"},
        {"commit_samples", static_cast<double>(a.op_ms.size()), "count"},
        {"ckpt_mb_per_s", pb::median(a.rate) * vm::kCellBytes / 1048576.0, "MiB/s"},
        {"recover_s", pb::median(a.recover_ms) * 1e-3, "s"},
        {"stored_bytes_per_commit", per(a.stored_bytes, static_cast<double>(a.commits)), "B"},
    };
  }

  std::map<std::string, double> layers(const LayerView& v) const override {
    const Acc& a = v.acc;
    const ckpt::EngineStats& s = a.engine;
    const double commits = static_cast<double>(s.checkpoints);
    return {
        {"ckpt.commit_ms_p95", pb::quantile(a.op_ms, 0.95)},
        {"ckpt.cells_per_commit", per(static_cast<double>(s.cells_captured), commits)},
        {"ckpt.delta_share", per(static_cast<double>(s.delta_checkpoints), commits)},
        {"ckpt.async_stalls", per(static_cast<double>(s.async_stalls), std::max(1, a.units))},
        {"ckpt.flush_ms", pb::median(a.flush_ms)},
        {"ckpt.recover_ms", pb::median(a.recover_ms)},
        {"ckpt.payload_ratio", per(static_cast<double>(s.payload_encoded_bytes),
                                   static_cast<double>(s.payload_raw_bytes))},
        {"ckpt.l1_bytes_per_commit", per(static_cast<double>(s.l1_bytes), commits)},
        {"ckpt.l2_bytes_per_commit", per(static_cast<double>(s.l2_bytes), commits)},
        {"ckpt.l3_bytes_per_commit", per(static_cast<double>(s.l3_bytes), commits)},
        {"bench.replay_ms", pb::median(a.replay_ms)},
    };
  }

 private:
  /// The benchmark's own copy of the protected state, cell by cell.
  ckpt::CheckpointImage own_snapshot(std::int64_t iteration) const {
    ckpt::CheckpointImage img;
    for (const auto& reg : regions_) {
      std::vector<ckpt::Cell> cells(reg.bytes / vm::kCellBytes);
      for (std::size_t k = 0; k < cells.size(); ++k) {
        const vm::Arena::RawCell raw = arena_->read_raw(reg.addr + k * vm::kCellBytes);
        cells[k] = {raw.payload, static_cast<std::uint8_t>(raw.kind)};
      }
      img.add(reg.name, std::move(cells));
    }
    img.set_iteration(iteration);
    return img;
  }

  pb::Rng rng_;
  bool small_;
  std::uint64_t target_cells_;
  std::uint64_t total_cells_ = 0;
  const ScratchDir& dir_;
  std::unique_ptr<vm::Arena> arena_;
  std::vector<ckpt::ProtectedRegion> regions_;
  std::vector<Replay> replays_;
  std::uint64_t iteration_ = 0;  // replay position, continued across streams
  ckpt::EngineConfig cfg_;
};

// ---------------------------------------------------------------------------
// --calibrate: the recorded traffic, summarized
// ---------------------------------------------------------------------------

/// Records every app's traffic and prints, per app, what the replay
/// reproduces: critical variables, protected cells, commits, the share of
/// cells the engine
/// captures per delta commit, the share whose bits changed, the share of
/// changed cells that are floats, their median relative change, and the mean
/// length of a run of changed cells. The last row weights the apps by cells.
int calibrate(const Args& a) {
  const ScratchDir dir(a.work_dir);
  std::printf("%-8s %4s %7s %7s %7s %7s %7s %9s %7s\n", "app", "vars", "cells", "commits",
              "dirty", "changed", "float", "drift_p50", "run_len");
  double all_vars = 0, all_cells = 0, all_dirty = 0, all_changed = 0;
  for (const apps::App& app : apps::registry()) {
    const AppTraffic t = record_traffic(app, a.small, dir.file("record"));
    const double cells = static_cast<double>(t.cells());
    const double deltas = static_cast<double>(t.states.size() - 1);
    double dirty = 0, changed = 0, floats = 0, runs = 0;
    std::vector<double> drift;
    for (std::size_t k = 1; k < t.states.size(); ++k) {
      dirty += static_cast<double>(t.captured[k]);
      for (std::size_t v = 0; v < t.states[k].vars().size(); ++v) {
        const auto& now = t.states[k].vars()[v].cells;
        const auto& was = t.states[k - 1].vars()[v].cells;
        bool in_run = false;
        for (std::size_t i = 0; i < now.size(); ++i) {
          const bool diff = !(now[i] == was[i]);
          runs += diff && !in_run;
          in_run = diff;
          if (!diff) continue;
          ++changed;
          if (now[i].kind != static_cast<std::uint8_t>(trace::ValueKind::Float)) continue;
          ++floats;
          double x = 0, y = 0;
          std::memcpy(&x, &was[i].payload, sizeof x);
          std::memcpy(&y, &now[i].payload, sizeof y);
          if (x != 0) drift.push_back(std::abs(y - x) / std::abs(x));
        }
      }
    }
    const std::size_t vars = t.states.front().vars().size();
    std::printf("%-8s %4zu %7.0f %7zu %7.4f %7.4f %7.4f %9.3g %7.1f\n", app.name.c_str(), vars,
                cells, t.states.size(), dirty / (deltas * cells), changed / (deltas * cells),
                per(floats, changed), pb::median(drift), per(changed, runs));
    all_vars += static_cast<double>(vars);
    all_cells += cells;
    all_dirty += dirty / deltas;
    all_changed += changed / deltas;
  }
  std::printf("%-8s %4.0f %7.0f %7s %7.4f %7.4f\n", "suite", all_vars, all_cells, "",
              all_dirty / all_cells, all_changed / all_cells);
  return 0;
}

// ---------------------------------------------------------------------------
// Running a workload
// ---------------------------------------------------------------------------

const std::vector<std::pair<const char*, const char*>>& layer_metric_units() {
  static const std::vector<std::pair<const char*, const char*>> units = {
      {"minic.compile_ms", "ms"},
      {"vm.steps", "count"},
      {"vm.interpret_ns_per_step", "ns/step"},
      {"trace.text_emit_ns_per_record", "ns/record"},
      {"trace.text_bytes_per_record", "B/record"},
      {"trace.text_parse_ns_per_record", "ns/record"},
      {"trace.mctb_encode_ns_per_record", "ns/record"},
      {"trace.mctb_decode_ns_per_record", "ns/record"},
      {"trace.mctb_bytes_per_record", "B/record"},
      {"analysis.session_ns_per_record", "ns/record"},
      {"analysis.preprocess_ms", "ms"},
      {"analysis.dep_analysis_ms", "ms"},
      {"analysis.identify_ms", "ms"},
      {"ckpt.commit_ms_p95", "ms"},
      {"ckpt.cells_per_commit", "count"},
      {"ckpt.delta_share", "share"},
      {"ckpt.async_stalls", "count"},
      {"ckpt.flush_ms", "ms"},
      {"ckpt.recover_ms", "ms"},
      {"ckpt.payload_ratio", "ratio"},
      {"ckpt.l1_bytes_per_commit", "B/commit"},
      {"ckpt.l2_bytes_per_commit", "B/commit"},
      {"ckpt.l3_bytes_per_commit", "B/commit"},
      {"bench.replay_ms", "ms"},
      {"unattributed_share", "share"},
      {"trace_overhead_share", "share"},
  };
  return units;
}

struct Pass {
  Acc acc;
  double wall_s = 0;
  std::uint64_t start_ns = 0, end_ns = 0;
};

/// Run units until `seconds` have passed and the workload has its samples;
/// `units > 0` runs exactly that many instead.
Pass run_pass(Workload& w, pb::Tracer& t, double seconds, int units) {
  Pass p;
  p.start_ns = pb::now_ns();
  auto elapsed = [&] { return static_cast<double>(pb::now_ns() - p.start_ns) * 1e-9; };
  while (units > 0 ? p.acc.units < units
                   : (p.acc.units == 0 || elapsed() < seconds || !w.enough(p.acc))) {
    w.unit(t, p.acc);
  }
  p.end_ns = pb::now_ns();
  p.wall_s = static_cast<double>(p.end_ns - p.start_ns) * 1e-9;
  return p;
}

void usage() {
  std::fprintf(stderr,
               "usage: pipeline_bench --workload paper-text|mctb-reanalyze|ckpt-stream "
               "--seed N --seconds S --trace 0|1 --work-dir DIR [--spans FILE] [--small]\n"
               "       pipeline_bench --calibrate --work-dir DIR [--small]\n");
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto val = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (k == "--small") {
      a.small = true;
    } else if (k == "--calibrate") {
      a.calibrate = true;
    } else if (!(v = val())) {
      return false;
    } else if (k == "--workload") {
      a.workload = v;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (k == "--trace") {
      a.trace = std::strcmp(v, "0") != 0;
    } else if (k == "--work-dir") {
      a.work_dir = v;
    } else if (k == "--spans") {
      a.spans_out = v;
    } else {
      return false;
    }
  }
  return (a.calibrate || !a.workload.empty()) && !a.work_dir.empty() && a.seconds > 0;
}

std::unique_ptr<Workload> make_workload(const Args& a, const ScratchDir& dir) {
  if (a.workload == "paper-text") return std::make_unique<PaperText>(a, dir);
  if (a.workload == "mctb-reanalyze") return std::make_unique<MctbReanalyze>(a, dir);
  if (a.workload == "ckpt-stream") return std::make_unique<CkptStream>(a, dir);
  return nullptr;
}

int run(const Args& a) {
  const ScratchDir dir(a.work_dir);
  const std::unique_ptr<Workload> w = make_workload(a, dir);
  if (!w) {
    usage();
    return 2;
  }
  std::printf("host %s\n", pb::host_fingerprint_json().c_str());
  std::fflush(stdout);

  // Set-up at least 3 times and for at least 2 s; the median is setup_s and
  // the last one is kept. The time floor lets a millisecond set-up sample
  // more than one phase of the host's speed swings. The traced run sets up
  // once, with spans (the VM of mctb-reanalyze and ckpt-stream runs there).
  pb::Tracer setup_tracer(a.trace);
  std::vector<double> setup_s;
  const std::uint64_t setup0 = pb::now_ns();
  do {
    const std::uint64_t t0 = pb::now_ns();
    w->setup(setup_tracer);
    setup_s.push_back(static_cast<double>(pb::now_ns() - t0) * 1e-9);
  } while (!a.trace && (setup_s.size() < 3 || pb::now_ns() - setup0 < 2'000'000'000ull));
  pb::reset_peak_rss();

  pb::Tracer off(false);
  Pass plain = run_pass(*w, off, a.seconds, 0);
  std::vector<pb::Metric> metrics;
  Acc* counted = &plain.acc;
  Pass traced;
  if (!a.trace) {
    const Acc& acc = plain.acc;
    const double rss = acc.sweep_peak_rss_mib.empty() ? pb::peak_rss_mib()
                                                      : pb::median(acc.sweep_peak_rss_mib);
    metrics = {
        {"setup_s", pb::median(setup_s), "s"},
        {"peak_rss_mb", rss, "MiB"},
        {"items_per_s", pb::median(acc.rate), "1/s"},
        {"op_ms", w->op_ms(acc), "ms"},
        {"stored_bytes_per_item", per(acc.stored_bytes, acc.items), "B"},
    };
    std::vector<pb::Metric> detail = w->detail(acc);
    detail.push_back({"peak_rss_mb", rss, "MiB"});
    detail.push_back({"setup_s", pb::median(setup_s), "s"});
    detail.push_back(
        {"failed_share", per(static_cast<double>(acc.failed), static_cast<double>(acc.attempted)),
         "share"});
    std::string line;
    ac::JsonWriter jw(&line);
    jw.begin_object()
        .field("workload", std::string_view(a.workload))
        .field("seed", a.seed)
        .field("units", acc.units)
        .key("metrics");
    pb::write_metrics(jw, detail);
    jw.end_object();
    std::printf("detail %s\n", pb::one_line(line).c_str());
  } else {
    // Same work again with spans on: per-layer figures, span coverage of the
    // wall, and the tracing overhead against the untraced pass.
    pb::Tracer tracer(true);
    traced = run_pass(*w, tracer, a.seconds, plain.acc.units);
    counted = &traced.acc;
    LayerView view{traced.acc, tracer.self_ns(), setup_tracer.self_ns()};
    std::map<std::string, double> values = w->layers(view);
    values["unattributed_share"] =
        1.0 - per(tracer.covered_ns(traced.start_ns, traced.end_ns), traced.wall_s * 1e9);
    values["trace_overhead_share"] = per(traced.wall_s, plain.wall_s) - 1.0;
    for (const auto& [name, unit] : layer_metric_units()) {
      const auto it = values.find(name);
      metrics.push_back({name, it == values.end() ? 0.0 : it->second, unit});
    }
    if (!a.spans_out.empty()) {
      if (std::FILE* f = std::fopen(a.spans_out.c_str(), "w")) {
        setup_tracer.write_jsonl(f, "setup");
        tracer.write_jsonl(f, "measure");
        std::fclose(f);
      }
    }
  }

  const std::uint64_t attempted = plain.acc.attempted + (a.trace ? counted->attempted : 0);
  const std::uint64_t failed = plain.acc.failed + (a.trace ? counted->failed : 0);
  std::string result;
  ac::JsonWriter jw(&result);
  jw.begin_object()
      .field("correct", failed == 0)
      .field("attempted", attempted)
      .field("failed", failed)
      .key("metrics");
  pb::write_metrics(jw, metrics);
  jw.end_object();
  std::printf("%s\n", pb::one_line(result).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    usage();
    return 2;
  }
  try {
    return a.calibrate ? calibrate(a) : run(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pipeline_bench: %s\n", e.what());
    return 1;
  }
}
