// AutoCheck facade (paper Fig. 2): pre-processing -> data dependency analysis
// -> identification of critical variables, with the per-phase wall-clock
// breakdown that Table III reports.
//
// The entry points below are thin wrappers over the unified pipeline in
// analysis/session.hpp (Session + TraceSource + ReportSink); new code should
// use Session directly — it adds pluggable sources/sinks and the parallel
// trace read behind AnalysisOptions::threads.
#pragma once

#include <string>
#include <vector>

#include "analysis/classify.hpp"
#include "analysis/depanalysis.hpp"
#include "analysis/preprocess.hpp"
#include "analysis/region.hpp"

namespace ac::analysis {

struct AnalysisOptions;  // session.hpp

/// Legacy options, superseded by AnalysisOptions (session.hpp), into which
/// they convert implicitly.
struct AutoCheckOptions {
  MliMode mli_mode = MliMode::AddressResolved;
  bool build_ddg = true;
  /// analyze_file() only: parse the trace with the §V-A OpenMP optimization.
  bool parallel_read = false;
  int read_threads = 0;  // 0 = runtime default; honored with or without parallel_read

  /// Upgrade to the Session pipeline's options (defined in session.cpp).
  operator AnalysisOptions() const;  // NOLINT(google-explicit-constructor)
};

struct Timings {
  double preprocessing = 0;  // trace parse (file path) + partition + MLI
  double dep_analysis = 0;
  double identify = 0;
  double total() const { return preprocessing + dep_analysis + identify; }
};

struct Report {
  MclRegion region;
  PreprocessResult pre;
  DepResult dep;
  ClassifyResult verdicts;
  Ddg contracted;  // Algorithm-1 contraction of dep.complete
  Timings timings;

  const std::vector<CriticalVar>& critical() const { return verdicts.critical; }
  std::vector<std::string> critical_names() const;
  const CriticalVar* find_critical(const std::string& name) const;

  /// Human-readable summary (MLI set, verdicts, timings).
  std::string render() const;

  /// Machine-readable report (region, MLI set, verdicts, timings, stats) —
  /// what downstream C/R tooling consumes to emit Protect() calls. Pass
  /// with_timings = false to drop the wall-clock timings object, making the
  /// bytes a pure function of trace + region — what lets CI diff a
  /// daemon-served report byte-for-byte against a local run.
  std::string to_json(bool with_timings = true) const;

  /// The Fig. 5(e) view: "1: s-Write; 2: s-Read; ..." (first `max_events`).
  std::string render_events(std::size_t max_events = 64) const;
};

/// Analyze an in-memory record stream.
Report analyze_records(const std::vector<trace::TraceRecord>& records, const MclRegion& region,
                       const AutoCheckOptions& opts = {});

/// Analyze a trace file; parsing is attributed to the pre-processing phase
/// (it dominates, as the paper observes).
Report analyze_file(const std::string& path, const MclRegion& region,
                    const AutoCheckOptions& opts = {});

}  // namespace ac::analysis
