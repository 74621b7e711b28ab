// Measurement plumbing for the pipeline benchmark: layer spans kept in
// memory, a timing wrapper around the VM's trace sink, order statistics,
// peak-RSS probes, the host fingerprint and JSON output on top of the
// library's JsonWriter. Nothing here reaches into the library's own
// telemetry; every number is taken from outside, around calls into a layer's
// public functions.
#pragma once

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "support/json.hpp"
#include "support/timer.hpp"
#include "trace/writer.hpp"

namespace pipebench {

using ac::now_ns;

/// One layer span: [start_ns, end_ns) on the steady clock. `parent` indexes
/// the enclosing span (-1 = top level); `req` is the request id (an app name
/// or a checkpoint iteration). Aggregate spans stand for many short calls
/// (per-record sink appends): their duration is the summed call time and
/// their interval is laid out from the parent's start.
struct Span {
  const char* layer = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  int parent = -1;
  std::string req;
  bool aggregate = false;

  std::uint64_t dur() const { return end_ns - start_ns; }
};

/// In-memory span recorder. When off, every call is a branch and nothing is
/// stored, so the untraced path pays no clock reads for spans.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}

  bool on() const { return on_; }

  /// Open a span nested under the innermost open one; returns its index
  /// (-1 when off).
  int begin(const char* layer, const std::string& req);
  void end(int id);
  /// Record a finished aggregate child of `parent` with the given duration.
  void add_aggregate(const char* layer, int parent, std::uint64_t dur_ns);


  /// Self time (span minus its children) summed per layer name, in ns.
  std::map<std::string, double> self_ns() const;
  /// Summed duration of top-level spans whose start lies in [from, to).
  double covered_ns(std::uint64_t from, std::uint64_t to) const;

  /// Append every span to `f` as one JSON object per line, tagged `phase`.
  void write_jsonl(std::FILE* f, const char* phase) const;

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII span scope.
class Scope {
 public:
  Scope(Tracer& t, const char* layer, const std::string& req)
      : t_(t), id_(t.begin(layer, req)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int id() const { return id_; }

 private:
  Tracer& t_;
  int id_;
};

/// Forwards to the real sink and sums the time spent inside its calls, so
/// the VM's own interpret time is the run_module wall minus sink time.
class TimedSink final : public ac::trace::TraceSink {
 public:
  explicit TimedSink(ac::trace::TraceSink& inner) : inner_(inner) {}

  void append(const ac::trace::TraceRecord& rec) override {
    const std::uint64_t t0 = now_ns();
    inner_.append(rec);
    ns_ += now_ns() - t0;
  }
  std::uint64_t count() const override { return inner_.count(); }

  std::uint64_t ns() const { return ns_; }

 private:
  ac::trace::TraceSink& inner_;
  std::uint64_t ns_ = 0;
};

/// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q);
inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }
/// Geometric mean of positive values; 0 for an empty set.
double geomean(const std::vector<double>& v);

/// Peak resident set size of this process in MiB since the last reset.
double peak_rss_mib();
/// Current resident set size of this process in MiB.
double rss_mib();
/// Return freed heap pages to the OS, then restart the peak-RSS watermark:
/// what follows is not charged for earlier high-water marks, and each app
/// starts from the heap a fresh tool process would have.
void reset_peak_rss();

/// Host fingerprint as a JSON object: results are comparable only between
/// equal fingerprints.
std::string host_fingerprint_json();

/// Deterministic generator (splitmix64): the benchmark's only randomness.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) std::swap(v[i - 1], v[below(i)]);
  }

 private:
  std::uint64_t s_;
};

/// A named metric with its unit, as printed in the result line.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Write {"name": {"value": v, "unit": u}, ...} as the next value of `w`,
/// every number with full precision.
void write_metrics(ac::JsonWriter& w, const std::vector<Metric>& metrics);

/// A JsonWriter document on one line. Every newline JsonWriter emits is
/// layout (json_escape escapes those inside strings), so dropping each with
/// the indentation after it leaves the same document.
std::string one_line(const std::string& json);

}  // namespace pipebench
