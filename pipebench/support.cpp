#include "support.hpp"

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "support/codec.hpp"
#include "support/strings.hpp"

#ifndef PIPEBENCH_BUILD_TYPE
#define PIPEBENCH_BUILD_TYPE "unknown"
#endif

namespace pipebench {

int Tracer::begin(const char* layer, const std::string& req) {
  if (!on_) return -1;
  Span s;
  s.layer = layer;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.req = req;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  // Spans close in LIFO order (Scope is RAII), so the top is `id`.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

void Tracer::add_aggregate(const char* layer, int parent, std::uint64_t dur_ns) {
  if (!on_ || parent < 0) return;
  const Span& p = spans_[static_cast<std::size_t>(parent)];
  Span s;
  s.layer = layer;
  s.parent = parent;
  s.req = p.req;
  s.start_ns = p.start_ns;
  s.end_ns = p.start_ns + dur_ns;
  s.aggregate = true;
  spans_.push_back(std::move(s));
}

std::map<std::string, double> Tracer::self_ns() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) child[static_cast<std::size_t>(s.parent)] += static_cast<double>(s.dur());
  }
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].layer] += static_cast<double>(spans_[i].dur()) - child[i];
  }
  return out;
}

double Tracer::covered_ns(std::uint64_t from, std::uint64_t to) const {
  double sum = 0;
  for (const Span& s : spans_) {
    if (s.parent < 0 && s.start_ns >= from && s.start_ns < to) sum += static_cast<double>(s.dur());
  }
  return sum;
}

void Tracer::write_jsonl(std::FILE* f, const char* phase) const {
  const std::uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::string line;
    ac::JsonWriter w(&line);
    w.begin_object()
        .field("phase", phase)
        .field("id", static_cast<std::uint64_t>(i))
        .field("parent", s.parent)
        .field("layer", s.layer)
        .field("req", std::string_view(s.req))
        .field("start_ns", s.start_ns - t0)
        .field("end_ns", s.end_ns - t0)
        .field("aggregate", s.aggregate)
        .end_object();
    std::fprintf(f, "%s\n", one_line(line).c_str());
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (const double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

namespace {

/// A "Vm...:  <n> kB" field of /proc/self/status in MiB, or -1.
double status_mib(const char* field) {
  std::ifstream status("/proc/self/status");
  std::string line;
  const std::size_t n = std::strlen(field);
  while (std::getline(status, line)) {
    if (line.compare(0, n, field) == 0) return std::strtod(line.c_str() + n, nullptr) / 1024.0;
  }
  return -1;
}

}  // namespace

double peak_rss_mib() {
  // VmHWM honours the reset below; ru_maxrss (never reset) is the fallback.
  const double hwm = status_mib("VmHWM:");
  if (hwm >= 0) return hwm;
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double rss_mib() { return std::max(0.0, status_mib("VmRSS:")); }

void reset_peak_rss() {
  malloc_trim(0);
  if (std::FILE* f = std::fopen("/proc/self/clear_refs", "w")) {
    std::fputs("5", f);
    std::fclose(f);
  }
}

namespace {

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  unsigned int max_ext = __get_cpuid_max(0x80000000u, nullptr);
  if (max_ext >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1], &regs[4 * i + 2],
                  &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof(regs));
    s = s.c_str();  // stop at the first NUL
    const auto b = s.find_first_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b);
  }
#endif
  return "unknown";
}

long llc_bytes() {
  for (const int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = sysconf(name);
    if (v > 0) return v;
  }
  return 0;
}

}  // namespace

std::string host_fingerprint_json() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
  const char* no_simd = std::getenv("AC_NO_SIMD");
  std::string out;
  ac::JsonWriter w(&out);
  w.begin_object()
      .field("nproc", std::thread::hardware_concurrency())
      .field("cpu_model", std::string_view(cpu_model()))
      .field("llc_bytes", static_cast<std::int64_t>(llc_bytes()))
      .field("compiler", std::string_view(compiler))
      .field("build_type", PIPEBENCH_BUILD_TYPE)
      .field("simd_level", ac::simd_level_name(ac::active_simd_level()))
      .field("ac_no_simd", no_simd ? no_simd : "")
      .end_object();
  return one_line(out);
}

void write_metrics(ac::JsonWriter& w, const std::vector<Metric>& metrics) {
  w.begin_object();
  for (const Metric& m : metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    w.key(m.name).begin_object().raw_field("value", ac::strf("%.17g", v)).field("unit",
        std::string_view(m.unit)).end_object();
  }
  w.end_object();
}

std::string one_line(const std::string& json) {
  std::string out;
  out.reserve(json.size());
  for (std::size_t i = 0; i < json.size(); ++i) {
    if (json[i] != '\n') {
      out += json[i];
      continue;
    }
    while (i + 1 < json.size() && json[i + 1] == ' ') ++i;
  }
  return out;
}

}  // namespace pipebench
