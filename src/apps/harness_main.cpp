// The experiment harness CLI: compile + trace + analyze a mini-app, then
// exercise the checkpoint/restart path end-to-end with fault injection.
//
//   harness <APP|all> [--ckpt-engine] [--fail-at-iter N] [options]
//
// Default C/R path is the legacy per-iteration FtiLite validation
// (validate_cr); --ckpt-engine switches to the CheckpointEngine runtime:
// report-driven registration, policy-driven cadence, incremental deltas,
// multi-level storage and asynchronous writeback.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "apps/harness.hpp"
#include "support/error.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/telemetry.hpp"
#include "trace/mctb.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: harness <APP|all> [options]\n"
               "  --analyze            analysis-only profile: trace + analyze each app once\n"
               "                       and print the per-phase timings\n"
               "  --scale N            multiply each app's iteration knobs by N (with\n"
               "                       --analyze; default 1 = Table II laptop scale)\n"
               "  --threads T          trace-read workers for --trace-format and --profile\n"
               "                       (default 4)\n"
               "  --trace-format F     with --analyze: route the trace through a file in\n"
               "                       format F (text | mctb) and read it back — verdicts\n"
               "                       must match the in-memory run bit-for-bit\n"
               "  --ckpt-engine        validate C/R through the CheckpointEngine\n"
               "  --fail-at-iter N     inject a fail-stop at iteration N (default 5)\n"
               "  --dir DIR            checkpoint directory (default /tmp)\n"
               "  --partner-dir DIR    L2 replica directory (default <dir>/partner)\n"
               "  --level 1|2|3        storage level: local/partner/archive (default 1)\n"
               "  --full-only          disable incremental deltas (every commit full)\n"
               "  --full-every N       full base image every N commits (default 8)\n"
               "  --sync               synchronous writeback (default: async)\n"
               "  --ckpt-codec SPEC    payload codec chain: raw | rle | lz | xor+rle | chain\n"
               "                       (= xor+rle+lz); per level: l1=rle,l3=chain\n"
               "  --policy P           fixed:N | young:MTBF_S | daly:MTBF_S (default fixed:1)\n"
               "  --interval N         legacy path: checkpoint every N iterations\n"
               "  --profile OUT.json   record telemetry spans, write a Chrome trace-event\n"
               "                       profile (load in chrome://tracing or Perfetto); with\n"
               "                       --analyze, runs the full profiled pipeline (parse,\n"
               "                       codec, classify, checkpoint) instead of the timing\n"
               "                       table\n"
               "  --metrics OUT.json   write the flat metrics registry JSON\n"
               "apps: all");
  for (const auto& app : ac::apps::registry()) std::fprintf(stderr, ", %s", app.name.c_str());
  std::fprintf(stderr, "\n");
  return 2;
}

std::shared_ptr<ac::ckpt::IntervalPolicy> parse_policy(const std::string& spec) {
  const auto colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const std::string arg = colon == std::string::npos ? "" : spec.substr(colon + 1);
  if (kind == "fixed") {
    return std::make_shared<ac::ckpt::FixedIntervalPolicy>(arg.empty() ? 1 : std::atoll(arg.c_str()));
  }
  if (kind == "young" || kind == "daly") {
    const double mtbf = arg.empty() ? 60.0 : std::atof(arg.c_str());
    return std::make_shared<ac::ckpt::YoungDalyPolicy>(
        mtbf, kind == "young" ? ac::ckpt::YoungDalyPolicy::Order::Young
                              : ac::ckpt::YoungDalyPolicy::Order::Daly);
  }
  throw ac::Error("unknown policy spec: " + spec + " (want fixed:N, young:M or daly:M)");
}

/// "rle" applies one chain to every level; "l1=rle,l3=xor+rle+lz" sets levels
/// individually (unnamed items apply to all levels, later items win). Empty
/// items (stray commas) are dropped rather than resetting anything to raw.
void parse_codec_spec(ac::ckpt::EngineConfig& cfg, const std::string& spec) {
  const auto items = ac::split(spec, ',');
  if (items.empty()) throw ac::Error("empty --ckpt-codec spec");
  for (const std::string& item : items) {
    const std::size_t eq = item.find('=');
    if (eq == std::string::npos) {
      cfg.set_codecs(ac::ckpt::CodecChain::parse(item));
      continue;
    }
    const std::string level = item.substr(0, eq);
    const ac::ckpt::CodecChain chain = ac::ckpt::CodecChain::parse(item.substr(eq + 1));
    if (level == "l1") {
      cfg.l1_codec = chain;
    } else if (level == "l2") {
      cfg.l2_codec = chain;
    } else if (level == "l3") {
      cfg.l3_codec = chain;
    } else {
      throw ac::Error("unknown codec level '" + level + "' (want l1, l2 or l3)");
    }
  }
}

/// The `--scale` workload profile: compile each app at its Table II knobs
/// with the iteration knobs multiplied by `scale`, trace it, and analyze it
/// once, printing the per-phase timings on bigger-than-seed inputs.
int run_analyze(const std::vector<ac::apps::App>& apps, int scale) {
  std::printf("=== analysis profile: --scale %d (Table II iteration knobs x%d) ===\n\n",
              scale, scale);
  ac::TextTable table({"App", "Records", "MLI", "#Crit", "Pre s", "Dep s", "Id s"});
  int failures = 0;
  for (const auto& app : apps) {
    try {
      const ac::apps::Params params = app.scaled_params(app.table2_params, scale);
      ac::analysis::AnalysisOptions opts;
      opts.build_ddg = false;
      const ac::apps::AnalysisRun run = ac::apps::analyze_app(app, params, opts);
      table.add_row({app.name, ac::strf("%llu", (unsigned long long)run.trace_records),
                     ac::strf("%zu", run.report.pre.mli.size()),
                     ac::strf("%zu", run.report.verdicts.critical.size()),
                     ac::strf("%.3f", run.report.timings.preprocessing),
                     ac::strf("%.3f", run.report.timings.dep_analysis),
                     ac::strf("%.3f", run.report.timings.identify)});
    } catch (const std::exception& e) {
      ++failures;
      std::fprintf(stderr, "harness: %s: %s\n", app.name.c_str(), e.what());
    }
  }
  std::printf("%s\n", table.render().c_str());
  if (failures) {
    std::printf("%d app(s) FAILED (analysis threw)\n", failures);
    return 1;
  }
  std::printf("all %zu app(s) analyzed at scale %d\n", apps.size(), scale);
  return 0;
}

/// The `--analyze --trace-format F` profile: the trace goes through a file in
/// the chosen on-disk format and is read back through the auto-detecting
/// FileSource — the paper's file-based workflow, measurable per format — and
/// the verdicts must match the in-memory run bit-for-bit.
int run_analyze_file(const std::vector<ac::apps::App>& apps, int scale, int threads,
                     ac::trace::TraceFormat format) {
  std::printf("=== analysis profile via %s trace files: --scale %d, %d worker(s) ===\n\n",
              ac::trace::trace_format_name(format), scale, threads);
  ac::TextTable table({"App", "Records", "Trace", "Gen s", "Read s", "Id s", "Verdicts"});
  int failures = 0;
  for (const auto& app : apps) {
    try {
      const ac::apps::Params params = app.scaled_params(app.table2_params, scale);
      ac::analysis::AnalysisOptions seq;
      seq.build_ddg = false;
      const ac::apps::AnalysisRun serial = ac::apps::analyze_app(app, params, seq);
      ac::analysis::AnalysisOptions par = seq;
      par.threads = threads;
      const std::string path =
          "/tmp/ac_harness_" + app.name + "." + ac::trace::trace_format_name(format);
      const ac::apps::FileAnalysisRun fr =
          ac::apps::analyze_app_via_file(app, params, path, par, format);
      std::remove(path.c_str());
      const bool match = serial.report.verdicts.critical == fr.report.verdicts.critical &&
                         serial.report.verdicts.all_mli == fr.report.verdicts.all_mli;
      if (!match) ++failures;
      table.add_row({app.name, ac::strf("%llu", (unsigned long long)fr.trace_records),
                     ac::human_bytes(fr.trace_bytes),
                     ac::strf("%.3f", fr.trace_generation_seconds),
                     ac::strf("%.3f", fr.trace_read_seconds),
                     ac::strf("%.3f", fr.report.timings.identify),
                     match ? "MATCH" : "DIVERGED"});
    } catch (const std::exception& e) {
      ++failures;
      std::fprintf(stderr, "harness: %s: %s\n", app.name.c_str(), e.what());
    }
  }
  std::printf("%s\n", table.render().c_str());
  if (failures) {
    std::printf("%d app(s) FAILED (file-path verdicts diverged or analysis threw)\n", failures);
    return 1;
  }
  std::printf("all %zu app(s): %s-file verdicts bit-identical to the in-memory run\n",
              apps.size(), ac::trace::trace_format_name(format));
  return 0;
}

/// The `--analyze --profile/--metrics` flow: one end-to-end pass per app that
/// exercises every instrumented layer — VM trace generation, text-trace file
/// parse (serial or parallel), MCTB encode + decode, classification, and an
/// engine-backed C/R round — then exports whatever the span rings and
/// the registry recorded. Unlike run_analyze, this path optimizes for profile
/// coverage, not for the timing table.
int run_profile(const std::vector<ac::apps::App>& apps, int scale, int threads,
                const ac::ckpt::EngineConfig& cfg, int fail_at) {
  namespace tel = ac::telemetry;
  tel::telemetry().enable();
  tel::telemetry().reset();
  tel::metrics().reset();

  std::printf("=== profiled pipeline: --scale %d, %d worker(s) ===\n\n", scale, threads);
  for (const auto& app : apps) {
    const ac::apps::Params params = app.scaled_params(app.table2_params, scale);
    ac::analysis::AnalysisOptions opts;
    opts.build_ddg = false;
    opts.threads = threads;
    opts.telemetry = true;

    // VM trace -> text file -> (parallel) parse -> classify.
    const std::string text_path = "/tmp/ac_profile_" + app.name + ".text";
    const ac::apps::FileAnalysisRun text_run = ac::apps::analyze_app_via_file(
        app, params, text_path, opts, ac::trace::TraceFormat::Text);

    // Same trace through the binary container: MCTB encode + chunked decode.
    const std::string mctb_path = "/tmp/ac_profile_" + app.name + ".mctb";
    {
      ac::trace::FileSource text_source(text_path);
      text_source.set_read_threads(threads);
      ac::trace::write_mctb_file(text_source.buffer(), mctb_path);
    }
    ac::analysis::Session mctb_session;
    mctb_session.file(mctb_path).region(app.mcl()).options(opts);
    const ac::analysis::Report mctb_report = mctb_session.run();
    std::remove(text_path.c_str());
    std::remove(mctb_path.c_str());
    const bool match = text_run.report.verdicts.critical == mctb_report.verdicts.critical;

    // Engine-backed C/R round for the ckpt.* spans and registry counters.
    const ac::apps::AnalysisRun base = ac::apps::analyze_app(app, params, opts);
    ac::ckpt::EngineConfig app_cfg = cfg;
    app_cfg.tag = app.name + "_profile";
    const ac::apps::EngineRunResult engine_run = ac::apps::run_with_engine(
        base.module, base.region, base.report.critical_names(), app_cfg, fail_at);

    std::printf("%s: %llu records, %zu critical, %lld checkpoint(s), verdicts %s\n",
                app.name.c_str(), static_cast<unsigned long long>(text_run.trace_records),
                base.report.verdicts.critical.size(),
                static_cast<long long>(engine_run.stats.checkpoints),
                match ? "MATCH" : "DIVERGED");
    if (!match) return 1;
  }
  std::printf("\n--- span summary ---\n%s\n--- metrics ---\n%s",
              tel::telemetry().summary().c_str(), tel::metrics().summary().c_str());
  return 0;
}

/// Export --profile/--metrics output files; exits loudly on I/O failure.
int export_telemetry(const std::string& profile_path, const std::string& metrics_path) {
  try {
    if (!profile_path.empty()) {
      ac::telemetry::telemetry().write_chrome_trace(profile_path);
      std::printf("telemetry profile written to %s\n", profile_path.c_str());
    }
    if (!metrics_path.empty()) {
      ac::telemetry::metrics().write_json(metrics_path);
      std::printf("metrics written to %s\n", metrics_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "harness: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string app_arg = argv[1];

  bool use_engine = false;
  bool analyze = false;
  bool have_trace_format = false;
  ac::trace::TraceFormat trace_format = ac::trace::TraceFormat::Text;
  int scale = 1;
  int threads = 4;
  int fail_at = 5;
  int interval = 1;
  std::string profile_path;
  std::string metrics_path;
  ac::ckpt::EngineConfig cfg;
  cfg.dir = "/tmp";

  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--ckpt-engine") {
      use_engine = true;
    } else if (arg == "--analyze") {
      analyze = true;
    } else if (arg == "--scale") {
      scale = std::atoi(next());
      if (scale < 1) {
        std::fprintf(stderr, "harness: --scale expects an integer >= 1\n");
        return 2;
      }
    } else if (arg == "--threads") {
      threads = std::atoi(next());
      if (threads < 1) {
        std::fprintf(stderr, "harness: --threads expects an integer >= 1\n");
        return 2;
      }
    } else if (arg == "--trace-format") {
      try {
        trace_format = ac::trace::parse_trace_format(next());
        have_trace_format = true;
      } catch (const std::exception& e) {
        std::fprintf(stderr, "harness: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--fail-at-iter") {
      fail_at = std::atoi(next());
    } else if (arg == "--dir") {
      cfg.dir = next();
    } else if (arg == "--partner-dir") {
      cfg.partner_dir = next();
    } else if (arg == "--level") {
      const int level = std::atoi(next());
      if (level < 1 || level > 3) return usage();
      cfg.level = static_cast<ac::ckpt::EngineLevel>(level);
    } else if (arg == "--full-only") {
      cfg.incremental = false;
    } else if (arg == "--full-every") {
      cfg.full_every = std::atoi(next());
    } else if (arg == "--sync") {
      cfg.async = false;
    } else if (arg == "--ckpt-codec") {
      try {
        parse_codec_spec(cfg, next());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "harness: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--policy") {
      try {
        cfg.policy = parse_policy(next());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "harness: %s\n", e.what());
        return 2;
      }
    } else if (arg == "--interval") {
      interval = std::atoi(next());
    } else if (arg == "--profile") {
      profile_path = next();
    } else if (arg == "--metrics") {
      metrics_path = next();
    } else {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return usage();
    }
  }
  if (cfg.level >= ac::ckpt::EngineLevel::L2 && cfg.partner_dir.empty()) {
    cfg.partner_dir = cfg.dir + "/partner";  // a replica needs its own directory
  }
  if (fail_at < 2) {
    std::fprintf(stderr, "harness: --fail-at-iter must be >= 2 (a checkpoint must exist)\n");
    return 2;
  }

  std::vector<ac::apps::App> apps;
  try {
    if (app_arg == "all") {
      apps = ac::apps::registry();
    } else {
      apps.push_back(ac::apps::find_app(app_arg));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "harness: %s\n", e.what());
    return usage();
  }

  const bool profiling = !profile_path.empty() || !metrics_path.empty();
  if (profiling) ac::telemetry::telemetry().enable();

  if (analyze) {
    int rc;
    if (profiling) {
      rc = run_profile(apps, scale, threads, cfg, fail_at);
    } else {
      rc = have_trace_format ? run_analyze_file(apps, scale, threads, trace_format)
                             : run_analyze(apps, scale);
    }
    const int export_rc = export_telemetry(profile_path, metrics_path);
    return rc ? rc : export_rc;
  }
  if (have_trace_format) {
    std::fprintf(stderr, "harness: --trace-format requires --analyze\n");
    return 2;
  }

  std::printf("=== C/R harness: %s path, fail-stop at iteration %d ===\n\n",
              use_engine ? "CheckpointEngine" : "legacy FtiLite", fail_at);
  ac::TextTable table(use_engine
                          ? std::vector<std::string>{"App", "#Crit", "Ckpts (full+delta)",
                                                     "Bytes", "vs full", "Codec", "Enc ratio",
                                                     "Recovered@", "Restart"}
                          : std::vector<std::string>{"App", "#Crit", "Ckpts", "Recovered@",
                                                     "Restart"});

  int failures = 0;
  for (const auto& app : apps) {
    try {
      const ac::apps::AnalysisRun run = ac::apps::analyze_app(app);
      const auto protect = run.report.critical_names();
      if (use_engine) {
        ac::ckpt::EngineConfig app_cfg = cfg;
        app_cfg.tag = app.name + "_harness";
        const auto v = ac::apps::validate_cr_engine(run.module, run.region, protect, fail_at,
                                                    app_cfg);
        if (!v.restart_matches) ++failures;
        const double ratio = v.stats.l1_bytes
                                 ? static_cast<double>(v.stats.full_equiv_bytes) /
                                       static_cast<double>(v.stats.l1_bytes)
                                 : 0.0;
        const double enc_ratio =
            v.stats.payload_encoded_bytes
                ? static_cast<double>(v.stats.payload_raw_bytes) /
                      static_cast<double>(v.stats.payload_encoded_bytes)
                : 1.0;
        table.add_row({app.name, ac::strf("%zu", protect.size()),
                       ac::strf("%lld (%lld+%lld)", static_cast<long long>(v.stats.checkpoints),
                                static_cast<long long>(v.stats.full_checkpoints),
                                static_cast<long long>(v.stats.delta_checkpoints)),
                       ac::human_bytes(v.stats.l1_bytes), ac::strf("%.1fx smaller", ratio),
                       app_cfg.l1_codec.str(), ac::strf("%.2fx", enc_ratio),
                       ac::strf("%lld", static_cast<long long>(v.recovered_iteration)),
                       v.restart_matches ? "MATCH" : "DIVERGED"});
      } else {
        const auto v = ac::apps::validate_cr(run.module, run.region, protect, fail_at, cfg.dir,
                                             app.name + "_harness", interval);
        if (!v.restart_matches) ++failures;
        table.add_row({app.name, ac::strf("%zu", protect.size()),
                       ac::strf("%d", v.checkpoints_written),
                       ac::strf("%lld", static_cast<long long>(v.last_checkpoint_iteration)),
                       v.restart_matches ? "MATCH" : "DIVERGED"});
      }
    } catch (const std::exception& e) {
      ++failures;
      std::fprintf(stderr, "harness: %s: %s\n", app.name.c_str(), e.what());
    }
  }

  std::printf("%s\n", table.render().c_str());
  const int export_rc = export_telemetry(profile_path, metrics_path);
  if (failures) {
    std::printf("%d app(s) FAILED to recover\n", failures);
    return 1;
  }
  std::printf("all %zu app(s) recovered to the failure-free output\n", apps.size());
  return export_rc;
}
