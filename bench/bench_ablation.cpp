// Ablation studies for the design choices DESIGN.md calls out:
//   A. MLI identification mode — address-resolved (default) vs the paper's
//      literal name+address matching with callee bypass (§V-B): shows the
//      FT-style global-variable blind spot the paper worked around manually.
//   B. Pipeline variants — in-memory batch, trace file (serial parse), trace
//      file (OpenMP parse), and the streaming two-pass mode (§IX future
//      work): same verdicts, different costs.
//   C. Complete-DDG construction on/off — the DDG is for reporting; the
//      event stream alone carries classification.
//   D. Checkpoint interval — storage written vs rollback distance.
#include <cstdio>
#include <map>

#include "apps/harness.hpp"
#include "ckpt/ftilite.hpp"
#include "support/strings.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

using namespace ac;

namespace {

std::map<std::string, std::string> verdicts(const analysis::Report& report) {
  std::map<std::string, std::string> out;
  for (const auto& cv : report.verdicts.critical) {
    out[cv.name] = analysis::dep_type_name(cv.type);
  }
  return out;
}

}  // namespace

int main() {
  // --- A: MLI identification mode -------------------------------------------
  std::printf("=== A. MLI mode: address-resolved vs paper name-match (V.B) ===\n\n");
  TextTable mli_table({"Name", "MLI (address)", "MLI (paper)", "Verdicts agree"});
  for (const auto& app : apps::registry()) {
    const apps::AnalysisRun addr = apps::analyze_app(app);
    analysis::AutoCheckOptions paper;
    paper.mli_mode = analysis::MliMode::PaperNameMatch;
    const apps::AnalysisRun named = apps::analyze_app(app, {}, paper);
    const bool agree = verdicts(addr.report) == verdicts(named.report);
    mli_table.add_row({app.name, strf("%zu", addr.report.pre.mli.size()),
                       strf("%zu", named.report.pre.mli.size()),
                       agree ? "yes" : "NO (globals-in-callees blind spot)"});
  }
  std::printf("%s\n", mli_table.render().c_str());

  // --- B: pipeline variants ---------------------------------------------------
  std::printf("=== B. Pipeline variants on CG (Table II input) ===\n\n");
  {
    const apps::App& app = apps::find_app("CG");
    const auto params = app.table2_params;

    WallTimer t;
    const apps::AnalysisRun batch = apps::analyze_app(app, params);
    const double batch_s = t.seconds();

    t.reset();
    const apps::FileAnalysisRun file_serial =
        apps::analyze_app_via_file(app, params, "/tmp/ac_ablation_cg.trace");
    const double file_s = t.seconds();

    // Ablate only the §V-A parallel read.
    analysis::AnalysisOptions par;
    par.threads = analysis::default_thread_count();
    t.reset();
    const apps::FileAnalysisRun file_parallel =
        apps::analyze_app_via_file(app, params, "/tmp/ac_ablation_cg_p.trace", par);
    const double file_p = t.seconds();

    t.reset();
    const apps::StreamingRun streaming = apps::analyze_app_streaming(app, params);
    const double stream_s = t.seconds();

    const bool all_agree = verdicts(batch.report) == verdicts(file_serial.report) &&
                           verdicts(batch.report) == verdicts(file_parallel.report) &&
                           verdicts(batch.report) == verdicts(streaming.report);

    TextTable table({"Variant", "End-to-end (s)", "Notes"});
    table.add_row({"in-memory batch", strf("%.3f", batch_s), "records held in RAM"});
    table.add_row({"trace file, serial parse", strf("%.3f", file_s),
                   strf("%s on disk", human_bytes(file_serial.trace_bytes).c_str())});
    table.add_row({"trace file, OpenMP parse", strf("%.3f", file_p), "paper V.A optimization"});
    table.add_row({"streaming (2 VM passes)", strf("%.3f", stream_s),
                   "no trace materialized (paper IX)"});
    std::printf("%sAll variants produce identical verdicts: %s\n\n", table.render().c_str(),
                all_agree ? "yes" : "NO");
  }

  // --- C: DDG on/off -----------------------------------------------------------
  std::printf("=== C. Complete-DDG construction cost (CG, Table II input) ===\n\n");
  {
    const apps::App& app = apps::find_app("CG");
    analysis::AutoCheckOptions with_ddg;
    analysis::AutoCheckOptions without_ddg;
    without_ddg.build_ddg = false;
    const apps::AnalysisRun a = apps::analyze_app(app, app.table2_params, with_ddg);
    const apps::AnalysisRun b = apps::analyze_app(app, app.table2_params, without_ddg);
    std::printf("  dependency analysis with DDG:    %.4fs (%d nodes, %zu edges)\n",
                a.report.timings.dep_analysis, a.report.dep.complete.num_nodes(),
                a.report.dep.complete.num_edges());
    std::printf("  dependency analysis without DDG: %.4fs\n", b.report.timings.dep_analysis);
    std::printf("  identical verdicts: %s\n\n",
                verdicts(a.report) == verdicts(b.report) ? "yes" : "NO");
  }

  // --- D: checkpoint interval ---------------------------------------------------
  std::printf("=== D. Checkpoint interval: storage written vs rollback distance (LU) ===\n\n");
  {
    const apps::App& app = apps::find_app("LU");
    const apps::AnalysisRun run = apps::analyze_app(app);
    TextTable table({"Interval", "Ckpts", "Bytes written", "Rollback from iter 5", "Restart"});
    for (int interval : {1, 2, 3}) {
      std::uint64_t bytes = 0;
      int count = 0;
      std::int64_t last_iter = 0;
      {
        ckpt::FtiLite fti("/tmp", strf("lu_interval_%d", interval));
        fti.reset();
        vm::RunOptions opts;
        opts.mcl = vm::MclRegion{run.region.function, run.region.begin_line, run.region.end_line};
        opts.protect = run.report.critical_names();
        opts.checkpoint_interval = interval;
        opts.on_checkpoint = [&](const ckpt::CheckpointImage& img) {
          fti.checkpoint(img);
          bytes += fti.storage_bytes();
          ++count;
          last_iter = img.iteration();
        };
        vm::run_module(run.module, opts);
      }
      const auto v = apps::validate_cr(run.module, run.region, run.report.critical_names(), 5,
                                       "/tmp", strf("lu_iv_%d", interval), interval);
      table.add_row({strf("%d", interval), strf("%d", count), human_bytes(bytes),
                     strf("%lld iter(s)",
                          static_cast<long long>(4 - v.last_checkpoint_iteration)),
                     v.restart_matches ? "success" : "FAILED"});
      (void)last_iter;
    }
    std::printf("%s", table.render().c_str());
    std::printf("\nLarger intervals write fewer checkpoints but re-execute more iterations\n"
                "after a failure — the classic C/R interval trade-off (paper II.B).\n");
  }
  return 0;
}
