// Classification heuristics (paper §IV-C / Fig. 7): WAR, RAPO, Outcome,
// Index, and the negative cases (recomputed temporaries, read-only inputs,
// fully-overwritten arrays).
#include <gtest/gtest.h>

#include <set>

#include "analysis/classify.hpp"
#include "apps/app.hpp"

#include "helpers.hpp"

namespace ac::analysis {
namespace {

using test::critical_map;
using test::fig4_source;
using test::run_pipeline;

TEST(Classify, Fig4MatchesPaperVerdict) {
  auto run = run_pipeline(fig4_source());
  const auto got = critical_map(run.report);
  const std::map<std::string, std::string> want = {
      {"r", "WAR"}, {"a", "RAPO"}, {"sum", "Outcome"}, {"it", "Index"}};
  EXPECT_EQ(got, want);

  // Degenerate input: no events, no MLI variables — an empty verdict.
  const ClassifyResult empty = classify(DepResult{}, PreprocessResult{});
  EXPECT_TRUE(empty.critical.empty());
  EXPECT_TRUE(empty.all_mli.empty());
}

TEST(Classify, ScalarAccumulatorIsWar) {
  const std::string src = R"(
int main() {
  int acc = 0;
  //@mcl-begin
  for (int it = 0; it < 5; it = it + 1) {
    acc = acc + it;
  }
  //@mcl-end
  print_int(acc);
  return 0;
}
)";
  auto run = run_pipeline(src);
  ASSERT_NE(run.report.find_critical("acc"), nullptr);
  EXPECT_EQ(run.report.find_critical("acc")->type, DepType::WAR);
}

TEST(Classify, RecomputedScalarIsNotCritical) {
  // tmp is overwritten before any read in every iteration: a restart
  // recomputes it, so it needs no checkpoint (the paper's CG q/z/r/p case).
  const std::string src = R"(
int main() {
  int tmp = 0;
  int acc = 0;
  //@mcl-begin
  for (int it = 0; it < 5; it = it + 1) {
    tmp = it * 2;
    acc = acc + tmp;
  }
  //@mcl-end
  print_int(acc);
  return 0;
}
)";
  auto run = run_pipeline(src);
  EXPECT_EQ(run.report.find_critical("tmp"), nullptr);
  ASSERT_NE(run.report.find_critical("acc"), nullptr);
}

TEST(Classify, ReadOnlyInputIsNotCritical) {
  // Read-only data is rebuilt by initialization on restart (CG's matrix A).
  const std::string src = R"(
int main() {
  int c[4];
  for (int i = 0; i < 4; i = i + 1) { c[i] = i + 1; }
  int acc = 0;
  //@mcl-begin
  for (int it = 0; it < 4; it = it + 1) {
    acc = acc + c[it];
  }
  //@mcl-end
  print_int(acc);
  return 0;
}
)";
  auto run = run_pipeline(src);
  EXPECT_EQ(run.report.find_critical("c"), nullptr);
}

TEST(Classify, FullyOverwrittenArrayIsNotCritical) {
  // w is completely rewritten before being read in every iteration (Fig. 4's
  // b, HPCCG's Ap).
  const std::string src = R"(
int main() {
  int w[4];
  int acc = 0;
  for (int i = 0; i < 4; i = i + 1) { w[i] = 0; }
  //@mcl-begin
  for (int it = 0; it < 5; it = it + 1) {
    for (int i = 0; i < 4; i = i + 1) { w[i] = it + i; }
    for (int i = 0; i < 4; i = i + 1) { acc = acc + w[i]; }
  }
  //@mcl-end
  print_int(acc);
  return 0;
}
)";
  auto run = run_pipeline(src);
  EXPECT_EQ(run.report.find_critical("w"), nullptr);
}

TEST(Classify, InPlaceSweepArrayIsWarNotRapo) {
  // Every element's stale value is consumed and refreshed in the same
  // iteration (Himeno's p, LU's rsd): WAR, not RAPO.
  const std::string src = R"(
double f[6];
int main() {
  for (int i = 0; i < 6; i = i + 1) { f[i] = i * 0.5; }
  //@mcl-begin
  for (int it = 0; it < 4; it = it + 1) {
    for (int i = 1; i < 5; i = i + 1) {
      f[i] = f[i] * 0.5 + f[i - 1] * 0.25 + f[i + 1] * 0.25;
    }
  }
  //@mcl-end
  print_float(f[3]);
  return 0;
}
)";
  auto run = run_pipeline(src);
  ASSERT_NE(run.report.find_critical("f"), nullptr);
  EXPECT_EQ(run.report.find_critical("f")->type, DepType::WAR);
}

TEST(Classify, HistogramAccumulationIsWarNotRapo) {
  // q[l] += 1 consumes q[l]'s stale value but refreshes the same element in
  // the same iteration (EP's q): WAR even though other elements were written
  // earlier in the iteration.
  const std::string src = R"(
int q[4];
int main() {
  for (int i = 0; i < 4; i = i + 1) { q[i] = 0; }
  //@mcl-begin
  for (int it = 0; it < 6; it = it + 1) {
    q[it % 4] = q[it % 4] + 1;
    q[(it + 1) % 4] = q[(it + 1) % 4] + 1;
  }
  //@mcl-end
  print_int(q[0] + 10 * q[1]);
  return 0;
}
)";
  auto run = run_pipeline(src);
  ASSERT_NE(run.report.find_critical("q"), nullptr);
  EXPECT_EQ(run.report.find_critical("q")->type, DepType::WAR);
}

TEST(Classify, PartialOverwriteThenStaleReadIsRapo) {
  // One element is written per iteration while reads scan elements written
  // by earlier iterations (Fig. 4's a, IS's key_array): RAPO.
  const std::string src = R"(
int a[8];
int main() {
  int acc = 0;
  for (int i = 0; i < 8; i = i + 1) { a[i] = 0; }
  //@mcl-begin
  for (int it = 1; it < 6; it = it + 1) {
    a[it] = it * 10;
    acc = acc + a[it - 1];
  }
  //@mcl-end
  print_int(acc);
  return 0;
}
)";
  auto run = run_pipeline(src);
  ASSERT_NE(run.report.find_critical("a"), nullptr);
  EXPECT_EQ(run.report.find_critical("a")->type, DepType::RAPO);
}

TEST(Classify, OutcomeOnlyConsumedAfterLoop) {
  const std::string src = R"(
double best;
int main() {
  best = 0.0;
  double acc = 0.0;
  //@mcl-begin
  for (int it = 0; it < 5; it = it + 1) {
    acc = acc + it * 1.5;
    best = it * 2.0;
  }
  //@mcl-end
  print_float(best);
  print_float(acc);
  return 0;
}
)";
  auto run = run_pipeline(src);
  ASSERT_NE(run.report.find_critical("best"), nullptr);
  EXPECT_EQ(run.report.find_critical("best")->type, DepType::Outcome);
  // acc is both WAR and printed after the loop: WAR takes precedence.
  EXPECT_EQ(run.report.find_critical("acc")->type, DepType::WAR);
}

TEST(Classify, CrossIterationCacheIsCritical) {
  // An element written once in iteration 1 and consumed by every later
  // iteration cannot be rebuilt by init: it must be checkpointed.
  const std::string src = R"(
double cache[4];
int main() {
  double acc = 0.0;
  for (int i = 0; i < 4; i = i + 1) { cache[i] = 0.0; }
  //@mcl-begin
  for (int it = 1; it <= 5; it = it + 1) {
    if (it == 1) { cache[0] = 7.5; }
    acc = acc + cache[0];
  }
  //@mcl-end
  print_float(acc);
  return 0;
}
)";
  auto run = run_pipeline(src);
  ASSERT_NE(run.report.find_critical("cache"), nullptr);
}

TEST(Classify, CgCaseStudyFromAlgorithm2) {
  // The paper's §IV-D case study: only x (WAR) and the induction variable.
  auto run = run_pipeline(apps::find_app("CG").source());
  const auto got = critical_map(run.report);
  const std::map<std::string, std::string> want = {{"x", "WAR"}, {"it", "Index"}};
  EXPECT_EQ(got, want);
  // z, p, q, r, A are MLI but not critical.
  const auto mli_list = test::mli_names(run.report);
  std::set<std::string> mli(mli_list.begin(), mli_list.end());
  for (const char* name : {"z", "p", "q", "r", "A", "x"}) EXPECT_TRUE(mli.count(name)) << name;
}

}  // namespace
}  // namespace ac::analysis
