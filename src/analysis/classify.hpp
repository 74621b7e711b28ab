// Identification of critical variables (paper §IV-C, Fig. 7).
//
// Per MLI variable, on its element-granular R/W event stream:
//  * a read that consumes a value produced in an *earlier loop iteration* is
//    a stale consumption — the variable cannot be reconstructed by re-running
//    initialization, so it must be checkpointed. The consumption is labelled
//    RAPO when the current iteration had already partially overwritten the
//    array before the read (and the read element is not refreshed by this
//    iteration at all); otherwise WAR.
//  * values produced only by initialization (Part A) are reconstructed by a
//    restart's re-execution of init, so read-only inputs are not critical.
//  * written inside the loop and read after it, with no stale consumption:
//    Outcome.
//  * variables read by the loop-header condition and written inside the loop
//    (for-loop induction via their self-dependent header store, or while-loop
//    control flags): Index — which takes precedence over the dataflow labels,
//    as in the paper's treatment of `it`.
#pragma once

#include <string>
#include <vector>

#include "analysis/depanalysis.hpp"

namespace ac::analysis {

enum class DepType : std::uint8_t { WAR, Outcome, RAPO, Index, NotCritical };

const char* dep_type_name(DepType t);

struct CriticalVar {
  int var_id = -1;
  std::string name;
  DepType type = DepType::NotCritical;
  int decl_line = 0;
  std::uint64_t bytes = 0;
  /// Witness for the verdict, e.g. "value written in iteration 1 is consumed
  /// at line 22 in iteration 2". Empty for NotCritical.
  std::string reason;

  bool operator==(const CriticalVar&) const = default;
};

struct ClassifyResult {
  /// Variables to checkpoint (WAR/RAPO/Outcome/Index), MLI discovery order
  /// with Index-only variables appended.
  std::vector<CriticalVar> critical;
  /// Every MLI variable with its verdict (including NotCritical).
  std::vector<CriticalVar> all_mli;
};

ClassifyResult classify(const DepResult& dep, const PreprocessResult& pre);

}  // namespace ac::analysis
