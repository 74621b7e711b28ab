#include "analysis/classify.hpp"

#include "support/strings.hpp"
#include "support/telemetry.hpp"

#include <map>
#include <tuple>
#include <set>
#include <unordered_map>
#include <unordered_set>

namespace ac::analysis {

const char* dep_type_name(DepType t) {
  switch (t) {
    case DepType::WAR: return "WAR";
    case DepType::Outcome: return "Outcome";
    case DepType::RAPO: return "RAPO";
    case DepType::Index: return "Index";
    case DepType::NotCritical: return "-";
  }
  return "?";
}

namespace {

struct VarVerdict {
  bool war = false;
  bool rapo = false;
  bool outcome = false;
  std::string war_reason;
  std::string rapo_reason;
  std::string outcome_reason;
};

/// The two-pass dataflow scan over the whole event stream. Every piece of
/// state is keyed by variable, so each variable's verdict depends only on its
/// own events, in execution order.
std::unordered_map<int, VarVerdict> scan_events(const std::vector<AccessEvent>& events) {
  // Pass 1: per variable, which elements each iteration writes (Part B only),
  // so the RAPO test can ask "is this element refreshed by the current
  // iteration at all?" without caring about intra-iteration ordering.
  std::unordered_map<int, std::map<int, std::set<std::int64_t>>> written_by_iter;
  std::unordered_set<int> written_in_b;
  for (const AccessEvent& ev : events) {
    if (ev.part == Part::B && ev.is_write) {
      written_by_iter[ev.var][ev.iteration].insert(ev.elem);
      written_in_b.insert(ev.var);
    }
  }

  // Pass 2: the stale-consumption scan.
  std::unordered_map<int, VarVerdict> verdicts;
  std::unordered_map<int, std::unordered_map<std::int64_t, int>> last_write_iter;  // Part B writes
  std::unordered_map<int, int> cur_iter_of_var;
  std::unordered_map<int, int> writes_so_far;  // within the variable's current iteration

  for (const AccessEvent& ev : events) {
    VarVerdict& v = verdicts[ev.var];

    if (ev.part == Part::C) {
      if (!ev.is_write && written_in_b.count(ev.var) && !v.outcome) {
        v.outcome = true;
        v.outcome_reason =
            strf("written inside the loop, consumed after it at line %d", ev.line);
      }
      continue;
    }
    if (ev.part != Part::B) continue;

    auto [it, inserted] = cur_iter_of_var.emplace(ev.var, ev.iteration);
    if (!inserted && it->second != ev.iteration) {
      it->second = ev.iteration;
      writes_so_far[ev.var] = 0;
    }

    if (ev.is_write) {
      last_write_iter[ev.var][ev.elem] = ev.iteration;
      ++writes_so_far[ev.var];
      continue;
    }

    // Read: stale iff its element's last write happened in an earlier
    // iteration of the loop (a Part-A/init value is reconstructible, not stale).
    auto& lw = last_write_iter[ev.var];
    auto w = lw.find(ev.elem);
    if (w == lw.end() || w->second >= ev.iteration) continue;

    const auto& this_iter_writes = written_by_iter[ev.var][ev.iteration];
    const bool elem_refreshed = this_iter_writes.count(ev.elem) > 0;
    const bool partially_overwritten = writes_so_far[ev.var] > 0;
    if (partially_overwritten && !elem_refreshed) {
      if (!v.rapo) {
        v.rapo = true;
        v.rapo_reason = strf(
            "element %lld written in iteration %d is read at line %d in iteration %d, "
            "after this iteration partially overwrote the array",
            static_cast<long long>(ev.elem), w->second, ev.line, ev.iteration);
      }
    } else if (!v.war) {
      v.war = true;
      v.war_reason =
          strf("value written in iteration %d is consumed at line %d in iteration %d "
               "before being overwritten",
               w->second, ev.line, ev.iteration);
    }
  }
  return verdicts;
}

/// Deterministic assembly of the final verdict list from the per-variable
/// scan results: MLI discovery order with Index-only variables appended.
ClassifyResult assemble(const std::unordered_map<int, VarVerdict>& verdicts,
                        const DepResult& dep, const PreprocessResult& pre) {
  // Index variables: read by the header condition and written inside the loop.
  std::set<int> index_vars;
  for (int var : dep.induction.cond_read) {
    const auto& w = dep.induction.written_in_b;
    if (static_cast<std::size_t>(var) < w.size() && w[static_cast<std::size_t>(var)]) {
      index_vars.insert(var);
    }
  }

  auto type_of = [&](int var_id) -> std::pair<DepType, std::string> {
    if (index_vars.count(var_id)) {
      const bool self = dep.induction.self_rmw.count(var_id) > 0;
      return {DepType::Index, self ? "loop induction variable (self-updated at the header)"
                                   : "read by the loop condition and written inside the loop"};
    }
    auto it = verdicts.find(var_id);
    if (it == verdicts.end()) return {DepType::NotCritical, ""};
    if (it->second.rapo) return {DepType::RAPO, it->second.rapo_reason};
    if (it->second.war) return {DepType::WAR, it->second.war_reason};
    if (it->second.outcome) return {DepType::Outcome, it->second.outcome_reason};
    return {DepType::NotCritical, ""};
  };

  ClassifyResult out;
  std::set<int> reported;
  for (const MliVar& m : pre.mli) {
    CriticalVar cv;
    cv.var_id = m.var_id;
    cv.name = m.name;
    cv.decl_line = m.decl_line;
    cv.bytes = m.bytes;
    std::tie(cv.type, cv.reason) = type_of(m.var_id);
    out.all_mli.push_back(cv);
    if (cv.type != DepType::NotCritical) {
      out.critical.push_back(cv);
      reported.insert(m.var_id);
    }
  }
  for (int var : index_vars) {
    if (reported.count(var)) continue;
    const VarDef& def = pre.vars.def(var);
    CriticalVar cv;
    cv.var_id = var;
    cv.name = def.name;
    cv.decl_line = def.decl_line;
    cv.bytes = def.bytes;
    std::tie(cv.type, cv.reason) = type_of(var);
    out.critical.push_back(cv);
  }
  return out;
}

}  // namespace

ClassifyResult classify(const DepResult& dep, const PreprocessResult& pre) {
  AC_SPAN("classify.scan");
  static auto& events = telemetry::metrics().counter("classify.events");
  events.add(dep.events.size());
  return assemble(scan_events(dep.events), dep, pre);
}

}  // namespace ac::analysis
