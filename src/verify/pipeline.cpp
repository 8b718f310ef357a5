#include "verify/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <map>
#include <new>
#include <optional>
#include <span>
#include <sstream>
#include <stdexcept>

#include "cs/explicit_system.h"
#include "cs/state_graph.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "replay/replay.h"
#include "spec/spec.h"
#include "svc/journal.h"
#include "svc/proof_cache.h"
#include "ta/transforms.h"
#include "ta/validate.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/stopwatch.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "verify/cache_key.h"

namespace ctaver::verify {

namespace {

using protocols::Category;

Obligation from_check(const std::string& name,
                      const schema::CheckResult& res) {
  Obligation o;
  o.name = name;
  o.holds = res.holds;
  o.parametric = true;
  o.complete = res.complete;
  o.nschemas = res.nschemas;
  o.nqueries = res.nqueries;
  o.npivots = res.npivots;
  o.seconds = res.seconds;
  o.per_worker = res.per_worker;
  if (res.ce) {
    o.ce = res.ce->text;
    o.ce_data = res.ce;
  }
  return o;
}

/// κ slots (round 0) of the final process locations that `keep` selects.
template <class Keep>
std::vector<std::uint32_t> final_slots(const cs::ExplicitSystem& es,
                                       Keep keep) {
  std::vector<std::uint32_t> out;
  const ta::Automaton& a = es.system().process;
  for (ta::LocId l = 0; l < static_cast<ta::LocId>(a.locations.size()); ++l) {
    const ta::Location& loc = a.locations[static_cast<std::size_t>(l)];
    if (loc.role == ta::LocRole::kFinal && keep(loc)) {
      out.push_back(es.kappa_slot(false, l, 0));
    }
  }
  return out;
}

/// Does the packed row hold a process in one of `slots`?
bool occupied(std::span<const std::uint16_t> row,
              const std::vector<std::uint32_t>& slots) {
  return std::any_of(slots.begin(), slots.end(),
                     [&](std::uint32_t k) { return row[k] > 0; });
}

/// (C1) on one instance: from every round-entry configuration, whatever the
/// (fair) adversary does, some probabilistic resolution satisfies
/// (G no F_0-state) ∨ (G no F_1-state). The disjunction is path-adaptive —
/// which side stays clean may depend on the adversary's moves — so the game
/// runs on the product of the state graph with "touched" flags.
bool check_c1_instance(const ta::System& rd,
                       const std::vector<long long>& params,
                       std::size_t max_states,
                       const util::CancelSource* cancel) {
  cs::ExplicitSystem es(rd, params, 1);
  cs::StateGraph g(es, es.border_start_configs(), max_states, cancel);
  // Final locations of each value (E_v and D_v).
  const std::vector<std::uint32_t> f0 =
      final_slots(es, [](const ta::Location& l) { return l.value == 0; });
  const std::vector<std::uint32_t> f1 =
      final_slots(es, [](const ta::Location& l) { return l.value == 1; });
  auto touch = [&](std::size_t s) {
    const std::span<const std::uint16_t> row = g.row(s);
    return (occupied(row, f0) ? 1 : 0) | (occupied(row, f1) ? 2 : 0);
  };
  // win(s, flags): the outcome player keeps one side untouched forever.
  std::vector<signed char> memo(g.num_states() * 4, -1);
  std::function<bool(std::size_t, int)> win = [&](std::size_t s,
                                                  int flags) -> bool {
    flags |= touch(s);
    if (flags == 3) return false;
    signed char& m = memo[s * 4 + static_cast<std::size_t>(flags)];
    if (m != -1) return m == 1;
    m = 1;  // DAG: no cycles, safe to pre-set (overwritten below)
    bool ok = true;
    for (const cs::StateGraph::Edge& e : g.edges(s)) {
      const std::span<const std::uint32_t> succ = g.successors(e);
      if (std::none_of(succ.begin(), succ.end(),
                       [&](std::uint32_t t) { return win(t, flags); })) {
        ok = false;
        break;
      }
    }
    m = ok ? 1 : 0;
    return ok;
  };
  for (std::size_t s : g.initial_states()) {
    if (!win(s, 0)) return false;
  }
  return true;
}

/// (C2′) on one instance: if all correct processes start the round with v,
/// then whatever the adversary does, some resolution has every finishing
/// process decide v (no process ever enters F \ D_v).
bool check_c2prime_instance(const ta::System& rd,
                            const std::vector<long long>& params,
                            std::size_t max_states,
                            const util::CancelSource* cancel) {
  cs::ExplicitSystem es(rd, params, 1);
  for (int v : {0, 1}) {
    if (cancel != nullptr) cancel->check();
    // The unique border-start configuration with everyone on value v.
    std::vector<ta::LocId> bv = rd.process.locs_with(ta::LocRole::kBorder, v);
    std::vector<cs::Config> starts;
    for (const cs::Config& c : es.border_start_configs()) {
      long long here = 0;
      for (ta::LocId l : bv) here += es.kappa(c, false, l, 0);
      if (here == es.num_processes()) starts.push_back(c);
    }
    cs::StateGraph g(es, starts, max_states, cancel);
    // bad: some process in a final location other than D_v.
    const std::vector<std::uint32_t> bad_slots =
        final_slots(es, [v](const ta::Location& l) {
          return !(l.decision && l.value == v);
        });
    std::vector<bool> bad(g.num_states());
    for (std::size_t s = 0; s < g.num_states(); ++s) {
      bad[s] = occupied(g.row(s), bad_slots);
    }
    std::vector<bool> win = g.forall_adversary_exists_safe(bad);
    for (std::size_t s : g.initial_states()) {
      if (!win[s]) return false;
    }
  }
  return true;
}

using SweepCheckFn = bool (*)(const ta::System&,
                              const std::vector<long long>&, std::size_t,
                              const util::CancelSource*);

/// Per-obligation deadline (Options::obligation_timeout_s): a CancelSource
/// that combines the shared budget with this one task's wall-clock deadline,
/// armed when the task starts. It lives as a local of run_task (it holds
/// atomics, so it cannot sit in the plan's growing vectors); the
/// `tripped` flag records that THIS deadline — not the shared budget —
/// stopped the work, which is what cut_reason "obligation-timeout" reports.
class TaskDeadline final : public util::CancelSource {
 public:
  TaskDeadline(const schema::SharedBudget& budget, double timeout_s)
      : budget_(&budget),
        start_(Clock::now()),
        timeout_(util::saturating_duration<Clock::duration>(timeout_s)) {}

  [[nodiscard]] bool cancelled() const override {
    if (tripped_.load(std::memory_order_relaxed)) return true;
    if (Clock::now() - start_ > timeout_) {
      tripped_.store(true, std::memory_order_relaxed);
      return true;
    }
    return budget_->cancelled();
  }

  [[nodiscard]] bool tripped() const {
    return tripped_.load(std::memory_order_relaxed);
  }

 private:
  using Clock = std::chrono::steady_clock;
  const schema::SharedBudget* budget_;
  Clock::time_point start_;
  Clock::duration timeout_;
  mutable std::atomic<bool> tripped_{false};
};

/// Containment boundary: turn an exception that escaped an obligation task
/// into the structured taxonomy of ObligationError. Never throws.
ObligationError classify_error(const std::exception_ptr& ep) {
  ObligationError e;
  try {
    std::rethrow_exception(ep);
  } catch (const util::InjectedFault& f) {
    e.kind = "injected-fault";
    e.what = f.what();
    e.site = f.site();
  } catch (const std::bad_alloc& ba) {
    e.kind = "bad-alloc";
    e.what = ba.what();
  } catch (const std::exception& ex) {
    e.kind = "exception";
    e.what = ex.what();
  } catch (...) {
    e.kind = "unknown";
    e.what = "non-standard exception";
  }
  return e;
}

// ---------------------------------------------------------------------------
// Obligation scheduler: every (obligation × sweep-instance) is one task.
//
// Planning pre-creates all Obligation slots in the serial (canonical) order;
// tasks only ever write into their own slot, and the merge phase reads the
// slots back in that order — so report_text is byte-identical no matter
// how many workers ran the tasks or in which order they completed.
// ---------------------------------------------------------------------------

/// How one pool task ended: a parametric check, or one sweep instance.
/// Written only by ProtocolRun::Impl::run_task, the one task boundary.
struct TaskRun {
  /// The body ran at all (the budget was not yet spent when it started).
  bool started = false;
  /// This task's own TaskDeadline tripped (not the shared budget).
  bool timed_out = false;
  /// Scheduler-side wall time around the whole task body; attributes even
  /// budget-cancelled work (check_spec's own seconds die with the throw).
  double seconds = 0.0;
  /// A contained non-Cancelled exception.
  std::exception_ptr error;
};

struct ParametricTask {
  PropertyResult* prop = nullptr;
  std::size_t slot = 0;
  const ta::System* sys = nullptr;
  spec::Spec spec;
  std::optional<schema::CheckResult> result;
  TaskRun run;
  /// Content address of this obligation (set when Options.cache is present
  /// or keys were requested); cache_hit means `result` was decoded from the
  /// cache at plan time and no task was created for this slot.
  std::string cache_key;
  bool cache_hit = false;
};

struct SweepTask {
  PropertyResult* prop = nullptr;
  std::size_t slot = 0;
  SweepCheckFn check = nullptr;
  const protocols::ProtocolModel* pm = nullptr;
  const ta::System* sys = nullptr;
  /// Per instance: its task record, and the game's answer (empty unless
  /// the check returned).
  std::vector<TaskRun> runs;
  std::vector<std::optional<bool>> answers;
  /// Content address / cached merged verdict; when `cached` is set none of
  /// the instance tasks are created and merge applies the verdict directly.
  std::string cache_key;
  std::optional<svc::SweepVerdict> cached;
};

struct Plan {
  std::vector<ParametricTask> checks;
  std::vector<SweepTask> sweeps;
  /// (is_sweep, index into checks/sweeps) in canonical obligation order.
  std::vector<std::pair<bool, std::size_t>> order;

  void add_check(PropertyResult& prop, const ta::System& sys,
                 spec::Spec spec) {
    ParametricTask& t = checks.emplace_back();
    t.prop = &prop;
    t.slot = open_slot(prop, spec.name, /*parametric=*/true);
    t.sys = &sys;
    t.spec = std::move(spec);
    order.emplace_back(false, checks.size() - 1);
  }

  void add_sweep(PropertyResult& prop, const std::string& name,
                 const protocols::ProtocolModel& pm, const ta::System& sys,
                 SweepCheckFn check) {
    SweepTask& t = sweeps.emplace_back();
    t.prop = &prop;
    t.slot = open_slot(prop, name, /*parametric=*/false);
    t.check = check;
    t.pm = &pm;
    t.sys = &sys;
    t.runs.resize(pm.sweep_params.size());
    t.answers.resize(pm.sweep_params.size());
    order.emplace_back(true, sweeps.size() - 1);
  }

  /// Appends `prop`'s next obligation slot and returns its index.
  static std::size_t open_slot(PropertyResult& prop, const std::string& name,
                               bool parametric) {
    Obligation o;
    o.name = name;
    o.parametric = parametric;
    prop.obligations.push_back(std::move(o));
    return prop.obligations.size() - 1;
  }
};

std::string instance_tag(const std::vector<long long>& params) {
  std::string tag = "(";
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i > 0) tag += ",";
    tag += std::to_string(params[i]);
  }
  tag += ")";
  return tag;
}

}  // namespace

bool PropertyResult::holds() const {
  for (const Obligation& o : obligations) {
    if (!o.holds) return false;
  }
  return !obligations.empty();
}

bool PropertyResult::has_counterexample() const {
  for (const Obligation& o : obligations) {
    if (!o.holds && !o.ce.empty()) return true;
  }
  return false;
}

bool PropertyResult::inconclusive() const {
  for (const Obligation& o : obligations) {
    if (!o.holds && o.ce.empty()) return true;
  }
  return false;
}

bool PropertyResult::has_error() const {
  for (const Obligation& o : obligations) {
    if (o.error) return true;
  }
  return false;
}

long long PropertyResult::nschemas() const {
  long long n = 0;
  for (const Obligation& o : obligations) n += o.nschemas;
  return n;
}

double PropertyResult::seconds() const {
  double s = 0;
  for (const Obligation& o : obligations) s += o.seconds;
  return s;
}

bool ProtocolReport::planned_hold() const {
  bool any = false;
  for (const PropertyResult* p : {&agreement, &validity, &termination}) {
    if (p->obligations.empty()) continue;
    if (!p->holds()) return false;
    any = true;
  }
  return any;
}

std::string PropertyResult::failure() const {
  for (const Obligation& o : obligations) {
    if (!o.holds && !o.ce.empty()) return o.name + ": " + o.ce;
  }
  return {};
}

// ---------------------------------------------------------------------------
// ProtocolRun::Impl: everything one protocol's tasks reference, owned by the
// handle so runs submitted to a shared pool outlive the submitting call.
// ---------------------------------------------------------------------------
struct ProtocolRun::Impl {
  protocols::ProtocolModel pm;  // owned copy: tasks reference sweep_params
  Options opts;
  ProtocolReport report;
  ta::System rd, rd_prob;
  std::optional<ta::System> rdr;
  Plan plan;
  // One budget for the whole protocol: --time-budget / --max-schemas trip
  // every in-flight sibling via the shared cancel token. The deadline arms
  // itself when the first task starts, so a protocol queued behind its
  // siblings on a shared pool loses nothing while waiting.
  schema::SharedBudget budget;
  schema::CheckOptions task_opts;
  std::vector<std::function<void()>> tasks;
  util::TaskGroup group;
  bool finished = false;
  /// Protocol trace span: opened at planning time, closed (emitted) by
  /// merge(). Not an RAII Span because the async run's open and close
  /// straddle verify_protocol_async's return.
  std::int64_t proto_start_ns = -1;

  Impl(const protocols::ProtocolModel& pm_in, const Options& opts_in)
      : pm(pm_in),
        opts(opts_in),
        budget(opts_in.schema.max_schemas, opts_in.schema.time_budget_s,
               opts_in.schema.max_rss_mb) {}

  void plan_all() {
    if (obs::trace_enabled()) proto_start_ns = obs::now_ns();
    report.protocol = pm.name;
    report.category = pm.category;
    report.n_locations = pm.system.total_locations();
    report.n_rules = pm.system.total_rules();

    CTAVER_LOG(kDebug) << pm.name << ": lowering to the single-round system";
    rd = ta::single_round(ta::nonprobabilistic(pm.system));
    // Probabilistic single-round system for the (C1)/(C2′) games: the coin
    // toss must stay a probabilistic branch (resolved by the ∃-path
    // player), not become an adversary choice.
    rd_prob = ta::single_round(pm.system);
    // Premise of Theorem 2: all fair executions of Sys0 terminate.
    if (!ta::validate_single_round(rd).empty()) {
      throw std::invalid_argument(pm.name +
                                  ": single-round system is not a DAG modulo "
                                  "self-loops; Theorem 2 does not apply");
    }

    // Options.only_obligations: skip unlisted obligations entirely — no
    // report slot, no budget charge (how `ctaver check` targets exactly the
    // spec-declared surface). Names outside the category's vocabulary are
    // an error, not an empty plan: an empty plan renders as "everything
    // verified", which a typo must never produce. Validation is against the
    // FULL vocabulary, not this run's plan — `check --no-sweeps` passing a
    // sweep name is a legitimate skip, not a typo.
    if (!opts.only_obligations.empty()) {
      std::vector<std::string> known = protocols::obligation_names(pm.category);
      for (const std::string& name : opts.only_obligations) {
        if (std::find(known.begin(), known.end(), name) == known.end()) {
          throw std::invalid_argument(
              pm.name + ": unknown obligation '" + name +
              "' (valid for this category: " + util::join(known, ", ") + ")");
        }
      }
    }
    auto planned = [&](const std::string& name) {
      return opts.only_obligations.empty() ||
             std::find(opts.only_obligations.begin(),
                       opts.only_obligations.end(),
                       name) != opts.only_obligations.end();
    };
    auto add_check = [&](PropertyResult& prop, const ta::System& sys,
                         spec::Spec spec) {
      if (planned(spec.name)) plan.add_check(prop, sys, std::move(spec));
    };
    auto add_sweep = [&](PropertyResult& prop, const std::string& name,
                         const ta::System& sys, SweepCheckFn check) {
      if (planned(name)) plan.add_sweep(prop, name, pm, sys, check);
    };

    // Agreement and Validity via the round invariants (Prop. 1).
    for (int v : {0, 1}) {
      add_check(report.agreement, rd, spec::inv1(rd, v));
      add_check(report.validity, rd, spec::inv2(rd, v));
    }

    // Almost-sure termination: category-specific sufficient conditions.
    switch (pm.category) {
      case Category::kA: {
        for (int v : {0, 1}) {
          add_check(report.termination, rd, spec::c2(rd, v));
        }
        if (opts.run_sweeps) {
          add_sweep(report.termination, "C1", rd_prob, &check_c1_instance);
        }
        break;
      }
      case Category::kB: {
        if (opts.run_sweeps) {
          add_sweep(report.termination, "C1", rd_prob, &check_c1_instance);
          add_sweep(report.termination, "C2'", rd_prob,
                    &check_c2prime_instance);
        }
        break;
      }
      case Category::kC: {
        rdr.emplace(ta::single_round(ta::nonprobabilistic(pm.refined())));
        struct CB {
          const char* name;
          const std::string* from;
          const std::string* forbid;
        };
        const CB cbs[] = {
            {"CB0", &pm.m0_loc, &pm.m1_loc}, {"CB1", &pm.m1_loc, &pm.m0_loc},
            {"CB2", &pm.n0_loc, &pm.m1_loc}, {"CB3", &pm.n1_loc, &pm.m0_loc},
        };
        for (const CB& cb : cbs) {
          add_check(report.termination, *rdr,
                    spec::binding(*rdr, cb.name, *cb.from, *cb.forbid));
        }
        // CB4 forbids both M0 and M1 after N⊥.
        spec::Spec cb4 = spec::binding(*rdr, "CB4", pm.nbot_loc, pm.m0_loc);
        cb4.conclusion = spec::LocSet::process(
            {rdr->process.find_loc(pm.m0_loc),
             rdr->process.find_loc(pm.m1_loc)});
        add_check(report.termination, *rdr, std::move(cb4));
        if (opts.run_sweeps) {
          add_sweep(report.termination, "C2'", rd_prob,
                    &check_c2prime_instance);
        }
        break;
      }
    }

    task_opts = opts.schema;
    task_opts.budget = &budget;
    if (opts.cache != nullptr) {
      compute_cache_keys();
      probe_cache();
    }
    // Default to one enumeration worker per obligation task: the obligation
    // scheduler is the outer parallelism dial. An explicit workers > 1 adds
    // within-obligation partitioned enumeration; either way every check
    // merges canonically, so reports stay byte-identical across all
    // (jobs, workers) combinations.
    if (task_opts.workers == 0) task_opts.workers = 1;

    // Task closures, in canonical order (all referenced vectors are final
    // from here on, so the captured references stay valid). Every body runs
    // inside run_task, the one task boundary.
    for (const auto& [is_sweep, idx] : plan.order) {
      if (!is_sweep) {
        ParametricTask& t = plan.checks[idx];
        if (t.cache_hit) continue;  // verdict already decoded at probe time
        tasks.push_back([this, &t]() {
          run_task(t.run, t.spec.name, [&](const TaskDeadline* deadline) {
            schema::CheckOptions topts = task_opts;
            if (deadline != nullptr) topts.extra_cancel = deadline;
            t.result = schema::check_spec(*t.sys, t.spec, topts);
          });
          if (t.result && t.result->complete) {
            durable(t.spec.name, t.cache_key,
                    [&t] { return svc::encode_check(*t.result); });
          }
        });
      } else {
        SweepTask& t = plan.sweeps[idx];
        if (t.cached) continue;  // merged verdict replays from the cache
        for (std::size_t i = 0; i < t.runs.size(); ++i) {
          tasks.push_back([this, &t, i]() {
            const std::string name = t.prop->obligations[t.slot].name + "[" +
                                     std::to_string(i) + "]";
            run_task(t.runs[i], name, [&](const TaskDeadline* deadline) {
              // The budget itself is the cancel source (wrapped by the
              // deadline when one is set), so a long state-graph build
              // notices an expired deadline, not just a tripped flag.
              const util::CancelSource* cs = &budget;
              if (deadline != nullptr) cs = deadline;
              t.answers[i] = t.check(*t.sys, t.pm->sweep_params[i],
                                     opts.max_states, cs);
            });
          });
        }
      }
    }
    obs::add(obs::Counter::kVerifyTasksPlanned,
             static_cast<std::uint64_t>(tasks.size()));
    CTAVER_LOG(kInfo) << pm.name << ": planned " << plan.order.size()
                      << " obligation(s) as " << tasks.size() << " task(s)";
  }

  /// The one task boundary, for parametric checks and sweep instances
  /// alike: an "obligation" trace span, a scheduler-side stopwatch whose
  /// reading survives budget cancellation (this is where per-obligation
  /// wall time attribution comes from), the per-obligation deadline
  /// (passed to `body`, null when off), and containment. `body` runs only
  /// while the shared budget lasts. A non-Cancelled exception stops THIS
  /// task only: it must never touch the shared budget — that would cancel
  /// innocent siblings and change their report bytes.
  void run_task(TaskRun& run, const std::string& name,
                const std::function<void(const TaskDeadline*)>& body) {
    obs::Span span("obligation");
    if (span.active()) {
      span.args("\"protocol\":\"" + obs::json_escape(pm.name) +
                "\",\"obligation\":\"" + obs::json_escape(name) + "\"");
    }
    util::Stopwatch w;
    std::optional<TaskDeadline> dl;
    try {
      if (!budget.exhausted()) {  // else the slot stays inconclusive
        run.started = true;
        if (opts.obligation_timeout_s > 0) {
          dl.emplace(budget, opts.obligation_timeout_s);
        }
        body(dl ? &*dl : nullptr);
      }
    } catch (const util::Cancelled&) {
    } catch (...) {
      run.error = std::current_exception();
    }
    run.timed_out = dl && dl->tripped();
    run.seconds = w.seconds();
    obs::add(obs::Counter::kVerifyTasksDone);
    obs::add(obs::Counter::kVerifyObligationMicros,
             static_cast<std::uint64_t>(run.seconds * 1e6));
    obs::observe(obs::Histogram::kObligationMillis,
                 static_cast<std::uint64_t>(run.seconds * 1e3));
  }

  /// The one durability hook: a complete verdict becomes a cache entry and
  /// a journal record the moment it exists — a check when its task ends, a
  /// sweep at merge, a cache hit at probe time — so a crash mid-protocol
  /// keeps every finished obligation durable for --resume. `payload`
  /// encodes the entry to store; it is empty for a hit, which the cache
  /// already holds. Never throws: a failure here degrades crash safety,
  /// never the run (merge reads the task slots, not the cache).
  void durable(const std::string& name, const std::string& key,
               const std::function<std::string()>& payload) noexcept {
    if (opts.cache == nullptr) return;
    try {
      if (payload) opts.cache->store(key, payload());
      if (opts.journal != nullptr) {
        opts.journal->obligation_done(opts.journal_run, name, key,
                                      /*cached=*/!payload);
      }
    } catch (...) {
    }
  }

  /// The one run-state rule, for every slot: run_state from the verdict
  /// fields merge has set (before any counterexample replay, whose failure
  /// keeps the run_state), and why an incomplete slot stopped.
  void settle(Obligation& o, bool started, bool timed_out) const {
    o.run_state = o.error      ? Obligation::RunState::kError
                  : o.complete ? Obligation::RunState::kComplete
                  : started    ? Obligation::RunState::kCancelled
                               : Obligation::RunState::kSkipped;
    if (o.run_state == Obligation::RunState::kCancelled ||
        o.run_state == Obligation::RunState::kSkipped) {
      o.cut_reason = timed_out ? "obligation-timeout" : budget.reason_str();
    }
    if (timed_out) obs::add(obs::Counter::kWatchdogTimeoutCuts);
  }

  /// Content address of every planned obligation (cache probes and
  /// `ctaver hash`). The lowered-system fingerprint is computed once per
  /// distinct system (rd / rd_prob / rdr) and shared across its
  /// obligations' keys.
  void compute_cache_keys() {
    std::map<const ta::System*, std::string> fps;
    auto fp = [&](const ta::System* sys) -> const std::string& {
      auto it = fps.find(sys);
      if (it == fps.end()) {
        it = fps.emplace(sys, system_fingerprint(*sys)).first;
      }
      return it->second;
    };
    for (ParametricTask& t : plan.checks) {
      t.cache_key = parametric_cache_key(fp(t.sys), t.spec, task_opts);
    }
    for (SweepTask& t : plan.sweeps) {
      t.cache_key =
          sweep_cache_key(fp(t.sys), t.prop->obligations[t.slot].name,
                          pm.sweep_params, opts.max_states);
    }
  }

  /// Probes Options.cache for every planned obligation. A hit parks the
  /// decoded verdict on the task so no closure is created for it; a
  /// checksum-valid payload that still fails to decode (incompatible codec)
  /// is invalidated and treated as a miss.
  void probe_cache() {
    auto probe = [this](const std::string& name, const std::string& key,
                        auto decode, auto& verdict) {
      std::optional<std::string> p = opts.cache->lookup(key);
      if (!p) return;
      verdict = decode(*p);
      // A hit is already durable — journal it now so a crash before merge
      // still credits this obligation to the run.
      if (verdict) {
        durable(name, key, nullptr);
      } else {
        opts.cache->invalidate(key);
      }
    };
    for (ParametricTask& t : plan.checks) {
      probe(t.spec.name, t.cache_key, svc::decode_check, t.result);
      t.cache_hit = t.result.has_value();
    }
    for (SweepTask& t : plan.sweeps) {
      probe(t.prop->obligations[t.slot].name, t.cache_key, svc::decode_sweep,
            t.cached);
    }
  }

  /// Abandoned before finish(): drop the queued tasks and wait out the
  /// in-flight ones, which reference this Impl.
  void abandon() {
    if (!finished) {
      budget.cancel.cancel();
      group.wait();
    }
  }

  /// A sweep's verdict from its instances, in canonical instance order.
  void merge_sweep(SweepTask& t) {
    Obligation& o = t.prop->obligations[t.slot];
    o.holds = true;
    o.complete = true;
    bool any_started = false;
    bool timed_out = false;
    std::vector<std::string> swept;
    std::vector<std::string> failed;
    for (std::size_t i = 0; i < t.runs.size(); ++i) {
      const TaskRun& run = t.runs[i];
      any_started = any_started || run.started;
      timed_out = timed_out || run.timed_out;
      o.seconds += run.seconds;
      std::string tag = instance_tag(t.pm->sweep_params[i]);
      if (run.error) {
        // Contained internal failure in this instance: the sweep is
        // inconclusive (never a proof or refutation over the other
        // instances); the canonically-first error is the one reported.
        swept.push_back(tag + "=ERROR");
        o.holds = false;
        o.complete = false;
        if (!o.error) {
          o.error = classify_error(run.error);
          obs::add(obs::Counter::kVerifyObligationErrors);
        }
      } else if (!t.answers[i]) {
        // Budget-cancelled before (or while) this instance ran: the sweep
        // is inconclusive, never a refutation.
        swept.push_back(tag + "=SKIP");
        o.holds = false;
        o.complete = false;
      } else if (!*t.answers[i]) {
        swept.push_back(tag + "=FAIL");
        failed.push_back(std::move(tag));
        o.holds = false;
      } else {
        swept.push_back(std::move(tag));
      }
    }
    settle(o, any_started, timed_out);
    o.detail = "instances " + util::join(swept, " ");
    if (!failed.empty()) {
      o.ce = "failing instances " + util::join(failed, " ");
    }
  }

  ProtocolReport merge() {
    finished = true;
    // Deterministic merge, in canonical slot order. Task errors never
    // escape: each becomes a structured ObligationError on its own slot
    // (run_state kError, verdict inconclusive), so the run completes and
    // every unaffected obligation's report bytes match an error-free run.
    for (ParametricTask& t : plan.checks) {
      Obligation& o = t.prop->obligations[t.slot];
      if (t.run.error) {
        o.error = classify_error(t.run.error);
        obs::add(obs::Counter::kVerifyObligationErrors);
      } else if (t.result) {
        o = from_check(o.name, *t.result);
        o.cached = t.cache_hit;
      }
      // Table-II time columns come from the scheduler-side task timer, so
      // budget-cancelled obligations are attributable too (a cache hit
      // reads 0 — no work was done).
      o.seconds = t.run.seconds;
      settle(o, t.run.started, t.run.timed_out);
      if (opts.replay_ce && o.ce_data) {
        // Close the loop: concretize the schema counterexample and step it
        // through the explicit semantics. Replay is deterministic, so this
        // keeps reports byte-identical across jobs widths. Replay runs here
        // on the merge thread, so it gets its own containment boundary: a
        // replay failure keeps the (trustworthy) schema verdict and
        // run_state, loses only the replay summary, and still drives the
        // exit code to 3 via `error`.
        try {
          replay::ReplayReport rr =
              replay::replay_counterexample(*t.sys, t.spec, *o.ce_data);
          o.replay = rr.detail;
          o.replay_ok = rr.ok();
        } catch (const util::Cancelled&) {
          o.replay = "replay cancelled";
          o.replay_ok = false;
        } catch (...) {
          o.error = classify_error(std::current_exception());
          o.replay = "replay failed (contained): " + o.error->what;
          o.replay_ok = false;
          obs::add(obs::Counter::kVerifyObligationErrors);
        }
      }
    }
    for (SweepTask& t : plan.sweeps) {
      Obligation& o = t.prop->obligations[t.slot];
      if (t.cached) {
        // Replay the cached merged verdict; the fields below are exactly
        // what merge_sweep leaves on a complete sweep, so every rendered
        // byte matches a cold run (nschemas stays 0, seconds read 0).
        o.holds = t.cached->holds;
        o.complete = t.cached->complete;
        o.ce = t.cached->ce;
        o.detail = t.cached->detail;
        o.cached = true;  // journaled at probe time, like parametric hits
        settle(o, false, false);
        continue;
      }
      merge_sweep(t);
      if (o.complete) {
        durable(o.name, t.cache_key, [&o] {
          return svc::encode_sweep({o.holds, o.complete, o.ce, o.detail});
        });
      }
    }

    int cancelled = 0, skipped = 0, errored = 0;
    for (const PropertyResult* prop :
         {&report.agreement, &report.validity, &report.termination}) {
      for (const Obligation& o : prop->obligations) {
        if (o.run_state == Obligation::RunState::kCancelled) ++cancelled;
        if (o.run_state == Obligation::RunState::kSkipped) ++skipped;
        if (o.error) ++errored;
      }
    }
    if (cancelled + skipped > 0) {
      CTAVER_LOG(kInfo) << pm.name << ": budget exhausted after "
                        << budget.used() << " schema charge(s) — "
                        << cancelled << " obligation(s) cut mid-run, "
                        << skipped << " never started";
    }
    if (errored > 0) {
      CTAVER_LOG(kWarn) << pm.name << ": " << errored
                        << " obligation(s) hit a contained internal error";
    }
    if (budget.reason() == schema::SharedBudget::CutReason::kMemory) {
      obs::add(obs::Counter::kWatchdogMemoryCuts);
    }
    obs::add(obs::Counter::kVerifyProtocols);
    if (proto_start_ns >= 0) {
      obs::Tracer::global().emit(
          "protocol", proto_start_ns, obs::now_ns(),
          "\"protocol\":\"" + obs::json_escape(pm.name) + "\"");
    }
    return std::move(report);
  }
};

ProtocolRun::ProtocolRun() = default;
ProtocolRun::ProtocolRun(ProtocolRun&&) noexcept = default;

ProtocolRun& ProtocolRun::operator=(ProtocolRun&& other) noexcept {
  if (this != &other) {
    if (impl_) impl_->abandon();  // the overwritten run's tasks use its Impl
    impl_ = std::move(other.impl_);
  }
  return *this;
}

ProtocolRun::~ProtocolRun() {
  if (impl_) impl_->abandon();
}

ProtocolReport ProtocolRun::finish() {
  if (!impl_ || impl_->finished) {
    throw std::logic_error("ProtocolRun::finish: no pending run");
  }
  impl_->group.wait();
  return impl_->merge();
}

ProtocolRun verify_protocol_async(const protocols::ProtocolModel& pm,
                                  const Options& opts,
                                  util::ThreadPool& pool) {
  ProtocolRun run;
  run.impl_ = std::make_unique<ProtocolRun::Impl>(pm, opts);
  run.impl_->plan_all();
  // Enumeration workers (schema.workers > 1) run on this same pool: the
  // submitting obligation task acts as worker 0 and drains its own
  // enumeration tasks while waiting, so the two parallelism levels share
  // the pool's width instead of multiplying it.
  run.impl_->task_opts.pool = &pool;
  for (auto& task : run.impl_->tasks) {
    pool.submit(task, run.impl_->budget.cancel, &run.impl_->group);
  }
  return run;
}

ProtocolReport verify_protocol(const protocols::ProtocolModel& pm,
                               const Options& opts) {
  int jobs = opts.jobs > 0 ? opts.jobs : util::ThreadPool::hardware_workers();
  if (jobs <= 1) {
    // Inline serial mode: no pool, fully deterministic task order.
    auto impl = std::make_unique<ProtocolRun::Impl>(pm, opts);
    impl->plan_all();
    for (const auto& task : impl->tasks) task();
    return impl->merge();
  }
  util::ThreadPool pool(jobs);
  return verify_protocol_async(pm, opts, pool).finish();
}

std::vector<ObligationKey> obligation_cache_keys(
    const protocols::ProtocolModel& pm, const Options& opts) {
  Options o = opts;
  o.cache = nullptr;  // keys only — never probe or store
  auto impl = std::make_unique<ProtocolRun::Impl>(pm, o);
  impl->plan_all();
  impl->compute_cache_keys();
  std::vector<ObligationKey> out;
  for (const auto& [is_sweep, idx] : impl->plan.order) {
    if (is_sweep) {
      const SweepTask& t = impl->plan.sweeps[idx];
      out.push_back({t.prop->obligations[t.slot].name, false, t.cache_key});
    } else {
      const ParametricTask& t = impl->plan.checks[idx];
      out.push_back({t.spec.name, true, t.cache_key});
    }
  }
  return out;
}

std::string obligation_line(const Obligation& o) {
  const char* suffix = "";
  switch (o.run_state) {
    case Obligation::RunState::kComplete: suffix = ""; break;
    case Obligation::RunState::kCancelled: suffix = ", budget-limited"; break;
    case Obligation::RunState::kSkipped: suffix = ", skipped (budget)"; break;
    case Obligation::RunState::kError: suffix = ", error"; break;
  }
  std::string out = o.name + ": " +
                    (o.holds ? "ok" : o.error ? "ERROR" : "FAIL") + " [" +
                    (o.parametric ? "parametric" : "sweep") + suffix;
  if (!o.cut_reason.empty()) out += " (reason=" + o.cut_reason + ")";
  out += "]";
  if (o.nschemas > 0) out += " " + std::to_string(o.nschemas) + " schemas";
  return out;
}

std::string error_brief(const ObligationError& e) {
  std::string out = "kind=" + e.kind;
  if (!e.site.empty()) out += " site=" + e.site;
  return out + " what=" + e.what;
}

std::string report_text(const ProtocolReport& r) {
  std::string out = "== " + r.protocol + " " +
                    protocols::category_str(r.category) +
                    " |L|=" + std::to_string(r.n_locations) +
                    " |R|=" + std::to_string(r.n_rules) + "\n";
  auto property = [&out](const char* title, const PropertyResult& pr) {
    out += std::string("  ") + title + ": " +
           (pr.obligations.empty()    ? "not checked"
            : pr.holds()              ? "holds"
            : pr.has_counterexample() ? "COUNTEREXAMPLE"
                                      : "inconclusive") +
           "\n";
    for (const Obligation& o : pr.obligations) {
      out += "    " + obligation_line(o) + "\n";
      if (o.error) {
        out += "      contained error: " + error_brief(*o.error) + "\n";
      }
      if (!o.ce.empty()) out += "      " + o.ce + "\n";
      if (!o.detail.empty()) out += "      " + o.detail + "\n";
      if (!o.replay.empty()) out += "      replay " + o.replay + "\n";
    }
  };
  property("Agreement", r.agreement);
  property("Validity", r.validity);
  property("Almost-sure termination", r.termination);
  return out + table2_row(r, /*timed=*/false) + "\n";
}

std::vector<schema::CheckResult::WorkerStat> worker_stats(
    const ProtocolReport& report) {
  std::vector<schema::CheckResult::WorkerStat> slots;
  for (const PropertyResult* p :
       {&report.agreement, &report.validity, &report.termination}) {
    for (const Obligation& o : p->obligations) {
      if (o.per_worker.size() > slots.size()) {
        slots.resize(o.per_worker.size());
      }
      for (std::size_t w = 0; w < o.per_worker.size(); ++w) {
        slots[w].units += o.per_worker[w].units;
        slots[w].pivots += o.per_worker[w].pivots;
      }
    }
  }
  return slots;
}

std::string table2_header(bool timed) {
  std::ostringstream os;
  os << util::pad_right("Name", 12) << util::pad_right("cat", 5)
     << util::pad_left("|L|", 5) << util::pad_left("|R|", 5) << "  ";
  std::size_t width = 13;
  for (const char* prop : {"agr", "val", "ast"}) {
    os << util::pad_left(std::string(prop) + "-nschemas", width);
    if (timed) os << util::pad_left(std::string(prop) + "-time", 10);
    width = 14;
  }
  os << "  verdict";
  return os.str();
}

std::string table2_row(const ProtocolReport& r, bool timed) {
  std::ostringstream os;
  os << util::pad_right(r.protocol, 12)
     << util::pad_right(protocols::category_str(r.category), 5)
     << util::pad_left(std::to_string(r.n_locations), 5)
     << util::pad_left(std::to_string(r.n_rules), 5) << "  ";
  std::size_t width = 13;
  for (const PropertyResult* prop :
       {&r.agreement, &r.validity, &r.termination}) {
    os << util::pad_left(std::to_string(prop->nschemas()), width);
    if (timed) {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%.2f", prop->seconds());
      os << util::pad_left(buf, 10);
    }
    width = 14;
  }
  os << "  ";
  int errors = 0;
  for (const PropertyResult* prop :
       {&r.agreement, &r.validity, &r.termination}) {
    for (const Obligation& o : prop->obligations) {
      if (o.error) ++errors;
    }
  }
  if (errors > 0) {
    // Contained internal errors take the verdict face (matching the exit-
    // code precedence 3 > 1): the run is incomplete-by-failure, so neither
    // "verified" nor "CE" would be trustworthy as the row's last word.
    os << "ERROR (" << errors << " contained)";
  } else if (r.agreement.holds() && r.validity.holds() &&
             r.termination.holds()) {
    os << "verified";
  } else if (r.agreement.has_counterexample() ||
             r.validity.has_counterexample() ||
             r.termination.has_counterexample()) {
    os << "CE";
  } else {
    // Attribute the shortfall: obligations cut down mid-run burned real
    // time (see their time columns), skipped ones never got a slot. When
    // nothing failed (a cut or skipped obligation never holds), the run is
    // only partial: the plan (only_obligations, or no sweeps) left some
    // properties without an obligation.
    int cancelled = 0, skipped = 0, failed = 0, unchecked = 0;
    for (const PropertyResult* prop :
         {&r.agreement, &r.validity, &r.termination}) {
      if (prop->obligations.empty()) ++unchecked;
      for (const Obligation& o : prop->obligations) {
        if (o.run_state == Obligation::RunState::kCancelled) ++cancelled;
        if (o.run_state == Obligation::RunState::kSkipped) ++skipped;
        if (!o.holds) ++failed;
      }
    }
    if (failed == 0) {
      os << "partial (" << unchecked << " not checked)";
    } else {
      os << "budget-limited";
      if (cancelled + skipped > 0) {
        os << " (" << cancelled << " cut, " << skipped << " skipped)";
      }
    }
  }
  return os.str();
}

}  // namespace ctaver::verify
