// The three ctabench workloads, their correctness gate, and the traced run.
//
//   catc-proof      fixed, complete category-(C) obligation set: the schema
//                   checker and LIA solver do nearly all the work, plus the
//                   counterexample re-solve and replay path (MMR14 CB2/CB3).
//   catab-sweeps    full verification of the category-(A)/(B) protocols;
//                   the explicit-state (C1)/(C2') sweep games dominate.
//   cache-reverify  closed loop, one client, re-verifying specs against a
//                   warm --cache-dir snapshot (about 9 reads to 1 write).
//
// Every workload repeats a fixed unit of work (a "pass"; for cache-reverify
// an "episode" of requests started from a fresh copy of the cache snapshot)
// until the measuring time is up and reports medians over the units.
//
// A traced run (Config::trace) alternates untraced and traced units. Traced
// units enable the library's metrics registry (counters only) and record
// bench-side spans around the public calls. Layers reached only inside
// verify_protocol are then timed by calling their public entry point
// standalone on the same inputs: check_spec per obligation, StateGraph per
// sweep instance, replay_counterexample per counterexample, and
// ProofCache::lookup/store.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <regex>
#include <sstream>
#include <stdexcept>

#include "bench.h"
#include "cs/explicit_system.h"
#include "cs/state_graph.h"
#include "frontend/registry.h"
#include "obs/metrics.h"
#include "replay/replay.h"
#include "schema/checker.h"
#include "spec/spec.h"
#include "svc/journal.h"
#include "svc/proof_cache.h"
#include "ta/transforms.h"
#include "util/thread_pool.h"
#include "verify/pipeline.h"

namespace ctabench {
namespace {

namespace fs = std::filesystem;
namespace verify = ctaver::verify;
namespace spec = ctaver::spec;
using ctaver::frontend::ProtocolRegistry;
using ctaver::protocols::Category;
using ctaver::protocols::ProtocolModel;
using ctaver::util::ThreadPool;
using Metrics = std::map<std::string, double>;

// Set-up is repeated and its median reported. Parsing the specs takes
// milliseconds, warming the cache seconds.
constexpr int kProofSetupReps = 200;
constexpr int kReverifySetupReps = 3;
// Repetitions of the millisecond-scale standalone timings.
constexpr int kAttributionReps = 5;

// One cache-reverify episode: every spec read this often (every second read
// after a comment-only edit), every write target rewritten this often.
constexpr int kReadsPerSpec = 9;
constexpr int kWritesPerTarget = 3;

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

struct Target {
  const char* file;
  /// Obligations to plan (verify::Options::only_obligations); empty = all.
  std::vector<std::string> only;
};

const std::vector<Target>& catc_targets() {
  // ABY22 without CB4 (its 169,723-schema proof alone would exceed a run)
  // and without the value-mirrored Inv1/Inv2(v=1), CB1 and CB3, whose
  // schema trees repeat those of v=0, CB0 and CB2. MMR14 without CB4, which
  // does not complete within a run either; CB2/CB3 are refuted and their
  // counterexamples re-solved, minimized and replayed.
  static const std::vector<Target> t = {
      {"aby22.cta", {"Inv1(v=0)", "Inv2(v=0)", "CB0", "CB2", "C2'"}},
      {"mmr14.cta",
       {"Inv1(v=0)", "Inv1(v=1)", "Inv2(v=0)", "Inv2(v=1)", "CB0", "CB1",
        "CB2", "CB3", "C2'"}},
  };
  return t;
}

const std::vector<Target>& catab_targets() {
  static const std::vector<Target> t = {{"rabin83.cta", {}},
                                        {"cc85a.cta", {}},
                                        {"cc85b.cta", {}},
                                        {"fmr05.cta", {}},
                                        {"ks16.cta", {}}};
  return t;
}

// The cheap specs the cache is warmed with, and the ones writes edit: their
// sweep games take milliseconds, so a write costs a re-proof and a store,
// not a long game.
const std::vector<Target>& reverify_targets() {
  static const std::vector<Target> t = {
      {"naive_voting.cta", {}}, {"rabin83.cta", {}}, {"cc85a.cta", {}},
      {"cc85b.cta", {}},        {"fmr05.cta", {}},   {"ks16.cta", {}}};
  return t;
}
bool is_write_target(const std::string& file) {
  return file == "naive_voting.cta" || file == "cc85a.cta";
}

std::string spec_path(const Config& cfg, const std::string& file) {
  return cfg.root + "/specs/" + file;
}

verify::Options base_options(const Config& cfg) {
  verify::Options o;
  o.jobs = cfg.jobs;
  o.schema.workers = cfg.workers;
  // Room enough that no obligation is ever cut, so every unit does equal
  // work (the schema cap stays at its 5M default).
  o.schema.time_budget_s = 3600;
  return o;
}

struct Model {
  ProtocolModel pm;
  verify::Options opts;
};

/// Set-up: build the registry, then parse and lower every spec.
std::vector<Model> load(const Config& cfg, const std::vector<Target>& targets,
                        bool replay_ce, double* parse_lower_s) {
  ProtocolRegistry registry = ProtocolRegistry::with_builtins();
  std::vector<Model> models;
  *parse_lower_s = 0;
  for (const Target& t : targets) {
    const double t0 = now_s();
    const std::string name = registry.add_file(spec_path(cfg, t.file));
    *parse_lower_s += now_s() - t0;
    Model m{registry.make(name), base_options(cfg)};
    m.opts.only_obligations = t.only;
    m.opts.replay_ce = replay_ce;
    models.push_back(std::move(m));
  }
  return models;
}

// ---------------------------------------------------------------------------
// Correctness gate
// ---------------------------------------------------------------------------

template <typename F>
void for_each_obligation(const verify::ProtocolReport& r, F&& f) {
  for (const verify::PropertyResult* p :
       {&r.agreement, &r.validity, &r.termination}) {
    for (const verify::Obligation& o : p->obligations) f(o);
  }
}

/// Why `o` fails the gate, or "" when it passes: a contained ERROR, an
/// inconclusive verdict, a verdict other than the spec's `expect`, or a
/// counterexample the replay engine could not confirm.
std::string verdict_problem(const verify::Obligation& o, const Model& m) {
  if (o.error) return "ERROR (" + o.error->kind + ": " + o.error->what + ")";
  if (!o.complete) return "inconclusive";
  for (const ctaver::protocols::ExpectedVerdict& e : m.pm.expects) {
    if (e.obligation == o.name && e.violated == o.holds) {
      return std::string("expected ") + (e.violated ? "violated" : "holds") +
             ", got " + (o.holds ? "holds" : "violated");
    }
  }
  if (m.opts.replay_ce && o.ce_data && !o.replay_ok) {
    return "counterexample replay did not confirm";
  }
  return "";
}

bool same(const ObligationRecord& a, const ObligationRecord& b) {
  return a.protocol == b.protocol && a.name == b.name && a.line == b.line &&
         a.nschemas == b.nschemas && a.nqueries == b.nqueries &&
         a.npivots == b.npivots && a.ce == b.ce && a.replay == b.replay;
}

/// The text a `ctaver verify` user reads for one protocol.
std::string render(const verify::ProtocolReport& r) {
  std::string out;
  for_each_obligation(r, [&](const verify::Obligation& o) {
    out += verify::obligation_line(o) + "\n";
    if (!o.holds && !o.ce.empty()) out += o.ce + "\n";
    if (!o.replay.empty()) out += "replay " + o.replay + "\n";
  });
  return out + verify::table2_row(r) + "\n";
}

int exit_code(const verify::ProtocolReport& r) {
  bool error = false;
  for_each_obligation(r, [&](const verify::Obligation& o) {
    error = error || o.error.has_value();
  });
  if (error) return 3;
  return r.agreement.holds() && r.validity.holds() && r.termination.holds()
             ? 0
             : 1;
}

// ---------------------------------------------------------------------------
// Proof passes
// ---------------------------------------------------------------------------

struct Pass {
  double wall = 0;
  double cpu = 0;
  std::vector<verify::ProtocolReport> reports;
  ThreadPool::Stats pool;
};

/// One pass: every protocol's obligations go to ONE pool of cfg.jobs
/// workers up front (table2-style), then the reports are merged and
/// rendered.
Pass run_pass(const std::vector<Model>& models, const Config& cfg,
              Spans& spans) {
  Pass p;
  ThreadPool pool(cfg.jobs);
  const double c0 = cpu_s();
  const double t0 = now_s();
  {
    auto pass_span = spans.open("pass");
    std::vector<verify::ProtocolRun> runs;
    {
      auto s = spans.open("verify.plan_submit");
      for (const Model& m : models) {
        runs.push_back(verify::verify_protocol_async(m.pm, m.opts, pool));
      }
    }
    {
      auto s = spans.open("verify.wait");
      for (verify::ProtocolRun& run : runs) p.reports.push_back(run.finish());
    }
    auto s = spans.open("verify.render");
    for (const verify::ProtocolReport& r : p.reports) (void)render(r);
  }
  p.wall = now_s() - t0;
  p.cpu = cpu_s() - c0;
  p.pool = pool.stats();
  return p;
}

/// Gates every obligation of a pass; the first pass becomes the record the
/// reference is compared with, later passes must reproduce it exactly.
void check_pass(const Pass& p, const std::vector<Model>& models,
                Outcome& out) {
  const bool first = out.passes == 0;
  std::size_t k = 0;
  for (std::size_t i = 0; i < p.reports.size(); ++i) {
    const verify::ProtocolReport& r = p.reports[i];
    for_each_obligation(r, [&](const verify::Obligation& o) {
      ObligationRecord rec{r.protocol, o.name,     verify::obligation_line(o),
                           o.nschemas, o.nqueries, o.npivots,
                           o.ce,       o.replay};
      ++out.attempted;
      std::string why = verdict_problem(o, models[i]);
      if (first) {
        out.obligations.push_back(rec);
      } else if (k >= out.obligations.size() ||
                 !same(rec, out.obligations[k])) {
        why = "differs from the first pass";
      }
      if (!why.empty()) out.fail(r.protocol + " " + o.name + ": " + why);
      ++k;
    });
  }
  if (!first && k != out.obligations.size()) {
    out.fail("pass planned a different number of obligations");
  }
  ++out.passes;
}

// ---------------------------------------------------------------------------
// Per-layer metrics
// ---------------------------------------------------------------------------

/// Imbalance of a per-slot quantity: max over mean (1 = perfectly even).
double imbalance(const std::vector<double>& v) {
  if (v.empty()) return 1;
  double sum = 0, mx = 0;
  for (double x : v) {
    sum += x;
    mx = std::max(mx, x);
  }
  return sum > 0 ? mx / (sum / static_cast<double>(v.size())) : 1;
}

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

/// Layer metrics of one traced unit, from the registry snapshot, the pool's
/// scheduling stats, the reports and the bench-side spans.
Metrics unit_layers(const ctaver::obs::Snapshot& snap,
                    const ThreadPool::Stats& pool,
                    const std::vector<verify::ProtocolReport>& reports,
                    double wall, double cpu, const Spans& spans,
                    const Config& cfg) {
  auto c = [&](const char* n) { return static_cast<double>(snap.counter(n)); };
  Metrics m;
  const double schemas = c("schema.schemas");
  m["schema.schemas"] = schemas;
  m["schema.queries"] = c("schema.queries");
  m["schema.query_ratio"] = ratio(c("schema.queries"), schemas);
  m["schema.core_skips"] = c("schema.core_skips");
  m["schema.claim_skips"] = c("schema.claim_skips");
  m["schema.units"] = c("schema.units");
  m["schema.schemas_per_s"] = ratio(schemas, wall);
  m["lia.checks"] = c("solver.checks");
  m["lia.pivots"] = c("solver.pivots");
  m["lia.bb_nodes"] = c("solver.bb_nodes");
  m["lia.scopes"] = c("solver.scopes");
  m["lia.pivots_per_check"] = ratio(c("solver.pivots"), c("solver.checks"));

  // Slot-wise enumeration-worker stats over every protocol; obligation and
  // sweep wall times as the scheduler measured them (cache hits excluded:
  // no task ran for them).
  std::vector<double> units, pivots;
  double critical = 0, sweep = 0, obligations = 0;
  for (const verify::ProtocolReport& r : reports) {
    const auto ws = verify::worker_stats(r);
    units.resize(std::max(units.size(), ws.size()));
    pivots.resize(units.size());
    for (std::size_t w = 0; w < ws.size(); ++w) {
      units[w] += static_cast<double>(ws[w].units);
      pivots[w] += static_cast<double>(ws[w].pivots);
    }
    for_each_obligation(r, [&](const verify::Obligation& o) {
      ++obligations;
      if (o.cached) return;
      if (o.parametric) critical = std::max(critical, o.seconds);
      else sweep += o.seconds;
    });
  }
  m["schema.unit_imbalance"] = imbalance(units);
  m["schema.pivot_imbalance"] = imbalance(pivots);
  m["schema.critical_s"] = critical;
  m["cs.sweep_s"] = sweep;
  m["verify.obligations"] = obligations;
  m["verify.render_s"] = spans.self_seconds("verify.render");

  m["util.pool_busy_frac"] = ratio(cpu, cfg.jobs * wall);
  m["util.pool_steals"] = static_cast<double>(pool.stolen);
  m["util.pool_group_spills"] = static_cast<double>(pool.spilled);
  m["util.pool_tasks_skipped"] = static_cast<double>(pool.skipped);
  m["util.pool_max_queue_depth"] = static_cast<double>(pool.max_queue_depth);

  const double hits = c("cache.hits");
  m["svc.cache_hits"] = hits;
  m["svc.cache_misses"] = c("cache.misses");
  m["svc.cache_stores"] = c("cache.stores");
  m["svc.cache_corrupt"] = c("cache.corrupt");
  m["svc.cache_hit_ratio"] = ratio(hits, hits + c("cache.misses"));
  m["svc.journal_records"] = c("journal.records");
  m["svc.journal_replayed"] = c("journal.replayed");
  return m;
}

/// Element-wise medians of several units' metric maps.
Metrics median_metrics(const std::vector<Metrics>& units) {
  std::map<std::string, std::vector<double>> cols;
  for (const Metrics& u : units) {
    for (const auto& [k, v] : u) cols[k].push_back(v);
  }
  Metrics m;
  for (auto& [k, v] : cols) m[k] = median(std::move(v));
  return m;
}

/// The lowered systems verify_protocol plans on (pipeline.cpp's plan_all).
struct Lowered {
  ctaver::ta::System rd, rd_prob;
  std::optional<ctaver::ta::System> rdr;

  explicit Lowered(const ProtocolModel& pm)
      : rd(ctaver::ta::single_round(ctaver::ta::nonprobabilistic(pm.system))),
        rd_prob(ctaver::ta::single_round(pm.system)) {
    if (pm.category == Category::kC) {
      rdr.emplace(
          ctaver::ta::single_round(ctaver::ta::nonprobabilistic(pm.refined())));
    }
  }
};

struct Check {
  const ctaver::ta::System* sys;
  spec::Spec spec;
};

bool planned(const Model& m, const std::string& name) {
  const auto& only = m.opts.only_obligations;
  return only.empty() || std::find(only.begin(), only.end(), name) != only.end();
}

/// The parametric obligations of `m`, built exactly as the pipeline plans
/// them, in report order.
std::vector<Check> parametric_checks(const Model& m, const Lowered& lw) {
  std::vector<Check> all;
  for (int v : {0, 1}) {
    all.push_back({&lw.rd, spec::inv1(lw.rd, v)});
    all.push_back({&lw.rd, spec::inv2(lw.rd, v)});
  }
  if (m.pm.category == Category::kA) {
    for (int v : {0, 1}) all.push_back({&lw.rd, spec::c2(lw.rd, v)});
  }
  if (lw.rdr) {
    const ctaver::ta::System& r = *lw.rdr;
    const ProtocolModel& pm = m.pm;
    all.push_back({&r, spec::binding(r, "CB0", pm.m0_loc, pm.m1_loc)});
    all.push_back({&r, spec::binding(r, "CB1", pm.m1_loc, pm.m0_loc)});
    all.push_back({&r, spec::binding(r, "CB2", pm.n0_loc, pm.m1_loc)});
    all.push_back({&r, spec::binding(r, "CB3", pm.n1_loc, pm.m0_loc)});
    spec::Spec cb4 = spec::binding(r, "CB4", pm.nbot_loc, pm.m0_loc);
    cb4.conclusion = spec::LocSet::process(
        {r.process.find_loc(pm.m0_loc), r.process.find_loc(pm.m1_loc)});
    all.push_back({&r, std::move(cb4)});
  }
  std::vector<Check> out;
  for (Check& c : all) {
    if (planned(m, c.spec.name)) out.push_back(std::move(c));
  }
  return out;
}

bool plans_sweeps(const Model& m) {
  return m.opts.run_sweeps && (planned(m, "C1") || planned(m, "C2'"));
}

/// Runs `jobs` on a fresh pool of cfg.jobs workers and waits for them.
/// Task bodies must not throw; failures are recorded in their slots.
void run_on_pool(const Config& cfg, std::vector<std::function<void()>>& jobs) {
  ThreadPool pool(cfg.jobs);
  for (auto& j : jobs) pool.submit(j);
  pool.wait();
}

/// Median seconds of `f` applied to every model, over kAttributionReps.
template <typename F>
double time_models(const std::vector<Model>& models, F&& f) {
  std::vector<double> reps;
  for (int rep = 0; rep < kAttributionReps; ++rep) {
    const double t0 = now_s();
    for (const Model& md : models) f(md);
    reps.push_back(now_s() - t0);
  }
  return median(std::move(reps));
}

/// Transform time and the size of the lowered systems of `models`.
void attribute_static(const std::vector<Model>& models, Metrics& m) {
  m["ta.transform_s"] =
      time_models(models, [](const Model& md) { Lowered lw(md.pm); });
  double locs = 0, rules = 0, milestones = 0;
  for (const Model& md : models) {
    Lowered lw(md.pm);
    for (const ctaver::ta::System* s : {&lw.rd, lw.rdr ? &*lw.rdr : nullptr}) {
      if (s == nullptr) continue;
      locs += static_cast<double>(s->total_locations());
      rules += static_cast<double>(s->total_rules());
      milestones += ctaver::schema::count_milestones(*s, true);
    }
  }
  m["ta.locations"] = locs;
  m["ta.rules"] = rules;
  m["schema.milestones"] = milestones;
}

/// Standalone check_spec per parametric obligation (one enumeration worker
/// each, cfg.jobs at a time), cross-checked against the pipeline's counts.
void attribute_schema(const std::vector<Model>& models,
                      const std::vector<verify::ProtocolReport>& reports,
                      const Config& cfg, Metrics& m, Outcome& out) {
  struct Job {
    std::size_t model;
    Check check;
    ctaver::schema::CheckResult res;
    double secs = 0;
    std::string error;
  };
  std::vector<std::unique_ptr<Lowered>> lows;
  std::vector<Job> jobs;
  for (std::size_t i = 0; i < models.size(); ++i) {
    lows.push_back(std::make_unique<Lowered>(models[i].pm));
    for (Check& c : parametric_checks(models[i], *lows.back())) {
      jobs.push_back({i, std::move(c), {}, 0, {}});
    }
  }
  std::vector<std::function<void()>> tasks;
  for (Job& j : jobs) {
    tasks.push_back([&j, &models] {
      try {
        ctaver::schema::CheckOptions o = models[j.model].opts.schema;
        o.workers = 1;
        const double t0 = now_s();
        j.res = ctaver::schema::check_spec(*j.check.sys, j.check.spec, o);
        j.secs = now_s() - t0;
      } catch (const std::exception& e) {
        j.error = e.what();
      }
    });
  }
  auto& reg = ctaver::obs::Registry::global();
  reg.reset();
  reg.set_enabled(true);
  run_on_pool(cfg, tasks);
  reg.set_enabled(false);
  const ctaver::obs::Snapshot snap = reg.snapshot();

  double check = 0, refute = 0;
  for (const Job& j : jobs) {
    const std::string& proto = models[j.model].pm.name;
    if (!j.error.empty()) {
      out.fail(proto + " " + j.check.spec.name + ": standalone check_spec: " +
               j.error);
      continue;
    }
    check += j.secs;
    if (j.res.ce) refute += j.secs;
    for_each_obligation(reports[j.model], [&](const verify::Obligation& o) {
      if (o.name == j.check.spec.name &&
          (o.nschemas != j.res.nschemas || o.nqueries != j.res.nqueries ||
           o.npivots != j.res.npivots || o.holds != j.res.holds)) {
        out.fail(proto + " " + o.name +
                 ": standalone check_spec differs from the pipeline");
      }
    });
  }
  const double lia = static_cast<double>(snap.counter("solver.micros")) / 1e6;
  m["schema.check_s"] = check;
  m["schema.refute_s"] = refute;
  m["lia.check_s"] = lia;
  m["schema.encode_s"] = check - lia;
  m["lia.share"] = ratio(lia, check);
}

/// Starting configurations of one sweep game: every border-start
/// configuration for (C1); for (C2') with value v, the one where every
/// process starts on v (pipeline.cpp's check_c2prime_instance).
std::vector<ctaver::cs::Config> sweep_starts(
    const ctaver::cs::ExplicitSystem& es, int v) {
  std::vector<ctaver::cs::Config> all = es.border_start_configs();
  if (v < 0) return all;
  const std::vector<ctaver::ta::LocId> bv =
      es.system().process.locs_with(ctaver::ta::LocRole::kBorder, v);
  std::vector<ctaver::cs::Config> out;
  for (const ctaver::cs::Config& c : all) {
    long long here = 0;
    for (ctaver::ta::LocId l : bv) here += es.kappa(c, false, l, 0);
    if (here == es.num_processes()) out.push_back(c);
  }
  return out;
}

/// Standalone StateGraph builds of every planned sweep game of `sweeps`:
/// one (C1) graph, or one (C2') graph per value, per instance.
void attribute_sweeps(const std::vector<const Model*>& sweeps,
                      const Config& cfg, Metrics& m, Outcome& out) {
  struct Job {
    const ctaver::ta::System* sys = nullptr;
    std::vector<long long> params;
    std::vector<int> values;  // -1: the (C1) graph
    std::size_t max_states = 0;
    double states = 0, edges = 0, secs = 0;
    std::string error;
  };
  std::vector<std::unique_ptr<Lowered>> lows;
  std::vector<Job> jobs;
  for (const Model* md : sweeps) {
    lows.push_back(std::make_unique<Lowered>(md->pm));
    const Category cat = md->pm.category;
    for (const auto& params : md->pm.sweep_params) {
      Job j;
      j.sys = &lows.back()->rd_prob;
      j.params = params;
      j.max_states = md->opts.max_states;
      if (cat != Category::kC && planned(*md, "C1")) {
        j.values = {-1};
        jobs.push_back(j);
      }
      if (cat != Category::kA && planned(*md, "C2'")) {
        j.values = {0, 1};
        jobs.push_back(j);
      }
    }
  }
  std::vector<std::function<void()>> tasks;
  for (Job& j : jobs) {
    tasks.push_back([&j] {
      try {
        const double t0 = now_s();
        ctaver::cs::ExplicitSystem es(*j.sys, j.params, 1);
        for (int v : j.values) {
          ctaver::cs::StateGraph g(es, sweep_starts(es, v), j.max_states);
          j.states += static_cast<double>(g.num_states());
          for (std::size_t s = 0; s < g.num_states(); ++s) {
            j.edges += static_cast<double>(g.edges(s).size());
          }
        }
        j.secs = now_s() - t0;
      } catch (const std::exception& e) {
        j.error = e.what();
      }
    });
  }
  run_on_pool(cfg, tasks);
  double states = 0, edges = 0, build = 0, critical = 0;
  for (const Job& j : jobs) {
    if (!j.error.empty()) out.fail("standalone StateGraph: " + j.error);
    states += j.states;
    edges += j.edges;
    build += j.secs;
    critical = std::max(critical, j.secs);
  }
  m["cs.instances"] = static_cast<double>(jobs.size());
  m["cs.states"] = states;
  m["cs.edges"] = edges;
  m["cs.build_s"] = build;
  m["cs.sweep_critical_s"] = critical;
}

/// Standalone replay of every counterexample the traced pass reported.
void attribute_replay(const std::vector<Model>& models,
                      const std::vector<verify::ProtocolReport>& reports,
                      Metrics& m, Outcome& out) {
  double secs = 0, firings = 0, ok = 0;
  for (std::size_t i = 0; i < models.size(); ++i) {
    if (!models[i].opts.replay_ce) continue;
    const Lowered lw(models[i].pm);
    const std::vector<Check> checks = parametric_checks(models[i], lw);
    for_each_obligation(reports[i], [&](const verify::Obligation& o) {
      if (!o.ce_data) return;
      for (const Check& c : checks) {
        if (c.spec.name != o.name) continue;
        const double t0 = now_s();
        const ctaver::replay::ReplayReport rep =
            ctaver::replay::replay_counterexample(*c.sys, c.spec, *o.ce_data);
        secs += now_s() - t0;
        firings += static_cast<double>(rep.steps);
        ok += rep.ok() ? 1 : 0;
        if (rep.ok() != o.replay_ok) {
          out.fail(models[i].pm.name + " " + o.name +
                   ": standalone replay differs from the pipeline");
        }
      }
    });
  }
  m["replay.s"] = secs;
  m["replay.firings"] = firings;
  m["replay.ok"] = ok;
}

// ---------------------------------------------------------------------------
// catc-proof / catab-sweeps
// ---------------------------------------------------------------------------

Outcome run_proof(const Config& cfg, const std::vector<Target>& targets,
                  bool replay_ce) {
  Outcome out;
  std::vector<double> setup, parse;
  std::vector<Model> models;
  for (int i = 0; i < kProofSetupReps; ++i) {
    const double t0 = now_s();
    double p = 0;
    models = load(cfg, targets, replay_ce, &p);
    setup.push_back(now_s() - t0);
    parse.push_back(p);
  }

  auto& reg = ctaver::obs::Registry::global();
  std::vector<double> walls, cpus, traced_walls;
  std::vector<Metrics> traced;
  std::vector<verify::ProtocolReport> traced_reports;
  std::size_t per_pass = 0;
  const double start = now_s();
  // Traced runs alternate untraced and traced passes, untraced first.
  for (int i = 0;; ++i) {
    const bool tracing = cfg.trace && i % 2 == 1;
    const int min_passes = cfg.trace ? 2 : 1;
    if (i >= min_passes && now_s() - start >= cfg.seconds) break;
    Spans spans(tracing);
    if (tracing) {
      reg.reset();
      reg.set_enabled(true);
    }
    trim_heap();
    Pass p = run_pass(models, cfg, spans);
    std::fprintf(stderr, "ctabench: pass %d%s: wall %.3f s, cpu %.3f s\n", i,
                 tracing ? " (traced)" : "", p.wall, p.cpu);
    if (!tracing) {
      walls.push_back(p.wall);
      cpus.push_back(p.cpu);
    } else {
      reg.set_enabled(false);
      traced_walls.push_back(p.wall);
      traced.push_back(unit_layers(reg.snapshot(), p.pool, p.reports, p.wall,
                                   p.cpu, spans, cfg));
      out.trace_json = spans.chrome_json();
    }
    const long long before = out.attempted;
    check_pass(p, models, out);
    per_pass = static_cast<std::size_t>(out.attempted - before);
    if (tracing) traced_reports = std::move(p.reports);
  }

  if (!cfg.trace) {
    const double wall = median(walls);
    out.metrics["setup_s"] = median(setup);
    out.metrics["wall_s"] = wall;
    out.metrics["cpu_s"] = median(cpus);
    out.metrics["verdicts_per_s"] = ratio(static_cast<double>(per_pass), wall);
    out.metrics["peak_rss_mb"] = peak_rss_mb();
    return out;
  }
  Metrics& m = out.metrics;
  m = median_metrics(traced);
  m["frontend.parse_lower_s"] = median(parse);
  m["trace.overhead_s"] = median(traced_walls) - median(walls);
  attribute_static(models, m);
  // Not on this workload's path (no cache): the planning and hashing a
  // cached run would add.
  m["verify.plan_hash_s"] = time_models(models, [](const Model& md) {
    (void)verify::obligation_cache_keys(md.pm, md.opts);
  });
  attribute_schema(models, traced_reports, cfg, m, out);
  std::vector<const Model*> sweeps;
  for (const Model& md : models) {
    if (plans_sweeps(md)) sweeps.push_back(&md);
  }
  attribute_sweeps(sweeps, cfg, m, out);
  attribute_replay(models, traced_reports, m, out);
  for (const char* k :
       {"svc.cache_lookup_s", "svc.cache_store_s", "svc.journal_open_s",
        "svc.journal_append_s", "svc.reverify_p50_ms", "svc.reverify_p99_ms",
        "svc.reverify_per_s", "svc.reverify_samples"}) {
    m[k] = 0;  // no cache or journal on this workload's path
  }
  return out;
}

// ---------------------------------------------------------------------------
// cache-reverify
// ---------------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

struct Served {
  double latency = 0;
  verify::ProtocolReport report;
};

/// One request, the way `ctaver verify SPEC --cache-dir DIR` serves it:
/// resolve the spec, plan and hash its keys, open the journal and write
/// run-start, probe the cache (misses are proved and stored), merge and
/// render, write run-end.
Served serve(const ProtocolRegistry& registry, const verify::Options& base,
             const std::string& spec_file, const std::string& dir,
             ThreadPool& pool, Spans& spans) {
  Served s;
  const double t0 = now_s();
  ProtocolModel pm;
  {
    auto sc = spans.open("frontend.parse_lower");
    pm = registry.resolve(spec_file);
  }
  ctaver::svc::ProofCache cache(dir);
  std::optional<ctaver::svc::Journal> journal;
  {
    auto sc = spans.open("svc.journal_open");
    journal.emplace(dir);
  }
  if (!journal->ok()) throw std::runtime_error("journal: " + journal->error());
  verify::Options opts = base;
  opts.cache = &cache;
  std::vector<verify::ObligationKey> keys;
  {
    auto sc = spans.open("verify.plan_hash");
    keys = verify::obligation_cache_keys(pm, opts);
  }
  const std::string run = ctaver::svc::journal_run_id(keys);
  {
    auto sc = spans.open("svc.journal_append");
    journal->run_start(run, "verify", pm.name, keys.size());
  }
  opts.journal = &*journal;
  opts.journal_run = run;
  {
    auto sc = spans.open("verify.run");
    s.report = verify::verify_protocol_async(pm, opts, pool).finish();
  }
  {
    auto sc = spans.open("verify.render");
    (void)render(s.report);
  }
  {
    auto sc = spans.open("svc.journal_append");
    journal->run_end(run, exit_code(s.report));
  }
  s.latency = now_s() - t0;
  return s;
}

enum class Kind { kRead, kComment, kWrite };

struct Request {
  std::size_t spec;
  Kind kind;
};

/// A spec file as the client edits it during an episode.
struct LiveSpec {
  std::string file, path, text;
  int comments = 0;
  std::vector<std::string> rewrites;  // unused sweep lines, seeded order
};

const std::regex kSweepLine(R"(\n([ \t]*)sweep ([^;\n]*);)");

/// Every reordering of the spec's sweep tuples except the original one: the
/// same admissible instances, so the verdict and the cost of re-proving are
/// unchanged while the sweep obligations' cache keys are new.
std::vector<std::string> sweep_rewrites(const std::string& text) {
  std::smatch sm;
  if (!std::regex_search(text, sm, kSweepLine)) {
    throw std::runtime_error("spec has no sweep line");
  }
  const std::string list = sm[2];
  std::vector<std::string> tuples;
  const std::regex tuple(R"(\([^)]*\))");
  for (auto it = std::sregex_iterator(list.begin(), list.end(), tuple);
       it != std::sregex_iterator(); ++it) {
    tuples.push_back(it->str());
  }
  std::vector<std::size_t> idx(tuples.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  std::vector<std::string> out;
  while (std::next_permutation(idx.begin(), idx.end())) {
    std::string line = "\n" + sm[1].str() + "sweep ";
    for (std::size_t i = 0; i < idx.size(); ++i) {
      line += (i > 0 ? ", " : "") + tuples[idx[i]];
    }
    out.push_back(line + ";");
  }
  return out;
}

/// Cold verdict lines per spec, recorded when the snapshot is built.
using ColdLines = std::map<std::string, std::vector<std::string>>;

/// Gates one served request: verdicts against `expect`, every obligation
/// line byte-identical to the cold run, and the cache doing what the edit
/// implies (a read hits everything, a write misses exactly the sweeps).
void check_request(const Served& s, const Model& m, const LiveSpec& live,
                   Kind kind, const ColdLines& cold, Outcome& out) {
  const std::vector<std::string>& want = cold.at(live.file);
  std::size_t k = 0;
  for_each_obligation(s.report, [&](const verify::Obligation& o) {
    ++out.attempted;
    std::string why = verdict_problem(o, m);
    if (why.empty() &&
        (k >= want.size() || verify::obligation_line(o) != want[k])) {
      why = "line differs from the cold run";
    }
    const bool want_hit = kind != Kind::kWrite || o.parametric;
    if (why.empty() && o.cached != want_hit) {
      why = want_hit ? "expected a cache hit" : "expected a cache miss";
    }
    if (!why.empty()) out.fail(s.report.protocol + " " + o.name + ": " + why);
    ++k;
  });
  if (k != want.size()) out.fail(live.file + ": obligation count changed");
}

Outcome run_reverify(const Config& cfg) {
  Outcome out;
  const std::vector<Target>& targets = reverify_targets();
  const fs::path work(cfg.work_dir);
  // Requests name spec files, which the registry resolves by parsing them.
  const ProtocolRegistry registry = ProtocolRegistry::with_builtins();
  std::vector<Model> models;
  ColdLines cold;
  std::vector<double> setup;
  fs::path snapshot;
  Spans off(false);

  // Set-up: registry, parse and lower, and a cache snapshot warmed by one
  // cold request per spec. Repeated; the last snapshot is kept.
  for (int rep = 0; rep < kReverifySetupReps; ++rep) {
    const double t0 = now_s();
    double p = 0;
    models = load(cfg, targets, false, &p);
    const fs::path dir = work / ("snapshot-" + std::to_string(rep));
    fs::remove_all(dir);
    ThreadPool pool(cfg.jobs);
    for (std::size_t i = 0; i < targets.size(); ++i) {
      Served s = serve(registry, models[i].opts, spec_path(cfg, targets[i].file),
                       dir.string(), pool, off);
      std::vector<std::string>& lines = cold[targets[i].file];
      lines.clear();
      for_each_obligation(s.report, [&](const verify::Obligation& o) {
        lines.push_back(verify::obligation_line(o));
        const std::string why = verdict_problem(o, models[i]);
        if (!why.empty()) out.fail("warm " + o.name + ": " + why);
        if (o.cached) out.fail("warm " + o.name + ": unexpected cache hit");
      });
    }
    setup.push_back(now_s() - t0);
    if (!snapshot.empty()) fs::remove_all(snapshot);
    snapshot = dir;
  }

  auto& reg = ctaver::obs::Registry::global();
  std::vector<double> walls, cpus, traced_walls, latencies;
  std::vector<Metrics> traced;
  double per_episode = 0;
  const double start = now_s();
  for (int ep = 0;; ++ep) {
    const bool tracing = cfg.trace && ep % 2 == 1;
    if (ep >= (cfg.trace ? 2 : 1) && now_s() - start >= cfg.seconds) break;

    // A fresh copy of the snapshot, so the journal length and the hit
    // ratio are the same at the start of every episode.
    const fs::path dir = work / "episode";
    fs::remove_all(dir);
    fs::copy(snapshot, dir, fs::copy_options::recursive);
    fs::create_directories(dir / "specs");
    std::seed_seq seq{cfg.seed, static_cast<std::uint64_t>(ep)};
    std::mt19937_64 rng(seq);
    std::vector<LiveSpec> live;
    std::vector<Request> plan;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      LiveSpec ls{targets[i].file, (dir / "specs" / targets[i].file).string(),
                  read_file(spec_path(cfg, targets[i].file)), 0, {}};
      write_file(ls.path, ls.text);
      for (int r = 0; r < kReadsPerSpec; ++r) {
        plan.push_back({i, r % 2 == 0 ? Kind::kRead : Kind::kComment});
      }
      if (is_write_target(ls.file)) {
        ls.rewrites = sweep_rewrites(ls.text);
        std::shuffle(ls.rewrites.begin(), ls.rewrites.end(), rng);
        for (int w = 0; w < kWritesPerTarget; ++w) {
          plan.push_back({i, Kind::kWrite});
        }
      }
      live.push_back(std::move(ls));
    }
    std::shuffle(plan.begin(), plan.end(), rng);

    Spans spans(tracing);
    if (tracing) {
      reg.reset();
      reg.set_enabled(true);
    }
    ThreadPool pool(cfg.jobs);
    std::vector<verify::ProtocolReport> reports;
    double wall = 0, obligations = 0;
    trim_heap();
    const double c0 = cpu_s();
    for (const Request& rq : plan) {
      LiveSpec& ls = live[rq.spec];
      if (rq.kind == Kind::kComment) {
        ls.text += "// edit " + std::to_string(++ls.comments) + "\n";
        write_file(ls.path, ls.text);
      } else if (rq.kind == Kind::kWrite) {
        std::smatch sm;
        std::regex_search(ls.text, sm, kSweepLine);
        ls.text = sm.prefix().str() + ls.rewrites.back() + sm.suffix().str();
        ls.rewrites.pop_back();
        write_file(ls.path, ls.text);
      }
      Served s = serve(registry, models[rq.spec].opts, ls.path, dir.string(),
                       pool, spans);
      check_request(s, models[rq.spec], ls, rq.kind, cold, out);
      wall += s.latency;
      if (!tracing) latencies.push_back(s.latency);
      for_each_obligation(s.report,
                          [&](const verify::Obligation&) { ++obligations; });
      if (tracing) reports.push_back(std::move(s.report));
    }
    const double cpu = cpu_s() - c0;
    ++out.passes;
    per_episode = obligations;
    if (!tracing) {
      walls.push_back(wall);
      cpus.push_back(cpu);
    } else {
      reg.set_enabled(false);
      traced_walls.push_back(wall);
      Metrics u = unit_layers(reg.snapshot(), pool.stats(), reports, wall, cpu,
                              spans, cfg);
      u["frontend.parse_lower_s"] = spans.self_seconds("frontend.parse_lower");
      u["verify.plan_hash_s"] = spans.self_seconds("verify.plan_hash");
      u["svc.journal_open_s"] = ratio(spans.self_seconds("svc.journal_open"),
                                      spans.count("svc.journal_open"));
      u["svc.journal_append_s"] =
          ratio(spans.self_seconds("svc.journal_append"),
                spans.count("svc.journal_append"));
      traced.push_back(std::move(u));
      out.trace_json = spans.chrome_json();
    }
    fs::remove_all(dir);
  }

  std::fprintf(stderr,
               "ctabench: %lld episodes, untraced wall %.4f/%.4f/%.4f s "
               "(min/median/max), request p10/p50/p90 %.3f/%.3f/%.3f ms\n",
               out.passes, percentile(walls, 1), median(walls),
               percentile(walls, 100), percentile(latencies, 10) * 1e3,
               percentile(latencies, 50) * 1e3, percentile(latencies, 90) * 1e3);
  if (!cfg.trace) {
    const double wall = median(walls);
    out.metrics["setup_s"] = median(setup);
    out.metrics["wall_s"] = wall;
    out.metrics["cpu_s"] = median(cpus);
    out.metrics["verdicts_per_s"] = ratio(per_episode, wall);
    out.metrics["peak_rss_mb"] = peak_rss_mb();
  } else {
    Metrics& m = out.metrics;
    m = median_metrics(traced);
    m["trace.overhead_s"] = median(traced_walls) - median(walls);
    m["svc.reverify_p50_ms"] = percentile(latencies, 50) * 1e3;
    m["svc.reverify_p99_ms"] = percentile(latencies, 99) * 1e3;
    m["svc.reverify_per_s"] =
        ratio(static_cast<double>(latencies.size()),
              std::accumulate(walls.begin(), walls.end(), 0.0));
    m["svc.reverify_samples"] = static_cast<double>(latencies.size());
    attribute_static(models, m);
    for (const char* k :
         {"schema.check_s", "schema.encode_s", "schema.refute_s",
          "lia.check_s", "lia.share", "replay.s", "replay.firings",
          "replay.ok"}) {
      m[k] = 0;  // reads hit every parametric obligation; writes only sweeps
    }
    std::vector<const Model*> sweeps;
    for (std::size_t i = 0; i < targets.size(); ++i) {
      if (is_write_target(targets[i].file)) sweeps.push_back(&models[i]);
    }
    attribute_sweeps(sweeps, cfg, m, out);

    // ProofCache lookup (fresh handle, disk) and store (fsync'd) per entry.
    std::vector<std::pair<std::string, std::string>> entries;
    double lookup = 0;
    for (const Model& md : models) {
      for (const verify::ObligationKey& k :
           verify::obligation_cache_keys(md.pm, md.opts)) {
        ctaver::svc::ProofCache c(snapshot.string());
        const double t0 = now_s();
        std::optional<std::string> payload = c.lookup(k.key);
        const double t = now_s() - t0;
        if (!payload) {
          out.fail("snapshot misses " + md.pm.name + " " + k.name);
          continue;
        }
        entries.emplace_back(k.key, std::move(*payload));
        lookup += t;
      }
    }
    const fs::path scratch = work / "store";
    fs::remove_all(scratch);
    ctaver::svc::ProofCache sink(scratch.string());
    double store = 0;
    for (const auto& [key, payload] : entries) {
      const double t0 = now_s();
      sink.store(key, payload);
      store += now_s() - t0;
    }
    fs::remove_all(scratch);
    m["svc.cache_lookup_s"] =
        ratio(lookup, static_cast<double>(entries.size()));
    m["svc.cache_store_s"] = ratio(store, static_cast<double>(entries.size()));
  }
  fs::remove_all(snapshot);
  return out;
}

}  // namespace

Outcome run_workload(const Config& cfg) {
  fs::create_directories(cfg.work_dir);
  if (cfg.workload == "catc-proof") return run_proof(cfg, catc_targets(), true);
  if (cfg.workload == "catab-sweeps") {
    return run_proof(cfg, catab_targets(), false);
  }
  if (cfg.workload == "cache-reverify") return run_reverify(cfg);
  throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
}

}  // namespace ctabench
