// Microbenchmark for the incremental LIA solver: runs every parametric
// obligation of the Table-II suite per leg — the pre-incremental
// fresh-solver-per-query encoder ("fresh", the before leg), the long-lived
// scoped solver ("incremental"), and optionally the partitioned parallel
// enumeration ("partitioned", --workers N > 1) — and emits machine-readable
// JSON with queries, simplex pivots, pivots/query, schemas/sec, and the
// between-leg ratios. All legs run the same deterministic query set
// (jobs=1, sweeps off), so on runs that complete within the schema cap the
// pivot comparison is query-for-query: the partitioned leg's canonical
// merge makes its pivot counts byte-identical to the 1-worker incremental
// leg's ("pivots_match"), only the wall clock changes. Budget-truncated
// runs race the shared schema cap across workers, so there the partitioned
// numbers measure throughput at equal work volume, not pivot identity.
//
//   bench_solver [--max-schemas N] [--budget SECONDS] [--workers N]
//                [--specs DIR] [--out FILE] [PROTOCOL...]
//
// Defaults: the paper's eight Table-II protocols, 1500 schemas and 300 s
// per (protocol, mode), workers 1 (no partitioned leg). The partitioned
// leg also records the claim index's scheduling balance (unit_imbalance /
// pivot_imbalance, max/mean over per-logical-worker slot sums). The
// committed BENCH_solver.json was produced with --workers 2 and one more
// leg, for a static round-robin dispatcher that has since been removed. CI
// smoke-runs a small complete-regime workload and diffs the pivot counts
// against the committed bench/bench_solver_smoke.json baseline (plus a
// unit-imbalance ceiling on the partitioned leg).
#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "frontend/registry.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"
#include "verify/pipeline.h"

namespace {

struct ModeStats {
  long long queries = 0;
  long long pivots = 0;
  double seconds = 0.0;
  bool complete = true;
  // Wall-clock attribution, from the metrics registry (reset per leg):
  // seconds spent inside Solver::check vs the leg's total wall clock. The
  // remainder is encoding, enumeration bookkeeping, and scheduling.
  long long solver_checks = 0;
  double solver_seconds = 0.0;
  // Per-logical-enumeration-worker scheduling stats, slot-summed across the
  // leg's obligations (verify::worker_stats). Slot w aggregates worker w of
  // every check_spec call; the imbalance ratios below are max/mean over the
  // slots — 1.0 is perfectly balanced, W is one worker holding everything.
  std::vector<ctaver::schema::CheckResult::WorkerStat> slots;
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// max/mean over the per-slot values; 1.0 when there is at most one slot
/// (serial legs) or no samples.
double imbalance(const std::vector<ctaver::schema::CheckResult::WorkerStat>&
                     slots,
                 long long ctaver::schema::CheckResult::WorkerStat::*field) {
  long long mx = 0, total = 0;
  for (const auto& s : slots) {
    mx = std::max(mx, s.*field);
    total += s.*field;
  }
  if (slots.empty() || total == 0) return 1.0;
  return double(mx) * double(slots.size()) / double(total);
}

std::string mode_json(const ModeStats& s) {
  std::ostringstream os;
  os << "{\"queries\": " << s.queries << ", \"pivots\": " << s.pivots
     << ", \"pivots_per_query\": " << ratio(double(s.pivots), double(s.queries))
     << ", \"seconds\": " << s.seconds
     << ", \"schemas_per_sec\": " << ratio(double(s.queries), s.seconds)
     << ", \"solver_checks\": " << s.solver_checks
     << ", \"solver_seconds\": " << s.solver_seconds
     << ", \"solver_share\": " << ratio(s.solver_seconds, s.seconds);
  os << ", \"units_per_worker\": [";
  for (std::size_t w = 0; w < s.slots.size(); ++w) {
    os << (w ? ", " : "") << s.slots[w].units;
  }
  os << "], \"unit_imbalance\": "
     << imbalance(s.slots, &ctaver::schema::CheckResult::WorkerStat::units)
     << ", \"pivot_imbalance\": "
     << imbalance(s.slots, &ctaver::schema::CheckResult::WorkerStat::pivots);
  os << ", \"complete\": " << (s.complete ? "true" : "false") << "}";
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace ctaver;

  long long max_schemas = 1500;
  double budget_s = 300.0;
  int workers = 1;
  std::string specs_dir;
  std::string out_path;
  std::vector<std::string> protocols;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max-schemas") == 0 && i + 1 < argc) {
      max_schemas = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--budget") == 0 && i + 1 < argc) {
      budget_s = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--specs") == 0 && i + 1 < argc) {
      specs_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      protocols.emplace_back(argv[i]);
    }
  }
  if (protocols.empty()) {
    protocols = {"Rabin83", "CC85a", "CC85b",    "FMR05",
                 "KS16",    "MMR14", "Miller18", "ABY22"};
  }

  try {
    frontend::ProtocolRegistry registry =
        frontend::ProtocolRegistry::with_builtins();
    if (!specs_dir.empty()) registry.add_directory(specs_dir);

    // The wall-clock attribution (solver_seconds / solver_share) comes from
    // the metrics registry; the pipeline is instrumented out-of-band so
    // this does not perturb the measured query/pivot counts.
    obs::Registry::global().set_enabled(true);

    verify::Options opts;
    opts.run_sweeps = false;  // solver work only: no state-graph sweeps
    opts.jobs = 1;            // deterministic, comparable query sequence
    opts.schema.max_schemas = max_schemas;
    opts.schema.time_budget_s = budget_s;

    struct Leg {
      const char* name;
      bool incremental;
      int workers;
    };
    std::vector<Leg> legs = {{"fresh", false, 1}, {"incremental", true, 1}};
    const bool partitioned = workers > 1;
    if (partitioned) legs.push_back({"partitioned", true, workers});
    const std::size_t nlegs = legs.size();

    std::ostringstream json;
    json << "{\n  \"benchmark\": \"ctaver_solver\",\n"
         << "  \"config\": {\"max_schemas\": " << max_schemas
         << ", \"time_budget_s\": " << budget_s << ", \"jobs\": 1"
         << ", \"workers\": " << workers << "},\n"
         << "  \"protocols\": [\n";

    std::vector<ModeStats> totals(nlegs);
    bool first = true;
    for (const std::string& name : protocols) {
      protocols::ProtocolModel pm = registry.resolve(name);
      std::vector<ModeStats> stats(nlegs);
      for (std::size_t leg = 0; leg < nlegs; ++leg) {
        verify::Options leg_opts = opts;
        leg_opts.schema.incremental = legs[leg].incremental;
        leg_opts.schema.workers = legs[leg].workers;
        // Fresh registry per leg, so solver_seconds attributes THIS leg's
        // wall clock (nothing instrumented is in flight between legs).
        obs::Registry::global().reset();
        util::Stopwatch watch;
        verify::ProtocolReport report =
            verify::verify_protocol(pm, leg_opts);
        stats[leg].seconds = watch.seconds();
        stats[leg].solver_checks = static_cast<long long>(
            obs::Registry::global().counter_total(obs::Counter::kSolverChecks));
        stats[leg].solver_seconds =
            static_cast<double>(obs::Registry::global().counter_total(
                obs::Counter::kSolverMicros)) /
            1e6;
        for (const verify::PropertyResult* p :
             {&report.agreement, &report.validity, &report.termination}) {
          stats[leg].queries += p->nschemas();
          stats[leg].pivots += p->npivots();
          for (const verify::Obligation& o : p->obligations) {
            if (o.parametric && !o.complete) stats[leg].complete = false;
          }
        }
        stats[leg].slots = verify::worker_stats(report);
        std::cerr << name << " " << legs[leg].name << ": "
                  << stats[leg].queries << " queries, " << stats[leg].pivots
                  << " pivots, " << stats[leg].seconds << " s";
        if (legs[leg].workers > 1) {
          std::cerr << ", unit imbalance "
                    << imbalance(stats[leg].slots,
                                 &schema::CheckResult::WorkerStat::units)
                    << ", pivot imbalance "
                    << imbalance(stats[leg].slots,
                                 &schema::CheckResult::WorkerStat::pivots);
        }
        std::cerr << "\n";
      }
      for (std::size_t leg = 0; leg < nlegs; ++leg) {
        totals[leg].queries += stats[leg].queries;
        totals[leg].pivots += stats[leg].pivots;
        totals[leg].seconds += stats[leg].seconds;
        totals[leg].solver_checks += stats[leg].solver_checks;
        totals[leg].solver_seconds += stats[leg].solver_seconds;
        totals[leg].complete = totals[leg].complete && stats[leg].complete;
        if (stats[leg].slots.size() > totals[leg].slots.size()) {
          totals[leg].slots.resize(stats[leg].slots.size());
        }
        for (std::size_t w = 0; w < stats[leg].slots.size(); ++w) {
          totals[leg].slots[w].units += stats[leg].slots[w].units;
          totals[leg].slots[w].pivots += stats[leg].slots[w].pivots;
        }
      }

      if (!first) json << ",\n";
      first = false;
      json << "    {\"name\": \"" << name << "\",\n"
           << "     \"fresh\": " << mode_json(stats[0]) << ",\n"
           << "     \"incremental\": " << mode_json(stats[1]) << ",\n";
      if (partitioned) {
        json << "     \"partitioned\": " << mode_json(stats[2]) << ",\n"
             << "     \"partitioned_pivots_match\": "
             << (stats[2].pivots == stats[1].pivots ? "true" : "false")
             << ", \"partitioned_speedup\": "
             << ratio(stats[1].seconds, stats[2].seconds) << ",\n";
      }
      json << "     \"pivot_reduction\": "
           << ratio(double(stats[0].pivots), double(stats[1].pivots))
           << ", \"speedup\": "
           << ratio(stats[0].seconds, stats[1].seconds) << "}";
    }
    json << "\n  ],\n"
         << "  \"total\": {\n"
         << "    \"fresh\": " << mode_json(totals[0]) << ",\n"
         << "    \"incremental\": " << mode_json(totals[1]) << ",\n";
    if (partitioned) {
      json << "    \"partitioned\": " << mode_json(totals[2]) << ",\n"
           << "    \"partitioned_pivots_match\": "
           << (totals[2].pivots == totals[1].pivots ? "true" : "false")
           << ",\n    \"partitioned_speedup\": "
           << ratio(totals[1].seconds, totals[2].seconds) << ",\n";
    }
    json << "    \"pivot_reduction\": "
         << ratio(double(totals[0].pivots), double(totals[1].pivots))
         << ",\n    \"speedup\": "
         << ratio(totals[0].seconds, totals[1].seconds) << "\n  }\n}\n";

    std::cout << json.str();
    if (!out_path.empty()) {
      std::ofstream out(out_path);
      if (!out) {
        std::cerr << "bench_solver: cannot write " << out_path << "\n";
        return 2;
      }
      out << json.str();
    }
  } catch (const std::exception& e) {
    std::cerr << "bench_solver: " << e.what() << "\n";
    return 2;
  }
  return 0;
}
