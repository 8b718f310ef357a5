// ctaver — command-line driver for the verification pipeline.
//
//   ctaver list                       # registered protocols
//   ctaver parse specs/mmr14.cta      # front-end only: summary or diagnostics
//   ctaver verify MMR14               # full pipeline on a built-in model
//   ctaver verify specs/mmr14.cta     # ... or on a .cta spec file
//   ctaver table2                     # the paper's Table-II benchmark run
//   ctaver check                      # regression-check declared verdicts
//
// Protocol arguments are resolved through frontend::ProtocolRegistry, so
// built-ins and spec files are interchangeable everywhere.
#include <algorithm>
#include <atomic>
#include <charconv>
#include <cmath>
#include <csignal>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "frontend/diag.h"
#include "frontend/registry.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "sim/attack.h"
#include "svc/client.h"
#include "svc/journal.h"
#include "svc/proof_cache.h"
#include "svc/server.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/stderr_gate.h"
#include "util/thread_pool.h"
#include "verify/pipeline.h"

namespace {

using ctaver::frontend::ParseError;
using ctaver::frontend::ProtocolRegistry;
using ctaver::protocols::Category;
using ctaver::protocols::ProtocolModel;

int usage(std::ostream& os, int code) {
  os << "usage: ctaver <command> [options] [protocol...]\n"
        "\n"
        "commands:\n"
        "  list               list registered protocols (and their declared\n"
        "                     expect verdicts)\n"
        "  parse SPEC...      run the front-end only; print a model summary\n"
        "  verify SPEC...     full pipeline; obligations plus Table-II row\n"
        "  table2 [SPEC...]   Table-II rows (default: the eight benchmarks)\n"
        "  check [SPEC...]    regression-check every declared `expect`\n"
        "                     verdict (default: all registered protocols);\n"
        "                     schema counterexamples are auto-replayed and\n"
        "                     attack sketches executed\n"
        "  hash SPEC...       print each planned obligation's content-\n"
        "                     addressed cache key (the proof cache's key)\n"
        "  serve              run the verification daemon on --socket;\n"
        "                     accepts line-delimited JSON submissions and\n"
        "                     streams verdict events; SIGTERM drains cleanly\n"
        "  submit SPEC...     submit specs to a running daemon and block for\n"
        "                     the streamed verdicts (same exit codes as\n"
        "                     verify); paths are shipped as inline text\n"
        "  stats              print the daemon's stats event (submissions,\n"
        "                     cache hits/misses/stores, embedded metrics)\n"
        "  shutdown           ask the daemon on --socket to drain and exit\n"
        "\n"
        "SPEC is a registered protocol name or a path to a .cta file.\n"
        "\n"
        "options:\n"
        "  --specs DIR        register every .cta file in DIR\n"
        "  --no-sweeps        skip the explicit-instance (C1)/(C2') sweeps\n"
        "  --max-states N     state cap per swept instance\n"
        "  --max-schemas N    schema cap shared by a protocol's obligations\n"
        "  --time-budget S    wall-clock budget per protocol (seconds)\n"
        "  --jobs N           obligation-scheduler workers (0 = all cores,\n"
        "                     1 = serial; reports are identical either way)\n"
        "  --workers N        enumeration workers inside each obligation\n"
        "                     (partitioned schema enumeration; default 1,\n"
        "                     0 = all cores; reports are byte-identical for\n"
        "                     every jobs x workers combination)\n"
        "  --sweep a,b,...    override sweep instances (repeatable)\n"
        "  --replay-ce        verify: replay every schema counterexample\n"
        "                     through the concretization engine (src/replay)\n"
        "  --quiet            verify: print only the Table-II rows\n"
        "  --only-obligations a,b,...\n"
        "                     verify: discharge only the named obligations\n"
        "                     (unknown names are a positioned error, exit 2)\n"
        "  --cache-dir DIR    content-addressed proof cache (verify, serve):\n"
        "                     complete verdicts are stored under their\n"
        "                     obligation keys and replayed byte-identically\n"
        "                     on later runs; corrupt entries degrade to\n"
        "                     misses. Also home of the crash-safety journal\n"
        "                     (journal.log; see README 'Crash safety')\n"
        "  --resume           verify: replay the journal in --cache-dir and\n"
        "                     re-prove only the obligations a killed run\n"
        "                     left without a durable proof; the report is\n"
        "                     byte-identical to an uninterrupted run. Exits\n"
        "                     2 if the journal's unfinished run was started\n"
        "                     with different specs/options\n"
        "  --socket PATH      daemon socket (serve, submit, shutdown;\n"
        "                     default /tmp/ctaverd.sock)\n"
        "  --connect-timeout S\n"
        "                     client connect deadline, seconds (submit,\n"
        "                     stats, shutdown; default 5; 0 = forever)\n"
        "  --io-timeout S     per-read/-write deadline, seconds: client ops\n"
        "                     (default 30; 0 = forever) and, on serve, the\n"
        "                     daemon's per-connection read/write deadlines\n"
        "  --retries N        client transport-failure retries with capped\n"
        "                     exponential backoff + jitter (default 2; all\n"
        "                     ops are idempotent — submit is content-\n"
        "                     addressed)\n"
        "\n"
        "fault containment (see the README's Failure containment section):\n"
        "  --max-rss-mb N     RSS watchdog: once resident memory exceeds N\n"
        "                     MiB, cut the run to inconclusive with\n"
        "                     cut reason 'memory' instead of an OOM abort\n"
        "  --obligation-timeout S\n"
        "                     per-obligation hard deadline (seconds): a\n"
        "                     tripped obligation goes inconclusive (reason\n"
        "                     'obligation-timeout') without touching its\n"
        "                     siblings or the shared budget\n"
        "  --fault-inject SITE:N:ACTION\n"
        "                     deterministic fault injection (repeatable,\n"
        "                     tests/CI): on the N-th hit of the named fault\n"
        "                     point run ACTION = throw | cancel | delay |\n"
        "                     abort (abort SIGKILLs the process on the spot\n"
        "                     — the crash-resume harness; exit status 137).\n"
        "                     Sites: lia.pivot, schema.encode,\n"
        "                     schema.unit_adopt, cs.expand, replay.step\n"
        "\n"
        "exit codes:\n"
        "  0    all requested verdicts obtained (and as expected)\n"
        "  1    verdict shortfall: counterexample, failed check, or\n"
        "       inconclusive within budget\n"
        "  2    usage or input error (bad flags, parse errors)\n"
        "  3    contained internal error: some obligation carries a\n"
        "       structured ERROR; takes precedence over 1 because the run\n"
        "       is incomplete-by-failure, not refuted\n"
        "  130  interrupted (SIGINT); the partial report still flushes\n"
        "\n"
        "observability (out-of-band: reports are byte-identical with these\n"
        "on or off; see the README's Observability section):\n"
        "  --trace FILE       write a Chrome trace-event JSON (Perfetto /\n"
        "                     chrome://tracing) with protocol > obligation >\n"
        "                     unit > query spans\n"
        "  --metrics FILE     write the merged metrics registry as JSON\n"
        "                     ('-': print a human-readable summary table to\n"
        "                     stdout instead)\n"
        "  --metrics-json FILE\n"
        "                     like --metrics but always JSON, '-' included\n"
        "                     (the machine-readable face; the daemon's\n"
        "                     stats event embeds the same dump)\n"
        "  --progress         live progress line on stderr\n"
        "  --log-level L      debug|info|warn|error (default warn)\n";
  return code;
}

struct Args {
  std::string command;
  std::vector<std::string> protocols;
  std::string specs_dir;
  bool no_sweeps = false;
  bool quiet = false;
  bool replay_ce = false;
  std::size_t max_states = 0;  // 0: keep the pipeline default
  long long max_schemas = 0;   // 0: keep the pipeline default
  double time_budget = 0;      // 0: keep the pipeline default
  int jobs = 0;                // 0: one worker per hardware thread
  int workers = -1;            // -1: keep the pipeline default (1)
  long long max_rss_mb = 0;       // --max-rss-mb: RSS watchdog (0 = off)
  double obligation_timeout = 0;  // --obligation-timeout (0 = off)
  std::vector<std::string> fault_inject;  // --fault-inject plans (repeatable)
  std::vector<std::vector<long long>> sweep_override;
  std::vector<std::string> only_obligations;  // --only-obligations (comma'd)
  std::string cache_dir;     // --cache-dir: on-disk proof cache (verify/serve)
  bool resume = false;       // --resume: journal-driven crash recovery
  double connect_timeout = -1;  // --connect-timeout (-1: keep the default)
  double io_timeout = -1;       // --io-timeout (-1: keep the defaults)
  int retries = -1;             // --retries (-1: keep the default)
  std::string socket_path = "/tmp/ctaverd.sock";  // --socket (daemon cmds)
  std::string trace_path;    // --trace: Chrome trace-event JSON output
  std::string metrics_path;  // --metrics: registry JSON ('-': table, stdout)
  std::string metrics_json_path;  // --metrics-json: always JSON, '-' = stdout
  std::string log_level;     // --log-level
  bool progress = false;
};

/// Parses a non-negative number spelled by the whole token: "2x", "-5",
/// "", "inf" and values outside T's range are rejected.
template <typename T>
bool parse_number(const std::string& s, T& out) {
  T v{};
  const char* end = s.data() + s.size();
  auto [p, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || p != end) return false;
  if constexpr (std::is_signed_v<T>) {
    if (v < 0 || !std::isfinite(v)) return false;
  }
  out = v;
  return true;
}

/// The numeric flags and the Args field each one sets. What 0 means is per
/// flag; see the usage text.
using NumberField = std::variant<std::size_t Args::*, long long Args::*,
                                 int Args::*, double Args::*>;
const std::map<std::string, NumberField> kNumberFlags = {
    {"--max-states", &Args::max_states},
    {"--max-schemas", &Args::max_schemas},
    {"--time-budget", &Args::time_budget},
    {"--jobs", &Args::jobs},
    {"--workers", &Args::workers},
    {"--max-rss-mb", &Args::max_rss_mb},
    {"--obligation-timeout", &Args::obligation_timeout},
    {"--connect-timeout", &Args::connect_timeout},
    {"--io-timeout", &Args::io_timeout},
    {"--retries", &Args::retries},
};

bool parse_sweep(const std::string& s, std::vector<long long>& out) {
  std::istringstream is(s);
  std::string item;
  while (std::getline(is, item, ',')) {
    long long v = 0;
    if (!parse_number(item, v)) return false;
    out.push_back(v);
  }
  return !out.empty();
}

bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) return false;
  args.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (a == "--no-sweeps") {
      args.no_sweeps = true;
    } else if (a == "--quiet") {
      args.quiet = true;
    } else if (a == "--replay-ce") {
      args.replay_ce = true;
    } else if (a == "--progress") {
      args.progress = true;
    } else if (a == "--resume") {
      args.resume = true;
    } else if (a == "--specs") {
      const char* v = value();
      if (v == nullptr) return false;
      args.specs_dir = v;
    } else if (a == "--trace") {
      const char* v = value();
      if (v == nullptr) return false;
      args.trace_path = v;
    } else if (a == "--metrics") {
      const char* v = value();
      if (v == nullptr) return false;
      args.metrics_path = v;
    } else if (a == "--metrics-json") {
      const char* v = value();
      if (v == nullptr) return false;
      args.metrics_json_path = v;
    } else if (a == "--cache-dir") {
      const char* v = value();
      if (v == nullptr) return false;
      args.cache_dir = v;
    } else if (a == "--socket") {
      const char* v = value();
      if (v == nullptr) return false;
      args.socket_path = v;
    } else if (a == "--only-obligations") {
      const char* v = value();
      if (v == nullptr) return false;
      std::istringstream is(v);
      std::string name;
      while (std::getline(is, name, ',')) {
        if (!name.empty()) args.only_obligations.push_back(name);
      }
      if (args.only_obligations.empty()) return false;
    } else if (a == "--log-level") {
      const char* v = value();
      if (v == nullptr) return false;
      args.log_level = v;
    } else if (a == "--fault-inject") {
      const char* v = value();
      if (v == nullptr) return false;
      args.fault_inject.emplace_back(v);
    } else if (auto f = kNumberFlags.find(a); f != kNumberFlags.end()) {
      const char* v = value();
      if (v == nullptr) return false;
      if (!std::visit([&](auto field) { return parse_number(v, args.*field); },
                      f->second)) {
        std::cerr << "ctaver: " << a << " needs a number, got '" << v << "'\n";
        return false;
      }
    } else if (a == "--sweep") {
      const char* v = value();
      std::vector<long long> vals;
      if (v == nullptr || !parse_sweep(v, vals)) return false;
      args.sweep_override.push_back(std::move(vals));
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "ctaver: unknown option '" << a << "'\n";
      return false;
    } else {
      args.protocols.push_back(std::move(a));
    }
  }
  return true;
}

const char* category_str(Category c) {
  return c == Category::kA ? "(A)" : c == Category::kB ? "(B)" : "(C)";
}

void print_summary(const ProtocolModel& pm, const std::string& origin) {
  const ctaver::ta::System& sys = pm.system;
  std::cout << pm.name << " " << category_str(pm.category) << "  [" << origin
            << "]\n"
            << "  parameters:";
  for (const auto& p : sys.env.params) std::cout << " " << p.name;
  std::cout << "\n  resilience:";
  for (const auto& rc : sys.env.resilience) {
    std::cout << "  " << rc.str(sys.env.params);
  }
  std::cout << "\n  |L| = " << sys.total_locations() << " (process "
            << sys.process.locations.size() << " + coin "
            << sys.coin.locations.size() << ")"
            << "\n  |R| = " << sys.total_rules() << " (process "
            << sys.process.rules.size() << " + coin " << sys.coin.rules.size()
            << ")"
            << "\n  shared vars = " << sys.shared_vars().size()
            << ", coin vars = " << sys.coin_vars().size()
            << "\n  sweep instances = " << pm.sweep_params.size() << "\n";
}

/// One-line rendering of a contained ObligationError for the human output
/// (the obligation lines and `ctaver check`).
std::string error_brief(const ctaver::verify::ObligationError& e) {
  std::string out = "kind=" + e.kind;
  if (!e.site.empty()) out += " site=" + e.site;
  out += " what=" + e.what;
  return out;
}

void print_property(const std::string& title,
                    const ctaver::verify::PropertyResult& pr) {
  std::cout << "  " << title << ": "
            << (pr.holds()                ? "holds"
                : pr.has_counterexample() ? "COUNTEREXAMPLE"
                                          : "inconclusive")
            << "\n";
  for (const ctaver::verify::Obligation& o : pr.obligations) {
    // The line itself comes from verify::obligation_line, the single
    // renderer shared with the daemon's event stream — a streamed verdict
    // is byte-identical to this output.
    std::cout << "    " << ctaver::verify::obligation_line(o) << "\n";
    if (o.error) {
      std::cout << "      contained error: " << error_brief(*o.error) << "\n";
    }
    if (!o.holds) {
      if (!o.ce.empty()) std::cout << "      " << o.ce << "\n";
      if (!o.detail.empty()) std::cout << "      " << o.detail << "\n";
    }
    if (!o.replay.empty()) std::cout << "      replay " << o.replay << "\n";
  }
}

/// Compact `expect` surface of a protocol for `ctaver list`: the violated
/// obligations by name, a count of the declared holds, and the attack
/// sketch — or an em dash when the spec declares nothing.
std::string expects_summary(const ProtocolModel& pm) {
  if (pm.expects.empty() && !pm.attack) return "—";
  std::string violated;
  int holds = 0;
  for (const auto& e : pm.expects) {
    if (e.violated) {
      if (!violated.empty()) violated += ",";
      violated += e.obligation;
    } else {
      ++holds;
    }
  }
  std::string out;
  if (!violated.empty()) out += violated + " violated";
  if (holds > 0) {
    if (!out.empty()) out += ", ";
    out += std::to_string(holds) + " holds";
  }
  if (pm.attack) {
    if (!out.empty()) out += ", ";
    out += "attack " + pm.attack->script + "/" + pm.attack->simulator;
  }
  return out;
}

int cmd_list(const ProtocolRegistry& registry) {
  for (const std::string& name : registry.names()) {
    ProtocolModel pm = registry.make(name);
    std::cout << name << "  " << category_str(pm.category)
              << "  |L|=" << pm.system.total_locations()
              << " |R|=" << pm.system.total_rules() << "  ["
              << registry.origin(name) << "]  expect: " << expects_summary(pm)
              << "\n";
  }
  return 0;
}

int cmd_parse(const ProtocolRegistry& registry, const Args& args) {
  if (args.protocols.empty()) return usage(std::cerr, 2);
  for (const std::string& spec : args.protocols) {
    ProtocolModel pm = registry.resolve(spec);
    print_summary(pm, spec);
  }
  return 0;
}

/// Dispatches verify_protocol over `models`: serially for jobs <= 1,
/// otherwise every protocol's obligation and sweep-instance tasks go to ONE
/// shared work-stealing pool up front, so a cheap protocol's tail overlaps
/// the next protocol's ramp-up and no --jobs width is lost to a
/// per-protocol split. Each protocol keeps its own budget (armed when its
/// first task starts) and reports come back in argument order, byte-
/// identical to the serial run's. `opts_for` returning nullopt skips that
/// model (its report slot stays empty).
std::vector<std::optional<ctaver::verify::ProtocolReport>> run_protocols(
    const std::vector<ProtocolModel>& models, int jobs_arg,
    const std::function<std::optional<ctaver::verify::Options>(
        const ProtocolModel&)>& opts_for) {
  std::vector<std::optional<ctaver::verify::ProtocolReport>> reports(
      models.size());
  int jobs = jobs_arg > 0 ? jobs_arg
                          : ctaver::util::ThreadPool::hardware_workers();
  if (jobs <= 1) {
    for (std::size_t i = 0; i < models.size(); ++i) {
      if (auto opts = opts_for(models[i])) {
        reports[i] = ctaver::verify::verify_protocol(models[i], *opts);
      }
    }
  } else {
    ctaver::util::ThreadPool pool(jobs);
    std::vector<std::pair<std::size_t, ctaver::verify::ProtocolRun>> runs;
    runs.reserve(models.size());
    for (std::size_t i = 0; i < models.size(); ++i) {
      if (auto opts = opts_for(models[i])) {
        runs.emplace_back(i, ctaver::verify::verify_protocol_async(
                                 models[i], *opts, pool));
      }
    }
    for (auto& [i, run] : runs) reports[i] = run.finish();
  }
  return reports;
}

/// Budget/scheduler flags shared by verify and check, so the same CLI flag
/// always means the same thing (replay_ce / only_obligations are layered on
/// top by each command).
ctaver::verify::Options base_options(const Args& args) {
  ctaver::verify::Options opts;
  opts.run_sweeps = !args.no_sweeps;
  opts.jobs = args.jobs;
  if (args.workers >= 0) {
    // --workers 0 = all cores. Resolved here because the pipeline treats 0
    // as "keep the deterministic-by-default width of 1".
    opts.schema.workers =
        args.workers == 0 ? ctaver::util::ThreadPool::hardware_workers()
                          : args.workers;
  }
  opts.schema.max_rss_mb = args.max_rss_mb;
  opts.obligation_timeout_s = args.obligation_timeout;
  if (args.max_states > 0) opts.max_states = args.max_states;
  if (args.max_schemas > 0) opts.schema.max_schemas = args.max_schemas;
  if (args.time_budget > 0) opts.schema.time_budget_s = args.time_budget;
  return opts;
}

/// Resolves a protocol argument and applies any --sweep overrides (used by
/// verify and check alike, so the flag means the same thing everywhere).
ProtocolModel resolve_with_sweeps(const ProtocolRegistry& registry,
                                  const Args& args, const std::string& spec) {
  ProtocolModel pm = registry.resolve(spec);
  if (!args.sweep_override.empty()) {
    // The frontend validates spec-file sweeps; hold CLI overrides to the
    // same bar or ParamExpr::eval would read past the valuation vector.
    for (const auto& vals : args.sweep_override) {
      if (vals.size() != pm.system.env.params.size()) {
        throw std::runtime_error(
            "--sweep instance has " + std::to_string(vals.size()) +
            " values but " + pm.name + " has " +
            std::to_string(pm.system.env.params.size()) + " parameters");
      }
      if (!pm.system.env.admissible(vals)) {
        throw std::runtime_error(
            "--sweep instance violates the resilience condition of " +
            pm.name);
      }
    }
    pm.sweep_params = args.sweep_override;
  }
  return pm;
}

int cmd_verify(const ProtocolRegistry& registry, const Args& args,
               bool rows_only, const std::vector<std::string>& protocols) {
  if (protocols.empty()) return usage(std::cerr, 2);
  ctaver::verify::Options opts = base_options(args);
  opts.replay_ce = args.replay_ce;
  opts.only_obligations = args.only_obligations;
  // --cache-dir: verdicts proved in this run land in the on-disk proof
  // cache; obligations whose keys are already present replay byte-
  // identically without proving anything.
  std::optional<ctaver::svc::ProofCache> cache;
  if (!args.cache_dir.empty()) {
    cache.emplace(args.cache_dir);
    opts.cache = &*cache;
  } else if (args.resume) {
    std::cerr << "ctaver: --resume needs --cache-dir (the journal and the "
                 "proofs it references live there)\n";
    return 2;
  }

  std::vector<ProtocolModel> models;
  models.reserve(protocols.size());
  for (const std::string& spec : protocols) {
    models.push_back(resolve_with_sweeps(registry, args, spec));
  }

  // Crash-safety journal: every run under --cache-dir appends run-start /
  // per-obligation / run-end records (fsync'd, checksummed — see
  // src/svc/journal.h). --resume additionally checks the journal for an
  // unfinished run of the SAME identity before re-proving: the obligations
  // it journaled as durable replay from the cache, so the resumed report is
  // byte-identical to an uninterrupted one.
  std::optional<ctaver::svc::Journal> journal;
  std::string run_id;
  if (cache) {
    journal.emplace(args.cache_dir);
    if (!journal->ok()) {
      std::cerr << "ctaver: journal: " << journal->error()
                << " (continuing without crash-safety)\n";
      journal.reset();
      if (args.resume) return 2;
    }
  }
  if (journal) {
    std::vector<ctaver::verify::ObligationKey> all_keys;
    std::string names;
    for (const ProtocolModel& pm : models) {
      for (ctaver::verify::ObligationKey& k :
           ctaver::verify::obligation_cache_keys(pm, opts)) {
        all_keys.push_back(std::move(k));
      }
      names += (names.empty() ? "" : ",") + pm.name;
    }
    run_id = ctaver::svc::journal_run_id(all_keys);
    if (args.resume) {
      if (journal->run_started(run_id) && !journal->run_finished(run_id)) {
        std::cerr << "ctaver: resuming run " << run_id.substr(0, 12) << ": "
                  << journal->run_obligations(run_id).size() << " of "
                  << all_keys.size()
                  << " obligation(s) already durable; re-proving the rest\n";
      } else if (journal->unfinished_runs() > 0) {
        std::cerr << "ctaver: --resume: the journal's unfinished run was "
                     "started with different specs or options (run id "
                     "mismatch); re-run the original command line, or drop "
                     "--resume to start over\n";
        return 2;
      } else {
        std::cerr << "ctaver: --resume: no unfinished run in the journal; "
                     "running cold\n";
      }
    }
    journal->run_start(run_id, "verify", names, all_keys.size());
    opts.journal = &*journal;
    opts.journal_run = run_id;
  }

  auto maybe_reports = run_protocols(
      models, args.jobs,
      [&](const ProtocolModel&) { return std::optional(opts); });

  bool all_verified = true;
  bool any_error = false;
  std::cout << ctaver::verify::table2_header() << "\n";
  for (const auto& slot : maybe_reports) {
    const ctaver::verify::ProtocolReport& report = *slot;
    if (!rows_only) {
      std::cout << "== " << report.protocol << " "
                << category_str(report.category)
                << " |L|=" << report.n_locations
                << " |R|=" << report.n_rules << "\n";
      print_property("Agreement", report.agreement);
      print_property("Validity", report.validity);
      print_property("Almost-sure termination", report.termination);
    }
    std::cout << ctaver::verify::table2_row(report) << "\n";
    all_verified = all_verified && report.agreement.holds() &&
                   report.validity.holds() && report.termination.holds();
    any_error = any_error || report.agreement.has_error() ||
                report.validity.has_error() || report.termination.has_error();
  }
  // Exit precedence 3 > 1: a contained internal error means the run is
  // incomplete-by-failure, so neither a clean 0 nor a plain verdict 1 would
  // be trustworthy (and CI fault-smoke assertions stay deterministic even on
  // protocols that also have a genuine counterexample).
  int code = any_error ? 3 : all_verified ? 0 : 1;
  if (journal) journal->run_end(run_id, code);
  return code;
}

const ctaver::verify::Obligation* find_obligation(
    const ctaver::verify::ProtocolReport& r, const std::string& name) {
  for (const ctaver::verify::PropertyResult* prop :
       {&r.agreement, &r.validity, &r.termination}) {
    for (const ctaver::verify::Obligation& o : prop->obligations) {
      if (o.name == name) return &o;
    }
  }
  return nullptr;
}

/// `ctaver check`: discharge exactly the obligations each spec declares in
/// its `expect` block, compare verdicts, auto-replay every schema
/// counterexample through src/replay, and execute attack sketches. Budget
/// exhaustion on an expected-holds obligation is a skip (the verdict did
/// not flip); everything else that disagrees is a failure.
int cmd_check(const ProtocolRegistry& registry, const Args& args) {
  std::vector<std::string> protocols = args.protocols;
  if (protocols.empty()) protocols = registry.names();
  if (protocols.empty()) return usage(std::cerr, 2);

  std::vector<ProtocolModel> models;
  models.reserve(protocols.size());
  for (const std::string& spec : protocols) {
    models.push_back(resolve_with_sweeps(registry, args, spec));
  }

  auto opts_for = [&](const ProtocolModel& pm) {
    ctaver::verify::Options opts = base_options(args);
    opts.replay_ce = true;
    for (const auto& e : pm.expects) {
      opts.only_obligations.push_back(e.obligation);
    }
    return opts;
  };

  auto reports = run_protocols(
      models, args.jobs,
      [&](const ProtocolModel& pm)
          -> std::optional<ctaver::verify::Options> {
        if (pm.expects.empty()) return std::nullopt;  // attack sketch only
        return opts_for(pm);
      });

  int confirmed = 0, skipped = 0, failed = 0, errored = 0;
  for (std::size_t i = 0; i < models.size(); ++i) {
    const ProtocolModel& pm = models[i];
    std::cout << "== " << pm.name << " [" << protocols[i] << "]\n";
    if (pm.expects.empty() && !pm.attack) {
      std::cout << "  FAIL: no expect declarations (annotate the spec with "
                   "an expect block, or drop it from check)\n";
      ++failed;
      continue;
    }
    for (const auto& e : pm.expects) {
      const ctaver::verify::Obligation* o =
          find_obligation(*reports[i], e.obligation);
      std::cout << "  " << e.obligation << ": ";
      if (o == nullptr) {
        // Only reachable for the sweep obligations under --no-sweeps.
        std::cout << "skip (not planned; sweeps disabled)\n";
        ++skipped;
        continue;
      }
      if (o->error) {
        // Contained internal failure: neither confirmed nor failed — the
        // obligation was not properly discharged. Drives exit code 3.
        std::cout << "ERROR (contained: " << error_brief(*o->error) << ")\n";
        ++errored;
        continue;
      }
      if (!e.violated) {
        if (o->holds) {
          std::cout << "ok (holds"
                    << (o->parametric ? "" : " on the sweep instances")
                    << ")\n";
          ++confirmed;
        } else if (!o->ce.empty()) {
          std::cout << "FAIL: expected holds, found a counterexample\n"
                    << "      " << o->ce << "\n";
          if (!o->replay.empty()) {
            std::cout << "      replay " << o->replay << "\n";
          }
          ++failed;
        } else {
          std::cout << "skip (inconclusive within budget)\n";
          ++skipped;
        }
      } else {
        if (!o->ce.empty()) {
          if (o->ce_data) {
            if (o->replay_ok) {
              std::cout << "ok (violated; replay " << o->replay << ")\n";
              ++confirmed;
            } else {
              std::cout << "FAIL: counterexample found but its replay did "
                           "not confirm it\n      replay "
                        << o->replay << "\n";
              ++failed;
            }
          } else {
            std::cout << "ok (violated on the sweep instances; no schedule "
                         "to replay)\n";
            ++confirmed;
          }
        } else if (o->holds && o->complete) {
          std::cout << "FAIL: expected violated, proved to hold\n";
          ++failed;
        } else {
          std::cout << "FAIL: expected violation not found (inconclusive "
                       "within budget — raise --time-budget?)\n";
          ++failed;
        }
      }
    }
    if (pm.attack) {
      const ctaver::protocols::AttackSketch& sk = *pm.attack;
      // The lowering validated the name; a model built in code may not have.
      std::optional<ctaver::sim::Protocol> proto =
          ctaver::sim::protocol_from_name(sk.simulator);
      if (!proto) {
        std::cout << "  attack " << sk.script << "/" << sk.simulator
                  << ": FAIL: unknown simulator\n";
        ++failed;
        continue;
      }
      ctaver::sim::AttackOptions ao;
      ao.proto = *proto;
      ao.n = sk.n;
      ao.t = sk.t;
      ao.inputs = sk.inputs;
      ao.rounds = sk.rounds;
      ao.coin_seed = sk.seed;
      ctaver::sim::AttackResult res = ctaver::sim::run_attack(ao);
      std::cout << "  attack " << sk.script << "/" << sk.simulator << ": ";
      if (!sk.expect_decision) {
        // The attack must stay in control for the whole horizon and no
        // correct process may decide.
        if (!res.any_decided && !res.script_failed &&
            res.rounds_executed == sk.rounds) {
          std::cout << "ok (no decision through " << sk.rounds
                    << " scripted rounds)\n";
          ++confirmed;
        } else {
          std::cout << "FAIL: expected no decision, but "
                    << (res.any_decided ? "a process decided"
                                        : "the script broke down after " +
                                              std::to_string(
                                                  res.rounds_executed) +
                                              " rounds")
                    << "\n";
          ++failed;
        }
      } else {
        if (res.any_decided) {
          std::cout << "ok (decided; the adversary script "
                    << (res.script_failed
                            ? "broke down after " +
                                  std::to_string(res.rounds_executed) +
                                  " rounds"
                            : "completed")
                    << ")\n";
          ++confirmed;
        } else {
          std::cout << "FAIL: expected a decision, but no correct process "
                       "decided\n";
          ++failed;
        }
      }
    }
  }
  std::cout << "check: " << confirmed << " confirmed, " << skipped
            << " skipped, " << failed << " failed";
  if (errored > 0) std::cout << ", " << errored << " errored";
  std::cout << "\n";
  // Same precedence as cmd_verify: contained errors (3) beat verdict
  // failures (1).
  if (errored > 0) return 3;
  return failed == 0 ? 0 : 1;
}

/// `ctaver hash`: print each planned obligation's content-addressed cache
/// key — the exact key the proof cache uses (verify::obligation_cache_keys
/// is the cache's own derivation path), so the output answers "would this
/// edit invalidate that obligation?" by diffing two hash runs.
int cmd_hash(const ProtocolRegistry& registry, const Args& args) {
  std::vector<std::string> protocols = args.protocols;
  if (protocols.empty()) {
    if (args.specs_dir.empty()) return usage(std::cerr, 2);
    for (const std::string& name : registry.names()) {
      if (registry.origin(name) != "builtin") protocols.push_back(name);
    }
  }
  ctaver::verify::Options opts = base_options(args);
  opts.only_obligations = args.only_obligations;
  for (const std::string& spec : protocols) {
    ProtocolModel pm = resolve_with_sweeps(registry, args, spec);
    std::cout << "== " << pm.name << "\n";
    for (const ctaver::verify::ObligationKey& k :
         ctaver::verify::obligation_cache_keys(pm, opts)) {
      std::cout << k.key << "  " << (k.parametric ? "parametric" : "sweep")
                << "  " << k.name << "\n";
    }
  }
  return 0;
}

/// SIGTERM (the daemon's drain signal): one relaxed store the accept loop
/// polls every 200 ms; in-flight submissions finish streaming before run()
/// returns.
std::atomic<bool> g_sigterm{false};
void handle_sigterm(int) { g_sigterm.store(true, std::memory_order_relaxed); }

int cmd_serve(const Args& args) {
  ctaver::svc::ServeOptions so;
  so.socket_path = args.socket_path;
  so.specs_dir = args.specs_dir;
  so.cache_dir = args.cache_dir;
  so.verify = base_options(args);
  so.verify.replay_ce = args.replay_ce;
  so.stop_flag = &g_sigterm;
  // --io-timeout on serve arms the daemon's per-connection deadlines (both
  // directions); the write deadline keeps its stuck-reader default
  // otherwise.
  if (args.io_timeout >= 0) {
    so.read_timeout_s = args.io_timeout;
    so.write_timeout_s = args.io_timeout;
  }
  // The stats event reads the metrics registry, so the daemon always
  // collects (out-of-band: verdict bytes are unaffected).
  ctaver::obs::Registry::global().set_enabled(true);
  std::signal(SIGTERM, &handle_sigterm);
  ctaver::svc::Server server(std::move(so));
  std::string err;
  if (!server.start(&err)) {
    std::cerr << "ctaver: serve: " << err << "\n";
    return 2;
  }
  // Restart recovery: report what the journal replayed — the proofs of the
  // journaled completions are in the cache, so an unfinished submission's
  // resubmission re-proves only what never landed durable.
  if (const ctaver::svc::Journal* j = server.journal();
      j != nullptr && j->ok()) {
    const ctaver::svc::JournalStats& js = j->stats();
    if (js.replayed > 0 || js.truncated_bytes > 0) {
      std::cerr << "ctaver: journal recovered: " << js.replayed
                << " record(s), " << j->unfinished_runs()
                << " unfinished submission(s)";
      if (js.truncated_bytes > 0) {
        std::cerr << " (" << js.truncated_bytes << " torn byte(s) truncated)";
      }
      std::cerr << "\n";
    }
  }
  std::cerr << "ctaver: serving on " << args.socket_path
            << (args.cache_dir.empty() ? std::string()
                                       : " (cache " + args.cache_dir + ")")
            << "\n";
  server.run();
  std::cerr << "ctaver: daemon drained\n";
  return 0;
}

int dispatch(const Args& args) {
  try {
    ProtocolRegistry registry = ProtocolRegistry::with_builtins();
    if (!args.specs_dir.empty()) registry.add_directory(args.specs_dir);
    if (args.command == "list") return cmd_list(registry);
    if (args.command == "parse") return cmd_parse(registry, args);
    if (args.command == "verify") {
      return cmd_verify(registry, args, args.quiet, args.protocols);
    }
    if (args.command == "check") return cmd_check(registry, args);
    if (args.command == "hash") return cmd_hash(registry, args);
    if (args.command == "serve") return cmd_serve(args);
    if (args.command == "submit" || args.command == "stats" ||
        args.command == "shutdown") {
      ctaver::svc::ClientOptions copts;
      if (args.connect_timeout >= 0) copts.connect_timeout_s =
          args.connect_timeout;
      if (args.io_timeout >= 0) copts.io_timeout_s = args.io_timeout;
      if (args.retries >= 0) copts.retries = args.retries;
      if (args.command == "submit") {
        if (args.protocols.empty()) return usage(std::cerr, 2);
        return ctaver::svc::submit_specs(args.socket_path, args.protocols,
                                         std::cout, std::cerr, copts);
      }
      if (args.command == "stats") {
        return ctaver::svc::request_stats(args.socket_path, std::cout,
                                          std::cerr, copts);
      }
      return ctaver::svc::request_shutdown(args.socket_path, std::cerr,
                                           copts);
    }
    if (args.command == "table2") {
      std::vector<std::string> protocols = args.protocols;
      if (protocols.empty()) {
        // The paper's Table-II order (NaiveVoting is the warm-up, not a row).
        protocols = {"Rabin83", "CC85a", "CC85b",    "FMR05",
                     "KS16",    "MMR14", "Miller18", "ABY22"};
      }
      return cmd_verify(registry, args, /*rows_only=*/true, protocols);
    }
    std::cerr << "ctaver: unknown command '" << args.command << "'\n";
    return usage(std::cerr, 2);
  } catch (const ParseError& e) {
    std::cerr << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "ctaver: " << e.what() << "\n";
    return 2;
  }
}

/// Flushes --trace / --metrics output after the command ran. Runs even when
/// the command failed — a partial trace of a failing run is exactly what
/// one wants to look at. Returns 2 on I/O failure (but never masks a
/// nonzero command code with a success).
int flush_observability(const Args& args, int code) {
  if (!args.trace_path.empty() &&
      !ctaver::obs::Tracer::global().write_file(args.trace_path)) {
    std::cerr << "ctaver: cannot write trace file '" << args.trace_path
              << "'\n";
    if (code == 0) code = 2;
  }
  if (!args.metrics_path.empty() || !args.metrics_json_path.empty()) {
    const ctaver::obs::Snapshot snap =
        ctaver::obs::Registry::global().snapshot();
    if (args.metrics_path == "-") {
      std::cout << snap.to_table();
    } else if (!args.metrics_path.empty()) {
      std::ofstream out(args.metrics_path,
                        std::ios::binary | std::ios::trunc);
      out << snap.to_json();
      if (!out) {
        std::cerr << "ctaver: cannot write metrics file '"
                  << args.metrics_path << "'\n";
        if (code == 0) code = 2;
      }
    }
    // --metrics-json: the machine-readable face, '-' included (where
    // --metrics falls back to the human table).
    if (args.metrics_json_path == "-") {
      std::cout << snap.to_json() << "\n";
    } else if (!args.metrics_json_path.empty()) {
      std::ofstream out(args.metrics_json_path,
                        std::ios::binary | std::ios::trunc);
      out << snap.to_json();
      if (!out) {
        std::cerr << "ctaver: cannot write metrics file '"
                  << args.metrics_json_path << "'\n";
        if (code == 0) code = 2;
      }
    }
  }
  return code;
}

/// SIGINT: one relaxed store (async-signal-safe); the budget polls convert
/// it into a budget-style cancellation so in-flight obligations unwind as
/// cancelled and the partial report still flushes. A second ^C gets the
/// default disposition and kills the process immediately.
void handle_sigint(int) {
  ctaver::util::request_interrupt();
  std::signal(SIGINT, SIG_DFL);
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) return usage(std::cerr, 2);
  if (args.command == "help" || args.command == "--help" ||
      args.command == "-h") {
    return usage(std::cout, 0);
  }
  if (!args.log_level.empty()) {
    std::optional<ctaver::util::LogLevel> level =
        ctaver::util::parse_log_level(args.log_level);
    if (!level) {
      std::cerr << "ctaver: --log-level wants debug|info|warn|error, got '"
                << args.log_level << "'\n";
      return 2;
    }
    ctaver::util::set_log_level(*level);
  }
  for (const std::string& plan : args.fault_inject) {
    std::string err;
    if (!ctaver::util::FaultInjector::instance().arm(plan, &err)) {
      std::cerr << "ctaver: --fault-inject: " << err << "\n";
      return 2;
    }
  }
  // The meter reads the registry, so --progress implies metrics collection.
  if (!args.metrics_path.empty() || !args.metrics_json_path.empty() ||
      args.progress) {
    ctaver::obs::Registry::global().set_enabled(true);
  }
  if (!args.trace_path.empty()) ctaver::obs::Tracer::global().enable();
  std::signal(SIGINT, &handle_sigint);
  int code;
  {
    std::optional<ctaver::obs::ProgressMeter> meter;
    if (args.progress) meter.emplace();
    code = dispatch(args);
    if (meter) meter->stop();  // before any final output lands on stderr
  }
  code = flush_observability(args, code);
  if (ctaver::util::interrupted()) {
    ctaver::util::StderrGate::global().println(
        "ctaver: interrupted — partial report flushed");
    code = 130;
  }
  return code;
}
