// ctaver — command-line driver for the verification pipeline.
//
//   ctaver list                       # registered protocols
//   ctaver parse specs/mmr14.cta      # front-end only: summary or diagnostics
//   ctaver verify MMR14               # full pipeline on a built-in model
//   ctaver verify specs/mmr14.cta     # ... or on a .cta spec file
//   ctaver table2                     # the paper's Table-II rows, timed
//   ctaver check                      # regression-check declared verdicts
//
// Protocol arguments are resolved through frontend::ProtocolRegistry, so
// built-ins and spec files are interchangeable everywhere. Each flag is one
// kFlags entry: its parser, the commands that take it, and its help.
#include <algorithm>
#include <charconv>
#include <cmath>
#include <csignal>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "frontend/diag.h"
#include "frontend/registry.h"
#include "obs/metrics.h"
#include "obs/progress.h"
#include "obs/trace.h"
#include "sim/attack.h"
#include "svc/journal.h"
#include "svc/proof_cache.h"
#include "util/cancel.h"
#include "util/fault.h"
#include "util/logging.h"
#include "util/stderr_gate.h"
#include "util/strings.h"
#include "util/thread_pool.h"
#include "verify/pipeline.h"

namespace {

using ctaver::frontend::ParseError;
using ctaver::frontend::ProtocolRegistry;
using ctaver::protocols::category_str;
using ctaver::protocols::ProtocolModel;

struct Args {
  std::string command;
  std::vector<std::string> protocols;
  ctaver::verify::Options opts;  // set by the flags that shape a run
  // Flags the CLI reads itself.
  std::string specs_dir;
  std::vector<std::vector<long long>> sweep_override;
  std::vector<std::string> fault_inject;  // armed once parsing succeeded
  std::string cache_dir;
  bool resume = false;
  std::string trace_path;
  std::string metrics_path;       // '-': the summary table on stdout
  std::string metrics_json_path;  // '-': JSON on stdout
  std::optional<ctaver::util::LogLevel> log_level;
  bool progress = false;
};

/// Reads a non-negative number spelled by the whole token into `out`, where
/// 0 stands for `zero` (what 0 means is per flag). "2x", "-5", "", "inf"
/// and values outside T's range are rejected.
template <typename T>
bool number(const std::string& s, T& out, T zero = T{}) {
  T v{};
  const char* end = s.data() + s.size();
  auto [p, ec] = std::from_chars(s.data(), end, v);
  if (ec != std::errc() || p != end) return false;
  if constexpr (std::is_signed_v<T>) {
    if (v < 0 || !std::isfinite(v)) return false;
  }
  out = v == 0 ? zero : v;
  return true;
}

/// The setters of a flag that stores its value, and of a switch.
template <std::string Args::*field>
bool store(Args& a, const std::string& v) {
  a.*field = v;
  return true;
}
template <bool Args::*field>
bool turn_on(Args& a, const std::string&) {
  a.*field = true;
  return true;
}

// The commands, in usage order, then the sets of them that flags share:
// the commands that plan obligations or derive their keys, those that run
// them, and those that prove through the cache. `help` (also `--help`,
// `-h`) takes no flag.
using Commands = std::vector<std::string>;
const Commands kAll = {"list", "parse", "verify", "table2", "check", "hash"};
const Commands kPlanning = {"verify", "table2", "check", "hash"};
const Commands kRunning = {"verify", "table2", "check"};
const Commands kProving = {"verify", "table2"};

/// One command-line flag. A command outside `commands` rejects it.
struct Flag {
  const char* name;
  const char* value;  // the value's name; nullptr for a switch
  Commands commands;
  const char* help;  // '\n' continues it on the next line
  bool (*set)(Args&, const std::string& value);  // false: a bad value
};

// Grouped by `commands`: usage() prints a heading where the group changes.
const Flag kFlags[] = {
    {"--specs", "DIR", kAll, "register every .cta file in DIR",
     store<&Args::specs_dir>},
    {"--trace", "FILE", kAll,
     "write a Chrome trace-event JSON (Perfetto /\n"
     "chrome://tracing) with protocol > obligation >\n"
     "unit > query spans",
     store<&Args::trace_path>},
    {"--metrics", "FILE", kAll,
     "write the merged metrics registry as JSON\n"
     "('-': a human-readable table on stdout)",
     store<&Args::metrics_path>},
    {"--metrics-json", "FILE", kAll,
     "the metrics registry as JSON ('-': on stdout)",
     store<&Args::metrics_json_path>},
    {"--progress", nullptr, kAll, "live progress line on stderr",
     turn_on<&Args::progress>},
    {"--log-level", "debug|info|warn|error", kAll,
     "the stderr log threshold (default warn)",
     [](Args& a, const std::string& v) {
       a.log_level = ctaver::util::parse_log_level(v);
       return a.log_level.has_value();
     }},
    {"--no-sweeps", nullptr, kPlanning,
     "skip the explicit-instance (C1)/(C2') sweeps",
     [](Args& a, const std::string&) {
       a.opts.run_sweeps = false;
       return true;
     }},
    {"--max-states", "N", kPlanning,
     "state cap per swept instance (0: the default)",
     [](Args& a, const std::string& v) {
       return number(v, a.opts.max_states,
                     ctaver::verify::Options{}.max_states);
     }},
    {"--max-schemas", "N", kPlanning,
     "schema cap shared by a protocol's obligations\n(0: the default)",
     [](Args& a, const std::string& v) {
       return number(v, a.opts.schema.max_schemas,
                     ctaver::schema::CheckOptions{}.max_schemas);
     }},
    {"--sweep", "a,b,...", kPlanning,
     "override the spec's sweep instances (repeatable)",
     [](Args& a, const std::string& v) {
       std::vector<long long> vals;
       std::istringstream is(v);
       for (std::string item; std::getline(is, item, ',');) {
         if (!number(item, vals.emplace_back())) return false;
       }
       if (vals.empty()) return false;
       a.sweep_override.push_back(std::move(vals));
       return true;
     }},
    {"--only-obligations", "a,b,...", {"verify", "table2", "hash"},
     "discharge only the named obligations\n"
     "(unknown names are a positioned error, exit 2)",
     [](Args& a, const std::string& v) {
       std::istringstream is(v);
       for (std::string name; std::getline(is, name, ',');) {
         if (!name.empty()) a.opts.only_obligations.push_back(name);
       }
       return !a.opts.only_obligations.empty();
     }},
    {"--jobs", "N", kRunning,
     "obligation-scheduler workers (0 = all cores,\n"
     "1 = serial; reports are identical either way)",
     [](Args& a, const std::string& v) { return number(v, a.opts.jobs); }},
    {"--workers", "N", kRunning,
     "enumeration workers inside each obligation\n"
     "(default 1, 0 = all cores; reports are byte-\n"
     "identical for every jobs x workers combination)",
     [](Args& a, const std::string& v) {
       return number(v, a.opts.schema.workers,
                     ctaver::util::ThreadPool::hardware_workers());
     }},
    {"--time-budget", "S", kRunning,
     "wall-clock budget per protocol (seconds;\n0: the default)",
     [](Args& a, const std::string& v) {
       return number(v, a.opts.schema.time_budget_s,
                     ctaver::schema::CheckOptions{}.time_budget_s);
     }},
    {"--max-rss-mb", "N", kRunning,
     "RSS watchdog (0: off): past N MiB resident,\n"
     "cut the run to inconclusive (reason 'memory')\n"
     "instead of an OOM abort",
     [](Args& a, const std::string& v) {
       return number(v, a.opts.schema.max_rss_mb);
     }},
    {"--obligation-timeout", "S", kRunning,
     "per-obligation hard deadline (seconds; 0: off):\n"
     "a tripped obligation goes inconclusive (reason\n"
     "'obligation-timeout') without touching its\n"
     "siblings or the shared budget",
     [](Args& a, const std::string& v) {
       return number(v, a.opts.obligation_timeout_s);
     }},
    {"--fault-inject", "SITE:N:ACTION", kRunning,
     "on the N-th hit of fault point SITE run ACTION\n"
     "(throw | cancel | delay | abort; abort SIGKILLs\n"
     "the process on the spot, exit 137); repeatable.\n"
     "Sites: lia.pivot, schema.encode,\n"
     "schema.unit_adopt, cs.expand, replay.step",
     [](Args& a, const std::string& v) {
       a.fault_inject.push_back(v);
       return true;
     }},
    {"--replay-ce", nullptr, kProving,
     "replay every schema counterexample through\n"
     "the concretization engine (src/replay)",
     [](Args& a, const std::string&) {
       a.opts.replay_ce = true;
       return true;
     }},
    {"--cache-dir", "DIR", kProving,
     "content-addressed proof cache: complete\n"
     "verdicts replay byte-identically on later runs;\n"
     "also home of the crash-safety journal",
     store<&Args::cache_dir>},
    {"--resume", nullptr, kProving,
     "finish a killed run from the cache directory's\n"
     "journal, re-proving only what it left without\n"
     "a durable proof (exit 2 without a cache\n"
     "directory, or for other specs/options)",
     turn_on<&Args::resume>},
};

/// "--jobs N", or "--progress" for a switch.
std::string spelled(const Flag& f) {
  return f.value == nullptr ? f.name : std::string(f.name) + " " + f.value;
}

int usage(std::ostream& os, int code) {
  os << "usage: ctaver <command> [options] [protocol...]\n"
        "\n"
        "commands:\n"
        "  list               list registered protocols (and their declared\n"
        "                     expect verdicts)\n"
        "  parse SPEC...      run the front-end only; print a model summary\n"
        "  verify SPEC...     full pipeline; obligations plus Table-II row,\n"
        "                     no wall-clock (byte-identical at any width)\n"
        "  table2 [SPEC...]   timed Table-II rows (default: the eight\n"
        "                     benchmarks)\n"
        "  check [SPEC...]    regression-check every declared `expect`\n"
        "                     verdict (default: all registered protocols);\n"
        "                     schema counterexamples are auto-replayed and\n"
        "                     attack sketches executed\n"
        "  hash SPEC...       print each planned obligation's content-\n"
        "                     addressed cache key (the proof cache's key)\n"
        "\n"
        "SPEC is a registered protocol name or a path to a .cta file.\n"
        "\n"
        "options, under the commands that take them (any other command\n"
        "rejects the option, exit 2):\n";
  const std::string indent(21, ' ');
  Commands group;
  for (const Flag& f : kFlags) {
    if (f.commands != group) {
      group = f.commands;
      os << "\n" << ctaver::util::join(group, ", ") << ":\n";
    }
    const std::string head = "  " + spelled(f);
    os << (head.size() < indent.size()
               ? ctaver::util::pad_right(head, indent.size())
               : head + "\n" + indent);
    for (const char* p = f.help; *p != '\0'; ++p) {
      os << *p << (*p == '\n' ? indent : "");
    }
    os << "\n";
  }
  os << "\n"
        "exit codes:\n"
        "  0    all requested verdicts obtained (and as expected)\n"
        "  1    verdict shortfall: counterexample, failed check, or\n"
        "       inconclusive within budget\n"
        "  2    usage or input error (bad flags, parse errors)\n"
        "  3    contained internal error: some obligation carries a\n"
        "       structured ERROR; takes precedence over 1 because the run\n"
        "       is incomplete-by-failure, not refuted\n"
        "  130  interrupted (SIGINT); the partial report still flushes\n";
  return code;
}

bool is_help(const std::string& command) {
  return command == "help" || command == "--help" || command == "-h";
}

bool takes(const Commands& commands, const std::string& command) {
  return std::ranges::find(commands, command) != commands.end();
}

/// Reads the command, then each flag through its kFlags entry. A usage
/// error says why on stderr and returns false (exit 2) before anything
/// runs or is created.
bool parse_args(int argc, char** argv, Args& args) {
  if (argc < 2) {
    usage(std::cerr, 2);
    return false;
  }
  args.command = argv[1];
  if (!takes(kAll, args.command) && !is_help(args.command)) {
    std::cerr << "ctaver: unknown command '" << args.command << "'\n";
    usage(std::cerr, 2);
    return false;
  }
  for (int i = 2; i < argc; ++i) {
    std::string a = argv[i];
    if (a.empty() || a[0] != '-') {
      args.protocols.push_back(std::move(a));
      continue;
    }
    const Flag* f = std::find_if(std::begin(kFlags), std::end(kFlags),
                                 [&](const Flag& g) { return a == g.name; });
    if (f == std::end(kFlags)) {
      std::cerr << "ctaver: unknown option '" << a << "'\n";
      usage(std::cerr, 2);
      return false;
    }
    if (!takes(f->commands, args.command)) {
      std::cerr << "ctaver: " << args.command << " does not take " << a
                << "\n";
      return false;
    }
    if (f->value != nullptr && i + 1 == argc) {
      std::cerr << "ctaver: " << spelled(*f) << ": missing value\n";
      return false;
    }
    const std::string value = f->value != nullptr ? argv[++i] : "";
    if (!f->set(args, value)) {
      std::cerr << "ctaver: " << spelled(*f) << ": bad value '" << value
                << "'\n";
      return false;
    }
  }
  return true;
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

/// `ctaver verify` prints each verify::report_text; `ctaver table2`
/// (`timed_rows`) prints only the Table-II rows, with time columns.
int cmd_verify(const ProtocolRegistry& registry, const Args& args,
               bool timed_rows, const std::vector<std::string>& protocols) {
  if (protocols.empty()) return usage(std::cerr, 2);
  ctaver::verify::Options opts = args.opts;
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
                << (args.resume ? " (cannot resume without it)\n"
                                : " (continuing without crash-safety)\n");
      if (args.resume) return 2;
      journal.reset();
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
      models, args.opts.jobs,
      [&](const ProtocolModel&) { return std::optional(opts); });

  bool all_hold = true;
  bool any_error = false;
  std::cout << ctaver::verify::table2_header(timed_rows) << "\n";
  for (const auto& slot : maybe_reports) {
    const ctaver::verify::ProtocolReport& report = *slot;
    std::cout << (timed_rows ? ctaver::verify::table2_row(report) + "\n"
                             : ctaver::verify::report_text(report));
    all_hold = all_hold && report.planned_hold();
    any_error = any_error || report.agreement.has_error() ||
                report.validity.has_error() || report.termination.has_error();
  }
  // Exit precedence 3 > 1: a contained internal error means the run is
  // incomplete-by-failure, so neither a clean 0 nor a plain verdict 1 would
  // be trustworthy (and CI fault-smoke assertions stay deterministic even on
  // protocols that also have a genuine counterexample).
  int code = any_error ? 3 : all_hold ? 0 : 1;
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

  auto reports = run_protocols(
      models, args.opts.jobs,
      [&](const ProtocolModel& pm)
          -> std::optional<ctaver::verify::Options> {
        if (pm.expects.empty()) return std::nullopt;  // attack sketch only
        ctaver::verify::Options opts = args.opts;
        opts.replay_ce = true;
        for (const auto& e : pm.expects) {
          opts.only_obligations.push_back(e.obligation);
        }
        return opts;
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
        std::cout << "ERROR (contained: "
                  << ctaver::verify::error_brief(*o->error) << ")\n";
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
  for (const std::string& spec : protocols) {
    ProtocolModel pm = resolve_with_sweeps(registry, args, spec);
    std::cout << "== " << pm.name << "\n";
    for (const ctaver::verify::ObligationKey& k :
         ctaver::verify::obligation_cache_keys(pm, args.opts)) {
      std::cout << k.key << "  " << (k.parametric ? "parametric" : "sweep")
                << "  " << k.name << "\n";
    }
  }
  return 0;
}

int dispatch(const Args& args) {
  try {
    ProtocolRegistry registry = ProtocolRegistry::with_builtins();
    if (!args.specs_dir.empty()) registry.add_directory(args.specs_dir);
    if (args.command == "list") return cmd_list(registry);
    if (args.command == "parse") return cmd_parse(registry, args);
    if (args.command == "verify") {
      return cmd_verify(registry, args, /*timed_rows=*/false, args.protocols);
    }
    if (args.command == "check") return cmd_check(registry, args);
    if (args.command == "hash") return cmd_hash(registry, args);
    // table2, the one command left: parse_args rejects any other.
    std::vector<std::string> protocols = args.protocols;
    if (protocols.empty()) {
      // The paper's Table-II order (NaiveVoting is the warm-up, not a row).
      protocols = {"Rabin83", "CC85a", "CC85b",    "FMR05",
                   "KS16",    "MMR14", "Miller18", "ABY22"};
    }
    return cmd_verify(registry, args, /*timed_rows=*/true, protocols);
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
  if (!parse_args(argc, argv, args)) return 2;
  if (is_help(args.command)) return usage(std::cout, 0);
  if (args.log_level) ctaver::util::set_log_level(*args.log_level);
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
