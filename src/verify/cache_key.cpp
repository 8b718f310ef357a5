#include "verify/cache_key.h"

#include <sstream>

#include "util/hash.h"

namespace ctaver::verify {

namespace {

/// Rational as "num/den" (canonical form: gcd-reduced, den > 0). The values
/// in a model are tiny (coin-flip probabilities), so long long is safe.
std::string rat(const util::Rational& r) {
  return std::to_string(static_cast<long long>(r.num())) + "/" +
         std::to_string(static_cast<long long>(r.den()));
}

void put_param_expr(std::ostringstream& os, const ta::ParamExpr& e) {
  os << "[";
  for (std::size_t i = 0; i < e.coeffs.size(); ++i) {
    os << (i ? "," : "") << e.coeffs[i];
  }
  os << "]+" << e.constant;
}

void put_automaton(std::ostringstream& os, const char* tag,
                   const ta::Automaton& a) {
  os << tag << " locations " << a.locations.size() << "\n";
  for (const ta::Location& l : a.locations) {
    os << "loc " << l.name << " role=" << static_cast<int>(l.role)
       << " value=" << l.value << " decision=" << l.decision << "\n";
  }
  os << tag << " rules " << a.rules.size() << "\n";
  for (const ta::Rule& r : a.rules) {
    os << "rule " << r.name << " from=" << r.from << " to=";
    for (std::size_t i = 0; i < r.to.outcomes.size(); ++i) {
      const auto& [loc, p] = r.to.outcomes[i];
      os << (i ? "|" : "") << loc << ":" << rat(p);
    }
    os << " switch=" << r.is_round_switch << " guards=";
    for (std::size_t g = 0; g < r.guards.size(); ++g) {
      const ta::Guard& gd = r.guards[g];
      os << (g ? "&" : "") << "(";
      for (std::size_t i = 0; i < gd.lhs.size(); ++i) {
        os << (i ? "+" : "") << gd.lhs[i].second << "*v" << gd.lhs[i].first;
      }
      os << (gd.rel == ta::GuardRel::kGe ? ">=" : "<");
      put_param_expr(os, gd.rhs);
      os << ")";
    }
    os << " update=[";
    for (std::size_t i = 0; i < r.update.size(); ++i) {
      os << (i ? "," : "") << r.update[i];
    }
    os << "]\n";
  }
}

}  // namespace

std::string canonical_system(const ta::System& sys) {
  std::ostringstream os;
  os << "system " << sys.name << "\n";
  os << "params " << sys.env.params.size() << "\n";
  for (const ta::Parameter& p : sys.env.params) os << "param " << p.name << "\n";
  os << "resilience " << sys.env.resilience.size() << "\n";
  for (const ta::ParamConstraint& rc : sys.env.resilience) {
    os << "rc ";
    put_param_expr(os, rc.expr);
    os << " op=" << static_cast<int>(rc.op) << "\n";
  }
  os << "counts processes=";
  put_param_expr(os, sys.env.num_processes);
  os << " coins=";
  put_param_expr(os, sys.env.num_coins);
  os << "\nvars " << sys.vars.size() << "\n";
  for (const ta::Variable& v : sys.vars) {
    os << "var " << v.name << " kind=" << static_cast<int>(v.kind) << "\n";
  }
  put_automaton(os, "process", sys.process);
  put_automaton(os, "coin", sys.coin);
  return os.str();
}

std::string system_fingerprint(const ta::System& sys) {
  return util::sha256_hex(canonical_system(sys));
}

std::string canonical_spec(const spec::Spec& spec) {
  std::ostringstream os;
  os << "spec " << spec.name << " shape=" << static_cast<int>(spec.shape)
     << " premise=";
  for (std::size_t i = 0; i < spec.premise.locs.size(); ++i) {
    const auto& [coin, l] = spec.premise.locs[i];
    os << (i ? "," : "") << (coin ? "c" : "p") << l;
  }
  os << " conclusion=";
  for (std::size_t i = 0; i < spec.conclusion.locs.size(); ++i) {
    const auto& [coin, l] = spec.conclusion.locs[i];
    os << (i ? "," : "") << (coin ? "c" : "p") << l;
  }
  os << "\n";
  return os.str();
}

std::string parametric_cache_key(const std::string& system_fp,
                                 const spec::Spec& spec,
                                 const schema::CheckOptions& opts) {
  std::ostringstream os;
  os << "ctaver-okey-v1 check\n"
     << "system " << system_fp << "\n"
     << canonical_spec(spec) << "budget max_schemas=" << opts.max_schemas
     // The prefix probe and CE minimization are always on; their fixed flags
     // keep the key bytes of caches written when they were options.
     << "\nopts prune=" << opts.prune << " prefix_prune=1 minimize_ce=1\n";
  return util::sha256_hex(os.str());
}

std::string sweep_cache_key(
    const std::string& system_fp, const std::string& name,
    const std::vector<std::vector<long long>>& sweep_params,
    std::size_t max_states) {
  std::ostringstream os;
  os << "ctaver-okey-v1 sweep\n"
     << "system " << system_fp << "\n"
     << "obligation " << name << "\ninstances";
  for (const std::vector<long long>& inst : sweep_params) {
    os << " (";
    for (std::size_t i = 0; i < inst.size(); ++i) {
      os << (i ? "," : "") << inst[i];
    }
    os << ")";
  }
  os << "\nbudget max_states=" << max_states << "\n";
  return util::sha256_hex(os.str());
}

}  // namespace ctaver::verify
