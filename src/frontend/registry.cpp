#include "frontend/registry.h"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "frontend/lower.h"
#include "util/logging.h"
#include "util/strings.h"

namespace ctaver::frontend {

std::string builtin_spec_dir() {
  // __FILE__ is <root>/src/frontend/registry.cpp.
  const std::filesystem::path src =
      std::filesystem::path(__FILE__).parent_path().parent_path();
  return (src.parent_path() / "specs").string();
}

ProtocolRegistry ProtocolRegistry::with_builtins() {
  static constexpr std::pair<const char*, const char*> kBuiltins[] = {
      {"NaiveVoting", "naive_voting.cta"}, {"Rabin83", "rabin83.cta"},
      {"CC85a", "cc85a.cta"},              {"CC85b", "cc85b.cta"},
      {"FMR05", "fmr05.cta"},              {"KS16", "ks16.cta"},
      {"MMR14", "mmr14.cta"},              {"Miller18", "miller18.cta"},
      {"ABY22", "aby22.cta"}};
  const std::string dir = builtin_spec_dir();
  ProtocolRegistry r;
  for (const auto& [name, file] : kBuiltins) {
    r.add(name, [path = dir + "/" + file] { return load_spec_file(path); },
          "builtin");
  }
  return r;
}

void ProtocolRegistry::add(const std::string& name, Factory factory,
                           std::string origin) {
  for (Entry& e : entries_) {
    if (e.name == name) {
      e.factory = std::move(factory);
      e.origin = std::move(origin);
      return;
    }
  }
  entries_.push_back({name, std::move(factory), std::move(origin)});
}

std::string ProtocolRegistry::add_file(const std::string& path) {
  protocols::ProtocolModel pm = load_spec_file(path);
  std::string name = pm.name;
  add(name, [pm = std::move(pm)]() { return pm; }, path);
  return name;
}

std::vector<std::string> ProtocolRegistry::add_directory(
    const std::string& dir) {
  // Sorted for a deterministic registration (and thus `names()`) order —
  // directory_iterator order is filesystem-dependent.
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".cta") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<std::string> names;
  names.reserve(paths.size());
  for (const std::string& path : paths) names.push_back(add_file(path));
  CTAVER_LOG(kInfo) << "registered " << names.size() << " spec(s) from "
                    << dir;
  return names;
}

const ProtocolRegistry::Entry* ProtocolRegistry::find(
    const std::string& name) const {
  for (const Entry& e : entries_) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

bool ProtocolRegistry::contains(const std::string& name) const {
  return find(name) != nullptr;
}

protocols::ProtocolModel ProtocolRegistry::make(const std::string& name) const {
  const Entry* e = find(name);
  if (e == nullptr) {
    std::vector<std::string> known = names();
    throw std::out_of_range("unknown protocol '" + name + "' (registered: " +
                            util::join(known, ", ") + ")");
  }
  return e->factory();
}

const std::string& ProtocolRegistry::origin(const std::string& name) const {
  const Entry* e = find(name);
  if (e == nullptr) {
    throw std::out_of_range("unknown protocol '" + name + "'");
  }
  return e->origin;
}

std::vector<std::string> ProtocolRegistry::names() const {
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const Entry& e : entries_) out.push_back(e.name);
  return out;
}

namespace {

bool looks_like_path(const std::string& s) {
  if (s.find('/') != std::string::npos) return true;
  return s.size() > 4 && s.compare(s.size() - 4, 4, ".cta") == 0;
}

}  // namespace

protocols::ProtocolModel ProtocolRegistry::resolve(
    const std::string& name_or_path) const {
  if (looks_like_path(name_or_path)) return load_spec_file(name_or_path);
  return make(name_or_path);
}

}  // namespace ctaver::frontend
