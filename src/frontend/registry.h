// Protocol registry: one lookup for the built-in models and file-loaded .cta
// specs. The built-in models are this checkout's specs/*.cta, read and
// lowered each time one is made. The CLI and tests resolve every protocol
// argument through here, so a user-supplied spec file is a first-class
// citizen of the verification pipeline, indistinguishable from the Table-II
// benchmarks.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "protocols/protocols.h"

namespace ctaver::frontend {

/// The directory the built-in models are read from: specs/ at the root of
/// the source tree this library was compiled from.
std::string builtin_spec_dir();

class ProtocolRegistry {
 public:
  using Factory = std::function<protocols::ProtocolModel()>;

  /// Registry pre-populated with the nine built-in models (naive-voting +
  /// the eight Table-II benchmarks, in Table-II order). Opens no file: each
  /// model's spec under builtin_spec_dir() is loaded by make(), so an
  /// edited spec is what the next make() sees.
  static ProtocolRegistry with_builtins();

  /// Registers a factory under `name`; `origin` is shown by `ctaver list`
  /// ("builtin" or a file path). Re-registering a name replaces the entry,
  /// so a spec file can shadow a built-in.
  void add(const std::string& name, Factory factory, std::string origin);

  /// Parses `path` and registers the protocol under its declared name.
  /// Returns that name. Throws ParseError on malformed specs.
  std::string add_file(const std::string& path);

  /// Registers every `.cta` file in `dir` (sorted by path, so registration
  /// order is deterministic). Returns the registered names.
  std::vector<std::string> add_directory(const std::string& dir);

  [[nodiscard]] bool contains(const std::string& name) const;
  /// Instantiates a registered model; throws std::out_of_range on unknown
  /// names (message lists what is registered).
  [[nodiscard]] protocols::ProtocolModel make(const std::string& name) const;
  [[nodiscard]] const std::string& origin(const std::string& name) const;
  /// Registered names in registration order.
  [[nodiscard]] std::vector<std::string> names() const;

  /// Resolves a CLI argument: anything that looks like a path (contains '/'
  /// or ends in ".cta") is parsed as a spec file; everything else is a
  /// registry lookup.
  [[nodiscard]] protocols::ProtocolModel resolve(
      const std::string& name_or_path) const;

 private:
  struct Entry {
    std::string name;
    Factory factory;
    std::string origin;
  };
  [[nodiscard]] const Entry* find(const std::string& name) const;

  std::vector<Entry> entries_;
};

}  // namespace ctaver::frontend
