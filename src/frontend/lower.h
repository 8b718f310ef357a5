// Semantic validation and lowering: ast::Protocol -> protocols::ProtocolModel.
//
// Lowering resolves every name against the declaration tables, collects ALL
// semantic errors (undeclared variables/parameters/locations, duplicate
// declarations, malformed guards, inadmissible sweep instances, ...) as
// positioned diagnostics, and only then replays the declarations through
// ta::SystemBuilder in file order — so locations, rules and variables are
// numbered in the order the spec declares them. Structural violations that
// only the model-level validator can see (ta::validate) are re-thrown as a
// ParseError anchored at the protocol header.
#pragma once

#include <string>

#include "frontend/ast.h"
#include "protocols/protocols.h"

namespace ctaver::frontend {

/// Lowers a parsed protocol; throws ParseError (tagged with `file`) listing
/// every semantic error found.
protocols::ProtocolModel lower(const ast::Protocol& p, const std::string& file);

/// Convenience: parse + lower in one step.
protocols::ProtocolModel load_spec_string(const std::string& text,
                                          const std::string& file);

/// Reads, parses and lowers a .cta file; throws std::runtime_error if the
/// file cannot be read, ParseError on syntax/semantic errors.
protocols::ProtocolModel load_spec_file(const std::string& path);

}  // namespace ctaver::frontend
