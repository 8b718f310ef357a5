// Small string helpers shared across modules.
#pragma once

#include <string>
#include <vector>

namespace ctaver::util {

/// Joins `parts` with `sep`.
std::string join(const std::vector<std::string>& parts,
                 const std::string& sep);

/// Left-pads `s` with spaces to width `w` (no-op if already wider).
std::string pad_left(const std::string& s, std::size_t w);

/// Right-pads `s` with spaces to width `w`.
std::string pad_right(const std::string& s, std::size_t w);

}  // namespace ctaver::util
