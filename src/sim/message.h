// Messages and the common-coin oracle for the executable protocol
// simulator (Sect. II of the paper: the MMR14 protocol, its fixed variants,
// and the adaptive-adversary attack).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>

namespace ctaver::sim {

/// Message types used by the simulated protocols.
enum class MsgType {
  kEst,    // BV-broadcast payload (EST, r, v)
  kAux,    // (AUX, r, v)
  kConf,   // (CONF, r, values) — Miller18 fix
  kEcho1,  // ABY22 crusader agreement
  kEcho2,
};

/// Value sets are tiny: encode {0}, {1}, {0,1}, {⊥} as bitmasks.
/// Bit 0 = value 0, bit 1 = value 1, bit 2 = ⊥.
using ValueSet = unsigned;
inline constexpr ValueSet kSet0 = 1u;
inline constexpr ValueSet kSet1 = 2u;
inline constexpr ValueSet kSetBot = 4u;

inline ValueSet value_bit(int v) { return v == 0 ? kSet0 : kSet1; }

struct Message {
  int from = -1;  // sender id (may be Byzantine)
  int to = -1;    // destination id
  MsgType type = MsgType::kEst;
  int round = 0;
  ValueSet values = 0;  // payload
  std::uint64_t seq = 0;  // global sequence number (stable identity)

  [[nodiscard]] std::string str() const;
};

/// A strong common coin: a uniformly random bit per round, identical for all
/// processes, fixed by the seed. `value(r)` marks round r as revealed — the
/// adaptive adversary may query `revealed`/`value` itself, which is exactly
/// the capability the Sect.-II attack exploits.
class CommonCoin {
 public:
  explicit CommonCoin(std::uint64_t seed) : seed_(seed) {}

  /// The coin for round r (reveals it).
  int value(int round);
  /// Has any process (or the adversary) already revealed round r?
  [[nodiscard]] bool revealed(int round) const {
    return revealed_.count(round) > 0;
  }

 private:
  std::uint64_t seed_;
  std::set<int> revealed_;
};

}  // namespace ctaver::sim
