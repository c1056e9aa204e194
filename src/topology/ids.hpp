// Identifiers for the SCION network model (Section 2.1).
//
// Routing is based on the <ISD, AS> tuple. SCION inherits today's AS numbers
// but extends the namespace to 48 bits; an IsdAsId packs a 16-bit ISD and a
// 48-bit AS number into one 64-bit value, mirroring the production wire
// encoding.
#pragma once

#include <cstdint>
#include <functional>
#include <string>

#include "util/types.hpp"

namespace scion::topo {

/// Isolation-domain identifier (strong: never interchangeable with an AS
/// number, interface id, or any other 16-bit quantity).
using IsdId = util::StrongId<struct IsdIdTag, std::uint16_t>;

/// Interface identifier, unique within one AS. IfId{0} is reserved ("no
/// interface"), matching SCION's convention. Strong: parallel links mean an
/// interface id is *not* an AS-equivalent neighbor handle, and the type
/// system now enforces that.
using IfId = util::StrongId<struct IfIdTag, std::uint16_t>;
inline constexpr IfId kNoInterface{};

/// Dense index of an AS inside a Topology; used on hot paths. Deliberately a
/// raw integer: dense indices exist to index vectors and iterate ranges, and
/// wrapping them would put .value() on every hot-path subscript. The strong
/// types guard the *identity* handles (IsdId/IfId/IsdAsId, sim::NodeId/
/// ChannelId); mixing an index into one of those no longer compiles.
using AsIndex = std::uint32_t;
inline constexpr AsIndex kInvalidAsIndex = ~AsIndex{0};

/// Dense index of an inter-AS link inside a Topology. A "link" is one
/// physical interconnection between two interfaces; parallel links between
/// the same AS pair have distinct LinkIds. Link-disjointness in the
/// diversity algorithm is defined over these ids.
using LinkIndex = std::uint32_t;
inline constexpr LinkIndex kInvalidLinkIndex = ~LinkIndex{0};

/// The <ISD, AS> routing identifier.
class IsdAsId {
 public:
  constexpr IsdAsId() = default;

  static constexpr IsdAsId make(IsdId isd, std::uint64_t as_number) {
    return IsdAsId{(static_cast<std::uint64_t>(isd.value()) << 48) |
                   (as_number & 0x0000FFFFFFFFFFFFULL)};
  }
  /// Convenience for numeric-literal call sites: the 16-bit ISD number is
  /// wrapped on entry. A strong IfId (or any other StrongId) still does not
  /// convert to the raw parameter, so id mix-ups keep failing to compile.
  static constexpr IsdAsId make(std::uint16_t isd, std::uint64_t as_number) {
    return make(IsdId{isd}, as_number);
  }

  constexpr IsdId isd() const { return IsdId{static_cast<std::uint16_t>(value_ >> 48)}; }
  constexpr std::uint64_t as_number() const { return value_ & 0x0000FFFFFFFFFFFFULL; }
  constexpr std::uint64_t value() const { return value_; }

  constexpr bool valid() const { return value_ != 0; }

  constexpr auto operator<=>(const IsdAsId&) const = default;

  /// "<isd>-<as>", e.g. "1-42".
  std::string to_string() const;

  /// Parses "<isd>-<as>"; returns an invalid id on malformed input.
  static IsdAsId parse(const std::string& s);

 private:
  explicit constexpr IsdAsId(std::uint64_t v) : value_{v} {}
  std::uint64_t value_{0};
};

}  // namespace scion::topo

template <>
struct std::hash<scion::topo::IsdAsId> {
  std::size_t operator()(const scion::topo::IsdAsId& id) const noexcept {
    return std::hash<std::uint64_t>{}(id.value());
  }
};
