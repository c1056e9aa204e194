// Path server (Section 2.2, "Path Segment Dissemination").
//
// Each AS's control service runs a path server. A core AS's path server
// stores the down-path segments registered by the leaf ASes of its ISD;
// non-core path servers keep the AS's own up-segments and a TTL cache of
// remote lookup results (the infrastructure "bears similarities to DNS").
// Core-path segments are served from the core beacon servers' stores.
#pragma once

#include <cstdint>
#include <optional>
#include <unordered_map>
#include <vector>

#include "scion/segment.hpp"

namespace scion::svc {

/// Wire size of a segment request: SCION/UDP headers + <ISD, AS> + type.
inline constexpr util::Bytes kSegmentRequestBytes{64};
/// Response framing on top of the segments themselves.
inline constexpr util::Bytes kSegmentResponseHeaderBytes{32};
/// Registration framing.
inline constexpr util::Bytes kRegistrationHeaderBytes{32};

util::Bytes segment_response_bytes(std::size_t n_segments,
                                   util::Bytes total_segment_bytes);
util::Bytes registration_bytes(std::span<const SegmentRef> segments);

class PathServer {
 public:
  struct Stats {
    std::uint64_t registrations{0};
    std::uint64_t segments_registered{0};
    std::uint64_t lookups{0};
    std::uint64_t cache_hits{0};
    std::uint64_t cache_misses{0};
    std::uint64_t revocations{0};
  };

  /// `per_key_limit` caps stored segments per destination/origin key.
  explicit PathServer(std::size_t per_key_limit = 10)
      : per_key_limit_{per_key_limit} {}

  // --- core path server role ---
  /// Stores a down-path segment registered by leaf `segment->terminal_as()`.
  void register_down_segment(SegmentRef segment);
  std::vector<SegmentRef> down_segments(topo::AsIndex leaf,
                                        util::TimePoint now) const;

  // --- local path server role ---
  void register_up_segment(SegmentRef segment);
  std::vector<SegmentRef> up_segments(util::TimePoint now) const;

  /// Drops every stored segment containing `link` (triggered by a
  /// revocation); returns how many were dropped.
  std::size_t revoke_link(topo::LinkIndex link);

  // --- lookup cache (for fetched remote segments) ---
  void cache_put(topo::AsIndex key, std::vector<SegmentRef> segments,
                 util::TimePoint now, util::Duration ttl);
  std::optional<std::vector<SegmentRef>> cache_get(topo::AsIndex key,
                                                   util::TimePoint now);

  const Stats& stats() const { return stats_; }

 private:
  using SegmentMap = std::unordered_map<topo::AsIndex, std::vector<SegmentRef>>;

  void insert_segment(SegmentMap& map, topo::AsIndex key, SegmentRef segment);

  std::size_t per_key_limit_;
  SegmentMap down_by_leaf_;
  std::vector<SegmentRef> up_;
  struct CacheEntry {
    std::vector<SegmentRef> segments;
    util::TimePoint expires;
  };
  std::unordered_map<topo::AsIndex, CacheEntry> cache_;
  Stats stats_;
};

}  // namespace scion::svc
