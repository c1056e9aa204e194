#include "scion/path_server.hpp"

#include <algorithm>

namespace scion::svc {

namespace {

/// The segments that have not expired at `now`, in stored order.
std::vector<SegmentRef> unexpired(std::span<const SegmentRef> segments,
                                  util::TimePoint now) {
  std::vector<SegmentRef> out;
  out.reserve(segments.size());
  for (const SegmentRef& s : segments) {
    if (now < s->expiry()) out.push_back(s);
  }
  return out;
}

}  // namespace

util::Bytes segment_response_bytes(std::size_t n_segments,
                                   util::Bytes total_segment_bytes) {
  return kSegmentResponseHeaderBytes + util::Bytes{n_segments * 4} +
         total_segment_bytes;
}

util::Bytes registration_bytes(std::span<const SegmentRef> segments) {
  util::Bytes total = kRegistrationHeaderBytes;
  for (const SegmentRef& s : segments) total += util::Bytes{4} + s->wire_size();
  return total;
}

void PathServer::insert_segment(SegmentMap& map, topo::AsIndex key,
                                SegmentRef segment) {
  auto& bucket = map[key];
  // Same path: keep the freshest instance.
  for (SegmentRef& existing : bucket) {
    if (existing->key() == segment->key()) {
      if (segment->expiry() > existing->expiry()) existing = std::move(segment);
      return;
    }
  }
  if (per_key_limit_ == 0 || bucket.size() < per_key_limit_) {
    bucket.push_back(std::move(segment));
    return;
  }
  // Evict the worst under shortest-fresh preference if the candidate beats it.
  auto worse = [](const PathSegment& x, const PathSegment& y) {
    if (x.length() != y.length()) return x.length() > y.length();
    return x.expiry() < y.expiry();
  };
  auto victim = bucket.begin();
  for (auto it = bucket.begin() + 1; it != bucket.end(); ++it) {
    if (worse(**it, **victim)) victim = it;
  }
  if (worse(**victim, *segment)) *victim = std::move(segment);
}

void PathServer::register_down_segment(SegmentRef segment) {
  ++stats_.registrations;
  ++stats_.segments_registered;
  const topo::AsIndex leaf = segment->terminal_as();
  insert_segment(down_by_leaf_, leaf, std::move(segment));
}

std::vector<SegmentRef> PathServer::down_segments(topo::AsIndex leaf,
                                                  util::TimePoint now) const {
  const auto it = down_by_leaf_.find(leaf);
  if (it == down_by_leaf_.end()) return {};
  return unexpired(it->second, now);
}

void PathServer::register_up_segment(SegmentRef segment) {
  ++stats_.segments_registered;
  for (SegmentRef& existing : up_) {
    if (existing->key() == segment->key()) {
      if (segment->expiry() > existing->expiry()) existing = std::move(segment);
      return;
    }
  }
  if (per_key_limit_ == 0 || up_.size() < per_key_limit_) {
    up_.push_back(std::move(segment));
  } else {
    // Replace the oldest.
    auto victim = std::min_element(
        up_.begin(), up_.end(), [](const SegmentRef& a, const SegmentRef& b) {
          return a->expiry() < b->expiry();
        });
    if (segment->expiry() > (*victim)->expiry()) *victim = std::move(segment);
  }
}

std::vector<SegmentRef> PathServer::up_segments(util::TimePoint now) const {
  return unexpired(up_, now);
}

std::size_t PathServer::revoke_link(topo::LinkIndex link) {
  ++stats_.revocations;
  std::size_t dropped = 0;
  auto contains = [link](const SegmentRef& s) {
    return std::find(s->links.begin(), s->links.end(), link) != s->links.end();
  };
  // Per-bucket erase_if with a commutative integer total; visit order is
  // irrelevant. simlint:allow(unordered-iter)
  for (auto& [key, bucket] : down_by_leaf_) {
    dropped += static_cast<std::size_t>(std::erase_if(bucket, contains));
  }
  dropped += static_cast<std::size_t>(std::erase_if(up_, contains));
  return dropped;
}

void PathServer::cache_put(topo::AsIndex key, std::vector<SegmentRef> segments,
                           util::TimePoint now, util::Duration ttl) {
  cache_[key] = CacheEntry{std::move(segments), now + ttl};
}

std::optional<std::vector<SegmentRef>> PathServer::cache_get(
    topo::AsIndex key, util::TimePoint now) {
  ++stats_.lookups;
  const auto it = cache_.find(key);
  if (it == cache_.end() || now >= it->second.expires) {
    ++stats_.cache_misses;
    return std::nullopt;
  }
  ++stats_.cache_hits;
  // Filter segments that expired before the cache entry.
  return unexpired(it->second.segments, now);
}

}  // namespace scion::svc
