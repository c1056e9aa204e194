#include "scion/path_combiner.hpp"

#include "util/check.hpp"

#include <algorithm>
#include <unordered_set>

#include "crypto/sha256.hpp"

namespace scion::svc {

namespace {

/// Appends segment ASes/links from position `from_idx` walking towards the
/// terminal (forward direction).
void append_forward(EndToEndPath& path, const PathSegment& seg,
                    std::size_t from_idx, bool include_first_as) {
  for (std::size_t i = from_idx; i + 1 < seg.ases.size(); ++i) {
    if (i != from_idx || include_first_as) path.ases.push_back(seg.ases[i]);
    path.links.push_back(seg.links[i]);
  }
  path.ases.push_back(seg.ases.back());
}

/// Appends segment ASes/links from the terminal back to position `to_idx`
/// (reverse direction), optionally skipping the terminal AS itself.
void append_reverse(EndToEndPath& path, const PathSegment& seg,
                    std::size_t to_idx, bool include_terminal_as) {
  if (include_terminal_as) path.ases.push_back(seg.ases.back());
  for (std::size_t i = seg.ases.size() - 1; i > to_idx; --i) {
    path.links.push_back(seg.links[i - 1]);
    path.ases.push_back(seg.ases[i - 1]);
  }
}

bool loop_free(const EndToEndPath& path) {
  std::unordered_set<topo::AsIndex> seen;
  for (topo::AsIndex as : path.ases) {
    if (!seen.insert(as).second) return false;
  }
  return true;
}

std::uint64_t link_sequence_key(const EndToEndPath& path) {
  crypto::Sha256 h;
  for (topo::LinkIndex l : path.links) h.update_u32(l);
  return h.finalize().prefix64();
}

}  // namespace

const char* to_string(EndToEndPath::Kind k) {
  switch (k) {
    case EndToEndPath::Kind::kUpCoreDown:
      return "up+core+down";
    case EndToEndPath::Kind::kUpDown:
      return "up+down";
    case EndToEndPath::Kind::kShortcut:
      return "shortcut";
    case EndToEndPath::Kind::kPeering:
      return "peering";
  }
  return "?";
}

std::vector<EndToEndPath> combine_segments(
    const topo::Topology& topology, topo::AsIndex src, topo::AsIndex dst,
    std::span<const PathSegment> up, std::span<const PathSegment> core,
    std::span<const PathSegment> down, const CombineOptions& options) {
  std::vector<EndToEndPath> out;
  if (src == dst) return out;

  // Paths own shared copies of their segments; one copy per input segment.
  std::unordered_map<const PathSegment*, std::shared_ptr<const PathSegment>>
      shared;
  auto share = [&shared](const PathSegment& seg) {
    auto& p = shared[&seg];
    if (!p) p = std::make_shared<const PathSegment>(seg);
    return p;
  };

  auto consider = [&](EndToEndPath&& path) {
    if (!loop_free(path)) return;
    SCION_DCHECK(path.ases.size() == path.links.size() + 1,
                 "combined path must alternate AS, link, AS");
    SCION_DCHECK(path.ases.front() == src && path.ases.back() == dst,
                 "combined path must run from src to dst");
    out.push_back(std::move(path));
  };

  // A core-AS source has no up segments: it reaches destinations directly
  // via its down segments and via reversed core segments.
  if (topology.is_core(src)) {
    for (const PathSegment& d : down) {
      if (d.terminal_as() != dst) continue;
      if (d.origin_as() == src) {
        EndToEndPath path;
        path.kind = EndToEndPath::Kind::kUpDown;  // single-segment
        path.down = share(d);
        append_forward(path, d, 0, /*include_first_as=*/true);
        consider(std::move(path));
      }
      for (const PathSegment& c : core) {
        if (c.terminal_as() != src || c.origin_as() != d.origin_as()) continue;
        EndToEndPath path;
        path.kind = EndToEndPath::Kind::kUpCoreDown;
        path.core = share(c);
        path.down = share(d);
        append_reverse(path, c, 0, /*include_terminal_as=*/true);
        append_forward(path, d, 0, /*include_first_as=*/false);
        consider(std::move(path));
      }
    }
    // Core-to-core: a reversed core segment alone.
    if (topology.is_core(dst)) {
      for (const PathSegment& c : core) {
        if (c.terminal_as() != src || c.origin_as() != dst) continue;
        EndToEndPath path;
        path.kind = EndToEndPath::Kind::kUpCoreDown;
        path.core = share(c);
        append_reverse(path, c, 0, /*include_terminal_as=*/true);
        consider(std::move(path));
      }
    }
  }

  for (const PathSegment& u : up) {
    if (u.terminal_as() != src) continue;

    // A core-AS destination needs no down segment: the up segment's core
    // plus (optionally) a core segment reach it.
    if (topology.is_core(dst)) {
      if (u.origin_as() == dst) {
        EndToEndPath path;
        path.kind = EndToEndPath::Kind::kUpDown;  // single-segment
        path.up = share(u);
        append_reverse(path, u, 0, /*include_terminal_as=*/true);
        consider(std::move(path));
      }
      for (const PathSegment& c : core) {
        if (c.terminal_as() != u.origin_as() || c.origin_as() != dst) continue;
        EndToEndPath path;
        path.kind = EndToEndPath::Kind::kUpCoreDown;
        path.up = share(u);
        path.core = share(c);
        append_reverse(path, u, 0, /*include_terminal_as=*/true);
        append_reverse(path, c, 0, /*include_terminal_as=*/false);
        consider(std::move(path));
      }
    }

    for (const PathSegment& d : down) {
      if (d.terminal_as() != dst) continue;

      // Up and down meet at the same core AS: two-segment path.
      if (u.origin_as() == d.origin_as()) {
        EndToEndPath path;
        path.kind = EndToEndPath::Kind::kUpDown;
        path.up = share(u);
        path.down = share(d);
        append_reverse(path, u, 0, /*include_terminal_as=*/true);
        append_forward(path, d, 0, /*include_first_as=*/false);
        consider(std::move(path));
      }

      // Shortcut: a shared AS below the core lets the path cross over
      // without visiting either origin.
      for (std::size_t i = 1; i < u.ases.size(); ++i) {
        for (std::size_t j = 1; j < d.ases.size(); ++j) {
          if (u.ases[i] != d.ases[j]) continue;
          EndToEndPath path;
          path.kind = EndToEndPath::Kind::kShortcut;
          path.up = share(u);
          path.down = share(d);
          path.up_cut = i;
          path.down_cut = j;
          append_reverse(path, u, i, /*include_terminal_as=*/true);
          append_forward(path, d, j, /*include_first_as=*/false);
          consider(std::move(path));
        }
      }

      // Peering shortcut: an up-segment AS peers with a down-segment AS and
      // both segments advertise the same peering link.
      const auto& u_entries = u.pcb->entries();
      const auto& d_entries = d.pcb->entries();
      for (std::size_t i = 1; i < u.ases.size(); ++i) {
        for (const ctrl::PeerEntry& pu : u_entries[i].peers) {
          for (std::size_t j = 1; j < d.ases.size(); ++j) {
            if (topology.as_id(d.ases[j]) != pu.peer_as) continue;
            for (const ctrl::PeerEntry& pd : d_entries[j].peers) {
              if (pd.peer_as != topology.as_id(u.ases[i])) continue;
              const auto lu =
                  topology.link_by_interface(u.ases[i], pu.peer_if);
              const auto ld =
                  topology.link_by_interface(d.ases[j], pd.peer_if);
              if (!lu || !ld || *lu != *ld) continue;  // different links
              EndToEndPath path;
              path.kind = EndToEndPath::Kind::kPeering;
              path.up = share(u);
              path.down = share(d);
              path.up_cut = i;
              path.down_cut = j;
              path.peer_link = *lu;
              append_reverse(path, u, i, /*include_terminal_as=*/true);
              path.links.push_back(*lu);
              append_forward(path, d, j, /*include_first_as=*/true);
              consider(std::move(path));
            }
          }
        }
      }
    }

    // Three-segment paths via the core.
    for (const PathSegment& c : core) {
      if (c.terminal_as() != u.origin_as()) continue;
      for (const PathSegment& d : down) {
        if (d.terminal_as() != dst) continue;
        if (d.origin_as() != c.origin_as()) continue;
        EndToEndPath path;
        path.kind = EndToEndPath::Kind::kUpCoreDown;
        path.up = share(u);
        path.core = share(c);
        path.down = share(d);
        append_reverse(path, u, 0, /*include_terminal_as=*/true);
        append_reverse(path, c, 0, /*include_terminal_as=*/false);
        append_forward(path, d, 0, /*include_first_as=*/false);
        consider(std::move(path));
      }
    }
  }

  // Shortest first, stable; drop duplicates by link sequence; cap.
  std::stable_sort(out.begin(), out.end(),
                   [](const EndToEndPath& x, const EndToEndPath& y) {
                     return x.length() < y.length();
                   });
  std::unordered_set<std::uint64_t> seen;
  std::vector<EndToEndPath> unique;
  unique.reserve(std::min(out.size(), options.max_paths));
  for (EndToEndPath& p : out) {
    if (!seen.insert(link_sequence_key(p)).second) continue;
    unique.push_back(std::move(p));
    if (unique.size() >= options.max_paths) break;
  }
  return unique;
}

}  // namespace scion::svc
