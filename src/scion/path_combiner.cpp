#include "scion/path_combiner.hpp"

#include "util/check.hpp"

#include <algorithm>

namespace scion::svc {

namespace {

/// An enumerated path that is not built yet: its kind, the segments it
/// combines (null when unused; they point into combine_segments' spans),
/// its crossover cuts and peering link, and its length in links.
struct Candidate {
  EndToEndPath::Kind kind{EndToEndPath::Kind::kUpCoreDown};
  const SegmentRef* up{nullptr};
  const SegmentRef* core{nullptr};
  const SegmentRef* down{nullptr};
  std::size_t up_cut{0};
  std::size_t down_cut{0};
  std::optional<topo::LinkIndex> peer_link;
  std::size_t length{0};
};

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

/// Assembles a candidate: the up segment reversed from `src` to its cut,
/// the core segment reversed, then the peering link and the down segment
/// forward from its cut. An AS where two pieces meet appears once, except
/// across a peering link, whose two ends are different ASes.
EndToEndPath build(const Candidate& c) {
  EndToEndPath path;
  path.kind = c.kind;
  path.ases.reserve(c.length + 1);
  path.links.reserve(c.length);
  if (c.up != nullptr) {
    path.up = *c.up;
    path.up_cut = c.up_cut;
    append_reverse(path, **c.up, c.up_cut, /*include_terminal_as=*/true);
  }
  if (c.core != nullptr) {
    path.core = *c.core;
    append_reverse(path, **c.core, 0,
                   /*include_terminal_as=*/path.ases.empty());
  }
  if (c.peer_link) {
    path.peer_link = c.peer_link;
    path.links.push_back(*c.peer_link);
  }
  if (c.down != nullptr) {
    path.down = *c.down;
    path.down_cut = c.down_cut;
    append_forward(path, **c.down, c.down_cut,
                   /*include_first_as=*/path.ases.empty() || c.peer_link);
  }
  SCION_DCHECK(path.length() == c.length,
               "a candidate's length must match the path it builds");
  return path;
}

bool loop_free(std::span<const topo::AsIndex> ases) {
  for (std::size_t i = 1; i < ases.size(); ++i) {
    if (std::find(ases.begin(), ases.begin() + i, ases[i]) !=
        ases.begin() + i) {
      return false;
    }
  }
  return true;
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
    std::span<const SegmentRef> up, std::span<const SegmentRef> core,
    std::span<const SegmentRef> down, const CombineOptions& options) {
  std::vector<EndToEndPath> out;
  if (src == dst) return out;

  std::vector<Candidate> candidates;
  auto add = [&candidates](EndToEndPath::Kind kind, const SegmentRef* u,
                           const SegmentRef* c, const SegmentRef* d,
                           std::size_t up_cut = 0, std::size_t down_cut = 0,
                           std::optional<topo::LinkIndex> peer_link = {}) {
    const std::size_t length = (u ? (*u)->length() - up_cut : 0) +
                               (c ? (*c)->length() : 0) +
                               (d ? (*d)->length() - down_cut : 0) +
                               (peer_link ? 1 : 0);
    candidates.push_back(
        Candidate{kind, u, c, d, up_cut, down_cut, peer_link, length});
  };
  using Kind = EndToEndPath::Kind;

  // A core-AS source has no up segments: it reaches destinations directly
  // via its down segments and via reversed core segments.
  if (topology.is_core(src)) {
    for (const SegmentRef& d : down) {
      if (d->terminal_as() != dst) continue;
      if (d->origin_as() == src) {
        add(Kind::kUpDown, nullptr, nullptr, &d);  // single-segment
      }
      for (const SegmentRef& c : core) {
        if (c->terminal_as() != src || c->origin_as() != d->origin_as()) {
          continue;
        }
        add(Kind::kUpCoreDown, nullptr, &c, &d);
      }
    }
    // Core-to-core: a reversed core segment alone.
    if (topology.is_core(dst)) {
      for (const SegmentRef& c : core) {
        if (c->terminal_as() != src || c->origin_as() != dst) continue;
        add(Kind::kUpCoreDown, nullptr, &c, nullptr);
      }
    }
  }

  for (const SegmentRef& u : up) {
    if (u->terminal_as() != src) continue;

    // A core-AS destination needs no down segment: the up segment's core
    // plus (optionally) a core segment reach it.
    if (topology.is_core(dst)) {
      if (u->origin_as() == dst) {
        add(Kind::kUpDown, &u, nullptr, nullptr);  // single-segment
      }
      for (const SegmentRef& c : core) {
        if (c->terminal_as() != u->origin_as() || c->origin_as() != dst) {
          continue;
        }
        add(Kind::kUpCoreDown, &u, &c, nullptr);
      }
    }

    for (const SegmentRef& d : down) {
      if (d->terminal_as() != dst) continue;

      // Up and down meet at the same core AS: two-segment path.
      if (u->origin_as() == d->origin_as()) {
        add(Kind::kUpDown, &u, nullptr, &d);
      }

      // Shortcut: a shared AS below the core lets the path cross over
      // without visiting either origin.
      for (std::size_t i = 1; i < u->ases.size(); ++i) {
        for (std::size_t j = 1; j < d->ases.size(); ++j) {
          if (u->ases[i] != d->ases[j]) continue;
          add(Kind::kShortcut, &u, nullptr, &d, i, j);
        }
      }

      // Peering shortcut: an up-segment AS peers with a down-segment AS and
      // both segments advertise the same peering link.
      const auto& u_entries = u->pcb->entries();
      const auto& d_entries = d->pcb->entries();
      for (std::size_t i = 1; i < u->ases.size(); ++i) {
        for (const ctrl::PeerEntry& pu : u_entries[i].peers) {
          for (std::size_t j = 1; j < d->ases.size(); ++j) {
            if (topology.as_id(d->ases[j]) != pu.peer_as) continue;
            for (const ctrl::PeerEntry& pd : d_entries[j].peers) {
              if (pd.peer_as != topology.as_id(u->ases[i])) continue;
              const auto lu =
                  topology.link_by_interface(u->ases[i], pu.peer_if);
              const auto ld =
                  topology.link_by_interface(d->ases[j], pd.peer_if);
              if (!lu || !ld || *lu != *ld) continue;  // different links
              add(Kind::kPeering, &u, nullptr, &d, i, j, *lu);
            }
          }
        }
      }
    }

    // Three-segment paths via the core.
    for (const SegmentRef& c : core) {
      if (c->terminal_as() != u->origin_as()) continue;
      for (const SegmentRef& d : down) {
        if (d->terminal_as() != dst) continue;
        if (d->origin_as() != c->origin_as()) continue;
        add(Kind::kUpCoreDown, &u, &c, &d);
      }
    }
  }

  // Shortest first, stable; drop loops and duplicates by link sequence; cap.
  // Both filters keep the relative order of what they keep, so filtering
  // the stably sorted candidates keeps the same paths in the same order as
  // sorting the filtered ones, and building can stop at the cap.
  std::stable_sort(candidates.begin(), candidates.end(),
                   [](const Candidate& x, const Candidate& y) {
                     return x.length < y.length;
                   });
  out.reserve(std::min(candidates.size(), options.max_paths));
  for (const Candidate& c : candidates) {
    EndToEndPath path = build(c);
    if (!loop_free(path.ases)) continue;
    SCION_DCHECK(path.ases.size() == path.links.size() + 1,
                 "combined path must alternate AS, link, AS");
    SCION_DCHECK(path.ases.front() == src && path.ases.back() == dst,
                 "combined path must run from src to dst");
    // Equal link sequences have equal lengths, so a duplicate can only be
    // among the kept paths of this length: the tail of `out`.
    bool duplicate = false;
    for (auto it = out.rbegin();
         it != out.rend() && it->length() == path.length(); ++it) {
      if (it->links == path.links) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    out.push_back(std::move(path));
    if (out.size() >= options.max_paths) break;
  }
  return out;
}

}  // namespace scion::svc
