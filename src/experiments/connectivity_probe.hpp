// The connectivity probe shared by the dynamic-resilience and churn
// experiments. Every probe interval of the measurement window, each sampled
// AS pair is asked whether it currently has a live path; an up->down->up
// transition of a pair yields one lag sample (time from losing the last
// live path to the control plane exposing a live one again).
#pragma once

#include <cstddef>
#include <vector>

#include "core/beaconing_sim.hpp"
#include "util/stats.hpp"
#include "util/time.hpp"

namespace scion::exp {

/// Per-pair connectivity state machine fed by the periodic probe.
struct PairState {
  bool seen{false};
  bool up{false};
  bool in_outage{false};
  util::TimePoint down_since;
};

/// Feeds one probe round into the state machines and into the series'
/// `probes`, `probes_up`, `outages` and `recovered` tallies. `lag` is the
/// series' CDF of outage lengths in seconds; `pair_up(i)` answers whether
/// sampled pair i currently has a live path.
template <typename Series, typename PairUpFn>
void probe_round(Series& series, util::EmpiricalCdf& lag,
                 std::vector<PairState>& states, util::TimePoint now,
                 PairUpFn&& pair_up) {
  for (std::size_t i = 0; i < states.size(); ++i) {
    const bool up = pair_up(i);
    ++series.probes;
    if (up) ++series.probes_up;
    PairState& st = states[i];
    if (st.seen) {
      if (st.up && !up) {
        st.in_outage = true;
        st.down_since = now;
        ++series.outages;
      } else if (!st.up && up && st.in_outage) {
        lag.add((now - st.down_since).as_seconds());
        ++series.recovered;
        st.in_outage = false;
      }
    }
    st.seen = true;
    st.up = up;
  }
}

/// After the run: counts the outages still open into `unrecovered` and the
/// fraction of probes that found a live path into `availability`.
template <typename Series>
void finalize_probes(Series& series, const std::vector<PairState>& states) {
  for (const PairState& st : states) {
    if (st.in_outage) ++series.unrecovered;
  }
  series.availability =
      series.probes > 0 ? static_cast<double>(series.probes_up) /
                              static_cast<double>(series.probes)
                        : 0.0;
}

/// True if `sim` stores a path between `s` and `t`, in either direction,
/// every link of which is currently up.
bool scion_pair_live(const ctrl::BeaconingSim& sim, topo::AsIndex s,
                     topo::AsIndex t);

}  // namespace scion::exp
