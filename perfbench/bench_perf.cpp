// bench_perf: the simulator's performance benchmark (see README.md).
//
// Four workloads drive the simulator through its public APIs. Every
// repetition runs in a fresh child process (this binary re-executed with
// --child): single-threaded, no trace sink, event profiler off. The parent
// reads the child's result line from a pipe and its peak RSS from wait4(),
// interleaves repetitions round-robin across workloads, and reports each
// end-to-end metric's median, quartiles, min, max and n. One traced child
// per workload (event profiler on, optional Chrome trace) then gives the
// per-layer numbers: per-label event costs, deterministic counts, and
// probes that time public functions on the finished run's own state.
//
// Every child's deterministic outputs (its fingerprint) must be non-zero,
// equal across repetitions, and equal to references.json where that file
// holds the seed, so a fast wrong answer counts as a failed run.
//
// All timing goes through obs::profiler_wall_now_ns(), directly or via
// obs::ProfilePhase.
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "analysis/overhead.hpp"
#include "bgp/bgp_sim.hpp"
#include "core/algorithms.hpp"
#include "core/beaconing_sim.hpp"
#include "experiments/scale.hpp"
#include "obs/alloc_track.hpp"
#include "obs/event_profile.hpp"
#include "obs/json.hpp"
#include "obs/manifest.hpp"
#include "obs/profile.hpp"
#include "obs/report.hpp"
#include "obs/session.hpp"
#include "scion/control_plane_sim.hpp"
#include "topology/generator.hpp"
#include "util/flags.hpp"
#include "util/rng.hpp"

namespace scion::perf {
namespace {

using util::Duration;
using util::TimePoint;

// ---------------------------------------------------------------------------
// Metrics

/// One bit per workload, so a metric can name the workloads that exercise
/// its layer.
enum WorkloadBit : unsigned {
  kCoreBaseline = 1u << 0,
  kCoreDiversity = 1u << 1,
  kBgpChurn = 1u << 2,
  kControlPlane = 1u << 3,
};
constexpr unsigned kAllWorkloads =
    kCoreBaseline | kCoreDiversity | kBgpChurn | kControlPlane;
constexpr unsigned kBeaconing = kCoreBaseline | kCoreDiversity | kControlPlane;

struct Metric {
  const char* name;
  const char* unit;
  unsigned workloads{kAllWorkloads};
};

/// Measured on untraced children only.
constexpr Metric kEndToEnd[] = {
    {"wall_s", "s"},
    {"events_per_s", "1/s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MB"},
};

/// Filled in by the parent from the traced and untraced wall times.
constexpr std::string_view kTraceOverhead = "obs.trace_overhead_pct";

/// From the traced child of each workload, for the workloads that exercise
/// the layer; each of those values must be non-zero.
constexpr Metric kPerLayer[] = {
    {"simnet.schedule_pop_ns", "ns"},
    {"simnet.send_deliver_ns", "ns"},
    {"simnet.events", "count"},
    {"simnet.queue_high_water", "count"},
    {"core.receive_ns", "ns", kBeaconing},
    {"core.receive_allocs", "count", kBeaconing},
    {"core.interval_ns", "ns", kBeaconing},
    {"core.interval_allocs_per_sent_pcb", "count", kBeaconing},
    {"core.pcb_extend_ns", "ns", kBeaconing},
    {"core.pcb_extend_allocs", "count", kBeaconing},
    {"core.pcb_path_key_ns", "ns", kBeaconing},
    {"core.store_insert_ns", "ns", kBeaconing},
    {"core.baseline_select_ns", "ns", kBeaconing},
    {"core.store_admit_ratio", "ratio", kBeaconing},
    {"core.store_insert_diversity_ns", "ns", kBeaconing},
    {"core.diversity_select_ns", "ns", kBeaconing},
    {"core.pcb_verify_ns", "ns", kControlPlane},
    {"crypto.sign_ns", "ns", kControlPlane},
    {"bgp.update_process_ns", "ns", kBgpChurn},
    {"bgp.update_process_allocs", "count", kBgpChurn},
    {"bgp.mrai_flush_ns", "ns", kBgpChurn},
    {"bgp.mrai_flush_allocs", "count", kBgpChurn},
    {"bgp.updates_sent", "count", kBgpChurn},
    {"scion.lookup_ns", "ns", kControlPlane},
    {"scion.lookup_allocs", "count", kControlPlane},
    {"scion.registration_ns", "ns", kControlPlane},
    {"scion.resolve_paths_ns_p50", "ns", kControlPlane},
    {"scion.resolve_paths_ns_p99", "ns", kControlPlane},
    {"faults.event_ns", "ns", kBgpChurn | kControlPlane},
    {"topology.build_s", "s"},
    {kTraceOverhead.data(), "%"},
};

using Layers = std::map<std::string, double>;

// ---------------------------------------------------------------------------
// Workload sizes. A full-size repetition takes 2.5-4 s on a 4-core x86-64
// VM (Release, GCC 12), so a 20 s run holds 5-9 of them; --smoke shrinks
// every workload to well under a second.

/// Core beaconing size: the Scale --scale factor (64 cores at 1.0), and a
/// warm-up excluded from accounting before the measured window, as in fig5.
struct CoreSize {
  double scale;
  Duration warmup;
  Duration window;
};

struct Sizes {
  CoreSize core_baseline;
  CoreSize core_diversity;
  std::size_t bgp_ases;
  Duration bgp_convergence;
  Duration bgp_churn;
  std::size_t cp_isds;
  std::size_t cp_ases_per_isd;
  std::size_t cp_cores_per_isd;
  Duration cp_duration;
};

// The baseline measures one hour after one PCB lifetime of warm-up: it is
// periodic from the start, so a longer window only repeats the same
// intervals. The diversity algorithm is nearly silent in steady state, so
// it keeps fig5's six-hour window.
constexpr Sizes kFull{
    .core_baseline = {0.4, Duration::hours(6), Duration::hours(1)},
    .core_diversity = {0.3, Duration::hours(6), Duration::hours(6)},
    .bgp_ases = 600,
    .bgp_convergence = Duration::minutes(30),
    .bgp_churn = Duration::minutes(40),
    .cp_isds = 8,
    .cp_ases_per_isd = 40,
    .cp_cores_per_isd = 3,
    .cp_duration = Duration::minutes(30),
};

constexpr Sizes kSmoke{
    .core_baseline = {0.15, Duration::hours(1), Duration::hours(1)},
    .core_diversity = {0.15, Duration::hours(1), Duration::hours(1)},
    .bgp_ases = 100,
    .bgp_convergence = Duration::minutes(10),
    .bgp_churn = Duration::minutes(10),
    .cp_isds = 3,
    .cp_ases_per_isd = 12,
    .cp_cores_per_isd = 2,
    .cp_duration = Duration::minutes(20),
};

/// Topologies and fault schedules are part of a workload's definition and
/// stay fixed; --seed drives the rest of each simulation's randomness (link
/// latencies, beaconing phases, MRAI jitter, the lookup stream). Drawn from
/// --seed, they changed the amount of work, and wall_s with it, by up to a
/// third from seed to seed.
constexpr std::uint64_t kFixedSeed = 1;
constexpr std::size_t kMonitors = 10;
constexpr std::uint64_t kKeyDomain = crypto::kDefaultKeyDomainSeed;
constexpr std::size_t kSetupMinRepeats = 21;
constexpr double kSetupSeconds = 0.25;
constexpr std::size_t kProbeSamples = 1001;
constexpr std::size_t kResolvePairs = 2000;
constexpr std::int64_t kChildTimeoutNs = 120'000'000'000;

// ---------------------------------------------------------------------------
// Small helpers

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(obs::profiler_wall_now_ns() - start_ns) * 1e-9;
}

/// Keeps the compiler from discarding a probed call's result.
template <typename T>
void keep(const T& value) {
  asm volatile("" : : "g"(&value) : "memory");
}

/// Times `fn` inside a ProfilePhase, so a traced run's Chrome trace shows
/// the span, and returns its wall time in seconds.
template <typename Fn>
double timed(const char* phase_name, Fn&& fn) {
  obs::ProfilePhase phase{phase_name};
  const std::int64_t t0 = obs::profiler_wall_now_ns();
  fn();
  return seconds_since(t0);
}

/// setup_s: the median of timed set-ups (topology generation plus simulator
/// construction). One set-up takes well under a millisecond, so a burst of
/// machine noise can cover a few dozen in a row; set-ups repeat until
/// kSetupSeconds of them have been timed. `clear` drops the previous set-up
/// untimed; the last one stays for the run.
template <typename Clear, typename Setup>
double repeated_setup(Clear&& clear, Setup&& setup) {
  std::vector<double> seconds;
  double total = 0;
  while (seconds.size() < kSetupMinRepeats || total < kSetupSeconds) {
    clear();
    seconds.push_back(timed("perf.setup", setup));
    total += seconds.back();
  }
  return median(std::move(seconds));
}

// ---------------------------------------------------------------------------
// Child side: one repetition of one workload

struct ChildArgs {
  std::uint64_t seed{1};
  const Sizes* sizes{&kFull};
  bool traced{false};
};

struct ChildOut {
  double setup_s{0};
  double wall_s{0};
  std::uint64_t events{0};
  obs::JsonWriter fingerprint;  // an open object the workload fills
  Layers layers;                // traced children only
  std::string error;            // non-empty: the run produced a wrong output

  void require(bool ok, const std::string& what) {
    if (!ok && error.empty()) error = what;
  }
};

/// Median ns and mean allocations per call of `op(i)`, over kProbeSamples
/// timed batches of `batch` calls; `prepare(sample)` runs untimed before
/// each batch.
struct ProbeCost {
  double ns{0};
  double allocs{0};
};

template <typename Prepare, typename Op>
ProbeCost probe(const char* phase_name, std::size_t batch, Prepare&& prepare,
                Op&& op) {
  obs::ProfilePhase phase{phase_name};
  std::vector<double> per_call(kProbeSamples);
  std::uint64_t allocs = 0;
  std::size_t call = 0;
  for (std::size_t s = 0; s < kProbeSamples; ++s) {
    prepare(s);
    const std::uint64_t allocs0 = obs::thread_allocs();
    const std::int64_t t0 = obs::profiler_wall_now_ns();
    for (std::size_t b = 0; b < batch; ++b) op(call++);
    per_call[s] = static_cast<double>(obs::profiler_wall_now_ns() - t0) /
                  static_cast<double>(batch);
    allocs += obs::thread_allocs() - allocs0;
  }
  return {median(std::move(per_call)),
          static_cast<double>(allocs) /
              static_cast<double>(kProbeSamples * batch)};
}

constexpr auto kNoPrepare = [](std::size_t) {};

/// T metrics: per-label handler cost from the event profiler.
void label_layers(Layers& layers) {
  std::map<std::string, obs::LabelStats, std::less<>> by_label;
  obs::LabelStats faults;
  for (const auto& [name, stats] : obs::EventProfiler::global().label_snapshot()) {
    by_label.emplace(name, stats);
    if (name.rfind("fault.", 0) == 0) {
      faults.events += stats.events;
      faults.wall_ns += stats.wall_ns;
    }
  }
  const auto get = [&](std::string_view label) {
    const auto it = by_label.find(label);
    return it == by_label.end() ? obs::LabelStats{} : it->second;
  };
  const auto per_event = [](double total, std::uint64_t events) {
    return events == 0 ? 0.0 : total / static_cast<double>(events);
  };
  const auto ns = [&](const obs::LabelStats& s) {
    return per_event(static_cast<double>(s.wall_ns), s.events);
  };
  const auto allocs = [&](const obs::LabelStats& s) {
    return per_event(static_cast<double>(s.allocs), s.events);
  };

  const obs::LabelStats receive = get("beacon.propagate");
  const obs::LabelStats interval = get("beacon.interval");
  layers["core.receive_ns"] = ns(receive);
  layers["core.receive_allocs"] = allocs(receive);
  layers["core.interval_ns"] = ns(interval);
  // Deliveries count the PCBs sent over the whole run, warm-up included (the
  // servers' own counters cover only the measured window). Only
  // control_plane loses a few, in flight on failed links.
  layers["core.interval_allocs_per_sent_pcb"] =
      per_event(static_cast<double>(interval.allocs), receive.events);
  const obs::LabelStats update = get("bgp.update.process");
  const obs::LabelStats mrai = get("bgp.timer.mrai");
  layers["bgp.update_process_ns"] = ns(update);
  layers["bgp.update_process_allocs"] = allocs(update);
  layers["bgp.mrai_flush_ns"] = ns(mrai);
  layers["bgp.mrai_flush_allocs"] = allocs(mrai);
  const obs::LabelStats lookup = get("path.lookup");
  layers["scion.lookup_ns"] = ns(lookup);
  layers["scion.lookup_allocs"] = allocs(lookup);
  layers["scion.registration_ns"] = ns(get("path.registration"));
  layers["faults.event_ns"] = ns(faults);
}

/// Schedules `depth` no-op events far in the future, so probes run against
/// a queue as deep as the workload's.
void fill_queue(sim::Simulator& s, std::size_t depth) {
  const TimePoint far = s.now() + Duration::hours(1000);
  for (std::size_t i = 0; i < depth; ++i) {
    s.schedule_at(far + Duration::nanoseconds(static_cast<std::int64_t>(i)),
                  [] {});
  }
}

/// P metrics of the event loop and the network, on a fresh Simulator whose
/// queue holds the workload's high-water mark of pending events.
void probe_simnet(std::size_t depth, Layers& layers) {
  // One probed call schedules and pops kBatch events, so the end-of-segment
  // bookkeeping of run_until() is spread over many events.
  constexpr std::int64_t kBatch = 256;
  {
    sim::Simulator s;
    fill_queue(s, depth);
    const ProbeCost c =
        probe("perf.probe.schedule_pop", 1, kNoPrepare, [&](std::size_t) {
          const TimePoint t0 = s.now();
          for (std::int64_t k = 0; k < kBatch; ++k) {
            // A scrambled order, so pushes do not arrive pre-sorted.
            s.schedule_at(t0 + Duration::nanoseconds(1 + (k * 89) % kBatch),
                          [] {});
          }
          s.run_until(t0 + Duration::nanoseconds(kBatch));
        });
    layers["simnet.schedule_pop_ns"] = c.ns / kBatch;
  }
  {
    sim::Simulator s;
    sim::Network net{s};
    const sim::NodeId a = net.add_node();
    const sim::NodeId b = net.add_node();
    net.set_handler(b, [](const sim::Message& msg) { keep(msg); });
    const Duration latency = Duration::milliseconds(1);
    const sim::ChannelId ch = net.add_channel(a, b, latency);
    fill_queue(s, depth);
    // Every protocol payload is a shared_ptr; its type does not matter here.
    const auto payload = std::make_shared<const std::uint64_t>(0);
    const ProbeCost c =
        probe("perf.probe.send_deliver", 1, kNoPrepare, [&](std::size_t) {
          for (std::int64_t k = 0; k < kBatch; ++k) {
            net.send(ch, a, util::Bytes{100}, payload);
          }
          s.run_until(s.now() + latency);
        });
    layers["simnet.send_deliver_ns"] = c.ns / kBatch;
  }
}

/// Inputs of the core-layer probes: the beacon servers whose stores are
/// probed, every server (the source of insert candidates), and the
/// workload's beaconing parameters.
struct CoreProbeInput {
  const topo::Topology& topology;
  std::vector<const ctrl::BeaconServer*> holders;
  std::vector<const ctrl::BeaconServer*> servers;
  TimePoint now;
  std::size_t storage_limit;
  std::size_t dissemination_limit;
  bool signed_pcbs;
};

/// P metrics of the PCB, beacon-store and selection layers, and of the
/// crypto layer when the PCBs are signed, on the PCBs stored at `in.holders`
/// when the run finished.
void probe_core(const CoreProbeInput& in, ChildOut& out) {
  struct Bucket {
    const ctrl::BeaconServer* holder;
    topo::IsdAsId origin;
    std::span<const ctrl::StoredPcb> pcbs;
    // The holder's first neighbor: the target of selection probes.
    topo::IsdAsId neighbor;
    topo::LinkIndex egress;
    std::vector<topo::LinkIndex> egress_links;
  };
  std::vector<Bucket> buckets;
  std::vector<const ctrl::StoredPcb*> stored;
  for (const ctrl::BeaconServer* h : in.holders) {
    const topo::LinkIndex egress = in.topology.links_of(h->self()).front();
    const topo::AsIndex neighbor = in.topology.neighbor(egress, h->self());
    for (const topo::IsdAsId origin : h->store().origins()) {
      const auto& pcbs = h->store().for_origin(origin);
      buckets.push_back({h, origin, pcbs, in.topology.as_id(neighbor), egress,
                         in.topology.links_between(h->self(), neighbor)});
      for (const ctrl::StoredPcb& e : pcbs) stored.push_back(&e);
    }
  }
  out.require(!stored.empty(), "no PCBs stored at the probed servers");
  if (stored.empty()) return;
  Layers& layers = out.layers;
  const auto pcb_at = [&](std::size_t i) -> const ctrl::Pcb& {
    return *stored[i % stored.size()]->pcb;
  };

  const topo::IsdAsId self = in.holders.front()->self_id();
  crypto::KeyStore keys{kKeyDomain};
  const crypto::SigningKey signing_key = keys.key_for(self.value());
  const auto forwarding_key =
      crypto::ForwardingKey::derive(self.value(), kKeyDomain);
  const ProbeCost extend =
      probe("perf.probe.pcb_extend", 8, kNoPrepare, [&](std::size_t i) {
        const ctrl::Pcb& pcb = pcb_at(i);
        if (in.signed_pcbs) {
          keep(pcb.extend_signed(self, topo::IfId{1}, topo::IfId{2}, {},
                                 signing_key, forwarding_key));
        } else {
          keep(pcb.extend_unsigned(self, topo::IfId{1}, topo::IfId{2}, {}));
        }
      });
  layers["core.pcb_extend_ns"] = extend.ns;
  layers["core.pcb_extend_allocs"] = extend.allocs;
  layers["core.pcb_path_key_ns"] =
      probe("perf.probe.pcb_path_key", 16, kNoPrepare,
            [&](std::size_t i) { keep(pcb_at(i).path_key()); })
          .ns;

  // Store inserts: single-origin stores rebuilt from the fullest buckets,
  // offered same-origin PCBs that other servers hold.
  struct InsertCase {
    ctrl::BeaconStore shortest;
    ctrl::BeaconStore diversity;
    std::vector<const ctrl::StoredPcb*> candidates;
  };
  std::vector<const Bucket*> fullest;
  for (const Bucket& b : buckets) fullest.push_back(&b);
  std::stable_sort(fullest.begin(), fullest.end(),
                   [](const Bucket* x, const Bucket* y) {
                     return x->pcbs.size() > y->pcbs.size();
                   });
  std::vector<InsertCase> cases;
  for (const Bucket* b : fullest) {
    if (cases.size() == 16) break;
    InsertCase c{
        ctrl::BeaconStore{in.storage_limit, ctrl::StorePolicy::kShortestFresh},
        ctrl::BeaconStore{in.storage_limit, ctrl::StorePolicy::kDiversityAware},
        {}};
    for (const ctrl::StoredPcb& e : b->pcbs) {
      c.shortest.insert(e);
      c.diversity.insert(e);
    }
    for (const ctrl::BeaconServer* s : in.servers) {
      if (s == b->holder) continue;
      for (const ctrl::StoredPcb& e : s->store().for_origin(b->origin)) {
        if (c.candidates.size() < 32) c.candidates.push_back(&e);
      }
    }
    if (!c.candidates.empty()) cases.push_back(std::move(c));
  }
  out.require(!cases.empty(), "no insert candidates for the probed stores");
  if (cases.empty()) return;
  // Probes that mutate state run a batch of calls, each on its own fresh
  // copy prepared untimed, so no call is timed alone at the clock's
  // granularity.
  constexpr std::size_t kCopies = 16;
  std::vector<ctrl::BeaconStore> work(kCopies, ctrl::BeaconStore{0});
  const auto insert_probe = [&](const char* name,
                                ctrl::BeaconStore InsertCase::*store) {
    return probe(
        name, kCopies,
        [&](std::size_t s) {
          for (ctrl::BeaconStore& w : work) w = cases[s % cases.size()].*store;
        },
        [&](std::size_t i) {
          const InsertCase& c = cases[i / kCopies % cases.size()];
          const ctrl::StoredPcb& e = *c.candidates[i % c.candidates.size()];
          keep(work[i % kCopies].insert(e.pcb, e.links, in.now, e.path_key));
        });
  };
  layers["core.store_insert_ns"] =
      insert_probe("perf.probe.store_insert", &InsertCase::shortest).ns;
  layers["core.store_insert_diversity_ns"] =
      insert_probe("perf.probe.store_insert_diversity", &InsertCase::diversity)
          .ns;

  layers["core.baseline_select_ns"] =
      probe("perf.probe.baseline_select", 16, kNoPrepare,
            [&](std::size_t i) {
              const Bucket& b = buckets[i % buckets.size()];
              keep(ctrl::baseline_select(b.pcbs, b.neighbor, b.egress,
                                         in.dissemination_limit, in.now));
            })
          .ns;
  std::vector<std::optional<ctrl::DiversityState>> diversity(kCopies);
  layers["core.diversity_select_ns"] =
      probe(
          "perf.probe.diversity_select", kCopies,
          [&](std::size_t) {
            for (auto& state : diversity) state.emplace(ctrl::DiversityParams{});
          },
          [&](std::size_t i) {
            const Bucket& b = buckets[i % buckets.size()];
            keep(diversity[i % kCopies]->select_and_commit(
                b.pcbs, b.origin, b.neighbor, b.egress_links,
                in.dissemination_limit, in.now));
          })
          .ns;

  if (!in.signed_pcbs) return;
  std::size_t rejected = 0;
  layers["core.pcb_verify_ns"] =
      probe("perf.probe.pcb_verify", 4, kNoPrepare,
            [&](std::size_t i) { rejected += !pcb_at(i).verify(keys); })
          .ns;
  out.require(rejected == 0, "a stored PCB failed signature verification");
  std::vector<crypto::Sha256Digest> digests;
  for (std::size_t i = 0; i < std::min<std::size_t>(stored.size(), 256); ++i) {
    digests.push_back(pcb_at(i).signing_digest(pcb_at(i).entries().back()));
  }
  layers["crypto.sign_ns"] =
      probe("perf.probe.sign", 8, kNoPrepare,
            [&](std::size_t i) {
              keep(crypto::sign(signing_key, digests[i % digests.size()]));
            })
          .ns;
}

/// P metric: median of three rebuilds of the workload's topology.
template <typename Make>
void probe_topology(Make&& make, Layers& layers) {
  obs::ProfilePhase phase{"perf.probe.topology"};
  std::vector<double> seconds;
  for (int i = 0; i < 3; ++i) {
    const std::int64_t t0 = obs::profiler_wall_now_ns();
    const auto topology = make();
    seconds.push_back(seconds_since(t0));
    keep(topology);
  }
  layers["topology.build_s"] = median(std::move(seconds));
}

/// Common traced-child tail: label costs, then the event profiler goes off
/// so probes neither land in the label stats nor pay its per-event cost.
void begin_layers(sim::Simulator& s, ChildOut& out) {
  label_layers(out.layers);
  obs::EventProfiler::global().set_enabled(false);
  out.layers["simnet.events"] = static_cast<double>(s.events_processed());
  out.layers["simnet.queue_high_water"] =
      static_cast<double>(s.queue_high_water());
  probe_simnet(s.queue_high_water(), out.layers);
}

double admit_ratio(std::uint64_t received, std::uint64_t rejected) {
  return received == 0 ? 0.0
                       : 1.0 - static_cast<double>(rejected) /
                                   static_cast<double>(received);
}

// --- core_baseline / core_diversity ----------------------------------------

struct CoreTopology {
  topo::Topology internet;
  exp::CoreNetworks nets;
  /// bench_fig5_overhead's monitors, mapped into the core network.
  std::vector<topo::AsIndex> monitors;
};

CoreTopology make_core_topology(double factor) {
  // Scale::from_flags's --scale multiplier, without its environment lookup;
  // Scale does not expose it, so this copy must follow from_flags.
  exp::Scale s;
  const auto mul = [factor](std::size_t v) {
    return static_cast<std::size_t>(
        std::max(1.0, std::round(static_cast<double>(v) * factor)));
  };
  s.internet_ases = mul(s.internet_ases);
  s.core_ases = mul(s.core_ases);
  s.core_isds = mul(s.core_isds);
  s.seed = kFixedSeed;
  CoreTopology t{exp::build_internet(s), {}, {}};
  t.nets = exp::build_core_networks(s, t.internet);
  for (const topo::AsIndex m : exp::pick_monitors(t.internet, kMonitors)) {
    const topo::AsIndex idx = exp::find_by_as_number(
        t.nets.scion_view, t.internet.as_id(m).as_number());
    if (idx != topo::kInvalidAsIndex) t.monitors.push_back(idx);
  }
  return t;
}

void run_core(const ChildArgs& a, ctrl::AlgorithmKind algorithm,
              const CoreSize& size, ChildOut& out) {
  // bench_fig5_overhead's run_core() configuration.
  ctrl::BeaconingSimConfig config;
  config.server.algorithm = algorithm;
  config.server.mode = ctrl::BeaconingMode::kCore;
  config.server.storage_limit = 60;
  config.server.dissemination_limit = 5;
  config.server.compute_crypto = false;
  if (algorithm == ctrl::AlgorithmKind::kDiversity) {
    config.server.store_policy = ctrl::StorePolicy::kDiversityAware;
  }
  config.warmup = size.warmup;
  config.sim_duration = size.window;
  config.seed = a.seed;

  std::optional<CoreTopology> t;
  std::optional<ctrl::BeaconingSim> sim;
  out.setup_s = repeated_setup(
      [&] {
        sim.reset();
        t.reset();
      },
      [&] {
        t.emplace(make_core_topology(size.scale));
        sim.emplace(t->nets.scion_view, config);
      });

  ctrl::BeaconServerStats stats;
  bool monitors_ok = !t->monitors.empty();
  out.wall_s = timed("perf.run", [&] {
    sim->run();
    stats = sim->aggregate_stats();
    out.events = sim->simulator().events_processed();
    obs::JsonWriter& fp = out.fingerprint;
    fp.kv("events", out.events);
    fp.kv("pcbs_received", stats.pcbs_received);
    fp.kv("pcbs_sent", stats.pcbs_sent);
    fp.kv("store_rejected", stats.store_rejected);
    fp.kv("wire_bytes", sim->total_bytes().value());
    fp.key("monitor_monthly_bytes").begin_array();
    for (const topo::AsIndex m : t->monitors) {
      const double bytes = analysis::extrapolate_to_month(
          sim->server(m).stats().bytes_received, config.sim_duration);
      monitors_ok = monitors_ok && bytes > 0;
      fp.value(bytes);
    }
    fp.end_array();
  });
  out.require(out.events > 0 && stats.pcbs_sent > 0 &&
                  sim->total_bytes().value() > 0,
              "beaconing produced no PCBs");
  out.require(stats.pcbs_received <= stats.pcbs_sent,
              "more PCBs received than sent");
  out.require(monitors_ok, "a monitor received no PCB bytes");
  if (!a.traced) return;

  begin_layers(sim->simulator(), out);
  out.layers["core.store_admit_ratio"] =
      admit_ratio(stats.pcbs_received, stats.store_rejected);
  const topo::Topology& view = t->nets.scion_view;
  CoreProbeInput in{view, {}, {}, sim->simulator().now(),
                    config.server.storage_limit,
                    config.server.dissemination_limit, false};
  for (const topo::AsIndex m : t->monitors) {
    in.holders.push_back(&sim->server(m));
  }
  for (topo::AsIndex i = 0; i < view.as_count(); ++i) {
    in.servers.push_back(&sim->server(i));
  }
  probe_core(in, out);
  probe_topology([&] { return make_core_topology(size.scale); },
                 out.layers);
}

void run_core_baseline(const ChildArgs& a, ChildOut& out) {
  run_core(a, ctrl::AlgorithmKind::kBaseline, a.sizes->core_baseline, out);
}

void run_core_diversity(const ChildArgs& a, ChildOut& out) {
  run_core(a, ctrl::AlgorithmKind::kDiversity, a.sizes->core_diversity, out);
}

// --- bgp_churn ---------------------------------------------------------------

topo::Topology make_internet(std::size_t ases) {
  exp::Scale s;
  s.internet_ases = ases;
  s.seed = kFixedSeed;
  return exp::build_internet(s);
}

/// The session-flap process BgpSim builds from flaps_per_adjacency_per_day
/// (the same aggregate rate over distinct adjacencies), on kFixedSeed.
/// BgpSim seeds its own process from config.seed, which --seed sets, so
/// this copy must follow BgpSim's if that changes.
faults::FaultPlan session_flaps(const topo::Topology& t,
                                double flaps_per_adjacency_per_day) {
  std::set<std::pair<topo::AsIndex, topo::AsIndex>> adjacencies;
  for (topo::LinkIndex l = 0; l < t.link_count(); ++l) {
    const topo::Link& link = t.link(l);
    adjacencies.emplace(std::min(link.a, link.b), std::max(link.a, link.b));
  }
  faults::FlapProcess flap;
  flap.rate_per_hour = flaps_per_adjacency_per_day *
                       static_cast<double>(adjacencies.size()) / 24.0;
  faults::FaultPlan plan;
  plan.flaps.push_back(flap);
  plan.seed = kFixedSeed;
  return plan;
}

void run_bgp_churn(const ChildArgs& a, ChildOut& out) {
  bgp::BgpSimConfig config;
  config.convergence_window = a.sizes->bgp_convergence;
  config.churn_window = a.sizes->bgp_churn;
  config.sampled_origins = 0;  // every AS originates
  config.seed = a.seed;

  std::optional<topo::Topology> internet;
  std::vector<topo::AsIndex> monitors;
  std::vector<std::uint32_t> prefixes;
  std::optional<bgp::BgpSim> sim;
  out.setup_s = repeated_setup(
      [&] {
        sim.reset();
        internet.reset();
      },
      [&] {
        internet.emplace(make_internet(a.sizes->bgp_ases));
        monitors = exp::pick_monitors(*internet, kMonitors);
        prefixes = exp::prefix_counts(*internet, kFixedSeed);
        config.flaps_per_adjacency_per_day = 0.0;
        config.faults = session_flaps(*internet, 2.0);
        sim.emplace(*internet, config);
        for (const topo::AsIndex m : monitors) sim->add_monitor(m);
      });

  bool monitors_ok = !monitors.empty();
  out.wall_s = timed("perf.run", [&] {
    sim->run();
    out.events = sim->simulator().events_processed();
    obs::JsonWriter& fp = out.fingerprint;
    fp.kv("events", out.events);
    fp.kv("updates_sent", sim->total_updates_sent());
    fp.key("monitor_monthly_bgp_bytes").begin_array();
    for (const topo::AsIndex m : monitors) {
      const double bytes = sim->monthly_bgp_bytes(m, prefixes);
      monitors_ok = monitors_ok && bytes > 0;
      fp.value(bytes);
    }
    fp.end_array();
    fp.key("monitor_monthly_bgpsec_bytes").begin_array();
    for (const topo::AsIndex m : monitors) {
      const double bytes = sim->monthly_bgpsec_bytes(m, prefixes);
      monitors_ok = monitors_ok && bytes > 0;
      fp.value(bytes);
    }
    fp.end_array();
  });
  out.require(out.events > 0 && sim->total_updates_sent() > 0,
              "BGP sent no updates");
  out.require(monitors_ok, "a monitor saw no BGP or BGPsec bytes");
  if (!a.traced) return;

  begin_layers(sim->simulator(), out);
  out.layers["bgp.updates_sent"] =
      static_cast<double>(sim->total_updates_sent());
  probe_topology([&] { return make_internet(a.sizes->bgp_ases); },
                 out.layers);
}

// --- control_plane -------------------------------------------------------------

topo::Topology make_multi_isd(const Sizes& sizes) {
  topo::MultiIsdConfig c;
  c.n_isds = sizes.cp_isds;
  c.cores_per_isd = sizes.cp_cores_per_isd;
  c.ases_per_isd = sizes.cp_ases_per_isd;
  c.seed = kFixedSeed;
  return topo::generate_multi_isd(c);
}

/// P metric: ControlPlaneSim::resolve_paths on Zipf-sampled leaf pairs (the
/// lookup workload's own distribution), each call timed on its own.
void probe_resolve_paths(svc::ControlPlaneSim& sim, std::uint64_t seed,
                         ChildOut& out) {
  obs::ProfilePhase phase{"perf.probe.resolve_paths"};
  const std::vector<topo::AsIndex>& leaves = sim.leaves();
  util::Rng rng{seed};
  std::vector<double> ns;
  std::size_t paths = 0;
  while (ns.size() < kResolvePairs) {
    const topo::AsIndex src = leaves[rng.index(leaves.size())];
    const topo::AsIndex dst = leaves[rng.zipf(leaves.size(), 1.1) - 1];
    if (src == dst) continue;
    const std::int64_t t0 = obs::profiler_wall_now_ns();
    const std::vector<svc::EndToEndPath> found = sim.resolve_paths(src, dst);
    ns.push_back(static_cast<double>(obs::profiler_wall_now_ns() - t0));
    paths += found.size();
  }
  out.require(paths > 0, "resolve_paths found no path for any pair");
  std::sort(ns.begin(), ns.end());
  out.layers["scion.resolve_paths_ns_p50"] = median(ns);
  // Nearest rank: 20 of the 2000 samples lie beyond p99.
  out.layers["scion.resolve_paths_ns_p99"] = ns[ns.size() * 99 / 100 - 1];
}

void run_control_plane(const ChildArgs& a, ChildOut& out) {
  svc::ControlPlaneSimConfig config;
  config.sim_duration = a.sizes->cp_duration;
  config.lookups_per_second = 10.0;
  config.zipf_exponent = 1.1;
  // The sim's own link-failure process (4 per hour, 2 min down), on
  // kFixedSeed. The sim seeds its own from config.seed, which --seed sets,
  // so this copy must follow ControlPlaneSim's if that changes.
  config.link_failures_per_hour = 0.0;
  faults::FlapProcess failures;
  failures.rate_per_hour = 4.0;
  failures.downtime_min = config.failure_downtime;
  failures.downtime_max = config.failure_downtime;
  failures.links = faults::LinkClass::kProviderCustomer;
  config.faults.flaps.push_back(failures);
  config.faults.seed = kFixedSeed;
  config.seed = a.seed;

  std::optional<topo::Topology> world;
  std::optional<svc::ControlPlaneSim> sim;
  out.setup_s = repeated_setup(
      [&] {
        sim.reset();
        world.reset();
      },
      [&] {
        world.emplace(make_multi_isd(*a.sizes));
        sim.emplace(*world, config);
      });

  out.wall_s = timed("perf.run", [&] {
    sim->run();
    out.events = sim->simulator().events_processed();
    obs::JsonWriter& fp = out.fingerprint;
    fp.kv("events", out.events);
    fp.kv("lookups", sim->lookups_performed());
    fp.kv("paths_resolved", sim->paths_resolved());
    fp.kv("ledger_bytes", sim->ledger().total_bytes().value());
    fp.key("ledger_component_bytes").begin_object();
    for (const analysis::OverheadLedger::Row& row : sim->ledger().rows()) {
      fp.kv(row.component, row.bytes.value());
    }
    fp.end_object();
  });
  out.require(sim->lookups_performed() > 0 && sim->paths_resolved() > 0,
              "no lookup resolved a path");
  out.require(sim->ledger().total_bytes().value() > 0,
              "the overhead ledger is empty");
  if (!a.traced) return;

  begin_layers(sim->simulator(), out);
  std::uint64_t received = 0;
  std::uint64_t rejected = 0;
  CoreProbeInput in{*world, {}, {}, sim->simulator().now(),
                    config.storage_limit, config.dissemination_limit, true};
  for (topo::AsIndex i = 0; i < world->as_count(); ++i) {
    for (const ctrl::BeaconServer* s :
         {sim->core_server(i), sim->intra_server(i)}) {
      if (s == nullptr) continue;
      received += s->stats().pcbs_received;
      rejected += s->stats().store_rejected;
    }
    if (const ctrl::BeaconServer* core = sim->core_server(i)) {
      in.holders.push_back(core);
      in.servers.push_back(core);
    }
  }
  out.layers["core.store_admit_ratio"] = admit_ratio(received, rejected);
  probe_core(in, out);
  probe_resolve_paths(*sim, a.seed, out);
  probe_topology([&] { return make_multi_isd(*a.sizes); }, out.layers);
}

// --- workload table ---------------------------------------------------------------

struct Workload {
  const char* name;
  WorkloadBit bit;
  void (*run)(const ChildArgs&, ChildOut&);

  bool exercises(const Metric& m) const { return (m.workloads & bit) != 0; }
};

constexpr Workload kWorkloads[] = {
    {"core_baseline", kCoreBaseline, run_core_baseline},
    {"core_diversity", kCoreDiversity, run_core_diversity},
    {"bgp_churn", kBgpChurn, run_bgp_churn},
    {"control_plane", kControlPlane, run_control_plane},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

/// `--child`: runs one repetition and prints one JSON line:
/// {"setup_s":..,"wall_s":..,"events":..,"fingerprint":{..},"layers":{..}}
int child_main(const util::Flags& flags) {
  const Workload* w = find_workload(flags.get("workload", ""));
  if (w == nullptr) return 2;
  ChildArgs a;
  a.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  a.sizes = flags.get_bool("smoke", false) ? &kSmoke : &kFull;
  a.traced = flags.get_bool("trace", false);
  obs::EventProfiler::global().set_enabled(a.traced);
  obs::ObsSession session{"bench_perf", flags, a.seed};

  ChildOut out;
  out.fingerprint.begin_object();
  w->run(a, out);
  out.fingerprint.end_object();
  session.finish();
  if (a.traced) {
    // Keep the layers this workload exercises; each must have done work.
    Layers exercised;
    for (const Metric& m : kPerLayer) {
      if (!w->exercises(m) || m.name == kTraceOverhead) continue;
      const auto it = out.layers.find(m.name);
      const double value = it == out.layers.end() ? 0.0 : it->second;
      out.require(value != 0.0 && std::isfinite(value),
                  std::string{m.name} + " reads " + obs::fmt_g(value, 4) +
                      " on a layer the workload exercises");
      exercised[m.name] = value;
    }
    out.layers = std::move(exercised);
  }
  if (!out.error.empty()) {
    std::cerr << "bench_perf: " << w->name << " seed " << a.seed << ": "
              << out.error << '\n';
    return 1;
  }

  obs::JsonWriter line;
  line.begin_object();
  line.kv("setup_s", out.setup_s);
  line.kv("wall_s", out.wall_s);
  line.kv("events", out.events);
  line.key("fingerprint").value_raw(out.fingerprint.str());
  line.key("layers").begin_object();
  for (const auto& [name, value] : out.layers) line.kv(name, value);
  line.end_object();
  line.end_object();
  obs::print_line(line.str());
  return 0;
}

// ---------------------------------------------------------------------------
// Parent side

struct Options {
  std::vector<const Workload*> workloads;
  std::uint64_t seed{1};
  std::size_t min_reps{3};
  double seconds{0};
  bool trace{true};
  bool smoke{false};
  std::string summary_out;
  std::string chrome_trace_prefix;
};

/// One finished child.
struct Rep {
  bool traced{false};
  std::string error;  // empty: the run succeeded
  double setup_s{0};
  double wall_s{0};
  double events{0};
  double peak_rss_mb{0};
  std::string fingerprint;  // canonical JSON
  Layers layers;
};

/// Compact JSON with sorted keys and %.17g numbers: equal documents give
/// equal strings, however they were formatted.
void canonical(const obs::JsonValue& v, std::string& out) {
  if (v.is_null()) {
    out += "null";
  } else if (v.is_bool()) {
    out += v.as_bool() ? "true" : "false";
  } else if (v.is_number()) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v.as_number());
    out += buf;
  } else if (v.is_string()) {
    out += '"' + obs::json_escape(v.as_string()) + '"';
  } else if (v.is_array()) {
    out += '[';
    for (std::size_t i = 0; i < v.as_array().size(); ++i) {
      if (i > 0) out += ',';
      canonical(v.as_array()[i], out);
    }
    out += ']';
  } else {
    out += '{';
    bool first = true;
    for (const auto& [key, member] : v.as_object()) {
      if (!first) out += ',';
      first = false;
      out += '"' + obs::json_escape(key) + "\":";
      canonical(member, out);
    }
    out += '}';
  }
}

std::string canonical(const obs::JsonValue& v) {
  std::string out;
  canonical(v, out);
  return out;
}

struct ChildExit {
  std::string error;  // set when the child could not start or timed out
  int status{0};
  double peak_rss_mb{0};
  std::string output;
};

/// Runs this binary with `args`, capturing stdout. The child dies with the
/// parent (PR_SET_PDEATHSIG), and is killed after kChildTimeoutNs.
ChildExit spawn(const std::vector<std::string>& args) {
  std::vector<char*> argv;
  for (const std::string& s : args) argv.push_back(const_cast<char*>(s.c_str()));
  argv.push_back(nullptr);

  ChildExit result;
  int fds[2];
  if (pipe(fds) != 0) {
    result.error = "cannot create a pipe";
    return result;
  }
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv("/proc/self/exe", argv.data());
    _exit(127);
  }
  close(fds[1]);
  if (pid < 0) {
    close(fds[0]);
    result.error = "cannot fork";
    return result;
  }
  const std::int64_t deadline = obs::profiler_wall_now_ns() + kChildTimeoutNs;
  char buf[4096];
  for (;;) {
    const std::int64_t left_ms =
        (deadline - obs::profiler_wall_now_ns()) / 1'000'000;
    if (left_ms <= 0) {
      result.error = "timed out";
      kill(pid, SIGKILL);
      break;
    }
    pollfd p{fds[0], POLLIN, 0};
    const int ready = poll(&p, 1, static_cast<int>(std::min<std::int64_t>(left_ms, 1000)));
    if (ready < 0 && errno != EINTR) break;
    if (ready <= 0) continue;
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    result.output.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  rusage usage{};
  while (wait4(pid, &result.status, 0, &usage) < 0 && errno == EINTR) {
  }
  result.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  return result;
}

Rep run_rep(const Workload& w, const Options& o, bool traced) {
  std::vector<std::string> args{"bench_perf", "--child",
                                std::string{"--workload="} + w.name,
                                "--seed=" + std::to_string(o.seed),
                                traced ? "--trace=1" : "--trace=0"};
  if (o.smoke) args.push_back("--smoke");
  if (traced && !o.chrome_trace_prefix.empty()) {
    args.push_back("--chrome-trace-out=" + o.chrome_trace_prefix + w.name +
                   ".json");
  }
  const ChildExit c = spawn(args);
  Rep r;
  r.traced = traced;
  r.peak_rss_mb = c.peak_rss_mb;
  if (!c.error.empty()) {
    r.error = c.error;
    return r;
  }
  if (!WIFEXITED(c.status) || WEXITSTATUS(c.status) != 0) {
    r.error = WIFSIGNALED(c.status)
                  ? "killed by signal " + std::to_string(WTERMSIG(c.status))
                  : "exit status " + std::to_string(WEXITSTATUS(c.status));
    return r;
  }
  std::string last;
  std::istringstream lines{c.output};
  for (std::string line; std::getline(lines, line);) {
    if (!line.empty()) last = line;
  }
  const std::optional<obs::JsonValue> doc = obs::parse_json(last);
  const auto member = [&](const char* key) {
    return doc ? doc->find(key) : nullptr;
  };
  const obs::JsonValue* fp = member("fingerprint");
  const obs::JsonValue* layers = member("layers");
  bool readable = fp != nullptr && layers != nullptr && layers->is_object();
  for (const char* key : {"setup_s", "wall_s", "events"}) {
    readable = readable && member(key) != nullptr && member(key)->is_number();
  }
  if (readable) {
    for (const auto& [name, value] : layers->as_object()) {
      readable = readable && value.is_number();
    }
  }
  if (!readable) {
    r.error = "unreadable result line";
    return r;
  }
  r.setup_s = member("setup_s")->as_number();
  r.wall_s = member("wall_s")->as_number();
  r.events = member("events")->as_number();
  r.fingerprint = canonical(*fp);
  for (const auto& [name, value] : layers->as_object()) {
    r.layers[name] = value.as_number();
  }
  return r;
}

/// Median, quartiles (Python's statistics.quantiles, exclusive method),
/// min, max and n.
struct Summary {
  double median{0}, q1{0}, q3{0}, min{0}, max{0};
  std::size_t n{0};
};

Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.min = v.front();
  s.max = v.back();
  s.median = median(v);
  if (v.size() < 2) {
    s.q1 = s.q3 = v.front();
    return s;
  }
  const auto quartile = [&](std::size_t i) {
    const std::size_t n = v.size();
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  s.q1 = quartile(1);
  s.q3 = quartile(3);
  return s;
}

struct WorkloadResult {
  const Workload* workload{nullptr};
  std::vector<Rep> reps;
  std::string fingerprint;
  std::map<std::string, Summary> metrics;  // end-to-end and per-layer
  std::size_t failed{0};
};

std::optional<obs::JsonValue> load_references() {
  std::ifstream in{PERFBENCH_REFERENCES};
  std::stringstream text;
  text << in.rdbuf();
  return in ? obs::parse_json(text.str()) : std::nullopt;
}

/// Fails every rep whose fingerprint differs from the first successful
/// rep's, or from references.json where it holds this seed; then summarizes.
/// r.fingerprint keeps the measured one, so a summary can refresh the
/// references.
void finish_workload(WorkloadResult& r, const Options& o,
                     const std::optional<obs::JsonValue>& references) {
  std::string expected;
  if (references && !o.smoke) {
    if (const obs::JsonValue* by_seed = references->find(r.workload->name)) {
      if (const obs::JsonValue* ref = by_seed->find(std::to_string(o.seed))) {
        expected = canonical(*ref);
      }
    }
  }
  for (Rep& rep : r.reps) {
    if (!rep.error.empty()) continue;
    if (r.fingerprint.empty()) r.fingerprint = rep.fingerprint;
    if (rep.fingerprint != r.fingerprint) {
      rep.error = "fingerprint differs between repetitions";
    } else if (!expected.empty() && rep.fingerprint != expected) {
      rep.error = "fingerprint differs from references.json";
    }
  }

  std::map<std::string, std::vector<double>> samples;
  const Rep* traced = nullptr;
  for (const Rep& rep : r.reps) {
    if (!rep.error.empty()) {
      ++r.failed;
      std::cerr << "bench_perf: " << r.workload->name << ": run failed: "
                << rep.error << '\n';
      continue;
    }
    if (rep.traced) {
      traced = &rep;
      continue;
    }
    samples["wall_s"].push_back(rep.wall_s);
    samples["events_per_s"].push_back(rep.events / rep.wall_s);
    samples["setup_s"].push_back(rep.setup_s);
    samples["peak_rss_mb"].push_back(rep.peak_rss_mb);
  }
  if (traced != nullptr) {
    for (const auto& [name, value] : traced->layers) {
      samples[name].push_back(value);
    }
    if (const auto wall = samples.find("wall_s"); wall != samples.end()) {
      samples[std::string{kTraceOverhead}].push_back(
          100.0 * (traced->wall_s / median(wall->second) - 1.0));
    }
  }
  for (auto& [name, values] : samples) {
    r.metrics[name] = summarize(std::move(values));
  }
}

std::string metric_cell(const WorkloadResult& r, const Metric& m,
                        bool with_quartiles) {
  const auto it = r.metrics.find(m.name);
  if (it == r.metrics.end()) return "-";
  const Summary& s = it->second;
  return with_quartiles ? obs::fmt_g(s.median, 4) + " [" + obs::fmt_g(s.q1, 4) +
                              ", " + obs::fmt_g(s.q3, 4) + "]"
                        : obs::fmt_g(s.median, 4);
}

void print_tables(const std::vector<WorkloadResult>& results,
                  const Options& o) {
  std::vector<obs::Column> columns{{"workload"}};
  for (const Metric& m : kEndToEnd) {
    columns.push_back({std::string{m.name} + " [" + m.unit + "]"});
  }
  columns.push_back({"runs", obs::Align::kRight});
  columns.push_back({"failed", obs::Align::kRight});
  obs::Table end_to_end{"end-to-end metrics: median [q1, q3] of untraced runs",
                        columns};
  for (const WorkloadResult& r : results) {
    std::vector<std::string> cells{r.workload->name};
    for (const Metric& m : kEndToEnd) cells.push_back(metric_cell(r, m, true));
    cells.push_back(obs::fmt_u64(r.reps.size()));
    cells.push_back(obs::fmt_u64(r.failed));
    end_to_end.row(std::move(cells));
  }
  obs::print(end_to_end.to_text());
  if (!o.trace) return;

  // One column per workload: 31 metrics do not fit on a row.
  columns = {{"metric [unit]"}};
  for (const WorkloadResult& r : results) {
    columns.push_back({r.workload->name, obs::Align::kRight});
  }
  obs::Table per_layer{"per-layer metrics of the traced run", columns};
  for (const Metric& m : kPerLayer) {
    std::vector<std::string> cells{std::string{m.name} + " [" + m.unit + "]"};
    for (const WorkloadResult& r : results) {
      cells.push_back(metric_cell(r, m, false));
    }
    per_layer.row(std::move(cells));
  }
  obs::print(per_layer.to_text());
}

void append_summary(obs::JsonWriter& w, const Summary& s, const char* unit) {
  w.begin_object();
  w.kv("unit", unit);
  w.kv("median", s.median);
  w.kv("q1", s.q1);
  w.kv("q3", s.q3);
  w.kv("min", s.min);
  w.kv("max", s.max);
  w.kv("n", static_cast<std::uint64_t>(s.n));
  w.end_object();
}

/// {"schema": "scion-mpr-perf-v1", "manifest": {..., "nproc": N},
///  "workloads": {name: {"attempted", "failed", "fingerprint",
///                       "end_to_end": {metric: summary}, "per_layer": {...}}}}
std::string summary_json(const std::vector<WorkloadResult>& results,
                         const util::Flags& flags, const Options& o) {
  obs::JsonWriter w;
  w.begin_object();
  w.kv("schema", "scion-mpr-perf-v1");
  w.key("manifest").begin_object();
  obs::RunManifest::capture("bench_perf", flags, o.seed).append_fields(w);
  w.kv("nproc", static_cast<std::int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  w.end_object();
  w.key("workloads").begin_object();
  for (const WorkloadResult& r : results) {
    w.key(r.workload->name).begin_object();
    w.kv("attempted", static_cast<std::uint64_t>(r.reps.size()));
    w.kv("failed", static_cast<std::uint64_t>(r.failed));
    w.key("fingerprint").value_raw(r.fingerprint.empty() ? "null" : r.fingerprint);
    const auto section = [&](const char* key, const auto& metrics) {
      w.key(key).begin_object();
      for (const Metric& m : metrics) {
        const auto it = r.metrics.find(m.name);
        if (it == r.metrics.end()) continue;
        w.key(m.name);
        append_summary(w, it->second, m.unit);
      }
      w.end_object();
    };
    section("end_to_end", kEndToEnd);
    section("per_layer", kPerLayer);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  return std::move(w).take();
}

/// The last stdout line: {"correct", "attempted", "failed", "metrics"},
/// with every per-layer metric when tracing and every end-to-end one
/// otherwise. A layer the workload does not exercise reads 0 here; the
/// summary and the tables leave it out. Metric keys get a "<workload>/"
/// prefix when several workloads ran.
std::string result_line(const std::vector<WorkloadResult>& results,
                        const Options& o, bool correct) {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  for (const WorkloadResult& r : results) {
    attempted += r.reps.size();
    failed += r.failed;
  }
  obs::JsonWriter w;
  w.begin_object();
  w.kv("correct", correct);
  w.kv("attempted", attempted);
  w.kv("failed", failed);
  w.key("metrics").begin_object();
  const auto emit = [&](const WorkloadResult& r, const auto& metrics) {
    for (const Metric& m : metrics) {
      const auto it = r.metrics.find(m.name);
      if (it == r.metrics.end() && r.workload->exercises(m)) continue;
      const std::string key = results.size() == 1
                                  ? std::string{m.name}
                                  : std::string{r.workload->name} + "/" + m.name;
      w.key(key).begin_object();
      w.kv("value", it == r.metrics.end() ? 0.0 : it->second.median);
      w.kv("unit", m.unit);
      w.end_object();
    }
  };
  for (const WorkloadResult& r : results) {
    if (o.trace) {
      emit(r, kPerLayer);
    } else {
      emit(r, kEndToEnd);
    }
  }
  w.end_object();
  w.end_object();
  return std::move(w).take();
}

std::optional<Options> parse_options(const util::Flags& flags) {
  Options o;
  std::stringstream names{flags.get("workload", "")};
  for (std::string name; std::getline(names, name, ',');) {
    const Workload* w = find_workload(name);
    if (w == nullptr) {
      std::cerr << "bench_perf: unknown workload '" << name << "' (known:";
      for (const Workload& k : kWorkloads) std::cerr << ' ' << k.name;
      std::cerr << ")\n";
      return std::nullopt;
    }
    o.workloads.push_back(w);
  }
  if (o.workloads.empty()) {
    for (const Workload& w : kWorkloads) o.workloads.push_back(&w);
  }
  o.seed = static_cast<std::uint64_t>(flags.get_int("seed", 1));
  o.smoke = flags.get_bool("smoke", false);
  o.min_reps = static_cast<std::size_t>(
      std::max<std::int64_t>(1, flags.get_int("reps", o.smoke ? 1 : 3)));
  o.seconds = flags.get_double("seconds", 0.0);
  o.trace = flags.get_bool("trace", true);
  o.summary_out = flags.get("summary-out", "BENCH_perf_summary.json");
  o.chrome_trace_prefix = flags.get("chrome-trace-out", "");
  return o;
}

int parent_main(const util::Flags& flags) {
  const std::optional<Options> parsed = parse_options(flags);
  if (!parsed) return 2;
  const Options& o = *parsed;
  const std::optional<obs::JsonValue> references = load_references();
  if (!references) {
    std::cerr << "bench_perf: cannot read " << PERFBENCH_REFERENCES << '\n';
    return 2;
  }

  std::vector<WorkloadResult> results;
  for (const Workload* w : o.workloads) results.push_back({w, {}, {}, {}, 0});
  // Round-robin, so machine-wide drift hits every workload alike. The loop
  // ends once every workload has min_reps and the run measured for
  // `seconds` per workload.
  const std::int64_t start = obs::profiler_wall_now_ns();
  for (std::size_t round = 0;
       round < o.min_reps ||
       seconds_since(start) <
           o.seconds * static_cast<double>(o.workloads.size());
       ++round) {
    for (WorkloadResult& r : results) {
      r.reps.push_back(run_rep(*r.workload, o, false));
      std::cerr << "bench_perf: " << r.workload->name << " rep " << round + 1
                << ": wall_s " << obs::fmt_g(r.reps.back().wall_s, 4) << '\n';
    }
  }
  if (o.trace) {
    for (WorkloadResult& r : results) {
      r.reps.push_back(run_rep(*r.workload, o, true));
    }
  }

  bool correct = true;
  for (WorkloadResult& r : results) {
    finish_workload(r, o, references);
    correct = correct && r.failed == 0 && r.metrics.count("wall_s") == 1;
  }
  print_tables(results, o);
  std::ofstream out{o.summary_out};
  out << summary_json(results, flags, o) << '\n';
  if (!out) {
    std::cerr << "bench_perf: cannot write " << o.summary_out << '\n';
    correct = false;
  }
  obs::print_line(result_line(results, o, correct));
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace scion::perf

int main(int argc, char** argv) {
  const scion::util::Flags flags{argc, argv};
  return flags.get_bool("child", false) ? scion::perf::child_main(flags)
                                        : scion::perf::parent_main(flags);
}
