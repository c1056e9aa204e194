// Micro-benchmarks of the hot paths: PCB construction/verification, the two
// selection algorithms, max-flow, and the crypto primitives. These are the
// per-operation costs behind the end-to-end simulation times.
#include <benchmark/benchmark.h>

#include "analysis/maxflow.hpp"
#include "bench/bench_common.hpp"
#include "core/algorithms.hpp"
#include "core/pcb.hpp"
#include "crypto/sha256.hpp"
#include "topology/generator.hpp"
#include "util/rng.hpp"

namespace scion {
namespace {

using ctrl::IsdAsId;
using util::Duration;
using util::TimePoint;

constexpr std::uint64_t kDomain = crypto::kDefaultKeyDomainSeed;

// --- crypto ---------------------------------------------------------------------

void BM_Sha256(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_SignatureSign(benchmark::State& state) {
  const crypto::SigningKey key = crypto::SigningKey::derive(1, kDomain);
  const std::vector<std::uint8_t> data(256, 0x5A);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sign(key, data));
  }
}
BENCHMARK(BM_SignatureSign);

void BM_HopMac(benchmark::State& state) {
  const crypto::ForwardingKey key = crypto::ForwardingKey::derive(1, kDomain);
  crypto::HopMac prev{};
  for (auto _ : state) {
    prev = crypto::hop_mac(key, 1, 2, 1000, prev);
    benchmark::DoNotOptimize(prev);
  }
}
BENCHMARK(BM_HopMac);

// --- PCB ------------------------------------------------------------------------

ctrl::Pcb make_chain(std::size_t hops, crypto::KeyStore& keys, bool sign) {
  const IsdAsId origin = IsdAsId::make(1, 1);
  ctrl::Pcb pcb =
      sign ? ctrl::Pcb::originate(
                 origin, topo::IfId{1}, TimePoint::origin(), Duration::hours(6),
                 keys.key_for(origin.value()),
                 crypto::ForwardingKey::derive(origin.value(), kDomain))
           : ctrl::Pcb::originate_unsigned(origin, topo::IfId{1},
                                           TimePoint::origin(),
                                           Duration::hours(6));
  for (std::size_t i = 1; i < hops; ++i) {
    const IsdAsId as = IsdAsId::make(1, 1 + i);
    if (sign) {
      pcb = pcb.extend_signed(
          as, topo::IfId{1}, topo::IfId{2}, {}, keys.key_for(as.value()),
          crypto::ForwardingKey::derive(as.value(), kDomain));
    } else {
      pcb = pcb.extend_unsigned(as, topo::IfId{1}, topo::IfId{2}, {});
    }
  }
  return pcb;
}

void BM_PcbExtendSigned(benchmark::State& state) {
  crypto::KeyStore keys{kDomain};
  const ctrl::Pcb base =
      make_chain(static_cast<std::size_t>(state.range(0)), keys, true);
  const IsdAsId self = IsdAsId::make(2, 999);
  const crypto::SigningKey sk = keys.key_for(self.value());
  const auto fk = crypto::ForwardingKey::derive(self.value(), kDomain);
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.extend_signed(self, topo::IfId{3}, topo::IfId{4}, {}, sk, fk));
  }
}
BENCHMARK(BM_PcbExtendSigned)->Arg(2)->Arg(5)->Arg(10);

void BM_PcbExtendUnsigned(benchmark::State& state) {
  crypto::KeyStore keys{kDomain};
  const ctrl::Pcb base =
      make_chain(static_cast<std::size_t>(state.range(0)), keys, false);
  const IsdAsId self = IsdAsId::make(2, 999);
  for (auto _ : state) {
    benchmark::DoNotOptimize(base.extend_unsigned(self, topo::IfId{3}, topo::IfId{4}, {}));
  }
}
BENCHMARK(BM_PcbExtendUnsigned)->Arg(2)->Arg(5)->Arg(10);

void BM_PcbVerifyChain(benchmark::State& state) {
  crypto::KeyStore keys{kDomain};
  const ctrl::Pcb pcb =
      make_chain(static_cast<std::size_t>(state.range(0)), keys, true);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pcb.verify(keys));
  }
}
BENCHMARK(BM_PcbVerifyChain)->Arg(2)->Arg(5)->Arg(10);

void BM_PcbPathKey(benchmark::State& state) {
  crypto::KeyStore keys{kDomain};
  const ctrl::Pcb pcb = make_chain(5, keys, false);
  for (auto _ : state) {
    benchmark::DoNotOptimize(pcb.path_key());
  }
}
BENCHMARK(BM_PcbPathKey);

// --- selection algorithms -----------------------------------------------------------

std::vector<ctrl::StoredPcb> make_bucket(std::size_t n, util::Rng& rng) {
  std::vector<ctrl::StoredPcb> bucket;
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t hops = 2 + rng.index(4);
    ctrl::Pcb pcb = ctrl::Pcb::originate_unsigned(
        IsdAsId::make(1, 1), static_cast<topo::IfId>(1 + rng.index(200)),
        TimePoint::origin(), Duration::hours(6));
    std::vector<topo::LinkIndex> links{
        static_cast<topo::LinkIndex>(rng.index(300))};
    for (std::size_t h = 1; h < hops; ++h) {
      pcb = pcb.extend_unsigned(IsdAsId::make(1, 10 + h),
                                static_cast<topo::IfId>(1 + rng.index(200)),
                                static_cast<topo::IfId>(1 + rng.index(200)),
                                {});
      links.push_back(static_cast<topo::LinkIndex>(rng.index(300)));
    }
    ctrl::StoredPcb stored;
    stored.pcb = std::make_shared<const ctrl::Pcb>(std::move(pcb));
    stored.links = std::move(links);
    stored.received_at = TimePoint::origin();
    stored.path_key = stored.pcb->path_key();
    bucket.push_back(std::move(stored));
  }
  return bucket;
}

void BM_BaselineSelect(benchmark::State& state) {
  util::Rng rng{7};
  const auto bucket = make_bucket(static_cast<std::size_t>(state.range(0)), rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctrl::baseline_select(
        bucket, IsdAsId::make(9, 9), 5, 5, TimePoint::origin()));
  }
}
BENCHMARK(BM_BaselineSelect)->Arg(15)->Arg(60);

void BM_DiversitySelect(benchmark::State& state) {
  util::Rng rng{7};
  const auto bucket = make_bucket(static_cast<std::size_t>(state.range(0)), rng);
  const std::vector<topo::LinkIndex> egress{500, 501};
  for (auto _ : state) {
    state.PauseTiming();
    ctrl::DiversityState diversity{ctrl::DiversityParams{}};
    state.ResumeTiming();
    benchmark::DoNotOptimize(diversity.select_and_commit(
        bucket, IsdAsId::make(1, 1), IsdAsId::make(9, 9), egress, 5,
        TimePoint::origin()));
  }
}
BENCHMARK(BM_DiversitySelect)->Arg(15)->Arg(60);

// --- max-flow --------------------------------------------------------------------

void BM_MaxFlowCoreTopology(benchmark::State& state) {
  topo::HierarchyConfig config;
  config.n_ases = static_cast<std::size_t>(state.range(0));
  config.seed = 3;
  const topo::Topology internet = topo::generate_hierarchy(config);
  const topo::Topology core = topo::with_all_core_links(
      topo::make_core_network(internet, config.n_ases / 10, 4));
  analysis::FlowGraph graph = analysis::FlowGraph::from_topology(core);
  util::Rng rng{5};
  for (auto _ : state) {
    const auto s = static_cast<std::uint32_t>(rng.index(core.as_count()));
    auto t = static_cast<std::uint32_t>(rng.index(core.as_count()));
    if (t == s) t = (t + 1) % static_cast<std::uint32_t>(core.as_count());
    benchmark::DoNotOptimize(graph.max_flow(s, t));
  }
}
BENCHMARK(BM_MaxFlowCoreTopology)->Arg(400)->Arg(800);

}  // namespace
}  // namespace scion

int main(int argc, char** argv) {
  // No per-figure series; the report still carries manifest + metrics.
  return scion::exp::bench_main(
      "micro", argc, argv,
      [&](const scion::util::Flags&, const scion::exp::Scale&,
          scion::exp::BenchReport&) {
        benchmark::Initialize(&argc, argv);
        benchmark::RunSpecifiedBenchmarks();
        benchmark::Shutdown();
      });
}
