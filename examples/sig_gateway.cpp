// SIG-based end-domain deployment (Section 3.4, cases b and c): legacy IP
// hosts opt into SCION through a SCION-IP Gateway that consults the ASMap
// table, encapsulates IP packets in SCION, and fails over on revocations —
// no changes to hosts or applications.
//
//   ./examples/sig_gateway
//
// Two deployments are shown on the same network: a customer-premise SIG in
// the branch's own AS (case b) and a carrier-grade SIG in the provider AS
// serving a SCION-unaware customer (case c).
#include <cstdio>

#include "scion/sig.hpp"
#include "topology/generator.hpp"
#include "util/flags.hpp"

using namespace scion;

namespace {

void print_stats(const char* name, const svc::SigStats& stats) {
  std::printf("%s: %llu packets in, %llu delivered, %llu no-mapping, "
              "%llu no-path, %.2fx wire expansion, %llu path resolutions, "
              "%llu failovers\n",
              name, static_cast<unsigned long long>(stats.packets_in),
              static_cast<unsigned long long>(stats.packets_delivered),
              static_cast<unsigned long long>(stats.packets_dropped_no_mapping),
              static_cast<unsigned long long>(stats.packets_dropped_no_path),
              stats.bytes_in > util::Bytes::zero()
                  ? static_cast<double>(stats.bytes_on_wire.value()) /
                        static_cast<double>(stats.bytes_in.value())
                  : 0.0,
              static_cast<unsigned long long>(stats.path_resolutions),
              static_cast<unsigned long long>(stats.failovers));
}

}  // namespace

int main(int argc, char** argv) {
  // The example takes no flags: any argument is a mistake (exit 2).
  const int usage =
      util::reject_unused(util::Flags{argc, argv}, "sig_gateway");
  if (usage != 0) return usage;

  topo::MultiIsdConfig topology_config;
  topology_config.n_isds = 2;
  topology_config.cores_per_isd = 2;
  topology_config.ases_per_isd = 10;
  topology_config.seed = 404;
  const topo::Topology world = topo::generate_multi_isd(topology_config);

  svc::ControlPlaneSimConfig config;
  config.sim_duration = util::Duration::minutes(30);
  config.lookups_per_second = 0.0;
  config.link_failures_per_hour = 0.0;
  svc::ControlPlaneSim control_plane{world, config};
  control_plane.run();

  // Pick roles: branch (ISD 1 leaf), data center (ISD 2 leaf), and the
  // branch's provider (for the carrier-grade case).
  topo::AsIndex branch = topo::kInvalidAsIndex, dc = topo::kInvalidAsIndex;
  for (const topo::AsIndex leaf : control_plane.leaves()) {
    if (world.as_id(leaf).isd() == topo::IsdId{1} && branch == topo::kInvalidAsIndex) {
      branch = leaf;
    }
    if (world.as_id(leaf).isd() == topo::IsdId{2}) dc = leaf;
  }
  const topo::AsIndex provider =
      world.neighbor(world.provider_links(branch).front(), branch);
  std::printf("branch %s (provider %s), data center %s\n",
              world.as_id(branch).to_string().c_str(),
              world.as_id(provider).to_string().c_str(),
              world.as_id(dc).to_string().c_str());

  // Case b: CPE-deployed SIG in the branch's own AS.
  svc::Sig cpe_sig{control_plane, branch};
  cpe_sig.asmap().add(*svc::IpPrefix::parse("10.2.0.0/16"), world.as_id(dc));
  cpe_sig.asmap().add(*svc::IpPrefix::parse("10.1.0.0/16"),
                      world.as_id(branch));

  // Case c: carrier-grade SIG at the provider, customers stay unaware.
  svc::Sig cgsig{control_plane, provider};
  cgsig.asmap().add(*svc::IpPrefix::parse("10.2.0.0/16"), world.as_id(dc));

  // Legacy traffic: a mix of intra-site, data-center, and unmapped flows.
  const std::uint32_t dc_ip = svc::IpPrefix::parse("10.2.7.1")->address;
  const std::uint32_t local_ip = svc::IpPrefix::parse("10.1.0.4")->address;
  const std::uint32_t internet_ip = svc::IpPrefix::parse("93.184.216.34")->address;
  for (int i = 0; i < 500; ++i) {
    cpe_sig.send_ip_packet(dc_ip, util::Bytes{1200});
    cgsig.send_ip_packet(dc_ip, util::Bytes{1200});
    if (i % 5 == 0) cpe_sig.send_ip_packet(local_ip, util::Bytes{300});
    if (i % 50 == 0) cpe_sig.send_ip_packet(internet_ip, util::Bytes{80});
  }

  // A mid-run link failure: the SIGs fail over on the SCMP revocation
  // without any host noticing (beyond the masked blip).
  for (topo::LinkIndex l : world.provider_links(dc)) {
    if (control_plane.link_up(l)) {
      std::printf("failing link %s-%s ...\n",
                  world.as_id(world.link(l).a).to_string().c_str(),
                  world.as_id(world.link(l).b).to_string().c_str());
      control_plane.fail_link(l, util::Duration::minutes(5));
      cpe_sig.handle_revocation(l);
      cgsig.handle_revocation(l);
      break;
    }
  }
  for (int i = 0; i < 200; ++i) {
    cpe_sig.send_ip_packet(dc_ip, util::Bytes{1200});
    cgsig.send_ip_packet(dc_ip, util::Bytes{1200});
  }

  print_stats("CPE SIG (case b)  ", cpe_sig.stats());
  print_stats("carrier SIG (case c)", cgsig.stats());

  const bool ok = cpe_sig.stats().packets_delivered > 500 &&
                  cgsig.stats().packets_delivered > 500;
  std::printf("%s\n", ok ? "legacy hosts kept connectivity throughout"
                         : "UNEXPECTED: traffic was lost");
  return ok ? 0 : 1;
}
