// Wire server: expose a SolverService on the network edge -- the binary
// the CI smoke lane boots and drives with tools/wire_smoke.py.
//
//   $ ./wire_server [--port 7433] [--workers 0]
//                   [--quotas "2:0.001:0.002,5:1.5:3"]
//
// --quotas is a comma-separated list of tenant:rate:burst triples
// (units/second and units; see docs/PROTOCOL.md for quota tuning); any
// tenant not listed is unlimited.  Port 0 picks an ephemeral port; the
// bound port is printed as "wire 127.0.0.1:7433" so a harness can scrape
// it.  Runs until SIGINT/SIGTERM.
#include <csignal>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "net/wire_server.hpp"
#include "service/solver_service.hpp"
#include "util/cli.hpp"

namespace {
volatile std::sig_atomic_t g_stop = 0;
void handle_signal(int) { g_stop = 1; }

/// "2:0.001:0.002,5:1.5:3" -> per-tenant {rate, burst} quota entries.
std::map<std::uint64_t, chainckpt::net::TenantQuota> parse_quotas(
    const std::string& spec) {
  std::map<std::uint64_t, chainckpt::net::TenantQuota> quotas;
  std::istringstream stream(spec);
  std::string entry;
  while (std::getline(stream, entry, ',')) {
    if (entry.empty()) continue;
    std::istringstream fields(entry);
    std::string tenant, rate, burst;
    if (!std::getline(fields, tenant, ':') ||
        !std::getline(fields, rate, ':') ||
        !std::getline(fields, burst, ':')) {
      throw std::invalid_argument("bad --quotas entry: " + entry);
    }
    chainckpt::net::TenantQuota quota;
    quota.rate_units_per_sec = std::stod(rate);
    quota.burst_units = std::stod(burst);
    quotas[std::stoull(tenant)] = quota;
  }
  return quotas;
}
}  // namespace

int main(int argc, char** argv) {
  using namespace chainckpt;
  util::CliParser cli;
  cli.add_option("port", "7433", "wire protocol TCP port (0 = ephemeral)");
  cli.add_option("workers", "0", "solver workers (0 = hardware threads)");
  cli.add_option("quotas", "", "tenant:rate:burst[,tenant:rate:burst...]");
  cli.parse(argc, argv);
  if (cli.help_requested()) {
    std::cout << cli.help_text("wire_server: SolverService network edge");
    return 0;
  }

  service::ServiceOptions service_options;
  service_options.workers =
      static_cast<std::size_t>(cli.get_int("workers"));
  service::SolverService svc(service_options);

  net::WireServerOptions wire_options;
  wire_options.port = static_cast<std::uint16_t>(cli.get_int("port"));
  wire_options.tenant_quotas = parse_quotas(cli.get("quotas"));
  net::WireServer server(svc, wire_options);
  server.start();
  std::cout << "wire 127.0.0.1:" << server.port() << std::endl;

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  while (g_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  server.stop();
  const net::WireServerStats stats = server.stats();
  std::cout << "served " << stats.frames_received << " frames, "
            << stats.submits_accepted << " submits accepted, "
            << stats.throttled << " throttled, " << stats.backpressured
            << " backpressured" << std::endl;
  return 0;
}
