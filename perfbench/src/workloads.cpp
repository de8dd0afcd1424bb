#include "workloads.h"

#include <cmath>
#include <stdexcept>

#include "scenario/scenarios.h"

namespace perfbench {
namespace {

/// World size of the mesh workloads. ROADMAP's reference world is
/// huge_mesh at 5,000 nodes (~10 s per run on a 4-core host); 1,000 nodes
/// keeps the same layer mix at ~2 s, so one benchmark run holds many
/// repeats and reports their median.
constexpr std::size_t kMeshNodes = 1000;

// Every active publisher publishes every epoch (probability 1), so the
// message count, and with it the work of a run, is the same for every
// seed. At huge_mesh's 64 publishers x 0.5 it varies by ~9% between seeds,
// which would read as run-to-run noise.

scenario::ScenarioSpec mesh_relay() {
  scenario::ScenarioSpec s = scenario::find_scenario("huge_mesh");
  s.nodes = kMeshNodes;
  s.publishers = 32;
  s.honest_publish_prob = 1.0;
  s.world_threads = 1;
  return s;
}

scenario::ScenarioSpec pow_mesh() {
  scenario::ScenarioSpec s = mesh_relay();
  s.name = "pow_mesh";
  s.protocol = scenario::Protocol::kPow;
  s.pow_difficulty_bits = 8;
  return s;
}

void require(std::vector<std::string>& out, bool ok, const std::string& what) {
  if (!ok) out.push_back(what);
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"mesh_relay", "pow_mesh"};
  return names;
}

scenario::ScenarioSpec workload_spec(const std::string& name) {
  scenario::ScenarioSpec s;
  if (name == "mesh_relay") {
    s = mesh_relay();
  } else if (name == "pow_mesh") {
    s = pow_mesh();
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  s.observability = false;
  s.trace = false;
  s.validate();
  return s;
}

std::vector<std::string> check_report(const scenario::ScenarioSpec& spec,
                                      const scenario::MetricSet& m) {
  std::vector<std::string> bad;
  require(bad, m.at("honest_published") > 0, "no honest message was published");
  require(bad, m.at("delivery_ratio") == 1.0, "delivery_ratio != 1");
  require(bad, m.at("frames_lost") == 0, "frames_lost != 0");
  if (spec.protocol == scenario::Protocol::kPow) {
    require(bad, m.at("spam_delivery_ratio") == 1.0, "PoW spam_delivery_ratio != 1");
    require(bad, m.at("adversaries_slashed") == 0, "PoW world slashed a member");
    return bad;
  }
  require(bad, m.at("adversaries_slashed") == m.at("adversaries"),
          "adversaries_slashed != adversaries");
  require(bad, m.at("over_rate_slashed_ratio") == 1.0, "over_rate_slashed_ratio != 1");
  require(bad, m.at("group_slashes") == static_cast<double>(spec.adversaries.spammers),
          "group_slashes != spammers");
  return bad;
}

std::vector<std::pair<std::string, double>> deterministic_fingerprint(
    const scenario::MetricSet& m, const scenario::ResourceUsage& r) {
  std::vector<std::pair<std::string, double>> out;
  for (const scenario::Metric& metric : m.entries()) {
    out.emplace_back(metric.name, metric.value);
  }
  out.emplace_back("events_scheduled", r.events_scheduled);
  out.emplace_back("events_executed", r.events_executed);
  out.emplace_back("event_queue_peak", r.event_queue_peak);
  out.emplace_back("timer_fires", r.timer_fires);
  out.emplace_back("group_sync_bytes", r.group_sync_bytes);
  out.emplace_back("group_root_updates", r.group_root_updates);
  out.emplace_back("mem_router_bytes", r.mem_router_bytes);
  out.emplace_back("mem_mcache_bytes", r.mem_mcache_bytes);
  out.emplace_back("mem_nullifier_bytes", r.mem_nullifier_bytes);
  out.emplace_back("mem_merkle_bytes", r.mem_merkle_bytes);
  out.emplace_back("mem_event_pool_bytes", r.mem_event_pool_bytes);
  out.emplace_back("mem_network_bytes", r.mem_network_bytes);
  return out;
}

DeliveryAccount delivery_account(const scenario::MetricSet& m) {
  DeliveryAccount a;
  a.attempted = m.at("honest_published") * (m.at("nodes") - 1);
  a.failed = std::round(a.attempted * (1.0 - m.at("delivery_ratio")));
  return a;
}

}  // namespace perfbench
