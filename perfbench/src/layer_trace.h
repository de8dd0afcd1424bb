#pragma once
// Outside-in layer tracing for the benchmark's traced run. Everything here
// wraps public calls of the library; nothing inside src/ is instrumented.
//
//   * SpanTable   — named wall-clock spans of one traced run, in the order
//                   they were opened, plus the run's total wall time.
//   * TracingSink — a sim::DeliverySink installed in front of the world's
//                   sim::Network. Each frame delivery is one span, split at
//                   the network's frame tap: entry -> tap is the network's
//                   own work (liveness, loss, accounting), tap -> return is
//                   the receiving gossipsub router plus its validator and
//                   the application handler. Counters are per scheduler
//                   lane, so shard worker threads never share a write.
//                   Every kTimeEvery-th delivery of a lane is timed and the
//                   sums are scaled by deliveries / timed: three clock
//                   reads on each of a traffic phase's ~1M deliveries cost
//                   ~12% of its wall time on a 4-core VM; timing one in
//                   eight is within run-to-run noise.

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "gossipsub/message.h"
#include "sim/network.h"
#include "sim/scheduler.h"
#include "util/shared_bytes.h"

namespace perfbench {

namespace sim = wakurln::sim;
namespace util = wakurln::util;

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Process CPU time (all threads, user + system) in seconds.
double process_cpu_seconds();

/// Peak resident set size of this process in MiB.
double peak_rss_mb();

class SpanTable {
 public:
  /// Adds `seconds` to span `name` (created on first use, keeps order).
  void add(const std::string& name, double seconds);
  double get(const std::string& name) const;
  const std::vector<std::pair<std::string, double>>& spans() const { return spans_; }
  double sum() const;

  /// Total wall time the spans partition; unattributed() is the rest.
  void set_wall(double seconds) { wall_ = seconds; }
  double wall() const { return wall_; }
  double unattributed() const { return wall_ - sum(); }

 private:
  std::vector<std::pair<std::string, double>> spans_;
  double wall_ = 0;
};

/// Delivery-span totals over all lanes, in thread-seconds.
struct DeliveryTotals {
  std::uint64_t deliveries = 0;      ///< frames handed to the network sink
  std::uint64_t message_frames = 0;  ///< gossipsub messages carried by tapped frames
  double network_self_s = 0;         ///< entry -> tap (or -> return when not tapped)
  double handle_s = 0;               ///< tap -> return
};

class TracingSink final : public sim::DeliverySink {
 public:
  /// Installs itself as `sched`'s delivery sink in place of `net`, and the
  /// split point as `net`'s frame tap. A lane's first gossipsub message
  /// and every kCaptureEvery-th after it are kept for replay timing, up to
  /// `capture` per lane.
  TracingSink(sim::Scheduler& sched, sim::Network& net, std::size_t capture);
  /// Restores `net` as the sink and clears the tap.
  ~TracingSink();
  TracingSink(const TracingSink&) = delete;
  TracingSink& operator=(const TracingSink&) = delete;

  void on_delivery(const sim::DeliveryEvent& ev) override;

  DeliveryTotals totals() const;
  /// Captured message payloads, one per distinct message id.
  std::vector<util::SharedBytes> captured() const;

 private:
  static constexpr std::uint64_t kTimeEvery = 8;
  /// Sampling stride of the capture: spreads the kept messages over the
  /// run at the cost of one counter test per message.
  static constexpr std::uint64_t kCaptureEvery = 1024;

  struct alignas(64) Lane {
    std::uint64_t deliveries = 0;
    std::uint64_t timed = 0;
    std::uint64_t message_frames = 0;
    Clock::duration network_self{};
    Clock::duration handle{};
    Clock::time_point tap_at{};
    bool timing = false;  ///< the delivery in progress is timed
    bool tapped = false;
    std::vector<wakurln::gossipsub::GsMessagePtr> captured;
  };

  void on_tap(const sim::Frame& frame);

  sim::Scheduler& sched_;
  sim::Network& net_;
  /// The network as its public sink interface (Network::on_delivery is
  /// private; the DeliverySink override is the public entry point).
  sim::DeliverySink& inner_;
  std::size_t capture_;
  std::vector<Lane> lanes_;
};

}  // namespace perfbench
