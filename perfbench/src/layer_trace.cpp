#include "layer_trace.h"

#include <sys/resource.h>

#include <unordered_set>

namespace perfbench {

double process_cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void SpanTable::add(const std::string& name, double seconds) {
  for (auto& [n, s] : spans_) {
    if (n == name) {
      s += seconds;
      return;
    }
  }
  spans_.emplace_back(name, seconds);
}

double SpanTable::get(const std::string& name) const {
  for (const auto& [n, s] : spans_) {
    if (n == name) return s;
  }
  return 0;
}

double SpanTable::sum() const {
  double total = 0;
  for (const auto& [n, s] : spans_) total += s;
  return total;
}

TracingSink::TracingSink(sim::Scheduler& sched, sim::Network& net, std::size_t capture)
    : sched_(sched),
      net_(net),
      inner_(net),
      capture_(capture),
      lanes_(sched.lane_count()) {
  sched_.clear_delivery_sink(&net_);
  sched_.set_delivery_sink(this);
  net_.set_frame_tap([this](sim::NodeId, sim::NodeId, const sim::Frame& frame,
                            std::size_t) { on_tap(frame); });
}

TracingSink::~TracingSink() {
  net_.set_frame_tap(nullptr);
  sched_.clear_delivery_sink(this);
  sched_.set_delivery_sink(&net_);
}

void TracingSink::on_delivery(const sim::DeliveryEvent& ev) {
  Lane& lane = lanes_[sched_.current_lane()];
  lane.timing = ++lane.deliveries % kTimeEvery == 0;
  if (!lane.timing) {
    inner_.on_delivery(ev);
    return;
  }
  lane.tapped = false;
  const Clock::time_point t0 = Clock::now();
  inner_.on_delivery(ev);
  const Clock::time_point t1 = Clock::now();
  ++lane.timed;
  if (lane.tapped) {
    lane.network_self += lane.tap_at - t0;
    lane.handle += t1 - lane.tap_at;
  } else {
    lane.network_self += t1 - t0;
  }
}

void TracingSink::on_tap(const sim::Frame& frame) {
  Lane& lane = lanes_[sched_.current_lane()];
  if (const auto* rpc = frame.get_if<wakurln::gossipsub::Rpc>()) {
    for (const auto& msg : rpc->publish) {
      if (lane.message_frames++ % kCaptureEvery == 0 && msg &&
          lane.captured.size() < capture_) {
        lane.captured.push_back(msg);
      }
    }
  }
  if (lane.timing) {
    lane.tapped = true;
    lane.tap_at = Clock::now();
  }
}

DeliveryTotals TracingSink::totals() const {
  DeliveryTotals t;
  for (const Lane& lane : lanes_) {
    const double scale = lane.timed == 0 ? 0
                                         : static_cast<double>(lane.deliveries) /
                                               static_cast<double>(lane.timed);
    t.deliveries += lane.deliveries;
    t.message_frames += lane.message_frames;
    t.network_self_s += std::chrono::duration<double>(lane.network_self).count() * scale;
    t.handle_s += std::chrono::duration<double>(lane.handle).count() * scale;
  }
  return t;
}

std::vector<util::SharedBytes> TracingSink::captured() const {
  // A message can be sampled more than once (on several lanes); keep one.
  std::vector<util::SharedBytes> out;
  std::unordered_set<wakurln::gossipsub::MessageId, wakurln::gossipsub::MessageIdHash> ids;
  for (const Lane& lane : lanes_) {
    for (const auto& msg : lane.captured) {
      if (ids.insert(msg->id).second) out.push_back(msg->data);
    }
  }
  return out;
}

}  // namespace perfbench
