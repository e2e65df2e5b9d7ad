#include "net/network.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace tcio::net {

namespace {
constexpr double kMinFabricRate = 1.0;  // avoid zero-rate timelines
}

Network::Network(const NetworkConfig& cfg)
    : cfg_(cfg),
      num_nodes_((cfg.num_ranks + cfg.ranks_per_node - 1) /
                 cfg.ranks_per_node),
      fabric_(std::max(kMinFabricRate,
                       cfg.nic_bandwidth * cfg.fabric_bisection_fraction *
                           static_cast<double>(
                               std::max(1, (cfg.num_ranks +
                                            cfg.ranks_per_node - 1) /
                                               cfg.ranks_per_node)))) {
  TCIO_CHECK(cfg_.num_ranks >= 1);
  TCIO_CHECK(cfg_.ranks_per_node >= 1);
  nic_out_.reserve(static_cast<std::size_t>(num_nodes_));
  nic_in_.reserve(static_cast<std::size_t>(num_nodes_));
  membus_.reserve(static_cast<std::size_t>(num_nodes_));
  const SimTime per_msg =
      cfg_.per_message_overhead + cfg_.per_message_overhead_unscaled;
  for (int i = 0; i < num_nodes_; ++i) {
    nic_out_.emplace_back(cfg_.nic_bandwidth, per_msg);
    nic_in_.emplace_back(cfg_.nic_bandwidth, per_msg);
    membus_.emplace_back(cfg_.membus_bandwidth, per_msg);
  }
  fabric_.setCongestion(cfg_.fabric_congestion_gamma,
                        cfg_.fabric_congestion_tau);
  jitter_rng_ = Rng(cfg_.jitter_seed);
  if (cfg_.faults.enabled) {
    fault_plan_ =
        std::make_unique<FaultPlan>(cfg_.faults, FaultPlan::kNetSalt);
  }
  if (cfg_.tx_queue_depth > 0) {
    in_flight_.resize(static_cast<std::size_t>(cfg_.num_ranks));
  }
}

SimTime Network::txPenalty(SimTime t, Rank src) {
  if (cfg_.tx_queue_depth <= 0) return 0;
  auto& q = in_flight_[static_cast<std::size_t>(src)];
  while (!q.empty() && q.front() <= t) q.pop_front();
  const auto overflow =
      static_cast<std::int64_t>(q.size()) - cfg_.tx_queue_depth;
  if (overflow <= 0) return 0;
  return cfg_.tx_overflow_penalty * static_cast<double>(overflow) /
         static_cast<double>(cfg_.tx_queue_depth);
}

void Network::txRecord(Rank src, SimTime delivered) {
  if (cfg_.tx_queue_depth <= 0) return;
  auto& q = in_flight_[static_cast<std::size_t>(src)];
  // Keep the deque sorted (deliveries of later posts can be earlier only by
  // jitter; insert near the back).
  auto it = q.end();
  while (it != q.begin() && *(it - 1) > delivered) --it;
  q.insert(it, delivered);
}

SimTime Network::drawJitter() {
  if (cfg_.jitter_mean <= 0) return 0;
  // Exponential deviate plus a rare heavy-tail hiccup.
  double j = -cfg_.jitter_mean * std::log(1.0 - jitter_rng_.uniform());
  if (cfg_.heavy_tail_prob > 0 &&
      jitter_rng_.uniform() < cfg_.heavy_tail_prob) {
    j += -cfg_.heavy_tail_mean * std::log(1.0 - jitter_rng_.uniform());
  }
  return j;
}

TransferTimes Network::transfer(SimTime t, Rank src, Rank dst, Bytes n,
                                bool rdma) {
  TCIO_CHECK(src >= 0 && src < cfg_.num_ranks);
  TCIO_CHECK(dst >= 0 && dst < cfg_.num_ranks);
  TCIO_CHECK(n >= 0);
  ++messages_;
  bytes_ += n;

  const int sn = nodeOf(src);
  const int dn = nodeOf(dst);

  if (sn == dn) {
    // Intra-node: shared-memory transport over the node's memory bus.
    ++intranode_messages_;
    intranode_bytes_ += n;
    auto& bus = membus_[static_cast<std::size_t>(sn)];
    SimTime done = bus.serve(t, n) + cfg_.intranode_latency + drawJitter();
    if (rdma && n > 0 && fault_plan_ != nullptr) {
      // Dropped payload: the DMA engine retransmits after a fixed delay.
      done += fault_plan_->nextRmaPayload();
    }
    return {done, done};
  }

  // Control messages (lock requests/grants, barrier tokens) are CPU-side
  // sends of a few bytes: charge latency and noise but no DMA queueing.
  if (n == 0) {
    ++internode_control_messages_;
    const SimTime delivered = t + cfg_.internode_latency + drawJitter();
    return {t, delivered};
  }
  ++internode_payload_messages_;
  internode_bytes_ += n;

  // Outstanding-transmit overflow serializes on the sender's NIC: a burst
  // to P peers pays it back to back, and the penalty grows with the queue.
  SimTime start = t;
  const SimTime tx = rdma ? 0.0 : txPenalty(t, src);
  if (tx > 0) {
    start = nic_out_[static_cast<std::size_t>(sn)].serveDuration(start, tx);
  }
  // First contact between this node pair pays connection establishment.
  const std::uint64_t key =
      (static_cast<std::uint64_t>(std::min(sn, dn)) << 32) |
      static_cast<std::uint64_t>(std::max(sn, dn));
  if (connections_.insert(key).second) {
    start += cfg_.connection_setup;
  }

  // Pipeline: egress NIC -> fabric core -> ingress NIC, plus wire latency.
  const SimTime egress = nic_out_[static_cast<std::size_t>(sn)].serve(start, n);
  const SimTime core = fabric_.serve(egress, n);
  const SimTime ingress = nic_in_[static_cast<std::size_t>(dn)].serve(core, n);
  SimTime delivered = ingress + cfg_.internode_latency + drawJitter();
  if (rdma && fault_plan_ != nullptr) {
    // Dropped payload: the fabric retransmits after a fixed delay. The
    // transfer still completes — one-sided code degrades, never breaks.
    delivered += fault_plan_->nextRmaPayload();
  }
  if (!rdma) txRecord(src, delivered);

  // The sender is free once its NIC accepted the message.
  return {egress, delivered};
}

}  // namespace tcio::net
