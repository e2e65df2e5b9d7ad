// Cluster network cost model.
//
// Models a Lonestar-like machine: multicore nodes (12 ranks/node by default)
// on an InfiniBand fat-tree. Three resource classes govern a transfer:
//   * the sender node's NIC egress queue,
//   * the shared fabric core (aggregate capacity with backlog congestion —
//     synchronized all-to-all bursts degrade, staggered traffic does not),
//   * the receiver node's NIC ingress queue.
// plus a fixed one-way latency and a per-message CPU overhead. Intra-node
// transfers bypass the NIC/fabric and use the node's memory bus instead.
//
// The first message between a pair of nodes additionally pays a connection
// setup cost (InfiniBand queue-pair establishment); OCIO-style all-to-all
// patterns touch O(P) peers per rank and feel this at scale.
//
// All methods must be called from inside Proc::atomic().
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "common/types.h"
#include "sim/timeline.h"

namespace tcio::net {

/// Tunable model parameters. Defaults approximate the paper's testbed
/// (40 Gb/s IB fat-tree, 2×6-core nodes); see bench/calibration notes in
/// EXPERIMENTS.md.
struct NetworkConfig {
  int num_ranks = 1;
  int ranks_per_node = 12;

  /// Node NIC bandwidth, bytes/s (40 Gb/s ≈ 5 GB/s).
  double nic_bandwidth = 5.0e9;
  /// Per-message CPU/NIC processing overhead charged at each endpoint.
  SimTime per_message_overhead = 0.7e-6;
  /// Additional per-message overhead that calibrated benches keep OUTSIDE
  /// any geometric problem-size scaling. Benches that shrink payloads by a
  /// factor kScale often shrink per_message_overhead with them to keep the
  /// bandwidth and message-count cost classes in proportion — but a real
  /// NIC's per-message cost does not shrink with the payload, so a scaled
  /// overhead understates the savings of message-reducing optimizations
  /// (node aggregation, delegate batching). The effective per-message cost
  /// is per_message_overhead + per_message_overhead_unscaled; this term is
  /// simply never divided by the bench's scale factor. 0 (the default)
  /// preserves the historical single-term model.
  SimTime per_message_overhead_unscaled = 0.0;
  /// One-way wire latency between nodes.
  SimTime internode_latency = 2.0e-6;
  /// One-way latency within a node (shared-memory transport).
  SimTime intranode_latency = 0.4e-6;
  /// Node memory-bus bandwidth for intra-node transfers, bytes/s.
  double membus_bandwidth = 20.0e9;
  /// Fabric core capacity as a fraction of aggregate NIC bandwidth
  /// (bisection-limited fat-tree).
  double fabric_bisection_fraction = 0.7;
  /// Congestion severity of the fabric core (0 disables).
  double fabric_congestion_gamma = 0.08;
  /// Backlog scale at which congestion doubles service time.
  SimTime fabric_congestion_tau = 100.0e-6;
  /// One-time cost of establishing a connection between two nodes.
  SimTime connection_setup = 25.0e-6;

  /// Outstanding-transmit model (NIC TX queue / rendezvous flow control):
  /// a payload message posted while more than `tx_queue_depth` of the
  /// sender's messages are still in flight pays a penalty that grows with
  /// the overflow:  penalty = tx_overflow_penalty * overflow / depth,
  /// serialized on the sender's NIC. A fully-posted all-to-all (OCIO's
  /// exchange: P sends at one instant) drives the overflow to P and pays a
  /// quadratic aggregate cost; TCIO's one-epoch-at-a-time traffic keeps at
  /// most a couple of messages outstanding and never pays — the paper's
  /// "OCIO performs all the communication at the same time" argument.
  /// 0 disables.
  int tx_queue_depth = 0;
  SimTime tx_overflow_penalty = 0.2e-3;

  /// System noise ("production mode": other jobs share the machine). Each
  /// message draws an exponential jitter with this mean (0 disables), plus a
  /// rare heavy-tail event — an OS or fabric hiccup. Collectives amplify
  /// this noise (they wait for the slowest of P peers); staggered one-sided
  /// traffic absorbs it. Deterministic: drawn from a seeded stream in
  /// virtual-time order.
  SimTime jitter_mean = 0.0;
  double heavy_tail_prob = 0.0;
  SimTime heavy_tail_mean = 1.0e-3;
  std::uint64_t jitter_seed = 12345;

  /// Network-layer fault injection (rma_drop_* fields; see common/fault.h).
  /// When enabled, each RMA payload may be dropped by the fabric and
  /// hardware-retransmitted: delivery is delayed, never lost, and the drop
  /// is counted so TCIO's degradation ladder can react.
  FaultConfig faults;
};

/// Result of a transfer: when the sender's CPU is free to continue, and when
/// the payload is fully visible at the destination.
struct TransferTimes {
  SimTime sender_free = 0;
  SimTime delivered = 0;
};

/// Shared network state. One instance per simulated cluster; must only be
/// touched inside atomic sections.
class Network {
 public:
  explicit Network(const NetworkConfig& cfg);

  /// Charge an `n`-byte message from rank `src` to rank `dst` starting at
  /// virtual time `t`. `rdma` marks hardware-generated RMA data streams
  /// (put payloads, get replies): they bypass the software TX-queue model —
  /// the RDMA engine streams them without per-message send posting.
  TransferTimes transfer(SimTime t, Rank src, Rank dst, Bytes n,
                         bool rdma = false);

  /// A zero-payload control message (lock request/grant, barrier token...).
  TransferTimes control(SimTime t, Rank src, Rank dst) {
    return transfer(t, src, dst, 0);
  }

  /// Node hosting `rank`.
  int nodeOf(Rank r) const { return r / cfg_.ranks_per_node; }

  int numNodes() const { return num_nodes_; }
  const NetworkConfig& config() const { return cfg_; }

  // Statistics for benches and tests.
  std::int64_t messageCount() const { return messages_; }
  Bytes bytesMoved() const { return bytes_; }
  /// Messages served by a node's memory bus (src and dst on the same node).
  std::int64_t intranodeMessageCount() const { return intranode_messages_; }
  Bytes intranodeBytes() const { return intranode_bytes_; }
  /// Payload messages that crossed the NIC/fabric (n > 0, different nodes).
  std::int64_t internodePayloadMessages() const {
    return internode_payload_messages_;
  }
  /// Zero-byte control messages (lock grants, barrier tokens) across nodes.
  std::int64_t internodeControlMessages() const {
    return internode_control_messages_;
  }
  Bytes internodeBytes() const { return internode_bytes_; }
  std::int64_t connectionsEstablished() const {
    return static_cast<std::int64_t>(connections_.size());
  }
  /// RMA payloads dropped (and retransmitted) by the injected fault plan.
  std::int64_t rmaDropCount() const {
    return fault_plan_ != nullptr ? fault_plan_->rmaDropsInjected() : 0;
  }
  const sim::Timeline& fabric() const { return fabric_; }

 private:
  SimTime drawJitter();
  /// Outstanding-transmit penalty for rank `src` posting at time `t`; also
  /// records the new message's delivery time afterwards via txRecord().
  SimTime txPenalty(SimTime t, Rank src);
  void txRecord(Rank src, SimTime delivered);

  NetworkConfig cfg_;
  int num_nodes_;
  Rng jitter_rng_{0};
  std::unique_ptr<FaultPlan> fault_plan_;
  /// Per-rank delivery times of in-flight messages (pruned lazily).
  std::vector<std::deque<SimTime>> in_flight_;
  std::vector<sim::Timeline> nic_out_;
  std::vector<sim::Timeline> nic_in_;
  std::vector<sim::Timeline> membus_;
  sim::Timeline fabric_;
  std::unordered_set<std::uint64_t> connections_;
  std::int64_t messages_ = 0;
  Bytes bytes_ = 0;
  std::int64_t intranode_messages_ = 0;
  Bytes intranode_bytes_ = 0;
  std::int64_t internode_payload_messages_ = 0;
  std::int64_t internode_control_messages_ = 0;
  Bytes internode_bytes_ = 0;
};

}  // namespace tcio::net
