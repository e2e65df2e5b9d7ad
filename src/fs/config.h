// Parallel file system model parameters.
//
// Defaults approximate the paper's Lonestar/Lustre deployment: 30 OSTs,
// 1 MiB stripes, one OST per file by default, extent locks at stripe
// granularity. Bandwidths and overheads are calibration constants; the
// benches only rely on their ratios (see EXPERIMENTS.md).
#pragma once

#include "common/types.h"

namespace tcio::fs {

struct FsConfig {
  /// Number of object storage targets.
  int num_osts = 30;
  /// Stripe size; also the extent-lock granularity.
  Bytes stripe_size = 1_MiB;
  /// OSTs a newly created file is striped over (Lonestar default: 1).
  int default_stripe_count = 1;

  /// Sustained per-OST write bandwidth to disk, bytes/s.
  double ost_write_bandwidth = 500.0e6;
  /// Sustained per-OST read bandwidth from disk, bytes/s.
  double ost_read_bandwidth = 1.2e9;
  /// Per-request service overhead (seek + RPC handling) at an OST.
  SimTime ost_request_overhead = 0.4e-3;
  /// Per-request overhead when a read is fully served from the server
  /// cache (no media access — RPC handling only).
  SimTime cache_hit_overhead = 30.0e-6;

  /// Extra cost of a write that is smaller than a page or not page-aligned
  /// (server-side read-modify-write of the page). 0 disables.
  Bytes page_size = 4096;
  SimTime small_write_penalty = 0.0;
  /// Client<->server RPC latency (one way).
  SimTime rpc_latency = 30.0e-6;

  /// Server-side write-back cache: reads of recently written extents are
  /// served at this rate instead of the disk rate.
  double cache_read_bandwidth = 4.0e9;
  /// Cache capacity per OST, bytes (0 disables the cache).
  Bytes cache_capacity_per_ost = 256_MiB;

  /// Extent-lock manager: cost of granting a fresh lock.
  SimTime lock_grant = 50.0e-6;
  /// Cost of revoking a conflicting client's lock (callback + dirty flush).
  SimTime lock_revoke = 0.6e-3;

  /// Metadata server: cost of an open/create or close.
  SimTime mds_open = 1.0e-3;

  /// Stored-block checksum domain (DESIGN.md §11): tri-state. > 0 forces
  /// per-page digests + read-verify on; 0 defers to the TCIO_INTEGRITY
  /// environment variable; < 0 pins it off regardless of the environment.
  int integrity = 0;
  /// Mirror every acknowledged data page to a replica store (modelled as an
  /// asynchronous mirror — no extra foreground cost) so a failed page
  /// verify can be read-repaired. Off: a stored-block corruption is
  /// unrepairable and surfaces as a typed IntegrityError. The journal
  /// device is never replicated or page-digested — its records carry their
  /// own frame CRCs and replay drops what fails them.
  bool integrity_replicas = true;
};

}  // namespace tcio::fs
