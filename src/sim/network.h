// Fluid network fabric with max-min fair bandwidth sharing.
//
// Every node has a full-duplex NIC (egress and ingress capacities equal to
// its provisioned bandwidth) plus a fast loopback path for node-local reads.
// A remote flow consumes one unit of demand on the source's egress port and
// the destination's ingress port; flow rates are the max-min fair allocation
// over those ports (progressive water-filling). This yields exactly the
// equal-share behaviour the paper's Eq. (1) assumes when parallel stages
// contend for a link, plus realistic incast when many reducers pull from one
// upstream node. The same class models each node's local disk
// (Cluster::disk): a one-node fabric whose shuffle writes are loopback
// flows, so its one port gives each of w concurrent writers D / w.
//
// Once per instant. A flow start, cancel or completion only marks the
// fabric dirty; the allocation is recomputed once, when the Simulator
// flushes it before the clock can move. A reduce task's shuffle
// read starts one flow per source node at the same instant — one coflow,
// one water-filling pass instead of one per flow. The result is the eager
// fabric's, bit for bit: the allocation depends only on the flow set, and
// event order is kept through reserved sequence numbers. Each dirtying
// call reserves the number (Simulator::reserve_seq) that an eager
// reallocation would have given its completion event at that point; the
// flush files the event under the last one. A rate read (node_rx_rates)
// flushes first, so nothing sees a stale rate.
//
// Hot-path layout (this fabric is most of engine-run time, so it follows the
// same discipline as the event core): flows live in a slab with an intrusive
// insertion-ordered list (handles are generation-tagged, cancel is O(1) and
// safe on stale ids), each port keeps its count of flows per group (so the
// group penalty needs no sort), the water-filling works out of persistent
// scratch arenas (MaxMinScratch, flat CSR port->flow lists), and port
// capacities are built once, at the first reallocation — the steady state
// allocates nothing per flow start/finish/cancel. Flow enumeration order is
// the insertion order, which also makes completion-callback order
// structurally deterministic.
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"
#include "util/units.h"

namespace ds::sim {

using NodeId = int;
using FlowId = std::uint64_t;

struct FlowSpec {
  NodeId src = 0;
  NodeId dst = 0;
  Bytes bytes = 0;
  // Contention group (typically the stage id). Ports serving flows from
  // multiple distinct groups lose aggregate efficiency (see group_penalty).
  // -1 = anonymous: all anonymous flows count as one group.
  int group = -1;
  EventFn on_complete;
};

// Max-min fair allocation: flow i uses the ports in flow_ports[i] (unused
// entries are -1); caps[p] is port p's capacity. Exposed standalone so tests
// can pin the allocator against hand-computed allocations.
using FlowPorts = std::array<int, 3>;
std::vector<double> max_min_allocate(const std::vector<FlowPorts>& flow_ports,
                                     const std::vector<double>& caps);

// Reusable arenas for the water-filling pass: flat CSR port->flow lists plus
// the per-iteration residual state. Callers that allocate once and reuse
// (the fabric) run the allocator with zero steady-state allocations.
struct MaxMinScratch {
  std::vector<double> rates;      // result, indexed like flow_ports
  std::vector<double> cap_rem;    // residual capacity per port
  std::vector<int> port_count;    // unfrozen flows per port
  std::vector<int> offset;        // CSR offsets (np + 1)
  std::vector<int> cursor;        // CSR fill cursors
  std::vector<int> items;         // CSR flow indices, ascending per port
  std::vector<int> used_ports;    // ports with any flow, ascending
  std::vector<char> frozen;       // per-flow
};

// Same algorithm and floating-point operation order as max_min_allocate,
// but every intermediate lives in `s` (result in s.rates).
void max_min_allocate_into(const std::vector<FlowPorts>& flow_ports,
                           const std::vector<double>& caps, MaxMinScratch& s);

class NetworkFabric : private Flushable {
 public:
  // `nic_bw[n]` is node n's NIC bandwidth (applied to both directions).
  // `loopback_bw` bounds node-local transfers (shared per node, max-min like
  // any other port); it models memory/local-disk read speed, not the NIC.
  //
  // `group_penalty` (β ≥ 0) models the throughput loss real networks and
  // storage servers suffer when *unrelated* transfer sets interleave on one
  // port (TCP incast collapse, interleaved disk service on the shuffle
  // source): a port carrying flows from g distinct groups serves an
  // effective capacity C / (1 + β·ln g). β = 0 restores the ideal
  // work-conserving fabric. This is the non-work-conserving contention the
  // paper's motivation measures (Figs. 4-5) and DelayStage exploits.
  // `site_of[n]` (optional) assigns node n to a geo site; flows between
  // different sites additionally cross a per-site-pair WAN port of capacity
  // `wan_bw` — the geo-distributed setting §6 names as future work.
  // `obs` (optional) receives flow counters, the reallocation counters
  // (net.reallocations: water-filling passes; net.realloc_flows: active
  // flows summed over them) and the flow-duration/volume histograms; must
  // outlive the fabric.
  NetworkFabric(Simulator& sim, std::vector<BytesPerSec> nic_bw,
                BytesPerSec loopback_bw, double group_penalty = 0.0,
                std::vector<int> site_of = {}, BytesPerSec wan_bw = 0,
                obs::Observability* obs = nullptr);
  ~NetworkFabric();
  NetworkFabric(const NetworkFabric&) = delete;
  NetworkFabric& operator=(const NetworkFabric&) = delete;

  FlowId start_flow(FlowSpec spec);
  // Abort a flow without firing its completion callback. Stale or unknown
  // ids (already completed, already cancelled) are a safe no-op.
  void cancel(FlowId id);

  int num_nodes() const { return static_cast<int>(nic_bw_.size()); }
  std::size_t active_flows() const { return num_active_; }
  BytesPerSec nic_bw(NodeId n) const { return nic_bw_.at(static_cast<std::size_t>(n)); }

  // Instantaneous NIC ingress throughput for metrics sampling: out[n] is
  // the summed rate of the remote flows into node n (loopback traffic never
  // touches the NIC). Flushes a pending reallocation first.
  void node_rx_rates(std::vector<BytesPerSec>& out);
  // Total bytes delivered over the fabric so far (lazy; call sync() to get
  // an up-to-the-instant figure).
  Bytes total_delivered() const { return delivered_; }
  void sync() { advance_to_now(); }

 private:
  // Slab node: flow state + intrusive list links + handle generation.
  struct Flow {
    NodeId src = 0;
    NodeId dst = 0;
    FlowPorts ports{};  // egress/ingress/WAN, or loopback; -1 = unused
    Bytes remaining = 0;
    int group = -1;
    BytesPerSec rate = 0;
    EventFn on_complete;
    SimTime started = 0;  // for the flow-duration histogram
    std::uint32_t gen = 1;
    std::int32_t prev = -1;
    std::int32_t next = -1;
    bool active = false;
  };

  int egress_port(NodeId n) const { return n; }
  int ingress_port(NodeId n) const { return num_nodes() + n; }
  int loopback_port(NodeId n) const { return 2 * num_nodes() + n; }
  int site_of(NodeId n) const {
    return site_of_.empty() ? 0 : site_of_[static_cast<std::size_t>(n)];
  }
  int wan_port(int src_site, int dst_site) const {
    return 3 * num_nodes() + src_site * num_sites_ + dst_site;
  }
  FlowPorts ports_of(NodeId src, NodeId dst) const;
  std::size_t num_ports() const {
    return static_cast<std::size_t>(3 * num_nodes() + num_sites_ * num_sites_);
  }

  // Slot whose (slot, gen) matches `id`, or -1 for stale/unknown handles.
  std::int32_t lookup(FlowId id) const;
  std::int32_t alloc_slot();
  // Unlink + recycle; retires every outstanding handle to the slot.
  void free_slot(std::int32_t slot);
  // Add `delta` (±1) to the flow's group count on each of its ports.
  void count_groups(const Flow& f, int delta);

  void advance_to_now();
  // One flow's part of advance_to_now(): `dt` seconds at its current rate.
  void drain(Flow& f, Seconds dt) {
    const Bytes used = std::min(f.remaining, f.rate * dt);
    f.remaining -= used;
    delivered_ += used;
  }
  void build_caps();
  // Reserve the completion event's sequence number and defer a flush.
  void mark_dirty();
  void flush() override;
  // Water-filling pass: writes every flow's rate and returns the earliest
  // drain time from now (-1 if none).
  Seconds reallocate();
  void on_completion_event();

  Simulator& sim_;
  std::vector<BytesPerSec> nic_bw_;
  BytesPerSec loopback_bw_;
  double group_penalty_;
  std::vector<int> site_of_;
  BytesPerSec wan_bw_ = 0;
  int num_sites_ = 1;

  std::vector<Flow> slab_;
  std::vector<std::int32_t> free_slots_;
  std::int32_t head_ = -1;
  std::int32_t tail_ = -1;
  std::size_t num_active_ = 0;

  SimTime last_advance_ = 0;
  EventId pending_event_ = kInvalidEvent;
  bool dirty_ = false;
  std::uint64_t pending_seq_ = 0;  // last number reserved while dirty
  Bytes delivered_ = 0;

  // Persistent scratch (see header comment): rebuilt in place every
  // reallocation, never reallocated in steady state.
  std::vector<FlowPorts> sc_ports_;
  std::vector<std::int32_t> sc_slots_;
  std::vector<double> caps_base_;  // built by the first reallocation
  std::vector<double> sc_caps_;
  // Per port: (group, active flows of that group). The list's size is the
  // port's number of distinct groups. Kept only when group_penalty_ > 0.
  std::vector<std::vector<std::pair<int, int>>> port_groups_;
  MaxMinScratch mm_;
  std::vector<EventFn> done_scratch_;

  obs::Counter flows_started_;
  obs::Counter flows_completed_;
  obs::Counter reallocations_;
  obs::Counter realloc_flows_;
  obs::Gauge bytes_delivered_;
  obs::Histogram flow_seconds_;
  obs::Histogram flow_bytes_;
};

}  // namespace ds::sim
