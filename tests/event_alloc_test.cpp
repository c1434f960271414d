// Steady-state allocation regression tests for the event core and the fluid
// resources built on it. The whole point of the slab + inline-callback
// design is that scheduling, cancelling and firing events — and starting,
// finishing and cancelling flows, disk writes included — allocates NOTHING
// once the arenas reach their high-water mark. These tests count every
// global operator new/delete (including the aligned forms the alignas(64)
// slab nodes use) and assert the steady-state delta is exactly zero.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "engine/job_run.h"
#include "obs/obs.h"
#include "sim/cluster.h"
#include "sim/network.h"
#include "sim/simulator.h"
#include "util/inline_function.h"
#include "workloads/workloads.h"

namespace {

std::atomic<std::size_t> g_allocs{0};

std::size_t alloc_count() { return g_allocs.load(std::memory_order_relaxed); }

void* counted_alloc(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(n ? n : 1);
  if (!p) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align, n ? n : align) != 0) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace ds::sim {
namespace {

struct Tick {
  Simulator* sim = nullptr;
  int remaining = 0;
};

void tick(Tick* t) {
  if (t->remaining-- <= 0) return;
  t->sim->schedule_after(1.0, [t] { tick(t); });
}

TEST(EventAlloc, SteadyEventChurnAllocatesNothing) {
  Simulator sim;
  Tick t{&sim, 1000};
  tick(&t);
  sim.run();  // warm-up: slab + heap reach their high-water mark
  t.remaining = 10000;
  tick(&t);
  const std::size_t before = alloc_count();
  sim.run();
  EXPECT_EQ(alloc_count() - before, 0u) << "event schedule/fire allocated";
}

TEST(EventAlloc, CancelRescheduleChurnAllocatesNothing) {
  Simulator sim;
  sim.schedule_after(1e12, [] {});  // keep the queue non-empty
  // Warm up the slab, heap AND free list (the first cancel grows the free
  // list), then cancel+reschedule like the fabric does.
  EventId id = sim.schedule_after(1.0, [] {});
  for (int i = 0; i < 4; ++i) {
    sim.cancel(id);
    id = sim.schedule_after(1.0, [] {});
  }
  const std::size_t before = alloc_count();
  for (int i = 0; i < 10000; ++i) {
    sim.cancel(id);
    id = sim.schedule_after(1.0 + i, [] {});
  }
  EXPECT_EQ(alloc_count() - before, 0u) << "cancel/reschedule allocated";
}

struct FlowLoop {
  NetworkFabric* fabric = nullptr;
  int remaining = 0;
  int next = 0;
};

void launch_flow(FlowLoop* fl) {
  if (fl->remaining-- <= 0) return;
  FlowSpec s;
  s.src = fl->next % 4;
  s.dst = (fl->next + 1) % 4;
  s.group = fl->next % 3;
  s.bytes = 1e6 + 1e5 * (fl->next % 7);
  s.on_complete = [fl] { launch_flow(fl); };
  ++fl->next;
  fl->fabric->start_flow(std::move(s));
}

TEST(EventAlloc, SteadyFlowChurnAllocatesNothing) {
  Simulator sim;
  NetworkFabric fabric(sim, {40e6, 40e6, 40e6, 40e6}, 400e6,
                       /*group_penalty=*/0.3);
  FlowLoop fl{&fabric, 500, 0};
  for (int i = 0; i < 8; ++i) launch_flow(&fl);  // 8 concurrent flows
  sim.run();  // warm-up: flow slab + max-min scratch arenas sized
  fl.remaining = 5000;
  for (int i = 0; i < 8; ++i) launch_flow(&fl);
  const std::size_t before = alloc_count();
  sim.run();
  EXPECT_EQ(alloc_count() - before, 0u) << "flow start/finish allocated";
}

struct WriteLoop {
  NetworkFabric* disk = nullptr;
  int remaining = 0;
  int next = 0;
};

void submit_write(WriteLoop* wl) {
  if (wl->remaining-- <= 0) return;
  const Bytes volume = 1e5 + 1e4 * (wl->next++ % 5);
  wl->disk->start_flow({.src = 0, .dst = 0, .bytes = volume,
                        .on_complete = [wl] { submit_write(wl); }});
}

TEST(EventAlloc, SteadyClaimChurnAllocatesNothing) {
  // Shuffle writes on a node's disk: loopback flows on its one-node fabric.
  Simulator sim;
  Cluster cluster(sim, ClusterSpec::three_node(), 1);
  WriteLoop wl{&cluster.disk(0), 200, 0};
  for (int i = 0; i < 6; ++i) submit_write(&wl);
  sim.run();  // warm-up: flow slab + max-min scratch arenas sized
  wl.remaining = 5000;
  for (int i = 0; i < 6; ++i) submit_write(&wl);
  const std::size_t before = alloc_count();
  sim.run();
  EXPECT_EQ(alloc_count() - before, 0u) << "disk write start/finish allocated";
}

TEST(EventAlloc, NullSinkHandlesAllocateNothing) {
  // Names past the 15-character small-string buffer: a resolver that built
  // the name (or a histogram's bucket vector) before its null check would
  // allocate for every component constructed without a sink.
  const std::size_t before = alloc_count();
  const obs::Counter c = obs::counter(nullptr, "net.flows_started");
  const obs::Gauge g = obs::gauge(nullptr, "net.bytes_delivered");
  const obs::Histogram h =
      obs::histogram(nullptr, "net.flow_seconds", 0.05, 2.0, 22);
  EXPECT_EQ(alloc_count() - before, 0u) << "a null-sink resolver allocated";
  EXPECT_FALSE(c.enabled());
  EXPECT_FALSE(g.enabled());
  EXPECT_FALSE(h.enabled());
}

TEST(EventAlloc, EngineCallbacksAllFitInline) {
  // A full job run must never hit the InlineFunction heap fallback: every
  // scheduling/completion lambda in the engine fits the 40-byte buffer.
  const auto dag = workloads::lda();
  const std::size_t before = util::inline_function_heap_allocs();
  Simulator sim;
  Cluster cluster(sim, ClusterSpec::paper_prototype(), 42);
  engine::JobRun run(cluster, dag, {});
  run.start();
  sim.run();
  ASSERT_TRUE(run.finished());
  EXPECT_EQ(util::inline_function_heap_allocs() - before, 0u)
      << "an engine callback spilled to the heap — shrink its captures";
}

}  // namespace
}  // namespace ds::sim
