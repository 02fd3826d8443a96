// Context-pool semantics of the allocation-free client fast path: slot
// recycling, generation-checked staleness, and accounting under churn.
// Exercised under ASan in CI — a use-after-release of a recycled slot or a
// leaked InvokeContext shows up here first.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <set>
#include <vector>

#include "dataplane/dataplane.hpp"
#include "models/zoo.hpp"
#include "util/slab_pool.hpp"

// Counts heap allocations, so a test can show that a pool path makes none.
// The array forms reach these through the library's defaults; the deletes
// stay out of line so GCC does not match an inlined free() against the
// replaced operator new (-Wmismatched-new-delete).
namespace {
std::atomic<std::uint64_t> g_allocCount{0};
}

void* operator new(std::size_t size) {
  g_allocCount.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}

namespace microedge {
namespace {

// ---------------------------------------------------------------------------
// SlabPool unit level: the generation check is what makes a handle held by a
// stale in-flight event safe to dereference-or-reject.

TEST(SlabPoolTest, AcquireGetReleaseRoundTrip) {
  SlabPool<int> pool;
  auto h = pool.acquire();
  ASSERT_NE(pool.get(h), nullptr);
  *pool.get(h) = 42;
  EXPECT_EQ(pool.inUse(), 1u);
  EXPECT_TRUE(pool.release(h));
  EXPECT_EQ(pool.inUse(), 0u);
}

TEST(SlabPoolTest, GenerationCheckRejectsStaleHandle) {
  SlabPool<int> pool;
  auto first = pool.acquire();
  ASSERT_TRUE(pool.release(first));
  // The slot is recycled under a new generation; the old handle must die.
  auto second = pool.acquire();
  EXPECT_EQ(second.index, first.index);
  EXPECT_NE(second.generation, first.generation);
  EXPECT_EQ(pool.get(first), nullptr);
  EXPECT_FALSE(pool.release(first));  // double release is a no-op
  ASSERT_NE(pool.get(second), nullptr);
  EXPECT_TRUE(pool.release(second));
}

TEST(SlabPoolTest, DefaultHandleAndOutOfRangeAreInvalid) {
  SlabPool<int> pool;
  SlabPool<int>::Handle empty;
  EXPECT_EQ(pool.get(empty), nullptr);
  EXPECT_FALSE(pool.release(empty));
  SlabPool<int>::Handle bogus{9999, 1};
  EXPECT_EQ(pool.get(bogus), nullptr);
}

TEST(SlabPoolTest, FreeListRecyclesBeforeGrowing) {
  SlabPool<int> pool;
  std::vector<SlabPool<int>::Handle> handles;
  // Chunks double from one slot, so capacity steps 1, 3, 7, 15, and only
  // when every slot is live.
  for (std::size_t capacity : {1u, 3u, 7u, 15u}) {
    while (handles.size() < capacity) handles.push_back(pool.acquire());
    EXPECT_EQ(pool.capacity(), capacity);
    for (auto& h : handles) ASSERT_TRUE(pool.release(h));
    // A full release/acquire cycle reuses the chunks — capacity is stable.
    for (auto& h : handles) h = pool.acquire();
    EXPECT_EQ(pool.capacity(), capacity);
    EXPECT_EQ(pool.inUse(), capacity);
  }
  // One more forces the next chunk.
  auto extra = pool.acquire();
  EXPECT_EQ(pool.capacity(), 31u);
  ASSERT_NE(pool.get(extra), nullptr);
}

TEST(SlabPoolTest, LowestNeverUsedFirstThenLifoReuseAcrossChunks) {
  SlabPool<int> pool;
  std::vector<SlabPool<int>::Handle> handles;
  // Fresh slots come out in index order through the chunk starts at 1, 3
  // and 7; capacity ends at 15.
  for (std::uint32_t i = 0; i < 10; ++i) {
    handles.push_back(pool.acquire());
    EXPECT_EQ(handles.back().index, i);
  }
  // Released slots come back LIFO, ahead of the never-used 10..14...
  ASSERT_TRUE(pool.release(handles[2]));
  ASSERT_TRUE(pool.release(handles[8]));
  ASSERT_TRUE(pool.release(handles[5]));
  EXPECT_EQ(pool.acquire().index, 5u);
  EXPECT_EQ(pool.acquire().index, 8u);
  EXPECT_EQ(pool.acquire().index, 2u);
  // ...which then resume at the lowest.
  EXPECT_EQ(pool.acquire().index, 10u);
  // A run of acquires that has to grow the pool takes the recycled slot,
  // the rest of chunk 3, then chunk 4 from 15.
  ASSERT_TRUE(pool.release(handles[0]));
  std::vector<std::uint32_t> indices;
  for (int i = 0; i < 7; ++i) indices.push_back(pool.acquire().index);
  EXPECT_EQ(indices, (std::vector<std::uint32_t>{0, 11, 12, 13, 14, 15, 16}));
  EXPECT_EQ(pool.capacity(), 31u);
}

TEST(SlabPoolTest, PointersSurviveGrowth) {
  SlabPool<int> pool;
  auto first = pool.acquire();
  int* p = pool.get(first);
  ASSERT_NE(p, nullptr);
  *p = 7;
  // Six more chunks (2 .. 64 slots) arrive behind the first one.
  std::vector<SlabPool<int>::Handle> more;
  for (int i = 0; i < 100; ++i) more.push_back(pool.acquire());
  EXPECT_EQ(pool.capacity(), 127u);
  std::set<int*> slots{p};
  for (auto h : more) {
    int* q = pool.get(h);
    ASSERT_NE(q, nullptr);
    *q = -1;
    slots.insert(q);
  }
  EXPECT_EQ(slots.size(), 101u);  // every live handle owns its own slot
  EXPECT_EQ(pool.get(first), p);
  EXPECT_EQ(*p, 7);
}

TEST(SlabPoolTest, AcquireRunSpansThreeChunks) {
  SlabPool<int> pool;
  auto head = pool.acquire();  // fills chunk 0
  std::vector<SlabPool<int>::Handle> run;
  // Ten slots: chunk 1 (indices 1-2), chunk 2 (3-6) and most of chunk 3.
  for (int i = 0; i < 10; ++i) run.push_back(pool.acquire());
  EXPECT_EQ(pool.capacity(), 15u);
  EXPECT_EQ(pool.inUse(), 11u);
  ASSERT_EQ(run.size(), 10u);
  for (std::uint32_t i = 0; i < run.size(); ++i) {
    EXPECT_EQ(run[i].index, i + 1);
    ASSERT_NE(pool.get(run[i]), nullptr);
    *pool.get(run[i]) = static_cast<int>(i);
  }
  for (std::uint32_t i = 0; i < run.size(); ++i) {
    EXPECT_EQ(*pool.get(run[i]), static_cast<int>(i));
  }
  EXPECT_NE(pool.get(head), nullptr);
}

TEST(SlabPoolTest, ForEachLiveVisitsIndexOrderAcrossChunks) {
  SlabPool<int> pool;
  std::vector<SlabPool<int>::Handle> handles;
  for (int i = 0; i < 20; ++i) handles.push_back(pool.acquire());  // chunks 0-4
  for (auto h : handles) *pool.get(h) = static_cast<int>(h.index);
  std::vector<std::uint32_t> expected;
  for (auto h : handles) {
    if (h.index % 3 == 0) {
      ASSERT_TRUE(pool.release(h));
    } else {
      expected.push_back(h.index);
    }
  }
  std::vector<std::uint32_t> seen;
  pool.forEachLive([&](SlabPool<int>::Handle h, int& value) {
    EXPECT_EQ(value, static_cast<int>(h.index));
    EXPECT_EQ(pool.get(h), &value);
    seen.push_back(h.index);
  });
  EXPECT_EQ(seen, expected);
}

TEST(SlabPoolTest, FirstSlotIsInlineAndAllocatesNothing) {
  // A client with one frame in flight at a time only ever uses slot 0: it
  // lives inside the pool object, so using it costs no heap block.
  const std::uint64_t before = g_allocCount.load();
  SlabPool<std::uint64_t> pool;
  SlabPool<std::uint64_t>::Handle h = pool.acquire();
  std::uint64_t* first = pool.get(h);
  for (int frame = 0; frame < 3; ++frame) {
    pool.release(h);
    h = pool.acquire();
  }
  const std::uint64_t allocs = g_allocCount.load() - before;
  EXPECT_EQ(allocs, 0u);
  EXPECT_EQ(h.index, 0u);
  EXPECT_EQ(pool.get(h), first);
  EXPECT_EQ(pool.capacity(), 1u);
  const auto slot = reinterpret_cast<std::uintptr_t>(first);
  const auto begin = reinterpret_cast<std::uintptr_t>(&pool);
  EXPECT_GE(slot, begin);
  EXPECT_LE(slot + sizeof(std::uint64_t), begin + sizeof(pool));
}

// ---------------------------------------------------------------------------
// Client level: the pool's accounting must track the pipeline exactly.

class ClientPoolTest : public ::testing::Test {
 protected:
  ClientPoolTest()
      : zoo_(zoo::standardZoo()),
        topo_(sharded_, zoo_, smallTopology()),
        dataPlane_(sharded_, topo_, zoo_) {}

  static TopologySpec smallTopology() {
    TopologySpec spec;
    spec.vRpiCount = 2;
    spec.tRpiCount = 2;
    return spec;
  }

  void loadAll(const std::string& model) {
    for (const char* tpu : {"tpu-00", "tpu-01"}) {
      ASSERT_TRUE(dataPlane_.executeLoad(LoadCommand{tpu, {model}, {}}).isOk());
    }
    sim_.run();
  }

  ShardedSim sharded_{1, NetworkConfig{}.baseLatency};
  Simulator& sim_ = sharded_.shardSim(0);
  ModelRegistry zoo_;
  ClusterTopology topo_;
  DataPlane dataPlane_;
};

TEST_F(ClientPoolTest, SlotReusedAfterCompletion) {
  loadAll(zoo::kMobileNetV1);
  auto client = dataPlane_.makeClient("vrpi-00", zoo::kMobileNetV1);
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100}}})
          .isOk());
  // Sequential frames cycle through the pool one slot at a time: the pool
  // never grows past the warm footprint of one in-flight frame.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client->invoke(nullptr).isOk());
    sim_.run();
    EXPECT_EQ(client->contextsInFlight(), 0u);
  }
  EXPECT_EQ(client->completedCount(), 200u);
  EXPECT_EQ(client->contextCapacity(), 1u);
}

TEST_F(ClientPoolTest, StopMidFlightDrainsInFlightFrames) {
  loadAll(zoo::kMobileNetV1);
  auto client = dataPlane_.makeClient("vrpi-00", zoo::kMobileNetV1);
  ASSERT_TRUE(client
                  ->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100},
                                          LbWeight{internTpu("tpu-01"), 100}}})
                  .isOk());
  int completions = 0;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        client->invoke([&](const FrameBreakdown&) { ++completions; }).isOk());
  }
  EXPECT_EQ(client->contextsInFlight(), 8u);
  // Chunks double from one slot (1, 3, 7, 15): eight frames hold 15 slots.
  EXPECT_LT(client->contextCapacity(), 16u);
  client->stop();
  EXPECT_FALSE(client->invoke(nullptr).isOk());
  sim_.run();
  // Every pre-stop frame ran to completion and returned its slot.
  EXPECT_EQ(completions, 8);
  EXPECT_EQ(client->completedCount(), 8u);
  EXPECT_EQ(client->contextsInFlight(), 0u);
  EXPECT_EQ(client->outstanding(), 0u);
}

TEST_F(ClientPoolTest, RemovedServiceMidFlightRecyclesSlot) {
  loadAll(zoo::kMobileNetV1);
  auto client = dataPlane_.makeClient("vrpi-00", zoo::kMobileNetV1);
  ASSERT_TRUE(
      client->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100}}})
          .isOk());
  // The frame routes and departs, then its target dies while it is on the
  // wire: arrival re-resolves the dense handle, finds nothing, and the frame
  // is dropped — its slot must come back.
  ASSERT_TRUE(client->invoke(nullptr).isOk());
  EXPECT_EQ(client->contextsInFlight(), 1u);
  dataPlane_.removeService("tpu-00");
  sim_.run();
  EXPECT_EQ(client->completedCount(), 0u);
  EXPECT_EQ(client->failedCount(), 1u);
  EXPECT_EQ(client->contextsInFlight(), 0u);
  EXPECT_EQ(client->outstanding(), 0u);
}

TEST_F(ClientPoolTest, OutstandingTracksPoolUnderChurn) {
  loadAll(zoo::kMobileNetV1);
  auto client = dataPlane_.makeClient("vrpi-00", zoo::kMobileNetV1);
  ASSERT_TRUE(client
                  ->configureLb(LbConfig{{LbWeight{internTpu("tpu-00"), 100},
                                          LbWeight{internTpu("tpu-01"), 100}}})
                  .isOk());
  // Closed loop with a fan-out of 16: every completion immediately resubmits
  // until 500 frames have drained. The pool population must equal the
  // client's outstanding count at every completion edge.
  std::uint64_t target = 500;
  std::uint64_t finished = 0;
  std::function<void(const FrameBreakdown&)> pump =
      [&](const FrameBreakdown&) {
        ++finished;
        EXPECT_EQ(client->contextsInFlight(), client->outstanding());
        if (finished + client->outstanding() < target) {
          ASSERT_TRUE(client->invoke([&](const FrameBreakdown& b) { pump(b); })
                          .isOk());
        }
      };
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(
        client->invoke([&](const FrameBreakdown& b) { pump(b); }).isOk());
  }
  EXPECT_EQ(client->contextsInFlight(), 16u);
  sim_.run();
  EXPECT_EQ(client->completedCount(), finished);
  EXPECT_EQ(client->contextsInFlight(), 0u);
  EXPECT_EQ(client->outstanding(), 0u);
}

}  // namespace
}  // namespace microedge
