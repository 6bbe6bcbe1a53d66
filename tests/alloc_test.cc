// Allocation budgets for the datapath's per-hop host work (DESIGN §7).
//
// This binary replaces the global operator new with one that counts calls
// while a NewsDuring scope runs (the tests are single-threaded). Each test
// warms its path once, then pins how many heap blocks one more served hop
// may take: an RPC round trip, a flash read into the caller's memory, and a
// B+ tree lookup and overwrite on flash-resident nodes. A change that puts
// a block back on one of these paths fails here.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <new>

#include "src/common/buffer.h"
#include "src/dpu/rpc.h"
#include "src/mem/object_store.h"
#include "src/net/fabric.h"
#include "src/nvme/controller.h"
#include "src/sim/engine.h"
#include "src/sim/parallel.h"
#include "src/storage/bptree.h"

namespace {
bool g_counting = false;
uint64_t g_news = 0;
}  // namespace

// The other replaceable forms (arrays, nothrow) reach this one through the
// standard library's defaults.
void* operator new(std::size_t size) {
  if (g_counting) {
    ++g_news;
  }
  if (void* block = std::malloc(size == 0 ? 1 : size)) {
    return block;
  }
  throw std::bad_alloc();
}
void operator delete(void* block) noexcept { std::free(block); }
void operator delete(void* block, std::size_t) noexcept { std::free(block); }

namespace hyperion {
namespace {

// Heap blocks `fn` takes.
template <typename Fn>
uint64_t NewsDuring(Fn&& fn) {
  g_news = 0;
  g_counting = true;
  fn();
  g_counting = false;
  return g_news;
}

TEST(AllocBudgetTest, ShardedRpcRoundTripWithDeadline) {
  sim::ParallelEngine engine(1);
  sim::Engine client_clock;
  sim::Engine server_clock;
  dpu::RpcServer server;
  server.RegisterService(dpu::ServiceId::kKv, [](uint16_t, const Buffer& payload) {
    return dpu::RpcResponse::Ok(payload);  // echo: the handler takes no block
  });
  const net::FabricParams wire;
  dpu::ShardedRpcNode client(&engine, 0, nullptr, &client_clock, wire, wire.default_link_gbps);
  dpu::ShardedRpcNode callee(&engine, 0, &server, &server_clock, wire, wire.default_link_gbps);
  const Buffer payload =
      Buffer::Build(24, [](MutableByteSpan out) { std::fill(out.begin(), out.end(), 0x5a); });
  dpu::RpcRequest request{dpu::ServiceId::kKv, 1, payload};
  request.deadline = sim::kSecond;
  struct Tally {
    Buffer expected;
    int echoed = 0;
  } tally{payload};
  const auto round_trip = [&] {
    client.CallAsync(&callee, request, [t = &tally](dpu::RpcResponse response) {
      t->echoed += response.status.ok() && response.payload == t->expected;
    });
    engine.Run();
  };
  round_trip();  // warms the engine's event storage
  // Request header, segment list and deadline trailer; response header and
  // segment list. Formerly 13.
  EXPECT_LE(NewsDuring(round_trip), 5u);
  EXPECT_EQ(tally.echoed, 2);
}

// A flash-backed object store on a fresh controller.
struct FlashStore {
  sim::Engine engine;
  nvme::Controller nvme{&engine};
  mem::ObjectStore store{&engine, &nvme,
                         mem::ObjectStoreConfig{.nvme_nsid = nvme.AddNamespace(8192)}};
};

TEST(AllocBudgetTest, FlashReadIntoOneLba) {
  FlashStore flash;
  const mem::SegmentId id(7, 7);
  ASSERT_TRUE(flash.store.CreateWithId(id, nvme::kLbaSize, {.durable = true}).ok());
  const Bytes block(nvme::kLbaSize, 0x5a);
  ASSERT_TRUE(flash.store.Write(id, 0, ByteSpan(block.data(), block.size())).ok());
  Bytes out(nvme::kLbaSize);
  const auto read = [&] { ASSERT_TRUE(flash.store.ReadInto(id, 0, MutableByteSpan(out)).ok()); };
  read();
  // The LBA lands in `out` itself; formerly 1 (a 4 KiB completion buffer).
  EXPECT_EQ(NewsDuring(read), 0u);
  EXPECT_EQ(out, block);
}

TEST(AllocBudgetTest, FlashBPlusTreeGetAndOverwrite) {
  FlashStore flash;
  auto tree = storage::BPlusTree::Create(&flash.store, 1, {.durable = true});
  ASSERT_TRUE(tree.ok());
  const Bytes value(16, 0x33);
  const ByteSpan value_span(value.data(), value.size());
  for (uint64_t key = 0; key < 200; ++key) {
    ASSERT_TRUE(tree->Insert(key, value_span).ok());
  }
  ASSERT_EQ(tree->Height(), 2u);
  const auto get = [&] {
    auto got = tree->Get(100);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, value);
  };
  const auto miss = [&] { EXPECT_EQ(tree->Get(1000).status().code(), StatusCode::kNotFound); };
  const auto overwrite = [&] { ASSERT_TRUE(tree->Insert(100, value_span).ok()); };
  get();
  miss();
  overwrite();
  // The returned value only; formerly 3 (a completion buffer per node and
  // the value).
  EXPECT_LE(NewsDuring(get), 1u);
  // Formerly 3 (a completion buffer per node and the NotFound status).
  EXPECT_EQ(NewsDuring(miss), 0u);
  // The write's segment list only; formerly 14 (completion buffers, the
  // path, the decoded leaf's vectors and one Bytes per value, the
  // serialized node).
  EXPECT_LE(NewsDuring(overwrite), 1u);
}

}  // namespace
}  // namespace hyperion
