// Property-based tests across module boundaries.
//
// The headline property is the §2.5 safety contract: any program the eBPF
// verifier ACCEPTS must execute in the VM without tripping its runtime
// sandbox — on any input. (Rejection is always allowed; what must never
// happen is accept-then-trap, because on real Hyperion "trap" would be a
// misbehaving circuit with no OS underneath to catch it.)
//
// Also here: transports and RPC retry under parameterized loss, and the
// file system vs an in-memory reference model under random operation
// sequences.

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/common/rng.h"
#include "src/dpu/rpc.h"
#include "src/ebpf/insn.h"
#include "src/format/parquet.h"
#include "src/ebpf/verifier.h"
#include "src/ebpf/vm.h"
#include "src/fs/extfs.h"
#include "src/mem/object_store.h"
#include "src/net/transport.h"
#include "src/nvme/controller.h"
#include "src/sim/engine.h"
#include "src/sim/stats.h"
#include "src/storage/corfu.h"

namespace hyperion {
namespace {

// -- Verifier/VM differential fuzz ---------------------------------------

// Generates a random (mostly garbage) program from plausible instruction
// templates. Offsets/registers/immediates are drawn adversarially wide so
// plenty of unsafe programs are produced.
ebpf::Program RandomProgram(Rng& rng, bool with_map) {
  using namespace ebpf;  // NOLINT
  Program prog;
  prog.name = "fuzz";
  prog.ctx_size = 64;
  const uint64_t length = rng.UniformRange(3, 24);
  // Prologue: initialize every general-purpose register so the body's
  // rejections come from interesting properties (bounds, pointer typing,
  // helper contracts) rather than trivially from uninitialized reads.
  for (uint8_t r : {0, 3, 4, 5, 6, 7, 8}) {  // keep r1 = ctx ptr, r2 = len
    prog.insns.push_back(Mov64Imm(r, static_cast<int32_t>(rng.Uniform(64))));
  }
  // Register/offset distributions are biased so a useful fraction of
  // programs verifies, while off-by-wide values still generate plenty of
  // programs the verifier must reject.
  auto any_reg = [&] { return static_cast<uint8_t>(rng.Uniform(11)); };
  auto gp_reg = [&] { return static_cast<uint8_t>(rng.Uniform(9)); };  // r0-r8
  // A memory base: usually r10 (stack) or r1 (ctx), sometimes anything.
  auto mem_base = [&]() -> uint8_t {
    const uint64_t pick = rng.Uniform(10);
    if (pick < 5) {
      return 10;
    }
    if (pick < 8) {
      return 1;
    }
    return any_reg();
  };
  // Offsets clustered near validity for the chosen base.
  auto mem_off = [&](uint8_t base) -> int16_t {
    if (base == 10) {
      return static_cast<int16_t>(-8 * static_cast<int16_t>(rng.UniformRange(1, 70)));
    }
    return static_cast<int16_t>(rng.Uniform(80));
  };
  for (uint64_t i = 0; i < length; ++i) {
    const uint64_t kind = rng.Uniform(12);
    switch (kind) {
      case 0:
        prog.insns.push_back(Mov64Imm(gp_reg(), static_cast<int32_t>(rng.Uniform(200))));
        break;
      case 1:
        prog.insns.push_back(Mov64Reg(gp_reg(), any_reg()));
        break;
      case 2:
        prog.insns.push_back(Alu64Imm(kAluAdd, gp_reg(),
                                      static_cast<int32_t>(rng.Uniform(100)) - 50));
        break;
      case 3:
        prog.insns.push_back(Alu64Reg(kAluXor, gp_reg(), any_reg()));
        break;
      case 4: {
        const uint8_t base = mem_base();
        prog.insns.push_back(LoadMem(kSizeW, gp_reg(), base, mem_off(base)));
        break;
      }
      case 5: {
        const uint8_t base = mem_base();
        prog.insns.push_back(StoreReg(kSizeDw, base, mem_off(base), any_reg()));
        break;
      }
      case 6: {
        const uint8_t base = mem_base();
        prog.insns.push_back(StoreImm(kSizeB, base, mem_off(base),
                                      static_cast<int32_t>(rng.Uniform(256))));
        break;
      }
      case 7:
        prog.insns.push_back(JumpImm(kJmpJgt, any_reg(),
                                     static_cast<int32_t>(rng.Uniform(100)),
                                     static_cast<int16_t>(rng.Uniform(6))));
        break;
      case 8:
        prog.insns.push_back(EndianSwap(gp_reg(), rng.Bernoulli(0.5),
                                        16 << rng.Uniform(3)));
        break;
      case 9: {
        const uint8_t base = mem_base();
        prog.insns.push_back(AtomicAdd(kSizeDw, base, mem_off(base), any_reg()));
        break;
      }
      case 10:
        if (with_map) {
          LoadMapFd(prog.insns, gp_reg(), static_cast<uint32_t>(rng.Uniform(2)));
          break;
        }
        [[fallthrough]];
      default:
        prog.insns.push_back(
            Call(static_cast<HelperId>(rng.Bernoulli(0.7) ? 1 : 5)));
        break;
    }
  }
  prog.insns.push_back(Mov64Imm(0, 0));
  prog.insns.push_back(Exit());
  return prog;
}

class VerifierFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(VerifierFuzz, AcceptedProgramsNeverTrapTheVm) {
  Rng rng(GetParam() * 7919);
  ebpf::MapRegistry maps;
  maps.Create({ebpf::MapType::kHash, 4, 8, 32, "fuzz_hash"});
  maps.Create({ebpf::MapType::kArray, 4, 16, 8, "fuzz_array"});
  int accepted = 0;
  for (int round = 0; round < 400; ++round) {
    ebpf::Program prog = RandomProgram(rng, /*with_map=*/true);
    auto verdict = ebpf::Verify(prog, maps);
    if (!verdict.ok()) {
      continue;  // rejection is always fine
    }
    ++accepted;
    ebpf::Vm vm(&maps);
    for (int input = 0; input < 3; ++input) {
      Bytes ctx(64);
      for (auto& byte : ctx) {
        byte = static_cast<uint8_t>(rng.Next());
      }
      auto run = vm.Run(prog, MutableByteSpan(ctx));
      ASSERT_TRUE(run.ok()) << "ACCEPTED program trapped: " << run.status().ToString()
                            << "\nseed=" << GetParam() << " round=" << round;
    }
  }
  // The generator must actually exercise the accept path.
  EXPECT_GT(accepted, 0) << "generator produced no verifiable programs";
}

INSTANTIATE_TEST_SUITE_P(Seeds, VerifierFuzz, ::testing::Range<uint64_t>(1, 13));

// -- Transports under parameterized loss -----------------------------------

struct LossCase {
  net::TransportKind kind;
  double loss;
};

class TransportLoss : public ::testing::TestWithParam<LossCase> {};

TEST_P(TransportLoss, ReliableTransportsAlwaysCompleteRoundTrips) {
  sim::Engine engine;
  net::Fabric fabric(&engine);
  Rng rng(11);
  const net::HostId a = fabric.AddHost("a");
  const net::HostId b = fabric.AddHost("b");
  net::TransportParams params;
  params.loss_probability = GetParam().loss;
  auto transport = net::MakeTransport(GetParam().kind, &fabric, &rng, params);
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(transport->Send(a, b, 64).ok())
        << net::TransportKindName(GetParam().kind) << " at loss " << GetParam().loss;
    ASSERT_TRUE(transport->Send(b, a, 256).ok())
        << net::TransportKindName(GetParam().kind) << " at loss " << GetParam().loss;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TransportLoss,
    ::testing::Values(LossCase{net::TransportKind::kTcp, 0.0},
                      LossCase{net::TransportKind::kTcp, 0.05},
                      LossCase{net::TransportKind::kTcp, 0.2}),
    [](const auto& info) {
      return std::string(net::TransportKindName(info.param.kind)) + "_loss" +
             std::to_string(static_cast<int>(info.param.loss * 100));
    });

// UDP surfaces loss to the caller; the RPC client's retry loop is what
// completes calls over it. Every lost request or response costs a retry, and
// a lost response re-executes the call (at-least-once delivery).
class RpcOverLossyUdp : public ::testing::TestWithParam<double> {};

TEST_P(RpcOverLossyUdp, EveryCallCompletes) {
  sim::Engine engine;
  net::Fabric fabric(&engine);
  Rng rng(11);
  const net::HostId client_host = fabric.AddHost("client");
  const net::HostId server_host = fabric.AddHost("server");
  net::TransportParams params;
  params.loss_probability = GetParam();
  auto udp = net::MakeTransport(net::TransportKind::kUdp, &fabric, &rng, params);
  dpu::RpcServer server;
  server.RegisterService(dpu::ServiceId::kApp, [](uint16_t, const Buffer& payload) {
    return dpu::RpcResponse::Ok(payload);
  });
  dpu::RpcClient client(udp.get(), client_host, server_host, &server);
  client.set_retry_policy(dpu::RetryPolicy{.max_attempts = 16});
  constexpr uint64_t kCalls = 100;
  for (uint64_t i = 0; i < kCalls; ++i) {
    const dpu::RpcRequest request{dpu::ServiceId::kApp, 0, Buffer(Bytes(64, 0x5c))};
    auto response = client.Call(request);
    ASSERT_TRUE(response.ok()) << "call " << i << ": " << response.status().ToString();
    ASSERT_TRUE(response->status.ok());
    EXPECT_EQ(response->payload, request.payload);
  }
  const uint64_t executed = server.counters().Get("rpcs");
  const uint64_t retries = client.counters().Get("rpc_retries");
  EXPECT_GE(executed, kCalls);
  EXPECT_LE(executed - kCalls, retries);
  if (GetParam() == 0.0) {
    EXPECT_EQ(retries, 0u);
  } else {
    EXPECT_GT(retries, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RpcOverLossyUdp, ::testing::Values(0.0, 0.05, 0.2),
                         [](const auto& info) {
                           return "udp_loss" +
                                  std::to_string(static_cast<int>(info.param * 100));
                         });

// -- File system vs in-memory reference model ------------------------------

TEST(FsPropertyTest, RandomOpsMatchReferenceModel) {
  sim::Engine engine;
  nvme::Controller ctrl(&engine);
  const uint32_t nsid = ctrl.AddNamespace(32768);
  auto fs = fs::ExtFs::Format(&ctrl, nsid);
  ASSERT_TRUE(fs.ok());

  Rng rng(31337);
  // Reference: path -> contents.
  std::map<std::string, Bytes> model;
  std::map<std::string, uint32_t> inodes;
  const std::string names[] = {"/a", "/b", "/c", "/d", "/e"};

  for (int step = 0; step < 400; ++step) {
    const std::string& path = names[rng.Uniform(5)];
    const uint64_t action = rng.Uniform(4);
    if (action == 0) {
      // Create (idempotence checked via AlreadyExists).
      auto inode = fs->CreateFile(path);
      if (model.count(path) != 0) {
        EXPECT_FALSE(inode.ok()) << path;
      } else {
        ASSERT_TRUE(inode.ok()) << path;
        model[path] = {};
        inodes[path] = *inode;
      }
    } else if (action == 1 && model.count(path) != 0) {
      // Random write at a random offset.
      const uint64_t offset = rng.Uniform(20000);
      Bytes data(rng.UniformRange(1, 3000));
      for (auto& byte : data) {
        byte = static_cast<uint8_t>(rng.Next());
      }
      ASSERT_TRUE(fs->WriteFile(inodes[path], offset, ByteSpan(data.data(), data.size())).ok());
      Bytes& ref = model[path];
      if (ref.size() < offset + data.size()) {
        ref.resize(offset + data.size(), 0);
      }
      std::copy(data.begin(), data.end(), ref.begin() + static_cast<ptrdiff_t>(offset));
    } else if (action == 2 && model.count(path) != 0) {
      // Random read must match the model byte for byte.
      const Bytes& ref = model[path];
      if (ref.empty()) {
        continue;
      }
      const uint64_t offset = rng.Uniform(ref.size());
      const uint64_t len = rng.UniformRange(1, 2000);
      auto got = fs->ReadFile(inodes[path], offset, len);
      ASSERT_TRUE(got.ok());
      const uint64_t expect_len = std::min<uint64_t>(len, ref.size() - offset);
      ASSERT_EQ(got->size(), expect_len) << path << " @" << offset;
      EXPECT_TRUE(std::equal(got->begin(), got->end(),
                             ref.begin() + static_cast<ptrdiff_t>(offset)))
          << path << " @" << offset;
    } else if (action == 3 && model.count(path) != 0 && rng.Bernoulli(0.2)) {
      ASSERT_TRUE(fs->Remove(path).ok()) << path;
      model.erase(path);
      inodes.erase(path);
    }
  }
  // Final sweep: everything still present reads back in full.
  for (const auto& [path, ref] : model) {
    if (ref.empty()) {
      continue;
    }
    auto got = fs->ReadFile(inodes.at(path), 0, ref.size());
    ASSERT_TRUE(got.ok()) << path;
    EXPECT_EQ(*got, ref) << path;
  }
}

// -- Histogram quantile error bound ---------------------------------------

// The HdrHistogram-style log-bucketed layout (5 sub-bucket bits => 32
// sub-buckets per octave) promises: Percentile(q) is an *upper bound* on
// the exact sample quantile, within 1/32 ~= 3.125% relative error. Checked
// against a sorted copy of the raw samples under several adversarial
// sample distributions.
constexpr double kHistTolerance = 0.0325;

uint64_t ExactQuantile(const std::vector<uint64_t>& sorted, double q) {
  const uint64_t target = std::max<uint64_t>(
      1, static_cast<uint64_t>(q * static_cast<double>(sorted.size()) + 0.5));
  return sorted[target - 1];
}

TEST(HistogramProperty, PercentileIsBoundedUpperEstimate) {
  Rng rng(2024);
  // Distributions chosen to stress both the exact (<32) range and wide
  // multi-octave spreads with heavy tails.
  const auto distributions = std::vector<std::function<uint64_t()>>{
      [&] { return rng.Uniform(20); },                         // all-exact range
      [&] { return rng.Uniform(1'000'000); },                  // flat, wide
      [&] { return uint64_t{1} << rng.Uniform(40); },          // octave edges
      [&] { return 50 + rng.Uniform(10); },                    // tight cluster
      [&] { return rng.Bernoulli(0.99) ? rng.Uniform(100) : rng.Uniform(1'000'000'000); },
  };
  const double quantiles[] = {0.0, 0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0};
  for (size_t d = 0; d < distributions.size(); ++d) {
    sim::Histogram hist;
    std::vector<uint64_t> samples;
    for (int i = 0; i < 5000; ++i) {
      const uint64_t v = distributions[d]();
      hist.Record(v);
      samples.push_back(v);
    }
    std::sort(samples.begin(), samples.end());
    for (const double q : quantiles) {
      const uint64_t exact = ExactQuantile(samples, q);
      const uint64_t claimed = hist.Percentile(q);
      EXPECT_GE(claimed, exact) << "dist " << d << " q=" << q;
      const auto bound = static_cast<uint64_t>(
          static_cast<double>(exact) * (1.0 + kHistTolerance));
      EXPECT_LE(claimed, std::max(exact, bound)) << "dist " << d << " q=" << q;
      // Range sanity: every quantile estimate sits inside [min, max].
      EXPECT_GE(claimed, hist.min()) << "dist " << d << " q=" << q;
      EXPECT_LE(claimed, hist.max()) << "dist " << d << " q=" << q;
    }
  }
}

TEST(HistogramProperty, EmptyHistogramIsAllZero) {
  sim::Histogram hist;
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 0u);
  EXPECT_EQ(hist.Percentile(0.0), 0u);
  EXPECT_EQ(hist.Percentile(0.5), 0u);
  EXPECT_EQ(hist.Percentile(1.0), 0u);
}

TEST(HistogramProperty, SingleSampleDominatesEveryQuantile) {
  for (const uint64_t v : {0ull, 1ull, 31ull, 32ull, 1000ull, 123'456'789ull}) {
    sim::Histogram hist;
    hist.Record(v);
    for (const double q : {0.0, 0.5, 1.0}) {
      const uint64_t claimed = hist.Percentile(q);
      EXPECT_GE(claimed, v) << "v=" << v << " q=" << q;
      EXPECT_LE(claimed, hist.max()) << "v=" << v << " q=" << q;
    }
    // With one sample, max() is exact and q=1 must return it exactly.
    EXPECT_EQ(hist.Percentile(1.0), v);
    EXPECT_EQ(hist.min(), v);
    EXPECT_EQ(hist.max(), v);
  }
}

TEST(HistogramProperty, ExtremeQuantilesMeetMinMax) {
  Rng rng(7);
  sim::Histogram hist;
  for (int i = 0; i < 1000; ++i) {
    hist.Record(rng.Uniform(1'000'000));
  }
  // Both extremes are tracked exactly and answered exactly — no bucket
  // rounding at q=0 or q=1.
  EXPECT_EQ(hist.Percentile(1.0), hist.max());
  EXPECT_EQ(hist.Percentile(0.0), hist.min());
}

TEST(HistogramProperty, ZeroQuantileIsExactMinimum) {
  // Regression: q=0 used to be answered from the buckets and returned the
  // min's bucket *upper bound* — Percentile(0.0) of {1000, 2000} claimed
  // ~1023 instead of 1000.
  sim::Histogram hist;
  hist.Record(1000);
  hist.Record(2000);
  EXPECT_EQ(hist.Percentile(0.0), 1000u);
  EXPECT_EQ(hist.Percentile(1.0), 2000u);
}

TEST(HistogramProperty, SingleSampleTailQuantilesAreExact) {
  // One sample: every tail quantile is that sample, not its bucket bound.
  // 123456789 sits in a wide octave whose upper bound is ~2% high; P999
  // must clamp to the exactly-tracked max.
  sim::Histogram hist;
  hist.Record(123'456'789);
  EXPECT_EQ(hist.P999(), 123'456'789u);
  EXPECT_EQ(hist.P99(), 123'456'789u);
  EXPECT_EQ(hist.Percentile(1.0), 123'456'789u);
}

TEST(HistogramProperty, ValuesBelowSubBucketRangeAreExact) {
  // Values < 32 land in unit-width buckets: quantiles are exact there.
  sim::Histogram hist;
  for (uint64_t v = 0; v < 32; ++v) {
    hist.Record(v);
  }
  std::vector<uint64_t> sorted(32);
  for (uint64_t v = 0; v < 32; ++v) sorted[v] = v;
  for (const double q : {0.1, 0.5, 0.9, 1.0}) {
    EXPECT_EQ(hist.Percentile(q), ExactQuantile(sorted, q)) << "q=" << q;
  }
}

// -- Corfu log invariants --------------------------------------------------
//
// The replication layer (PR 9) leans on four CorfuLog invariants; this
// drives a randomized schedule of racing writers against a reference model
// and checks all of them at every step:
//
//   1. Write-once: for each position, the first WriteAt/Fill to land wins
//      and every later attempt fails kAlreadyExists, regardless of
//      interleaving.
//   2. Prefix-readability: once holes are filled, every untrimmed position
//      below the tail reads as data or as kDataLoss junk — never kNotFound.
//   3. Trim is monotone and trimmed positions answer kOutOfRange even under
//      readers holding older positions.
//   4. kDataLoss surfaces exactly on junk-filled positions — including
//      across a reopen of the log over the same store.

namespace {

class CorfuPropertyRig {
 public:
  CorfuPropertyRig() : ctrl_(&engine_) {
    const uint32_t nsid = ctrl_.AddNamespace(1u << 18);
    mem::ObjectStoreConfig config;
    config.dram_bytes = 64u << 20;
    config.hbm_bytes = 8u << 20;
    config.nvme_nsid = nsid;
    store_ = std::make_unique<mem::ObjectStore>(&engine_, &ctrl_, config);
  }

  sim::Engine engine_;
  nvme::Controller ctrl_;
  std::unique_ptr<mem::ObjectStore> store_;
};

Bytes CorfuEntry(uint64_t writer, uint64_t seq) {
  Bytes entry;
  PutU64(entry, writer);
  PutU64(entry, seq);
  return entry;
}

struct CorfuModelCell {
  enum Kind { kHole, kData, kJunk } kind = kHole;
  uint64_t writer = 0;
  uint64_t seq = 0;
};

TEST(CorfuProperty, RacingWritersKeepLogInvariants) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    CorfuPropertyRig rig;
    Rng rng(seed * 0x9e3779b97f4a7c15ull);
    constexpr uint64_t kLogId = 40;
    auto log = std::make_unique<storage::CorfuLog>(rig.store_.get(), kLogId);

    std::map<uint64_t, CorfuModelCell> model;  // position -> settled state
    std::vector<uint64_t> reserved;            // positions handed out, unwritten
    uint64_t trim = 0;
    uint64_t seq = 0;

    for (int step = 0; step < 400; ++step) {
      const uint64_t action = rng.Uniform(100);
      if (action < 30) {  // reserve
        const uint64_t pos = log->Reserve().value();
        ASSERT_EQ(model.count(pos), 0u) << "position re-issued at seed " << seed;
        ASSERT_TRUE(std::find(reserved.begin(), reserved.end(), pos) == reserved.end());
        reserved.push_back(pos);
      } else if (action < 60 && !reserved.empty()) {  // racing writers
        const size_t pick = rng.Uniform(reserved.size());
        const uint64_t pos = reserved[pick];
        const uint64_t writer = rng.Uniform(4);
        Bytes entry = CorfuEntry(writer, ++seq);
        const Status wrote = log->WriteAt(pos, ByteSpan(entry.data(), entry.size()));
        if (pos < trim) {
          EXPECT_EQ(wrote.code(), StatusCode::kOutOfRange);
          reserved.erase(reserved.begin() + static_cast<ptrdiff_t>(pick));
          continue;
        }
        ASSERT_TRUE(wrote.ok()) << wrote.message();
        model[pos] = CorfuModelCell{CorfuModelCell::kData, writer, seq};
        reserved.erase(reserved.begin() + static_cast<ptrdiff_t>(pick));
        // The race: every later writer (and filler) must lose, and the
        // settled content must be the winner's.
        Bytes loser = CorfuEntry(writer + 99, seq);
        EXPECT_EQ(log->WriteAt(pos, ByteSpan(loser.data(), loser.size())).code(),
                  StatusCode::kAlreadyExists);
        EXPECT_EQ(log->Fill(pos).code(), StatusCode::kAlreadyExists);
      } else if (action < 75 && !reserved.empty()) {  // hole fill wins the race
        const size_t pick = rng.Uniform(reserved.size());
        const uint64_t pos = reserved[pick];
        const Status filled = log->Fill(pos);
        reserved.erase(reserved.begin() + static_cast<ptrdiff_t>(pick));
        if (pos < trim) {
          EXPECT_EQ(filled.code(), StatusCode::kOutOfRange);
          continue;
        }
        ASSERT_TRUE(filled.ok()) << filled.message();
        model[pos] = CorfuModelCell{CorfuModelCell::kJunk, 0, 0};
        // A slow writer arriving after the fill loses (kDataLoss stays).
        Bytes late = CorfuEntry(7, seq);
        EXPECT_EQ(log->WriteAt(pos, ByteSpan(late.data(), late.size())).code(),
                  StatusCode::kAlreadyExists);
      } else if (action < 80 && log->Tail() > trim) {  // trim forward
        const uint64_t prefix = trim + 1 + rng.Uniform(log->Tail() - trim);
        ASSERT_TRUE(log->Trim(prefix).ok());
        trim = std::max(trim, prefix);
        EXPECT_EQ(log->TrimPoint(), trim);
        // Trim is monotone: re-trimming behind the point is a no-op.
        ASSERT_TRUE(log->Trim(trim / 2).ok());
        EXPECT_EQ(log->TrimPoint(), trim);
        std::erase_if(reserved, [&](uint64_t pos) { return pos < trim; });
      } else {  // read anywhere and compare against the model
        const uint64_t tail = log->Tail();
        if (tail == 0) {
          continue;
        }
        const uint64_t pos = rng.Uniform(tail);
        auto read = log->Read(pos);
        if (pos < trim) {
          EXPECT_EQ(read.status().code(), StatusCode::kOutOfRange) << pos;
          continue;
        }
        auto cell = model.find(pos);
        if (cell == model.end()) {
          EXPECT_EQ(read.status().code(), StatusCode::kNotFound) << pos;
        } else if (cell->second.kind == CorfuModelCell::kJunk) {
          EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << pos;
        } else {
          ASSERT_TRUE(read.ok()) << pos << ": " << read.status().message();
          EXPECT_EQ(GetU64(ByteSpan(read->data(), read->size()), 0), cell->second.writer);
          EXPECT_EQ(GetU64(ByteSpan(read->data(), read->size()), 8), cell->second.seq);
        }
      }
    }

    // Repair pass: fill every remaining hole, then the untrimmed prefix
    // below the tail must be fully readable (data or junk, no kNotFound).
    const uint64_t tail = log->Tail();
    for (uint64_t pos = trim; pos < tail; ++pos) {
      if (model.count(pos) == 0) {
        Status filled = log->Fill(pos);
        ASSERT_TRUE(filled.ok() || filled.code() == StatusCode::kAlreadyExists);
        model[pos] = CorfuModelCell{CorfuModelCell::kJunk, 0, 0};
      }
    }
    for (uint64_t pos = trim; pos < tail; ++pos) {
      auto read = log->Read(pos);
      if (model[pos].kind == CorfuModelCell::kJunk) {
        EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << pos;
      } else {
        EXPECT_TRUE(read.ok()) << pos;
      }
    }

    // Reopen over the same store: tail never regresses past settled
    // positions, reserve never re-issues, and junk still reads kDataLoss.
    log = std::make_unique<storage::CorfuLog>(rig.store_.get(), kLogId);
    EXPECT_EQ(log->TrimPoint(), trim);
    const uint64_t fresh = log->Reserve().value();
    EXPECT_GE(fresh, tail);
    EXPECT_EQ(model.count(fresh), 0u);
    for (const auto& [pos, cell] : model) {
      if (pos < trim) {
        continue;
      }
      auto read = log->Read(pos);
      if (cell.kind == CorfuModelCell::kJunk) {
        EXPECT_EQ(read.status().code(), StatusCode::kDataLoss) << pos;
      } else {
        ASSERT_TRUE(read.ok()) << pos;
        EXPECT_EQ(GetU64(ByteSpan(read->data(), read->size()), 0), cell.writer);
      }
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Parquet reader hardening (PR 10): fuzz-style corruption sweeps. The reader
// consumes bytes fetched straight off NVMe, so every decode path must turn
// arbitrary corruption into a Status — never a crash, hang, or OOB access
// (the CI runs this suite under ASan/UBSan). All randomness flows through
// Rng, so a failure reproduces from the seed.

namespace {

format::RecordBatch FuzzBatch() {
  constexpr uint64_t kRows = 1024;
  std::vector<int64_t> id(kRows);
  std::vector<int64_t> runs(kRows);
  std::vector<std::string> tag(kRows);
  std::vector<double> score(kRows);
  for (uint64_t i = 0; i < kRows; ++i) {
    id[i] = static_cast<int64_t>(i * 3);          // plain int64
    runs[i] = static_cast<int64_t>(i / 97);       // long runs: RLE-encoded
    tag[i] = std::string("tag") + static_cast<char>('a' + i % 5);  // dictionary
    score[i] = static_cast<double>(i) * 0.25;     // plain float64
  }
  std::vector<format::ColumnData> columns;
  columns.emplace_back(std::move(id));
  columns.emplace_back(std::move(runs));
  columns.emplace_back(std::move(tag));
  columns.emplace_back(std::move(score));
  auto batch = format::RecordBatch::Make(
      {{"id", format::ColumnType::kInt64},
       {"runs", format::ColumnType::kInt64},
       {"tag", format::ColumnType::kString},
       {"score", format::ColumnType::kFloat64}},
      std::move(columns));
  CHECK_OK(batch.status());
  return std::move(*batch);
}

Bytes FuzzFile() {
  format::ParquetWriteOptions options;
  options.rows_per_group = 256;
  auto file = format::WriteParquet(FuzzBatch(), options);
  CHECK_OK(file.status());
  return *file;
}

// Opens the (possibly corrupt) buffer and drives every read path: all row
// groups with a full projection, plus a filtered scan. Any Status is fine;
// the property is purely "no UB, no crash, bounded work".
void ExerciseReader(const Bytes& file) {
  auto reader = format::ParquetReader::OpenBuffer(file);
  if (!reader.ok()) {
    return;  // rejected at the footer: acceptable
  }
  for (size_t g = 0; g < reader->RowGroupCount(); ++g) {
    auto batch = reader->ReadRowGroup(g, {"id", "runs", "tag", "score"});
    if (batch.ok()) {
      // Rows that decode must be internally consistent.
      EXPECT_EQ(batch->rows(), batch->rows());
    }
  }
  (void)reader->ScanInt64Filter("id", 100, 2000, {"runs"});
}

TEST(ParquetFuzz, RandomByteFlipsNeverCrashTheReader) {
  const Bytes file = FuzzFile();
  Rng rng(0xf00dfeed);
  for (int iter = 0; iter < 400; ++iter) {
    Bytes mutated = file;
    const uint64_t flips = 1 + rng.Next() % 4;
    for (uint64_t f = 0; f < flips; ++f) {
      const uint64_t pos = rng.Next() % mutated.size();
      mutated[pos] ^= static_cast<uint8_t>(1u << (rng.Next() % 8));
    }
    ExerciseReader(mutated);
  }
}

TEST(ParquetFuzz, DataRegionCorruptionBehindValidFooterNeverCrashes) {
  // Footer CRC rejects most random flips before decode ever runs. Restrict
  // the corruption to the data region (everything before the footer), which
  // keeps the footer valid and forces the chunk decoders — RLE run lengths,
  // dictionary indexes, float payloads — to face the corrupt bytes.
  const Bytes file = FuzzFile();
  const uint32_t footer_size = GetU32(
      ByteSpan(file.data(), file.size()), file.size() - 8);
  ASSERT_LT(footer_size + 8u, file.size());
  const uint64_t data_end = file.size() - 8 - footer_size;
  Rng rng(0xdec0de01);
  for (int iter = 0; iter < 400; ++iter) {
    Bytes mutated = file;
    const uint64_t flips = 1 + rng.Next() % 8;
    for (uint64_t f = 0; f < flips; ++f) {
      const uint64_t pos = rng.Next() % data_end;
      mutated[pos] ^= static_cast<uint8_t>(rng.Next() % 255 + 1);
    }
    ExerciseReader(mutated);
  }
}

TEST(ParquetFuzz, RandomTruncationsNeverCrash) {
  const Bytes file = FuzzFile();
  Rng rng(0x7c47e001);
  for (int iter = 0; iter < 200; ++iter) {
    const uint64_t len = rng.Next() % (file.size() + 1);
    Bytes prefix(file.begin(), file.begin() + static_cast<ptrdiff_t>(len));
    ExerciseReader(prefix);
  }
}

TEST(ParquetFuzz, FetchWindowsAreAlwaysInBounds) {
  // The chunked-fetch path must never ask the device for bytes outside the
  // file, no matter what the (valid-CRC) footer told it to read.
  const Bytes file = FuzzFile();
  auto fetch = [&file](uint64_t offset, uint64_t length) -> Result<Bytes> {
    if (offset > file.size() || length > file.size() - offset) {
      ADD_FAILURE() << "fetch out of bounds: offset=" << offset
                    << " length=" << length << " file=" << file.size();
      return OutOfRange("fetch out of bounds");
    }
    return Bytes(file.begin() + static_cast<ptrdiff_t>(offset),
                 file.begin() + static_cast<ptrdiff_t>(offset + length));
  };
  auto reader = format::ParquetReader::Open(file.size(), fetch);
  ASSERT_TRUE(reader.ok());
  for (size_t g = 0; g < reader->RowGroupCount(); ++g) {
    auto batch = reader->ReadRowGroup(g, {"id", "tag"});
    ASSERT_TRUE(batch.ok());
    EXPECT_EQ(batch->rows(), 256u);
  }
}

}  // namespace

}  // namespace
}  // namespace hyperion
