// Single-engine NVMe doorbell pipeline (E13's DoorbellBatch rows, PR 5).
//
// OverloadPipeline isolates one Fig. 2 mechanism on one event engine:
// doorbell coalescing. Requests stage in a Batcher<PendingIo>; a batch of
// up to doorbell_batch SQEs, or whatever kDoorbellMaxDelay collected, rides
// one doorbell ring, executes on the device cost clock, and one coalesced
// completion event reports every request in it. E13's admission curves run
// on the sharded load::OverloadCluster, whose server sheds through
// RpcOverloadPolicy; NIC credits and RX batching live in load::XdpCluster.
//
// Two clocks, by design: the host engine holds *events* (arrivals, batch
// timers, completions) and must never be advanced inline; the device engine
// is a pure cost clock (never holds events) that the NVMe controller
// advances inline, exactly the node-clock idiom of ShardedRpcNode.

#ifndef HYPERION_SRC_LOAD_PIPELINE_H_
#define HYPERION_SRC_LOAD_PIPELINE_H_

#include <cstdint>
#include <vector>

#include "src/load/loadgen.h"
#include "src/nvme/controller.h"
#include "src/sim/engine.h"
#include "src/sim/flow.h"
#include "src/sim/time.h"

namespace hyperion::load {

struct OverloadPipelineOptions {
  // SQEs per doorbell ring (the swept axis); below the SQ's 256 entries.
  uint16_t doorbell_batch = 4;
};

class OverloadPipeline {
 public:
  // A batch short of doorbell_batch rings once its first request has
  // waited this long.
  static constexpr sim::Duration kDoorbellMaxDelay = 5 * sim::kMicrosecond;

  OverloadPipeline(sim::Engine* engine, const OverloadPipelineOptions& options);

  // Issues a one-block read for request `seq`; `done` runs at the batch's
  // completion.
  void Offer(uint64_t seq, LoadGen::DoneFn done);

  nvme::Controller& controller() { return controller_; }

 private:
  struct PendingIo {
    uint64_t seq = 0;
    LoadGen::DoneFn done;
  };

  void SubmitBatch(std::vector<PendingIo> batch);

  sim::Engine* engine_;
  sim::Engine device_;  // pure cost clock; never holds events
  nvme::Controller controller_;
  uint16_t qid_ = 0;
  uint32_t nsid_ = 0;
  sim::Batcher<PendingIo> batcher_;
};

}  // namespace hyperion::load

#endif  // HYPERION_SRC_LOAD_PIPELINE_H_
