#include "src/dpu/distributed.h"

#include "src/common/check.h"
#include "src/dpu/services.h"

namespace hyperion::dpu {

namespace {
uint64_t MixKey(uint64_t key) {
  key ^= key >> 33;
  key *= 0xff51afd7ed558ccdULL;
  key ^= key >> 33;
  return key;
}
}  // namespace

size_t KvPartitionOf(uint64_t key, size_t partitions) {
  CHECK_GT(partitions, 0u);
  return static_cast<size_t>(MixKey(key) % partitions);
}

void ShardedKvClient::CallOwnerAsync(uint64_t key, uint16_t opcode, Bytes payload,
                                     ShardedRpcNode::Completion done) {
  CHECK(!partitions_.empty());
  RpcRequest request{ServiceId::kKv, opcode, std::move(payload)};
  self_->CallAsync(partitions_[PartitionOf(key)], request, std::move(done));
}

void ShardedKvClient::PutAsync(uint64_t key, ByteSpan value, std::function<void(Status)> done) {
  CallOwnerAsync(key, KvOp::kPut, EncodeKvPut(key, value),
                 [done = std::move(done)](RpcResponse response) {
                   done(std::move(response.status));
                 });
}

void ShardedKvClient::GetAsync(uint64_t key, std::function<void(Result<Buffer>)> done) {
  CallOwnerAsync(key, KvOp::kGet, EncodeKvGet(key),
                 [done = std::move(done)](RpcResponse response) {
                   if (!response.status.ok()) {
                     done(std::move(response.status));
                     return;
                   }
                   done(std::move(response.payload));
                 });
}

}  // namespace hyperion::dpu
