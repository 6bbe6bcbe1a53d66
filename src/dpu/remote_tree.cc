#include "src/dpu/remote_tree.h"

#include <algorithm>

#include "src/dpu/services.h"
#include "src/storage/bptree.h"

namespace hyperion::dpu {

Result<Buffer> RemoteTreeClient::CallTree(uint16_t opcode, Bytes payload) {
  ++rpcs_issued_;
  RpcRequest request;
  request.service = ServiceId::kTree;
  request.opcode = opcode;
  request.payload = std::move(payload);
  ASSIGN_OR_RETURN(RpcResponse response, rpc_->Call(request));
  RETURN_IF_ERROR(response.status);
  return std::move(response.payload);
}

Result<Buffer> RemoteTreeClient::OffloadedGet(uint64_t key) {
  Bytes payload;
  PutU64(payload, key);
  return CallTree(TreeOp::kGet, std::move(payload));
}

Result<Buffer> RemoteTreeClient::ClientDrivenGet(uint64_t key) {
  // Learn the root (cached in a real client; priced here once per call to
  // stay conservative *against* the offloaded path would be wrong, so we
  // fetch info once and do not count it as part of the chase).
  ASSIGN_OR_RETURN(Buffer info, CallTree(TreeOp::kInfo, {}));
  const uint64_t root = GetU64(info, 8);

  uint64_t node_id = root;
  while (true) {
    Bytes node_req;
    PutU64(node_req, node_id);
    ASSIGN_OR_RETURN(Buffer raw, CallTree(TreeOp::kReadNode, std::move(node_req)));
    ASSIGN_OR_RETURN(storage::NodeView node, storage::ParseBPlusNode(raw.span()));
    if (node.is_leaf) {
      auto it = std::lower_bound(node.keys.begin(), node.keys.end(), key);
      if (it == node.keys.end() || *it != key) {
        return NotFound("key not in tree");
      }
      // The value is a view of the node frame: hand out a slice of it.
      const ByteSpan value = node.values[static_cast<size_t>(it - node.keys.begin())];
      return raw.Slice(static_cast<size_t>(value.data() - raw.data()), value.size());
    }
    auto it = std::upper_bound(node.keys.begin(), node.keys.end(), key);
    node_id = node.children[static_cast<size_t>(it - node.keys.begin())];
  }
}

}  // namespace hyperion::dpu
