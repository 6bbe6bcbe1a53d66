// Graph storage + near-data analytics (paper §4: the reusable core
// abstractions are "trees (B+, LSM), hash tables, and graphs", with "LDBC
// Graphalytics with graph database" called out as a killer workload).
//
// The graph lives in the single-level store as two segments — a CSR offset
// array and an adjacency array — addressable by 128-bit ids like everything
// else, and placement-hintable (HBM for traversal-bound analytics). The
// analytics kernels (BFS, PageRank) execute *next to* the segments, which
// is the point: a remote client running the same traversal would pay one
// round trip per frontier expansion (the E5 pointer-chasing argument at
// graph scale — see RemoteNeighborCost for the comparison model).

#ifndef HYPERION_SRC_STORAGE_GRAPH_H_
#define HYPERION_SRC_STORAGE_GRAPH_H_

#include <cstdint>
#include <vector>

#include "src/common/result.h"
#include "src/mem/object_store.h"

namespace hyperion::storage {

class CsrGraph {
 public:
  static constexpr uint32_t kNoPath = ~0u;

  // Builds the CSR segments from an edge list (directed; duplicate edges
  // are kept). Vertices are [0, node_count).
  static Result<CsrGraph> Build(mem::ObjectStore* store, uint64_t graph_id,
                                uint32_t node_count,
                                const std::vector<std::pair<uint32_t, uint32_t>>& edges,
                                mem::SegmentHints hints = {.performance_critical = true});

  uint32_t node_count() const { return node_count_; }
  uint64_t edge_count() const { return edge_count_; }

  // Out-neighbors of `v`, read from the adjacency segment.
  Result<std::vector<uint32_t>> Neighbors(uint32_t v);

  // BFS hop distances from `source` (kNoPath where unreachable).
  Result<std::vector<uint32_t>> Bfs(uint32_t source);

  // Standard damped PageRank over out-edges; dangling mass redistributed.
  Result<std::vector<double>> PageRank(uint32_t iterations, double damping = 0.85);

  // Segment reads performed (the near-data access count; a remote
  // client-driven traversal pays ~1 RTT per read on top).
  uint64_t segment_reads() const { return segment_reads_; }
  void ResetStats() { segment_reads_ = 0; }

 private:
  CsrGraph(mem::ObjectStore* store, uint64_t graph_id)
      : store_(store), graph_id_(graph_id) {}

  mem::SegmentId OffsetsSegment() const;
  mem::SegmentId EdgesSegment() const;
  // offsets_[v] .. offsets_[v+1] delimit v's slice of the edge array.
  Result<std::pair<uint64_t, uint64_t>> EdgeRange(uint32_t v);

  mem::ObjectStore* store_;
  uint64_t graph_id_;
  uint32_t node_count_ = 0;
  uint64_t edge_count_ = 0;
  uint64_t segment_reads_ = 0;
};

}  // namespace hyperion::storage

#endif  // HYPERION_SRC_STORAGE_GRAPH_H_
