#include "src/storage/graph.h"

#include <algorithm>
#include <deque>

#include "src/common/check.h"

namespace hyperion::storage {

mem::SegmentId CsrGraph::OffsetsSegment() const {
  return mem::SegmentId(0x6A60000000000000ull | graph_id_, 0);
}

mem::SegmentId CsrGraph::EdgesSegment() const {
  return mem::SegmentId(0x6A60000000000000ull | graph_id_, 1);
}

Result<CsrGraph> CsrGraph::Build(mem::ObjectStore* store, uint64_t graph_id,
                                 uint32_t node_count,
                                 const std::vector<std::pair<uint32_t, uint32_t>>& edges,
                                 mem::SegmentHints hints) {
  if (node_count == 0) {
    return InvalidArgument("graph needs at least one vertex");
  }
  for (const auto& [src, dst] : edges) {
    if (src >= node_count || dst >= node_count) {
      return InvalidArgument("edge references vertex out of range");
    }
  }
  CsrGraph graph(store, graph_id);
  graph.node_count_ = node_count;
  graph.edge_count_ = edges.size();

  // Counting sort into CSR form.
  std::vector<uint64_t> offsets(node_count + 1, 0);
  for (const auto& [src, dst] : edges) {
    ++offsets[src + 1];
  }
  for (uint32_t v = 0; v < node_count; ++v) {
    offsets[v + 1] += offsets[v];
  }
  std::vector<uint32_t> adjacency(edges.size());
  std::vector<uint64_t> cursor(offsets.begin(), offsets.end() - 1);
  for (const auto& [src, dst] : edges) {
    adjacency[cursor[src]++] = dst;
  }

  Bytes offsets_bytes;
  offsets_bytes.reserve(offsets.size() * 8);
  for (uint64_t off : offsets) {
    PutU64(offsets_bytes, off);
  }
  Bytes edges_bytes;
  edges_bytes.reserve(adjacency.size() * 4);
  for (uint32_t dst : adjacency) {
    PutU32(edges_bytes, dst);
  }
  if (edges_bytes.empty()) {
    edges_bytes.resize(4, 0);  // segments cannot be zero-sized
  }
  RETURN_IF_ERROR(store->CreateWithId(graph.OffsetsSegment(), offsets_bytes.size(), hints));
  RETURN_IF_ERROR(store->Write(graph.OffsetsSegment(), 0,
                               ByteSpan(offsets_bytes.data(), offsets_bytes.size())));
  RETURN_IF_ERROR(store->CreateWithId(graph.EdgesSegment(), edges_bytes.size(), hints));
  RETURN_IF_ERROR(store->Write(graph.EdgesSegment(), 0,
                               ByteSpan(edges_bytes.data(), edges_bytes.size())));
  return graph;
}

Result<std::pair<uint64_t, uint64_t>> CsrGraph::EdgeRange(uint32_t v) {
  if (v >= node_count_) {
    return InvalidArgument("vertex out of range");
  }
  ++segment_reads_;
  ASSIGN_OR_RETURN(Bytes raw, store_->Read(OffsetsSegment(), static_cast<uint64_t>(v) * 8, 16));
  return std::make_pair(GetU64(raw, 0), GetU64(raw, 8));
}

Result<std::vector<uint32_t>> CsrGraph::Neighbors(uint32_t v) {
  ASSIGN_OR_RETURN(auto range, EdgeRange(v));
  std::vector<uint32_t> out;
  if (range.second == range.first) {
    return out;
  }
  ++segment_reads_;
  ASSIGN_OR_RETURN(Bytes raw, store_->Read(EdgesSegment(), range.first * 4,
                                           (range.second - range.first) * 4));
  out.reserve(range.second - range.first);
  for (uint64_t i = 0; i < range.second - range.first; ++i) {
    out.push_back(GetU32(raw, i * 4));
  }
  return out;
}

Result<std::vector<uint32_t>> CsrGraph::Bfs(uint32_t source) {
  if (source >= node_count_) {
    return InvalidArgument("source out of range");
  }
  std::vector<uint32_t> distance(node_count_, kNoPath);
  distance[source] = 0;
  std::deque<uint32_t> frontier{source};
  while (!frontier.empty()) {
    const uint32_t v = frontier.front();
    frontier.pop_front();
    ASSIGN_OR_RETURN(std::vector<uint32_t> neighbors, Neighbors(v));
    for (uint32_t next : neighbors) {
      if (distance[next] == kNoPath) {
        distance[next] = distance[v] + 1;
        frontier.push_back(next);
      }
    }
  }
  return distance;
}

Result<std::vector<double>> CsrGraph::PageRank(uint32_t iterations, double damping) {
  if (damping <= 0.0 || damping >= 1.0) {
    return InvalidArgument("damping must be in (0,1)");
  }
  const double n = static_cast<double>(node_count_);
  std::vector<double> rank(node_count_, 1.0 / n);
  std::vector<double> next(node_count_, 0.0);
  for (uint32_t iter = 0; iter < iterations; ++iter) {
    std::fill(next.begin(), next.end(), (1.0 - damping) / n);
    double dangling = 0.0;
    for (uint32_t v = 0; v < node_count_; ++v) {
      ASSIGN_OR_RETURN(std::vector<uint32_t> neighbors, Neighbors(v));
      if (neighbors.empty()) {
        dangling += rank[v];
        continue;
      }
      const double share = damping * rank[v] / static_cast<double>(neighbors.size());
      for (uint32_t dst : neighbors) {
        next[dst] += share;
      }
    }
    const double dangling_share = damping * dangling / n;
    for (double& r : next) {
      r += dangling_share;
    }
    rank.swap(next);
  }
  return rank;
}

}  // namespace hyperion::storage
