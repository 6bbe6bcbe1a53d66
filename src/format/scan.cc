#include "src/format/scan.h"

#include <algorithm>
#include <map>

namespace hyperion::format {

Result<Int64Aggregates> AggregateInt64(const RecordBatch& batch, const std::string& column) {
  ASSIGN_OR_RETURN(size_t idx, batch.ColumnIndex(column));
  if (batch.schema()[idx].type != ColumnType::kInt64) {
    return InvalidArgument("not an int64 column");
  }
  const auto& values = batch.Int64Column(idx);
  Int64Aggregates agg;
  if (values.empty()) {
    return agg;
  }
  agg.count = values.size();
  agg.min = values[0];
  agg.max = values[0];
  for (int64_t v : values) {
    agg.sum = WrapAddInt64(agg.sum, v);
    agg.min = std::min(agg.min, v);
    agg.max = std::max(agg.max, v);
  }
  return agg;
}

Result<RecordBatch> FilterInt64(const RecordBatch& batch, const std::string& column, int64_t lo,
                                int64_t hi) {
  ASSIGN_OR_RETURN(size_t idx, batch.ColumnIndex(column));
  if (batch.schema()[idx].type != ColumnType::kInt64) {
    return InvalidArgument("not an int64 column");
  }
  const auto& values = batch.Int64Column(idx);
  std::vector<uint32_t> selected;
  for (uint32_t r = 0; r < values.size(); ++r) {
    if (values[r] >= lo && values[r] <= hi) {
      selected.push_back(r);
    }
  }
  return batch.Take(selected);
}

Result<std::vector<std::pair<std::string, int64_t>>> GroupedSum(const RecordBatch& batch,
                                                                const std::string& group_col,
                                                                const std::string& value_col) {
  ASSIGN_OR_RETURN(size_t gidx, batch.ColumnIndex(group_col));
  ASSIGN_OR_RETURN(size_t vidx, batch.ColumnIndex(value_col));
  if (batch.schema()[gidx].type != ColumnType::kString ||
      batch.schema()[vidx].type != ColumnType::kInt64) {
    return InvalidArgument("GroupedSum needs (string, int64) columns");
  }
  const auto& groups = batch.StringColumn(gidx);
  const auto& values = batch.Int64Column(vidx);
  std::map<std::string, int64_t> sums;
  for (size_t r = 0; r < groups.size(); ++r) {
    int64_t& sum = sums[groups[r]];
    sum = WrapAddInt64(sum, values[r]);
  }
  return std::vector<std::pair<std::string, int64_t>>(sums.begin(), sums.end());
}

}  // namespace hyperion::format
