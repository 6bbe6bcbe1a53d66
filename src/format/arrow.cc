#include "src/format/arrow.h"

#include "src/common/check.h"

namespace hyperion::format {

namespace {
uint64_t LengthOf(const ColumnData& column) {
  return std::visit([](const auto& v) { return static_cast<uint64_t>(v.size()); }, column);
}

bool TypeMatches(const ColumnData& column, ColumnType type) {
  switch (type) {
    case ColumnType::kInt64:
      return std::holds_alternative<std::vector<int64_t>>(column);
    case ColumnType::kFloat64:
      return std::holds_alternative<std::vector<double>>(column);
    case ColumnType::kString:
      return std::holds_alternative<std::vector<std::string>>(column);
  }
  return false;
}
}  // namespace

RecordBatch::RecordBatch(Schema schema, std::vector<ColumnData> columns)
    : schema_(std::move(schema)), columns_(std::move(columns)) {
  CHECK_EQ(schema_.size(), columns_.size());
  rows_ = columns_.empty() ? 0 : LengthOf(columns_[0]);
  for (size_t i = 0; i < columns_.size(); ++i) {
    CHECK(TypeMatches(columns_[i], schema_[i].type)) << "column " << i << " type mismatch";
    CHECK_EQ(LengthOf(columns_[i]), rows_) << "ragged column " << i;
  }
}

Result<RecordBatch> RecordBatch::Make(Schema schema, std::vector<ColumnData> columns) {
  if (schema.size() != columns.size()) {
    return InvalidArgument("schema/column count mismatch");
  }
  const uint64_t rows = columns.empty() ? 0 : LengthOf(columns[0]);
  for (size_t i = 0; i < columns.size(); ++i) {
    if (!TypeMatches(columns[i], schema[i].type)) {
      return InvalidArgument("column type does not match schema");
    }
    if (LengthOf(columns[i]) != rows) {
      return InvalidArgument("ragged columns");
    }
  }
  return RecordBatch(std::move(schema), std::move(columns));
}

Result<size_t> RecordBatch::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < schema_.size(); ++i) {
    if (schema_[i].name == name) {
      return i;
    }
  }
  return NotFound("no column named " + name);
}

const std::vector<int64_t>& RecordBatch::Int64Column(size_t i) const {
  return std::get<std::vector<int64_t>>(columns_[i]);
}

const std::vector<double>& RecordBatch::Float64Column(size_t i) const {
  return std::get<std::vector<double>>(columns_[i]);
}

const std::vector<std::string>& RecordBatch::StringColumn(size_t i) const {
  return std::get<std::vector<std::string>>(columns_[i]);
}

RecordBatch RecordBatch::Take(const std::vector<uint32_t>& row_indices) const {
  std::vector<ColumnData> out;
  out.reserve(columns_.size());
  for (const ColumnData& column : columns_) {
    out.push_back(std::visit(
        [&row_indices](const auto& v) -> ColumnData {
          std::decay_t<decltype(v)> taken;
          taken.reserve(row_indices.size());
          for (uint32_t idx : row_indices) {
            CHECK_LT(idx, v.size());
            taken.push_back(v[idx]);
          }
          return taken;
        },
        column));
  }
  return RecordBatch(schema_, std::move(out));
}

}  // namespace hyperion::format
