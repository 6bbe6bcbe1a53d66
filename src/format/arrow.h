// Columnar in-memory format (paper §2.3: "application-level object formats
// Parquet (on storage) and Arrow (in-memory)").
//
// A RecordBatch is a set of equal-length typed column vectors — the
// data-in-motion representation Hyperion's accelerators operate on. Three
// physical types cover the analytics experiments: int64, float64, and
// dictionary-encodable strings.

#ifndef HYPERION_SRC_FORMAT_ARROW_H_
#define HYPERION_SRC_FORMAT_ARROW_H_

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "src/common/result.h"

namespace hyperion::format {

enum class ColumnType : uint8_t { kInt64 = 0, kFloat64 = 1, kString = 2 };

struct Field {
  std::string name;
  ColumnType type = ColumnType::kInt64;
};

using Schema = std::vector<Field>;

// One column's data; the variant alternative must match the schema type.
using ColumnData =
    std::variant<std::vector<int64_t>, std::vector<double>, std::vector<std::string>>;

class RecordBatch {
 public:
  RecordBatch(Schema schema, std::vector<ColumnData> columns);

  // Validated construction: checks column count, types, equal lengths.
  static Result<RecordBatch> Make(Schema schema, std::vector<ColumnData> columns);

  const Schema& schema() const { return schema_; }
  uint64_t rows() const { return rows_; }
  size_t ColumnCount() const { return columns_.size(); }

  Result<size_t> ColumnIndex(const std::string& name) const;

  const std::vector<int64_t>& Int64Column(size_t i) const;
  const std::vector<double>& Float64Column(size_t i) const;
  const std::vector<std::string>& StringColumn(size_t i) const;
  const ColumnData& column(size_t i) const { return columns_[i]; }

  // Row-filtered copy (selection vector semantics).
  RecordBatch Take(const std::vector<uint32_t>& row_indices) const;

 private:
  Schema schema_;
  std::vector<ColumnData> columns_;
  uint64_t rows_ = 0;
};

}  // namespace hyperion::format

#endif  // HYPERION_SRC_FORMAT_ARROW_H_
