// Vectorized scan kernels over RecordBatches — the compute Hyperion's
// eHDL accelerator slots run against Parquet/Arrow data (paper §2.3's
// "end-to-end Parquet/Arrow object access pipeline").

#ifndef HYPERION_SRC_FORMAT_SCAN_H_
#define HYPERION_SRC_FORMAT_SCAN_H_

#include <cstdint>
#include <string>

#include "src/common/result.h"
#include "src/format/arrow.h"

namespace hyperion::format {

// a + b modulo 2^64 (two's-complement wrap) — what a 64-bit hardware
// accumulator does. Shared by every sum path so overflow is defined
// behaviour everywhere arbitrary table data flows.
inline int64_t WrapAddInt64(int64_t a, int64_t b) {
  return static_cast<int64_t>(static_cast<uint64_t>(a) + static_cast<uint64_t>(b));
}

struct Int64Aggregates {
  uint64_t count = 0;
  int64_t sum = 0;  // modulo 2^64 (two's-complement wrap), like the hardware
  int64_t min = 0;
  int64_t max = 0;

  bool operator==(const Int64Aggregates&) const = default;
};

// count/sum/min/max of an int64 column. An empty column yields the
// all-zero aggregate (count == 0 is the "no rows" discriminant). Sums wrap
// modulo 2^64 — never UB, pinned by tests at INT64_MAX/INT64_MIN.
Result<Int64Aggregates> AggregateInt64(const RecordBatch& batch, const std::string& column);

// Rows where `column` (int64) lies in [lo, hi].
Result<RecordBatch> FilterInt64(const RecordBatch& batch, const std::string& column, int64_t lo,
                                int64_t hi);

// SELECT group_col, SUM(value_col): grouped sum over a string column.
Result<std::vector<std::pair<std::string, int64_t>>> GroupedSum(const RecordBatch& batch,
                                                                const std::string& group_col,
                                                                const std::string& value_col);

}  // namespace hyperion::format

#endif  // HYPERION_SRC_FORMAT_SCAN_H_
