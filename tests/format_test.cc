// Tests for the columnar formats: Arrow-style batches, Parquet-style files
// (encodings, zone maps, projection pushdown), and the scan kernels.

#include <gtest/gtest.h>

#include <functional>
#include <limits>

#include "src/common/bytes.h"
#include "src/common/check.h"
#include "src/format/arrow.h"
#include "src/format/parquet.h"
#include "src/format/scan.h"

namespace hyperion::format {
namespace {

RecordBatch SampleBatch(int64_t rows) {
  std::vector<int64_t> ids;
  std::vector<double> prices;
  std::vector<std::string> regions;
  const std::string region_names[] = {"emea", "apac", "amer"};
  for (int64_t r = 0; r < rows; ++r) {
    ids.push_back(r);
    prices.push_back(static_cast<double>(r) * 1.5);
    regions.push_back(region_names[r % 3]);
  }
  return RecordBatch(
      Schema{{"id", ColumnType::kInt64}, {"price", ColumnType::kFloat64},
             {"region", ColumnType::kString}},
      {std::move(ids), std::move(prices), std::move(regions)});
}

// -- RecordBatch ------------------------------------------------------------

TEST(RecordBatchTest, MakeValidates) {
  EXPECT_FALSE(RecordBatch::Make(Schema{{"a", ColumnType::kInt64}}, {}).ok());
  EXPECT_FALSE(RecordBatch::Make(Schema{{"a", ColumnType::kInt64}},
                                 {std::vector<double>{1.0}})
                   .ok());
  EXPECT_FALSE(RecordBatch::Make(
                   Schema{{"a", ColumnType::kInt64}, {"b", ColumnType::kInt64}},
                   {std::vector<int64_t>{1}, std::vector<int64_t>{1, 2}})
                   .ok());
  EXPECT_TRUE(RecordBatch::Make(Schema{{"a", ColumnType::kInt64}},
                                {std::vector<int64_t>{1, 2, 3}})
                  .ok());
}

TEST(RecordBatchTest, TakeSelectsRows) {
  RecordBatch batch = SampleBatch(10);
  RecordBatch taken = batch.Take({1, 3, 5});
  EXPECT_EQ(taken.rows(), 3u);
  EXPECT_EQ(taken.Int64Column(0)[1], 3);
  EXPECT_EQ(taken.StringColumn(2)[2], "amer");  // row 5 -> 5 % 3 == 2
}

TEST(RecordBatchTest, ColumnIndexByName) {
  RecordBatch batch = SampleBatch(3);
  EXPECT_EQ(*batch.ColumnIndex("price"), 1u);
  EXPECT_FALSE(batch.ColumnIndex("absent").ok());
}

// -- Parquet ------------------------------------------------------------------

TEST(ParquetTest, RoundTripAllTypes) {
  RecordBatch batch = SampleBatch(1000);
  auto file = WriteParquet(batch, {.rows_per_group = 256});
  ASSERT_TRUE(file.ok());
  auto reader = ParquetReader::OpenBuffer(*file);
  ASSERT_TRUE(reader.ok());
  EXPECT_EQ(reader->TotalRows(), 1000u);
  EXPECT_EQ(reader->RowGroupCount(), 4u);  // 256*3 + 232
  uint64_t rows_seen = 0;
  for (size_t g = 0; g < reader->RowGroupCount(); ++g) {
    auto group = reader->ReadRowGroup(g);
    ASSERT_TRUE(group.ok());
    for (uint64_t r = 0; r < group->rows(); ++r) {
      const int64_t id = group->Int64Column(0)[r];
      EXPECT_EQ(group->Float64Column(1)[r], static_cast<double>(id) * 1.5);
      EXPECT_EQ(group->StringColumn(2)[r], SampleBatch(1).StringColumn(2)[0].empty()
                                               ? ""
                                               : (id % 3 == 0   ? "emea"
                                                  : id % 3 == 1 ? "apac"
                                                                : "amer"));
      ++rows_seen;
    }
  }
  EXPECT_EQ(rows_seen, 1000u);
}

TEST(ParquetTest, RlePicksConstantColumns) {
  std::vector<int64_t> constant(5000, 42);
  RecordBatch batch(Schema{{"c", ColumnType::kInt64}}, {std::move(constant)});
  auto file = WriteParquet(batch);
  ASSERT_TRUE(file.ok());
  // RLE collapses 5000*8 bytes to a handful of runs: file is tiny.
  EXPECT_LT(file->size(), 2000u);
  auto reader = ParquetReader::OpenBuffer(*file);
  ASSERT_TRUE(reader.ok());
  auto group = reader->ReadRowGroup(0);
  ASSERT_TRUE(group.ok());
  EXPECT_EQ(group->Int64Column(0)[4095], 42);
}

TEST(ParquetTest, DictionaryCompressesLowCardinalityStrings) {
  std::vector<std::string> repeated;
  for (int i = 0; i < 4000; ++i) {
    repeated.push_back(i % 2 == 0 ? "warehouse-east-1" : "warehouse-west-2");
  }
  RecordBatch batch(Schema{{"w", ColumnType::kString}}, {std::move(repeated)});
  auto file = WriteParquet(batch);
  ASSERT_TRUE(file.ok());
  // Plain would be > 4000*20 bytes; dictionary is ~4 bytes/row.
  EXPECT_LT(file->size(), 4000 * 8);
  auto reader = ParquetReader::OpenBuffer(*file);
  ASSERT_TRUE(reader.ok());
  auto group = reader->ReadRowGroup(0);
  ASSERT_TRUE(group.ok());
  EXPECT_EQ(group->StringColumn(0)[1], "warehouse-west-2");
}

TEST(ParquetTest, ProjectionPushdownFetchesFewerBytes) {
  RecordBatch batch = SampleBatch(10000);
  auto file = WriteParquet(batch, {.rows_per_group = 2048});
  ASSERT_TRUE(file.ok());
  auto full = ParquetReader::OpenBuffer(*file);
  ASSERT_TRUE(full.ok());
  for (size_t g = 0; g < full->RowGroupCount(); ++g) {
    ASSERT_TRUE(full->ReadRowGroup(g).ok());
  }
  auto projected = ParquetReader::OpenBuffer(*file);
  ASSERT_TRUE(projected.ok());
  for (size_t g = 0; g < projected->RowGroupCount(); ++g) {
    ASSERT_TRUE(projected->ReadRowGroup(g, {"id"}).ok());
  }
  EXPECT_LT(projected->bytes_fetched(), full->bytes_fetched() / 2);
}

TEST(ParquetTest, ZoneMapsSkipRowGroups) {
  RecordBatch batch = SampleBatch(10000);  // ids 0..9999, sorted
  auto file = WriteParquet(batch, {.rows_per_group = 1000});
  ASSERT_TRUE(file.ok());
  auto reader = ParquetReader::OpenBuffer(*file);
  ASSERT_TRUE(reader.ok());
  auto rows = reader->ScanInt64Filter("id", 5100, 5200, {"id", "price"});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows(), 101u);
  // 10 groups, only the one holding [5000,6000) touched.
  EXPECT_EQ(reader->groups_skipped(), 9u);
}

TEST(ParquetTest, EmptyFilterResultKeepsSchema) {
  RecordBatch batch = SampleBatch(100);
  auto file = WriteParquet(batch);
  ASSERT_TRUE(file.ok());
  auto reader = ParquetReader::OpenBuffer(*file);
  ASSERT_TRUE(reader.ok());
  auto rows = reader->ScanInt64Filter("id", 100000, 200000, {"price"});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows(), 0u);
  EXPECT_TRUE(rows->ColumnIndex("price").ok());
}

TEST(ParquetTest, CorruptFooterDetected) {
  RecordBatch batch = SampleBatch(100);
  auto file = WriteParquet(batch);
  ASSERT_TRUE(file.ok());
  Bytes tampered = *file;
  tampered[tampered.size() - 20] ^= 0xff;  // inside the footer
  EXPECT_EQ(ParquetReader::OpenBuffer(tampered).status().code(), StatusCode::kDataLoss);
}

TEST(ParquetTest, NotAParquetFile) {
  Bytes junk(100, 0xab);
  EXPECT_FALSE(ParquetReader::OpenBuffer(junk).ok());
}

// -- Scan kernels ------------------------------------------------------------

TEST(ScanTest, AggregateInt64) {
  RecordBatch batch = SampleBatch(100);  // ids 0..99
  auto agg = AggregateInt64(batch, "id");
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->count, 100u);
  EXPECT_EQ(agg->sum, 4950);
  EXPECT_EQ(agg->min, 0);
  EXPECT_EQ(agg->max, 99);
}

TEST(ScanTest, FilterInt64) {
  RecordBatch batch = SampleBatch(100);
  auto filtered = FilterInt64(batch, "id", 10, 19);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->rows(), 10u);
  EXPECT_EQ(filtered->Int64Column(0)[0], 10);
}

TEST(ScanTest, GroupedSum) {
  RecordBatch batch = SampleBatch(6);  // regions cycle emea,apac,amer
  auto grouped = GroupedSum(batch, "region", "id");
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ(grouped->size(), 3u);
  // amer: ids 2+5=7; apac: 1+4=5; emea: 0+3=3 (sorted by name).
  EXPECT_EQ((*grouped)[0], (std::pair<std::string, int64_t>{"amer", 7}));
  EXPECT_EQ((*grouped)[1], (std::pair<std::string, int64_t>{"apac", 5}));
  EXPECT_EQ((*grouped)[2], (std::pair<std::string, int64_t>{"emea", 3}));
}

TEST(ScanTest, TypeMismatchRejected) {
  RecordBatch batch = SampleBatch(5);
  EXPECT_FALSE(AggregateInt64(batch, "price").ok());
  EXPECT_FALSE(GroupedSum(batch, "id", "region").ok());
}

// -- Scan kernel edge cases (PR 10 satellite) ---------------------------------

TEST(ScanTest, EmptyBatchYieldsZeroAggregateWithCountDiscriminant) {
  RecordBatch empty(Schema{{"v", ColumnType::kInt64}}, {std::vector<int64_t>{}});
  auto agg = AggregateInt64(empty, "v");
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->count, 0u);
  EXPECT_EQ(agg->sum, 0);
  EXPECT_EQ(agg->min, 0);
  EXPECT_EQ(agg->max, 0);
  auto filtered = FilterInt64(empty, "v", 0, 100);
  ASSERT_TRUE(filtered.ok());
  EXPECT_EQ(filtered->rows(), 0u);
}

TEST(ScanTest, EmptyBatchGroupedSumIsEmpty) {
  RecordBatch empty(Schema{{"g", ColumnType::kString}, {"v", ColumnType::kInt64}},
                    {std::vector<std::string>{}, std::vector<int64_t>{}});
  auto grouped = GroupedSum(empty, "g", "v");
  ASSERT_TRUE(grouped.ok());
  EXPECT_TRUE(grouped->empty());
}

TEST(ScanTest, MissingColumnIsNotFoundEverywhere) {
  RecordBatch batch = SampleBatch(5);
  EXPECT_EQ(AggregateInt64(batch, "absent").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(FilterInt64(batch, "absent", 0, 1).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(GroupedSum(batch, "absent", "id").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(GroupedSum(batch, "region", "absent").status().code(), StatusCode::kNotFound);
}

TEST(ScanTest, AggregateSumWrapsModulo2To64) {
  // INT64_MAX + 1 wraps to INT64_MIN — defined two's-complement semantics,
  // never UB, exactly what a 64-bit hardware accumulator produces.
  RecordBatch batch(Schema{{"v", ColumnType::kInt64}},
                    {std::vector<int64_t>{std::numeric_limits<int64_t>::max(), 1}});
  auto agg = AggregateInt64(batch, "v");
  ASSERT_TRUE(agg.ok());
  EXPECT_EQ(agg->sum, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(agg->min, 1);
  EXPECT_EQ(agg->max, std::numeric_limits<int64_t>::max());
  // And back again: MIN + MIN + MAX + MAX == -2 (mod 2^64).
  RecordBatch wrap(Schema{{"v", ColumnType::kInt64}},
                   {std::vector<int64_t>{std::numeric_limits<int64_t>::min(),
                                         std::numeric_limits<int64_t>::min(),
                                         std::numeric_limits<int64_t>::max(),
                                         std::numeric_limits<int64_t>::max()}});
  auto wrapped = AggregateInt64(wrap, "v");
  ASSERT_TRUE(wrapped.ok());
  EXPECT_EQ(wrapped->sum, -2);
}

TEST(ScanTest, GroupedSumWrapsModulo2To64) {
  RecordBatch batch(Schema{{"g", ColumnType::kString}, {"v", ColumnType::kInt64}},
                    {std::vector<std::string>{"a", "a"},
                     std::vector<int64_t>{std::numeric_limits<int64_t>::max(), 1}});
  auto grouped = GroupedSum(batch, "g", "v");
  ASSERT_TRUE(grouped.ok());
  ASSERT_EQ(grouped->size(), 1u);
  EXPECT_EQ((*grouped)[0].second, std::numeric_limits<int64_t>::min());
}

// -- Zone-map boundary semantics (PR 10 satellite) ----------------------------

// One row group holding exactly [lo_val, hi_val] on column "v".
Bytes OneGroupFile(int64_t lo_val, int64_t hi_val, bool zone_maps = true) {
  std::vector<int64_t> values;
  for (int64_t v = lo_val; v <= hi_val; ++v) {
    values.push_back(v);
  }
  RecordBatch batch(Schema{{"v", ColumnType::kInt64}}, {std::move(values)});
  ParquetWriteOptions options;
  options.zone_maps = zone_maps;
  auto file = WriteParquet(batch, options);
  CHECK_OK(file.status());
  return *file;
}

// Scans [lo, hi] over a single-group file of values [10, 20] and reports
// (rows matched, groups skipped).
std::pair<uint64_t, uint64_t> ScanOneGroup(int64_t lo, int64_t hi, bool zone_maps = true) {
  auto reader = ParquetReader::OpenBuffer(OneGroupFile(10, 20, zone_maps));
  CHECK_OK(reader.status());
  auto rows = reader->ScanInt64Filter("v", lo, hi, {"v"});
  CHECK_OK(rows.status());
  return {rows->rows(), reader->groups_skipped()};
}

TEST(ZoneMapTest, PredicateTouchingMaxEdgeIsNotSkipped) {
  // hi == group min and lo == group max: both ends inclusive, the group
  // must be read and yields exactly the edge row.
  EXPECT_EQ(ScanOneGroup(0, 10), (std::pair<uint64_t, uint64_t>{1, 0}));
  EXPECT_EQ(ScanOneGroup(20, 300), (std::pair<uint64_t, uint64_t>{1, 0}));
  EXPECT_EQ(ScanOneGroup(10, 20), (std::pair<uint64_t, uint64_t>{11, 0}));
  // Point predicates at each edge.
  EXPECT_EQ(ScanOneGroup(10, 10), (std::pair<uint64_t, uint64_t>{1, 0}));
  EXPECT_EQ(ScanOneGroup(20, 20), (std::pair<uint64_t, uint64_t>{1, 0}));
}

TEST(ZoneMapTest, PredicateOneOffTheEdgeIsSkipped) {
  // hi == min-1 / lo == max+1: provably empty, the group is pruned.
  EXPECT_EQ(ScanOneGroup(0, 9), (std::pair<uint64_t, uint64_t>{0, 1}));
  EXPECT_EQ(ScanOneGroup(21, 300), (std::pair<uint64_t, uint64_t>{0, 1}));
}

TEST(ZoneMapTest, Int64ExtremesDoNotOverflowThePredicate) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  // Full-range predicate never skips and matches everything.
  EXPECT_EQ(ScanOneGroup(kMin, kMax), (std::pair<uint64_t, uint64_t>{11, 0}));
  // Degenerate extreme point predicates skip without wrapping.
  EXPECT_EQ(ScanOneGroup(kMin, kMin), (std::pair<uint64_t, uint64_t>{0, 1}));
  EXPECT_EQ(ScanOneGroup(kMax, kMax), (std::pair<uint64_t, uint64_t>{0, 1}));
  // A group holding the extremes themselves is matched at each edge.
  RecordBatch batch(Schema{{"v", ColumnType::kInt64}},
                    {std::vector<int64_t>{kMin, 0, kMax}});
  auto file = WriteParquet(batch);
  ASSERT_TRUE(file.ok());
  auto reader = ParquetReader::OpenBuffer(*file);
  ASSERT_TRUE(reader.ok());
  auto low = reader->ScanInt64Filter("v", kMin, kMin, {"v"});
  ASSERT_TRUE(low.ok());
  EXPECT_EQ(low->rows(), 1u);
  auto high = reader->ScanInt64Filter("v", kMax, kMax, {"v"});
  ASSERT_TRUE(high.ok());
  EXPECT_EQ(high->rows(), 1u);
}

TEST(ZoneMapTest, GroupsWithoutZoneMapsAreNeverSkipped) {
  // Same file written without zone maps: no predicate may prune anything,
  // and results must equal the zone-mapped file's.
  EXPECT_EQ(ScanOneGroup(0, 9, /*zone_maps=*/false), (std::pair<uint64_t, uint64_t>{0, 0}));
  EXPECT_EQ(ScanOneGroup(21, 300, /*zone_maps=*/false),
            (std::pair<uint64_t, uint64_t>{0, 0}));
  EXPECT_EQ(ScanOneGroup(10, 20, /*zone_maps=*/false),
            (std::pair<uint64_t, uint64_t>{11, 0}));
}

TEST(ZoneMapTest, ZoneMapExcludesPredicate) {
  ChunkMeta mapped;
  mapped.has_zone_map = true;
  mapped.min = 10;
  mapped.max = 20;
  EXPECT_FALSE(ZoneMapExcludes(mapped, 0, 10));   // touches min
  EXPECT_FALSE(ZoneMapExcludes(mapped, 20, 99));  // touches max
  EXPECT_TRUE(ZoneMapExcludes(mapped, 0, 9));
  EXPECT_TRUE(ZoneMapExcludes(mapped, 21, 99));
  ChunkMeta unmapped;  // has_zone_map == false
  unmapped.min = 10;
  unmapped.max = 20;
  EXPECT_FALSE(ZoneMapExcludes(unmapped, 0, 9));  // stale min/max ignored
}

// -- Corrupt/truncated input hardening (PR 10 satellite) ----------------------

// Rewrites the footer-size trailer field, recomputing nothing else: the
// trailer is outside the footer CRC, so this exercises the bounds checks.
Bytes WithFooterSize(Bytes file, uint32_t footer_size) {
  const size_t at = file.size() - 8;
  file[at + 0] = static_cast<uint8_t>(footer_size);
  file[at + 1] = static_cast<uint8_t>(footer_size >> 8);
  file[at + 2] = static_cast<uint8_t>(footer_size >> 16);
  file[at + 3] = static_cast<uint8_t>(footer_size >> 24);
  return file;
}

TEST(ParquetHardeningTest, FooterSizePastEofRejected) {
  Bytes file = OneGroupFile(10, 20);
  EXPECT_FALSE(ParquetReader::OpenBuffer(WithFooterSize(file, 0xffffffffu)).ok());
  EXPECT_FALSE(
      ParquetReader::OpenBuffer(WithFooterSize(file, static_cast<uint32_t>(file.size()))).ok());
  // footer_size + 12 must not wrap uint32 into a small "valid" value.
  EXPECT_FALSE(ParquetReader::OpenBuffer(WithFooterSize(file, 0xfffffff8u)).ok());
}

TEST(ParquetHardeningTest, TruncationsNeverCrash) {
  Bytes file = OneGroupFile(10, 20);
  for (size_t len = 0; len < file.size(); ++len) {
    Bytes prefix(file.begin(), file.begin() + static_cast<ptrdiff_t>(len));
    auto reader = ParquetReader::OpenBuffer(std::move(prefix));
    if (reader.ok()) {
      // A truncated file may still parse if the cut is before the footer
      // start (it isn't, for this layout) — but reading must then fail.
      EXPECT_FALSE(reader->ReadRowGroup(0).ok());
    }
  }
}

// Parses the footer, lets `mutate` edit the decoded footer bytes, then
// reassembles the file with a *recomputed* CRC — corruption that the
// checksum cannot catch, exercising the structural validation.
Bytes WithRewrittenFooter(const Bytes& file, const std::function<void(Bytes&)>& mutate) {
  const size_t trailer = file.size() - 8;
  const uint32_t footer_size = GetU32(file, trailer);
  const size_t footer_start = trailer - footer_size;
  // Footer layout ends with [crc u32] over the preceding footer bytes.
  Bytes footer(file.begin() + static_cast<ptrdiff_t>(footer_start),
               file.begin() + static_cast<ptrdiff_t>(trailer - 4));
  mutate(footer);
  Bytes out(file.begin(), file.begin() + static_cast<ptrdiff_t>(footer_start));
  PutBytes(out, footer);
  PutU32(out, Crc32c(footer));
  PutU32(out, static_cast<uint32_t>(footer.size() + 4));
  PutBytes(out, ByteSpan(file.data() + file.size() - 4, 4));  // magic
  return out;
}

TEST(ParquetHardeningTest, ChunkOffsetOverflowRejected) {
  Bytes file = OneGroupFile(10, 20);
  // Find the first chunk's offset field by scanning the footer for the
  // known (offset=4, bytes) pair is brittle; instead flip every u64-aligned
  // position to a huge value and require: never a crash, and if the reader
  // opens, reads fail or succeed cleanly.
  const size_t trailer = file.size() - 8;
  const uint32_t footer_size = GetU32(file, trailer);
  const size_t footer_len = footer_size - 4;
  for (size_t pos = 0; pos + 8 <= footer_len; ++pos) {
    Bytes evil = WithRewrittenFooter(file, [pos](Bytes& footer) {
      for (size_t i = 0; i < 8; ++i) {
        footer[pos + i] = 0xff;
      }
    });
    auto reader = ParquetReader::OpenBuffer(std::move(evil));
    if (reader.ok()) {
      for (size_t g = 0; g < reader->RowGroupCount(); ++g) {
        (void)reader->ReadRowGroup(g);  // must not crash or hang
      }
    }
  }
}

TEST(ParquetHardeningTest, DictionaryIndexOutOfRangeRejected) {
  std::vector<std::string> repeated;
  for (int i = 0; i < 512; ++i) {
    repeated.push_back(i % 2 == 0 ? "alpha" : "beta");
  }
  RecordBatch batch(Schema{{"s", ColumnType::kString}}, {std::move(repeated)});
  auto file = WriteParquet(batch);
  ASSERT_TRUE(file.ok());
  // Dictionary chunk layout: [entries u32][dict strings][indices u32 * rows].
  // Smash every index to a large value; decode must reject, not index OOR.
  Bytes evil = *file;
  bool corrupted_something = false;
  for (size_t at = 4; at + 4 < 200 && at + 4 < evil.size(); ++at) {
    evil[at] = 0xee;
    corrupted_something = true;
  }
  ASSERT_TRUE(corrupted_something);
  auto reader = ParquetReader::OpenBuffer(std::move(evil));
  if (reader.ok()) {
    auto group = reader->ReadRowGroup(0);
    if (group.ok()) {
      EXPECT_EQ(group->rows(), 512u);
    }
  }
}

TEST(ParquetHardeningTest, ZoneMapOmittedFilesRoundTrip) {
  RecordBatch batch = SampleBatch(1000);
  auto file = WriteParquet(batch, {.rows_per_group = 256, .zone_maps = false});
  ASSERT_TRUE(file.ok());
  auto reader = ParquetReader::OpenBuffer(*file);
  ASSERT_TRUE(reader.ok());
  for (size_t g = 0; g < reader->RowGroupCount(); ++g) {
    const RowGroupMeta& meta = reader->GroupMeta(g);
    for (const ChunkMeta& chunk : meta.chunks) {
      EXPECT_FALSE(chunk.has_zone_map);
    }
  }
  auto rows = reader->ScanInt64Filter("id", 100, 199, {"id"});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->rows(), 100u);
  EXPECT_EQ(reader->groups_skipped(), 0u);
}

}  // namespace
}  // namespace hyperion::format
