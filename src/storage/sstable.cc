#include "src/storage/sstable.h"

#include <algorithm>

#include "src/common/bytes.h"
#include "src/common/check.h"

namespace hyperion::storage {

namespace {

constexpr uint32_t kFooterMagic = 0x4654534cu;  // "LSTF"
constexpr int kBloomHashes = 4;
constexpr uint64_t kBloomBitsPerKey = 10;
constexpr size_t kEntryHeader = 8 + 1 + 4;  // key + flag + len

uint64_t BloomHash(uint64_t key, uint64_t salt) {
  uint64_t x = key ^ (salt * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

void BloomAdd(std::vector<uint64_t>& bits, uint64_t key) {
  const uint64_t nbits = bits.size() * 64;
  for (int i = 0; i < kBloomHashes; ++i) {
    const uint64_t bit = BloomHash(key, static_cast<uint64_t>(i)) % nbits;
    bits[bit / 64] |= 1ull << (bit % 64);
  }
}

}  // namespace

bool BloomMayContain(const std::vector<uint64_t>& bits, uint64_t key) {
  if (bits.empty()) {
    return true;
  }
  const uint64_t nbits = bits.size() * 64;
  for (int i = 0; i < kBloomHashes; ++i) {
    const uint64_t bit = BloomHash(key, static_cast<uint64_t>(i)) % nbits;
    if ((bits[bit / 64] & (1ull << (bit % 64))) == 0) {
      return false;
    }
  }
  return true;
}

Result<BuiltTable> BuildTable(uint64_t id, uint32_t level, std::span<const LsmEntry> entries) {
  if (entries.empty()) {
    return InvalidArgument("cannot build an empty SSTable");
  }
  BuiltTable table;
  table.meta.id = id;
  table.meta.level = level;
  table.meta.min_key = entries.front().first;
  table.meta.max_key = entries.back().first;
  table.meta.entry_count = entries.size();
  const uint64_t bloom_words =
      std::max<uint64_t>(1, entries.size() * kBloomBitsPerKey / 64 + 1);
  table.index.bloom.assign(bloom_words, 0);

  // Pack entries into blocks, exact fit, zero padding to each boundary.
  Bytes& image = table.image;
  size_t block_start = 0;
  bool block_open = false;
  uint64_t prev_key = 0;
  bool first = true;
  for (const auto& [key, value] : entries) {
    if (!first && key <= prev_key) {
      return InvalidArgument("SSTable entries must be sorted and unique");
    }
    first = false;
    prev_key = key;
    const size_t entry_bytes = kEntryHeader + (value.has_value() ? value->size() : 0);
    if (entry_bytes > kSsBlockBytes) {
      return InvalidArgument("entry exceeds one SSTable block");
    }
    if (block_open && image.size() - block_start + entry_bytes > kSsBlockBytes) {
      image.resize(block_start + kSsBlockBytes, 0);  // pad; close the block
      block_open = false;
    }
    if (!block_open) {
      block_start = image.size();
      table.index.sparse.emplace_back(key,
                                      static_cast<uint32_t>(block_start / kSsBlockBytes));
      block_open = true;
    }
    BloomAdd(table.index.bloom, key);
    PutU64(image, key);
    image.push_back(value.has_value() ? 1 : 2);
    PutU32(image, value.has_value() ? static_cast<uint32_t>(value->size()) : 0);
    if (value.has_value()) {
      PutBytes(image, ByteSpan(value->data(), value->size()));
    }
  }
  if (block_open) {
    image.resize(block_start + kSsBlockBytes, 0);
  }
  table.meta.data_blocks = static_cast<uint32_t>(image.size() / kSsBlockBytes);

  // Footer: magic | meta echo | sparse index | bloom | crc, LBA padded.
  Bytes footer;
  PutU32(footer, kFooterMagic);
  PutU64(footer, table.meta.id);
  PutU32(footer, table.meta.level);
  PutU64(footer, table.meta.min_key);
  PutU64(footer, table.meta.max_key);
  PutU64(footer, table.meta.entry_count);
  PutU32(footer, table.meta.data_blocks);
  PutU32(footer, static_cast<uint32_t>(table.index.sparse.size()));
  for (const auto& [key, block] : table.index.sparse) {
    PutU64(footer, key);
    PutU32(footer, block);
  }
  PutU32(footer, static_cast<uint32_t>(table.index.bloom.size()));
  for (uint64_t word : table.index.bloom) {
    PutU64(footer, word);
  }
  PutU32(footer, Crc32c(ByteSpan(footer.data(), footer.size())));
  const size_t footer_blocks = (footer.size() + kSsBlockBytes - 1) / kSsBlockBytes;
  footer.resize(footer_blocks * kSsBlockBytes, 0);
  table.meta.footer_blocks = static_cast<uint32_t>(footer_blocks);
  PutBytes(image, ByteSpan(footer.data(), footer.size()));
  return table;
}

Result<Bytes> ReadTableBlocks(ZnsMedia* media, const TableMeta& meta, uint32_t first,
                              uint32_t count) {
  if (first > meta.TotalBlocks() || count > meta.TotalBlocks() - first) {
    return OutOfRange("block range past the table's extent");
  }
  Bytes out;
  out.reserve(static_cast<size_t>(count) * kSsBlockBytes);
  uint32_t logical = 0;
  for (const TableExtent& extent : meta.extents) {
    if (count == 0) {
      break;
    }
    if (first >= logical + extent.blocks) {
      logical += extent.blocks;
      continue;
    }
    const uint32_t skip = first - logical;
    const uint32_t take = std::min(extent.blocks - skip, count);
    ASSIGN_OR_RETURN(Bytes chunk, media->Read(extent.zone, extent.slba + skip, take));
    PutBytes(out, ByteSpan(chunk.data(), chunk.size()));
    first += take;
    count -= take;
    logical += extent.blocks;
  }
  if (count != 0) {
    return DataLoss("table extent list shorter than its block count");
  }
  return out;
}

Result<TableIndex> LoadTableIndex(ZnsMedia* media, const TableMeta& meta) {
  ASSIGN_OR_RETURN(Bytes raw, ReadTableBlocks(media, meta, meta.data_blocks,
                                              meta.footer_blocks));
  ByteReader reader{ByteSpan(raw.data(), raw.size())};
  if (reader.ReadU32() != kFooterMagic) {
    return DataLoss("SSTable footer magic mismatch");
  }
  TableMeta echo;
  echo.id = reader.ReadU64();
  echo.level = reader.ReadU32();
  echo.min_key = reader.ReadU64();
  echo.max_key = reader.ReadU64();
  echo.entry_count = reader.ReadU64();
  echo.data_blocks = reader.ReadU32();
  TableIndex index;
  const uint32_t n_sparse = reader.ReadU32();
  index.sparse.reserve(n_sparse);
  for (uint32_t i = 0; i < n_sparse && reader.Ok(); ++i) {
    const uint64_t key = reader.ReadU64();
    const uint32_t block = reader.ReadU32();
    index.sparse.emplace_back(key, block);
  }
  const uint32_t n_bloom = reader.ReadU32();
  index.bloom.reserve(n_bloom);
  for (uint32_t i = 0; i < n_bloom && reader.Ok(); ++i) {
    index.bloom.push_back(reader.ReadU64());
  }
  const size_t crc_at = reader.offset();
  const uint32_t stored_crc = reader.ReadU32();
  if (!reader.Ok()) {
    return DataLoss("truncated SSTable footer");
  }
  if (Crc32c(ByteSpan(raw.data(), crc_at)) != stored_crc) {
    return DataLoss("SSTable footer checksum mismatch");
  }
  if (echo.id != meta.id || echo.min_key != meta.min_key || echo.max_key != meta.max_key ||
      echo.entry_count != meta.entry_count || echo.data_blocks != meta.data_blocks) {
    return DataLoss("SSTable footer disagrees with the manifest");
  }
  return index;
}

Result<std::vector<LsmEntry>> ParseBlockEntries(ByteSpan blocks) {
  if (blocks.size() % kSsBlockBytes != 0) {
    return InvalidArgument("entry parse needs whole blocks");
  }
  std::vector<LsmEntry> out;
  for (size_t b = 0; b < blocks.size(); b += kSsBlockBytes) {
    ByteReader reader{blocks.subspan(b, kSsBlockBytes)};
    while (reader.remaining() >= kEntryHeader) {
      const uint64_t key = reader.ReadU64();
      const uint8_t flag = reader.ReadU8();
      const uint32_t len = reader.ReadU32();
      if (flag == 0) {
        break;  // zero padding reached
      }
      if (flag > 2) {
        return DataLoss("corrupt SSTable entry flag");
      }
      Bytes value = reader.ReadBytes(len);
      if (!reader.Ok()) {
        return DataLoss("torn SSTable block");
      }
      if (flag == 1) {
        out.emplace_back(key, std::make_optional(std::move(value)));
      } else {
        out.emplace_back(key, std::nullopt);
      }
    }
  }
  return out;
}

Result<std::optional<std::optional<Bytes>>> TableGet(ZnsMedia* media, const TableMeta& meta,
                                                     const TableIndex& index, uint64_t key,
                                                     uint64_t* blocks_read) {
  if (key < meta.min_key || key > meta.max_key) {
    return std::optional<std::optional<Bytes>>{};
  }
  if (!BloomMayContain(index.bloom, key)) {
    return std::optional<std::optional<Bytes>>{};
  }
  // Sparse index: the last block whose first key <= key.
  auto it = std::upper_bound(index.sparse.begin(), index.sparse.end(), key,
                             [](uint64_t k, const auto& e) { return k < e.first; });
  if (it == index.sparse.begin()) {
    return std::optional<std::optional<Bytes>>{};
  }
  --it;
  ASSIGN_OR_RETURN(Bytes block, ReadTableBlocks(media, meta, it->second, 1));
  if (blocks_read != nullptr) {
    ++*blocks_read;
  }
  ASSIGN_OR_RETURN(auto entries, ParseBlockEntries(ByteSpan(block.data(), block.size())));
  for (auto& [entry_key, value] : entries) {
    if (entry_key == key) {
      return std::make_optional(std::move(value));
    }
    if (entry_key > key) {
      break;
    }
  }
  return std::optional<std::optional<Bytes>>{};
}

Result<std::vector<LsmEntry>> ReadTableEntries(ZnsMedia* media, const TableMeta& meta,
                                               uint64_t* blocks_read) {
  ASSIGN_OR_RETURN(Bytes blocks, ReadTableBlocks(media, meta, 0, meta.data_blocks));
  if (blocks_read != nullptr) {
    *blocks_read += meta.data_blocks;
  }
  return ParseBlockEntries(ByteSpan(blocks.data(), blocks.size()));
}

}  // namespace hyperion::storage
