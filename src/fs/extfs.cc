#include "src/fs/extfs.h"

#include <algorithm>
#include <sstream>

#include "src/common/check.h"

namespace hyperion::fs {

namespace {

// On-disk inode layout within its 256-byte slot:
//   [0]      kind
//   [8..16)  size
//   [16]     extent count
//   [24+12i) extent i: start_block u64, block_count u32
Bytes SerializeInode(const Inode& inode) {
  Bytes out(kInodeDiskSize, 0);
  out[0] = static_cast<uint8_t>(inode.kind);
  for (int i = 0; i < 8; ++i) {
    out[8 + static_cast<size_t>(i)] = static_cast<uint8_t>(inode.size >> (8 * i));
  }
  CHECK_LE(inode.extents.size(), kMaxExtentsPerInode);
  out[16] = static_cast<uint8_t>(inode.extents.size());
  for (size_t e = 0; e < inode.extents.size(); ++e) {
    const size_t base = 24 + e * 12;
    for (int i = 0; i < 8; ++i) {
      out[base + static_cast<size_t>(i)] =
          static_cast<uint8_t>(inode.extents[e].start_block >> (8 * i));
    }
    for (int i = 0; i < 4; ++i) {
      out[base + 8 + static_cast<size_t>(i)] =
          static_cast<uint8_t>(inode.extents[e].block_count >> (8 * i));
    }
  }
  return out;
}

Inode DeserializeInode(ByteSpan slot) {
  Inode inode;
  inode.kind = static_cast<InodeKind>(slot[0]);
  inode.size = GetU64(slot, 8);
  const uint8_t count = slot[16];
  for (uint8_t e = 0; e < count && e < kMaxExtentsPerInode; ++e) {
    const size_t base = 24 + static_cast<size_t>(e) * 12;
    Extent ext;
    ext.start_block = GetU64(slot, base);
    ext.block_count = GetU32(slot, base + 8);
    inode.extents.push_back(ext);
  }
  return inode;
}

Bytes SerializeSuper(const SuperBlock& sb) {
  Bytes out;
  PutU32(out, sb.magic);
  PutU64(out, sb.total_blocks);
  PutU64(out, sb.bitmap_start);
  PutU64(out, sb.bitmap_blocks);
  PutU64(out, sb.inode_table_start);
  PutU64(out, sb.inode_count);
  PutU64(out, sb.data_start);
  PutU32(out, Crc32c(ByteSpan(out.data(), out.size())));
  out.resize(kBlockSize, 0);
  return out;
}

Result<SuperBlock> DeserializeSuper(ByteSpan block) {
  SuperBlock sb;
  sb.magic = GetU32(block, 0);
  if (sb.magic != SuperBlock{}.magic) {
    return DataLoss("bad superblock magic (not an ExtFs volume?)");
  }
  sb.total_blocks = GetU64(block, 4);
  sb.bitmap_start = GetU64(block, 12);
  sb.bitmap_blocks = GetU64(block, 20);
  sb.inode_table_start = GetU64(block, 28);
  sb.inode_count = GetU64(block, 36);
  sb.data_start = GetU64(block, 44);
  const uint32_t stored = GetU32(block, 52);
  if (Crc32c(block.subspan(0, 52)) != stored) {
    return DataLoss("superblock checksum mismatch");
  }
  return sb;
}

std::vector<std::string> SplitPath(const std::string& path) {
  std::vector<std::string> parts;
  std::string current;
  for (char c : path) {
    if (c == '/') {
      if (!current.empty()) {
        parts.push_back(std::move(current));
        current.clear();
      }
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) {
    parts.push_back(std::move(current));
  }
  return parts;
}

}  // namespace

Result<Bytes> ExtFs::ReadBlock(uint64_t block, bool metadata) {
  (metadata ? metadata_ios_ : data_ios_)++;
  return nvme_->Read(nsid_, block, 1);
}

Status ExtFs::WriteBlock(uint64_t block, ByteSpan data, bool metadata) {
  (metadata ? metadata_ios_ : data_ios_)++;
  DCHECK_EQ(data.size(), kBlockSize);
  return nvme_->Write(nsid_, block, data);
}

Result<ExtFs> ExtFs::Format(nvme::Controller* nvme, uint32_t nsid, uint64_t inode_count) {
  ASSIGN_OR_RETURN(uint64_t total_blocks, nvme->NamespaceCapacity(nsid));
  ExtFs fs(nvme, nsid);
  SuperBlock sb;
  sb.total_blocks = total_blocks;
  sb.bitmap_start = 1;
  sb.bitmap_blocks = (total_blocks + kBlockSize * 8 - 1) / (kBlockSize * 8);
  sb.inode_table_start = sb.bitmap_start + sb.bitmap_blocks;
  sb.inode_count = inode_count;
  const uint64_t inode_blocks = (inode_count + kInodesPerBlock - 1) / kInodesPerBlock;
  sb.data_start = sb.inode_table_start + inode_blocks;
  if (sb.data_start + 16 > total_blocks) {
    return InvalidArgument("namespace too small for this geometry");
  }
  fs.super_ = sb;
  RETURN_IF_ERROR(fs.WriteSuper());
  // Zero the bitmap and mark the metadata region allocated.
  Bytes zero(kBlockSize, 0);
  for (uint64_t b = 0; b < sb.bitmap_blocks; ++b) {
    RETURN_IF_ERROR(fs.WriteBlock(sb.bitmap_start + b, ByteSpan(zero.data(), zero.size()),
                                  /*metadata=*/true));
  }
  // Zero the inode table.
  for (uint64_t b = 0; b < inode_blocks; ++b) {
    RETURN_IF_ERROR(fs.WriteBlock(sb.inode_table_start + b, ByteSpan(zero.data(), zero.size()),
                                  /*metadata=*/true));
  }
  // Root directory: inode 1, initially empty.
  Inode root;
  root.kind = InodeKind::kDirectory;
  RETURN_IF_ERROR(fs.WriteInode(kRootInode, root));
  return fs;
}

Result<ExtFs> ExtFs::Mount(nvme::Controller* nvme, uint32_t nsid) {
  ExtFs fs(nvme, nsid);
  ASSIGN_OR_RETURN(Bytes block, fs.ReadBlock(0, /*metadata=*/true));
  ASSIGN_OR_RETURN(fs.super_, DeserializeSuper(ByteSpan(block.data(), block.size())));
  return fs;
}

Status ExtFs::WriteSuper() {
  Bytes block = SerializeSuper(super_);
  return WriteBlock(0, ByteSpan(block.data(), block.size()), /*metadata=*/true);
}

Result<Inode> ExtFs::ReadInode(uint32_t inode_num) {
  if (inode_num == 0 || inode_num > super_.inode_count) {
    return InvalidArgument("bad inode number");
  }
  const uint64_t block = super_.inode_table_start + (inode_num - 1) / kInodesPerBlock;
  const size_t slot = ((inode_num - 1) % kInodesPerBlock) * kInodeDiskSize;
  ASSIGN_OR_RETURN(Bytes raw, ReadBlock(block, /*metadata=*/true));
  return DeserializeInode(ByteSpan(raw.data() + slot, kInodeDiskSize));
}

Status ExtFs::WriteInode(uint32_t inode_num, const Inode& inode) {
  if (inode_num == 0 || inode_num > super_.inode_count) {
    return InvalidArgument("bad inode number");
  }
  const uint64_t block = super_.inode_table_start + (inode_num - 1) / kInodesPerBlock;
  const size_t slot = ((inode_num - 1) % kInodesPerBlock) * kInodeDiskSize;
  ASSIGN_OR_RETURN(Bytes raw, ReadBlock(block, /*metadata=*/true));
  Bytes serialized = SerializeInode(inode);
  std::copy(serialized.begin(), serialized.end(), raw.begin() + static_cast<ptrdiff_t>(slot));
  return WriteBlock(block, ByteSpan(raw.data(), raw.size()), /*metadata=*/true);
}

Result<uint32_t> ExtFs::AllocateInode() {
  // Scan the inode table for a free slot (inode 1 is root).
  const uint64_t inode_blocks = (super_.inode_count + kInodesPerBlock - 1) / kInodesPerBlock;
  for (uint64_t b = 0; b < inode_blocks; ++b) {
    ASSIGN_OR_RETURN(Bytes raw, ReadBlock(super_.inode_table_start + b, /*metadata=*/true));
    for (uint32_t s = 0; s < kInodesPerBlock; ++s) {
      const uint32_t inode_num = static_cast<uint32_t>(b * kInodesPerBlock + s + 1);
      if (inode_num > super_.inode_count) {
        break;
      }
      if (inode_num == kRootInode) {
        continue;
      }
      if (raw[s * kInodeDiskSize] == static_cast<uint8_t>(InodeKind::kFree)) {
        return inode_num;
      }
    }
  }
  return ResourceExhausted("out of inodes");
}

Result<uint64_t> ExtFs::AllocateBlocks(uint32_t count) {
  if (count == 0) {
    return InvalidArgument("zero-block allocation");
  }
  // First-fit contiguous scan over the bitmap.
  uint64_t run_start = 0;
  uint32_t run_len = 0;
  for (uint64_t bb = 0; bb < super_.bitmap_blocks; ++bb) {
    ASSIGN_OR_RETURN(Bytes bitmap, ReadBlock(super_.bitmap_start + bb, /*metadata=*/true));
    for (uint64_t bit = 0; bit < kBlockSize * 8; ++bit) {
      const uint64_t block = bb * kBlockSize * 8 + bit;
      if (block < super_.data_start) {
        run_len = 0;
        continue;
      }
      if (block >= super_.total_blocks) {
        return ResourceExhausted("no contiguous run of requested size");
      }
      const bool used = (bitmap[bit / 8] >> (bit % 8)) & 1;
      if (used) {
        run_len = 0;
        continue;
      }
      if (run_len == 0) {
        run_start = block;
      }
      if (++run_len == count) {
        // Mark the run allocated (may span bitmap blocks).
        for (uint64_t b = run_start; b < run_start + count; ++b) {
          const uint64_t owner = super_.bitmap_start + b / (kBlockSize * 8);
          ASSIGN_OR_RETURN(Bytes bm, ReadBlock(owner, /*metadata=*/true));
          const uint64_t obit = b % (kBlockSize * 8);
          bm[obit / 8] = static_cast<uint8_t>(bm[obit / 8] | (1u << (obit % 8)));
          RETURN_IF_ERROR(WriteBlock(owner, ByteSpan(bm.data(), bm.size()),
                                     /*metadata=*/true));
        }
        // Zero the run: freshly allocated blocks must not leak a deleted
        // file's data (ext4 guarantees this via unwritten extents; we pay
        // the explicit scrub).
        Bytes zero(kBlockSize, 0);
        for (uint64_t b = run_start; b < run_start + count; ++b) {
          RETURN_IF_ERROR(WriteBlock(b, ByteSpan(zero.data(), zero.size()),
                                     /*metadata=*/false));
        }
        return run_start;
      }
    }
  }
  return ResourceExhausted("no contiguous run of requested size");
}

Status ExtFs::FreeBlocks(uint64_t start, uint32_t count) {
  for (uint64_t b = start; b < start + count; ++b) {
    const uint64_t owner = super_.bitmap_start + b / (kBlockSize * 8);
    ASSIGN_OR_RETURN(Bytes bm, ReadBlock(owner, /*metadata=*/true));
    const uint64_t obit = b % (kBlockSize * 8);
    bm[obit / 8] = static_cast<uint8_t>(bm[obit / 8] & ~(1u << (obit % 8)));
    RETURN_IF_ERROR(WriteBlock(owner, ByteSpan(bm.data(), bm.size()), /*metadata=*/true));
  }
  return Status::Ok();
}

// -- Directories ------------------------------------------------------------
// Directory file content: sequence of [inode u32][name_len u16][name bytes].

Result<uint32_t> ExtFs::DirLookup(uint32_t dir_inode, const std::string& name) {
  ASSIGN_OR_RETURN(Inode dir, ReadInode(dir_inode));
  if (dir.kind != InodeKind::kDirectory) {
    return InvalidArgument("not a directory");
  }
  ASSIGN_OR_RETURN(Bytes content, ReadFile(dir_inode, 0, dir.size));
  ByteReader reader(ByteSpan(content.data(), content.size()));
  while (reader.remaining() >= 6) {
    const uint32_t child = reader.ReadU32();
    const uint16_t len = reader.ReadU16();
    Bytes name_bytes = reader.ReadBytes(len);
    if (!reader.Ok()) {
      return DataLoss("corrupt directory");
    }
    if (name_bytes.size() == name.size() &&
        std::equal(name_bytes.begin(), name_bytes.end(), name.begin())) {
      return child;
    }
  }
  return NotFound("no such directory entry");
}

Status ExtFs::DirAddEntry(uint32_t dir_inode, const std::string& name, uint32_t child) {
  if (name.empty() || name.size() > kMaxNameLen) {
    return InvalidArgument("bad name");
  }
  if (DirLookup(dir_inode, name).ok()) {
    return AlreadyExists("directory entry exists");
  }
  ASSIGN_OR_RETURN(Inode dir, ReadInode(dir_inode));
  Bytes entry;
  PutU32(entry, child);
  PutU16(entry, static_cast<uint16_t>(name.size()));
  entry.insert(entry.end(), name.begin(), name.end());
  return WriteFile(dir_inode, dir.size, ByteSpan(entry.data(), entry.size()));
}

Result<std::pair<uint32_t, std::string>> ExtFs::ResolveParent(const std::string& path) {
  std::vector<std::string> parts = SplitPath(path);
  if (parts.empty()) {
    return InvalidArgument("path names the root");
  }
  uint32_t dir = kRootInode;
  for (size_t i = 0; i + 1 < parts.size(); ++i) {
    ASSIGN_OR_RETURN(dir, DirLookup(dir, parts[i]));
  }
  return std::make_pair(dir, parts.back());
}

Result<uint32_t> ExtFs::CreateFile(const std::string& path) {
  ASSIGN_OR_RETURN(auto parent, ResolveParent(path));
  ASSIGN_OR_RETURN(uint32_t inode_num, AllocateInode());
  Inode inode;
  inode.kind = InodeKind::kFile;
  RETURN_IF_ERROR(WriteInode(inode_num, inode));
  RETURN_IF_ERROR(DirAddEntry(parent.first, parent.second, inode_num));
  return inode_num;
}

Result<uint32_t> ExtFs::Mkdir(const std::string& path) {
  ASSIGN_OR_RETURN(auto parent, ResolveParent(path));
  ASSIGN_OR_RETURN(uint32_t inode_num, AllocateInode());
  Inode inode;
  inode.kind = InodeKind::kDirectory;
  RETURN_IF_ERROR(WriteInode(inode_num, inode));
  RETURN_IF_ERROR(DirAddEntry(parent.first, parent.second, inode_num));
  return inode_num;
}

Status ExtFs::WriteFile(uint32_t inode_num, uint64_t offset, ByteSpan data) {
  ASSIGN_OR_RETURN(Inode inode, ReadInode(inode_num));
  if (inode.kind == InodeKind::kFree) {
    return NotFound("no such inode");
  }
  const uint64_t end = offset + data.size();
  uint64_t have_blocks = 0;
  for (const Extent& e : inode.extents) {
    have_blocks += e.block_count;
  }
  const uint64_t need_blocks = (end + kBlockSize - 1) / kBlockSize;
  if (need_blocks > have_blocks) {
    const auto missing = static_cast<uint32_t>(need_blocks - have_blocks);
    ASSIGN_OR_RETURN(uint64_t start, AllocateBlocks(missing));
    // Try to merge with the previous extent when physically contiguous.
    if (!inode.extents.empty() &&
        inode.extents.back().start_block + inode.extents.back().block_count == start) {
      inode.extents.back().block_count += missing;
    } else {
      if (inode.extents.size() >= kMaxExtentsPerInode) {
        RETURN_IF_ERROR(FreeBlocks(start, missing));
        return ResourceExhausted("file too fragmented (extent limit)");
      }
      inode.extents.push_back(Extent{start, missing});
    }
  }
  inode.size = std::max(inode.size, end);
  RETURN_IF_ERROR(WriteInode(inode_num, inode));

  // Write the data block by block through the extent map.
  uint64_t cursor = offset;
  size_t data_pos = 0;
  while (data_pos < data.size()) {
    const uint64_t file_block = cursor / kBlockSize;
    const uint64_t in_block = cursor % kBlockSize;
    // Map file_block -> physical block.
    uint64_t remaining_blocks = file_block;
    uint64_t phys = 0;
    for (const Extent& e : inode.extents) {
      if (remaining_blocks < e.block_count) {
        phys = e.start_block + remaining_blocks;
        break;
      }
      remaining_blocks -= e.block_count;
    }
    const size_t chunk = std::min<size_t>(kBlockSize - in_block, data.size() - data_pos);
    if (in_block == 0 && chunk == kBlockSize) {
      RETURN_IF_ERROR(WriteBlock(phys, data.subspan(data_pos, kBlockSize), /*metadata=*/false));
    } else {
      ASSIGN_OR_RETURN(Bytes block, ReadBlock(phys, /*metadata=*/false));
      std::copy(data.begin() + static_cast<ptrdiff_t>(data_pos),
                data.begin() + static_cast<ptrdiff_t>(data_pos + chunk),
                block.begin() + static_cast<ptrdiff_t>(in_block));
      RETURN_IF_ERROR(WriteBlock(phys, ByteSpan(block.data(), block.size()),
                                 /*metadata=*/false));
    }
    cursor += chunk;
    data_pos += chunk;
  }
  return Status::Ok();
}

Result<Bytes> ExtFs::ReadFile(uint32_t inode_num, uint64_t offset, uint64_t length) {
  ASSIGN_OR_RETURN(Inode inode, ReadInode(inode_num));
  if (inode.kind == InodeKind::kFree) {
    return NotFound("no such inode");
  }
  if (offset > inode.size || length > inode.size - offset) {
    if (offset >= inode.size) {
      return OutOfRange("read past end of file");
    }
    length = inode.size - offset;  // short read at EOF
  }
  Bytes out;
  out.reserve(length);
  uint64_t cursor = offset;
  while (out.size() < length) {
    const uint64_t file_block = cursor / kBlockSize;
    const uint64_t in_block = cursor % kBlockSize;
    uint64_t remaining_blocks = file_block;
    uint64_t phys = 0;
    bool mapped = false;
    for (const Extent& e : inode.extents) {
      if (remaining_blocks < e.block_count) {
        phys = e.start_block + remaining_blocks;
        mapped = true;
        break;
      }
      remaining_blocks -= e.block_count;
    }
    if (!mapped) {
      return DataLoss("file size exceeds mapped extents");
    }
    ASSIGN_OR_RETURN(Bytes block, ReadBlock(phys, /*metadata=*/false));
    const size_t chunk =
        std::min<size_t>(kBlockSize - in_block, length - out.size());
    out.insert(out.end(), block.begin() + static_cast<ptrdiff_t>(in_block),
               block.begin() + static_cast<ptrdiff_t>(in_block + chunk));
    cursor += chunk;
  }
  return out;
}

}  // namespace hyperion::fs
