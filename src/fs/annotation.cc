#include "src/fs/annotation.h"

#include <algorithm>
#include <vector>

#include "src/common/check.h"

namespace hyperion::fs {

namespace {
constexpr uint32_t kAnnotationMagic = 0x414E4E4F;  // "ANNO"

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

Bytes LayoutAnnotation::Serialize() const {
  Bytes out;
  PutU32(out, kAnnotationMagic);
  PutU64(out, block_size);
  PutU64(out, inode_table_start);
  PutU64(out, inode_count);
  PutU32(out, inode_record_size);
  PutU32(out, root_inode);
  PutU32(out, field_kind);
  PutU32(out, field_size);
  PutU32(out, field_extent_count);
  PutU32(out, field_extent_array);
  PutU32(out, extent_stride);
  PutU32(out, extent_start_off);
  PutU32(out, extent_count_off);
  PutU32(out, dirent_inode_bytes);
  PutU32(out, dirent_namelen_bytes);
  out.push_back(kind_file);
  out.push_back(kind_directory);
  PutU32(out, Crc32c(ByteSpan(out.data(), out.size())));
  return out;
}

Result<LayoutAnnotation> LayoutAnnotation::Parse(ByteSpan data) {
  if (data.size() < 4 + 24 + 11 * 4 + 2 + 4) {
    return DataLoss("annotation truncated");
  }
  const size_t body = data.size() - 4;
  if (Crc32c(data.subspan(0, body)) != GetU32(data, body)) {
    return DataLoss("annotation checksum mismatch");
  }
  ByteReader reader(data.subspan(0, body));
  if (reader.ReadU32() != kAnnotationMagic) {
    return DataLoss("bad annotation magic");
  }
  LayoutAnnotation ann;
  ann.block_size = reader.ReadU64();
  ann.inode_table_start = reader.ReadU64();
  ann.inode_count = reader.ReadU64();
  ann.inode_record_size = reader.ReadU32();
  ann.root_inode = reader.ReadU32();
  ann.field_kind = reader.ReadU32();
  ann.field_size = reader.ReadU32();
  ann.field_extent_count = reader.ReadU32();
  ann.field_extent_array = reader.ReadU32();
  ann.extent_stride = reader.ReadU32();
  ann.extent_start_off = reader.ReadU32();
  ann.extent_count_off = reader.ReadU32();
  ann.dirent_inode_bytes = reader.ReadU32();
  ann.dirent_namelen_bytes = reader.ReadU32();
  ann.kind_file = reader.ReadU8();
  ann.kind_directory = reader.ReadU8();
  if (!reader.Ok()) {
    return DataLoss("annotation truncated");
  }
  return ann;
}

LayoutAnnotation GenerateAnnotation(const ExtFs& fs) {
  const SuperBlock& sb = fs.super();
  LayoutAnnotation ann;
  ann.block_size = kBlockSize;
  ann.inode_table_start = sb.inode_table_start;
  ann.inode_count = sb.inode_count;
  ann.inode_record_size = kInodeDiskSize;
  ann.root_inode = kRootInode;
  // These constants mirror SerializeInode() in extfs.cc — the annotation is
  // the machine-readable contract for that layout.
  ann.field_kind = 0;
  ann.field_size = 8;
  ann.field_extent_count = 16;
  ann.field_extent_array = 24;
  ann.extent_stride = 12;
  ann.extent_start_off = 0;
  ann.extent_count_off = 8;
  ann.kind_file = static_cast<uint8_t>(InodeKind::kFile);
  ann.kind_directory = static_cast<uint8_t>(InodeKind::kDirectory);
  return ann;
}

Result<Bytes> AnnotatedReader::ReadBlock(uint64_t block) {
  ++block_reads_;
  return nvme_->Read(nsid_, block, 1);
}

Result<AnnotatedReader::RawInode> AnnotatedReader::ReadRawInode(uint32_t inode_num) {
  if (inode_num == 0 || inode_num > ann_.inode_count) {
    return InvalidArgument("bad inode number");
  }
  const uint32_t per_block = static_cast<uint32_t>(ann_.block_size / ann_.inode_record_size);
  const uint64_t block = ann_.inode_table_start + (inode_num - 1) / per_block;
  const size_t slot = ((inode_num - 1) % per_block) * ann_.inode_record_size;
  ASSIGN_OR_RETURN(Bytes raw, ReadBlock(block));
  ByteSpan record(raw.data() + slot, ann_.inode_record_size);
  RawInode inode;
  inode.kind = record[ann_.field_kind];
  inode.size = GetU64(record, ann_.field_size);
  const uint8_t extent_count = record[ann_.field_extent_count];
  for (uint8_t e = 0; e < extent_count; ++e) {
    const size_t base = ann_.field_extent_array + static_cast<size_t>(e) * ann_.extent_stride;
    inode.extents.emplace_back(GetU64(record, base + ann_.extent_start_off),
                               GetU32(record, base + ann_.extent_count_off));
  }
  return inode;
}

Result<Bytes> AnnotatedReader::ReadByInode(uint32_t inode_num, uint64_t offset,
                                           uint64_t length) {
  ASSIGN_OR_RETURN(RawInode inode, ReadRawInode(inode_num));
  if (offset >= inode.size) {
    return OutOfRange("read past end of file");
  }
  length = std::min(length, inode.size - offset);
  Bytes out;
  out.reserve(length);
  uint64_t cursor = offset;
  while (out.size() < length) {
    const uint64_t file_block = cursor / ann_.block_size;
    const uint64_t in_block = cursor % ann_.block_size;
    uint64_t remaining = file_block;
    uint64_t phys = 0;
    bool mapped = false;
    for (const auto& [start, count] : inode.extents) {
      if (remaining < count) {
        phys = start + remaining;
        mapped = true;
        break;
      }
      remaining -= count;
    }
    if (!mapped) {
      return DataLoss("annotated extent map does not cover file size");
    }
    ASSIGN_OR_RETURN(Bytes block, ReadBlock(phys));
    const size_t chunk = std::min<size_t>(ann_.block_size - in_block, length - out.size());
    out.insert(out.end(), block.begin() + static_cast<ptrdiff_t>(in_block),
               block.begin() + static_cast<ptrdiff_t>(in_block + chunk));
    cursor += chunk;
  }
  return out;
}

Result<uint32_t> AnnotatedReader::ResolvePath(const std::string& path) {
  uint32_t inode_num = ann_.root_inode;
  for (const std::string& part : SplitPath(path)) {
    ASSIGN_OR_RETURN(RawInode dir, ReadRawInode(inode_num));
    if (dir.kind != ann_.kind_directory) {
      return InvalidArgument("path component is not a directory");
    }
    if (dir.size == 0) {
      return NotFound("no such path component: " + part);
    }
    // Read the directory file through the same annotated machinery.
    ASSIGN_OR_RETURN(Bytes content, ReadByInode(inode_num, 0, dir.size));
    ByteReader reader(ByteSpan(content.data(), content.size()));
    bool found = false;
    while (reader.remaining() >= ann_.dirent_inode_bytes + ann_.dirent_namelen_bytes) {
      const uint32_t child = reader.ReadU32();
      const uint16_t len = reader.ReadU16();
      Bytes name = reader.ReadBytes(len);
      if (!reader.Ok()) {
        return DataLoss("corrupt directory under annotation");
      }
      if (name.size() == part.size() && std::equal(name.begin(), name.end(), part.begin())) {
        inode_num = child;
        found = true;
        break;
      }
    }
    if (!found) {
      return NotFound("no such path component: " + part);
    }
  }
  return inode_num;
}

}  // namespace hyperion::fs
