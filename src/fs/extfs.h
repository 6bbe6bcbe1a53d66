// ExtFs: an ext4-flavoured extent-based file system on an NVMe namespace.
//
// The substrate for §2.3: Hyperion wants to serve *files* (not just blocks)
// without a host CPU, which requires a real on-disk format that a layout
// annotation can describe. ExtFs keeps the structures that matter for that
// story — superblock, block bitmap, fixed inode table, extent-mapped files,
// directories as files — and drops what doesn't (journaling is provided by
// the storage layer's WAL; permissions/time stamps are out of scope).
//
// Disk layout (4 KiB blocks):
//   block 0                superblock
//   blocks 1..B            block allocation bitmap
//   blocks B+1..B+I        inode table (64 inodes/block)
//   remaining              data blocks
//
// Every structure is serialized with explicit little-endian layout — the
// property that makes the Spiffy-style annotation of annotation.h possible.

#ifndef HYPERION_SRC_FS_EXTFS_H_
#define HYPERION_SRC_FS_EXTFS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/result.h"
#include "src/nvme/controller.h"

namespace hyperion::fs {

constexpr uint32_t kBlockSize = nvme::kLbaSize;
constexpr uint32_t kMaxExtentsPerInode = 12;
constexpr uint32_t kMaxNameLen = 255;
constexpr uint32_t kInodeDiskSize = 256;  // ext4's common inode size
constexpr uint32_t kInodesPerBlock = kBlockSize / kInodeDiskSize;
constexpr uint32_t kRootInode = 1;

enum class InodeKind : uint8_t { kFree = 0, kFile = 1, kDirectory = 2 };

struct Extent {
  uint64_t start_block = 0;
  uint32_t block_count = 0;
};

struct Inode {
  InodeKind kind = InodeKind::kFree;
  uint64_t size = 0;  // bytes
  std::vector<Extent> extents;
};

struct SuperBlock {
  uint32_t magic = 0x45585446;  // "EXTF"
  uint64_t total_blocks = 0;
  uint64_t bitmap_start = 1;
  uint64_t bitmap_blocks = 0;
  uint64_t inode_table_start = 0;
  uint64_t inode_count = 0;
  uint64_t data_start = 0;
};

class ExtFs {
 public:
  // Writes a fresh file system across the namespace and mounts it.
  static Result<ExtFs> Format(nvme::Controller* nvme, uint32_t nsid, uint64_t inode_count = 1024);
  // Mounts an existing file system (reads + validates the superblock).
  static Result<ExtFs> Mount(nvme::Controller* nvme, uint32_t nsid);

  // -- POSIX-flavoured API (paths are absolute, '/'-separated) --------------

  Result<uint32_t> CreateFile(const std::string& path);
  Result<uint32_t> Mkdir(const std::string& path);

  Status WriteFile(uint32_t inode_num, uint64_t offset, ByteSpan data);
  Result<Bytes> ReadFile(uint32_t inode_num, uint64_t offset, uint64_t length);

  Result<Inode> ReadInode(uint32_t inode_num);
  const SuperBlock& super() const { return super_; }

  // Blocks read/written since construction (the host-stack cost proxy).
  uint64_t MetadataBlockIos() const { return metadata_ios_; }
  uint64_t DataBlockIos() const { return data_ios_; }

 private:
  ExtFs(nvme::Controller* nvme, uint32_t nsid) : nvme_(nvme), nsid_(nsid) {}

  Result<Bytes> ReadBlock(uint64_t block, bool metadata);
  Status WriteBlock(uint64_t block, ByteSpan data, bool metadata);

  Status WriteSuper();
  Status WriteInode(uint32_t inode_num, const Inode& inode);
  Result<uint64_t> AllocateBlocks(uint32_t count);  // contiguous run
  Status FreeBlocks(uint64_t start, uint32_t count);
  Result<uint32_t> AllocateInode();

  // Splits "/a/b/c" -> parent dir inode + leaf name.
  Result<std::pair<uint32_t, std::string>> ResolveParent(const std::string& path);
  Result<uint32_t> DirLookup(uint32_t dir_inode, const std::string& name);
  Status DirAddEntry(uint32_t dir_inode, const std::string& name, uint32_t child);

  nvme::Controller* nvme_;
  uint32_t nsid_;
  SuperBlock super_;
  uint64_t metadata_ios_ = 0;
  uint64_t data_ios_ = 0;
};

}  // namespace hyperion::fs

#endif  // HYPERION_SRC_FS_EXTFS_H_
