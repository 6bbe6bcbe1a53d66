// Spiffy-style file-system layout annotation (paper §2.3, citing Sun et
// al. [155]).
//
// The idea: instead of porting a file-system *implementation* into the
// device, describe the on-disk *layout* declaratively; from the annotation
// one can generate storage-aware access code (for Hyperion: HDL) that
// resolves paths and reads file bytes directly from raw blocks. This module
// is that story executable:
//
//   - LayoutAnnotation is a serializable, self-contained description of an
//     ExtFs volume: where the inode table lives, the byte offsets of every
//     inode field, the extent record stride, the dirent wire format.
//   - AnnotatedReader *interprets the annotation* against raw NVMe block
//     reads. It deliberately shares no code with ExtFs — it cannot call it
//     — which is the property that makes it a stand-in for generated
//     hardware. If the annotation is wrong, reads fail; tests cross-check
//     it against the real implementation.
//
// Experiment E8 prices this path (device-side, no host) against the host
// FS stack (per-syscall + copy costs) for Parquet scans.

#ifndef HYPERION_SRC_FS_ANNOTATION_H_
#define HYPERION_SRC_FS_ANNOTATION_H_

#include <cstdint>
#include <string>

#include "src/common/result.h"
#include "src/fs/extfs.h"
#include "src/nvme/controller.h"

namespace hyperion::fs {

struct LayoutAnnotation {
  // Volume geometry.
  uint64_t block_size = 0;
  uint64_t inode_table_start = 0;  // block number
  uint64_t inode_count = 0;
  uint32_t inode_record_size = 0;
  uint32_t root_inode = 0;

  // Inode field map (byte offsets within the inode record).
  uint32_t field_kind = 0;
  uint32_t field_size = 0;
  uint32_t field_extent_count = 0;
  uint32_t field_extent_array = 0;
  uint32_t extent_stride = 0;
  uint32_t extent_start_off = 0;   // within one extent record
  uint32_t extent_count_off = 0;

  // Dirent wire format: [inode u32][name_len u16][name].
  uint32_t dirent_inode_bytes = 4;
  uint32_t dirent_namelen_bytes = 2;

  // Inode kind encodings.
  uint8_t kind_file = 0;
  uint8_t kind_directory = 0;

  Bytes Serialize() const;
  static Result<LayoutAnnotation> Parse(ByteSpan data);
};

// Derives the annotation for a mounted ExtFs volume from its superblock —
// the "annotation can be generated efficiently" step of [155].
LayoutAnnotation GenerateAnnotation(const ExtFs& fs);

// Annotation interpreter over raw blocks. Counts its block reads so E8 can
// compare I/O efficiency as well as CPU involvement.
class AnnotatedReader {
 public:
  AnnotatedReader(nvme::Controller* nvme, uint32_t nsid, LayoutAnnotation annotation)
      : nvme_(nvme), nsid_(nsid), ann_(annotation) {}

  // Path -> inode number, walking directories from the annotated root.
  Result<uint32_t> ResolvePath(const std::string& path);

  // Reads file bytes via the annotated extent map.
  Result<Bytes> ReadByInode(uint32_t inode_num, uint64_t offset, uint64_t length);

  uint64_t BlockReads() const { return block_reads_; }

 private:
  struct RawInode {
    uint8_t kind = 0;
    uint64_t size = 0;
    // Flattened (start, count) pairs.
    std::vector<std::pair<uint64_t, uint32_t>> extents;
  };

  Result<Bytes> ReadBlock(uint64_t block);
  Result<RawInode> ReadRawInode(uint32_t inode_num);

  nvme::Controller* nvme_;
  uint32_t nsid_;
  LayoutAnnotation ann_;
  uint64_t block_reads_ = 0;
};

}  // namespace hyperion::fs

#endif  // HYPERION_SRC_FS_ANNOTATION_H_
