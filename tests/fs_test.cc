// Tests for ExtFs and the Spiffy-style annotation reader, including the
// cross-check that the annotation interpreter agrees byte-for-byte with the
// real file-system implementation.

#include <gtest/gtest.h>

#include <cstdint>

#include "src/fs/annotation.h"
#include "src/fs/extfs.h"
#include "src/nvme/controller.h"
#include "src/sim/engine.h"

namespace hyperion::fs {
namespace {

class FsTest : public ::testing::Test {
 protected:
  FsTest() : ctrl_(&engine_) { nsid_ = ctrl_.AddNamespace(32768); }  // 128 MiB

  Bytes Pattern(size_t n, uint8_t seed) {
    Bytes b(n);
    for (size_t i = 0; i < n; ++i) {
      b[i] = static_cast<uint8_t>(seed + 3 * i);
    }
    return b;
  }

  sim::Engine engine_;
  nvme::Controller ctrl_;
  uint32_t nsid_ = 0;
};

TEST_F(FsTest, FormatAndMount) {
  auto fs = ExtFs::Format(&ctrl_, nsid_);
  ASSERT_TRUE(fs.ok());
  auto mounted = ExtFs::Mount(&ctrl_, nsid_);
  ASSERT_TRUE(mounted.ok());
  EXPECT_EQ(mounted->super().total_blocks, 32768u);
  EXPECT_GT(mounted->super().data_start, mounted->super().inode_table_start);
}

TEST_F(FsTest, MountGarbageFails) {
  // No Format: block 0 is zeros.
  EXPECT_EQ(ExtFs::Mount(&ctrl_, nsid_).status().code(), StatusCode::kDataLoss);
}

TEST_F(FsTest, CreateWriteReadFile) {
  auto fs = ExtFs::Format(&ctrl_, nsid_);
  ASSERT_TRUE(fs.ok());
  auto inode = fs->CreateFile("/data.bin");
  ASSERT_TRUE(inode.ok());
  Bytes data = Pattern(10000, 5);
  ASSERT_TRUE(fs->WriteFile(*inode, 0, ByteSpan(data.data(), data.size())).ok());
  auto read = fs->ReadFile(*inode, 0, 10000);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);
  // Partial read with offset.
  auto middle = fs->ReadFile(*inode, 5000, 100);
  ASSERT_TRUE(middle.ok());
  EXPECT_EQ(*middle, Bytes(data.begin() + 5000, data.begin() + 5100));
}

TEST_F(FsTest, WrappedReadRangeIsBoundedByFileSize) {
  // offset + length wraps in both reads: an additive check would pass the
  // first to out.reserve(UINT64_MAX) and send the second past the extents.
  auto fs = ExtFs::Format(&ctrl_, nsid_);
  ASSERT_TRUE(fs.ok());
  auto inode = fs->CreateFile("/wrap.bin");
  ASSERT_TRUE(inode.ok());
  Bytes data = Pattern(100, 9);
  ASSERT_TRUE(fs->WriteFile(*inode, 0, ByteSpan(data.data(), data.size())).ok());
  auto tail = fs->ReadFile(*inode, 1, UINT64_MAX);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, Bytes(data.begin() + 1, data.end()));
  EXPECT_EQ(fs->ReadFile(*inode, UINT64_MAX, 2).status().code(), StatusCode::kOutOfRange);
}

TEST_F(FsTest, NestedDirectories) {
  auto fs = ExtFs::Format(&ctrl_, nsid_);
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE(fs->Mkdir("/a").ok());
  ASSERT_TRUE(fs->Mkdir("/a/b").ok());
  auto inode = fs->CreateFile("/a/b/deep.txt");
  ASSERT_TRUE(inode.ok());
  auto found = fs->LookupPath("/a/b/deep.txt");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(*found, *inode);
  EXPECT_FALSE(fs->LookupPath("/a/nope").ok());
}

TEST_F(FsTest, ListDir) {
  auto fs = ExtFs::Format(&ctrl_, nsid_);
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE(fs->CreateFile("/one").ok());
  ASSERT_TRUE(fs->CreateFile("/two").ok());
  ASSERT_TRUE(fs->Mkdir("/sub").ok());
  auto entries = fs->ListDir("/");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 3u);
}

TEST_F(FsTest, DuplicateNameRejected) {
  auto fs = ExtFs::Format(&ctrl_, nsid_);
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE(fs->CreateFile("/x").ok());
  EXPECT_EQ(fs->CreateFile("/x").status().code(), StatusCode::kAlreadyExists);
}

TEST_F(FsTest, RemoveFileFreesBlocks) {
  auto fs = ExtFs::Format(&ctrl_, nsid_);
  ASSERT_TRUE(fs.ok());
  auto inode = fs->CreateFile("/big");
  ASSERT_TRUE(inode.ok());
  Bytes data = Pattern(64 * 1024, 1);
  ASSERT_TRUE(fs->WriteFile(*inode, 0, ByteSpan(data.data(), data.size())).ok());
  ASSERT_TRUE(fs->Remove("/big").ok());
  EXPECT_FALSE(fs->LookupPath("/big").ok());
  // The space is reusable.
  auto inode2 = fs->CreateFile("/big2");
  ASSERT_TRUE(inode2.ok());
  ASSERT_TRUE(fs->WriteFile(*inode2, 0, ByteSpan(data.data(), data.size())).ok());
}

TEST_F(FsTest, RemoveNonEmptyDirRejected) {
  auto fs = ExtFs::Format(&ctrl_, nsid_);
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE(fs->Mkdir("/d").ok());
  ASSERT_TRUE(fs->CreateFile("/d/f").ok());
  EXPECT_EQ(fs->Remove("/d").code(), StatusCode::kInvalidArgument);
  ASSERT_TRUE(fs->Remove("/d/f").ok());
  EXPECT_TRUE(fs->Remove("/d").ok());
}

TEST_F(FsTest, SparseOffsetsWithinExtents) {
  auto fs = ExtFs::Format(&ctrl_, nsid_);
  ASSERT_TRUE(fs.ok());
  auto inode = fs->CreateFile("/f");
  ASSERT_TRUE(inode.ok());
  Bytes data = Pattern(100, 9);
  // Write at offset 8000: allocates 2+ blocks; the gap reads as zeros.
  ASSERT_TRUE(fs->WriteFile(*inode, 8000, ByteSpan(data.data(), data.size())).ok());
  auto gap = fs->ReadFile(*inode, 0, 100);
  ASSERT_TRUE(gap.ok());
  EXPECT_EQ(*gap, Bytes(100, 0));
  auto tail = fs->ReadFile(*inode, 8000, 100);
  ASSERT_TRUE(tail.ok());
  EXPECT_EQ(*tail, data);
}

TEST_F(FsTest, PersistsAcrossRemount) {
  {
    auto fs = ExtFs::Format(&ctrl_, nsid_);
    ASSERT_TRUE(fs.ok());
    auto inode = fs->CreateFile("/persistent");
    ASSERT_TRUE(inode.ok());
    Bytes data = Pattern(5000, 2);
    ASSERT_TRUE(fs->WriteFile(*inode, 0, ByteSpan(data.data(), data.size())).ok());
  }
  auto fs2 = ExtFs::Mount(&ctrl_, nsid_);
  ASSERT_TRUE(fs2.ok());
  auto inode = fs2->LookupPath("/persistent");
  ASSERT_TRUE(inode.ok());
  auto read = fs2->ReadFile(*inode, 0, 5000);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, Pattern(5000, 2));
}

// -- Annotation ----------------------------------------------------------

TEST_F(FsTest, AnnotationSerializeRoundTrip) {
  auto fs = ExtFs::Format(&ctrl_, nsid_);
  ASSERT_TRUE(fs.ok());
  LayoutAnnotation ann = GenerateAnnotation(*fs);
  Bytes blob = ann.Serialize();
  auto parsed = LayoutAnnotation::Parse(ByteSpan(blob.data(), blob.size()));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->inode_table_start, ann.inode_table_start);
  EXPECT_EQ(parsed->extent_stride, ann.extent_stride);
  // Corruption is detected.
  blob[5] ^= 0x80;
  EXPECT_EQ(LayoutAnnotation::Parse(ByteSpan(blob.data(), blob.size())).status().code(),
            StatusCode::kDataLoss);
}

TEST_F(FsTest, AnnotatedReaderResolvesPathsWithoutFsCode) {
  auto fs = ExtFs::Format(&ctrl_, nsid_);
  ASSERT_TRUE(fs.ok());
  ASSERT_TRUE(fs->Mkdir("/warehouse").ok());
  auto inode = fs->CreateFile("/warehouse/table.parquet");
  ASSERT_TRUE(inode.ok());
  Bytes data = Pattern(20000, 7);
  ASSERT_TRUE(fs->WriteFile(*inode, 0, ByteSpan(data.data(), data.size())).ok());

  AnnotatedReader reader(&ctrl_, nsid_, GenerateAnnotation(*fs));
  auto resolved = reader.ResolvePath("/warehouse/table.parquet");
  ASSERT_TRUE(resolved.ok());
  EXPECT_EQ(*resolved, *inode);
  auto read = reader.ReadPath("/warehouse/table.parquet", 0, 20000);
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(*read, data);  // byte-identical with what ExtFs wrote
  EXPECT_GT(reader.BlockReads(), 0u);
}

TEST_F(FsTest, AnnotatedReaderAgreesWithFsOnRandomOffsets) {
  auto fs = ExtFs::Format(&ctrl_, nsid_);
  ASSERT_TRUE(fs.ok());
  auto inode = fs->CreateFile("/blob");
  ASSERT_TRUE(inode.ok());
  Bytes data = Pattern(50000, 11);
  ASSERT_TRUE(fs->WriteFile(*inode, 0, ByteSpan(data.data(), data.size())).ok());
  AnnotatedReader reader(&ctrl_, nsid_, GenerateAnnotation(*fs));
  for (uint64_t offset : {0ull, 4095ull, 4096ull, 12345ull, 49000ull}) {
    auto via_fs = fs->ReadFile(*inode, offset, 500);
    auto via_ann = reader.ReadByInode(*inode, offset, 500);
    ASSERT_TRUE(via_fs.ok());
    ASSERT_TRUE(via_ann.ok());
    EXPECT_EQ(*via_fs, *via_ann) << "offset " << offset;
  }
}

TEST_F(FsTest, AnnotatedReaderRejectsMissingPath) {
  auto fs = ExtFs::Format(&ctrl_, nsid_);
  ASSERT_TRUE(fs.ok());
  AnnotatedReader reader(&ctrl_, nsid_, GenerateAnnotation(*fs));
  EXPECT_EQ(reader.ResolvePath("/nope").status().code(), StatusCode::kNotFound);
}

}  // namespace
}  // namespace hyperion::fs
