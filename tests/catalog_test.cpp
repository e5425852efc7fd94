#include "storage/catalog.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>

namespace adr {
namespace {

Dataset sample_dataset(std::uint32_t id, const std::string& name, int chunks) {
  std::vector<ChunkMeta> metas;
  for (int i = 0; i < chunks; ++i) {
    ChunkMeta m;
    m.id = {id, static_cast<std::uint32_t>(i)};
    m.mbr = Rect(Point{i * 1.5, -2.25}, Point{i * 1.5 + 1.0, 3.75});
    m.bytes = 1000 + static_cast<std::uint64_t>(i);
    m.disk = i % 3;
    metas.push_back(m);
  }
  return Dataset(id, name, Rect(Point{0.0, -10.0}, Point{100.0, 10.0}), metas);
}

TEST(Catalog, RoundTripsMetadata) {
  Dataset a = sample_dataset(0, "sensors", 5);
  Dataset b = sample_dataset(3, "image grid", 2);  // name with a space
  std::ostringstream os;
  save_catalog(os, {&a, &b});

  std::istringstream is(os.str());
  const auto loaded = load_catalog(is);
  ASSERT_EQ(loaded.size(), 2u);

  EXPECT_EQ(loaded[0].id(), 0u);
  EXPECT_EQ(loaded[0].name(), "sensors");
  EXPECT_EQ(loaded[0].num_chunks(), 5u);
  EXPECT_EQ(loaded[0].domain(), a.domain());
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(loaded[0].chunk(i).mbr, a.chunk(i).mbr);
    EXPECT_EQ(loaded[0].chunk(i).bytes, a.chunk(i).bytes);
    EXPECT_EQ(loaded[0].chunk(i).disk, a.chunk(i).disk);
    EXPECT_EQ(loaded[0].chunk(i).id, a.chunk(i).id);
  }
  EXPECT_EQ(loaded[1].name(), "image grid");
  EXPECT_EQ(loaded[1].find_chunks(Rect(Point{0.0, 0.0}, Point{1.0, 1.0})),
            (std::vector<std::uint32_t>{0}));
}

TEST(Catalog, PreservesDoublePrecision) {
  std::vector<ChunkMeta> metas(1);
  metas[0].id = {7, 0};
  metas[0].mbr = Rect(Point{1.0 / 3.0, -1e-17}, Point{2.0 / 3.0, 1e17});
  metas[0].bytes = 1;
  Dataset ds(7, "p", Rect(Point{0.0, -1e18}, Point{1.0, 1e18}), metas);
  std::ostringstream os;
  save_catalog(os, {&ds});
  std::istringstream is(os.str());
  const auto loaded = load_catalog(is);
  EXPECT_EQ(loaded[0].chunk(0).mbr, metas[0].mbr);
}

TEST(Catalog, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "adr_catalog_test.txt";
  Dataset a = sample_dataset(1, "file-ds", 3);
  save_catalog_file(path, {&a});
  const auto loaded = load_catalog_file(path);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].num_chunks(), 3u);
  std::filesystem::remove(path);
}

TEST(Catalog, RejectsBadHeader) {
  std::istringstream is("not-a-catalog\n");
  EXPECT_THROW(load_catalog(is), std::runtime_error);
}

TEST(Catalog, RejectsChunkBeforeDataset) {
  std::istringstream is("adr-catalog 1\nchunk 0 0 10 0 0 1 1\n");
  EXPECT_THROW(load_catalog(is), std::runtime_error);
}

TEST(Catalog, RejectsWrongChunkCount) {
  std::ostringstream os;
  Dataset a = sample_dataset(0, "x", 2);
  save_catalog(os, {&a});
  // Drop the last chunk line.
  std::string text = os.str();
  text.erase(text.rfind("chunk"));
  std::istringstream is(text);
  EXPECT_THROW(load_catalog(is), std::runtime_error);
}

TEST(Catalog, IgnoresCommentsAndBlankLines) {
  std::ostringstream os;
  Dataset a = sample_dataset(0, "c", 1);
  save_catalog(os, {&a});
  std::string text = "# header comment\n" + os.str();
  // Inject a comment between records.
  text.insert(text.find("chunk"), "# mid comment\n\n");
  // The '#' line must come after the catalog header line.
  std::string fixed = text.substr(text.find("adr-catalog"));
  std::istringstream is(fixed);
  const auto loaded = load_catalog(is);
  EXPECT_EQ(loaded.size(), 1u);
}

TEST(Catalog, EmptyCatalog) {
  std::ostringstream os;
  save_catalog(os, {});
  std::istringstream is(os.str());
  EXPECT_TRUE(load_catalog(is).empty());
}

TEST(Catalog, MissingFileThrows) {
  EXPECT_THROW(load_catalog_file("/nonexistent/adr.cat"), std::runtime_error);
}

}  // namespace
}  // namespace adr
