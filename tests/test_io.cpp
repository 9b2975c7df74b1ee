// I/O tests: PGM header/payload structure, NPY round trips (complex and
// real), and phase-history persistence round trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "common/rng.h"
#include "io/history_io.h"
#include "io/image_io.h"
#include "test_helpers.h"

namespace sarbp::io {
namespace {

std::string temp_path(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

Grid2D<CFloat> random_image(Index w, Index h, std::uint64_t seed) {
  Rng rng(seed);
  Grid2D<CFloat> img(w, h);
  for (auto& v : img.flat()) {
    v = CFloat(static_cast<float>(rng.normal()),
               static_cast<float>(rng.normal()));
  }
  return img;
}

TEST(ImageIo, PgmHasCorrectHeaderAndSize) {
  const auto path = temp_path("test.pgm");
  const auto img = random_image(17, 9, 1);
  write_pgm(path, img);
  std::ifstream in(path, std::ios::binary);
  std::string magic, dims1, dims2, maxval;
  in >> magic >> dims1 >> dims2 >> maxval;
  EXPECT_EQ(magic, "P5");
  EXPECT_EQ(dims1, "17");
  EXPECT_EQ(dims2, "9");
  EXPECT_EQ(maxval, "255");
  in.get();  // single whitespace after maxval
  std::string payload((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(payload.size(), 17u * 9u);
  std::remove(path.c_str());
}

TEST(ImageIo, PgmLinearVsLogDiffer) {
  const auto img = random_image(16, 16, 2);
  const auto p1 = temp_path("lin.pgm");
  const auto p2 = temp_path("log.pgm");
  PgmOptions linear;
  linear.dynamic_range_db = 0.0;
  write_pgm(p1, img, linear);
  write_pgm(p2, img, {});
  std::ifstream a(p1, std::ios::binary), b(p2, std::ios::binary);
  std::string sa((std::istreambuf_iterator<char>(a)),
                 std::istreambuf_iterator<char>());
  std::string sb((std::istreambuf_iterator<char>(b)),
                 std::istreambuf_iterator<char>());
  EXPECT_NE(sa, sb);
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST(ImageIo, NpyComplexRoundTrip) {
  const auto path = temp_path("test_c8.npy");
  const auto img = random_image(23, 11, 3);
  write_npy(path, img);
  const auto loaded = read_npy(path);
  ASSERT_EQ(loaded.width(), 23);
  ASSERT_EQ(loaded.height(), 11);
  EXPECT_EQ(loaded, img);
  std::remove(path.c_str());
}

TEST(ImageIo, NpyHeaderIsValidNumpyFormat) {
  const auto path = temp_path("hdr.npy");
  write_npy(path, random_image(4, 4, 5));
  std::ifstream in(path, std::ios::binary);
  char magic[6];
  in.read(magic, 6);
  EXPECT_EQ(std::string(magic, 6), std::string("\x93NUMPY", 6));
  char version[2];
  in.read(version, 2);
  EXPECT_EQ(version[0], 1);
  unsigned char len[2];
  in.read(reinterpret_cast<char*>(len), 2);
  const std::size_t hlen = len[0] | (static_cast<std::size_t>(len[1]) << 8);
  // Total header (magic+version+len+dict) must be 64-byte aligned.
  EXPECT_EQ((10 + hlen) % 64, 0u);
  std::string header(hlen, '\0');
  in.read(header.data(), static_cast<std::streamsize>(hlen));
  EXPECT_NE(header.find("'descr': '<c8'"), std::string::npos);
  EXPECT_NE(header.find("(4, 4)"), std::string::npos);
  std::remove(path.c_str());
}

TEST(ImageIo, NpyFloatWrite) {
  const auto path = temp_path("test_f4.npy");
  Grid2D<float> img(6, 3, 0.5f);
  img.at(2, 1) = -1.25f;
  write_npy(path, img);
  std::ifstream in(path, std::ios::binary);
  std::string all((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  EXPECT_NE(all.find("'<f4'"), std::string::npos);
  // Payload: 18 floats after the 64-byte-aligned header.
  EXPECT_EQ(all.size() % 64, 18u * 4u % 64);
  std::remove(path.c_str());
}

TEST(ImageIo, ReadNpyRejectsGarbage) {
  const auto path = temp_path("garbage.npy");
  std::ofstream(path) << "not an npy file at all";
  EXPECT_THROW((void)read_npy(path), PreconditionError);
  std::remove(path.c_str());
}

TEST(HistoryIo, RoundTripPreservesEverything) {
  sarbp::testing::ScenarioConfig cfg;
  cfg.image = 32;
  cfg.pulses = 6;
  const auto s = sarbp::testing::make_scenario(cfg);
  const auto path = temp_path("history.sarbp");
  save_phase_history(path, s.history);
  const auto loaded = load_phase_history(path);
  ASSERT_EQ(loaded.num_pulses(), s.history.num_pulses());
  ASSERT_EQ(loaded.samples_per_pulse(), s.history.samples_per_pulse());
  EXPECT_DOUBLE_EQ(loaded.bin_spacing(), s.history.bin_spacing());
  EXPECT_DOUBLE_EQ(loaded.wavenumber(), s.history.wavenumber());
  for (Index p = 0; p < loaded.num_pulses(); ++p) {
    EXPECT_EQ(loaded.meta(p).position, s.history.meta(p).position);
    EXPECT_DOUBLE_EQ(loaded.meta(p).start_range_m,
                     s.history.meta(p).start_range_m);
    const auto a = loaded.pulse(p);
    const auto b = s.history.pulse(p);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a[i], b[i]) << p << ":" << i;
    }
  }
  std::remove(path.c_str());
}

TEST(HistoryIo, LoadRejectsBadMagic) {
  const auto path = temp_path("bad.sarbp");
  std::ofstream(path) << "XXXXXXXXjunkjunkjunk";
  EXPECT_THROW((void)load_phase_history(path), PreconditionError);
  std::remove(path.c_str());
}

TEST(HistoryIo, MissingFileThrows) {
  EXPECT_THROW((void)load_phase_history("/nonexistent/path/file.sarbp"),
               PreconditionError);
}

}  // namespace
}  // namespace sarbp::io
