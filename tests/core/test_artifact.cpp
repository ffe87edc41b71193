#include "core/artifact.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/chaos.h"

namespace sugar::core {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& p) {
  std::ifstream in(p, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

class TempDir : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("sugar_artifact_" +
            std::to_string(::testing::UnitTest::GetInstance()->random_seed()) +
            "_" + ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  fs::path dir_;
};

TEST(Json, BuildAndDumpPreservesInsertionOrder) {
  Json j = Json::object();
  j.set("zeta", Json(1));
  j.set("alpha", Json("x"));
  j.set("flag", Json(true));
  EXPECT_EQ(j.dump(), R"({"zeta":1,"alpha":"x","flag":true})");
}

TEST(Json, RoundTripsThroughParse) {
  Json j = Json::object();
  j.set("name", Json("tls120"));
  j.set("accuracy", Json(0.875));
  j.set("count", Json(std::size_t{42}));
  Json arr = Json::array();
  arr.push(Json(1));
  arr.push(Json::object().set("nested", Json(false)));
  j.set("cells", arr);

  auto parsed = Json::parse(j.dump());
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(), j.dump());
  const Json* cells = parsed->find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_EQ(cells->items().size(), 2u);
  EXPECT_EQ(cells->items()[1].find("nested")->bool_or(true), false);
}

TEST(Json, EscapesControlCharactersAndQuotes) {
  Json j = Json::object();
  j.set("msg", Json(std::string("a\"b\\c\n\t") + '\x01'));
  std::string dumped = j.dump();
  EXPECT_NE(dumped.find(R"(\")"), std::string::npos);
  EXPECT_NE(dumped.find(R"(\n)"), std::string::npos);
  EXPECT_NE(dumped.find("\\u0001"), std::string::npos);
  auto parsed = Json::parse(dumped);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->find("msg")->string_or(""), j.find("msg")->string_or("!"));
}

TEST(Json, NonFiniteNumbersSerializeAsNull) {
  Json j = Json::object();
  j.set("bad", Json(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(j.dump(), R"({"bad":null})");
  EXPECT_TRUE(Json::parse(j.dump()).has_value());
}

TEST(Json, ParseRejectsMalformedAndTrailingGarbage) {
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse(R"({"a":})").has_value());
  EXPECT_FALSE(Json::parse(R"({"a":1} trailing)").has_value());
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("nul").has_value());
}

using ArtifactFiles = TempDir;

TEST_F(ArtifactFiles, AtomicWriteCreatesFileAndLeavesNoTemp) {
  auto target = dir_ / "out.json";
  std::string error;
  ASSERT_TRUE(atomic_write_file(target.string(), "{\"ok\":true}\n", &error)) << error;
  EXPECT_EQ(read_file(target), "{\"ok\":true}\n");
  // temp-then-rename: no sibling temp file survives the write.
  std::size_t entries = 0;
  for ([[maybe_unused]] const auto& e : fs::directory_iterator(dir_)) ++entries;
  EXPECT_EQ(entries, 1u);
}

TEST_F(ArtifactFiles, AtomicWriteFailureLeavesTargetIntact) {
  auto target = dir_ / "out.json";
  std::string error;
  ASSERT_TRUE(atomic_write_file(target.string(), "original", &error));

  // Writing into a non-existent directory must fail without touching the
  // original target.
  auto bad = dir_ / "missing_subdir" / "out.json";
  EXPECT_FALSE(atomic_write_file(bad.string(), "new", &error));
  EXPECT_FALSE(error.empty());
  EXPECT_EQ(read_file(target), "original");
}

TEST_F(ArtifactFiles, AtomicWriteThroughInjectedIoFaults) {
  auto target = dir_ / "out.json";
  std::string error;
  ASSERT_TRUE(atomic_write_file(target.string(), "original", &error));

  // Disk full at the temp-write step: the committed target is untouched.
  {
    ChaosConfig cfg;
    cfg.seed = 1;
    cfg.with(ChaosSite::kIoWriteFail, 1.0);
    ChaosInjector chaos(cfg);
    ChaosIo io(chaos);
    error.clear();
    EXPECT_FALSE(atomic_write_file(target.string(), "new", &error, &io));
    EXPECT_FALSE(error.empty());
    EXPECT_EQ(read_file(target), "original");
  }

  // Rename (commit) failure: the target keeps its previous content — the
  // whole point of temp-then-rename.
  {
    ChaosConfig cfg;
    cfg.seed = 1;
    cfg.with(ChaosSite::kIoRenameFail, 1.0);
    ChaosInjector chaos(cfg);
    ChaosIo io(chaos);
    error.clear();
    EXPECT_FALSE(atomic_write_file(target.string(), "new", &error, &io));
    EXPECT_EQ(read_file(target), "original");
  }

  // A clean injected run behaves exactly like the real filesystem.
  {
    ChaosConfig cfg;  // all probabilities zero
    cfg.seed = 1;
    ChaosInjector chaos(cfg);
    ChaosIo io(chaos);
    EXPECT_TRUE(atomic_write_file(target.string(), "new", &error, &io));
    EXPECT_EQ(read_file(target), "new");
  }
}

TEST_F(ArtifactFiles, LoadJsonlSkipsTornTrailingLine) {
  auto path = dir_ / "journal.jsonl";
  {
    std::ofstream out(path, std::ios::binary);
    out << R"({"key":"a","status":"ok"})" << "\n";
    out << R"({"key":"b","status":"ok"})" << "\n";
    out << R"({"key":"c","stat)";  // torn mid-write
  }
  std::size_t skipped = 0;
  auto entries = load_jsonl(path.string(), &skipped);
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(skipped, 1u);
  EXPECT_EQ(entries[0].find("key")->string_or(""), "a");
  EXPECT_EQ(entries[1].find("key")->string_or(""), "b");
}

TEST_F(ArtifactFiles, LoadJsonlMissingFileIsEmptyNotFatal) {
  std::size_t skipped = 7;
  auto entries = load_jsonl((dir_ / "nope.jsonl").string(), &skipped);
  EXPECT_TRUE(entries.empty());
  EXPECT_EQ(skipped, 0u);
}

TEST(Fingerprint, Fnv1a64MatchesReferenceVector) {
  // Standard FNV-1a test vectors.
  EXPECT_EQ(fnv1a64(""), 0xcbf29ce484222325ull);
  EXPECT_EQ(fnv1a64("a"), 0xaf63dc4c8601ec8cull);
  EXPECT_EQ(hex64(0xdeadbeefull), "00000000deadbeef");
}

}  // namespace
}  // namespace sugar::core
