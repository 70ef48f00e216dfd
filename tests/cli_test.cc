// Tests for the CLI support pieces (flag parsing and approach-name
// parsing) and for alem_cli's own output, driven through the built binary.

#include <gtest/gtest.h>
#include <sys/stat.h>

#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "core/approaches.h"
#include "util/flags.h"

namespace alem {
namespace {

FlagParser Parse(std::initializer_list<const char*> args) {
  std::vector<const char*> argv = {"prog"};
  argv.insert(argv.end(), args.begin(), args.end());
  return FlagParser(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagParserTest, EqualsSyntax) {
  const FlagParser flags = Parse({"--name=value", "--count=42"});
  EXPECT_EQ(flags.GetString("name", ""), "value");
  EXPECT_EQ(flags.GetInt("count", 0), 42);
}

TEST(FlagParserTest, SpaceSyntax) {
  const FlagParser flags = Parse({"--name", "value", "--rate", "0.25"});
  EXPECT_EQ(flags.GetString("name", ""), "value");
  EXPECT_DOUBLE_EQ(flags.GetDouble("rate", 0.0), 0.25);
}

TEST(FlagParserTest, BareBooleanFlag) {
  const FlagParser flags = Parse({"--holdout", "--verbose=false"});
  EXPECT_TRUE(flags.GetBool("holdout", false));
  EXPECT_FALSE(flags.GetBool("verbose", true));
  EXPECT_TRUE(flags.GetBool("absent", true));
  EXPECT_FALSE(flags.GetBool("absent", false));
}

TEST(FlagParserTest, DeclaredBooleanBeforePositionalsTakesNoValue) {
  // alem_report check --exact-curve A.json B.json
  const char* argv[] = {"prog", "check", "--exact-curve", "A.json", "B.json"};
  const FlagParser flags(5, argv, {"exact-curve"});
  EXPECT_TRUE(flags.GetBool("exact-curve", false));
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"check", "A.json", "B.json"}));
}

TEST(FlagParserTest, DeclaredBooleanBetweenPositionalsTakesNoValue) {
  // alem_report check A.json --exact-curve B.json --counter-tol 0
  const char* argv[] = {"prog",   "check",         "A.json", "--exact-curve",
                        "B.json", "--counter-tol", "0"};
  const FlagParser flags(7, argv, {"exact-curve"});
  EXPECT_TRUE(flags.GetBool("exact-curve", false));
  EXPECT_EQ(flags.GetDouble("counter-tol", 1.0), 0.0);
  EXPECT_EQ(flags.positional(),
            (std::vector<std::string>{"check", "A.json", "B.json"}));
}

TEST(FlagParserTest, DeclaredBooleanStillTakesAnEqualsValue) {
  const char* argv[] = {"prog", "--quiet=false", "run"};
  const FlagParser flags(3, argv, {"quiet"});
  EXPECT_FALSE(flags.GetBool("quiet", true));
  EXPECT_EQ(flags.positional(), (std::vector<std::string>{"run"}));
}

TEST(FlagParserTest, PositionalArguments) {
  const FlagParser flags = Parse({"run", "--x=1", "extra"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "run");
  EXPECT_EQ(flags.positional()[1], "extra");
}

TEST(FlagParserTest, UnknownListsFlagsOutsideTheKnownSet) {
  const FlagParser flags =
      Parse({"check", "--f1-tol=0.1", "--countr-tol=0", "--exact-curve",
             "--retired-tol", "0.1"});
  EXPECT_EQ(flags.Unknown({"f1-tol", "counter-tol", "exact-curve"}),
            (std::vector<std::string>{"countr-tol", "retired-tol"}));
  EXPECT_TRUE(flags.Unknown({"f1-tol", "countr-tol", "exact-curve",
                             "retired-tol"})
                  .empty());
}

TEST(FlagParserTest, DefaultsWhenAbsent) {
  const FlagParser flags = Parse({});
  EXPECT_EQ(flags.GetString("missing", "fallback"), "fallback");
  EXPECT_EQ(flags.GetInt("missing", 7), 7);
  EXPECT_FALSE(flags.Has("missing"));
}

TEST(FlagParserTest, LastValueWins) {
  const FlagParser flags = Parse({"--n=1", "--n=2"});
  EXPECT_EQ(flags.GetInt("n", 0), 2);
}

// ---- ApproachFromName ----

TEST(ApproachFromNameTest, ParsesAllDocumentedNames) {
  struct Case {
    const char* name;
    const char* display;
  };
  const Case cases[] = {
      {"trees20", "Trees(20)"},
      {"trees2", "Trees(2)"},
      {"supervised-trees10", "SupervisedTrees(Random-10)"},
      {"linear-margin", "Linear-Margin"},
      {"linear-margin-1dim", "Linear-Margin(1Dim)"},
      {"linear-margin-10dim", "Linear-Margin(10Dim)"},
      {"linear-margin-ensemble", "Linear-Margin(Ensemble)"},
      {"linear-qbc2", "Linear-QBC(2)"},
      {"linear-qbc20", "Linear-QBC(20)"},
      {"nn-margin", "NN-Margin"},
      {"nn-margin-ensemble", "NN-Margin(Ensemble)"},
      {"nn-qbc2", "NN-QBC(2)"},
      {"rules", "Rules(LFP/LFN)"},
      {"rules-qbc5", "Rules-QBC(5)"},
      {"deepmatcher", "DeepMatcher"},
  };
  for (const Case& c : cases) {
    ApproachSpec spec;
    ASSERT_TRUE(ApproachFromName(c.name, &spec)) << c.name;
    EXPECT_EQ(spec.DisplayName(), c.display) << c.name;
  }
}

TEST(ApproachFromNameTest, RejectsUnknownNames) {
  ApproachSpec spec;
  EXPECT_FALSE(ApproachFromName("", &spec));
  EXPECT_FALSE(ApproachFromName("trees", &spec));
  EXPECT_FALSE(ApproachFromName("trees0", &spec));
  EXPECT_FALSE(ApproachFromName("treesx", &spec));
  EXPECT_FALSE(ApproachFromName("linear-margin-dim", &spec));
  EXPECT_FALSE(ApproachFromName("linear-margin-xdim", &spec));
  EXPECT_FALSE(ApproachFromName("svm", &spec));
}

TEST(ApproachFromNameTest, ParsedSpecsBuild) {
  for (const char* name : {"trees5", "linear-margin-3dim", "rules-qbc3"}) {
    ApproachSpec spec;
    ASSERT_TRUE(ApproachFromName(name, &spec));
    const Approach approach = MakeApproach(spec, 1);
    EXPECT_TRUE(approach.selector->CompatibleWith(*approach.learner));
  }
}

// Runs `alem_cli <args>` and returns its standard output; fails the test
// on a nonzero exit.
std::string RunCli(const std::string& args) {
  const std::string command = std::string(ALEM_CLI_PATH) + " " + args;
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return "";
  std::string output;
  char buffer[256];
  size_t read = 0;
  while ((read = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) {
    output.append(buffer, read);
  }
  EXPECT_EQ(pclose(pipe), 0) << command;
  return output;
}

// The inode number of `path` (0 when it cannot be stat'ed).
ino_t InodeOf(const std::filesystem::path& path) {
  struct stat info {};
  return ::stat(path.c_str(), &info) == 0 ? info.st_ino : 0;
}

// `stats` prints record counts, which a cache hit never generates: a miss,
// a hit and an uncached run must still print the same bytes.
TEST(CliStatsTest, MissHitAndNoCachePrintTheSameStats) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::path(::testing::TempDir()) / "alem_cli_stats";
  fs::remove_all(dir);
  const std::string stats = "stats --dataset=Abt-Buy --scale=0.2 --seed=3";

  const std::string miss = RunCli(stats + " --cache-dir=" + dir.string());
  std::vector<fs::path> entries;
  for (const fs::directory_entry& entry : fs::directory_iterator(dir)) {
    entries.push_back(entry.path());
  }
  ASSERT_EQ(entries.size(), 1u);
  const fs::file_time_type written = fs::last_write_time(entries[0]);
  const ino_t inode = InodeOf(entries[0]);

  const std::string hit = RunCli(stats + " --cache-dir=" + dir.string());
  // A hit reads the entry and leaves it alone. A miss would rename a new
  // file over it, which has a new inode even where a coarse timestamp
  // leaves the mtime unchanged.
  EXPECT_EQ(InodeOf(entries[0]), inode);
  EXPECT_EQ(fs::last_write_time(entries[0]), written);
  const std::string uncached = RunCli(stats + " --no-cache");

  EXPECT_NE(miss.find("left records:"), std::string::npos) << miss;
  EXPECT_EQ(hit, miss);
  EXPECT_EQ(uncached, miss);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace alem
