// harness::Flags — the one flag parser behind run_all, swarm, perfbench,
// examples/orbitbench and the tools. Parsing rules must match the
// historical hand-rolled loops, and Usage() must reflect every
// registration so --help cannot go stale.
#include "harness/flags.h"

#include <gtest/gtest.h>

#include <vector>

#include "common/check.h"

namespace orbit::harness {
namespace {

Flags TypicalFlags() {
  Flags flags;
  flags.AddBool("quick", "smoke scale");
  flags.AddBool("full", "paper scale");
  flags.AddInt("jobs", 1, "N", "parallel sweep points");
  flags.AddUint64("seed", 42, "N", "base seed");
  flags.AddDouble("timeout", 0, "SEC", "per-point budget");
  flags.AddString("out", "", "PATH", "results file");
  flags.AddBool("help", "this message").Alias("-h");
  return flags;
}

// Builds a mutable argv from string literals (Parse takes char**).
class Argv {
 public:
  explicit Argv(std::vector<std::string> args) : strings_(std::move(args)) {
    ptrs_.push_back(const_cast<char*>("prog"));
    for (auto& s : strings_) ptrs_.push_back(s.data());
  }
  int argc() const { return static_cast<int>(ptrs_.size()); }
  char** argv() { return ptrs_.data(); }

 private:
  std::vector<std::string> strings_;
  std::vector<char*> ptrs_;
};

TEST(Flags, DefaultsWhenUnset) {
  Flags flags = TypicalFlags();
  Argv args({});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_FALSE(flags.GetBool("quick"));
  EXPECT_EQ(flags.GetInt("jobs"), 1);
  EXPECT_EQ(flags.GetUint64("seed"), 42u);
  EXPECT_EQ(flags.GetDouble("timeout"), 0.0);
  EXPECT_EQ(flags.GetString("out"), "");
  EXPECT_FALSE(flags.Seen("jobs"));
}

TEST(Flags, ParsesEveryType) {
  Flags flags = TypicalFlags();
  Argv args({"--quick", "--jobs", "8", "--seed", "7", "--timeout", "2.5",
             "--out", "r.jsonl"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_TRUE(flags.GetBool("quick"));
  EXPECT_EQ(flags.GetInt("jobs"), 8);
  EXPECT_EQ(flags.GetUint64("seed"), 7u);
  EXPECT_EQ(flags.GetDouble("timeout"), 2.5);
  EXPECT_EQ(flags.GetString("out"), "r.jsonl");
  EXPECT_TRUE(flags.Seen("jobs"));
}

TEST(Flags, PositionalsCollectInOrder) {
  Flags flags = TypicalFlags();
  Argv args({"fig09", "--jobs", "2", "fig12"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_EQ(flags.positionals(),
            (std::vector<std::string>{"fig09", "fig12"}));
}

TEST(Flags, UnknownFlagFails) {
  Flags flags = TypicalFlags();
  Argv args({"--bogus"});
  EXPECT_FALSE(flags.Parse(args.argc(), args.argv()));
  EXPECT_EQ(flags.error(), "unknown flag: --bogus");
}

TEST(Flags, UnknownFlagSuggestsTheNearestName) {
  Flags flags = TypicalFlags();
  Argv args({"--sede", "9"});
  EXPECT_FALSE(flags.Parse(args.argc(), args.argv()));
  EXPECT_EQ(flags.error(), "unknown flag: --sede (did you mean --seed?)");
}

TEST(Flags, UnknownFlagSuggestionCoversLongerTyposAndAliases) {
  Flags flags;
  flags.AddString("trace-out", "", "PATH", "trace file");
  flags.AddBool("help", "this message").Alias("-h");
  {
    Argv args({"--trase-out", "t.json"});
    EXPECT_FALSE(flags.Parse(args.argc(), args.argv()));
    EXPECT_EQ(flags.error(),
              "unknown flag: --trase-out (did you mean --trace-out?)");
  }
  {
    // Aliases are candidate spellings too.
    Argv args({"-j"});
    EXPECT_FALSE(flags.Parse(args.argc(), args.argv()));
    EXPECT_EQ(flags.error(), "unknown flag: -j (did you mean -h?)");
  }
}

TEST(Flags, UnknownFlagFarFromEverythingGetsNoSuggestion) {
  Flags flags = TypicalFlags();
  Argv args({"--frobnicate"});
  EXPECT_FALSE(flags.Parse(args.argc(), args.argv()));
  EXPECT_EQ(flags.error(), "unknown flag: --frobnicate");
}

TEST(Flags, MissingValueFails) {
  Flags flags = TypicalFlags();
  Argv args({"--jobs"});
  EXPECT_FALSE(flags.Parse(args.argc(), args.argv()));
  EXPECT_EQ(flags.error(), "--jobs requires a value");
}

TEST(Flags, MalformedValueFailsWithRawText) {
  Flags flags = TypicalFlags();
  Argv args({"--jobs", "many"});
  EXPECT_FALSE(flags.Parse(args.argc(), args.argv()));
  EXPECT_EQ(flags.error(), "bad --jobs value: many");
}

TEST(Flags, RawPreservesUnparsedText) {
  // Callers with extra range checks ("--jobs 0") report the user's exact
  // spelling via Raw().
  Flags flags = TypicalFlags();
  Argv args({"--jobs", "0"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_EQ(flags.GetInt("jobs"), 0);
  EXPECT_EQ(flags.Raw("jobs"), "0");
}

TEST(Flags, AliasMatchesAlternateSpelling) {
  Flags flags = TypicalFlags();
  Argv args({"-h"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_TRUE(flags.GetBool("help"));
}

TEST(Flags, LastIndexResolvesMutuallyExclusivePairs) {
  // --quick --full --quick: the harness picks whichever appeared last.
  Flags flags = TypicalFlags();
  Argv args({"--quick", "--full", "--quick"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_GT(flags.LastIndex("quick"), flags.LastIndex("full"));
  EXPECT_EQ(flags.LastIndex("seed"), -1);
}

TEST(Flags, RepeatedValueFlagLastWins) {
  Flags flags = TypicalFlags();
  Argv args({"--jobs", "2", "--jobs", "4"});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_EQ(flags.GetInt("jobs"), 4);
  EXPECT_EQ(flags.Raw("jobs"), "4");
}

TEST(Flags, TypeMismatchIsACheckedError) {
  Flags flags = TypicalFlags();
  Argv args({});
  ASSERT_TRUE(flags.Parse(args.argc(), args.argv()));
  EXPECT_THROW(flags.GetInt("quick"), CheckFailure);       // bool as int
  EXPECT_THROW(flags.GetBool("nonexistent"), CheckFailure);
}

TEST(Flags, UsageListsEveryRegistration) {
  const std::string usage = TypicalFlags().Usage();
  for (const char* needle :
       {"--quick", "--jobs N", "--seed N", "--timeout SEC", "--out PATH",
        "parallel sweep points", "base seed"})
    EXPECT_NE(usage.find(needle), std::string::npos) << needle;
}

}  // namespace
}  // namespace orbit::harness
