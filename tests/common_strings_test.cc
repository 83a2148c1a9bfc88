#include "common/strings.h"

#include <gtest/gtest.h>

namespace qox {
namespace {

TEST(SplitTest, PreservesEmptyFields) {
  EXPECT_EQ(Split("a,,b", ','), (std::vector<std::string>{"a", "", "b"}));
  EXPECT_EQ(Split("", ','), (std::vector<std::string>{""}));
  EXPECT_EQ(Split("x", ','), (std::vector<std::string>{"x"}));
  EXPECT_EQ(Split(",", ','), (std::vector<std::string>{"", ""}));
}

TEST(JoinTest, JoinsWithDelimiter) {
  EXPECT_EQ(Join({"a", "b", "c"}, ", "), "a, b, c");
  EXPECT_EQ(Join({}, ","), "");
  EXPECT_EQ(Join({"solo"}, ","), "solo");
}

TEST(CsvEscapeTest, QuotesOnlyWhenNeeded) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvEscape("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(CsvEscape("with\nnewline"), "\"with\nnewline\"");
  EXPECT_EQ(CsvEscape(""), "");
}

std::vector<std::string> Decode(const std::string& line) {
  std::vector<std::string> cells;
  CsvDecodeLine(line, &cells);
  return cells;
}

struct CsvCase {
  std::vector<std::string> cells;
};

class CsvRoundTripTest : public ::testing::TestWithParam<CsvCase> {};

TEST_P(CsvRoundTripTest, EncodeDecodeIsIdentity) {
  const std::vector<std::string>& cells = GetParam().cells;
  EXPECT_EQ(Decode(CsvEncodeLine(cells)), cells);
  // A reused vector holding an earlier, wider line's cells is replaced
  // exactly: no stale cell or stale character survives.
  std::vector<std::string> reused{"stale,cell", "x", "yy", "zzz", "wwww"};
  CsvDecodeLine(CsvEncodeLine(cells), &reused);
  EXPECT_EQ(reused, cells);
}

INSTANTIATE_TEST_SUITE_P(
    RoundTrips, CsvRoundTripTest,
    ::testing::Values(
        CsvCase{{"a", "b", "c"}},
        CsvCase{{"", "", ""}},
        CsvCase{{"with,comma", "plain"}},
        CsvCase{{"quote\"inside", "tail"}},
        CsvCase{{"multi\nline", "x"}},
        CsvCase{{"all,of\"it\nmixed", "", "end"}},
        CsvCase{{"\"", ",", "\"\""}},
        CsvCase{{"trailing", ""}},
        CsvCase{{"solo"}}));

TEST(CsvDecodeTest, HandlesQuotedCommas) {
  EXPECT_EQ(Decode("a,\"b,c\",d"),
            (std::vector<std::string>{"a", "b,c", "d"}));
  // Quotes toggle quoting anywhere in a cell; an unterminated quoted cell
  // runs to the end of the line.
  EXPECT_EQ(Decode("a\"b,c\"d,e"), (std::vector<std::string>{"ab,cd", "e"}));
  EXPECT_EQ(Decode("a,\"b,c"), (std::vector<std::string>{"a", "b,c"}));
}

TEST(CsvDecodeTest, HandlesDoubledQuotes) {
  EXPECT_EQ(Decode("\"he said \"\"hi\"\"\""),
            (std::vector<std::string>{"he said \"hi\""}));
}

TEST(FormatDoubleTest, FixedDecimals) {
  EXPECT_EQ(FormatDouble(12.345, 2), "12.35");
  EXPECT_EQ(FormatDouble(1.0, 0), "1");
  EXPECT_EQ(FormatDouble(-0.5, 1), "-0.5");
}

}  // namespace
}  // namespace qox
