#include "common/status.h"

#include <gtest/gtest.h>

namespace qox {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, FactoryFunctionsSetCodeAndMessage) {
  EXPECT_EQ(Status::Invalid("x").code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(Status::NotFound("x").code(), StatusCode::kNotFound);
  EXPECT_EQ(Status::AlreadyExists("x").code(), StatusCode::kAlreadyExists);
  EXPECT_EQ(Status::OutOfRange("x").code(), StatusCode::kOutOfRange);
  EXPECT_EQ(Status::FailedPrecondition("x").code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(Status::IoError("x").code(), StatusCode::kIoError);
  EXPECT_EQ(Status::Internal("x").code(), StatusCode::kInternal);
  EXPECT_EQ(Status::Unimplemented("x").code(), StatusCode::kUnimplemented);
  EXPECT_EQ(Status::Cancelled("x").code(), StatusCode::kCancelled);
  EXPECT_EQ(Status::Unavailable("x").code(), StatusCode::kUnavailable);
  EXPECT_EQ(Status::DeadlineExceeded("x").code(),
            StatusCode::kDeadlineExceeded);
  EXPECT_EQ(Status::CorruptedData("x").code(), StatusCode::kCorruptedData);
  EXPECT_EQ(Status::Invalid("why").message(), "why");
}

TEST(StatusTest, CorruptedDataIsRecognized) {
  EXPECT_TRUE(Status::CorruptedData("bad bytes").IsCorruptedData());
  EXPECT_FALSE(Status::IoError("disk").IsCorruptedData());
  EXPECT_FALSE(Status::OK().IsCorruptedData());
}

TEST(StatusTest, TransientClassification) {
  // Retryable: injected system failures, unavailable storage, expired
  // watchdog deadlines.
  EXPECT_TRUE(IsTransient(Status::InjectedFailure("boom")));
  EXPECT_TRUE(IsTransient(Status::Unavailable("blip")));
  EXPECT_TRUE(IsTransient(Status::DeadlineExceeded("hung")));
  // Permanent: everything else, including real I/O errors and integrity
  // failures — retrying cannot help.
  EXPECT_FALSE(IsTransient(Status::OK()));
  EXPECT_FALSE(IsTransient(Status::IoError("disk")));
  EXPECT_FALSE(IsTransient(Status::CorruptedData("bad")));
  EXPECT_FALSE(IsTransient(Status::Cancelled("stop")));
  EXPECT_FALSE(IsTransient(Status::Invalid("bad arg")));
  EXPECT_FALSE(IsTransient(Status::Internal("bug")));
}

TEST(StatusTest, InjectedFailureIsRecognized) {
  const Status s = Status::InjectedFailure("power failure");
  EXPECT_FALSE(s.ok());
  EXPECT_TRUE(s.IsInjectedFailure());
  EXPECT_FALSE(Status::IoError("disk").IsInjectedFailure());
  EXPECT_FALSE(Status::OK().IsInjectedFailure());
}

TEST(StatusTest, ToStringIncludesCodeName) {
  EXPECT_EQ(Status::IoError("disk full").ToString(), "io_error: disk full");
  EXPECT_EQ(Status::InjectedFailure("boom").ToString(),
            "injected_failure: boom");
}

TEST(StatusTest, ParseStatusCodeInvertsStatusCodeName) {
  for (int c = static_cast<int>(StatusCode::kOk);
       c <= static_cast<int>(StatusCode::kResourceExhausted); ++c) {
    const auto code = static_cast<StatusCode>(c);
    EXPECT_EQ(ParseStatusCode(StatusCodeName(code)), code)
        << StatusCodeName(code);
  }
  EXPECT_EQ(ParseStatusCode("resource_exhausted"),
            StatusCode::kResourceExhausted);
  EXPECT_EQ(ParseStatusCode("no_such_code"), std::nullopt);
  EXPECT_EQ(ParseStatusCode(""), std::nullopt);
  EXPECT_EQ(ParseStatusCode("unknown"), std::nullopt);
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::Invalid("a"), Status::Invalid("a"));
  EXPECT_FALSE(Status::Invalid("a") == Status::Invalid("b"));
  EXPECT_FALSE(Status::Invalid("a") == Status::NotFound("a"));
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value(), 42);
  EXPECT_TRUE(r.status().ok());
  EXPECT_EQ(r.ValueOr(-1), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::NotFound("nope");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(r.ValueOr(-1), -1);
}

TEST(ResultTest, OkStatusCannotMasqueradeAsValue) {
  Result<int> r = Status::OK();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInternal);
}

TEST(ResultTest, TakeValueMovesOut) {
  Result<std::string> r = std::string("payload");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.TakeValue(), "payload");
}

Status FailWhenNegative(int x) {
  if (x < 0) return Status::Invalid("negative");
  return Status::OK();
}

Status UsesReturnIfError(int x) {
  QOX_RETURN_IF_ERROR(FailWhenNegative(x));
  return Status::OK();
}

TEST(StatusMacrosTest, ReturnIfErrorPropagates) {
  EXPECT_TRUE(UsesReturnIfError(1).ok());
  EXPECT_EQ(UsesReturnIfError(-1).code(), StatusCode::kInvalidArgument);
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::Invalid("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  QOX_ASSIGN_OR_RETURN(const int half, Half(x));
  QOX_ASSIGN_OR_RETURN(const int quarter, Half(half));
  return quarter;
}

TEST(StatusMacrosTest, AssignOrReturnChains) {
  const Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value(), 2);
  EXPECT_EQ(Quarter(6).status().code(), StatusCode::kInvalidArgument);
}

TEST(StatusTest, AllCodesHaveNames) {
  for (const StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kOutOfRange,
        StatusCode::kFailedPrecondition, StatusCode::kIoError,
        StatusCode::kInternal, StatusCode::kUnimplemented,
        StatusCode::kInjectedFailure, StatusCode::kCancelled,
        StatusCode::kUnavailable, StatusCode::kDeadlineExceeded,
        StatusCode::kCorruptedData}) {
    EXPECT_STRNE(StatusCodeName(code), "unknown");
  }
}

}  // namespace
}  // namespace qox
