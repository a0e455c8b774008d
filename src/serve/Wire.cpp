//===- serve/Wire.cpp - gdpd wire protocol ----------------------------------===//

#include "serve/Wire.h"

#include "partition/Pipeline.h"
#include "support/StrUtil.h"

#include <cstring>

using namespace gdp;
using namespace gdp::serve;
using support::Diag;
using support::errorDiag;
using support::StatusCode;

const char *gdp::serve::verbName(Verb V) {
  switch (V) {
  case Verb::Ping:
    return "ping";
  case Verb::Partition:
    return "partition";
  case Verb::Stats:
    return "stats";
  case Verb::Shutdown:
    return "shutdown";
  }
  return "unknown";
}

const char *gdp::serve::statusName(Status S) {
  switch (S) {
  case Status::Ok:
    return "ok";
  case Status::BadRequest:
    return "bad_request";
  case Status::InputError:
    return "input_error";
  case Status::EvalFailed:
    return "eval_failed";
  case Status::Overloaded:
    return "overloaded";
  case Status::DeadlineExceeded:
    return "deadline_exceeded";
  case Status::ShuttingDown:
    return "shutting_down";
  case Status::Unavailable:
    return "unavailable";
  case Status::InternalError:
    return "internal_error";
  }
  return "unknown";
}

std::string gdp::serve::encodeFrame(Verb V, Status S,
                                    const std::string &Payload) {
  std::string Out;
  Out.reserve(kHeaderSize + Payload.size());
  Out.append(reinterpret_cast<const char *>(kMagic), 4);
  Out.push_back(static_cast<char>(V));
  Out.push_back(static_cast<char>(S));
  Out.push_back(0);
  Out.push_back(0);
  uint32_t Len = static_cast<uint32_t>(Payload.size());
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((Len >> (8 * I)) & 0xff));
  Out += Payload;
  return Out;
}

void FrameReader::feed(const char *Data, size_t Len) {
  Buf.append(Data, Len);
}

size_t FrameReader::wanted() const {
  if (Buf.size() < kHeaderSize)
    return kHeaderSize - Buf.size();
  uint32_t Len = 0;
  for (int I = 0; I < 4; ++I)
    Len |= static_cast<uint32_t>(static_cast<unsigned char>(Buf[8 + I]))
           << (8 * I);
  size_t Need = kHeaderSize + Len;
  return Buf.size() >= Need ? 0 : Need - Buf.size();
}

int FrameReader::next(Frame &Out, Diag &D) {
  if (Poisoned) {
    D = errorDiag(StatusCode::InputError, "serve.frame",
                  "stream already poisoned by an earlier protocol error");
    return -1;
  }
  if (Buf.size() < kHeaderSize)
    return 0;
  if (std::memcmp(Buf.data(), kMagic, 4) != 0) {
    Poisoned = true;
    D = errorDiag(StatusCode::InputError, "serve.frame",
                  "bad frame magic (expected 'GDP1')")
            .with("got",
                  formatStr("%02x%02x%02x%02x",
                            static_cast<unsigned char>(Buf[0]),
                            static_cast<unsigned char>(Buf[1]),
                            static_cast<unsigned char>(Buf[2]),
                            static_cast<unsigned char>(Buf[3])));
    return -1;
  }
  uint8_t V = static_cast<uint8_t>(Buf[4]);
  if (V < static_cast<uint8_t>(Verb::Ping) ||
      V > static_cast<uint8_t>(Verb::Shutdown)) {
    Poisoned = true;
    D = errorDiag(StatusCode::InputError, "serve.frame", "unknown verb")
            .with("verb", static_cast<int64_t>(V));
    return -1;
  }
  uint32_t Len = 0;
  for (int I = 0; I < 4; ++I)
    Len |= static_cast<uint32_t>(static_cast<unsigned char>(Buf[8 + I]))
           << (8 * I);
  if (Len > MaxPayload) {
    Poisoned = true;
    D = errorDiag(StatusCode::TooLarge, "serve.frame",
                  "frame payload exceeds limit")
            .with("payload_bytes", static_cast<uint64_t>(Len))
            .with("limit_bytes", static_cast<uint64_t>(MaxPayload));
    return -1;
  }
  if (Buf.size() < kHeaderSize + Len)
    return 0;
  Out.V = static_cast<Verb>(V);
  Out.S = static_cast<Status>(static_cast<uint8_t>(Buf[5]));
  Out.Payload.assign(Buf, kHeaderSize, Len);
  Buf.erase(0, kHeaderSize + Len);
  return 1;
}

void WireWriter::u16(uint16_t V) {
  for (int I = 0; I < 2; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void WireWriter::u32(uint32_t V) {
  for (int I = 0; I < 4; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void WireWriter::u64(uint64_t V) {
  for (int I = 0; I < 8; ++I)
    Out.push_back(static_cast<char>((V >> (8 * I)) & 0xff));
}

void WireWriter::f64(double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  u64(Bits);
}

void WireWriter::str(const std::string &S) {
  u32(static_cast<uint32_t>(S.size()));
  Out += S;
}

bool WireReader::u8(uint8_t &V) {
  if (Pos + 1 > Data.size())
    return false;
  V = static_cast<uint8_t>(Data[Pos++]);
  return true;
}

bool WireReader::u16(uint16_t &V) {
  if (Pos + 2 > Data.size())
    return false;
  V = 0;
  for (int I = 0; I < 2; ++I)
    V |= static_cast<uint16_t>(static_cast<unsigned char>(Data[Pos + I]))
         << (8 * I);
  Pos += 2;
  return true;
}

bool WireReader::u32(uint32_t &V) {
  if (Pos + 4 > Data.size())
    return false;
  V = 0;
  for (int I = 0; I < 4; ++I)
    V |= static_cast<uint32_t>(static_cast<unsigned char>(Data[Pos + I]))
         << (8 * I);
  Pos += 4;
  return true;
}

bool WireReader::u64(uint64_t &V) {
  if (Pos + 8 > Data.size())
    return false;
  V = 0;
  for (int I = 0; I < 8; ++I)
    V |= static_cast<uint64_t>(static_cast<unsigned char>(Data[Pos + I]))
         << (8 * I);
  Pos += 8;
  return true;
}

bool WireReader::f64(double &V) {
  uint64_t Bits;
  if (!u64(Bits))
    return false;
  std::memcpy(&V, &Bits, sizeof(V));
  return true;
}

bool WireReader::str(std::string &S) {
  uint32_t Len;
  if (!u32(Len))
    return false;
  if (Pos + Len > Data.size())
    return false;
  S.assign(Data, Pos, Len);
  Pos += Len;
  return true;
}

std::string PartitionRequest::encode() const {
  WireWriter W;
  W.str(Spec);
  W.u8(InlineIR ? 1 : 0);
  W.str(Strategy);
  W.u32(MoveLatency);
  W.u32(Clusters);
  W.u64(DeadlineMs);
  return W.take();
}

bool PartitionRequest::decode(const std::string &Payload,
                              PartitionRequest &Out, Diag &D) {
  WireReader R(Payload);
  uint8_t Flags = 0;
  Out = PartitionRequest();
  if (!R.str(Out.Spec) || !R.u8(Flags) || !R.str(Out.Strategy) ||
      !R.u32(Out.MoveLatency) || !R.u32(Out.Clusters) ||
      !R.u64(Out.DeadlineMs)) {
    D = errorDiag(StatusCode::InputError, "serve.request",
                  "truncated partition request payload")
            .with("payload_bytes", static_cast<uint64_t>(Payload.size()));
    return false;
  }
  Out.InlineIR = (Flags & 1) != 0;
  if (Out.Spec.empty()) {
    D = errorDiag(StatusCode::InputError, "serve.request",
                  "empty spec in partition request");
    return false;
  }
  if (Out.Clusters < 1 || Out.Clusters > MaxClusters) {
    D = errorDiag(StatusCode::InputError, "serve.request",
                  formatStr("cluster count out of range [1, %u]",
                            MaxClusters))
            .with("clusters", static_cast<int64_t>(Out.Clusters));
    return false;
  }
  return true;
}

std::string gdp::serve::encodeRegistry(const telemetry::StatsRegistry &R) {
  WireWriter W;
  auto Counters = R.counterSnapshot();
  auto Values = R.valueSnapshot();
  auto Quantiles = R.quantileSnapshot();
  auto Timers = R.timerSnapshot();
  W.u32(static_cast<uint32_t>(Counters.size()));
  for (const auto &[Name, V] : Counters) {
    W.str(Name);
    W.u64(V);
  }
  W.u32(static_cast<uint32_t>(Values.size()));
  for (const auto &[Name, V] : Values) {
    W.str(Name);
    W.u64(V.Count);
    W.f64(V.Sum);
    W.f64(V.Min);
    W.f64(V.Max);
  }
  W.u32(static_cast<uint32_t>(Quantiles.size()));
  for (const auto &[Name, H] : Quantiles) {
    W.str(Name);
    W.u64(H.underflowCount());
    W.u32(static_cast<uint32_t>(H.buckets().size()));
    for (const auto &[Index, N] : H.buckets()) {
      W.u32(static_cast<uint32_t>(Index));
      W.u64(N);
    }
  }
  W.u32(static_cast<uint32_t>(Timers.size()));
  for (const auto &[Name, Sec] : Timers) {
    W.str(Name);
    W.f64(Sec);
  }
  return W.take();
}

bool gdp::serve::decodeRegistryInto(const std::string &Blob,
                                    telemetry::StatsRegistry &Into,
                                    Diag &D) {
  auto Truncated = [&] {
    D = errorDiag(StatusCode::InputError, "serve.stats",
                  "truncated binary stats snapshot")
            .with("payload_bytes", static_cast<uint64_t>(Blob.size()));
    return false;
  };
  WireReader R(Blob);
  uint32_t N;
  if (!R.u32(N))
    return Truncated();
  for (uint32_t I = 0; I < N; ++I) {
    std::string Name;
    uint64_t V;
    if (!R.str(Name) || !R.u64(V))
      return Truncated();
    Into.addCounter(Name, V);
  }
  if (!R.u32(N))
    return Truncated();
  for (uint32_t I = 0; I < N; ++I) {
    std::string Name;
    telemetry::ValueStats V;
    if (!R.str(Name) || !R.u64(V.Count) || !R.f64(V.Sum) || !R.f64(V.Min) ||
        !R.f64(V.Max))
      return Truncated();
    Into.mergeValue(Name, V);
  }
  if (!R.u32(N))
    return Truncated();
  for (uint32_t I = 0; I < N; ++I) {
    std::string Name;
    uint64_t Underflow;
    uint32_t NumBuckets;
    if (!R.str(Name) || !R.u64(Underflow) || !R.u32(NumBuckets))
      return Truncated();
    telemetry::LogHistogram H;
    if (Underflow)
      H.addUnderflow(Underflow);
    for (uint32_t B = 0; B < NumBuckets; ++B) {
      uint32_t Index;
      uint64_t Count;
      if (!R.u32(Index) || !R.u64(Count))
        return Truncated();
      H.addBucket(static_cast<int32_t>(Index), Count);
    }
    Into.mergeQuantile(Name, H);
  }
  if (!R.u32(N))
    return Truncated();
  for (uint32_t I = 0; I < N; ++I) {
    std::string Name;
    double Sec;
    if (!R.str(Name) || !R.f64(Sec))
      return Truncated();
    Into.addTime(Name, Sec);
  }
  if (!R.atEnd()) {
    D = errorDiag(StatusCode::InputError, "serve.stats",
                  "trailing bytes after binary stats snapshot");
    return false;
  }
  return true;
}

std::string gdp::serve::diagsBody(const std::vector<Diag> &Diags) {
  return "{\"diags\": " + support::diagsToJson(Diags) + "}\n";
}

Status gdp::serve::statusForCode(StatusCode C) {
  switch (C) {
  case StatusCode::Ok:
    return Status::Ok;
  case StatusCode::UsageError:
    return Status::BadRequest;
  case StatusCode::InputError:
  case StatusCode::ParseError:
  case StatusCode::VerifyError:
  case StatusCode::ProfileError:
  case StatusCode::TooLarge:
    return Status::InputError;
  case StatusCode::Infeasible:
  case StatusCode::FaultInjected:
  case StatusCode::TaskFailed:
    return Status::EvalFailed;
  case StatusCode::BudgetExhausted:
  case StatusCode::Cancelled:
    return Status::DeadlineExceeded;
  case StatusCode::Internal:
    return Status::InternalError;
  }
  return Status::InternalError;
}

bool gdp::serve::retryableStatus(Status S) {
  switch (S) {
  case Status::Overloaded:
  case Status::ShuttingDown:
  case Status::Unavailable:
  case Status::InternalError:
    return true;
  case Status::Ok:
  case Status::BadRequest:
  case Status::InputError:
  case Status::EvalFailed:
  case Status::DeadlineExceeded:
    return false;
  }
  return false;
}
