//===- serve/Wire.h - gdpd wire protocol ------------------------*- C++ -*-===//
//
// Part of the GDP reproduction library.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The length-prefixed binary protocol spoken between `gdpd`, its
/// coordinator mode, the `gdpd_client` library and `gdptool request`
/// (docs/SERVING.md). One message = one frame:
///
///   offset  size  field
///   0       4     magic "GDP1"
///   4       1     verb (Verb below; a response echoes its request's verb)
///   5       1     status (Status below; always Ok in requests)
///   6       2     reserved, must be 0
///   8       4     payload length N (little-endian)
///   12      N     payload
///
/// Payloads are packed little-endian scalars and u32-length-prefixed
/// strings (WireWriter/WireReader). The payload length is bounded
/// (`kMaxPayload`, 16 MiB — inline IR programs fit comfortably); a frame
/// claiming more is a protocol error and the server closes the
/// connection after answering with `Status::BadRequest`. Every malformed
/// input (bad magic, truncated frame, short payload) decodes to a
/// structured `Diag` — never an exception or a crash (the "total entry
/// points" contract of docs/ROBUSTNESS.md extends to the network edge).
///
/// Verbs:
///   Ping       empty request; response payload = str(json server info)
///   Partition  PartitionRequest; response payload = str(json result)
///   Stats      u8 format (StatsFormat); response = str(json/prometheus)
///              or a binary StatsRegistry snapshot (the coordinator's
///              exact-merge path — LogHistogram buckets add losslessly)
///   Shutdown   empty request; server acknowledges, then drains and exits
///
/// Error responses of any verb carry str(json {"diags": [...]}).
///
//===----------------------------------------------------------------------===//

#ifndef GDP_SERVE_WIRE_H
#define GDP_SERVE_WIRE_H

#include "support/StatsRegistry.h"
#include "support/Status.h"

#include <cstdint>
#include <string>
#include <vector>

namespace gdp {
namespace serve {

/// Frame magic: "GDP1" (protocol version 1 is part of the magic).
constexpr unsigned char kMagic[4] = {'G', 'D', 'P', '1'};
/// Frame header size in bytes.
constexpr size_t kHeaderSize = 12;
/// Largest accepted payload (16 MiB).
constexpr uint32_t kMaxPayload = 16u << 20;

/// Message verbs.
enum class Verb : uint8_t {
  Ping = 1,
  Partition = 2,
  Stats = 3,
  Shutdown = 4,
};

/// Stable lower-case verb name ("ping", ...; "unknown" otherwise).
const char *verbName(Verb V);

/// Response status codes — the protocol-level projection of
/// support::StatusCode (docs/SERVING.md has the full mapping).
enum class Status : uint8_t {
  Ok = 0,
  BadRequest = 1,      ///< Malformed frame or request payload.
  InputError = 2,      ///< Spec failed to load/parse/verify/profile.
  EvalFailed = 3,      ///< Strategy evaluation failed (degradation spent).
  Overloaded = 4,      ///< Admission control shed the request.
  DeadlineExceeded = 5,///< The per-request budget expired.
  ShuttingDown = 6,    ///< Server is draining; request not accepted.
  Unavailable = 7,     ///< Coordinator could not reach the owning shard.
  InternalError = 8,   ///< Unexpected server-side failure.
};

/// Stable lower-snake status name ("ok", "bad_request", ...).
const char *statusName(Status S);

/// One decoded frame.
struct Frame {
  Verb V = Verb::Ping;
  Status S = Status::Ok;
  std::string Payload;
};

/// Encodes a complete frame (header + payload).
std::string encodeFrame(Verb V, Status S, const std::string &Payload);

/// Incremental frame decoder: feed() bytes as they arrive, poll next().
/// One decoder per connection; any protocol violation is sticky (the
/// connection must be dropped after the error is reported).
class FrameReader {
public:
  explicit FrameReader(uint32_t MaxPayload = kMaxPayload)
      : MaxPayload(MaxPayload) {}

  /// Appends received bytes.
  void feed(const char *Data, size_t Len);

  /// Extracts the next complete frame. Returns 1 when \p Out was filled,
  /// 0 when more bytes are needed, -1 on a protocol error (\p Diag is
  /// filled; the stream is poisoned from here on).
  int next(Frame &Out, support::Diag &Diag);

  /// Bytes the decoder still needs before the current frame completes
  /// (kHeaderSize when between frames). Lets a blocking reader recv
  /// exactly the right amount.
  size_t wanted() const;

  /// True once a protocol error poisoned the stream.
  bool poisoned() const { return Poisoned; }

private:
  std::string Buf;
  uint32_t MaxPayload;
  bool Poisoned = false;
};

/// Serializer for payloads: little-endian scalars, u32-length strings.
class WireWriter {
public:
  void u8(uint8_t V) { Out.push_back(static_cast<char>(V)); }
  void u16(uint16_t V);
  void u32(uint32_t V);
  void u64(uint64_t V);
  void f64(double V);
  void str(const std::string &S);
  const std::string &bytes() const { return Out; }
  std::string take() { return std::move(Out); }

private:
  std::string Out;
};

/// Deserializer: every read reports underflow instead of asserting.
class WireReader {
public:
  explicit WireReader(const std::string &Data) : Data(Data) {}
  bool u8(uint8_t &V);
  bool u16(uint16_t &V);
  bool u32(uint32_t &V);
  bool u64(uint64_t &V);
  bool f64(double &V);
  bool str(std::string &S);
  bool atEnd() const { return Pos == Data.size(); }

private:
  const std::string &Data;
  size_t Pos = 0;
};

/// A partition request as carried in a Verb::Partition payload.
struct PartitionRequest {
  /// Workload name, gen:SEED[:OPS] spec — or, with InlineIR, the textual
  /// IR program itself.
  std::string Spec;
  bool InlineIR = false;
  std::string Strategy = "gdp"; ///< gdp|profilemax|naive|unified.
  uint32_t MoveLatency = 5;
  uint32_t Clusters = 2;
  /// Per-request deadline in milliseconds (0 = the server's default).
  uint64_t DeadlineMs = 0;

  std::string encode() const;
  /// Decodes; false (with \p Diag filled) on a malformed payload.
  static bool decode(const std::string &Payload, PartitionRequest &Out,
                     support::Diag &Diag);

  /// The admission/routing key: what the coordinator hashes to pick a
  /// shard and what the warm cache keys on. Inline programs key on their
  /// full text — identical programs share a cache entry. A well-formed
  /// gen spec keys on its parsed seed and op count, as gen:SEED:OPS, so
  /// every spelling of one program (leading zeros, the default op count
  /// left out) shares one entry and one shard.
  std::string key() const;
};

/// Stats response format selector (first payload byte of a Stats request).
enum class StatsFormat : uint8_t {
  Json = 0,
  Prometheus = 1,
  Binary = 2, ///< Binary StatsRegistry snapshot (coordinator merge path).
};

/// Serializes a full registry snapshot (counters, value summaries,
/// quantile histogram buckets, timers). The decode+mergeInto round trip
/// is exact: quantiles merge bucket-by-bucket, so a coordinator's merged
/// p50/p90/p99 equal a single process having observed every sample.
std::string encodeRegistry(const telemetry::StatsRegistry &R);

/// Decodes a registry snapshot and merges it into \p Into. False (with
/// \p Diag filled) on a malformed blob.
bool decodeRegistryInto(const std::string &Blob,
                        telemetry::StatsRegistry &Into,
                        support::Diag &Diag);

/// Renders {"diags": [...]} — the error-response payload body.
std::string diagsBody(const std::vector<support::Diag> &Diags);

/// Maps a pipeline/support status code onto the wire status used when a
/// request fails with that diagnostic.
Status statusForCode(support::StatusCode C);

/// True when a response with status \p S may succeed on another replica
/// or a later attempt (transport-shaped failures: the shard was
/// unreachable, overloaded, draining, or failed internally). Request-
/// shaped failures — bad payload, bad spec, evaluation failure, an
/// expired per-request deadline — are final: every replica would answer
/// the same, so the coordinator must not burn the budget retrying them
/// (docs/SERVING.md has the full failure-semantics matrix).
bool retryableStatus(Status S);

} // namespace serve
} // namespace gdp

#endif // GDP_SERVE_WIRE_H
