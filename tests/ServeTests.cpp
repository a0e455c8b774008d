//===- tests/ServeTests.cpp - Serving subsystem tests -----------------------===//
//
// Wire protocol, service execution, server lifecycle, admission control,
// coordinator routing/merging, and the network edge of the robustness
// contract (docs/SERVING.md): malformed frames, mid-request disconnects
// and injected faults must produce structured diagnostics — never a
// crash, a hang, or a wedged daemon.
//
//===----------------------------------------------------------------------===//

#include "gen/Generator.h"
#include "partition/PreparedCache.h"
#include "partition/PartitionTables.h"
#include "serve/Client.h"
#include "serve/Coordinator.h"
#include "serve/Server.h"
#include "serve/Wire.h"
#include "support/FaultInjector.h"
#include "support/Json.h"
#include "support/StrUtil.h"

#include "gtest/gtest.h"

#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <set>
#include <thread>

using namespace gdp;
using namespace gdp::serve;

namespace {

//===----------------------------------------------------------------------===//
// Wire format
//===----------------------------------------------------------------------===//

TEST(ServeWire, FrameRoundTrip) {
  std::string Enc = encodeFrame(Verb::Partition, Status::Ok, "hello");
  ASSERT_EQ(Enc.size(), kHeaderSize + 5);
  FrameReader R;
  R.feed(Enc.data(), Enc.size());
  Frame F;
  support::Diag D;
  ASSERT_EQ(R.next(F, D), 1);
  EXPECT_EQ(F.V, Verb::Partition);
  EXPECT_EQ(F.S, Status::Ok);
  EXPECT_EQ(F.Payload, "hello");
  EXPECT_EQ(R.next(F, D), 0); // Nothing buffered.
}

TEST(ServeWire, FrameReaderIncrementalByByte) {
  std::string Enc = encodeFrame(Verb::Ping, Status::Ok, "abc");
  FrameReader R;
  Frame F;
  support::Diag D;
  for (size_t I = 0; I + 1 < Enc.size(); ++I) {
    R.feed(&Enc[I], 1);
    ASSERT_EQ(R.next(F, D), 0) << "frame completed early at byte " << I;
  }
  R.feed(&Enc[Enc.size() - 1], 1);
  ASSERT_EQ(R.next(F, D), 1);
  EXPECT_EQ(F.Payload, "abc");
}

TEST(ServeWire, FrameReaderWantedTracksNeeds) {
  FrameReader R;
  EXPECT_EQ(R.wanted(), kHeaderSize);
  std::string Enc = encodeFrame(Verb::Ping, Status::Ok, "xyzw");
  R.feed(Enc.data(), kHeaderSize);
  EXPECT_EQ(R.wanted(), 4u); // Payload still outstanding.
}

TEST(ServeWire, GarbageMagicPoisons) {
  FrameReader R;
  std::string Junk = "HTTP/1.1 200 OK\r\n\r\n";
  R.feed(Junk.data(), Junk.size());
  Frame F;
  support::Diag D;
  ASSERT_EQ(R.next(F, D), -1);
  EXPECT_TRUE(R.poisoned());
  EXPECT_FALSE(D.Message.empty());
  // Sticky: more bytes never resurrect the stream.
  R.feed(Junk.data(), Junk.size());
  EXPECT_EQ(R.next(F, D), -1);
}

TEST(ServeWire, OversizedPayloadRejected) {
  // Hand-build a header claiming a payload beyond the limit.
  std::string H(reinterpret_cast<const char *>(kMagic), 4);
  H.push_back(static_cast<char>(Verb::Ping));
  H.push_back(0);
  H.push_back(0);
  H.push_back(0);
  uint32_t N = kMaxPayload + 1;
  for (int I = 0; I != 4; ++I)
    H.push_back(static_cast<char>((N >> (8 * I)) & 0xff));
  FrameReader R;
  R.feed(H.data(), H.size());
  Frame F;
  support::Diag D;
  ASSERT_EQ(R.next(F, D), -1);
  EXPECT_EQ(D.Code, support::StatusCode::TooLarge);
}

TEST(ServeWire, UnknownVerbRejected) {
  std::string Enc = encodeFrame(Verb::Ping, Status::Ok, "");
  Enc[4] = 99; // Out of the Verb range.
  FrameReader R;
  R.feed(Enc.data(), Enc.size());
  Frame F;
  support::Diag D;
  EXPECT_EQ(R.next(F, D), -1);
}

TEST(ServeWire, PartitionRequestRoundTrip) {
  PartitionRequest Req;
  Req.Spec = "gen:7:300";
  Req.Strategy = "profilemax";
  Req.MoveLatency = 10;
  Req.Clusters = 4;
  Req.DeadlineMs = 250;
  PartitionRequest Out;
  support::Diag D;
  ASSERT_TRUE(PartitionRequest::decode(Req.encode(), Out, D));
  EXPECT_EQ(Out.Spec, "gen:7:300");
  EXPECT_EQ(Out.Strategy, "profilemax");
  EXPECT_EQ(Out.MoveLatency, 10u);
  EXPECT_EQ(Out.Clusters, 4u);
  EXPECT_EQ(Out.DeadlineMs, 250u);
  EXPECT_FALSE(Out.InlineIR);
}

TEST(ServeWire, PartitionRequestRejectsTruncatedAndInvalid) {
  PartitionRequest Out;
  support::Diag D;
  EXPECT_FALSE(PartitionRequest::decode("", Out, D));
  PartitionRequest Req;
  Req.Spec = ""; // Empty spec is invalid.
  EXPECT_FALSE(PartitionRequest::decode(Req.encode(), Out, D));
  Req.Spec = "fir";
  Req.Clusters = 65; // Out of range.
  EXPECT_FALSE(PartitionRequest::decode(Req.encode(), Out, D));
  std::string Good = PartitionRequest().encode();
  EXPECT_FALSE(
      PartitionRequest::decode(Good.substr(0, Good.size() / 2), Out, D));
}

TEST(ServeWire, RequestKeyDistinguishesInlineIR) {
  PartitionRequest A, B;
  A.Spec = B.Spec = "fir";
  B.InlineIR = true;
  EXPECT_NE(A.key(), B.key());
}

TEST(ServeWire, RegistryCodecRoundTripIsExact) {
  telemetry::StatsRegistry R;
  R.addCounter("c.one", 7);
  R.addTime("t.one", 1.5);
  for (int I = 1; I <= 100; ++I)
    R.recordValue("v.lat", static_cast<double>(I));
  telemetry::StatsRegistry Back;
  support::Diag D;
  ASSERT_TRUE(decodeRegistryInto(encodeRegistry(R), Back, D));
  EXPECT_EQ(Back.getCounter("c.one"), 7u);
  EXPECT_DOUBLE_EQ(Back.getTime("t.one"), 1.5);
  EXPECT_EQ(Back.getValue("v.lat").Count, 100u);
  EXPECT_DOUBLE_EQ(Back.getValue("v.lat").Sum, R.getValue("v.lat").Sum);
  // The quantile merge is bucket-exact, so quantiles agree exactly.
  EXPECT_DOUBLE_EQ(Back.quantile("v.lat", 0.5), R.quantile("v.lat", 0.5));
  EXPECT_DOUBLE_EQ(Back.quantile("v.lat", 0.99), R.quantile("v.lat", 0.99));
}

TEST(ServeWire, RegistryMergeEqualsUnionOfSamples) {
  // Two "shards" observe disjoint samples; merging their snapshots must
  // equal one registry having seen every sample (the coordinator's
  // cluster-wide p99 claim).
  telemetry::StatsRegistry A, B, Whole, Merged;
  for (int I = 1; I <= 50; ++I) {
    A.recordValue("lat", I * 1.0);
    Whole.recordValue("lat", I * 1.0);
  }
  for (int I = 51; I <= 200; ++I) {
    B.recordValue("lat", I * 1.0);
    Whole.recordValue("lat", I * 1.0);
  }
  support::Diag D;
  ASSERT_TRUE(decodeRegistryInto(encodeRegistry(A), Merged, D));
  ASSERT_TRUE(decodeRegistryInto(encodeRegistry(B), Merged, D));
  EXPECT_EQ(Merged.getValue("lat").Count, 200u);
  for (double Q : {0.5, 0.9, 0.99})
    EXPECT_DOUBLE_EQ(Merged.quantile("lat", Q), Whole.quantile("lat", Q));
}

TEST(ServeWire, DecodeRegistryRejectsGarbage) {
  telemetry::StatsRegistry R;
  support::Diag D;
  EXPECT_FALSE(decodeRegistryInto("nonsense blob", R, D));
  EXPECT_FALSE(D.Message.empty());
}

TEST(ServeWire, StatusMapping) {
  EXPECT_EQ(statusForCode(support::StatusCode::Ok), Status::Ok);
  EXPECT_EQ(statusForCode(support::StatusCode::ParseError),
            Status::InputError);
  EXPECT_EQ(statusForCode(support::StatusCode::BudgetExhausted),
            Status::DeadlineExceeded);
  EXPECT_EQ(statusForCode(support::StatusCode::Infeasible),
            Status::EvalFailed);
}

TEST(ServeCoordinatorHash, RouteHashIsStableAcrossProcesses) {
  // FNV-1a 64 with the canonical offset/prime: pinned values so a rebuild
  // (or a different stdlib) can never silently re-route the key space.
  EXPECT_EQ(routeHash(""), 14695981039346656037ULL);
  EXPECT_EQ(routeHash("fir"), 15897275783413576070ULL);
  EXPECT_NE(routeHash("fir"), routeHash("fir2"));
}

//===----------------------------------------------------------------------===//
// In-process cluster harness
//===----------------------------------------------------------------------===//

/// One in-process gdpd: service + backend + server pumping on a thread.
struct TestServer {
  ServiceOptions SvcOpt;
  /// Coordinator tuning used when boot() gets shard addresses; tests
  /// override it (replicas, breaker, backoff) before booting.
  CoordinatorOptions CoordOpt = [] {
    CoordinatorOptions C;
    C.TimeoutMs = 5000;
    return C;
  }();
  std::unique_ptr<Service> Svc;
  std::unique_ptr<Backend> B;
  std::unique_ptr<Server> Srv;
  std::thread Pump;
  int ExitCode = -1;

  /// Boots a shard (or, with \p Shards, a coordinator) on a fresh unix
  /// socket. Returns false if bind failed.
  bool boot(const std::string &Tag, ServerOptions SO = {},
            ServiceOptions SvcO = {},
            std::vector<support::SockAddr> Shards = {}) {
    SvcOpt = SvcO;
    Svc = std::make_unique<Service>(SvcOpt);
    if (Shards.empty())
      B = std::make_unique<LocalBackend>(*Svc);
    else
      B = std::make_unique<CoordinatorBackend>(std::move(Shards), CoordOpt);
    SO.Listen.IsUnix = true;
    SO.Listen.Path = formatStr("/tmp/gdp-serve-test-%d-%s.sock",
                               static_cast<int>(::getpid()), Tag.c_str());
    if (!SO.Threads)
      SO.Threads = 4;
    Srv = std::make_unique<Server>(SO, *Svc, *B);
    std::vector<support::Diag> Diags;
    if (!Srv->start(Diags))
      return false;
    Pump = std::thread([this] { ExitCode = Srv->run(); });
    return true;
  }

  const support::SockAddr &addr() const { return Srv->boundAddr(); }

  int stop() {
    if (Srv)
      Srv->requestStop();
    if (Pump.joinable())
      Pump.join();
    return ExitCode;
  }

  ~TestServer() { stop(); }
};

//===----------------------------------------------------------------------===//
// Single-shard serving
//===----------------------------------------------------------------------===//

TEST(ServeServer, PingReportsRole) {
  TestServer S;
  ASSERT_TRUE(S.boot("ping"));
  Client C;
  ASSERT_TRUE(C.connect(S.addr(), 5000));
  std::string Info;
  ASSERT_TRUE(C.ping(Info));
  EXPECT_NE(Info.find("\"role\": \"shard\""), std::string::npos) << Info;
  EXPECT_EQ(S.stop(), 0);
}

TEST(ServeServer, PartitionWorkloadAndCacheAttribution) {
  TestServer S;
  ASSERT_TRUE(S.boot("part"));
  Client C;
  ASSERT_TRUE(C.connect(S.addr(), 5000));
  PartitionRequest Req;
  Req.Spec = "gen:3:60";
  std::string Body;
  ASSERT_EQ(C.partition(Req, Body), Status::Ok) << Body;
  EXPECT_NE(Body.find("\"cache\": \"miss\""), std::string::npos) << Body;
  EXPECT_NE(Body.find("\"cycles\""), std::string::npos);
  // Same spec again: the warm cache answers, and the service attributes
  // the request to the hit histogram.
  ASSERT_EQ(C.partition(Req, Body), Status::Ok);
  EXPECT_NE(Body.find("\"cache\": \"hit\""), std::string::npos) << Body;
  EXPECT_EQ(
      S.Svc->registry().getValue("serve.latency_ms.partition.hit").Count,
      1u);
  EXPECT_EQ(
      S.Svc->registry().getValue("serve.latency_ms.partition.miss").Count,
      1u);
  EXPECT_EQ(S.stop(), 0);
}

TEST(ServeServer, InlineIRPartition) {
  TestServer S;
  ASSERT_TRUE(S.boot("ir"));
  Client C;
  ASSERT_TRUE(C.connect(S.addr(), 5000));
  PartitionRequest Req;
  Req.InlineIR = true;
  Req.Spec = "program tiny\n"
             "func f0 main()\n"
             "bb0 (entry):\n"
             "  r0 = movi 1\n"
             "  r1 = movi 2\n"
             "  r2 = add r0, r1\n"
             "  ret r2\n"
             "entry f0\n";
  std::string Body;
  EXPECT_EQ(C.partition(Req, Body), Status::Ok) << Body;
  EXPECT_EQ(S.stop(), 0);
}

TEST(ServeServer, BadSpecIsInputErrorAndConnectionSurvives) {
  TestServer S;
  ASSERT_TRUE(S.boot("badspec"));
  Client C;
  ASSERT_TRUE(C.connect(S.addr(), 5000));
  PartitionRequest Req;
  Req.Spec = "no_such_workload_xyz";
  std::string Body;
  EXPECT_EQ(C.partition(Req, Body), Status::InputError);
  EXPECT_NE(Body.find("\"diags\""), std::string::npos) << Body;
  // Request-level failure keeps the framing in sync: the same connection
  // serves the next request.
  Req.Spec = "gen:3:60";
  EXPECT_EQ(C.partition(Req, Body), Status::Ok);
  EXPECT_EQ(S.stop(), 0);
}

TEST(ServeServer, FilePathSpecRefused) {
  TestServer S;
  ASSERT_TRUE(S.boot("nopath"));
  Client C;
  ASSERT_TRUE(C.connect(S.addr(), 5000));
  PartitionRequest Req;
  Req.Spec = "/etc/hostname"; // The daemon never opens request paths.
  std::string Body;
  EXPECT_EQ(C.partition(Req, Body), Status::InputError);
  EXPECT_EQ(S.stop(), 0);
}

TEST(ServeService, FailedInlineIRIsCachedWithItsDiagnostics) {
  // A program that fails to parse is loaded once: the repeat is a warm
  // cache hit reporting the same diagnostics, with no second parse.
  Service Svc(ServiceOptions{});
  PartitionRequest Req;
  Req.InlineIR = true;
  Req.Spec = "program broken_cached\n"
             "func f0 main()\n"
             "bb0 (entry):\n"
             "  r0 = nosuchop 1\n";
  PartitionOutcome First = Svc.partition(Req);
  PartitionOutcome Second = Svc.partition(Req);
  EXPECT_EQ(First.S, Status::InputError);
  EXPECT_NE(First.Body.find("\"diags\""), std::string::npos) << First.Body;
  EXPECT_EQ(Second.S, First.S);
  EXPECT_EQ(Second.Body, First.Body);
  EXPECT_FALSE(First.CacheHit);
  EXPECT_TRUE(Second.CacheHit);
  EXPECT_EQ(Svc.registry().getCounter("prepared_cache.misses"), 1u);
  EXPECT_EQ(Svc.registry().getCounter("prepared_cache.hits"), 1u);
}

TEST(ServeService, GenSpecSpellingsShareOneCacheEntry) {
  // Leading zeros and a left-out default op count (200) spell the same
  // generated program: five spellings of two programs load each program
  // once, and every spelling of a program gets its answer under the
  // canonical spec. Seeds unique to this test: the prepared-program cache
  // is process global.
  ServiceOptions SO;
  SO.Deterministic = true;
  Service Svc(SO);
  const std::pair<const char *, const char *> Cases[] = {
      {"gen:4247:100", "gen:4247:100"},
      {"gen:04247:100", "gen:4247:100"},
      {"gen:4247:0100", "gen:4247:100"},
      {"gen:4249", "gen:4249:200"},
      {"gen:4249:200", "gen:4249:200"}};
  std::map<std::string, double> Cycles;
  for (const auto &[Spec, Canonical] : Cases) {
    PartitionRequest Req;
    Req.Spec = Spec;
    EXPECT_EQ(Req.key(), Canonical);
    PartitionOutcome Out = Svc.partition(Req);
    ASSERT_EQ(Out.S, Status::Ok) << Spec << ": " << Out.Body;
    EXPECT_EQ(Out.CacheHit, Cycles.count(Canonical) != 0) << Spec;
    support::json::JVal Doc;
    std::string Err;
    ASSERT_TRUE(support::json::parse(Out.Body, Doc, Err)) << Err;
    EXPECT_EQ(Doc["spec"].Str, Canonical);
    auto [It, New] = Cycles.emplace(Canonical, Doc["cycles"].Num);
    EXPECT_EQ(Doc["cycles"].Num, It->second) << Spec;
  }
  EXPECT_EQ(Svc.registry().getCounter("prepared_cache.misses"), 2u);
  EXPECT_EQ(Svc.registry().getCounter("prepared_cache.hits"), 3u);
  // A malformed gen spec keys on its own text.
  PartitionRequest Bad;
  Bad.Spec = "gen:4247:x";
  EXPECT_EQ(Bad.key(), "gen:4247:x");
}

TEST(ServeService, ControlCharactersInSpecsGiveValidJsonBodies) {
  // A spec is client bytes: the error body that quotes it back must still
  // be one JSON document, and its `spec` context must read back verbatim.
  Service Svc(ServiceOptions{});
  for (const std::string &Spec : {std::string("gen:1\x01" "x"),
                                  std::string("no\tsuch")}) {
    PartitionRequest Req;
    Req.Spec = Spec;
    PartitionOutcome Out = Svc.partition(Req);
    EXPECT_EQ(Out.S, Status::InputError) << Out.Body;
    ASSERT_FALSE(Out.Body.empty());
    EXPECT_EQ(Out.Body.back(), '\n');
    std::string Doc = Out.Body.substr(0, Out.Body.size() - 1);
    EXPECT_TRUE(std::none_of(Doc.begin(), Doc.end(),
                             [](unsigned char C) { return C < 0x20; }))
        << Doc;
    support::json::JVal Parsed;
    std::string Err;
    ASSERT_TRUE(support::json::parse(Out.Body, Parsed, Err)) << Err << "\n" << Doc;
    ASSERT_EQ(Parsed["diags"].Arr.size(), 1u);
    EXPECT_EQ(Parsed["diags"].Arr[0]["context"]["spec"].Str, Spec);
  }
}

TEST(ServeService, MoveLatencyOutOfRangeIsAnInputError) {
  // A request's move latency reaches the schedules' cycle tables: one far
  // past MaxMoveLatency is refused before any work, and the service goes
  // on serving.
  Service Svc(ServiceOptions{});
  PartitionRequest Req;
  Req.Spec = "fir";
  Req.MoveLatency = 2147483647u;
  PartitionOutcome Out = Svc.partition(Req);
  EXPECT_EQ(Out.S, Status::InputError) << Out.Body;
  EXPECT_NE(Out.Body.find("move latency"), std::string::npos) << Out.Body;
  Req.MoveLatency = 5;
  PartitionOutcome Next = Svc.partition(Req);
  EXPECT_EQ(Next.S, Status::Ok) << Next.Body;
}

TEST(ServeService, ManyLatenciesKeepTheUnlockedRHOPTableBounded) {
  // gdpd serves any move latency for a cached program, so one client can
  // ask for one program on endless machines. The program's unlocked-RHOP
  // table stays within its cap, evicted machines rebuild, and every answer
  // equals an evaluation on a fresh, uncached preparation.
  ServiceOptions SO;
  SO.Deterministic = true;
  Service Svc(SO);
  const std::string Spec = "gen:4243:60";
  gen::GenOptions GO;
  ASSERT_TRUE(gen::parseGenSpec(Spec, GO));
  constexpr size_t Capacity =
      SlotTable<MachineModel, ClusterAssignment>::Capacity;
  // Resident slots of the warm cache's preparation of Spec.
  auto Slots = [&] {
    auto C = PreparedProgramCache::global().get(
        Spec, /*CaptureTrace=*/false,
        [](std::vector<support::Diag> &) { return nullptr; });
    return C->PP.Ok ? C->PP.Tables->Unlocked.size() : SIZE_MAX;
  };

  std::vector<unsigned> Latencies;
  for (unsigned Lat = 1; Lat <= 110; ++Lat)
    Latencies.push_back(Lat);
  for (unsigned Lat = 1; Lat <= 10; ++Lat) // Long evicted: rebuilt.
    Latencies.push_back(Lat);
  const std::pair<const char *, StrategyKind> Strategies[] = {
      {"unified", StrategyKind::Unified},
      {"naive", StrategyKind::Naive},
      {"profilemax", StrategyKind::ProfileMax}};
  for (size_t I = 0; I != Latencies.size(); ++I) {
    // Two of the three sharing strategies per latency: one builds the
    // slot, the other hits it.
    for (size_t J : {I % 3, (I + 1) % 3}) {
      PartitionRequest Req;
      Req.Spec = Spec;
      Req.Strategy = Strategies[J].first;
      Req.MoveLatency = Latencies[I];
      PartitionOutcome Out = Svc.partition(Req);
      ASSERT_EQ(Out.S, Status::Ok) << Out.Body;
      support::json::JVal Doc;
      std::string Err;
      ASSERT_TRUE(support::json::parse(Out.Body, Doc, Err)) << Err;

      auto P = gen::generateProgram(GO);
      PreparedProgram PP = prepareProgram(*P);
      PipelineOptions PO;
      PO.Strategy = Strategies[J].second;
      PO.MoveLatency = Latencies[I];
      PipelineResult Want = runStrategy(PP, PO);
      ASSERT_TRUE(Want.ok());
      std::string Where =
          formatStr("%s at latency %u", Req.Strategy.c_str(), Latencies[I]);
      EXPECT_EQ(Doc["cycles"].Num, static_cast<double>(Want.Cycles)) << Where;
      EXPECT_EQ(Doc["dynamic_moves"].Num,
                static_cast<double>(Want.DynamicMoves))
          << Where;
      EXPECT_EQ(Doc["static_moves"].Num,
                static_cast<double>(Want.StaticMoves))
          << Where;
      EXPECT_LE(Slots(), Capacity) << Where;
    }
  }
  EXPECT_EQ(Slots(), Capacity);
}

TEST(ServeService, ManyClusterCountsKeepTheDataPartitionTableBounded) {
  // GDP's data partition is shared per cluster count, so one client asking
  // for one program on many cluster counts (each at two latencies: the
  // second request hits the slot the first built) keeps the program's
  // table within its cap, rebuilds evicted counts, and gets answers equal
  // to evaluations on fresh, uncached preparations.
  ServiceOptions SO;
  SO.Deterministic = true;
  Service Svc(SO);
  const std::string Spec = "gen:4244:60";
  gen::GenOptions GO;
  ASSERT_TRUE(gen::parseGenSpec(Spec, GO));
  constexpr size_t Capacity =
      SlotTable<DataPartitionKey, GDPResult>::Capacity;
  auto Slots = [&] {
    auto C = PreparedProgramCache::global().get(
        Spec, /*CaptureTrace=*/false,
        [](std::vector<support::Diag> &) { return nullptr; });
    return C->PP.Ok ? C->PP.Tables->DataPartitions.size() : SIZE_MAX;
  };

  std::vector<unsigned> Counts;
  for (unsigned K = 2; K != Capacity + 5; ++K)
    Counts.push_back(K);
  for (unsigned K = 2; K != 5; ++K) // Long evicted: rebuilt.
    Counts.push_back(K);
  for (unsigned K : Counts)
    for (unsigned Lat : {1u, 5u}) {
      PartitionRequest Req;
      Req.Spec = Spec;
      Req.Clusters = K;
      Req.MoveLatency = Lat;
      PartitionOutcome Out = Svc.partition(Req);
      ASSERT_EQ(Out.S, Status::Ok) << Out.Body;
      support::json::JVal Doc;
      std::string Err;
      ASSERT_TRUE(support::json::parse(Out.Body, Doc, Err)) << Err;

      auto P = gen::generateProgram(GO);
      PreparedProgram PP = prepareProgram(*P);
      PipelineOptions PO;
      PO.NumClusters = K;
      PO.MoveLatency = Lat;
      PipelineResult Want = runStrategy(PP, PO);
      ASSERT_TRUE(Want.ok());
      std::string Where = formatStr("%u clusters at latency %u", K, Lat);
      EXPECT_EQ(Doc["cycles"].Num, static_cast<double>(Want.Cycles)) << Where;
      EXPECT_EQ(Doc["dynamic_moves"].Num,
                static_cast<double>(Want.DynamicMoves))
          << Where;
      EXPECT_EQ(Doc["static_moves"].Num,
                static_cast<double>(Want.StaticMoves))
          << Where;
      EXPECT_LE(Slots(), Capacity) << Where;
    }
  EXPECT_EQ(Slots(), Capacity);
}

TEST(ServeServer, BadStrategyRejected) {
  TestServer S;
  ASSERT_TRUE(S.boot("badstrat"));
  Client C;
  ASSERT_TRUE(C.connect(S.addr(), 5000));
  PartitionRequest Req;
  Req.Spec = "gen:3:60";
  Req.Strategy = "bogus";
  std::string Body;
  EXPECT_EQ(C.partition(Req, Body), Status::BadRequest);
  EXPECT_EQ(S.stop(), 0);
}

TEST(ServeServer, DeadlineExceededOnTinyBudget) {
  TestServer S;
  ASSERT_TRUE(S.boot("deadline"));
  Client C;
  ASSERT_TRUE(C.connect(S.addr(), 5000));
  // A large generated program with a 1ms budget: the evaluation budget is
  // polled at phase boundaries, well past 1ms of wall on any machine.
  PartitionRequest Req;
  Req.Spec = "gen:9:4000";
  Req.DeadlineMs = 1;
  std::string Body;
  EXPECT_EQ(C.partition(Req, Body), Status::DeadlineExceeded) << Body;
  EXPECT_NE(Body.find("\"diags\""), std::string::npos);
  EXPECT_EQ(S.stop(), 0);
}

TEST(ServeServer, StatsVerbAllFormats) {
  TestServer S;
  ASSERT_TRUE(S.boot("stats"));
  Client C;
  ASSERT_TRUE(C.connect(S.addr(), 5000));
  PartitionRequest Req;
  Req.Spec = "gen:3:60";
  std::string Body;
  ASSERT_EQ(C.partition(Req, Body), Status::Ok);

  std::string Json;
  ASSERT_EQ(C.stats(StatsFormat::Json, Json), Status::Ok);
  EXPECT_NE(Json.find("serve.requests.total"), std::string::npos);
  EXPECT_NE(Json.find("serve.cache_capacity"), std::string::npos);
  EXPECT_NE(Json.find("serve.threads"), std::string::npos);

  std::string Prom;
  ASSERT_EQ(C.stats(StatsFormat::Prometheus, Prom), Status::Ok);
  EXPECT_NE(Prom.find("# TYPE"), std::string::npos) << Prom;

  std::string Bin;
  ASSERT_EQ(C.stats(StatsFormat::Binary, Bin), Status::Ok);
  telemetry::StatsRegistry R;
  support::Diag D;
  ASSERT_TRUE(decodeRegistryInto(Bin, R, D));
  EXPECT_GE(R.getCounter("serve.requests.total"), 1u);
  EXPECT_EQ(S.stop(), 0);
}

TEST(ServeServer, DeterministicResponsesAreByteIdentical) {
  ServiceOptions SvcO;
  SvcO.Deterministic = true;
  TestServer S;
  ASSERT_TRUE(S.boot("det", {}, SvcO));
  Client C;
  ASSERT_TRUE(C.connect(S.addr(), 5000));
  PartitionRequest Req;
  Req.Spec = "gen:5:80";
  std::string A, B2;
  ASSERT_EQ(C.partition(Req, A), Status::Ok);
  ASSERT_EQ(C.partition(Req, B2), Status::Ok); // hit vs miss field differs
  std::string C3;
  ASSERT_EQ(C.partition(Req, C3), Status::Ok);
  EXPECT_EQ(B2, C3); // Two warm responses are byte-identical.
  EXPECT_NE(A.find("\"prepare_sec\": 0.000000"), std::string::npos) << A;
  EXPECT_EQ(S.stop(), 0);
}

TEST(ServeServer, ShutdownVerbStopsServer) {
  TestServer S;
  ASSERT_TRUE(S.boot("shutverb"));
  Client C;
  ASSERT_TRUE(C.connect(S.addr(), 5000));
  ASSERT_TRUE(C.shutdownServer());
  EXPECT_EQ(S.stop(), 0); // run() already returning; join reports clean.
  // New connections are refused once the listener is gone.
  Client C2;
  EXPECT_FALSE(C2.connect(S.addr(), 500));
}

//===----------------------------------------------------------------------===//
// Protocol robustness at the network edge
//===----------------------------------------------------------------------===//

/// Raw-socket helper: sends \p Bytes and returns the (possibly empty)
/// response read until EOF/timeout.
std::string rawExchange(const support::SockAddr &Addr,
                        const std::string &Bytes, bool ShutdownWrite = true) {
  support::Socket Conn = support::connectTo(Addr, 5000);
  if (!Conn.valid())
    return "<no-connect>";
  if (!Bytes.empty() && !Conn.sendAll(Bytes.data(), Bytes.size(), 5000))
    return "<send-failed>";
  if (ShutdownWrite)
    ::shutdown(Conn.fd(), SHUT_WR);
  std::string Resp;
  char Buf[4096];
  for (;;) {
    size_t Got = Conn.recvAll(Buf, sizeof(Buf), 5000);
    Resp.append(Buf, Got);
    if (Got < sizeof(Buf))
      break;
  }
  return Resp;
}

Status responseStatus(const std::string &Resp) {
  FrameReader R;
  R.feed(Resp.data(), Resp.size());
  Frame F;
  support::Diag D;
  return R.next(F, D) == 1 ? F.S : Status::InternalError;
}

TEST(ServeRobustness, GarbageBytesGetBadRequest) {
  TestServer S;
  ASSERT_TRUE(S.boot("garbage"));
  std::string Resp = rawExchange(S.addr(), "GET / HTTP/1.1\r\n\r\n");
  EXPECT_EQ(responseStatus(Resp), Status::BadRequest) << Resp.size();
  // The daemon survives; a well-formed client still gets served.
  Client C;
  ASSERT_TRUE(C.connect(S.addr(), 5000));
  std::string Info;
  EXPECT_TRUE(C.ping(Info));
  EXPECT_EQ(S.stop(), 0);
}

TEST(ServeRobustness, OversizedFrameGetsBadRequest) {
  TestServer S;
  ASSERT_TRUE(S.boot("oversize"));
  std::string H(reinterpret_cast<const char *>(kMagic), 4);
  H.push_back(static_cast<char>(Verb::Partition));
  H.append(3, '\0');
  uint32_t N = kMaxPayload + 1;
  for (int I = 0; I != 4; ++I)
    H.push_back(static_cast<char>((N >> (8 * I)) & 0xff));
  EXPECT_EQ(responseStatus(rawExchange(S.addr(), H)), Status::BadRequest);
  EXPECT_EQ(S.stop(), 0);
}

TEST(ServeRobustness, TruncatedFrameThenDisconnectDoesNotWedge) {
  TestServer S;
  ASSERT_TRUE(S.boot("trunc"));
  // Half a header, then EOF: the worker must return, not spin or block.
  std::string Partial = encodeFrame(Verb::Ping, Status::Ok, "").substr(0, 6);
  rawExchange(S.addr(), Partial);
  // Mid-payload disconnect too: header promises 100 bytes, sends 10.
  std::string Enc = encodeFrame(Verb::Partition, Status::Ok,
                                std::string(100, 'x'));
  rawExchange(S.addr(), Enc.substr(0, kHeaderSize + 10));
  Client C;
  ASSERT_TRUE(C.connect(S.addr(), 5000));
  std::string Info;
  EXPECT_TRUE(C.ping(Info));
  EXPECT_EQ(S.stop(), 0);
}

TEST(ServeRobustness, MalformedPartitionPayloadGetsBadRequest) {
  TestServer S;
  ASSERT_TRUE(S.boot("badpayload"));
  std::string Resp = rawExchange(
      S.addr(), encodeFrame(Verb::Partition, Status::Ok, "not a request"));
  EXPECT_EQ(responseStatus(Resp), Status::BadRequest);
  EXPECT_EQ(S.stop(), 0);
}

TEST(ServeRobustness, DispatchFaultInjection) {
  // Hits count per connection scope: the 2nd frame of every connection
  // hits the injected dispatch fault, deterministically.
  support::FaultPlan Plan;
  ASSERT_TRUE(support::FaultPlan::parse("serve.dispatch:2", Plan, nullptr));
  ServerOptions SO;
  SO.Faults = &Plan;
  TestServer S;
  ASSERT_TRUE(S.boot("faultdispatch", SO));
  Client C;
  ASSERT_TRUE(C.connect(S.addr(), 5000));
  std::string Info;
  EXPECT_TRUE(C.ping(Info));
  EXPECT_FALSE(C.ping(Info)); // Injected InternalError; connection drops.
  // The daemon survives; a fresh connection restarts the scope count.
  Client C2;
  ASSERT_TRUE(C2.connect(S.addr(), 5000));
  EXPECT_TRUE(C2.ping(Info));
  EXPECT_EQ(S.stop(), 0);
}

TEST(ServeRobustness, AcceptFaultInjection) {
  support::FaultPlan Plan;
  ASSERT_TRUE(support::FaultPlan::parse("serve.accept:1", Plan, nullptr));
  ServerOptions SO;
  SO.Faults = &Plan;
  TestServer S;
  ASSERT_TRUE(S.boot("faultaccept", SO));
  // First accept is failed by injection: the connection gets an
  // InternalError frame and is dropped, but the loop keeps serving.
  std::string Resp = rawExchange(S.addr(), "");
  EXPECT_EQ(responseStatus(Resp), Status::InternalError);
  Client C;
  ASSERT_TRUE(C.connect(S.addr(), 5000));
  std::string Info;
  EXPECT_TRUE(C.ping(Info));
  EXPECT_EQ(S.Svc->registry().getCounter("serve.accept_faults"), 1u);
  EXPECT_EQ(S.stop(), 0);
}

TEST(ServeRobustness, AdmissionControlSheds) {
  ServerOptions SO;
  SO.MaxInflight = 1;
  SO.Threads = 4;
  TestServer S;
  ASSERT_TRUE(S.boot("shed", SO));
  // First connection occupies the only admission slot for its lifetime.
  Client C1;
  ASSERT_TRUE(C1.connect(S.addr(), 5000));
  std::string Info;
  ASSERT_TRUE(C1.ping(Info));
  // Second connection is shed with an Overloaded frame at accept.
  std::string Resp = rawExchange(S.addr(), "", /*ShutdownWrite=*/false);
  EXPECT_EQ(responseStatus(Resp), Status::Overloaded);
  EXPECT_EQ(S.Svc->registry().getCounter("serve.shed"), 1u);
  // Releasing the slot restores service.
  C1.close();
  for (int Try = 0; Try != 50; ++Try) {
    Client C2;
    if (C2.connect(S.addr(), 1000) && C2.ping(Info)) {
      SUCCEED();
      EXPECT_EQ(S.stop(), 0);
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  FAIL() << "slot never freed after shedding";
}

//===----------------------------------------------------------------------===//
// Coordinator
//===----------------------------------------------------------------------===//

struct TestCluster {
  TestServer Shard0, Shard1, Coord;

  bool boot(ServiceOptions SvcO = {}) {
    if (!Shard0.boot("cl-s0", {}, SvcO) || !Shard1.boot("cl-s1", {}, SvcO))
      return false;
    return Coord.boot("cl-c", {}, SvcO,
                      {Shard0.addr(), Shard1.addr()});
  }
};

TEST(ServeCoordinator, RoutesAndMergesStatsExactly) {
  TestCluster CL;
  ASSERT_TRUE(CL.boot());
  Client C;
  ASSERT_TRUE(C.connect(CL.Coord.addr(), 5000));
  std::string Info;
  ASSERT_TRUE(C.ping(Info));
  EXPECT_NE(Info.find("\"role\": \"coordinator\""), std::string::npos);

  // Distinct keys spread across both shards (verified against the
  // routing hash), and each key consistently lands on its owner.
  // Seeds unique to this test: the prepared-program cache is process
  // global, so reusing a spec from another test would turn a miss into a
  // hit and skew the exact-merge accounting below.
  const char *Specs[] = {"gen:101:60", "gen:103:60", "gen:107:60",
                         "gen:113:60"};
  CoordinatorOptions RouteOpt;
  RouteOpt.TimeoutMs = 1000;
  CoordinatorBackend Route({CL.Shard0.addr(), CL.Shard1.addr()}, RouteOpt);
  uint64_t PerShard[2] = {0, 0};
  std::string Body;
  for (const char *Spec : Specs) {
    PartitionRequest Req;
    Req.Spec = Spec;
    ASSERT_EQ(C.partition(Req, Body), Status::Ok) << Spec << ": " << Body;
    ++PerShard[Route.shardFor(Req.key())];
  }
  uint64_t S0 =
      CL.Shard0.Svc->registry().getCounter("serve.requests.partition.ok");
  uint64_t S1 =
      CL.Shard1.Svc->registry().getCounter("serve.requests.partition.ok");
  EXPECT_EQ(S0, PerShard[0]);
  EXPECT_EQ(S1, PerShard[1]);
  EXPECT_EQ(S0 + S1, 4u);

  // The coordinator's stats are the exact union: every shard's counters
  // plus its own serving layer.
  std::string Bin;
  ASSERT_EQ(C.stats(StatsFormat::Binary, Bin), Status::Ok);
  telemetry::StatsRegistry Merged;
  support::Diag D;
  ASSERT_TRUE(decodeRegistryInto(Bin, Merged, D));
  // Shard-side + coordinator-side accounting of the same four requests.
  EXPECT_EQ(Merged.getCounter("serve.requests.partition.ok"), 8u);
  EXPECT_EQ(Merged.getCounter("prepared_cache.misses"), 4u);
  EXPECT_EQ(Merged.getCounter("coord.shard.0.reports"), 1u);
  EXPECT_EQ(Merged.getCounter("coord.shard.1.reports"), 1u);
  EXPECT_EQ(
      Merged.getValue("serve.latency_ms.partition").Count,
      8u);

  EXPECT_EQ(CL.Coord.stop(), 0);
  EXPECT_EQ(CL.Shard0.stop(), 0);
  EXPECT_EQ(CL.Shard1.stop(), 0);
}

TEST(ServeCoordinator, GenSpecSpellingsRouteToOneShard) {
  // The coordinator routes on the request key, so every spelling of one
  // generated program has one owning shard; the raw spellings would be
  // spread over several.
  CoordinatorOptions Opt;
  Opt.HealthCheckMs = 0;
  std::vector<support::SockAddr> Addrs(16);
  for (size_t I = 0; I != Addrs.size(); ++I)
    ASSERT_TRUE(support::SockAddr::parse(
        formatStr("unix:/nonexistent/gdpd-%zu.sock", I), Addrs[I], nullptr));
  CoordinatorBackend Route(Addrs, Opt);
  std::set<size_t> Owners, RawOwners;
  for (const char *Spec :
       {"gen:7:100", "gen:007:100", "gen:7:0100", "gen:0007:00100"}) {
    PartitionRequest Req;
    Req.Spec = Spec;
    Owners.insert(Route.shardFor(Req.key()));
    RawOwners.insert(Route.shardFor(Spec));
  }
  EXPECT_EQ(Owners.size(), 1u);
  EXPECT_GT(RawOwners.size(), 1u);
  PartitionRequest Short, Full;
  Short.Spec = "gen:7";
  Full.Spec = "gen:7:200";
  EXPECT_EQ(Route.shardFor(Short.key()), Route.shardFor(Full.key()));
}

TEST(ServeCoordinator, DeadShardIsUnavailableNotFatal) {
  TestServer Shard0;
  ASSERT_TRUE(Shard0.boot("dead-s0"));
  // Shard 1 exists only long enough to learn its address, then dies.
  support::SockAddr DeadAddr;
  {
    TestServer Dead;
    ASSERT_TRUE(Dead.boot("dead-s1"));
    DeadAddr = Dead.addr();
    Dead.stop();
  }
  TestServer Coord;
  ASSERT_TRUE(Coord.boot("dead-c", {}, {}, {Shard0.addr(), DeadAddr}));
  Client C;
  ASSERT_TRUE(C.connect(Coord.addr(), 5000));

  CoordinatorOptions RouteOpt;
  RouteOpt.TimeoutMs = 1000;
  CoordinatorBackend Route({Shard0.addr(), DeadAddr}, RouteOpt);
  // Find keys owned by each side.
  std::string LiveKey, DeadKey;
  for (int I = 0; I != 64 && (LiveKey.empty() || DeadKey.empty()); ++I) {
    std::string K = formatStr("gen:%d:60", 3 + 2 * I);
    (Route.shardFor(K) == 0 ? LiveKey : DeadKey) = K;
  }
  ASSERT_FALSE(LiveKey.empty());
  ASSERT_FALSE(DeadKey.empty());

  PartitionRequest Req;
  std::string Body;
  Req.Spec = DeadKey;
  EXPECT_EQ(C.partition(Req, Body), Status::Unavailable) << Body;
  EXPECT_NE(Body.find("\"diags\""), std::string::npos);
  // Requests owned by the live shard still succeed.
  Req.Spec = LiveKey;
  EXPECT_EQ(C.partition(Req, Body), Status::Ok) << Body;
  // Stats still answer — flagged Unavailable because one source is
  // missing, with the unreachable shard diagnosed in the body.
  std::string Json;
  EXPECT_EQ(C.stats(StatsFormat::Json, Json), Status::Unavailable);
  EXPECT_NE(Json.find("\"diags\""), std::string::npos) << Json;

  EXPECT_EQ(Coord.stop(), 0);
  EXPECT_EQ(Shard0.stop(), 0);
}

TEST(ServeCoordinator, ShutdownVerbTearsDownWholeCluster) {
  TestCluster CL;
  ASSERT_TRUE(CL.boot());
  Client C;
  ASSERT_TRUE(C.connect(CL.Coord.addr(), 5000));
  ASSERT_TRUE(C.shutdownServer());
  // All three processes drain cleanly from the one request.
  EXPECT_EQ(CL.Coord.stop(), 0);
  EXPECT_EQ(CL.Shard0.stop(), 0);
  EXPECT_EQ(CL.Shard1.stop(), 0);
}

//===----------------------------------------------------------------------===//
// Lifecycle
//===----------------------------------------------------------------------===//

TEST(ServeLifecycle, DrainFinishesInflightRequests) {
  ServerOptions SO;
  SO.DrainMs = 10000;
  TestServer S;
  ASSERT_TRUE(S.boot("drain", SO));
  // A request that takes real time: large generated program, cold cache.
  std::atomic<bool> Done{false};
  Status Got = Status::InternalError;
  std::string Body;
  std::thread Worker([&] {
    Client C;
    if (C.connect(S.addr(), 10000)) {
      PartitionRequest Req;
      Req.Spec = "gen:13:1500";
      Got = C.partition(Req, Body);
    }
    Done = true;
  });
  // Let the request reach the server, then stop: drain must wait for it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(S.stop(), 0) << "drain was not clean";
  Worker.join();
  ASSERT_TRUE(Done);
  EXPECT_EQ(Got, Status::Ok) << Body;
}

//===----------------------------------------------------------------------===//
// Replica failover, retry and circuit breaking (docs/SERVING.md,
// "Failure semantics")
//===----------------------------------------------------------------------===//

TEST(ServeFailover, PoisonIsStickyAtEveryByteBoundary) {
  // The reconnect story depends on two FrameReader properties: once a
  // stream is poisoned no future bytes resurrect it (the coordinator must
  // throw the connection away, not resync), and a *fresh* reader — what a
  // reconnect buys — parses the same frame cleanly. Assert both with the
  // corruption landing at every byte boundary of a valid frame.
  std::string Enc = encodeFrame(Verb::Partition, Status::Ok, "payload");
  std::string Junk(32, '?'); // Never a valid magic, verb, or sane length.
  for (size_t K = 0; K <= Enc.size(); ++K) {
    FrameReader R;
    R.feed(Enc.data(), K);
    R.feed(Junk.data(), Junk.size());
    Frame F;
    support::Diag D;
    int Rc;
    while ((Rc = R.next(F, D)) == 1)
      ; // A long-enough prefix still yields the complete valid frame.
    ASSERT_EQ(Rc, -1) << "junk after byte " << K << " did not poison";
    EXPECT_TRUE(R.poisoned());
    // Sticky: a pristine frame on the poisoned stream stays dead.
    R.feed(Enc.data(), Enc.size());
    EXPECT_EQ(R.next(F, D), -1) << "poison lifted at byte " << K;
    // Reconnect = fresh reader: the same frame parses immediately.
    FrameReader Fresh;
    Fresh.feed(Enc.data(), Enc.size());
    ASSERT_EQ(Fresh.next(F, D), 1);
    EXPECT_EQ(F.Payload, "payload");
  }
}

TEST(ServeFailover, ReplicaChainIsTheRingSuccessors) {
  std::vector<support::SockAddr> Addrs(4);
  for (int I = 0; I != 4; ++I) {
    Addrs[I].IsUnix = true;
    Addrs[I].Path = formatStr("/tmp/gdp-ring-%d.sock", I);
  }
  CoordinatorOptions CO;
  CO.Replicas = 3;
  CO.HealthCheckMs = 0;
  CoordinatorBackend CB(Addrs, CO);
  for (const char *Key : {"gen:3:60", "fir", "gen:101:200"}) {
    std::vector<size_t> Chain = CB.replicasFor(Key);
    ASSERT_EQ(Chain.size(), 3u);
    EXPECT_EQ(Chain[0], CB.shardFor(Key));
    EXPECT_EQ(Chain[1], (Chain[0] + 1) % 4);
    EXPECT_EQ(Chain[2], (Chain[0] + 2) % 4);
  }
}

TEST(ServeFailover, ReplicaChainMasksDeadShard) {
  // Three shards, replicas=2: kill the shard that owns a key and the
  // request must still answer Ok through the key's second replica — the
  // client never sees the outage.
  auto S0 = std::make_unique<TestServer>();
  auto S1 = std::make_unique<TestServer>();
  auto S2 = std::make_unique<TestServer>();
  ASSERT_TRUE(S0->boot("fo-s0"));
  ASSERT_TRUE(S1->boot("fo-s1"));
  ASSERT_TRUE(S2->boot("fo-s2"));
  std::vector<support::SockAddr> Addrs = {S0->addr(), S1->addr(), S2->addr()};
  TestServer Coord;
  Coord.CoordOpt.Replicas = 2;
  Coord.CoordOpt.TimeoutMs = 2000;
  Coord.CoordOpt.HealthCheckMs = 0;
  Coord.CoordOpt.Retry.BaseDelayMs = 1;
  Coord.CoordOpt.Retry.MaxDelayMs = 10;
  ASSERT_TRUE(Coord.boot("fo-c", {}, {}, Addrs));
  auto &CB = static_cast<CoordinatorBackend &>(*Coord.B);

  // A key per shard so we can kill a key's owner specifically.
  std::string Keys[3];
  for (int I = 0; I != 128; ++I) {
    std::string K = formatStr("gen:%d:60", 201 + 2 * I);
    Keys[CB.shardFor(K)] = K;
  }
  ASSERT_FALSE(Keys[1].empty());

  Client C;
  ASSERT_TRUE(C.connect(Coord.addr(), 5000));
  PartitionRequest Req;
  Req.Spec = Keys[1];
  std::string Body;
  ASSERT_EQ(C.partition(Req, Body), Status::Ok) << Body;

  S1.reset(); // The owner dies; replica (shard 2) must take over.
  EXPECT_EQ(C.partition(Req, Body), Status::Ok) << Body;
  EXPECT_GE(CB.localStats().getCounter("serve.failover.total"), 1u);
  EXPECT_GE(CB.localStats().getValue("serve.failover.latency_ms").Count, 1u);
}

TEST(ServeFailover, BreakerOpensThenRecoversAfterRestart) {
  // Learn an address, then kill the shard behind it.
  auto Shard = std::make_unique<TestServer>();
  ASSERT_TRUE(Shard->boot("fo-brk"));
  support::SockAddr Addr = Shard->addr();
  Shard.reset();

  CoordinatorOptions CO;
  CO.TimeoutMs = 500;
  CO.Retry.MaxRounds = 1; // One attempt per call: failures count plainly.
  CO.Breaker.FailureThreshold = 2;
  CO.Breaker.OpenCooldownMs = 50;
  CO.HealthCheckMs = 0; // Recovery rides on request probes alone here.
  CoordinatorBackend CB({Addr}, CO);
  PartitionRequest Req;
  Req.Spec = "gen:3:60";

  EXPECT_EQ(CB.partition(Req, nullptr).S, Status::Unavailable);
  EXPECT_EQ(CB.partition(Req, nullptr).S, Status::Unavailable);
  EXPECT_EQ(CB.breakerState(0), CircuitBreaker::State::Open);
  // Open: rejected without touching the socket.
  EXPECT_EQ(CB.partition(Req, nullptr).S, Status::Unavailable);
  EXPECT_GE(CB.localStats().getCounter("serve.breaker.open"), 1u);
  EXPECT_GE(CB.localStats().getCounter("serve.breaker.rejected"), 1u);

  // Restart on the same path (the listener unlinks the stale socket
  // file); after the cooldown the next request is the half-open probe.
  auto Revived = std::make_unique<TestServer>();
  ASSERT_TRUE(Revived->boot("fo-brk"));
  bool Recovered = false;
  for (int Try = 0; Try != 200 && !Recovered; ++Try) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    Recovered = CB.partition(Req, nullptr).S == Status::Ok;
  }
  EXPECT_TRUE(Recovered) << "breaker never closed after shard restart";
  EXPECT_EQ(CB.breakerState(0), CircuitBreaker::State::Closed);
  EXPECT_GE(CB.localStats().getCounter("serve.breaker.close"), 1u);
}

TEST(ServeFailover, InjectedAcceptFaultIsRetriedNotFatal) {
  // Regression for the old reconnect-once semantics: a connection the
  // server kills at accept (serve.accept fault) must be absorbed by the
  // retry policy — the caller sees Ok, plus a retry in the counters.
  support::FaultPlan Plan;
  ASSERT_TRUE(support::FaultPlan::parse("serve.accept:1", Plan, nullptr));
  ServerOptions SO;
  SO.Faults = &Plan;
  TestServer S;
  ASSERT_TRUE(S.boot("fo-accept", SO));
  CoordinatorOptions CO;
  CO.TimeoutMs = 2000;
  CO.Retry.MaxRounds = 4;
  CO.Retry.BaseDelayMs = 1;
  CO.Retry.MaxDelayMs = 10;
  CO.HealthCheckMs = 0;
  CoordinatorBackend CB({S.addr()}, CO);
  PartitionRequest Req;
  Req.Spec = "gen:19:60";
  PartitionOutcome Out = CB.partition(Req, nullptr);
  EXPECT_EQ(Out.S, Status::Ok) << Out.Body;
  EXPECT_GE(CB.localStats().getCounter("serve.retry.attempts"), 1u);
  EXPECT_EQ(S.stop(), 0);
}

TEST(ServeFailover, RetryNeverSleepsPastTheDeadline) {
  // Against a dead shard with a huge backoff schedule, a 40ms request
  // deadline must cut the retry loop off immediately — the full schedule
  // would sleep for seconds.
  auto Shard = std::make_unique<TestServer>();
  ASSERT_TRUE(Shard->boot("fo-dead"));
  support::SockAddr Addr = Shard->addr();
  Shard.reset();

  CoordinatorOptions CO;
  CO.TimeoutMs = 200;
  CO.Retry.MaxRounds = 6;
  CO.Retry.BaseDelayMs = 300;
  CO.Retry.MaxDelayMs = 3000;
  CO.Retry.JitterFrac = 0;
  CO.HealthCheckMs = 0;
  CoordinatorBackend CB({Addr}, CO);
  PartitionRequest Req;
  Req.Spec = "gen:3:60";
  Req.DeadlineMs = 40;
  auto T0 = std::chrono::steady_clock::now();
  PartitionOutcome Out = CB.partition(Req, nullptr);
  double Ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - T0)
                  .count();
  EXPECT_EQ(Out.S, Status::Unavailable);
  EXPECT_LT(Ms, 1000) << "retry loop slept past the request deadline";
}

TEST(ServeLifecycle, RequestsDuringDrainAreRefused) {
  TestServer S;
  ASSERT_TRUE(S.boot("refuse"));
  Client C;
  ASSERT_TRUE(C.connect(S.addr(), 5000));
  S.Srv->requestStop();
  // Existing connection: a request sent into the drain window is either
  // answered ShuttingDown or the connection is already closed — both are
  // clean refusals, never a hang.
  PartitionRequest Req;
  Req.Spec = "gen:3:60";
  std::string Body;
  Status Resp = C.partition(Req, Body);
  EXPECT_TRUE(Resp == Status::ShuttingDown ||
              Resp == Status::InternalError)
      << statusName(Resp);
  EXPECT_EQ(S.stop(), 0);
}

} // namespace
