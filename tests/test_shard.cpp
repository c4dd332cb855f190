// Sharded MatGroup service: the shard-count-invariance contract (output
// bytes are a pure function of the request — identical for shards in
// {1,2,4,8}, over loopback, real fork()ed subprocess workers AND TCP
// workers, equal to one-shot apps::runApp on every substrate including
// faulty ReRAM + TMR), wire-codec round-trip/rejection properties, worker
// warm state, and crash -> recover-byte-identically failure semantics
// (tests/test_shard_chaos.cpp hammers the full fault matrix).
#include <gtest/gtest.h>

#include <signal.h>

#include <algorithm>
#include <ostream>
#include <random>
#include <span>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "img/synth.hpp"
#include "service/accelerator_service.hpp"
#include "shard/coordinator.hpp"
#include "shard/supervisor.hpp"
#include "shard/transport.hpp"
#include "shard/wire.hpp"
#include "shard/worker.hpp"

namespace aimsc {
namespace {

using service::Request;
using shard::DecodeError;
using shard::ShardCoordinator;
using shard::ShardTransportKind;
using shard::TileAssignment;
using shard::WireReply;
using shard::WireRequest;

/// Client-side frame storage for one request (mirrors tests/test_service).
struct ClientJob {
  Request request;
  img::Image out;
  apps::CompositingScene compositing;
  apps::MattingScene matting;
  img::Image src;
};

ClientJob makeJob(apps::AppKind app, core::DesignKind design, std::size_t size,
                  std::uint64_t seed, std::size_t replicas = 1) {
  ClientJob job;
  Request& q = job.request;
  q.app = app;
  q.design = design;
  q.streamLength = 64;
  q.seed = seed;
  q.redundancy.replicas = replicas;
  switch (app) {
    case apps::AppKind::Compositing:
      job.compositing = apps::makeCompositingScene(size, size, seed);
      q.src = job.compositing.background;
      q.aux1 = job.compositing.foreground;
      q.aux2 = job.compositing.alpha;
      job.out = img::Image(size, size);
      break;
    case apps::AppKind::Matting:
      job.matting = apps::makeMattingScene(size, size, seed);
      q.src = job.matting.composite;
      q.aux1 = job.matting.background;
      q.aux2 = job.matting.foreground;
      job.out = img::Image(size, size);
      break;
    case apps::AppKind::Bilinear:
      job.src = img::naturalScene(size, size, seed ^ 0xb111);
      q.src = job.src;
      q.upscaleFactor = 2;
      job.out = img::Image(size * 2, size * 2);
      break;
    default:  // Filters / Gamma / Morphology
      job.src = img::naturalScene(size, size, seed ^ 0xb111);
      q.src = job.src;
      job.out = img::Image(size, size);
      break;
  }
  q.out = job.out;
  return job;
}

/// The oracle every sharded run must match byte-for-byte: the one-shot
/// runner on a matching lane fleet (lanes=4, rowsPerTile=4 — the shard
/// tests' fleet shape).
apps::RunResult oracleRun(const ClientJob& job, std::size_t size) {
  apps::RunConfig cfg;
  cfg.width = size;
  cfg.height = size;
  cfg.streamLength = job.request.streamLength;
  cfg.seed = job.request.seed;
  cfg.faults = job.request.faults;
  cfg.redundancy = job.request.redundancy;
  cfg.upscaleFactor = job.request.upscaleFactor;
  apps::ParallelConfig par;
  par.lanes = 4;
  par.threads = 1;  // forces the lane-fleet path on every design
  par.rowsPerTile = 4;
  return apps::runAppDetailed(job.request.app, job.request.design, cfg, par);
}

/// Builds a randomized-but-valid wire request (property-test generator).
WireRequest randomRequest(std::mt19937_64& rng) {
  WireRequest wq;
  wq.tenant = static_cast<std::uint32_t>(rng());
  wq.seedNamespace = rng();
  wq.app = static_cast<apps::AppKind>(rng() % 6);
  wq.design = static_cast<core::DesignKind>(rng() % 7);  // incl. SwScSfmt
  wq.gamma = 0.5 + (rng() % 400) / 100.0;
  wq.upscaleFactor = 1 + rng() % 4;
  wq.streamLength = 16u << (rng() % 5);
  wq.seed = rng();
  wq.faults.deviceVariability = (rng() & 1) != 0;
  wq.faults.device.sigmaHrs = 0.45 + (rng() % 100) / 100.0;
  wq.faults.faultModelSamples = 1000 + rng() % 9000;
  wq.faults.stuckAtRate = (rng() % 100) / 1e4;
  wq.faults.transientFlipRate = (rng() % 100) / 1e5;
  wq.faults.wearDriftPerMegaCycle = (rng() % 100) / 1e3;
  wq.faults.wearPreloadCycles = rng() % (1u << 20);
  wq.replicas = 1 + rng() % 5;
  wq.vote = static_cast<reliability::Vote>(rng() % 3);
  wq.lanes = 1 + rng() % 16;
  wq.rowsPerTile = 1 + rng() % 8;
  wq.assignment.laneSeedBase = rng();
  wq.assignment.laneStride = 1 + rng() % wq.lanes;
  wq.assignment.laneBegin = rng() % wq.assignment.laneStride;
  const std::uint32_t w = 1 + rng() % 32;
  const std::uint32_t h = 1 + rng() % 32;
  wq.assignment.rowBegin = 0;
  wq.assignment.rowEnd = h;
  const auto frame = [&](std::uint32_t fw, std::uint32_t fh) {
    shard::WireFrame f;
    f.width = fw;
    f.height = fh;
    f.pixels.resize(static_cast<std::size_t>(fw) * fh);
    for (auto& px : f.pixels) px = static_cast<std::uint8_t>(rng());
    return f;
  };
  wq.src = frame(w, h);
  if ((rng() & 1) != 0) {
    wq.aux1 = frame(w, h);
    wq.aux2 = frame(w, h);
  }
  return wq;
}

WireReply randomReply(std::mt19937_64& rng) {
  WireReply reply;
  if (rng() % 4 == 0) {
    reply.ok = false;
    reply.error = "synthetic failure " + std::to_string(rng() % 1000);
    return reply;
  }
  reply.width = 1 + rng() % 48;
  reply.height = 1 + rng() % 48;
  std::uint32_t row = 0;
  while (row < reply.height && rng() % 8 != 0) {
    shard::RowSegment s;
    s.rowBegin = row;
    s.rowEnd = std::min<std::uint32_t>(row + 1 + rng() % 4, reply.height);
    s.pixels.resize(static_cast<std::size_t>(s.rowEnd - s.rowBegin) *
                    reply.width);
    for (auto& px : s.pixels) px = static_cast<std::uint8_t>(rng());
    row = s.rowEnd + rng() % 3;
    reply.segments.push_back(std::move(s));
  }
  const std::size_t lanes = rng() % 8;
  for (std::size_t i = 0; i < lanes; ++i) {
    shard::LaneStats ls;
    ls.lane = static_cast<std::uint32_t>(i);
    ls.opCount = rng();
    ls.events.slReads = rng() % 100000;
    ls.events.rowWrites = rng() % 100000;
    ls.events.adcConversions = rng() % 100000;
    reply.laneStats.push_back(std::move(ls));
  }
  return reply;
}

TEST(ShardWire, RequestRoundTripsBitExactly) {
  std::mt19937_64 rng(0x5eed0001);
  for (int i = 0; i < 200; ++i) {
    const WireRequest wq = randomRequest(rng);
    const std::vector<std::uint8_t> bytes = shard::encodeRequest(wq);
    const WireRequest back = shard::decodeRequest(bytes);
    ASSERT_EQ(back, wq) << "round-trip " << i;
    // Re-encode is byte-stable (canonical form).
    ASSERT_EQ(shard::encodeRequest(back), bytes) << "re-encode " << i;
  }
}

TEST(ShardWire, ReplyRoundTripsBitExactly) {
  std::mt19937_64 rng(0x5eed0002);
  for (int i = 0; i < 200; ++i) {
    const WireReply reply = randomReply(rng);
    const std::vector<std::uint8_t> bytes = shard::encodeReply(reply);
    ASSERT_EQ(shard::decodeReply(bytes), reply) << "round-trip " << i;
  }
}

TEST(ShardWire, ToRequestPreservesFields) {
  std::mt19937_64 rng(0x5eed0003);
  const WireRequest wq = randomRequest(rng);
  const Request q = wq.toRequest();
  EXPECT_EQ(q.app, wq.app);
  EXPECT_EQ(q.design, wq.design);
  EXPECT_EQ(q.streamLength, wq.streamLength);
  EXPECT_EQ(q.seed, wq.seed);
  EXPECT_EQ(q.redundancy.replicas, wq.replicas);
  EXPECT_EQ(q.gamma, wq.gamma);
  EXPECT_EQ(q.faults.stuckAtRate, wq.faults.stuckAtRate);
  ASSERT_FALSE(q.src.empty());
  EXPECT_EQ(q.src.width(), wq.src.width);
  EXPECT_EQ(q.src.data(), wq.src.pixels.data());  // zero-copy view
}

TEST(ShardWire, EveryTruncationIsRejected) {
  std::mt19937_64 rng(0x5eed0004);
  const std::vector<std::uint8_t> bytes =
      shard::encodeRequest(randomRequest(rng));
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_THROW(
        shard::decodeRequest(std::span(bytes.data(), n)), DecodeError)
        << "prefix length " << n;
  }
  const std::vector<std::uint8_t> reply =
      shard::encodeReply(randomReply(rng));
  for (std::size_t n = 0; n < reply.size(); ++n) {
    EXPECT_THROW(shard::decodeReply(std::span(reply.data(), n)), DecodeError)
        << "reply prefix length " << n;
  }
}

TEST(ShardWire, EverySingleBitFlipIsRejected) {
  // The trailing FNV-1a 64 checksum catches every single-bit corruption of
  // these frames (deterministic: fixed seed, fixed frames).
  std::mt19937_64 rng(0x5eed0005);
  std::vector<std::uint8_t> bytes = shard::encodeRequest(randomRequest(rng));
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_THROW(shard::decodeRequest(bytes), DecodeError) << "bit " << bit;
    bytes[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

TEST(ShardWire, FirstOutOfRangeAppByteIsRejected) {
  // The decoder bounds the app byte by the app table: the last row decodes,
  // the first byte past it is refused.
  std::mt19937_64 rng(0x5eed0006);
  WireRequest wq = randomRequest(rng);
  wq.app = static_cast<apps::AppKind>(apps::kAppCount - 1);
  EXPECT_EQ(shard::decodeRequest(shard::encodeRequest(wq)).app, wq.app);
  wq.app = static_cast<apps::AppKind>(apps::kAppCount);
  EXPECT_THROW(shard::decodeRequest(shard::encodeRequest(wq)), DecodeError);
}

TEST(ShardWire, ResultReplyBytesMatchesTheEncoder) {
  // The coordinator sizes its send window with resultReplyBytes; it must
  // be the exact encoded size of a real worker reply.
  ClientJob job = makeJob(apps::AppKind::Bilinear, core::DesignKind::SwScLfsr,
                          10, 3);
  for (const std::uint32_t stride : {1u, 2u, 3u}) {
    TileAssignment assignment;
    assignment.laneSeedBase = 3;
    assignment.laneStride = stride;
    assignment.rowEnd = 20;
    shard::ShardWorker worker;
    const std::vector<std::uint8_t> bytes = worker.serve(shard::encodeRequest(
        shard::makeWireRequest(job.request, 1, 0, 3, 4, 3, assignment)));
    const WireReply reply = shard::decodeReply(bytes);
    ASSERT_TRUE(reply.ok) << reply.error;
    std::size_t rows = 0;
    for (const shard::RowSegment& seg : reply.segments) {
      rows += seg.rowEnd - seg.rowBegin;
    }
    EXPECT_EQ(shard::resultReplyBytes(reply.width, rows, reply.segments.size(),
                                      reply.laneStats.size()),
              bytes.size())
        << "stride " << stride;
  }
}

TEST(ShardWire, ChecksumIsFnv1a64) {
  // Spot-check the checksum primitive against the published FNV-1a test
  // vectors so the wire format stays interoperable.
  const std::uint8_t empty[] = {0};
  EXPECT_EQ(shard::fnv1a64(std::span(empty, std::size_t{0})),
            0xcbf29ce484222325ull);
  const std::uint8_t a[] = {'a'};
  EXPECT_EQ(shard::fnv1a64(std::span(a, 1)), 0xaf63dc4c8601ec8cull);
}

/// The headline differential matrix: every substrate (including faulty
/// ReRAM under TMR), sharded over REAL process workers — subprocess AND
/// TCP — at shard counts {1, 2, 4, 8}, must reproduce the one-shot
/// runner's bytes and ledgers exactly.  Case list covers all six apps.
TEST(ShardDifferential, ByteIdenticalAcrossShardCountsOnAllSubstrates) {
  struct Case {
    apps::AppKind app;
    core::DesignKind design;
    std::size_t replicas;
    bool faulty;
  };
  const Case cases[] = {
      {apps::AppKind::Gamma, core::DesignKind::Reference, 1, false},
      {apps::AppKind::Compositing, core::DesignKind::SwScLfsr, 1, false},
      {apps::AppKind::Matting, core::DesignKind::SwScSobol, 1, false},
      {apps::AppKind::Matting, core::DesignKind::SwScSfmt, 1, false},
      {apps::AppKind::Morphology, core::DesignKind::SwScSimd, 1, false},
      {apps::AppKind::Bilinear, core::DesignKind::BinaryCim, 1, false},
      {apps::AppKind::Filters, core::DesignKind::ReramSc, 1, false},
      // Faulty ReRAM + TMR: the full reliability stack over the wire.
      {apps::AppKind::Compositing, core::DesignKind::ReramSc, 3, true},
  };
  const std::size_t size = 16;
  for (const Case& c : cases) {
    ClientJob job = makeJob(c.app, c.design, size, 77, c.replicas);
    if (c.faulty) {
      job.request.faults = reliability::FaultPlan::deviceOnly(
          apps::defaultFaultyDevice(), 2000);
      job.request.faults.transientFlipRate = 1e-3;
    }
    const apps::RunResult oracle = oracleRun(job, size);

    for (const ShardTransportKind kind :
         {ShardTransportKind::Subprocess, ShardTransportKind::Tcp}) {
      for (const std::size_t shards : {1u, 2u, 4u, 8u}) {
        ShardCoordinator coord(shard::makeShardChannels(kind, shards),
                               /*lanes=*/4, /*rowsPerTile=*/4);
        std::fill(job.out.pixels().begin(), job.out.pixels().end(), 0);
        const service::RequestResult res =
            coord.runReplicated(1, job.request, 0, job.request.seed);

        EXPECT_EQ(job.out.pixels(), oracle.output.pixels())
            << apps::appName(c.app) << " on "
            << core::designKindName(c.design) << " at " << shards
            << " shards, kind " << static_cast<int>(kind);
        EXPECT_EQ(res.opCount, oracle.opCount)
            << apps::appName(c.app) << " at " << shards << " shards";
        EXPECT_TRUE(res.events == oracle.events)
            << apps::appName(c.app) << " at " << shards << " shards";
      }
    }
  }
}

TEST(ShardDifferential, AllTransportsAgree) {
  ClientJob job = makeJob(apps::AppKind::Compositing, core::DesignKind::ReramSc,
                          12, 5);
  std::vector<std::uint8_t> subprocessBytes;
  for (const ShardTransportKind kind :
       {ShardTransportKind::Subprocess, ShardTransportKind::Loopback,
        ShardTransportKind::Tcp}) {
    ShardCoordinator coord(shard::makeShardChannels(kind, 2), 4, 4);
    std::fill(job.out.pixels().begin(), job.out.pixels().end(), 0);
    coord.runReplicated(1, job.request, 0, job.request.seed);
    if (subprocessBytes.empty()) {
      subprocessBytes = job.out.pixels();
    } else {
      EXPECT_EQ(job.out.pixels(), subprocessBytes);
    }
  }
}

TEST(ShardDifferential, SurplusShardsIdleWithoutChangingBytes) {
  // More shards than lanes: the extra workers idle, bytes never change.
  ClientJob job = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                          12, 9);
  const apps::RunResult oracle = oracleRun(job, 12);
  ShardCoordinator coord(
      shard::makeShardChannels(ShardTransportKind::Subprocess, 6), 4, 4);
  coord.runReplicated(1, job.request, 0, job.request.seed);
  EXPECT_EQ(job.out.pixels(), oracle.output.pixels());
}

TEST(ShardWorker, WarmFaultCachePersistsAcrossRequestsBitExactly) {
  // A worker's FaultModelCache memoizes Monte-Carlo misdecision tables
  // across requests (the PR-7 warm-state thesis, now per shard process):
  // the second identical request must hit the cache and reproduce the
  // first reply byte-for-byte.
  ClientJob job = makeJob(apps::AppKind::Compositing, core::DesignKind::ReramSc,
                          12, 5);
  job.request.faults = reliability::FaultPlan::deviceOnly(
      apps::defaultFaultyDevice(), 2000);
  TileAssignment assignment;
  assignment.laneSeedBase = job.request.seed;
  assignment.laneBegin = 0;
  assignment.laneStride = 1;
  assignment.rowBegin = 0;
  assignment.rowEnd = 12;
  const std::vector<std::uint8_t> frame = shard::encodeRequest(
      shard::makeWireRequest(job.request, 1, 0, job.request.seed, 4, 4,
                             assignment));

  shard::ShardWorker worker;
  const std::vector<std::uint8_t> first = worker.serve(frame);
  EXPECT_EQ(worker.faultCacheHits(), 0u);
  EXPECT_EQ(worker.faultCacheSize(), 4u);  // one table per lane seed
  const std::vector<std::uint8_t> second = worker.serve(frame);
  EXPECT_EQ(second, first);
  EXPECT_EQ(worker.faultCacheHits(), 4u);

  const WireReply reply = shard::decodeReply(first);
  ASSERT_TRUE(reply.ok);
  EXPECT_EQ(reply.width, 12u);
  EXPECT_EQ(reply.laneStats.size(), 4u);
}

TEST(ShardWorker, MalformedAndInvalidFramesGetErrorReplies) {
  shard::ShardWorker worker;
  // Garbage bytes: decode fails, worker answers with an error reply.
  const std::vector<std::uint8_t> garbage = {1, 2, 3, 4, 5};
  const WireReply bad = shard::decodeReply(worker.serve(garbage));
  EXPECT_FALSE(bad.ok);
  EXPECT_FALSE(bad.error.empty());

  // Structurally valid frame with an invalid request (compositing without
  // aux frames): execution fails, still an error reply, worker stays up.
  ClientJob job = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                          8, 1);
  job.request.app = apps::AppKind::Compositing;  // aux frames missing
  TileAssignment assignment;
  assignment.laneSeedBase = 1;
  assignment.rowEnd = 8;
  const WireReply err = shard::decodeReply(worker.serve(shard::encodeRequest(
      shard::makeWireRequest(job.request, 1, 0, 1, 4, 4, assignment))));
  EXPECT_FALSE(err.ok);

  // The same worker still serves good requests afterwards.
  job.request.app = apps::AppKind::Gamma;
  const WireReply ok = shard::decodeReply(worker.serve(shard::encodeRequest(
      shard::makeWireRequest(job.request, 1, 0, 1, 4, 4, assignment))));
  EXPECT_TRUE(ok.ok);
}

/// Fast-recovery retry policy for failure tests (real backoffs, small).
shard::RetryPolicy testRetryPolicy() {
  shard::RetryPolicy rp;
  rp.initialBackoff = std::chrono::milliseconds(1);
  rp.maxBackoff = std::chrono::milliseconds(8);
  return rp;
}

shard::ChannelDeadlines testDeadlines() {
  shard::ChannelDeadlines d;
  d.recv = std::chrono::milliseconds(2000);
  return d;
}

// --- one channel contract for both process spawn paths ----------------------

using SpawnFn = std::unique_ptr<shard::ShardChannel> (*)(shard::ChannelDeadlines);

struct SpawnCase {
  const char* name;
  SpawnFn spawn;
};

void PrintTo(const SpawnCase& c, std::ostream* os) { *os << c.name; }

class FdChannelContract : public ::testing::TestWithParam<SpawnCase> {
 protected:
  std::unique_ptr<shard::ShardChannel> spawn(std::chrono::milliseconds recv) {
    shard::ChannelDeadlines d;
    d.recv = recv;
    return GetParam().spawn(d);
  }
};

/// Runs \p op and reports whether it threw a hard failure: a
/// std::runtime_error that is NOT a ChannelTimeout.
template <typename Op>
bool throwsHardFailure(Op&& op) {
  try {
    op();
  } catch (const shard::ChannelTimeout&) {
    return false;
  } catch (const std::runtime_error&) {
    return true;
  }
  return false;
}

TEST_P(FdChannelContract, RecvDeadlineWithNothingInFlightTimesOutHealthy) {
  auto ch = spawn(std::chrono::milliseconds(50));
  EXPECT_GT(ch->workerPid(), 0);
  EXPECT_THROW(ch->receive(), shard::ChannelTimeout);
  EXPECT_TRUE(ch->healthy());
  // A timeout does not poison: the same worker still answers a heartbeat.
  ch->send(shard::encodePing());
  const WireReply pong = shard::decodeReply(ch->receive());
  EXPECT_EQ(pong.kind, shard::ReplyKind::Pong);
  EXPECT_TRUE(ch->healthy());
}

TEST_P(FdChannelContract, TerminateKillsReapsAndFailsHard) {
  auto ch = spawn(std::chrono::milliseconds(2000));
  ASSERT_GT(ch->workerPid(), 0);
  ch->terminate();
  EXPECT_FALSE(ch->healthy());
  EXPECT_EQ(ch->workerPid(), -1);
  const std::vector<std::uint8_t> ping = shard::encodePing();
  EXPECT_TRUE(throwsHardFailure([&] { ch->send(ping); }));
  EXPECT_TRUE(throwsHardFailure([&] { ch->receive(); }));
}

TEST_P(FdChannelContract, KilledWorkerFailsReceiveAndPoisons) {
  auto ch = spawn(std::chrono::milliseconds(2000));
  const int pid = ch->workerPid();
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  EXPECT_TRUE(throwsHardFailure([&] { ch->receive(); }));
  EXPECT_FALSE(ch->healthy());
  // Poisoned: later calls keep failing fast.
  EXPECT_TRUE(throwsHardFailure([&] { ch->send(shard::encodePing()); }));
}

INSTANTIATE_TEST_SUITE_P(
    BothSpawnPaths, FdChannelContract,
    ::testing::Values(SpawnCase{"Subprocess", &shard::spawnSubprocessWorker},
                      SpawnCase{"Tcp", &shard::spawnTcpWorker}),
    [](const ::testing::TestParamInfo<SpawnCase>& info) {
      return std::string(info.param.name);
    });

TEST(ShardFailure, SupervisorRecoversCrashedWorkerByteIdentically) {
  // PR-8's contract was "error, not hang"; the supervised fabric upgrades
  // it to "recover, byte-identically".  Kill -9 a worker between requests:
  // the next dispatch fails, the supervisor respawns and replays, and the
  // merged bytes match the fault-free oracle exactly.
  ClientJob job = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                          8, 1);
  const apps::RunResult oracle = oracleRun(job, 8);
  ShardCoordinator coord(
      shard::makeSupervisedFabric(ShardTransportKind::Subprocess, 2,
                                  testDeadlines(), testRetryPolicy()),
      4, 4);
  coord.runReplicated(1, job.request, 0, job.request.seed);
  EXPECT_EQ(job.out.pixels(), oracle.output.pixels());

  const int pid = coord.fabric().channel(0).workerPid();
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);

  std::fill(job.out.pixels().begin(), job.out.pixels().end(), 0);
  coord.runReplicated(1, job.request, 0, job.request.seed);
  EXPECT_EQ(job.out.pixels(), oracle.output.pixels());
  EXPECT_GE(coord.fabric().stats().respawns, 1u);
  EXPECT_GE(coord.fabric().stats().retries, 1u);
  EXPECT_EQ(coord.fabric().stats().deadShards, 0u);
  EXPECT_FALSE(coord.fabric().dead(0));
}

TEST(ShardFailure, DeadShardDegradesOntoSurvivorByteIdentically) {
  // No retry budget at all: the first failure marks the shard dead, and
  // the coordinator re-dispatches its EXACT frame to the survivor.  The
  // bytes still match the oracle — worker identity never touches bits.
  ClientJob job = makeJob(apps::AppKind::Compositing, core::DesignKind::ReramSc,
                          12, 5);
  const apps::RunResult oracle = oracleRun(job, 12);
  shard::RetryPolicy rp = testRetryPolicy();
  rp.maxAttempts = 1;
  rp.maxRespawns = 0;
  ShardCoordinator coord(
      shard::makeSupervisedFabric(ShardTransportKind::Subprocess, 2,
                                  testDeadlines(), rp),
      4, 4);

  const int pid = coord.fabric().channel(0).workerPid();
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);

  coord.runReplicated(1, job.request, 0, job.request.seed);
  EXPECT_EQ(job.out.pixels(), oracle.output.pixels());
  EXPECT_TRUE(coord.fabric().dead(0));
  EXPECT_EQ(coord.fabric().stats().deadShards, 1u);
  EXPECT_GE(coord.reassignedDispatches(), 1u);
  EXPECT_EQ(coord.degradedReplicas(), 1u);

  // Subsequent runs keep degrading onto the survivor, never hang.
  std::fill(job.out.pixels().begin(), job.out.pixels().end(), 0);
  coord.runReplicated(1, job.request, 0, job.request.seed);
  EXPECT_EQ(job.out.pixels(), oracle.output.pixels());
}

TEST(ShardFailure, AllShardsDeadIsAnErrorNotAHang) {
  ClientJob job = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                          8, 1);
  shard::RetryPolicy rp = testRetryPolicy();
  rp.maxAttempts = 1;
  rp.maxRespawns = 0;
  ShardCoordinator coord(
      shard::makeSupervisedFabric(ShardTransportKind::Subprocess, 2,
                                  testDeadlines(), rp),
      4, 4);
  for (std::size_t s = 0; s < 2; ++s) {
    const int pid = coord.fabric().channel(s).workerPid();
    ASSERT_GT(pid, 0);
    ASSERT_EQ(::kill(pid, SIGKILL), 0);
  }
  EXPECT_THROW(coord.runReplicated(1, job.request, 0, job.request.seed),
               std::runtime_error);
  // Still an error — and fast — on the next attempt too.
  EXPECT_THROW(coord.runReplicated(1, job.request, 0, job.request.seed),
               std::runtime_error);
}

TEST(ShardFailure, ServiceSurvivesWorkerCrashAndReportsOutcomes) {
  service::ServiceConfig sc;
  sc.lanes = 4;
  sc.rowsPerTile = 4;
  sc.shards = 2;
  sc.shardTransport = ShardTransportKind::Subprocess;
  sc.shardDeadlines = testDeadlines();
  sc.shardRetry = testRetryPolicy();
  service::AcceleratorService svc(sc);

  ClientJob job = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                          8, 1);
  const std::vector<std::uint8_t> healthy = [&] {
    svc.run(1, job.request);
    return job.out.pixels();
  }();

  // Kill a worker: the service recovers and the ticket reads Ok with the
  // same bytes — a crash is an operational event, not a client-visible one.
  ASSERT_NE(svc.shardCoordinator(), nullptr);
  const int pid = svc.shardCoordinator()->fabric().channel(0).workerPid();
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);

  std::fill(job.out.pixels().begin(), job.out.pixels().end(), 0);
  const service::Ticket t = svc.submit(1, job.request);
  const service::TicketOutcome outcome = svc.waitOutcome(t);
  EXPECT_EQ(outcome.status, service::TicketStatus::Ok);
  EXPECT_TRUE(outcome.error.empty());
  EXPECT_EQ(job.out.pixels(), healthy);
  EXPECT_GE(svc.stats().shardRespawns, 1u);
  svc.shutdown();
}

/// Forwards to a real channel until it has delivered \p replies replies,
/// then SIGKILLs the worker and fails every later receive: a worker dying
/// at a known point of a batch.
class DyingChannel final : public shard::ShardChannel {
 public:
  DyingChannel(std::unique_ptr<shard::ShardChannel> inner, std::size_t replies)
      : inner_(std::move(inner)), replies_(replies) {}

  void send(std::span<const std::uint8_t> frame) override {
    inner_->send(frame);
  }
  std::vector<std::uint8_t> receive() override {
    if (replies_ == 0) {
      inner_->terminate();
      throw std::runtime_error("DyingChannel: worker killed");
    }
    --replies_;
    return inner_->receive();
  }
  void terminate() override { inner_->terminate(); }
  int workerPid() const override { return inner_->workerPid(); }
  bool healthy() const override { return inner_->healthy(); }

 private:
  std::unique_ptr<shard::ShardChannel> inner_;
  std::size_t replies_;
};

/// Runs \p jobs as one pipelined batch; returns each item's error ("" on
/// success) and result.
struct BatchOutcome {
  std::vector<std::string> errors;
  std::vector<service::RequestResult> results;
};
BatchOutcome runBatch(ShardCoordinator& coord, std::vector<ClientJob>& jobs) {
  std::vector<ShardCoordinator::BatchItem> items;
  for (ClientJob& job : jobs) {
    items.push_back({&job.request, 1, 0, job.request.seed});
  }
  BatchOutcome out;
  out.errors.assign(jobs.size(), "unresolved");
  out.results.resize(jobs.size());
  coord.runBatch(items, [&](std::size_t i, const service::RequestResult& res,
                            const std::string& error) {
    out.errors[i] = error;
    out.results[i] = res;
  });
  return out;
}

TEST(ShardFailure, FactorylessTimeoutDegradesInsteadOfPairingALateReply) {
  // Without a respawn factory a recv timeout leaves the stream position
  // unknown: the late reply to request A is still coming.  Retrying in
  // place would resend A, and request B would then read A's second answer.
  // The shard must die instead, and both requests degrade onto shard 1.
  // The retry policy is patient on purpose: a retry would live long
  // enough to receive the late reply.
  const std::size_t size = 96;
  ClientJob a = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                        size, 11);
  ClientJob b = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                        size, 22);
  a.request.streamLength = 256;
  b.request.streamLength = 256;
  const apps::RunResult oracleA = oracleRun(a, size);
  const apps::RunResult oracleB = oracleRun(b, size);
  ASSERT_NE(oracleA.output.pixels(), oracleB.output.pixels());

  shard::ChannelDeadlines hasty;
  hasty.recv = std::chrono::milliseconds(2);  // below one frame's work
  std::vector<std::unique_ptr<shard::ShardChannel>> channels;
  channels.push_back(shard::spawnSubprocessWorker(hasty));
  channels.push_back(shard::spawnSubprocessWorker());
  shard::RetryPolicy patient;
  patient.maxAttempts = 12;
  patient.initialBackoff = std::chrono::milliseconds(20);
  patient.maxBackoff = std::chrono::milliseconds(200);
  ShardCoordinator coord(
      std::make_unique<shard::ShardSupervisor>(
          std::move(channels), shard::ShardSupervisor::ChannelFactory{},
          patient),
      4, 4);

  const service::RequestResult resA =
      coord.runReplicated(1, a.request, 0, a.request.seed);
  EXPECT_EQ(a.out.pixels(), oracleA.output.pixels());
  EXPECT_TRUE(resA.degraded);
  const service::RequestResult resB =
      coord.runReplicated(1, b.request, 0, b.request.seed);
  EXPECT_EQ(b.out.pixels(), oracleB.output.pixels());
  EXPECT_NE(b.out.pixels(), oracleA.output.pixels());
  EXPECT_TRUE(resB.degraded);
  EXPECT_EQ(resB.opCount, oracleB.opCount);
  EXPECT_TRUE(coord.fabric().dead(0));
  EXPECT_FALSE(coord.fabric().dead(1));
  EXPECT_GE(coord.fabric().stats().timeouts, 1u);
  EXPECT_EQ(coord.fabric().stats().retries, 0u);
}

TEST(ShardFailure, ShardKilledMidBatchDegradesOnlyTheRequestsItOrphaned) {
  // Shard 0's worker dies after answering two frames.  Requests 0 and 1
  // were fully answered and read Ok; the frames of requests 2 and 3 on
  // shard 0 re-dispatch to shard 1, so exactly those read degraded.  All
  // bytes equal the oracle.
  const std::size_t size = 12;
  std::vector<ClientJob> jobs;
  std::vector<apps::RunResult> oracles;
  for (std::uint64_t i = 0; i < 4; ++i) {
    jobs.push_back(makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                           size, 40 + i));
    oracles.push_back(oracleRun(jobs.back(), size));
  }
  auto raw = shard::makeShardChannels(ShardTransportKind::Subprocess, 2);
  raw[0] = std::make_unique<DyingChannel>(std::move(raw[0]), 2);
  ShardCoordinator coord(std::move(raw), 4, 4);

  const BatchOutcome out = runBatch(coord, jobs);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(out.errors[i], "") << "request " << i;
    EXPECT_EQ(jobs[i].out.pixels(), oracles[i].output.pixels())
        << "request " << i;
    EXPECT_EQ(out.results[i].opCount, oracles[i].opCount) << "request " << i;
    EXPECT_EQ(out.results[i].degraded, i >= 2) << "request " << i;
  }
  EXPECT_TRUE(coord.fabric().dead(0));
  EXPECT_EQ(coord.reassignedDispatches(), 2u);
  EXPECT_EQ(coord.degradedReplicas(), 2u);
}

TEST(ShardPipeline, WindowOverflowBatchNeedsNoTimeoutOrRetry) {
  // 8 requests x 3 replicas at 128x128 on 2 shards: 24 frames of ~16.6 KB
  // per shard, far more than one window holds.  The window keeps both
  // directions below the channel buffers, so the batch finishes without a
  // single deadline expiry or retry, over socketpairs and over TCP.
  const std::size_t size = 128;
  std::vector<ClientJob> jobs;
  for (std::uint64_t i = 0; i < 8; ++i) {
    jobs.push_back(makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                           size, 60 + i, /*replicas=*/3));
    jobs.back().request.streamLength = 16;
  }
  std::vector<std::vector<std::uint8_t>> expected;
  for (ClientJob& job : jobs) {
    expected.push_back(oracleRun(job, size).output.pixels());
  }
  TileAssignment a;
  a.laneStride = 2;
  a.rowEnd = size;
  const std::size_t frameBytes =
      shard::encodeRequest(shard::makeWireRequest(jobs[0].request, 1, 0, 1,
                                                  4, 4, a))
          .size();
  ASSERT_GT(frameBytes, 16000u);

  for (const ShardTransportKind kind :
       {ShardTransportKind::Subprocess, ShardTransportKind::Tcp}) {
    ShardCoordinator coord(shard::makeSupervisedFabric(kind, 2), 4, 4);
    for (ClientJob& job : jobs) {
      std::fill(job.out.pixels().begin(), job.out.pixels().end(), 0);
    }
    const BatchOutcome out = runBatch(coord, jobs);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      EXPECT_EQ(out.errors[i], "") << "request " << i;
      EXPECT_EQ(jobs[i].out.pixels(), expected[i]) << "request " << i;
    }
    const shard::FabricStats& fs = coord.fabric().stats();
    EXPECT_EQ(fs.timeouts, 0u) << "kind " << static_cast<int>(kind);
    EXPECT_EQ(fs.retries, 0u) << "kind " << static_cast<int>(kind);
    EXPECT_GE(fs.peakInflight, 2u);
    EXPECT_LE(fs.peakInflight * frameBytes, shard::kShardWindowBytes);
  }
}

TEST(ShardPipeline, ShardedServiceBatchMatchesInProcessService) {
  // One dispatcher batch of 8 mixed requests (one of them TMR) through the
  // sharded service equals the in-process service per request: bytes,
  // event ledger and op count, at shards {1, 2, 4} over every transport.
  // peakInflight >= 2 proves the frames pipelined: a silent fallback to one
  // frame per shard fails here, not only in the benchmark.
  struct Outcome {
    std::vector<std::vector<std::uint8_t>> bytes;
    std::vector<service::RequestResult> results;
    std::uint64_t peakInflight = 0;
  };
  const auto runAll = [](std::size_t shards, ShardTransportKind kind) {
    service::ServiceConfig sc;
    sc.lanes = 4;
    sc.rowsPerTile = 4;
    sc.maxBatch = 8;
    sc.startPaused = true;  // all 8 requests ride one batch
    sc.shards = shards;
    sc.shardTransport = kind;
    service::AcceleratorService svc(sc);
    std::vector<ClientJob> jobs;
    const apps::AppKind apps[] = {apps::AppKind::Compositing,
                                  apps::AppKind::Filters,
                                  apps::AppKind::Morphology};
    const core::DesignKind designs[] = {core::DesignKind::ReramSc,
                                        core::DesignKind::SwScSimd,
                                        core::DesignKind::SwScLfsr};
    for (std::size_t i = 0; i < 8; ++i) {
      jobs.push_back(makeJob(apps[i % 3], designs[i % 3], 12, 90 + i,
                             i == 5 ? 3 : 1));
    }
    std::vector<service::Ticket> tickets;
    for (ClientJob& job : jobs) tickets.push_back(svc.submit(1, job.request));
    svc.resume();
    Outcome out;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      out.results.push_back(svc.wait(tickets[i]));
      out.bytes.push_back(jobs[i].out.pixels());
    }
    if (svc.shardCoordinator() != nullptr) {
      out.peakInflight = svc.shardCoordinator()->fabric().stats().peakInflight;
    }
    return out;
  };

  const Outcome solo = runAll(0, ShardTransportKind::Loopback);
  for (const std::size_t shards :
       {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    for (const ShardTransportKind kind :
         {ShardTransportKind::Subprocess, ShardTransportKind::Tcp,
          ShardTransportKind::Loopback}) {
      const Outcome sharded = runAll(shards, kind);
      const std::string where = std::to_string(shards) + " shards, kind " +
                                std::to_string(static_cast<int>(kind));
      EXPECT_EQ(sharded.bytes, solo.bytes) << where;
      for (std::size_t i = 0; i < solo.results.size(); ++i) {
        EXPECT_EQ(sharded.results[i].opCount, solo.results[i].opCount)
            << where << ", request " << i;
        EXPECT_TRUE(sharded.results[i].events == solo.results[i].events)
            << where << ", request " << i;
        EXPECT_EQ(sharded.results[i].batchSize, 8u) << where;
      }
      EXPECT_GE(sharded.peakInflight, 2u) << where;
    }
  }
}

TEST(ShardPipeline, FailedReplyFailsOnlyItsOwnTicket) {
  // The middle request names a design the worker's decoder rejects, so its
  // shards answer ok == false.  Only its ticket fails; its batch-mates
  // resolve Ok with oracle bytes.
  service::ServiceConfig sc;
  sc.lanes = 4;
  sc.rowsPerTile = 4;
  sc.startPaused = true;
  sc.shards = 2;
  sc.shardTransport = ShardTransportKind::Subprocess;
  service::AcceleratorService svc(sc);

  std::vector<ClientJob> jobs;
  for (std::uint64_t i = 0; i < 3; ++i) {
    jobs.push_back(makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                           12, 70 + i));
  }
  std::vector<apps::RunResult> oracles;
  for (const ClientJob& job : jobs) oracles.push_back(oracleRun(job, 12));
  jobs[1].request.design = static_cast<core::DesignKind>(200);

  std::vector<service::Ticket> tickets;
  for (ClientJob& job : jobs) tickets.push_back(svc.submit(1, job.request));
  svc.resume();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const service::TicketOutcome outcome = svc.waitOutcome(tickets[i]);
    if (i == 1) {
      EXPECT_EQ(outcome.status, service::TicketStatus::Failed);
      EXPECT_NE(outcome.error.find("failed"), std::string::npos)
          << outcome.error;
    } else {
      EXPECT_EQ(outcome.status, service::TicketStatus::Ok) << outcome.error;
      EXPECT_EQ(jobs[i].out.pixels(), oracles[i].output.pixels());
    }
  }
  EXPECT_EQ(svc.tenantLedger(1).requests, 2u);  // billed before resolving
  svc.shutdown();
}

TEST(ShardService, ShardedServiceMatchesUnshardedBitExactly) {
  // The ServiceConfig::shards knob is a deployment choice, not a bit
  // contract: the same mixed workload through 0 (in-process), loopback and
  // subprocess shard fan-outs must produce identical bytes and bills.
  const auto runAll = [](std::size_t shards, ShardTransportKind kind) {
    service::ServiceConfig sc;
    sc.lanes = 4;
    sc.rowsPerTile = 4;
    sc.shards = shards;
    sc.shardTransport = kind;
    service::AcceleratorService svc(sc);
    svc.setTenantSeedNamespace(2, 0xfeed);
    struct Outcome {
      std::vector<std::vector<std::uint8_t>> bytes;
      std::uint64_t opCount = 0;
      std::uint64_t slReads = 0;
    } outcome;
    std::vector<ClientJob> jobs;
    jobs.push_back(makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                           12, 1));
    jobs.push_back(makeJob(apps::AppKind::Morphology,
                           core::DesignKind::SwScSimd, 12, 2));
    jobs.push_back(makeJob(apps::AppKind::Compositing,
                           core::DesignKind::ReramSc, 12, 3));
    jobs.push_back(makeJob(apps::AppKind::Filters, core::DesignKind::SwScLfsr,
                           12, 4, 3));
    for (std::size_t i = 0; i < jobs.size(); ++i) {
      const service::RequestResult res =
          svc.run(static_cast<service::TenantId>(i % 3), jobs[i].request);
      outcome.bytes.push_back(jobs[i].out.pixels());
      outcome.opCount += res.opCount;
      outcome.slReads += res.events.slReads;
    }
    return outcome;
  };

  const auto solo = runAll(0, ShardTransportKind::Loopback);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    for (const ShardTransportKind kind :
         {ShardTransportKind::Loopback, ShardTransportKind::Subprocess,
          ShardTransportKind::Tcp}) {
      const auto sharded = runAll(shards, kind);
      EXPECT_EQ(sharded.bytes, solo.bytes)
          << shards << " shards, kind " << static_cast<int>(kind);
      EXPECT_EQ(sharded.opCount, solo.opCount);
      EXPECT_EQ(sharded.slReads, solo.slReads);
    }
  }
}

TEST(ShardService, WaitForTimesOutThenRedeems) {
  service::ServiceConfig sc;
  sc.lanes = 4;
  sc.rowsPerTile = 4;
  sc.startPaused = true;  // the ticket cannot resolve while paused
  service::AcceleratorService svc(sc);
  ClientJob job = makeJob(apps::AppKind::Gamma, core::DesignKind::SwScLfsr,
                          8, 1);
  const service::Ticket t = svc.submit(1, job.request);
  EXPECT_FALSE(
      svc.waitFor(t, std::chrono::microseconds(1000)).has_value());
  svc.resume();
  const auto res = svc.waitFor(t, std::chrono::microseconds(10'000'000));
  ASSERT_TRUE(res.has_value());
  EXPECT_GT(res->opCount, 0u);
  // Redeemed: the ticket is gone.
  EXPECT_THROW(svc.waitFor(t, std::chrono::microseconds(1)),
               std::invalid_argument);
}

}  // namespace
}  // namespace aimsc
