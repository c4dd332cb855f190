/// \file main.cpp
/// \brief aimsc end-to-end benchmark: the command-line entry point.
///
///   aimsc_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
///
/// Runs one named workload (workloads.cpp) against the public service,
/// shard, core, reram, reliability and apps APIs, checks every timed output
/// byte (and its event ledger and op count) against the one-shot oracle,
/// and prints a text report followed by one JSON result line.  With
/// `--trace 0` the JSON carries the end-to-end metrics; with `--trace 1` it
/// carries the per-layer metrics of the traced run (README.md).
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "energy/cost_model.hpp"
#include "layers.hpp"
#include "sc/simd_caps.hpp"
#include "service/accelerator_service.hpp"
#include "shard/coordinator.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

// --- measurement constants -------------------------------------------------

// An open-loop round is invalid when the client ran this late at p99 (the
// generator fell behind) ...
constexpr double kMaxLagP99Ms = 10.0;
// ... or the admission queue was full for at least 1% of arrivals (the
// backlog grew to the bound instead of absorbing bursts).
constexpr double kMaxQueueDepthP99 = 64.0;  // ServiceConfig::queueCapacity
// The phase is invalid (no latencies reported, exit 3) when fewer than
// half of its rounds are valid.

// Closed-loop share of --seconds for workloads that also run open loop.
constexpr double kClosedShare = 0.4;
// campaign-cold: calls drawn per plan chunk, the minimum timed calls per
// run, and how many calls the traced run replays layer by layer.
constexpr std::size_t kCampaignPlanChunk = 64;
constexpr std::size_t kCampaignMinCalls = 16;
constexpr std::size_t kCampaignReplayCalls = 16;
// Solo service runs per item for the unattributed-time account.
constexpr int kSoloRuns = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "aimsc_perfbench: " << why
            << "\nusage: aimsc_perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\nworkloads:";
  for (const auto& n : workloadNames()) std::cerr << ' ' << n;
  std::cerr << '\n';
  std::exit(2);
}

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage("missing value for " + key);
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val) != 0;
      else usage("unknown option " + key);
    } catch (const std::logic_error&) {
      usage("bad value for " + key);
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  if (!(a.seconds > 0)) usage("--seconds must be positive");
  return a;
}

// --- host fingerprint ------------------------------------------------------

std::string cpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string jsonEscape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang ";
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc ";
#else
constexpr const char* kCompiler = "";
#endif

/// One line of JSON naming what the numbers were measured on; compare.py
/// prints the difference when two results' fingerprints disagree.
std::string hostFingerprint() {
  const char* env = std::getenv("AIMSC_SIMD");
  std::ostringstream o;
  o << "{\"nproc\": " << std::thread::hardware_concurrency()
    << ", \"cpu\": \"" << jsonEscape(cpuModel()) << "\", \"simd\": \""
    << aimsc::sc::simdModeName(aimsc::sc::resolveSimd(aimsc::sc::SimdMode::Auto))
    << "\", \"aimsc_simd_env\": \"" << jsonEscape(env != nullptr ? env : "")
    << "\", \"compiler\": \"" << kCompiler << jsonEscape(__VERSION__)
    << "\", \"build_type\": \"" << AIMSC_BENCH_BUILD_TYPE << "\"}";
  return o.str();
}

/// Aggregate CPU time counters from /proc/stat: {steal, total}.  The steal
/// share over a run says how much of the host a hypervisor took away, the
/// first thing to check when a run's figures stray.
std::pair<double, double> cpuStealAndTotal() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0, steal = 0, v = 0;
  for (int i = 0; i < 8 && in >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

/// Peak resident set (VmHWM) of \p pid in MB; 0 when unreadable.
double peakRssMb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

// --- the correctness ledger ------------------------------------------------

/// Every timed operation lands here: attempted / failed / refused / byte or
/// ledger mismatch, plus the simulated statistics of the verified outputs.
struct Tally {
  std::size_t attempted = 0, failed = 0, refused = 0, mismatched = 0;
  double ssimSum = 0;
  std::size_t ssimN = 0;
  double energyNj = 0;
  std::size_t energyPx = 0;

  std::size_t bad() const { return failed + refused + mismatched; }

  /// Records one resolved operation; returns true when it was correct.
  bool record(const Item& item, bool ok, const std::uint8_t* out,
              const reram::EventCounts& events, std::uint64_t ops,
              double ssimPct) {
    ++attempted;
    if (!ok) {
      ++failed;
      return false;
    }
    if (!matchesOracle(item, out, events, ops)) {
      ++mismatched;
      return false;
    }
    ssimSum += ssimPct;
    ++ssimN;
    if (item.design == core::DesignKind::ReramSc) {
      energyNj += aimsc::energy::CostModel(item.cfg.streamLength)
                      .cost(events)
                      .totalEnergyNJ();
      energyPx += item.outPixels();
    }
    return true;
  }
};

// --- per-request spans of the traced run -----------------------------------

struct Spans {
  std::vector<double> submitUs, queueUs, execUs, resolveUs, depth;
};

void addSpan(Spans* spans, double submitUs, double e2eUs,
             const service::RequestResult& r) {
  if (spans == nullptr) return;
  spans->submitUs.push_back(submitUs);
  spans->queueUs.push_back(r.queueMicros);
  spans->execUs.push_back(r.execMicros);
  spans->resolveUs.push_back(e2eUs - submitUs - r.queueMicros - r.execMicros);
}

// --- service workloads -----------------------------------------------------

service::ServiceConfig serviceConfig(const Workload& w) {
  service::ServiceConfig c;
  c.lanes = kLanes;
  c.rowsPerTile = kRowsPerTile;
  c.maxBatch = 8;
  c.workerThreads = kThreads;
  c.shards = w.shards;
  return c;
}

std::unique_ptr<service::AcceleratorService> makeService(const Workload& w) {
  auto svc = std::make_unique<service::AcceleratorService>(serviceConfig(w));
  std::set<service::TenantId> seen;
  for (const Item& item : w.items) {
    if (seen.insert(item.tenant).second && item.seedNamespace != 0) {
      svc->setTenantSeedNamespace(item.tenant, item.seedNamespace);
    }
  }
  return svc;
}

/// Output buffers for in-flight tickets, sized for the largest item.
struct SlotPool {
  std::vector<std::vector<std::uint8_t>> bufs;
  std::vector<std::size_t> free;

  SlotPool(std::size_t n, std::size_t bytes) : bufs(n) {
    for (std::size_t i = 0; i < n; ++i) {
      bufs[i].assign(bytes, 0);
      free.push_back(n - 1 - i);
    }
  }
  img::ImageSpan span(std::size_t slot, const Item& item) {
    return img::ImageSpan(bufs[slot].data(), item.shape.width,
                          item.shape.height);
  }
};

std::size_t maxOutPixels(const Workload& w) {
  std::size_t m = 0;
  for (const Item& item : w.items) m = std::max(m, item.outPixels());
  return m;
}

struct ClosedResult {
  double throughputRps = 0;
  std::vector<double> latencyMs;
  std::size_t sloHits = 0;
};

/// Closed loop: one generator keeps `window` tickets in flight, redeeming
/// the oldest before submitting the next.  Runs `order` once when
/// \p seconds <= 0 (the warm-up pass), else cycles it for \p seconds and
/// then to the end of the current cycle, so every measured slice holds
/// whole cycles and the same request mix.
ClosedResult closedLoop(service::AcceleratorService& svc, const Workload& w,
                        const std::vector<std::size_t>& order,
                        std::size_t& pos, double seconds, Tally& tally,
                        Spans* spans) {
  struct InFlight {
    service::Ticket ticket;
    std::size_t item, slot;
    Clock::time_point t0;
    double submitUs;
  };
  SlotPool slots(w.window, maxOutPixels(w));
  std::deque<InFlight> inflight;
  ClosedResult res;
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration<double>(seconds);
  std::size_t submitted = 0;
  auto more = [&] {
    if (seconds <= 0) return submitted < order.size();
    return pos % order.size() != 0 || Clock::now() < end;
  };
  auto last = start;
  for (;;) {
    while (inflight.size() < w.window && more()) {
      const std::size_t idx = order[pos++ % order.size()];
      const Item& item = w.items[idx];
      const std::size_t slot = slots.free.back();
      slots.free.pop_back();
      if (spans != nullptr) spans->depth.push_back(double(svc.queueDepth()));
      const auto t0 = Clock::now();
      const auto ticket = svc.submit(item.tenant, item.request(slots.span(slot, item)));
      inflight.push_back({ticket, idx, slot, t0, microsBetween(t0, Clock::now())});
      ++submitted;
    }
    if (inflight.empty()) break;
    const InFlight f = inflight.front();
    inflight.pop_front();
    const service::TicketOutcome o = svc.waitOutcome(f.ticket);
    last = Clock::now();
    const Item& item = w.items[f.item];
    const double e2eUs = microsBetween(f.t0, last);
    const bool ok = tally.record(item, o.ok(), slots.bufs[f.slot].data(),
                                 o.result.events, o.result.opCount,
                                 item.expected.ssimPct);
    if (o.ok()) addSpan(spans, f.submitUs, e2eUs, o.result);
    res.latencyMs.push_back(e2eUs / 1000.0);
    if (ok && e2eUs / 1000.0 <= w.sloMs) ++res.sloHits;
    slots.free.push_back(f.slot);
  }
  res.throughputRps = double(res.latencyMs.size()) / secondsBetween(start, last);
  return res;
}

/// One open-loop slice; `valid` is false when the generator ran late or the
/// admission queue was full (the backlog grew to the bound).
struct OpenResult {
  std::size_t arrivals = 0;
  double p50 = 0, tail = 0, tailPct = 0, slo = 0, offeredRps = 0, lagMax = 0;
  std::vector<double> lagMs, depth;
  bool valid = false;
};

/// Open loop: a Poisson schedule at the workload's rate is drawn in
/// advance.  One client thread sends each arrival at its due time with
/// trySubmit (a refusal is a miss) and, between sends, waits on the oldest
/// ticket until it resolves or the next arrival falls due; each arrival is
/// timed from its due time to resolution.
OpenResult openLoop(service::AcceleratorService& svc, const Workload& w,
                    std::uint64_t seed, double seconds, Tally& tally,
                    Spans* spans) {
  std::mt19937_64 rng(seed ^ 0x09e7100full);
  std::exponential_distribution<double> gap(w.openLoopRps);
  std::vector<double> due;
  for (double t = gap(rng); t < seconds; t += gap(rng)) due.push_back(t);

  struct Sent {
    service::Ticket ticket;
    std::size_t item, slot;
    Clock::time_point dueAt, t0;
    double submitUs;
  };
  SlotPool slots(256, maxOutPixels(w));
  std::deque<Sent> inflight;
  OpenResult res;
  res.arrivals = due.size();
  std::vector<double> latency;
  std::size_t hits = 0;

  const auto start = Clock::now();
  auto dueAt = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(due[i]));
  };
  std::size_t next = 0;
  while (next < due.size() || !inflight.empty()) {
    if (next < due.size() && Clock::now() >= dueAt(next)) {
      const auto at = dueAt(next);
      res.lagMs.push_back(
          std::chrono::duration<double, std::milli>(Clock::now() - at).count());
      res.depth.push_back(static_cast<double>(svc.queueDepth()));
      const std::size_t idx = w.sequence[rng() % w.sequence.size()];
      const Item& item = w.items[idx];
      std::optional<service::Ticket> ticket;
      const auto t0 = Clock::now();
      if (!slots.free.empty()) {
        ticket = svc.trySubmit(item.tenant,
                               item.request(slots.span(slots.free.back(), item)));
      }
      const double submitUs = microsBetween(t0, Clock::now());
      ++next;
      if (!ticket) {
        ++tally.attempted;
        ++tally.refused;
        continue;
      }
      inflight.push_back({*ticket, idx, slots.free.back(), at, t0, submitUs});
      slots.free.pop_back();
      continue;
    }
    if (inflight.empty()) {
      std::this_thread::sleep_until(dueAt(next));
      continue;
    }
    const Sent& s = inflight.front();
    std::optional<service::TicketOutcome> o;
    if (next < due.size()) {
      const auto wait = std::chrono::duration_cast<std::chrono::microseconds>(
          dueAt(next) - Clock::now());
      o = svc.waitOutcomeFor(s.ticket, std::max(wait, std::chrono::microseconds(0)));
    } else {
      o = svc.waitOutcome(s.ticket);
    }
    if (!o) continue;  // the next arrival fell due first
    const auto t = Clock::now();
    const Item& item = w.items[s.item];
    const double ms = std::chrono::duration<double, std::milli>(t - s.dueAt).count();
    const bool ok = tally.record(item, o->ok(), slots.bufs[s.slot].data(),
                                 o->result.events, o->result.opCount,
                                 item.expected.ssimPct);
    if (o->ok()) addSpan(spans, s.submitUs, microsBetween(s.t0, t), o->result);
    latency.push_back(ms);
    if (ok && ms <= w.sloMs) ++hits;
    slots.free.push_back(s.slot);
    inflight.pop_front();
  }
  if (spans != nullptr) {
    spans->depth.insert(spans->depth.end(), res.depth.begin(), res.depth.end());
  }
  res.offeredRps = due.empty() ? 0.0 : double(due.size()) / due.back();
  res.tailPct = latency.size() >= 1000 ? 99.0 : supportedTailPercentile(latency.size());
  res.p50 = percentile(latency, 50);
  res.tail = percentile(latency, res.tailPct);
  res.slo = due.empty() ? 0.0 : double(hits) / double(due.size());
  res.lagMax = percentile(res.lagMs, 100);
  res.valid = !due.empty() && percentile(res.lagMs, 99) <= kMaxLagP99Ms &&
              percentile(res.depth, 99) < kMaxQueueDepthP99;
  return res;
}

/// Runs one real request, then corrupts one byte of its output and checks
/// the gate trips on it (and passes the untouched bytes).
bool gateSelfTest(service::AcceleratorService& svc, const Item& item) {
  std::vector<std::uint8_t> buf(item.outPixels());
  const service::RequestResult r = svc.run(
      item.tenant, item.request(img::ImageSpan(buf.data(), item.shape.width,
                                               item.shape.height)));
  const bool clean = matchesOracle(item, buf, r.events, r.opCount);
  buf[buf.size() / 2] ^= 0x01;
  const bool tripped = !matchesOracle(item, buf, r.events, r.opCount);
  return clean && tripped;
}

// --- report ----------------------------------------------------------------

void printMetrics(const std::vector<Metric>& ms) {
  for (const Metric& m : ms) {
    std::printf("  %-34s ", m.name.c_str());
    if (m.available) {
      std::printf("%14.6g %-8s n=%zu", m.value, m.unit.c_str(), m.samples);
    } else {
      std::printf("%14s %-8s n=0", "unavailable", m.unit.c_str());
    }
    if (!m.note.empty()) std::printf("  (%s)", m.note.c_str());
    std::printf("\n");
  }
}

void printResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& ms) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < ms.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", ms[i].name.c_str(),
                ms[i].available ? ms[i].value : 0.0, ms[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

/// latency_p50_ms / latency_p99_ms from a latency sample: p99 when at
/// least 1000 samples exist, else the highest percentile with ten samples
/// beyond it (stated in the note).
void latencyMetrics(std::vector<Metric>& out, const std::vector<double>& ms,
                    const std::string& phase) {
  const double tail = ms.size() >= 1000 ? 99.0 : supportedTailPercentile(ms.size());
  out.push_back({"latency_p50_ms", percentile(ms, 50), "ms", ms.size(), phase});
  char note[96];
  std::snprintf(note, sizeof note, "%s, reported percentile p%.0f", phase.c_str(),
                tail);
  out.push_back({"latency_p99_ms", percentile(ms, tail), "ms", ms.size(), note});
}

struct RunOutcome {
  std::vector<Metric> endToEnd;
  std::vector<Metric> layers;
  Tally tally;
  bool correct = true;
  std::uint64_t digest = 0;
  bool invalid = false;
  std::string invalidWhy;
};

void commonEndToEnd(RunOutcome& out, const std::vector<double>& setups) {
  out.endToEnd.insert(out.endToEnd.begin(),
                      Metric{"setup_s", median(setups), "s", setups.size(),
                             "median of the run's setups"});
}

void qualityMetrics(RunOutcome& out) {
  const Tally& t = out.tally;
  out.endToEnd.push_back({"failed_frac",
                          t.attempted ? double(t.bad()) / double(t.attempted) : 0.0,
                          "fraction", t.attempted,
                          "text only: the result line carries attempted/failed"});
  out.endToEnd.push_back({"ssim_pct", t.ssimN ? t.ssimSum / double(t.ssimN) : 0.0,
                          "%", t.ssimN, "Table IV SSIM of the verified outputs"});
  out.endToEnd.push_back({"sim_energy_nj_per_px",
                          t.energyPx ? t.energyNj / double(t.energyPx) : 0.0,
                          "nJ/px", t.energyPx,
                          "ReRAM-SC requests, calibrated model, unvalidated"});
}

/// Replays each distinct item layer by layer and accounts the blocking
/// path of a solo request against the layer self times.  The solo requests
/// go through the correctness gate like every other output.
void layerReplay(LayerReplay& replay, const std::vector<Item>& items,
                 service::AcceleratorService* svc, bool sharded, Tally& tally,
                 double& unattributed, double& e2eTotal) {
  for (std::size_t i = 0; i < items.size(); ++i) {
    const Item& item = items[i];
    const ItemCost c = replay.replay(item);
    double e2e = 0, attributed = 0;
    if (svc == nullptr) {
      e2e = c.oneshotUs;
      // A campaign call pays its fault tables on every call: cold waves.
      attributed = c.synthUs + c.coldUs + c.voteUs + c.scoringUs;
    } else {
      std::vector<double> runs, submit, queue;
      std::vector<std::uint8_t> buf(item.outPixels());
      for (int k = 0; k < kSoloRuns; ++k) {
        const auto t0 = Clock::now();
        const auto ticket = svc->submit(
            item.tenant, item.request(img::ImageSpan(buf.data(), item.shape.width,
                                                     item.shape.height)));
        const double s = microsBetween(t0, Clock::now());
        const service::RequestResult r = svc->wait(ticket);
        runs.push_back(microsBetween(t0, Clock::now()));
        tally.record(item, true, buf.data(), r.events, r.opCount,
                     item.expected.ssimPct);
        submit.push_back(s);
        queue.push_back(r.queueMicros);
      }
      e2e = median(runs);
      attributed = median(submit) + median(queue) + c.voteUs +
                   (sharded ? c.shardUs : c.buildUs + c.waveUs);
    }
    unattributed += e2e - attributed;
    e2eTotal += e2e;
  }
}

/// Adds the counters a service accumulated between two snapshots to \p acc.
void addStatsDelta(service::ServiceStats& acc, const service::ServiceStats& before,
                   const service::ServiceStats& after) {
  if (acc.batchOccupancy.size() < after.batchOccupancy.size()) {
    acc.batchOccupancy.resize(after.batchOccupancy.size(), 0);
  }
  for (std::size_t k = 0; k < after.batchOccupancy.size(); ++k) {
    acc.batchOccupancy[k] +=
        after.batchOccupancy[k] -
        (k < before.batchOccupancy.size() ? before.batchOccupancy[k] : 0);
  }
  acc.faultModelCacheHits += after.faultModelCacheHits - before.faultModelCacheHits;
  acc.faultModelCacheMisses +=
      after.faultModelCacheMisses - before.faultModelCacheMisses;
  acc.shardRetries += after.shardRetries - before.shardRetries;
  acc.shardRespawns += after.shardRespawns - before.shardRespawns;
  acc.shardTimeouts += after.shardTimeouts - before.shardTimeouts;
}

void serviceLayerMetrics(RunOutcome& out, const Spans& spans,
                         const service::ServiceStats& delta) {
  auto pct = [&](const char* name, const std::vector<double>& v, double q,
                 const char* unit) {
    out.layers.push_back({name, percentile(v, q), unit, v.size(), "", !v.empty()});
  };
  pct("service.submit_us", spans.submitUs, 50, "us");
  pct("service.submit_us_p99", spans.submitUs, 99, "us");
  pct("service.queue_wait_us", spans.queueUs, 50, "us");
  pct("service.queue_wait_us_p99", spans.queueUs, 99, "us");
  pct("service.exec_us", spans.execUs, 50, "us");
  pct("service.resolve_us", spans.resolveUs, 50, "us");
  const double batches = [&] {
    double b = 0;
    for (const auto n : delta.batchOccupancy) b += double(n);
    return b;
  }();
  out.layers.push_back({"service.batch_occupancy", delta.meanOccupancy(),
                        "requests", std::size_t(batches),
                        "mean requests per batch", batches > 0});
  pct("service.queue_depth_p99", spans.depth, 99, "requests");
  const std::uint64_t hits = delta.faultModelCacheHits;
  const std::uint64_t lookups = hits + delta.faultModelCacheMisses;
  out.layers.push_back({"service.fault_cache_hit_ratio",
                        lookups ? double(hits) / double(lookups) : 0.0, "ratio",
                        lookups,
                        lookups ? "" : "no fault-table lookup in the service",
                        lookups > 0});
}

void fabricMetrics(RunOutcome& out, std::uint64_t retries,
                   std::uint64_t respawns, std::uint64_t timeouts,
                   const char* source) {
  out.layers.push_back({"shard.retries", double(retries), "count", 1, source});
  out.layers.push_back({"shard.respawns", double(respawns), "count", 1, source});
  out.layers.push_back({"shard.timeouts", double(timeouts), "count", 1, source});
}

RunOutcome runService(Workload& w, const Args& args, LayerReplay* replay) {
  RunOutcome out;
  for (Item& item : w.items) computeOracle(item);
  for (const Item& item : w.items) {
    addToDigest(out.digest, item.expected.bytes, item.expected.events,
                item.expected.opCount);
  }

  // The run is split into rounds, each on a freshly built service: setup
  // (construction, forking and handshaking shard workers, and the warm-up
  // pass that fills every cache), then a closed-loop and an open-loop
  // slice.  Figures are medians over rounds, so one unlucky placement of
  // threads and worker processes on a shared host moves one round only.
  const std::size_t roundCount = w.rounds;
  const double closedSec =
      (w.openLoopRps > 0 ? args.seconds * kClosedShare : args.seconds) / roundCount;
  const double openSec =
      (w.openLoopRps > 0 ? args.seconds * (1 - kClosedShare) : 0.0) / roundCount;
  std::vector<std::size_t> once(w.items.size());
  for (std::size_t i = 0; i < once.size(); ++i) once[i] = i;

  struct Round {
    ClosedResult closed;
    std::optional<OpenResult> open;
    double steal = 0;  ///< host CPU steal share over the measured slices
  };
  std::vector<Round> rounds;
  std::vector<double> setups, untraced;
  std::size_t pos = 0;
  Spans spans;
  service::ServiceStats delta;
  Tally warmTally;
  double rss = 0;
  std::unique_ptr<service::AcceleratorService> svc;
  for (std::size_t r = 0; r < roundCount; ++r) {
    svc.reset();
    const auto t0 = Clock::now();
    svc = makeService(w);
    std::size_t warmPos = 0;
    closedLoop(*svc, w, once, warmPos, 0, warmTally, nullptr);
    setups.push_back(secondsBetween(t0, Clock::now()));
    if (r == 0) {
      const bool ok = gateSelfTest(*svc, w.items.front());
      std::printf("gate self-test: %s\n",
                  ok ? "one corrupted output byte trips the gate"
                     : "FAILED (a corrupted byte passed the gate)");
      if (!ok) out.correct = false;
    }
    if (args.trace) {
      Tally t;
      untraced.push_back(
          closedLoop(*svc, w, w.sequence, pos, closedSec, t, nullptr).throughputRps);
    }
    Spans* sp = args.trace ? &spans : nullptr;
    const service::ServiceStats before = svc->stats();
    const auto cpu0 = cpuStealAndTotal();
    Round round;
    round.closed = closedLoop(*svc, w, w.sequence, pos, closedSec, out.tally, sp);
    if (w.openLoopRps > 0) {
      round.open = openLoop(*svc, w, args.seed + r, openSec, out.tally, sp);
    }
    const auto cpu1 = cpuStealAndTotal();
    round.steal = (cpu1.first - cpu0.first) / std::max(1.0, cpu1.second - cpu0.second);
    rounds.push_back(std::move(round));
    addStatsDelta(delta, before, svc->stats());
    double roundRss = peakRssMb("self");
    if (auto* coord = svc->shardCoordinator()) {
      for (std::size_t s = 0; s < coord->shardCount(); ++s) {
        roundRss += peakRssMb(std::to_string(coord->fabric().workerPid(s)));
      }
    }
    rss = std::max(rss, roundRss);
  }
  if (warmTally.mismatched > 0) out.correct = false;

  // Figures come from the calmer half of the rounds, ranked by host
  // interference measured independently of the service: the host's CPU
  // steal share over the round (in 0.5% steps), then the open-loop
  // client's largest lag.  A shared host's steal bursts slow every thread
  // of the service, and rounds caught in one measure the host.
  auto calmer = [](const Round* a, const Round* b) {
    const double sa = std::floor(a->steal / 0.005), sb = std::floor(b->steal / 0.005);
    if (sa != sb) return sa < sb;
    return (a->open ? a->open->lagMax : 0.0) < (b->open ? b->open->lagMax : 0.0);
  };
  std::vector<const Round*> ranked, valid;
  std::printf("rounds (steal share, closed req/s[, open p50/p99 ms, client lag max ms]):");
  for (const Round& rd : rounds) {
    ranked.push_back(&rd);
    std::printf(" %.3f,%.0f", rd.steal, rd.closed.throughputRps);
    if (rd.open) {
      std::printf(",%.2f/%.2f,%.1f%s", rd.open->p50, rd.open->tail, rd.open->lagMax,
                  rd.open->valid ? "" : "(invalid)");
      if (rd.open->valid) valid.push_back(&rd);
    }
  }
  std::printf("\n");
  std::stable_sort(ranked.begin(), ranked.end(), calmer);
  std::stable_sort(valid.begin(), valid.end(), calmer);
  ranked.resize((ranked.size() + 1) / 2);

  std::vector<double> throughput, closedMs;
  std::size_t closedHits = 0;
  for (const Round* rd : ranked) {
    throughput.push_back(rd->closed.throughputRps);
    closedMs.insert(closedMs.end(), rd->closed.latencyMs.begin(),
                    rd->closed.latencyMs.end());
    closedHits += rd->closed.sloHits;
  }
  out.endToEnd.push_back(
      {"throughput_rps", median(throughput), "req/s", closedMs.size(),
       "closed loop, " + std::to_string(w.window) + " in flight, median of the " +
           std::to_string(ranked.size()) + " calmer rounds of " +
           std::to_string(roundCount)});
  if (w.openLoopRps > 0) {
    std::vector<double> lags, depths;
    for (const Round& rd : rounds) {
      lags.insert(lags.end(), rd.open->lagMs.begin(), rd.open->lagMs.end());
      depths.insert(depths.end(), rd.open->depth.begin(), rd.open->depth.end());
    }
    const std::size_t used = (valid.size() + 1) / 2;
    std::vector<double> p50, tail, slo;
    std::size_t samples = 0;
    double tailPct = 99.0;
    for (std::size_t i = 0; i < used; ++i) {
      const OpenResult& o = *valid[i]->open;
      samples += o.arrivals;
      p50.push_back(o.p50);
      tail.push_back(o.tail);
      slo.push_back(o.slo);
      tailPct = std::min(tailPct, o.tailPct);
    }
    const double lagP99 = percentile(lags, 99);
    std::printf("open loop: %zu rounds (%zu valid, latencies from the calmer "
                "%zu) at %.0f req/s offered, client lag p99 %.3f ms, queue "
                "depth p99 %.0f\n",
                rounds.size(), valid.size(), used, w.openLoopRps, lagP99,
                percentile(depths, 99));
    if (2 * valid.size() < rounds.size()) {
      out.invalid = true;
      out.invalidWhy = "the generator fell behind or the queue filled in " +
                       std::to_string(rounds.size() - valid.size()) + " of " +
                       std::to_string(rounds.size()) + " rounds";
    }
    char note[128];
    std::snprintf(note, sizeof note, "open loop, median of %zu rounds", used);
    out.endToEnd.push_back({"latency_p50_ms", median(p50), "ms", samples, note});
    std::snprintf(note, sizeof note, "open loop, median of %zu rounds' p%.0f",
                  used, tailPct);
    out.endToEnd.push_back({"latency_p99_ms", median(tail), "ms", samples, note});
    out.endToEnd.push_back({"slo_attainment", median(slo), "fraction", samples,
                            "Ok within " + std::to_string(int(w.sloMs)) +
                                " ms of due time, median of the same rounds"});
    double offered = 0;
    for (const Round& rd : rounds) offered += rd.open->offeredRps / double(rounds.size());
    out.layers.push_back({"loadgen.lag_p99_ms", lagP99, "ms", lags.size(), ""});
    out.layers.push_back({"loadgen.offered_rps", offered, "req/s", lags.size(), ""});
  } else {
    latencyMetrics(out.endToEnd, closedMs, "closed loop, the calmer rounds");
    out.endToEnd.push_back(
        {"slo_attainment",
         closedMs.empty() ? 0.0 : double(closedHits) / double(closedMs.size()),
         "fraction", closedMs.size(),
         "Ok within " + std::to_string(int(w.sloMs)) + " ms of submit"});
    out.layers.push_back({"loadgen.lag_p99_ms", 0, "ms", 0,
                          "closed loop: no schedule", false});
    out.layers.push_back({"loadgen.offered_rps", 0, "req/s", 0,
                          "closed loop: no schedule", false});
  }
  qualityMetrics(out);
  out.endToEnd.push_back({"peak_rss_mb", rss, "MB", 1 + w.shards,
                          "benchmark process + shard workers, largest round"});
  commonEndToEnd(out, setups);

  if (replay != nullptr) {
    serviceLayerMetrics(out, spans, delta);
    double unattributed = 0, e2e = 0;
    std::vector<Item> replayed;
    for (std::size_t i = 0; i < w.items.size(); i += w.replayStride) {
      replayed.push_back(w.items[i]);
    }
    layerReplay(*replay, replayed, svc.get(), w.shards > 0, out.tally,
                unattributed, e2e);
    replay->report(out.layers);
    if (w.shards > 0) {
      fabricMetrics(out, delta.shardRetries, delta.shardRespawns,
                    delta.shardTimeouts, "service fabric");
    } else {
      fabricMetrics(out, replay->retries(), replay->respawns(),
                    replay->timeouts(), "replay fabric");
    }
    std::vector<double> traced;
    for (const Round& rd : rounds) traced.push_back(rd.closed.throughputRps);
    out.layers.push_back({"trace.overhead_pct",
                          100.0 * (median(untraced) - median(traced)) /
                              median(untraced),
                          "%", 2 * roundCount,
                          "untraced vs traced closed-loop throughput"});
    out.layers.push_back({"trace.unattributed_pct", 100.0 * unattributed / e2e,
                          "%", replayed.size(),
                          "solo request time outside layer self times"});
    if (replay->mismatches() > 0) {
      std::printf("layer replay: %zu item(s) did not reproduce the service "
                  "bytes; their core splits are unavailable\n",
                  replay->mismatches());
    }
  }
  if (out.tally.mismatched > 0) out.correct = false;
  return out;
}

// --- campaign-cold ---------------------------------------------------------

struct CallRecord {
  Item item;
  std::vector<std::uint8_t> bytes;
  reram::EventCounts events;
  std::uint64_t opCount = 0;
  double ssimPct = 0;
  double ms = 0;
};

/// Timed sequential runAppDetailed calls for \p seconds of call time.
std::vector<CallRecord> campaignCalls(std::uint64_t seed, std::size_t& next,
                                      std::vector<Item>& plan, double seconds) {
  std::vector<CallRecord> calls;
  double spent = 0;
  while (spent < seconds || calls.size() < kCampaignMinCalls) {
    if (next >= plan.size()) {
      for (std::size_t k = 0; k < kCampaignPlanChunk; ++k) {
        plan.push_back(campaignCall(seed, plan.size()));
      }
    }
    CallRecord c;
    c.item = plan[next++];
    const auto t0 = Clock::now();
    apps::RunResult r = apps::runAppDetailed(c.item.app, c.item.design,
                                             c.item.cfg,
                                             {kLanes, kThreads, kRowsPerTile});
    c.ms = microsBetween(t0, Clock::now()) / 1000.0;
    spent += c.ms / 1000.0;
    c.bytes = std::move(r.output.pixels());
    c.events = r.events;
    c.opCount = r.opCount;
    c.ssimPct = r.quality.ssimPct;
    calls.push_back(std::move(c));
  }
  return calls;
}

/// Holds each call to the same request served solo by an in-process
/// service (or, for knobs a request cannot carry, runApp's own fleet
/// replayed from the factory); returns the service's traced spans.
void checkCalls(std::vector<CallRecord>& calls, service::AcceleratorService& svc,
                Tally& tally, Spans* spans) {
  for (CallRecord& c : calls) {
    Item& item = c.item;
    if (item.serviceable()) {
      item.expected.bytes.assign(item.outPixels(), 0);
      if (spans != nullptr) spans->depth.push_back(double(svc.queueDepth()));
      const auto t0 = Clock::now();
      const auto ticket = svc.submit(
          item.tenant, item.request(img::ImageSpan(item.expected.bytes.data(),
                                                   item.shape.width,
                                                   item.shape.height)));
      const double submitUs = microsBetween(t0, Clock::now());
      const service::RequestResult r = svc.wait(ticket);
      addSpan(spans, submitUs, microsBetween(t0, Clock::now()), r);
      item.expected.events = r.events;
      item.expected.opCount = r.opCount;
    } else {
      item.expected = replayOnFleet(item);
    }
    tally.record(item, true, c.bytes.data(), c.events, c.opCount, c.ssimPct);
  }
}

RunOutcome runCampaign(Workload& w, const Args& args, LayerReplay* replay) {
  RunOutcome out;
  // Setup: everything before the first timed call, i.e. drawing the first
  // chunk of the call plan (configurations and the inputs the oracle needs).
  std::vector<double> setups;
  std::vector<Item> plan;
  for (std::size_t rep = 0; rep < w.rounds; ++rep) {
    const auto t0 = Clock::now();
    plan.clear();
    for (std::size_t k = 0; k < kCampaignPlanChunk; ++k) {
      plan.push_back(campaignCall(args.seed, k));
    }
    setups.push_back(secondsBetween(t0, Clock::now()));
  }

  // The traced run times the same calls twice, untraced then traced, so
  // the overhead figure compares equal call mixes.
  std::vector<CallRecord> untraced;
  if (args.trace) {
    std::size_t first = 0;
    untraced = campaignCalls(args.seed, first, plan, args.seconds / 2);
  }
  std::size_t next = 0;
  std::vector<CallRecord> calls =
      campaignCalls(args.seed, next, plan, args.trace ? args.seconds / 2 : args.seconds);

  // Oracle pass (untimed): the same requests, solo, through a fresh
  // service per call list (so repeated calls never hit a warm cache).
  Tally scratch;
  if (!untraced.empty()) {
    service::AcceleratorService svc(serviceConfig(w));
    checkCalls(untraced, svc, scratch, nullptr);
  }
  if (scratch.mismatched > 0) out.correct = false;
  service::AcceleratorService svc(serviceConfig(w));
  Spans spans;
  checkCalls(calls, svc, out.tally, args.trace ? &spans : nullptr);
  service::ServiceStats delta;
  addStatsDelta(delta, service::ServiceStats{}, svc.stats());

  {
    Digest d;
    for (std::size_t i = 0; i < kCampaignMinCalls; ++i) {
      addToDigest(d.h, calls[i].bytes, calls[i].events, calls[i].opCount);
    }
    out.digest = d.h;
  }
  const Item& first = calls.front().item;
  std::vector<std::uint8_t> corrupt = calls.front().bytes;
  corrupt[corrupt.size() / 2] ^= 0x01;
  if (matchesOracle(first, corrupt, calls.front().events, calls.front().opCount)) {
    std::printf("gate self-test: FAILED (a corrupted byte passed the gate)\n");
    out.correct = false;
  } else {
    std::printf("gate self-test: one corrupted output byte trips the gate\n");
  }

  std::vector<double> ms;
  double spent = 0;
  std::size_t sloHits = 0;
  for (const CallRecord& c : calls) {
    ms.push_back(c.ms);
    spent += c.ms / 1000.0;
    if (c.ms <= w.sloMs) ++sloHits;
  }
  double untracedSpent = 0;
  for (const CallRecord& c : untraced) untracedSpent += c.ms / 1000.0;
  const double rps = double(calls.size()) / spent;
  out.endToEnd.push_back({"throughput_rps", rps, "req/s", calls.size(),
                          "sequential runAppDetailed calls"});
  latencyMetrics(out.endToEnd, ms, "per call");
  out.endToEnd.push_back({"slo_attainment", double(sloHits) / double(calls.size()),
                          "fraction", calls.size(),
                          "calls within " + std::to_string(int(w.sloMs)) + " ms"});
  qualityMetrics(out);
  out.endToEnd.push_back({"peak_rss_mb", peakRssMb("self"), "MB", 1,
                          "benchmark process"});
  commonEndToEnd(out, setups);

  if (replay != nullptr) {
    serviceLayerMetrics(out, spans, delta);
    out.layers.push_back({"loadgen.lag_p99_ms", 0, "ms", 0,
                          "sequential caller: no schedule", false});
    out.layers.push_back({"loadgen.offered_rps", 0, "req/s", 0,
                          "sequential caller: no schedule", false});
    std::vector<Item> replayed;
    for (std::size_t i = 0; i < std::min(kCampaignReplayCalls, calls.size()); ++i) {
      replayed.push_back(calls[i].item);
    }
    double unattributed = 0, e2e = 0;
    layerReplay(*replay, replayed, nullptr, false, out.tally, unattributed, e2e);
    replay->report(out.layers);
    fabricMetrics(out, replay->retries(), replay->respawns(), replay->timeouts(),
                  "replay fabric");
    const double untracedRps = double(untraced.size()) / untracedSpent;
    out.layers.push_back({"trace.overhead_pct",
                          100.0 * (untracedRps - rps) / untracedRps, "%", 2,
                          "untraced vs traced call throughput"});
    out.layers.push_back({"trace.unattributed_pct", 100.0 * unattributed / e2e,
                          "%", replayed.size(),
                          "call time outside layer self times"});
  }
  if (out.tally.mismatched > 0) out.correct = false;
  return out;
}

/// Per-layer metrics in the order the BENCHMARK.json lists them.
void sortLayers(std::vector<Metric>& layers) {
  static const std::vector<std::string> prefixOrder = {
      "service.", "reram.", "core.", "reliability.", "shard.", "apps.",
      "img.", "loadgen.", "trace."};
  auto rank = [](const Metric& m) {
    for (std::size_t i = 0; i < prefixOrder.size(); ++i) {
      if (m.name.rfind(prefixOrder[i], 0) == 0) return i;
    }
    return prefixOrder.size();
  };
  std::stable_sort(layers.begin(), layers.end(),
                   [&](const Metric& a, const Metric& b) { return rank(a) < rank(b); });
}

int run(const Args& args) {
  Workload w = makeWorkload(args.workload, args.seed);

  std::printf("aimsc perfbench: workload=%s seed=%llu seconds=%g trace=%d\n",
              w.name.c_str(), static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0);
  std::printf("host: %s\n", hostFingerprint().c_str());
  std::fflush(stdout);

  const auto cpu0 = cpuStealAndTotal();
  // The replay's shard workers fork first, while the process has one thread.
  std::unique_ptr<LayerReplay> replay;
  if (args.trace) replay = std::make_unique<LayerReplay>(4);

  RunOutcome out = w.campaign ? runCampaign(w, args, replay.get())
                              : runService(w, args, replay.get());

  std::printf("digest: %016llx (workload=%s seed=%llu; output bytes, event "
              "ledgers and op counts of the %s)\n",
              static_cast<unsigned long long>(out.digest), w.name.c_str(),
              static_cast<unsigned long long>(args.seed),
              w.campaign ? "first 16 calls" : "distinct items");
  const auto cpu1 = cpuStealAndTotal();
  if (cpu1.second > cpu0.second) {
    std::printf("host cpu steal during the run: %.1f%%\n",
                100.0 * (cpu1.first - cpu0.first) / (cpu1.second - cpu0.second));
  }
  const Tally& t = out.tally;
  std::printf("operations: attempted=%zu failed=%zu refused=%zu mismatched=%zu\n",
              t.attempted, t.failed, t.refused, t.mismatched);
  std::printf("end-to-end metrics%s:\n", args.trace ? " (traced run)" : "");
  printMetrics(out.endToEnd);
  if (args.trace) {
    sortLayers(out.layers);
    std::printf("per-layer metrics (value 0 in the result line = unavailable):\n");
    printMetrics(out.layers);
  }
  if (out.invalid) {
    std::printf("INVALID open-loop phase: %s\n", out.invalidWhy.c_str());
    return 3;
  }
  if (!out.correct) std::printf("CORRECTNESS GATE FAILED\n");

  std::vector<Metric> reported;
  for (const Metric& m : args.trace ? out.layers : out.endToEnd) {
    if (m.name != "failed_frac") reported.push_back(m);
  }
  printResult(out.correct, t.attempted, t.bad(), reported);
  return out.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Args args = perfbench::parseArgs(argc, argv);
  try {
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "aimsc_perfbench: %s\n", e.what());
    return 1;
  }
}
