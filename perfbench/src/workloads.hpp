/// \file workloads.hpp
/// \brief The benchmark's traffic model: the four named workloads, the
///        distinct traffic items they draw from, and the correctness gate
///        that holds every timed output to the one-shot oracle.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/runner.hpp"
#include "img/image.hpp"
#include "service/request.hpp"

namespace perfbench {

namespace apps = aimsc::apps;
namespace core = aimsc::core;
namespace img = aimsc::img;
namespace reram = aimsc::reram;
namespace reliability = aimsc::reliability;
namespace service = aimsc::service;

/// Fleet shape every workload uses (the service, the oracle and the replay
/// all build this fleet).
constexpr std::size_t kLanes = 4;
constexpr std::size_t kRowsPerTile = 4;
constexpr std::size_t kThreads = 4;

/// What a correct execution of an item must produce, byte for byte.
struct Expected {
  std::vector<std::uint8_t> bytes;
  reram::EventCounts events;
  std::uint64_t opCount = 0;
  double ssimPct = 0.0;
};

/// One distinct traffic item: the inputs a client sends (frames generated
/// from the workload seed) plus the oracle result its output must equal.
struct Item {
  std::string label;
  apps::AppKind app = apps::AppKind::Gamma;
  core::DesignKind design = core::DesignKind::SwScLfsr;
  service::TenantId tenant = 0;
  std::uint64_t seedNamespace = 0;
  std::uint64_t seed = 0;           ///< request seed inside the namespace
  std::uint64_t effectiveSeed = 0;  ///< namespaced seed (what runs)
  apps::RunConfig cfg;              ///< oracle config; cfg.seed = effectiveSeed
  img::Image src, aux1, aux2;
  service::OutputShape shape;
  Expected expected;

  /// False when the item carries a knob the service request cannot
  /// express (binary-CIM gate protection); such items are checked against
  /// the layer replay instead of a solo service run.
  bool serviceable() const {
    return cfg.bincimProtection == core::CimProtection::None;
  }
  std::size_t outPixels() const { return shape.width * shape.height; }

  /// The service request for this item writing into \p out.
  service::Request request(img::ImageSpan out) const;
};

struct Workload {
  std::string name;
  std::size_t shards = 0;       ///< 0 = in-process service
  bool campaign = false;        ///< sequential runAppDetailed calls, no service
  std::size_t window = 8;       ///< closed-loop tickets in flight
  double openLoopRps = 0.0;     ///< 0 = no open-loop phase
  double sloMs = 0.0;           ///< latency limit for slo_attainment
  std::size_t rounds = 3;       ///< fresh services (setups) per run
  std::vector<Item> items;      ///< distinct traffic items
  std::size_t replayStride = 1; ///< the traced run replays every k-th item
  std::vector<std::size_t> sequence;  ///< traffic order over `items`, cycled
};

/// The workload names, in the order the docs list them.
const std::vector<std::string>& workloadNames();

/// Builds workload \p name for \p seed: every frame, request draw and
/// fault configuration comes from the seed.  Oracles are NOT computed yet
/// (see computeOracle).  Throws std::invalid_argument on an unknown name.
Workload makeWorkload(const std::string& name, std::uint64_t seed);

/// Call \p index of the campaign-cold plan for \p seed (a fresh fault
/// configuration per call; tenant 0, no namespace).
Item campaignCall(std::uint64_t seed, std::size_t index);

/// Fills item.expected from apps::runAppDetailed on the matching fleet
/// (lanes 4, rowsPerTile 4, tenant namespace applied through the seed).
void computeOracle(Item& item);

/// The correctness gate: true when \p bytes / \p events / \p opCount equal
/// the item's oracle exactly.
bool matchesOracle(const Item& item, const std::vector<std::uint8_t>& bytes,
                   const reram::EventCounts& events, std::uint64_t opCount);
bool matchesOracle(const Item& item, const std::uint8_t* bytes,
                   const reram::EventCounts& events, std::uint64_t opCount);

/// Folds an item's verified output, ledger and op count into \p d.
void addToDigest(std::uint64_t& digest, const std::vector<std::uint8_t>& bytes,
                 const reram::EventCounts& events, std::uint64_t opCount);

/// Short metric key of a substrate ("reram_sc", "swsc_lfsr", ...).
const char* designKey(core::DesignKind design);

/// Generates the item's input frames the way runApp synthesizes its own
/// (from cfg.size and the namespaced seed).
void synthesizeFrames(Item& item);

/// The service seed-namespace mix (AcceleratorService::namespacedSeed):
/// the oracle runs the item at this seed.
std::uint64_t namespacedSeed(std::uint64_t ns, std::uint64_t seed);

}  // namespace perfbench
