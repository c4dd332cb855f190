/// \file supervisor.hpp
/// \brief Worker lifecycle supervision: deadlines, retry with exponential
///        backoff + deterministic jitter, bounded respawn, heartbeats.
///
/// The `ShardSupervisor` sits between the coordinator and the raw
/// `ShardChannel`s and upgrades PR-8's "error, not hang" failure story to
/// "recover, then degrade, then error".  Per shard it runs the state
/// machine documented in docs/SHARDING.md:
///
///   healthy --fault--> retrying --respawn ok--> healthy
///                        |  (attempts / respawns / deadline exhausted)
///                        v
///                       dead  -> coordinator re-dispatches the shard's
///                                frames to survivors (degraded mode)
///
/// **Frames pipeline.**  Each shard keeps a FIFO of dispatches: start()
/// appends and sends, finish() joins the head.  A worker answers frames in
/// the order it reads them, so the channel's next reply always belongs to
/// the FIFO head; the coordinator may put several frames on one shard
/// before its first join (docs/SHARDING.md "Pipelined batches").
///
/// **Replay is byte-identical.**  The supervisor keeps every unanswered
/// frame; recovery respawns the worker and resends EVERY unanswered frame
/// of the shard, in order, byte for byte.  A worker's output is a pure
/// function of the frame (lane seeds, assignment and fleet shape all travel
/// in it; warm state is bit-preserving), so a replayed request produces the
/// reply the original would have — the shard determinism contract extends
/// over crashes.
///
/// **Retries are fault-free.**  The `ShardFaultPlan` is consulted only in
/// `start()` (the original dispatch); `finish()`'s recovery loop never
/// re-injects, so chaos runs converge within the retry budget unless the
/// environment genuinely keeps killing workers.
///
/// **Without a respawn factory** a shard can only retry in place, and only
/// after a failure that leaves the framing aligned: a complete reply frame
/// that failed decodeReply.  After a timeout or a broken stream the
/// position of the next reply is unknown (a late reply would be paired with
/// the wrong frame), so the shard is declared dead and its frames degrade
/// onto survivors.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "shard/fault_plan.hpp"
#include "shard/transport.hpp"
#include "shard/wire.hpp"

namespace aimsc::shard {

/// Retry/respawn budgets.  Backoff for retry r (1-based) is
/// `min(initialBackoff * multiplier^(r-1), maxBackoff)` plus a
/// deterministic jitter in [0, backoff/2) drawn from
/// `mix64(jitterSeed, shard, dispatch, r)` — no wall-clock randomness, so
/// two identical chaos runs sleep identically.
struct RetryPolicy {
  std::uint32_t maxAttempts = 4;  ///< original + up to 3 retries
  std::uint32_t maxRespawns = 8;  ///< per shard, lifetime budget
  std::chrono::milliseconds initialBackoff{2};
  double backoffMultiplier = 2.0;
  std::chrono::milliseconds maxBackoff{250};
  std::chrono::milliseconds totalDeadline{15000};  ///< per dispatch
  bool pingOnRespawn = true;  ///< verify a respawned worker before resend
  std::uint64_t jitterSeed = 0x5eedf00dULL;
};

/// Fabric-level counters (merged into ServiceStats by the service layer).
struct FabricStats {
  std::uint64_t retries = 0;         ///< recovery rounds (each replays the
                                     ///< shard's unanswered frames)
  std::uint64_t respawns = 0;        ///< workers killed and restarted
  std::uint64_t timeouts = 0;        ///< channel deadline expiries
  std::uint64_t garbageReplies = 0;  ///< frames that failed decodeReply
  std::uint64_t faultsInjected = 0;  ///< ShardFaultPlan strikes
  std::uint64_t deadShards = 0;      ///< shards declared dead (ever)
  std::uint64_t peakInflight = 0;    ///< most frames ever in flight on one
                                     ///< shard (a counter, not a knob)
};

/// A shard exhausted its retry/respawn/deadline budget and is dead.  The
/// coordinator catches this and re-dispatches the dead shard's frames to a
/// survivor (graceful degradation); a caller with no survivors left
/// propagates it as the request error.
class ShardDead : public std::runtime_error {
 public:
  ShardDead(std::size_t shard, const std::string& why)
      : std::runtime_error("shard " + std::to_string(shard) +
                           " is dead: " + why),
        shard_(shard) {}
  std::size_t shard() const { return shard_; }

 private:
  std::size_t shard_;
};

class ShardSupervisor {
 public:
  /// Builds a fresh replacement channel when a worker must be respawned.
  /// A null factory disables respawning: only an aligned failure (a garbage
  /// reply frame) is retried in place; any other failure marks the shard
  /// dead.
  using ChannelFactory = std::function<std::unique_ptr<ShardChannel>()>;

  ShardSupervisor(std::vector<std::unique_ptr<ShardChannel>> channels,
                  ChannelFactory respawn, RetryPolicy policy = {},
                  ShardFaultPlan faults = {});

  std::size_t shardCount() const { return shards_.size(); }
  bool dead(std::size_t shard) const { return shards_.at(shard).dead; }
  const FabricStats& stats() const { return stats_; }
  const RetryPolicy& policy() const { return policy_; }

  /// Appends \p frame to \p shard's FIFO and sends it: evaluates the fault
  /// plan (original dispatch only), keeps the frame for replay, sends.
  /// Never blocks on recovery — a failed send marks the shard's stream
  /// broken and the next finish() recovers it, so the coordinator's fan-out
  /// stays pipelined.  Frames already in flight stay in flight.  Throws
  /// ShardDead only if the shard is already dead (callers check dead()).
  void start(std::size_t shard, std::vector<std::uint8_t> frame);

  /// Joins the OLDEST frame in flight on \p shard (the FIFO head), driving
  /// the full recovery loop: receive -> on timeout/garbage/death: kill,
  /// backoff, respawn, ping, replay every unanswered frame in order ->
  /// until a decoded Result reply for the head or the budget runs out
  /// (-> marks the shard dead and throws ShardDead; the unanswered frames
  /// are then available from takeOrphans()).  An `ok == false` reply is
  /// returned as-is: it is a deterministic execution failure and retrying
  /// it would yield the same bytes.  The joined frame is freed.
  WireReply finish(std::size_t shard);

  /// One-shot dispatch (start + finish) on a shard with nothing in flight.
  WireReply roundTrip(std::size_t shard, std::vector<std::uint8_t> frame);

  /// The frames that were in flight on \p shard when it died, in dispatch
  /// order, moved out (a second call returns none).  The coordinator
  /// re-dispatches them to survivors.
  std::vector<std::vector<std::uint8_t>> takeOrphans(std::size_t shard);

  /// Heartbeat: sends Ping and returns the worker's served-frame count, or
  /// nullopt if the worker failed to Pong within the recv deadline (no
  /// retry, no state change — callers decide what a missed beat means).
  std::optional<std::uint64_t> heartbeat(std::size_t shard);

  /// The live channel behind \p shard (single-threaded introspection only;
  /// NOT for sending — that would desync the frame pairing).
  ShardChannel& channel(std::size_t shard) {
    return *shards_.at(shard).channel;
  }

  /// Thread-safe snapshot of the shard's current worker pid (-1 for
  /// in-process workers or dead shards).  The ONE supervisor entry point
  /// that may be called from another thread — chaos tests' kill -9 threads
  /// read it while the dispatcher thread is mid-respawn, when touching
  /// channel() would race the unique_ptr swap.
  int workerPid(std::size_t shard) const {
    return shards_.at(shard).pid->load(std::memory_order_relaxed);
  }

 private:
  /// One frame in flight: its bytes (kept for replay) and original ordinal.
  struct Dispatch {
    std::vector<std::uint8_t> frame;
    std::uint64_t index = 0;  ///< per-shard original dispatch ordinal
    std::chrono::steady_clock::time_point started;
  };

  struct ShardState {
    std::unique_ptr<ShardChannel> channel;
    /// Concurrent-read pid mirror of `channel` (see workerPid()); behind a
    /// unique_ptr so ShardState stays movable.
    std::unique_ptr<std::atomic<int>> pid =
        std::make_unique<std::atomic<int>>(-1);
    /// Unanswered frames, oldest first.  While `broken` is false the
    /// channel owes exactly these replies, in this order.
    std::deque<Dispatch> inflight;
    /// A send or receive failed, or a drop fault cut the connection: the
    /// stream's state is unknown and the next finish() recovers before it
    /// reads.
    bool broken = false;
    std::vector<std::vector<std::uint8_t>> orphans;  ///< frames of a death
    std::uint64_t dispatches = 0;
    std::uint32_t respawns = 0;
    bool dead = false;
  };

  /// Brings \p shard's channel to an empty stream (respawn, or drain in
  /// place after an \p aligned failure when there is no factory) so every
  /// unanswered frame can be replayed; false (shard marked dead) when that
  /// is impossible.
  [[nodiscard]] bool recover(std::size_t shard, bool aligned);
  void markDead(std::size_t shard);
  std::chrono::milliseconds backoffFor(std::size_t shard,
                                       std::uint64_t dispatch,
                                       std::uint32_t retry) const;

  std::vector<ShardState> shards_;
  ChannelFactory respawn_;
  RetryPolicy policy_;
  ShardFaultPlan faults_;
  FabricStats stats_;
};

/// Spawns \p count workers of \p kind under a supervisor whose respawn
/// factory creates more of the same (the standard fabric construction).
std::unique_ptr<ShardSupervisor> makeSupervisedFabric(
    ShardTransportKind kind, std::size_t count, ChannelDeadlines deadlines = {},
    RetryPolicy policy = {}, ShardFaultPlan faults = {});

}  // namespace aimsc::shard
