#include "shard/supervisor.hpp"

#include <algorithm>
#include <thread>
#include <utility>

namespace aimsc::shard {

namespace {

/// One Ping/Pong exchange on a channel with NO in-flight Execute (anything
/// else would desync the frame pairing).  Any failure — send, deadline,
/// decode, wrong kind — reads as a missed beat.
std::optional<std::uint64_t> heartbeatOn(ShardChannel& ch) {
  try {
    ch.send(encodePing());
    const WireReply reply = decodeReply(ch.receive());
    if (reply.kind != ReplyKind::Pong) return std::nullopt;
    return reply.served;
  } catch (const std::exception&) {
    return std::nullopt;
  }
}

}  // namespace

ShardSupervisor::ShardSupervisor(
    std::vector<std::unique_ptr<ShardChannel>> channels, ChannelFactory respawn,
    RetryPolicy policy, ShardFaultPlan faults)
    : respawn_(std::move(respawn)), policy_(policy), faults_(faults) {
  if (channels.empty()) {
    throw std::invalid_argument("ShardSupervisor: no channels");
  }
  shards_.resize(channels.size());
  for (std::size_t s = 0; s < channels.size(); ++s) {
    if (channels[s] == nullptr) {
      throw std::invalid_argument("ShardSupervisor: null channel");
    }
    shards_[s].channel = std::move(channels[s]);
    shards_[s].pid->store(shards_[s].channel->workerPid(),
                          std::memory_order_relaxed);
  }
}

void ShardSupervisor::start(std::size_t shard, std::vector<std::uint8_t> frame) {
  ShardState& st = shards_.at(shard);
  if (st.dead) throw ShardDead(shard, "dispatch to a dead shard");
  Dispatch& d = st.inflight.emplace_back();
  d.frame = std::move(frame);
  d.index = st.dispatches++;
  d.started = std::chrono::steady_clock::now();
  stats_.peakInflight =
      std::max<std::uint64_t>(stats_.peakInflight, st.inflight.size());

  // Chaos strikes ONLY here, at the original dispatch — finish()'s
  // recovery loop never re-consults the plan, so retries are fault-free
  // and bounded recovery always converges.  On a stream that is already
  // broken the strike is counted but moot: recovery replays this frame.
  bool dropAtRecv = false;
  if (const auto site = faults_.faultFor(shard, d.index)) {
    ++stats_.faultsInjected;
    if (!st.broken) {
      switch (*site) {
        case FaultSite::DropAtSend:
          st.channel->terminate();  // the send below fails into recovery
          break;
        case FaultSite::DropAtRecv:
          dropAtRecv = true;
          break;
        case FaultSite::CrashBeforeReply:
        case FaultSite::HangBeforeReply:
        case FaultSite::GarbageReply:
          try {
            st.channel->send(encodeMisbehave(workerFaultFor(*site)));
          } catch (const std::exception&) {
            st.broken = true;
          }
          break;
      }
    }
  }
  if (!st.broken) {
    try {
      st.channel->send(d.frame);
    } catch (const std::exception&) {
      st.broken = true;
    }
  }
  if (dropAtRecv && !st.broken) {
    // The frame went out; the connection dies before the reply comes back.
    st.channel->terminate();
    st.broken = true;
  }
}

WireReply ShardSupervisor::finish(std::size_t shard) {
  ShardState& st = shards_.at(shard);
  if (st.dead) throw ShardDead(shard, "join on a dead shard");
  if (st.inflight.empty()) {
    throw std::logic_error("ShardSupervisor: finish with nothing in flight");
  }
  const Dispatch& head = st.inflight.front();
  std::uint32_t attempt = 1;
  std::string lastError = "send failed at dispatch";
  for (;;) {
    // A complete frame that failed to decode leaves the framing aligned:
    // the replies still owed behind it arrive intact.
    bool aligned = false;
    if (!st.broken) {
      try {
        WireReply reply = decodeReply(st.channel->receive());
        if (reply.kind != ReplyKind::Result) {
          throw DecodeError("Pong where a Result was expected");
        }
        // ok == false is a DETERMINISTIC execution failure — replaying the
        // same frame yields the same error, so it is returned, not retried.
        st.inflight.pop_front();
        return reply;
      } catch (const ChannelTimeout& e) {
        ++stats_.timeouts;
        lastError = e.what();
      } catch (const DecodeError& e) {
        ++stats_.garbageReplies;
        lastError = e.what();
        aligned = true;
      } catch (const std::exception& e) {
        lastError = e.what();
      }
      st.broken = true;
    }

    if (attempt >= policy_.maxAttempts) {
      markDead(shard);
      throw ShardDead(shard, "attempt budget exhausted (" + lastError + ")");
    }
    if (std::chrono::steady_clock::now() - head.started >=
        policy_.totalDeadline) {
      markDead(shard);
      throw ShardDead(shard, "total deadline exceeded (" + lastError + ")");
    }

    const std::uint32_t retry = attempt;  // 1-based retry ordinal
    ++attempt;
    std::this_thread::sleep_for(backoffFor(shard, head.index, retry));
    if (!recover(shard, aligned)) {
      throw ShardDead(shard, std::string(respawn_ ? "respawn budget exhausted"
                                                  : "no factory to respawn") +
                                 " (" + lastError + ")");
    }
    ++stats_.retries;
    try {
      // Byte-identical replay of every unanswered frame, in order.
      for (const Dispatch& d : st.inflight) st.channel->send(d.frame);
      st.broken = false;
    } catch (const std::exception& e) {
      lastError = e.what();  // burns another attempt next iteration
    }
  }
}

WireReply ShardSupervisor::roundTrip(std::size_t shard,
                                     std::vector<std::uint8_t> frame) {
  if (!shards_.at(shard).inflight.empty()) {
    throw std::logic_error("ShardSupervisor: roundTrip behind frames in "
                           "flight would join the wrong frame");
  }
  start(shard, std::move(frame));
  return finish(shard);
}

std::vector<std::vector<std::uint8_t>> ShardSupervisor::takeOrphans(
    std::size_t shard) {
  return std::exchange(shards_.at(shard).orphans, {});
}

std::optional<std::uint64_t> ShardSupervisor::heartbeat(std::size_t shard) {
  ShardState& st = shards_.at(shard);
  if (st.dead) return std::nullopt;
  if (!st.inflight.empty()) {
    throw std::logic_error("ShardSupervisor: heartbeat with a dispatch in "
                           "flight would desync the frame pairing");
  }
  return heartbeatOn(*st.channel);
}

bool ShardSupervisor::recover(std::size_t shard, bool aligned) {
  ShardState& st = shards_[shard];
  if (!respawn_) {
    // No factory: retry in place, which needs the channel to owe nothing.
    // Only an aligned failure on a healthy channel gets there — drain the
    // replies still owed behind the head (they are replayed anyway).  After
    // a timeout the late reply would pair with the next frame, so that
    // case, like a broken stream, ends the shard.
    bool drained = aligned && st.channel->healthy();
    for (std::size_t i = 1; drained && i < st.inflight.size(); ++i) {
      try {
        (void)st.channel->receive();
      } catch (const std::exception&) {
        drained = false;
      }
    }
    if (drained) return true;
    markDead(shard);
    return false;
  }
  if (st.respawns >= policy_.maxRespawns) {
    markDead(shard);
    return false;
  }
  st.channel->terminate();  // SIGKILL — the answer to hung AND dead alike
  st.pid->store(-1, std::memory_order_relaxed);
  st.channel = respawn_();
  st.pid->store(st.channel->workerPid(), std::memory_order_relaxed);
  ++st.respawns;
  ++stats_.respawns;
  if (policy_.pingOnRespawn && !heartbeatOn(*st.channel)) {
    // The newborn failed its first beat.  The channel exists, so let the
    // resend fail naturally and burn an attempt — no special casing.
  }
  return true;
}

void ShardSupervisor::markDead(std::size_t shard) {
  ShardState& st = shards_[shard];
  if (!st.dead) {
    st.dead = true;
    ++stats_.deadShards;
  }
  for (Dispatch& d : st.inflight) st.orphans.push_back(std::move(d.frame));
  st.inflight.clear();
  st.broken = false;
  st.channel->terminate();
  st.pid->store(-1, std::memory_order_relaxed);
}

std::chrono::milliseconds ShardSupervisor::backoffFor(
    std::size_t shard, std::uint64_t dispatch, std::uint32_t retry) const {
  double ms = static_cast<double>(policy_.initialBackoff.count());
  for (std::uint32_t i = 1; i < retry; ++i) ms *= policy_.backoffMultiplier;
  ms = std::min(ms, static_cast<double>(policy_.maxBackoff.count()));
  const auto base = static_cast<std::int64_t>(ms);
  // Deterministic jitter in [0, base/2]: same run, same sleeps.
  const std::uint64_t key =
      reliability::faultSiteKey(policy_.jitterSeed, shard, dispatch, retry);
  const std::int64_t jitter =
      base >= 2 ? static_cast<std::int64_t>(key % (base / 2 + 1)) : 0;
  return std::chrono::milliseconds(base + jitter);
}

std::unique_ptr<ShardSupervisor> makeSupervisedFabric(ShardTransportKind kind,
                                                      std::size_t count,
                                                      ChannelDeadlines deadlines,
                                                      RetryPolicy policy,
                                                      ShardFaultPlan faults) {
  auto channels = makeShardChannels(kind, count, deadlines);
  ShardSupervisor::ChannelFactory factory = [kind, deadlines]() {
    return std::move(makeShardChannels(kind, 1, deadlines).front());
  };
  return std::make_unique<ShardSupervisor>(std::move(channels),
                                           std::move(factory), policy, faults);
}

}  // namespace aimsc::shard
