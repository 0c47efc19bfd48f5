// Shard worker for distributed campaign replay.
//
// A worker owns a contiguous range of VM slots and stages their hours
// with campaign_runner::stage_shard_hour — a pure function of the
// deploy-time immutable state plus the hour, which is what makes workers
// interchangeable: a respawned replacement stages byte-identical records
// for any hour, so failover never shows in the output.
//
// Workers are fork()ed, not exec()ed: the deployed campaign (topology,
// sessions, fault plan) arrives by copy-on-write instead of being
// re-deployed per process. Two fork rules shape this code:
//   * pool threads do not survive fork, so the worker path is strictly
//     serial (stage_shard_hour never touches the pool);
//   * the child must leave via _exit — flushing streams inherited from
//     the parent (the campaign WAL, log sinks) would interleave parent
//     buffers into parent files.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>

#include "clasp/campaign.hpp"
#include "dist/channel.hpp"

namespace clasp::dist {

// The slice of the campaign one worker serves: VM slots
// [slot_begin, slot_end) for every hour in [start, stop).
struct shard_assignment {
  std::uint32_t shard{0};
  std::size_t slot_begin{0};
  std::size_t slot_end{0};
  hour_stamp start{hour_stamp{0}};
  hour_stamp stop{hour_stamp{0}};
};

// Deterministic fault injection for the kill-point sweep. Each knob
// names the hour (hours since epoch) at which the fault fires; -1
// disables it. Frame-level knobs fire once, then the worker behaves —
// the retry after a resend request must succeed.
struct worker_chaos {
  std::int64_t exit_at_barrier{-1};  // die right before sending the group
  std::int64_t exit_mid_group{-1};   // send half a frame, then die
  std::int64_t bad_crc_frame{-1};    // frame CRC wrong once (channel damage)
  std::int64_t corrupt_group{-1};    // record bytes damaged once, frame
                                     // CRC valid (payload damage)
  std::int64_t hang_at_hour{-1};     // stop responding without exiting
};

// Serve one shard over `ch` until the range is done, the coordinator
// says stop, or the channel dies. Returns a process exit code: 0 for a
// clean finish or stop, nonzero when the channel failed.
int worker_serve(campaign_runner& campaign, byte_channel& ch,
                 const shard_assignment& assignment,
                 const worker_chaos& chaos = {});

// One fork()ed worker process as the coordinator sees it.
struct spawned_worker {
  pid_t pid{-1};
  std::unique_ptr<fd_channel> channel;  // coordinator's end
};

// fork() a worker serving `assignment` over a fresh socketpair. The
// child closes every descriptor but stdio and its channel end, runs
// worker_serve and _exits; the parent gets the pid and its channel end.
// Throws state_error when the socketpair or fork fails.
spawned_worker spawn_worker(campaign_runner& campaign,
                            const shard_assignment& assignment,
                            const worker_chaos& chaos = {});

}  // namespace clasp::dist
