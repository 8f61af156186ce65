// In-process message passing: every rank is a host thread, messages move
// through per-rank mailboxes with MPI-style (source, tag) FIFO matching.
// This is the functional transport — it moves real bytes, so the whole
// distributed engine can be validated numerically on one machine.
#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "mp/comm.hpp"
#include "trace/stats.hpp"

namespace gpawfd::mp {

namespace detail {

struct ReqState {
  std::mutex* mu = nullptr;              // owning mailbox mutex
  std::condition_variable* cv = nullptr; // owning mailbox cv
  std::atomic<bool> done{false};
  std::span<std::byte> recv_buf;  // valid for pending receives
  std::string error;  // set before `done` when the receive failed
};

struct Envelope {
  int src;
  int tag;
  std::vector<std::byte> payload;
};

struct PendingRecv {
  int src;
  int tag;
  std::shared_ptr<ReqState> state;
};

/// One rank's incoming-message queue. Unexpected messages and pending
/// receives are matched in FIFO order, as MPI requires.
struct Mailbox {
  std::mutex mu;
  std::condition_variable cv;
  std::deque<Envelope> unexpected;
  std::deque<PendingRecv> pending;
};

}  // namespace detail

class ThreadWorld;

/// Communicator endpoint for one rank of a ThreadWorld.
class ThreadComm final : public Comm {
 public:
  int rank() const override { return rank_; }
  int size() const override;

  Request isend(std::span<const std::byte> buf, int dst, int tag) override;
  Request irecv(std::span<std::byte> buf, int src, int tag) override;
  void wait(Request& req) override;

  ThreadMode thread_mode() const;
  /// Bytes/messages this rank has sent (for the Fig. 6 right axis).
  const trace::CommStats& stats() const { return stats_; }

 private:
  friend class ThreadWorld;
  ThreadComm(ThreadWorld& world, int rank) : world_(&world), rank_(rank) {}

  void check_thread_mode() const;

  ThreadWorld* world_;
  int rank_;
  trace::CommStats stats_;
  mutable std::thread::id bound_thread_{};  // SINGLE-mode enforcement
};

/// A fixed-size set of ranks living in one process. Construct, then call
/// run() with the per-rank main function; run() joins all rank threads.
class ThreadWorld {
 public:
  explicit ThreadWorld(int nranks, ThreadMode mode = ThreadMode::kMultiple);

  int size() const { return static_cast<int>(comms_.size()); }
  ThreadMode thread_mode() const { return mode_; }

  /// Access a rank's communicator (valid for the lifetime of the world).
  ThreadComm& comm(int rank);

  /// Spawn one thread per rank running fn(comm) and join them all.
  /// Exceptions thrown by rank functions are rethrown (first one wins).
  void run(const std::function<void(ThreadComm&)>& fn);

 private:
  friend class ThreadComm;
  detail::Mailbox& mailbox(int rank) { return *mailboxes_[rank]; }

  ThreadMode mode_;
  std::vector<std::unique_ptr<detail::Mailbox>> mailboxes_;
  std::vector<std::unique_ptr<ThreadComm>> comms_;
};

}  // namespace gpawfd::mp
