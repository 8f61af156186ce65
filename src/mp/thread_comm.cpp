#include "mp/thread_comm.hpp"

#include <algorithm>
#include <cstring>
#include <exception>
#include <string>

namespace gpawfd::mp {

using detail::Envelope;
using detail::Mailbox;
using detail::PendingRecv;
using detail::ReqState;

ThreadWorld::ThreadWorld(int nranks, ThreadMode mode) : mode_(mode) {
  GPAWFD_CHECK(nranks >= 1);
  mailboxes_.reserve(nranks);
  comms_.reserve(nranks);
  for (int r = 0; r < nranks; ++r) {
    mailboxes_.push_back(std::make_unique<Mailbox>());
    comms_.push_back(std::unique_ptr<ThreadComm>(new ThreadComm(*this, r)));
  }
}

ThreadComm& ThreadWorld::comm(int rank) {
  GPAWFD_CHECK(rank >= 0 && rank < size());
  return *comms_[rank];
}

void ThreadWorld::run(const std::function<void(ThreadComm&)>& fn) {
  std::vector<std::thread> threads;
  std::mutex err_mu;
  std::exception_ptr first_error;
  threads.reserve(comms_.size());
  for (auto& c : comms_) {
    threads.emplace_back([&, comm_ptr = c.get()] {
      try {
        fn(*comm_ptr);
      } catch (...) {
        std::lock_guard lock(err_mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

int ThreadComm::size() const { return world_->size(); }

ThreadMode ThreadComm::thread_mode() const { return world_->thread_mode(); }

void ThreadComm::check_thread_mode() const {
  if (world_->thread_mode() == ThreadMode::kMultiple) return;
  // SINGLE: every call on this rank must come from one thread.
  const auto self = std::this_thread::get_id();
  if (bound_thread_ == std::thread::id{}) {
    bound_thread_ = self;
  } else {
    GPAWFD_CHECK_MSG(bound_thread_ == self,
                     "rank " << rank_
                             << ": concurrent communication in SINGLE "
                                "thread mode");
  }
}

Request ThreadComm::isend(std::span<const std::byte> buf, int dst, int tag) {
  check_thread_mode();
  GPAWFD_CHECK(dst >= 0 && dst < size());
  stats_.count_send(std::ssize(buf));

  Mailbox& box = world_->mailbox(dst);
  Envelope env{rank_, tag, std::vector<std::byte>(buf.begin(), buf.end())};

  std::unique_lock lock(box.mu);
  // Match a pending receive first (FIFO), otherwise park as unexpected.
  auto it = std::find_if(box.pending.begin(), box.pending.end(),
                         [&](const PendingRecv& p) {
                           return p.src == rank_ && p.tag == tag;
                         });
  if (it != box.pending.end()) {
    // A too-small buffer fails the *receive*, as MPI's truncation error
    // does: the posted request completes with an error that its wait()
    // throws, rather than staying pending with nobody left to finish it.
    ReqState& recv = *it->state;
    if (recv.recv_buf.size() >= env.payload.size()) {
      std::memcpy(recv.recv_buf.data(), env.payload.data(),
                  env.payload.size());
    } else {
      recv.error = "receive buffer too small: " +
                   std::to_string(recv.recv_buf.size()) + " < " +
                   std::to_string(env.payload.size());
    }
    recv.done.store(true, std::memory_order_release);
    box.pending.erase(it);
    lock.unlock();
    box.cv.notify_all();
  } else {
    box.unexpected.push_back(std::move(env));
  }

  // Buffered (eager) send: complete immediately.
  auto state = std::make_shared<ReqState>();
  state->done.store(true, std::memory_order_relaxed);
  return Request(std::move(state));
}

Request ThreadComm::irecv(std::span<std::byte> buf, int src, int tag) {
  check_thread_mode();
  GPAWFD_CHECK(src >= 0 && src < size());

  Mailbox& box = world_->mailbox(rank_);
  auto state = std::make_shared<ReqState>();
  state->mu = &box.mu;
  state->cv = &box.cv;

  std::lock_guard lock(box.mu);
  auto it = std::find_if(
      box.unexpected.begin(), box.unexpected.end(),
      [&](const Envelope& e) { return e.src == src && e.tag == tag; });
  if (it != box.unexpected.end()) {
    GPAWFD_CHECK_MSG(buf.size() >= it->payload.size(),
                     "receive buffer too small: " << buf.size() << " < "
                                                  << it->payload.size());
    std::memcpy(buf.data(), it->payload.data(), it->payload.size());
    stats_.count_recv(std::ssize(it->payload));
    box.unexpected.erase(it);
    state->done.store(true, std::memory_order_release);
  } else {
    state->recv_buf = buf;
    stats_.count_recv(std::ssize(buf));
    box.pending.push_back(PendingRecv{src, tag, state});
  }
  return Request(std::move(state));
}

void ThreadComm::wait(Request& req) {
  if (!req.valid()) return;
  ReqState* s = req.state();
  if (!s->done.load(std::memory_order_acquire)) {
    GPAWFD_CHECK(s->mu != nullptr);
    std::unique_lock lock(*s->mu);
    s->cv->wait(lock,
                [&] { return s->done.load(std::memory_order_acquire); });
  }
  if (!s->error.empty()) throw Error(s->error);
}

}  // namespace gpawfd::mp
