#include <gtest/gtest.h>

#include <cstring>
#include <future>
#include <numeric>
#include <vector>

#include "mp/thread_comm.hpp"

namespace gpawfd::mp {
namespace {

std::span<const std::byte> bytes_of(const std::vector<int>& v) {
  return std::as_bytes(std::span<const int>(v));
}
std::span<std::byte> writable_bytes_of(std::vector<int>& v) {
  return std::as_writable_bytes(std::span<int>(v));
}

TEST(ThreadComm, PingPong) {
  ThreadWorld world(2);
  world.run([](ThreadComm& c) {
    std::vector<int> msg{1, 2, 3};
    std::vector<int> got(3);
    if (c.rank() == 0) {
      c.send(bytes_of(msg), 1, 7);
      c.recv(writable_bytes_of(got), 1, 8);
      EXPECT_EQ(got, (std::vector<int>{4, 5, 6}));
    } else {
      c.recv(writable_bytes_of(got), 0, 7);
      EXPECT_EQ(got, (std::vector<int>{1, 2, 3}));
      std::vector<int> reply{4, 5, 6};
      c.send(bytes_of(reply), 0, 8);
    }
  });
}

TEST(ThreadComm, RecvBeforeSendBlocksUntilMessage) {
  ThreadWorld world(2);
  world.run([](ThreadComm& c) {
    if (c.rank() == 0) {
      std::vector<int> got(1);
      c.recv(writable_bytes_of(got), 1, 0);  // posted before the send
      EXPECT_EQ(got[0], 99);
    } else {
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      std::vector<int> msg{99};
      c.send(bytes_of(msg), 0, 0);
    }
  });
}

TEST(ThreadComm, TagMatchingSelectsCorrectMessage) {
  ThreadWorld world(2);
  world.run([](ThreadComm& c) {
    if (c.rank() == 0) {
      std::vector<int> a{1}, b{2};
      c.send(bytes_of(a), 1, 10);
      c.send(bytes_of(b), 1, 20);
    } else {
      std::vector<int> got(1);
      c.recv(writable_bytes_of(got), 0, 20);  // out of arrival order
      EXPECT_EQ(got[0], 2);
      c.recv(writable_bytes_of(got), 0, 10);
      EXPECT_EQ(got[0], 1);
    }
  });
}

TEST(ThreadComm, FifoOrderWithinSameTag) {
  ThreadWorld world(2);
  world.run([](ThreadComm& c) {
    constexpr int kN = 100;
    if (c.rank() == 0) {
      for (int i = 0; i < kN; ++i) {
        std::vector<int> msg{i};
        c.send(bytes_of(msg), 1, 5);
      }
    } else {
      for (int i = 0; i < kN; ++i) {
        std::vector<int> got(1);
        c.recv(writable_bytes_of(got), 0, 5);
        EXPECT_EQ(got[0], i);
      }
    }
  });
}

TEST(ThreadComm, NonblockingOverlapAllDirections) {
  // The paper's key pattern: post all sends and receives, then wait.
  constexpr int kRanks = 8;
  ThreadWorld world(kRanks);
  world.run([](ThreadComm& c) {
    const int me = c.rank();
    std::vector<std::vector<int>> inbox(kRanks, std::vector<int>(1));
    std::vector<Request> reqs;
    for (int peer = 0; peer < kRanks; ++peer) {
      if (peer == me) continue;
      reqs.push_back(c.irecv(writable_bytes_of(inbox[peer]), peer, 1));
    }
    for (int peer = 0; peer < kRanks; ++peer) {
      if (peer == me) continue;
      std::vector<int> msg{me * 100 + peer};
      reqs.push_back(c.isend(bytes_of(msg), peer, 1));
    }
    c.wait_all(reqs);
    for (int peer = 0; peer < kRanks; ++peer) {
      if (peer != me) {
        EXPECT_EQ(inbox[peer][0], peer * 100 + me);
      }
    }
  });
}

TEST(ThreadComm, SendToSelf) {
  ThreadWorld world(1);
  world.run([](ThreadComm& c) {
    std::vector<int> msg{42}, got(1);
    Request r = c.irecv(writable_bytes_of(got), 0, 0);
    c.send(bytes_of(msg), 0, 0);
    c.wait(r);
    EXPECT_EQ(got[0], 42);
  });
}

TEST(ThreadComm, StatsCountBytesAndMessages) {
  ThreadWorld world(2);
  world.run([](ThreadComm& c) {
    std::vector<int> payload(256);
    if (c.rank() == 0) {
      c.send(bytes_of(payload), 1, 0);
      c.send(bytes_of(payload), 1, 0);
    } else {
      c.recv(writable_bytes_of(payload), 0, 0);
      c.recv(writable_bytes_of(payload), 0, 0);
    }
  });
  EXPECT_EQ(world.comm(0).stats().messages_sent.load(), 2);
  EXPECT_EQ(world.comm(0).stats().bytes_sent.load(), 2 * 256 * 4);
  EXPECT_EQ(world.comm(1).stats().bytes_received.load(), 2 * 256 * 4);
}

TEST(ThreadComm, MultipleModeAllowsConcurrentCallsFromOneRank) {
  // Four threads of rank 0 each exchange with the matching thread of
  // rank 1 — the hybrid-multiple pattern.
  ThreadWorld world(2, ThreadMode::kMultiple);
  world.run([](ThreadComm& c) {
    constexpr int kThreads = 4;
    std::vector<std::thread> ts;
    for (int t = 0; t < kThreads; ++t) {
      ts.emplace_back([&c, t] {
        std::vector<int> msg{t}, got(1);
        const int peer = 1 - c.rank();
        Request r = c.irecv(writable_bytes_of(got), peer, t);
        c.send(bytes_of(msg), peer, t);
        c.wait(r);
        EXPECT_EQ(got[0], t);
      });
    }
    for (auto& t : ts) t.join();
  });
}

TEST(ThreadComm, SingleModeRejectsSecondThread) {
  ThreadWorld world(1, ThreadMode::kSingle);
  world.run([](ThreadComm& c) {
    std::vector<int> msg{1}, got(1);
    Request r = c.irecv(writable_bytes_of(got), 0, 0);
    c.send(bytes_of(msg), 0, 0);
    c.wait(r);
    std::thread other([&c] {
      std::vector<int> m{2};
      EXPECT_THROW(c.send(bytes_of(m), 0, 1), gpawfd::Error);
    });
    other.join();
  });
}

TEST(ThreadComm, TooSmallReceiveBufferThrows) {
  ThreadWorld world(2);
  EXPECT_THROW(world.run([](ThreadComm& c) {
    if (c.rank() == 0) {
      std::vector<int> big(16);
      c.send(bytes_of(big), 1, 0);
    } else {
      std::vector<int> tiny(1);
      c.recv(writable_bytes_of(tiny), 0, 0);
    }
  }),
               gpawfd::Error);
}

// The receive is posted before the message arrives, so the match happens
// on the sender's side: the too-small buffer must fail the receiver's
// request (its wait() throws) instead of leaving it pending forever.
TEST(ThreadComm, TooSmallPostedReceiveFailsTheReceiver) {
  ThreadWorld world(2);
  std::promise<void> posted;
  std::shared_future<void> posted_future = posted.get_future().share();
  bool sender_returned = false;
  EXPECT_THROW(world.run([&](ThreadComm& c) {
    if (c.rank() == 0) {
      posted_future.wait();
      std::vector<int> big(16);
      c.send(bytes_of(big), 1, 0);
      sender_returned = true;
    } else {
      std::vector<int> tiny(1);
      Request r = c.irecv(writable_bytes_of(tiny), 0, 0);
      posted.set_value();
      c.wait(r);
    }
  }),
               gpawfd::Error);
  EXPECT_TRUE(sender_returned);  // the eager send itself completes
}

TEST(ThreadWorld, ExceptionInRankFunctionPropagates) {
  ThreadWorld world(4);
  EXPECT_THROW(world.run([](ThreadComm& c) {
    if (c.rank() == 2) throw gpawfd::Error("rank 2 failed");
  }),
               gpawfd::Error);
}

}  // namespace
}  // namespace gpawfd::mp
