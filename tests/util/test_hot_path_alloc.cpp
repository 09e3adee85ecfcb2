// Heap-allocation budget of the per-cycle and per-job paths.
//
// This binary replaces the global operator new/delete with counting
// versions, so it is kept apart from every other test binary.  A passing
// precondition check, a FIFO push or a unit-table lookup runs many times per
// simulated cycle; none of them may touch the heap.  Diagnostic text is built
// only when a check fails.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>
#include <vector>

#include "host/coprocessor.hpp"
#include "host/driver.hpp"
#include "host/reliable_transport.hpp"
#include "isa/assembler.hpp"
#include "rtm/lock_manager.hpp"
#include "rtm/register_file.hpp"
#include "top/system.hpp"
#include "util/error.hpp"
#include "util/ring_buffer.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}

}  // namespace

// The array and nothrow forms of the default library forward to these two.
void* operator new(std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace fpgafu {
namespace {

/// Heap allocations made while running `f`.
template <typename F>
std::uint64_t allocations_during(F&& f) {
  const std::uint64_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// Keeps the compiler from folding a check's condition to a constant.
volatile bool g_true = true;

TEST(HotPathAlloc, CounterSeesAllocations) {
  // Guard against a silently inactive replacement: a heap-sized string
  // must register.
  const std::uint64_t n = allocations_during([] {
    std::string s(64, 'x');
    ASSERT_EQ(s.size(), 64u);
  });
  EXPECT_GE(n, 1u);
}

TEST(HotPathAlloc, PassingCheckDoesNotAllocate) {
  // Longer than the 15-character small-string buffer.
  const std::uint64_t n = allocations_during([] {
    for (int i = 0; i < 100; ++i) {
      check(g_true, "a passing precondition with a long message");
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST(HotPathAlloc, RingBufferPushFrontPop) {
  RingBuffer<std::uint64_t> rb(4);
  const std::uint64_t n = allocations_during([&] {
    for (std::uint64_t i = 0; i < 100; ++i) {
      rb.push(i);
      ASSERT_EQ(rb.front(), i);
      ASSERT_EQ(rb.pop(), i);
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST(HotPathAlloc, UnitTableLookups) {
  top::System sys({});
  const rtm::FunctionalUnitTable& table = sys.rtm().table();
  ASSERT_GT(table.size(), 0u);
  const isa::FunctionCode code = table.code(0);
  const std::uint64_t n = allocations_during([&] {
    for (int i = 0; i < 100; ++i) {
      const std::uint32_t index = table.index_of(code);
      ASSERT_EQ(&table.unit(index), &table.unit(0));
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST(HotPathAlloc, LockManagerLockUnlock) {
  rtm::LockManager locks(16, 4);
  const std::uint64_t n = allocations_during([&] {
    for (int i = 0; i < 100; ++i) {
      locks.lock_data(3, 1);
      locks.lock_flag(2, 1);
      locks.unlock_data(3);
      locks.unlock_flag(2);
    }
  });
  EXPECT_EQ(n, 0u);
  EXPECT_FALSE(locks.data_locked(3));
}

TEST(HotPathAlloc, RegisterFileReadWrite) {
  rtm::RegisterFile regs(16, 64);
  rtm::FlagRegisterFile flags(4);
  const std::uint64_t n = allocations_during([&] {
    for (isa::Word i = 0; i < 100; ++i) {
      regs.write(5, i);
      ASSERT_EQ(regs.read(5), i);
      flags.write(1, static_cast<isa::FlagWord>(i & 0xf));
      ASSERT_EQ(flags.read(1), static_cast<isa::FlagWord>(i & 0xf));
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST(HotPathAlloc, FlushOnDrainedQueue) {
  top::System sys({});
  host::Coprocessor copro(sys);
  const std::uint64_t n = allocations_during([&] {
    for (int i = 0; i < 100; ++i) {
      copro.pump().flush(host::Deadline::unbounded(sys.simulator()),
                         "Coprocessor::submit_word");
    }
  });
  EXPECT_EQ(n, 0u);
}

TEST(HotPathAlloc, TinyJobStreamStaysUnderBudget) {
  // 400 PUT/ADD/GET jobs through System + Coprocessor.  The programs are
  // assembled before counting starts.  What is left is the one response
  // vector each call returns: the driver's and the link's word queues
  // reuse their buffers (util::SlidingQueue), where std::deque chunk
  // turnover used to add about 175 more.
  constexpr int kJobs = 400;
  top::System sys({});
  host::Coprocessor copro(sys);
  std::vector<isa::Program> jobs;
  for (int i = 0; i < kJobs; ++i) {
    jobs.push_back(isa::Assembler::assemble(
        "PUT r1, #" + std::to_string(1000 + i) + "\nADD r2, r1, r1\nGET r2\n"));
  }
  copro.call(jobs.front());  // first use sizes the host queues

  std::vector<isa::Word> got;
  got.reserve(kJobs);
  const std::uint64_t start = sys.simulator().cycle();
  const std::uint64_t n = allocations_during([&] {
    for (const isa::Program& p : jobs) {
      got.push_back(copro.call(p).front().payload);
    }
  });
  const std::uint64_t cycles = sys.simulator().cycle() - start;

  for (int i = 0; i < kJobs; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)],
              2u * static_cast<isa::Word>(1000 + i));
  }
  ASSERT_GT(cycles, 0u);
  EXPECT_LE(n, static_cast<std::uint64_t>(kJobs))
      << n << " allocations over " << cycles << " simulated cycles";
}

TEST(HotPathAlloc, WindowedSubmitStreamStaysUnderBudget) {
  // 400 PUT/ADD/GET jobs through a window-4 ReliableTransport, each job a
  // one-member frame on its own register pair.  A frame allocates its
  // word, group, prediction and member-range lists, its slot and member
  // state, the read's response list and the completion, plus the window
  // deques' chunks: 3 387 for 392 jobs, about 8.64 per job (with one word
  // list per group it was 3 714).  No per-call item, program or id lists.
  constexpr int kJobs = 400;
  top::System sys({});
  host::Coprocessor copro(sys);
  host::TransportConfig tcfg;
  tcfg.window = 4;
  host::ReliableTransport transport(copro, tcfg);
  std::vector<isa::Program> jobs;
  for (int i = 0; i < kJobs; ++i) {
    std::string a = "r";
    a += std::to_string(1 + 2 * (i % 8));
    std::string b = "r";
    b += std::to_string(2 + 2 * (i % 8));
    jobs.push_back(isa::Assembler::assemble(
        "PUT " + a + ", #" + std::to_string(1000 + i) + "\nADD " + b + ", " +
        a + ", " + a + "\nGET " + b));
  }
  std::vector<isa::Word> got(kJobs);
  host::ReliableTransport::ProgramId first_id = 0;
  const auto run = [&](std::size_t first, std::size_t last) {
    std::size_t next = first;
    std::size_t done = first;
    copro.pump().run_until(
        [&] {
          while (next < last && !transport.window_full()) {
            const auto id = transport.submit(jobs[next]);
            if (next++ == 0) {
              first_id = id;
            }
          }
          transport.service();
          while (auto c = transport.poll_completed()) {
            got[c->id - first_id] = c->responses.front().payload;
            ++done;
          }
          return done == last;
        },
        host::Deadline::unbounded(sys.simulator()), "windowed stream");
  };
  run(0, 8);  // first use sizes the host queues
  const std::uint64_t start = sys.simulator().cycle();
  const std::uint64_t n = allocations_during([&] { run(8, kJobs); });
  const std::uint64_t cycles = sys.simulator().cycle() - start;
  for (int i = 0; i < kJobs; ++i) {
    ASSERT_EQ(got[static_cast<std::size_t>(i)],
              2u * static_cast<isa::Word>(1000 + i));
  }
  EXPECT_LE(n, 87u * static_cast<std::uint64_t>(kJobs - 8) / 10)
      << n << " allocations over " << cycles << " simulated cycles";
}

}  // namespace
}  // namespace fpgafu
