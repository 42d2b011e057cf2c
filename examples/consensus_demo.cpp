// Consensus from transactions: leader election among N threads using
// Algorithm 1 of the paper (fo-consensus from an OFTM) with retry — a
// direct, runnable rendition of Section 4's equivalence machinery.
//
//   ./consensus_demo [backend] [threads]
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "foc/foc_from_tm.hpp"
#include "runtime/barrier.hpp"
#include "workload/factory.hpp"

int main(int argc, char** argv) {
  const std::string backend = argc > 1 ? argv[1] : "dstm";
  const int threads = argc > 2 ? std::atoi(argv[2]) : 8;
  constexpr int kRounds = 1000;

  auto tm =
      oftm::workload::make_tm_cli(backend, static_cast<std::size_t>(kRounds));
  if (!tm) return 2;  // unknown recipe; the factory printed the list

  std::vector<std::uint64_t> elected(static_cast<std::size_t>(kRounds), 0);
  std::vector<std::uint64_t> wins(static_cast<std::size_t>(threads), 0);
  std::vector<std::uint64_t> retries(static_cast<std::size_t>(threads), 0);
  oftm::runtime::SpinBarrier barrier(static_cast<std::uint32_t>(threads));

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      barrier.arrive_and_wait();
      for (int round = 0; round < kRounds; ++round) {
        // One fo-consensus instance per round: t-variable `round` is V.
        oftm::foc::FocFromTm foc(*tm,
                                 static_cast<oftm::core::TVarId>(round));
        // propose my id; retry on ⊥ (each retry is a fresh transaction
        // T_{i,k} — the k counter of Algorithm 1).
        for (;;) {
          const auto r =
              foc.propose(static_cast<std::uint64_t>(t) + 1);
          if (r.has_value()) {
            if (t == 0) elected[static_cast<std::size_t>(round)] = *r;
            if (*r == static_cast<std::uint64_t>(t) + 1) {
              ++wins[static_cast<std::size_t>(t)];
            }
            break;
          }
          ++retries[static_cast<std::size_t>(t)];
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  // Verify: every round elected exactly one leader in range, and thread 0's
  // view matches the win counts.
  std::uint64_t total_wins = 0;
  for (int t = 0; t < threads; ++t) total_wins += wins[static_cast<std::size_t>(t)];
  bool ok = total_wins == kRounds;
  for (int round = 0; round < kRounds && ok; ++round) {
    const std::uint64_t leader = elected[static_cast<std::size_t>(round)];
    ok = leader >= 1 && leader <= static_cast<std::uint64_t>(threads);
  }

  std::uint64_t total_retries = 0;
  std::printf("backend: %s — %d threads, %d election rounds\n",
              tm->name().c_str(), threads, kRounds);
  for (int t = 0; t < threads; ++t) {
    total_retries += retries[static_cast<std::size_t>(t)];
    std::printf("  thread %d: %llu wins, %llu aborted proposes\n", t,
                static_cast<unsigned long long>(
                    wins[static_cast<std::size_t>(t)]),
                static_cast<unsigned long long>(
                    retries[static_cast<std::size_t>(t)]));
  }
  std::printf("agreement/validity: %s (total retries: %llu)\n",
              ok ? "OK" : "VIOLATED",
              static_cast<unsigned long long>(total_retries));
  return ok ? 0 : 1;
}
