//===- verify/ParallelChecker.cpp - Multi-worker exhaustive search ---------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The exhaustive phase behind CheckerConfig::NumThreads >= 2
/// (docs/PARALLEL.md has the design argument): W copies of the undo-log
/// DFS core (detail::UndoDfs) over one shared ShardedVisited — the
/// shared-hash-table multi-core DFS of LTSmin (Laarman, van de Pol and
/// Weber, FMCAD 2010) on this checker's one search core.
///
///  * Worker 0 starts at the post-prologue state; the others start idle.
///  * Balance by donation: while some worker is idle, a busy worker gives
///    away the untried choices of its shallowest frame that still has
///    any (detail::Donation). The receiver rebuilds that frame's state by
///    replaying the trace prefix from S0.
///  * Sleep masks live in the shard cells, so ample sets and sleep sets
///    reduce exactly as they do for one worker (docs/POR.md §4).
///  * Counters are per worker and merged once at the end; the only
///    shared per-state traffic is the shard lock and a state-budget
///    counter flushed every FlushBatch states.
///  * The first violation stops every worker at its next frame.
///
/// The prologue, the falsifier and the canonical re-derivation of a
/// violation's trace are the single-worker ones (ModelChecker.cpp), so
/// every worker count reports the same verdict and counterexample.
///
//===----------------------------------------------------------------------===//

#include "verify/SearchCore.h"

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <thread>

using namespace psketch;
using namespace psketch::verify;
using exec::Machine;
using exec::State;

namespace {

/// States a worker counts before adding them to the shared budget
/// counter: the search stops less than this many states per worker past
/// CheckerConfig::MaxStates.
constexpr uint64_t FlushBatch = 256;

/// Everything the workers share besides the visited table: the pool of
/// donated work, idle bookkeeping, the stop flag, the state budget and
/// the best counterexample.
class Coordinator {
public:
  Coordinator(unsigned Workers, uint64_t MaxStates)
      : Workers(Workers), MaxStates(MaxStates) {}

  /// Set by a violation or an exhausted budget; polled once per frame.
  std::atomic<bool> Stop{false};
  /// Idle workers minus pooled donations: positive when some worker is
  /// waiting for work nobody has donated yet. Polled once per frame.
  std::atomic<int> Need{0};

  /// Blocks until a donation is available (moved into \p Out) or the
  /// search is over: every worker idle with nothing pooled, or stopped.
  bool take(detail::Donation &Out) {
    std::unique_lock<std::mutex> Lock(Mu);
    ++Idle;
    updateNeed();
    if (Idle == Workers && Pool.empty())
      Done = true;
    if (Done) {
      Cv.notify_all();
      return false;
    }
    Cv.wait(Lock, [&] { return Done || !Pool.empty(); });
    if (Done)
      return false;
    Out = std::move(Pool.back());
    Pool.pop_back();
    --Idle;
    updateNeed();
    return true;
  }

  void give(detail::Donation D) {
    std::lock_guard<std::mutex> Lock(Mu);
    Pool.push_back(std::move(D));
    updateNeed();
    Cv.notify_one();
  }

  /// Adds \p N explored states to the budget counter; stops the search
  /// once it reaches MaxStates.
  void addExplored(uint64_t N) {
    if (Explored.fetch_add(N, std::memory_order_relaxed) + N >= MaxStates) {
      Exhausted.store(true, std::memory_order_relaxed);
      stop();
    }
  }

  /// Records a violation, keeping the canonical-minimal trace (cexLess),
  /// and stops the search.
  void report(Counterexample Cex) {
    {
      std::lock_guard<std::mutex> Lock(CexMu);
      if (!Best || detail::cexLess(Cex, *Best))
        Best = std::move(Cex);
    }
    stop();
  }

  bool exhausted() const { return Exhausted.load(); }
  std::optional<Counterexample> &best() { return Best; }

private:
  void stop() {
    Stop.store(true);
    std::lock_guard<std::mutex> Lock(Mu);
    Done = true;
    Cv.notify_all();
  }

  void updateNeed() {
    Need.store(static_cast<int>(Idle) - static_cast<int>(Pool.size()),
               std::memory_order_relaxed);
  }

  const unsigned Workers;
  const uint64_t MaxStates;

  std::mutex Mu; ///< guards Pool, Idle and Done
  std::condition_variable Cv;
  std::vector<detail::Donation> Pool;
  unsigned Idle = 0;
  bool Done = false;

  std::atomic<uint64_t> Explored{0};
  std::atomic<bool> Exhausted{false};

  std::mutex CexMu;
  std::optional<Counterexample> Best;
};

/// One worker among several: polls the stop flag and donates once per
/// frame, and feeds the shared state budget in batches.
struct WorkerDriver {
  Coordinator &Co;
  uint64_t Unflushed = 0;
  uint64_t Donations = 0;

  template <class Core> bool onFrame(Core &C) {
    if (Co.Stop.load(std::memory_order_relaxed))
      return false;
    if (Co.Need.load(std::memory_order_relaxed) > 0) {
      detail::Donation D;
      if (C.donate(D)) {
        Co.give(std::move(D));
        ++Donations;
      }
    }
    return true;
  }

  void onExplored() {
    if (++Unflushed == FlushBatch)
      flush();
  }

  void flush() {
    if (Unflushed)
      Co.addExplored(Unflushed);
    Unflushed = 0;
  }
};

using WorkerCore = detail::UndoDfs<detail::ShardedVisited, WorkerDriver>;

} // namespace

bool psketch::verify::detail::parallelDfs(const Machine &M,
                                          const CheckerConfig &Cfg,
                                          unsigned Workers, const State &S0,
                                          const Canonicalizer *Canon,
                                          CheckResult &R, Counterexample &Cex) {
  assert(Workers >= 2 && "one worker runs Checker::dfsUndo");
  Coordinator Co(Workers, Cfg.MaxStates);
  ShardedVisited Visited(&hashWords, Canon);
  std::vector<CheckResult> Parts(Workers);
  std::vector<uint64_t> Donations(Workers, 0);

  auto Work = [&](unsigned Id) {
    WorkerDriver Drv{Co};
    WorkerCore Core(M, Cfg, Visited, Drv, Parts[Id]);
    Counterexample Found;
    bool Clean = Id != 0 || Core.search(S0, Found);
    for (Donation D; Clean;) {
      Drv.flush();
      if (!Co.take(D))
        break;
      Clean = Core.resume(S0, D, Found);
    }
    if (!Clean)
      Co.report(std::move(Found));
    Donations[Id] = Drv.Donations;
  };
  std::vector<std::thread> Threads;
  for (unsigned I = 1; I < Workers; ++I)
    Threads.emplace_back(Work, I);
  Work(0);
  for (std::thread &T : Threads)
    T.join();

  for (unsigned I = 0; I < Workers; ++I) {
    const CheckResult &P = Parts[I];
    R.StatesExplored += P.StatesExplored;
    R.StatesDeduped += P.StatesDeduped;
    R.AmpleStates += P.AmpleStates;
    R.FullExpansions += P.FullExpansions;
    R.SleepSkips += P.SleepSkips;
    R.PerWorkerStates[I] = P.StatesExplored;
    R.Steals += Donations[I];
  }
  R.Exhausted = Co.exhausted();
  R.VisitedBytes = Visited.keyBytes();
  if (!Co.best())
    return true;
  Cex = std::move(*Co.best());
  return false;
}
