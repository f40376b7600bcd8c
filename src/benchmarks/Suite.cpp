//===- benchmarks/Suite.cpp ------------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "benchmarks/Suite.h"

#include "benchmarks/Barrier.h"
#include "benchmarks/Dining.h"
#include "benchmarks/FineSet.h"
#include "benchmarks/LazySet.h"
#include "benchmarks/Queue.h"
#include "benchmarks/Workload.h"

using namespace psketch;
using namespace psketch::bench;

static SuiteEntry queueRow(const std::string &Sketch, const std::string &Test,
                           QueueOptions O, unsigned Itns, double Total,
                           double Log10C, unsigned Cost) {
  SuiteEntry E;
  E.Sketch = Sketch;
  E.Test = Test;
  E.Build = [Test, O]() { return buildQueue(parseWorkload(Test), O); };
  E.Reference = [O](const ir::Program &P) {
    return queueReferenceCandidate(P, O);
  };
  E.PaperItns = Itns;
  E.PaperTotalSeconds = Total;
  E.PaperLog10C = Log10C;
  E.CostClass = Cost;
  return E;
}

static SuiteEntry barrierRow(const std::string &Sketch,
                             const std::string &Test, BarrierOptions O,
                             unsigned Itns, double Total, double Log10C,
                             unsigned Cost) {
  SuiteEntry E;
  E.Sketch = Sketch;
  E.Test = Test;
  E.Build = [O]() { return buildBarrier(O); };
  E.Reference = [O](const ir::Program &P) {
    return barrierReferenceCandidate(P, O);
  };
  E.PaperItns = Itns;
  E.PaperTotalSeconds = Total;
  E.PaperLog10C = Log10C;
  E.CostClass = Cost;
  return E;
}

static SuiteEntry fineRow(const std::string &Sketch, const std::string &Test,
                          FineSetOptions O, unsigned Itns, double Total,
                          double Log10C, unsigned Cost) {
  SuiteEntry E;
  E.Sketch = Sketch;
  E.Test = Test;
  E.Build = [Test, O]() { return buildFineSet(parseWorkload(Test), O); };
  E.Reference = [O](const ir::Program &P) {
    return fineSetReferenceCandidate(P, O);
  };
  E.PaperItns = Itns;
  E.PaperTotalSeconds = Total;
  E.PaperLog10C = Log10C;
  E.CostClass = Cost;
  return E;
}

static SuiteEntry lazyRow(const std::string &Test, bool Resolvable,
                          unsigned Itns, double Total, unsigned Cost) {
  SuiteEntry E;
  E.Sketch = "lazyset";
  E.Test = Test;
  E.Build = [Test]() { return buildLazySet(parseWorkload(Test)); };
  if (Resolvable)
    E.Reference = lazySetReferenceCandidate;
  E.PaperResolvable = Resolvable;
  E.PaperItns = Itns;
  E.PaperTotalSeconds = Total;
  E.PaperLog10C = 3.0;
  E.CostClass = Cost;
  return E;
}

static SuiteEntry diningRow(const std::string &Test, DiningOptions O,
                            unsigned Itns, double Total, unsigned Cost) {
  SuiteEntry E;
  E.Sketch = "dinphilo";
  E.Test = Test;
  E.Build = [O]() { return buildDining(O); };
  E.Reference = [O](const ir::Program &P) {
    return diningReferenceCandidate(P, O);
  };
  E.PaperItns = Itns;
  E.PaperTotalSeconds = Total;
  E.PaperLog10C = 6.0;
  E.CostClass = Cost;
  return E;
}

std::vector<SuiteEntry> psketch::bench::paperSuite(const std::string &Family) {
  const QueueOptions E1{false, false, ir::ReorderEncoding::Quadratic};
  const QueueOptions E2{true, false, ir::ReorderEncoding::Quadratic};
  const QueueOptions DE1{false, true, ir::ReorderEncoding::Quadratic};
  const QueueOptions DE2{true, true, ir::ReorderEncoding::Quadratic};

  std::vector<SuiteEntry> All = {
      // queueE1 (|C| = 4)
      queueRow("queueE1", "ed(ee|dd)", E1, 1, 8.79, 0.6, 1),
      queueRow("queueE1", "ed(ed|ed)", E1, 1, 9.24, 0.6, 1),
      queueRow("queueE1", "(e|e|e)ddd", E1, 1, 13.0, 0.6, 1),
      // queueDE1 (|C| ~ 1e3)
      queueRow("queueDE1", "ed(ee|dd)", DE1, 4, 46.97, 3.0, 1),
      queueRow("queueDE1", "ed(ed|ed)", DE1, 4, 64.18, 3.0, 1),
      // queueE2 (|C| ~ 1e6)
      queueRow("queueE2", "ed(ed|ed)", E2, 5, 114.7, 6.4, 1),
      queueRow("queueE2", "(e|e|e)ddd", E2, 8, 249.2, 6.4, 2),
      // queueDE2 (|C| ~ 1e8)
      queueRow("queueDE2", "ed(ed|ed)", DE2, 10, 3091.37, 8.9, 3),
      // barrier1 (|C| ~ 1e4)
      barrierRow("barrier1", "N=3,B=2", BarrierOptions{3, 2, false}, 4, 49.74,
                 4.0, 2),
      barrierRow("barrier1", "N=3,B=3", BarrierOptions{3, 3, false}, 8,
                 120.21, 4.0, 3),
      // barrier2 (|C| ~ 1e7)
      barrierRow("barrier2", "N=2,B=3", BarrierOptions{2, 3, true}, 9, 66.46,
                 7.0, 2),
      // fineset1 (|C| ~ 1e4)
      fineRow("fineset1", "ar(ar|ar)", FineSetOptions{false}, 2, 130.44, 4.0,
              1),
      fineRow("fineset1", "ar(ar|ar|ar)", FineSetOptions{false}, 1, 363.89,
              4.0, 3),
      fineRow("fineset1", "ar(a|r|a|r)", FineSetOptions{false}, 1, 196.52,
              4.0, 2),
      fineRow("fineset1", "ar(arar|arar)", FineSetOptions{false}, 1, 165.43,
              4.0, 2),
      fineRow("fineset1", "ar(aaaa|rrrr)", FineSetOptions{false}, 2, 225.54,
              4.0, 2),
      // fineset2 (|C| ~ 1e7)
      fineRow("fineset2", "ar(ar|ar)", FineSetOptions{true}, 3, 281.46, 7.1,
              2),
      fineRow("fineset2", "ar(ar|ar|ar)", FineSetOptions{true}, 3, 795.19,
              7.1, 3),
      fineRow("fineset2", "ar(a|r|a|r)", FineSetOptions{true}, 2, 384.83, 7.1,
              3),
      fineRow("fineset2", "ar(arar|arar)", FineSetOptions{true}, 2, 299.97,
              7.1, 3),
      fineRow("fineset2", "ar(aaaa|rrrr)", FineSetOptions{true}, 3, 468.7,
              7.1, 3),
      // lazyset (|C| ~ 1e3); ar(ar|ar) is the paper's NO row
      lazyRow("ar(aa|rr)", true, 12, 179.17, 2),
      lazyRow("ar(ar|ar)", false, 7, 100.24, 2),
      // dinphilo (|C| ~ 1e6)
      diningRow("N=3,T=5", DiningOptions{3, 5}, 4, 34.03, 2),
      diningRow("N=4,T=3", DiningOptions{4, 3}, 3, 54.46, 2),
      diningRow("N=5,T=3", DiningOptions{5, 3}, 3, 745.94, 3),
  };

  if (Family.empty() || Family == "all")
    return All;
  std::vector<SuiteEntry> Filtered;
  for (SuiteEntry &E : All)
    if (E.Sketch == Family)
      Filtered.push_back(std::move(E));
  return Filtered;
}
