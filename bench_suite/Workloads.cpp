//===- bench_suite/Workloads.cpp -------------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "benchmarks/DList.h"
#include "benchmarks/Dining.h"
#include "benchmarks/LazySet.h"
#include "benchmarks/Queue.h"
#include "benchmarks/Stack.h"
#include "benchmarks/Suite.h"
#include "benchmarks/Workload.h"
#include "frontend/Parser.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

using namespace psketch;
using namespace psketch::suite;
using bench::parseWorkload;

namespace {

/// The Figure 9 rows named \p Names ("sketch test"), in that order, with
/// the paper's verdict as the known answer.
std::vector<Row> paperRows(const std::vector<std::string> &Names) {
  std::vector<bench::SuiteEntry> All = bench::paperSuite();
  std::vector<Row> Rows;
  for (const std::string &Name : Names)
    for (const bench::SuiteEntry &E : All)
      if (E.Sketch + " " + E.Test == Name)
        Rows.push_back({Name, false, E.Build, E.PaperResolvable});
  if (Rows.size() != Names.size()) {
    std::fprintf(stderr, "bench_suite: a Figure 9 row name does not match\n");
    std::abort();
  }
  return Rows;
}

Row stackRow(const std::string &Pattern) {
  return {"stack " + Pattern, false,
          [Pattern] { return bench::buildStack(parseWorkload(Pattern)); },
          true};
}

Row dlistRow(const std::string &Pattern) {
  return {"dlist " + Pattern, false,
          [Pattern] { return bench::buildDList(parseWorkload(Pattern)); },
          true};
}

/// The full lazy set: add() is sketched as well as remove().
Row lazyFullRow(const std::string &Pattern, bool Resolvable) {
  return {"lazyset-full " + Pattern, false,
          [Pattern] {
            bench::LazySetOptions O;
            O.SketchAdd = true;
            return bench::buildLazySet(parseWorkload(Pattern), O);
          },
          Resolvable};
}

/// Reads \p File from \p Dir into a row that parses it on every build.
bool pskRow(const std::string &Dir, const std::string &File, Row &Out,
            std::string &Error) {
  std::ifstream In(Dir + "/" + File);
  if (!In) {
    Error = "cannot read " + Dir + "/" + File;
    return false;
  }
  std::stringstream Text;
  Text << In.rdbuf();
  std::string Source = Text.str();
  if (!frontend::parseProgram(Source).ok()) {
    Error = File + " does not parse";
    return false;
  }
  Out = {File, true,
         [Source] { return std::move(frontend::parseProgram(Source).Program); },
         true};
  return true;
}

bool appendPsk(const std::string &Dir, const std::vector<std::string> &Files,
               std::vector<Row> &Rows, std::string &Error) {
  for (const std::string &File : Files) {
    Row R;
    if (!pskRow(Dir, File, R, Error))
      return false;
    Rows.push_back(std::move(R));
  }
  return true;
}

const std::vector<std::string> ExamplePsk = {
    "enqueue.psk", "barrier2.psk", "dining2.psk", "sorted_list_race.psk"};

/// Figure 9 rows whose CEGIS loop finishes in about a second or less.
/// queueDE2, barrier2 and the larger fineset rows are left out: one run of
/// any of them takes a large share of a measured run.
std::vector<Row> suiteRows() {
  std::vector<Row> Rows = paperRows({
      "queueE1 ed(ee|dd)", "queueE1 ed(ed|ed)", "queueE1 (e|e|e)ddd",
      "queueDE1 ed(ee|dd)", "queueDE1 ed(ed|ed)", "queueE2 ed(ed|ed)",
      "queueE2 (e|e|e)ddd", "barrier1 N=3,B=2", "barrier1 N=3,B=3",
      "fineset1 ar(ar|ar)", "fineset1 ar(a|r|a|r)", "fineset1 ar(aaaa|rrrr)",
      "fineset2 ar(ar|ar)", "lazyset ar(aa|rr)", "lazyset ar(ar|ar)",
      "dinphilo N=3,T=5", "dinphilo N=4,T=3", "dinphilo N=5,T=3"});
  for (const char *P : {"p(po|po)", "pp(o|o)", "p(pp|oo)", "(pp|oo)o"})
    Rows.push_back(stackRow(P));
  for (const char *P : {"i(i|i)", "(ii|i)", "(i|i)i"})
    Rows.push_back(dlistRow(P));
  Rows.push_back(lazyFullRow("ar(aa|rr)", true));
  Rows.push_back(lazyFullRow("ar(ar|ar)", false));
  return Rows;
}

/// Instances scaled beyond the paper, one or more per family: lock and
/// deadlock (dining), fine-grained heap locking (lazy set) and lock-free
/// swap/CAS (queue, doubly-linked list). Peak RSS stays in the low
/// hundreds of MiB, including the reference re-check.
bool verifyRows(const std::string &Dir, std::vector<Row> &Rows,
                std::string &Error) {
  Rows.push_back(dlistRow("(i|i|i)"));
  Rows.push_back({"queueE1 (ed|ed|ee)", false,
                  [] {
                    return bench::buildQueue(parseWorkload("(ed|ed|ee)"),
                                             bench::QueueOptions());
                  },
                  true});
  Rows.push_back({"lazyset ar(aaa|rrr|a)", false,
                  [] {
                    return bench::buildLazySet(parseWorkload("ar(aaa|rrr|a)"));
                  },
                  true});
  Rows.push_back({"dinphilo N=5,T=4", false,
                  [] { return bench::buildDining(bench::DiningOptions{5, 4}); },
                  true});
  return appendPsk(Dir, {"dining5.psk"}, Rows, Error);
}

bool smallRows(const std::string &Dir, std::vector<Row> &Rows,
               std::string &Error) {
  Rows = paperRows({"queueE1 ed(ee|dd)", "queueE1 ed(ed|ed)",
                    "queueE1 (e|e|e)ddd", "queueDE1 ed(ee|dd)",
                    "queueDE1 ed(ed|ed)", "lazyset ar(aa|rr)",
                    "lazyset ar(ar|ar)", "dinphilo N=3,T=5",
                    "dinphilo N=4,T=3"});
  for (const char *P : {"p(po|po)", "pp(o|o)", "p(pp|oo)", "(pp|oo)o"})
    Rows.push_back(stackRow(P));
  for (const char *P : {"i(i|i)", "(ii|i)", "(i|i)i"})
    Rows.push_back(dlistRow(P));
  Rows.push_back(lazyFullRow("ar(aa|rr)", true));
  return appendPsk(Dir, ExamplePsk, Rows, Error);
}

} // namespace

bool suite::makeWorkload(const std::string &Name, const std::string &InputsDir,
                         Workload &Out, std::string &Error) {
  Out = Workload();
  Out.Name = Name;
  if (Name == "suite") {
    Out.Rows = suiteRows();
    return appendPsk(InputsDir, ExamplePsk, Out.Rows, Error);
  }
  if (Name == "verify")
    return verifyRows(InputsDir, Out.Rows, Error);
  if (Name == "verify_w4") {
    // Four workers, or fewer on a machine with fewer hardware threads.
    unsigned Hw = std::max(1u, std::thread::hardware_concurrency());
    Out.Workers = std::min(4u, Hw);
    return verifyRows(InputsDir, Out.Rows, Error);
  }
  if (Name == "small")
    return smallRows(InputsDir, Out.Rows, Error);
  Error = "unknown workload '" + Name + "'";
  return false;
}
