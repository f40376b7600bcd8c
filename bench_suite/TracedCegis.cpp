//===- bench_suite/TracedCegis.cpp -----------------------------------------===//
//
// Part of psketch-cpp.
//
//===----------------------------------------------------------------------===//

#include "TracedCegis.h"

#include "analysis/AbsInt.h"
#include "desugar/Flatten.h"
#include "exec/Machine.h"
#include "support/Timer.h"
#include "synth/Projection.h"

#include <cassert>
#include <cstdio>

using namespace psketch;
using namespace psketch::suite;

size_t Tracer::open(const char *Name) {
  Span S;
  S.Name = Name;
  S.TraceId = TraceId;
  S.Parent = OpenSpans.empty() ? -1 : static_cast<int>(OpenSpans.back());
  S.Start = now();
  Spans.push_back(std::move(S));
  OpenSpans.push_back(Spans.size() - 1);
  return Spans.size() - 1;
}

void Tracer::close(size_t Index) {
  assert(!OpenSpans.empty() && OpenSpans.back() == Index &&
         "spans must close innermost first");
  Spans[Index].End = now();
  OpenSpans.pop_back();
}

std::string suite::jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out + "\"";
}

bool Tracer::writeChromeTrace(
    const std::string &Path, const std::vector<std::string> &TraceNames) const {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool First = true;
  for (size_t I = 0; I < TraceNames.size(); ++I) {
    std::fprintf(F,
                 "%s{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,"
                 "\"tid\":%zu,\"args\":{\"name\":%s}}",
                 First ? "" : ",\n", I, jsonString(TraceNames[I]).c_str());
    First = false;
  }
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::string Layer = S.Name.substr(0, S.Name.find('.'));
    std::fprintf(F,
                 "%s{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                 "\"args\":{\"span\":%zu,\"parent\":%d}}",
                 First ? "" : ",\n", jsonString(S.Name).c_str(),
                 jsonString(Layer).c_str(), S.TraceId, S.Start * 1e6,
                 (S.End - S.Start) * 1e6, I, S.Parent);
    First = false;
  }
  std::fprintf(F, "\n]}\n");
  bool Ok = !std::ferror(F);
  return std::fclose(F) == 0 && Ok;
}

TracedCegis::TracedCegis(ir::Program &P, cegis::CegisConfig Cfg, Tracer &T)
    : P(P), Cfg(std::move(Cfg)), T(T) {
  ScopedSpan S(T, "desugar.flatten");
  FP = flat::flatten(P);
}

cegis::CegisResult TracedCegis::run() {
  cegis::CegisResult R;
  {
    ScopedSpan S(T, "cegis.run");
    loop(R);
  }
  WallTimer Watch;
  for (const verify::Counterexample &Cex : Cexes)
    synth::projectTrace(FP, Cex);
  ProjectSeconds = Watch.seconds();
  return R;
}

bool TracedCegis::prescreen(synth::InductiveSynth &Synth,
                            cegis::CegisResult &R) {
  if (!Cfg.Prescreen)
    return false;
  // Spans what the program's Sprune phase times: the analysis and
  // asserting its findings into the synthesizer.
  ScopedSpan S(T, "analysis.prescreen");
  analysis::AnalysisResult A = analysis::analyze(P, FP, Cfg.Analysis);
  for (const analysis::HoleValueBan &B : A.Bans)
    Synth.banHoleValue(B.HoleId, B.Value);
  for (ir::ExprRef E : A.Exclusions)
    Synth.assertHoleConstraint(E);
  R.Stats.PrunedHoleValues = A.Bans.size();
  R.Stats.ExclusionConstraints = A.Exclusions.size();
  return A.ProvedUnresolvable;
}

void TracedCegis::loop(cegis::CegisResult &R) {
  WallTimer Total;
  synth::SynthOptions SynthOpts;
  SynthOpts.WarmStart = Cfg.SolverWarmStart;
  size_t Init = T.open("synth.init");
  synth::InductiveSynth Synth(FP, SynthOpts);
  T.close(Init);
  bool Proved = prescreen(Synth, R);

  while (!Proved) {
    if (R.Stats.Iterations >= Cfg.MaxIterations ||
        (Cfg.TimeLimitSeconds > 0.0 &&
         Total.seconds() > Cfg.TimeLimitSeconds)) {
      R.Stats.Aborted = true;
      break;
    }

    ir::HoleAssignment Candidate;
    bool Found;
    {
      ScopedSpan S(T, "synth.solve");
      Found = Synth.solve(Candidate);
    }
    if (!Found)
      break;

    analysis::CandidateFacts Facts;
    if (Cfg.AbsInt) {
      ScopedSpan S(T, "analysis.screen");
      Facts = analysis::analyzeCandidate(P, FP, Candidate,
                                         analysis::AbsIntConfig(), Cfg.Shape);
    }
    if (Facts.Refuted) {
      ++R.Stats.IntervalPrunes;
      {
        ScopedSpan S(T, "synth.exclude");
        Synth.excludeCandidate(Candidate);
      }
      if (R.Stats.IntervalPrunes >= (uint64_t(1) << 20)) {
        R.Stats.Aborted = true;
        break;
      }
      continue;
    }

    exec::MachineTuning Tuning;
    if (Cfg.AbsInt) {
      Tuning.Locks = &Facts.Locks;
      Tuning.Bounds = &Facts.Bounds;
      if (Cfg.Shape && !Facts.Heap.empty())
        Tuning.Heap = &Facts.Heap;
    }
    size_t MachineSpan = T.open("exec.machine");
    exec::Machine M(FP, Candidate, Tuning);
    T.close(MachineSpan);

    verify::CheckResult Check;
    {
      ScopedSpan S(T, "verify.check");
      Check = verify::checkCandidate(M, Cfg.Checker);
    }
    cegis::accumulateCheckerStats(R.Stats, Check);
    VisitedBytes += Check.VisitedBytes;
    Exhausted = Exhausted || Check.Exhausted;
    ++R.Stats.Iterations;

    if (Check.Ok) {
      R.Stats.Resolvable = true;
      R.Candidate = std::move(Candidate);
      break;
    }
    {
      ScopedSpan S(T, "synth.learn");
      Synth.addTrace(*Check.Cex);
    }
    Cexes.push_back(std::move(*Check.Cex));
  }

  R.Stats.GateCount = Synth.stats().GateCount;
  R.Stats.ClauseCount = Synth.stats().ClauseCount;
  R.Stats.SolveLog = Synth.stats().Solves;
  R.Stats.SolverProbes = Synth.stats().Probes;
}
