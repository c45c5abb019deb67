//===-- hostbench/runner.cpp - One repetition of a hostbench workload -----===//
//
// Part of the hpmvm project (PLDI 2007 HPM-guided optimization repro).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one repetition of one benchmark workload through the public harness
/// (Suite/Experiment for the batch, Fleet for the fleets) and writes one
/// JSON object: host time spent in the harness entry points (constructor,
/// run(), result()), the simulated outputs as runs-JSON rows (the format
/// the pinned baselines use), and -- in traced mode -- per-layer counts and
/// host times taken by decorators installed from outside the simulator:
///
///   - a forwarding GarbageCollector (VirtualMachine::setCollector) times
///     every allocate() call, split by whether the call collected, and
///     counts write barriers;
///   - in monitored cells, a forwarding MemoryEventListener in front of the
///     PEBS unit counts every event and times one call in kEventSampleEvery;
///   - the opt-in SelfProfiler times the four sample-pipeline stages (its
///     pipeline.stage.* histograms ride in the rows' metrics).
///
/// run.py drives this binary once per repetition, in a child process, so a
/// trapped or killed repetition cannot take the benchmark down with it.
///
/// Usage:
///   hostbench_runner --info
///   hostbench_runner --workload <paper-batch|fleet-traffic|fleet-policy>
///                    --seed <n> --out <file> [--traced]
///
//===----------------------------------------------------------------------===//

#include "harness/Fleet.h"
#include "harness/Suite.h"
#include "obs/SelfProfiler.h"
#include "support/Flags.h"
#include "support/Format.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

using namespace hpmvm;

namespace {

/// Scales of the pinned configurations (see bench/baselines and the CI
/// commands that produce them).
constexpr uint32_t kBatchScale = 30;
constexpr uint32_t kFleetScale = 60;
constexpr uint32_t kFleetShards = 16;
/// Worker threads of the arbiter-free fleet. One: on a shared 4-core host
/// three workers plus the committing main thread ran 0.55-1.00 s per
/// repetition (too unsteady to compare commits by); one worker ran
/// 1.31-1.52 s. Simulated outputs are identical at every value.
constexpr unsigned kTrafficJobs = 1;
/// The event listener sits on the memory hierarchy's miss path; timing one
/// call in this many keeps the clock reads out of the measurement.
constexpr uint64_t kEventSampleEvery = 64;
/// Set-ups timed per repetition: the workload is built this many times and
/// only the last build runs. Set-up takes milliseconds, so one sample per
/// repetition would be mostly noise.
constexpr uint32_t kSetups = 10;

uint64_t nowNs() { return SelfProfiler::nowNs(); }

/// What one timed interval reads when it times nothing: the cost of the
/// clock read itself, subtracted from every decorator-timed call so the
/// per-layer times do not count the tracing.
uint64_t clockOverheadNs() {
  static const uint64_t Overhead = [] {
    std::vector<uint64_t> D(1001);
    for (uint64_t &X : D) {
      uint64_t T0 = nowNs();
      X = nowNs() - T0;
    }
    std::nth_element(D.begin(), D.begin() + 500, D.end());
    return D[500];
  }();
  return Overhead;
}

/// Host nanoseconds since \p T0, less the clock's own cost.
uint64_t elapsedNs(uint64_t T0) {
  uint64_t Ns = nowNs() - T0;
  return Ns > clockOverheadNs() ? Ns - clockOverheadNs() : 0;
}

uint64_t collections(const GcStats &S) {
  return S.MinorCollections + S.MajorCollections;
}

/// Forwards to the run's real collector, timing allocation and counting
/// barriers. Installed after construction, so every component wired during
/// set-up keeps talking to the real plan directly.
class TimedCollector final : public GarbageCollector {
public:
  explicit TimedCollector(GarbageCollector &Inner) : Inner(Inner) {}

  Address allocate(ClassId Cls, uint32_t TotalBytes,
                   uint32_t ArrayLen) override {
    uint64_t Before = collections(Inner.stats());
    uint64_t T0 = nowNs();
    Address A = Inner.allocate(Cls, TotalBytes, ArrayLen);
    uint64_t Ns = elapsedNs(T0);
    if (collections(Inner.stats()) != Before)
      CollectNs += Ns;
    else
      AllocNs += Ns;
    ++Allocs;
    return A;
  }
  void writeBarrier(Address Holder, Address SlotAddr,
                    Address NewValue) override {
    ++Barriers;
    Inner.writeBarrier(Holder, SlotAddr, NewValue);
  }
  void collectFull() override {
    uint64_t T0 = nowNs();
    Inner.collectFull();
    CollectNs += elapsedNs(T0);
  }
  void setRootProvider(RootProvider *P) override { Inner.setRootProvider(P); }
  void setPlacementAdvisor(PlacementAdvisor *A) override {
    Inner.setPlacementAdvisor(A);
  }
  void setGcAllowed(bool Allowed) override { Inner.setGcAllowed(Allowed); }
  const GcStats &stats() const override { return Inner.stats(); }
  const char *name() const override { return Inner.name(); }
  SpaceId spaceOf(Address A) const override { return Inner.spaceOf(A); }
  void setGcNotify(std::function<void(bool)> Fn) override {
    Inner.setGcNotify(std::move(Fn));
  }
  void attachObs(ObsContext &Obs) override { Inner.attachObs(Obs); }

  uint64_t Allocs = 0;
  uint64_t AllocNs = 0;   ///< allocate() calls that did not collect.
  uint64_t CollectNs = 0; ///< allocate() calls that collected.
  uint64_t Barriers = 0;

private:
  GarbageCollector &Inner;
};

/// Forwards memory events to the PEBS unit, counting all and timing a
/// fixed sample of them.
class TimedListener final : public MemoryEventListener {
public:
  explicit TimedListener(MemoryEventListener &Inner) : Inner(Inner) {}

  void onMemoryEvent(HpmEventKind Kind, Address Pc,
                     Address DataAddr) override {
    if (Events++ % kEventSampleEvery != 0) {
      Inner.onMemoryEvent(Kind, Pc, DataAddr);
      return;
    }
    uint64_t T0 = nowNs();
    Inner.onMemoryEvent(Kind, Pc, DataAddr);
    SampledNs += elapsedNs(T0);
    ++Sampled;
  }

  /// The sampled time extrapolated to every event.
  uint64_t estimatedNs() const {
    return Sampled ? SampledNs * Events / Sampled : 0;
  }

  uint64_t Events = 0;

private:
  MemoryEventListener &Inner;
  uint64_t Sampled = 0;
  uint64_t SampledNs = 0;
};

/// The decorators of one Experiment. Declare before the Experiment so the
/// decorators outlive the VM that points at them.
struct LayerProbe {
  std::unique_ptr<TimedCollector> Gc;
  std::unique_ptr<TimedListener> Events;

  void install(Experiment &E) {
    Gc = std::make_unique<TimedCollector>(E.collector());
    E.vm().setCollector(Gc.get());
    if (HpmMonitor *M = E.monitor()) {
      Events = std::make_unique<TimedListener>(M->pebs());
      E.vm().memory().setListener(Events.get());
    }
  }
};

/// Per-layer totals of one repetition (summed over cells or shards).
struct Layers {
  uint64_t Invocations = 0;
  uint64_t Allocs = 0, AllocNs = 0, CollectNs = 0, Barriers = 0;
  uint64_t Events = 0, EventNs = 0;
  uint64_t SamplesProcessed = 0, SamplesAttributed = 0;
  uint64_t Applies = 0, Accepts = 0, Reverts = 0;

  void add(Experiment &E, const RunResult &R, const LayerProbe &P) {
    Invocations += R.Vm.Invocations;
    if (P.Gc) {
      Allocs += P.Gc->Allocs;
      AllocNs += P.Gc->AllocNs;
      CollectNs += P.Gc->CollectNs;
      Barriers += P.Gc->Barriers;
    }
    if (P.Events) {
      Events += P.Events->Events;
      EventNs += P.Events->estimatedNs();
    }
    if (HpmMonitor *M = E.monitor()) {
      SamplesProcessed += M->stats().SamplesProcessed;
      SamplesAttributed += M->stats().SamplesAttributed;
    }
    if (PolicyEngine *PE = E.policyEngine()) {
      Applies += PE->applies();
      Accepts += PE->accepts();
      Reverts += PE->reverts();
    }
  }
};

/// Everything one repetition measured.
struct Rep {
  std::vector<uint64_t> SetupNs;
  uint64_t RunNs = 0;
  uint64_t ResultNs = 0;
  uint64_t Requests = 0;
  uint64_t PmuRotations = 0; ///< Shared-PMU arbiter rotations.
  double GrantedShare = 0.0; ///< Mean over monitored units; 0 = none.
  double VirtualMs = 0.0;
  Layers L;
  std::vector<LabeledResult> Rows;
};

/// Figure 5's configuration (fig5_exec_time_heaps): GenMS, pseudo-adaptive,
/// base vs coalloc with the auto interval.
SuiteSpec paperBatchSpec(uint64_t Seed) {
  SuiteSpec S;
  S.Workloads = {"db", "compress", "pseudojbb"};
  S.HeapFactors = {1.0, 4.0};
  S.Params.ScalePercent = kBatchScale;
  S.Params.Seed = Seed;
  S.Variants = {
      {"base", nullptr},
      {"coalloc",
       [](RunConfig &C) {
         C.Monitoring = true;
         C.Coallocation = true;
         C.Monitor.AutoInterval = true;
         C.Monitor.TargetSamplesPerSec = 2000;
         C.Monitor.SamplingInterval = 10000;
       }},
  };
  return S;
}

/// fleet_step's fleet: arbiter-free servermix tenants.
FleetConfig trafficConfig(uint64_t Seed) {
  FleetConfig F;
  F.Shards = kFleetShards;
  F.Jobs = kTrafficJobs;
  F.Base.Workload = "servermix";
  F.Base.Params.ScalePercent = kFleetScale;
  F.Base.Params.Seed = Seed;
  F.Base.HeapFactor = 2.0;
  F.TrafficCfg.RequestsPerTenant = 512;
  F.TrafficCfg.ArrivalRatePerSec = 200000.0;
  return F;
}

/// fleet_scaling's s16/policy cell: one PMU shared through the arbiter,
/// policy engine with the default three-kind multiplexer.
FleetConfig policyConfig(uint64_t Seed) {
  FleetConfig F;
  F.Shards = kFleetShards;
  F.Base.Workload = "servermix";
  F.Base.Params.ScalePercent = kFleetScale;
  F.Base.Params.Seed = Seed;
  F.Base.HeapFactor = 2.0;
  F.Base.Monitoring = true;
  F.Base.PolicyEngine = true;
  F.Base.Policy.Classifier.WindowPeriods = 2;
  F.Base.Policy.Classifier.MinWindowSamples = 2.0;
  F.Base.Policy.MinBaselineWindows = 2;
  F.Base.Policy.Gate.WarmupPeriods = 0;
  F.TrafficCfg.RequestsPerTenant = 6144;
  F.TrafficCfg.ArrivalRatePerSec = 200000.0;
  return F;
}

Rep runPaperBatch(uint64_t Seed, bool Traced) {
  Rep R;
  std::vector<SuiteRun> Cells = expandSuite(paperBatchSpec(Seed));
  for (SuiteRun &Cell : Cells) {
    Cell.Config.Obs = resolveObsConfig(Cell.Config.Obs);
    Cell.Config.Obs.SelfProfile = Traced;
  }
  // Extra set-up samples: build every cell and throw it away.
  for (uint32_t K = 1; K < kSetups; ++K) {
    uint64_t Ns = 0;
    for (const SuiteRun &Cell : Cells) {
      uint64_t T0 = nowNs();
      Experiment E(Cell.Config);
      Ns += nowNs() - T0;
    }
    R.SetupNs.push_back(Ns);
  }

  uint64_t SetupNs = 0;
  uint64_t Monitored = 0;
  for (const SuiteRun &Cell : Cells) {
    LayerProbe Probe;
    uint64_t T0 = nowNs();
    auto E = std::make_unique<Experiment>(Cell.Config);
    uint64_t T1 = nowNs();
    if (Traced)
      Probe.install(*E);
    uint64_t T2 = nowNs();
    E->run();
    uint64_t T3 = nowNs();
    RunResult Res = E->result();
    uint64_t T4 = nowNs();
    SetupNs += T1 - T0;
    R.RunNs += T3 - T2;
    R.ResultNs += T4 - T3;
    R.L.add(*E, Res, Probe);
    Monitored += E->monitor() != nullptr;
    R.VirtualMs += VirtualClock::toSeconds(Res.TotalCycles) * 1e3;
    R.Rows.push_back({Cell.Label, std::move(Res)});
  }
  R.SetupNs.push_back(SetupNs);
  // Every monitored batch cell owns its PMU outright.
  R.GrantedShare = Monitored ? 1.0 : 0.0;
  return R;
}

Rep runFleetWorkload(const FleetConfig &Base, const std::string &LabelPrefix,
                     bool Traced) {
  Rep R;
  FleetConfig F = Base;
  F.Base.Obs = resolveObsConfig(F.Base.Obs);
  F.Base.Obs.SelfProfile = Traced;
  for (uint32_t K = 1; K < kSetups; ++K) {
    uint64_t T0 = nowNs();
    auto Warm = std::make_unique<Fleet>(F);
    R.SetupNs.push_back(nowNs() - T0);
  }

  std::vector<LayerProbe> Probes(F.Shards);
  uint64_t T0 = nowNs();
  auto Fl = std::make_unique<Fleet>(F);
  R.SetupNs.push_back(nowNs() - T0);
  if (Traced)
    for (size_t I = 0; I != Fl->shards(); ++I)
      Probes[I].install(Fl->shard(I));

  uint64_t T1 = nowNs();
  Fl->run();
  uint64_t T2 = nowNs();
  FleetResult FR = Fl->result();
  uint64_t T3 = nowNs();
  R.RunNs = T2 - T1;
  R.ResultNs = T3 - T2;

  double Granted = 0.0;
  for (FleetTenantResult &TR : FR.Tenants) {
    R.Requests += TR.Requests;
    if (TR.Share.Executed)
      Granted += static_cast<double>(TR.Share.Granted) /
                 static_cast<double>(TR.Share.Executed);
    R.L.add(Fl->shard(TR.Tenant), TR.Run, Probes[TR.Tenant]);
    R.Rows.push_back({LabelPrefix + formatString("tenant%03u", TR.Tenant),
                      std::move(TR.Run)});
  }
  R.Rows.push_back({LabelPrefix + "fleet", std::move(FR.Aggregate)});
  R.PmuRotations = FR.PmuRotations;
  if (Fl->arbiter().tenants())
    R.GrantedShare = Granted / static_cast<double>(FR.Tenants.size());
  R.VirtualMs = VirtualClock::toSeconds(FR.MakespanCycles) * 1e3;
  return R;
}

/// The runs-JSON document of \p Rows on one line.
std::string rowsJson(const std::vector<LabeledResult> &Rows) {
  char *Buf = nullptr;
  size_t Len = 0;
  FILE *Mem = open_memstream(&Buf, &Len);
  if (!Mem)
    return {};
  bool Ok = writeRunsJson(Mem, "hostbench", Rows);
  Ok &= fclose(Mem) == 0;
  std::string Doc = Ok ? std::string(Buf, Len) : std::string();
  free(Buf);
  // The writer escapes control characters inside strings, so every raw
  // newline is layout.
  for (char &C : Doc)
    if (C == '\n')
      C = ' ';
  return Doc;
}

bool writeRep(const char *Path, const std::string &Workload, uint64_t Seed,
              bool Traced, const Rep &R) {
  std::string Rows = rowsJson(R.Rows);
  if (Rows.empty())
    return false;
  FILE *Out = fopen(Path, "w");
  if (!Out)
    return false;
  const Layers &L = R.L;
  fprintf(Out, "{\"workload\": \"%s\", \"seed\": %llu, \"traced\": %s, ",
          Workload.c_str(), static_cast<unsigned long long>(Seed),
          Traced ? "true" : "false");
  fputs("\"setup_ns\": [", Out);
  for (size_t I = 0; I != R.SetupNs.size(); ++I)
    fprintf(Out, "%s%llu", I ? ", " : "",
            static_cast<unsigned long long>(R.SetupNs[I]));
  auto U = [](uint64_t V) { return static_cast<unsigned long long>(V); };
  fprintf(Out,
          "], \"run_ns\": %llu, \"result_ns\": %llu, "
          "\"requests\": %llu, \"pmu_rotations\": %llu, "
          "\"granted_share\": %.17g, \"virtual_ms\": %.17g, ",
          U(R.RunNs), U(R.ResultNs), U(R.Requests),
          U(R.PmuRotations), R.GrantedShare, R.VirtualMs);
  fprintf(Out,
          "\"layers\": {\"invocations\": %llu, \"allocs\": %llu, "
          "\"alloc_ns\": %llu, \"collect_ns\": %llu, \"write_barriers\": "
          "%llu, \"events\": %llu, \"event_ns\": %llu, "
          "\"samples_processed\": %llu, \"samples_attributed\": %llu, "
          "\"applies\": %llu, \"accepts\": %llu, \"reverts\": %llu}, ",
          U(L.Invocations), U(L.Allocs), U(L.AllocNs), U(L.CollectNs),
          U(L.Barriers), U(L.Events), U(L.EventNs), U(L.SamplesProcessed),
          U(L.SamplesAttributed), U(L.Applies), U(L.Accepts), U(L.Reverts));
  fprintf(Out, "\"rows\": %s}\n", Rows.c_str());
  return fclose(Out) == 0;
}

int printInfo() {
#ifdef NDEBUG
  const bool Assertions = false;
#else
  const bool Assertions = true;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  const bool Sanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) ||    \
    __has_feature(undefined_behavior_sanitizer)
  const bool Sanitized = true;
#else
  const bool Sanitized = false;
#endif
#else
  const bool Sanitized = false;
#endif
  printf("{\"build_type\": \"%s\", \"cxx_flags\": \"%s\", \"compiler\": "
         "\"%s\", \"assertions\": %s, \"sanitizer\": %s}\n",
         HOSTBENCH_BUILD_TYPE, HOSTBENCH_CXX_FLAGS, HOSTBENCH_COMPILER,
         Assertions ? "true" : "false", Sanitized ? "true" : "false");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string Workload, OutPath;
  uint64_t Seed = 42;
  bool Traced = false, Info = false;
  flags::ArgScanner S(Argc, Argv);
  while (S.next()) {
    if (S.take("--workload", Workload) || S.take("--out", OutPath) ||
        S.takeUint("--seed", UINT64_MAX, Seed)) {
    } else if (S.takeSwitch("--traced")) {
      Traced = true;
    } else if (S.takeSwitch("--info")) {
      Info = true;
    } else {
      fprintf(stderr, "error: unknown argument '%s'\n", S.arg());
      S.fail();
    }
  }
  if (!S.ok())
    return 2;
  if (Info)
    return printInfo();
  if (OutPath.empty()) {
    fprintf(stderr, "error: --out <file> is required\n");
    return 2;
  }

  clockOverheadNs(); // Calibrate before anything is timed.
  Rep R;
  if (Workload == "paper-batch")
    R = runPaperBatch(Seed, Traced);
  else if (Workload == "fleet-traffic")
    R = runFleetWorkload(trafficConfig(Seed), "", Traced);
  else if (Workload == "fleet-policy")
    R = runFleetWorkload(policyConfig(Seed), "s16/policy/", Traced);
  else {
    fprintf(stderr, "error: unknown workload '%s'\n", Workload.c_str());
    return 2;
  }
  if (!writeRep(OutPath.c_str(), Workload, Seed, Traced, R)) {
    fprintf(stderr, "error: cannot write '%s'\n", OutPath.c_str());
    return 1;
  }
  return 0;
}
