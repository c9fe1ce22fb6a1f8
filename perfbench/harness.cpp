//===- perfbench/harness.cpp - Library-side half of the benchmark ------------===//
//
// Part of the CUDAAdvisor reproduction project.
//
// The benchmark script (run.py) measures user-visible cost through the
// real cuadvisor / cuadvisord binaries; this harness covers the parts
// that must call the library entry points directly:
//
//   setup     time compileWorkload + InstrumentationEngine::run +
//             Program::compile per app (the set-up a profile pays)
//   simulate  uninstrumented Workload::Run passes at a given Jobs count,
//             checked against pinned cycles / warp instructions and the
//             workloads' CPU-reference validation
//   pin       print the Jobs = 1 cycles / warp instructions to pin
//   check     diff profile artifacts against the pinned baselines at
//             zero deterministic tolerance (the cuadv-diff gate)
//   loadgen   closed-loop cuadvisord client: a cold pass of distinct
//             requests, then warm resubmissions; checks hit == miss bytes
//             and the sampling tolerance bands
//   replay    traced in-process replay of what one CLI profile or one
//             daemon job calls, with a span around every layer call
//
// Every subcommand prints one JSON document on stdout. Spans are kept
// in memory and written when the subcommand ends.
//
//===----------------------------------------------------------------------===//

#include "core/analysis/Advisor.h"
#include "core/analysis/BranchDivergence.h"
#include "core/analysis/CycleAccounting.h"
#include "core/analysis/Inspection.h"
#include "core/analysis/MemoryDivergence.h"
#include "core/analysis/ObjectHeat.h"
#include "core/analysis/ProfileArtifact.h"
#include "core/analysis/ProfileDiff.h"
#include "core/analysis/ReuseDistance.h"
#include "core/analysis/Sampling.h"
#include "core/analysis/SharedMemory.h"
#include "core/instrument/InstrumentationEngine.h"
#include "core/profiler/Profiler.h"
#include "gpusim/Program.h"
#include "ir/Printer.h"
#include "server/ArtifactCache.h"
#include "server/Client.h"
#include "server/JobRunner.h"
#include "server/Protocol.h"
#include "support/JSON.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

using namespace cuadv;
using support::JsonValue;
using Clock = std::chrono::steady_clock;

namespace {

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "perfbench-harness: %s\n", Msg.c_str());
  std::exit(2);
}

double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

std::vector<std::string> splitList(const std::string &S, char Sep = ',') {
  std::vector<std::string> Out;
  std::stringstream SS(S);
  std::string Item;
  while (std::getline(SS, Item, Sep))
    if (!Item.empty())
      Out.push_back(Item);
  return Out;
}

/// "--key value" pairs after the subcommand.
struct Args {
  std::map<std::string, std::string> KV;

  Args(int Argc, char **Argv) {
    for (int I = 2; I < Argc; ++I) {
      if (std::strncmp(Argv[I], "--", 2) || I + 1 >= Argc)
        die(std::string("bad argument '") + Argv[I] + "'");
      KV[Argv[I] + 2] = Argv[I + 1];
      ++I;
    }
  }
  std::string get(const std::string &K, const std::string &Def = "") const {
    auto It = KV.find(K);
    return It == KV.end() ? Def : It->second;
  }
  std::string need(const std::string &K) const {
    auto It = KV.find(K);
    if (It == KV.end())
      die("missing --" + K);
    return It->second;
  }
  long num(const std::string &K, long Def) const {
    auto It = KV.find(K);
    return It == KV.end() ? Def : std::strtol(It->second.c_str(), nullptr, 10);
  }
};

const workloads::Workload &findApp(const std::string &Name) {
  const workloads::Workload *W = workloads::findWorkload(Name);
  if (!W)
    die("unknown app '" + Name + "'");
  return *W;
}

gpusim::DeviceSpec presetSpec(const std::string &Arch) {
  gpusim::DeviceSpec Spec;
  if (!gpusim::DeviceSpec::benchPreset(Arch, Spec))
    die("unknown arch '" + Arch + "'");
  return Spec;
}

JsonValue numArray(const std::vector<double> &V) {
  JsonValue A = JsonValue::array();
  for (double X : V)
    A.push_back(JsonValue(X));
  return A;
}

void printDoc(const JsonValue &Doc) {
  std::printf("%s\n", support::writeJson(Doc).c_str());
}

//===----------------------------------------------------------------------===//
// Spans
//===----------------------------------------------------------------------===//

/// In-memory span recorder. Spans of one operation share an op id; a
/// span's parent is the innermost span open when it began. Recording
/// is off unless enabled, so the same code runs traced and untraced.
class Tracer {
public:
  explicit Tracer(bool On) : On(On), Epoch(Clock::now()) {}

  void enable(bool Enable) { On = Enable; }

  struct Scope {
    Tracer *T = nullptr;
    size_t Index = 0;
    Scope() = default;
    Scope(Tracer *T, size_t Index) : T(T), Index(Index) {}
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    ~Scope() {
      if (T)
        T->close(Index);
    }
  };

  /// Opens a span; it closes when the returned scope is destroyed.
  [[nodiscard]] std::unique_ptr<Scope> span(const std::string &Name) {
    if (!On)
      return std::make_unique<Scope>();
    Rec R;
    R.Name = Name;
    R.Op = CurOp;
    R.Parent = Open.empty() ? -1 : int(Open.back());
    R.StartUs = nowUs();
    Spans.push_back(R);
    Open.push_back(Spans.size() - 1);
    return std::make_unique<Scope>(this, Spans.size() - 1);
  }

  void setOp(uint64_t Op) { CurOp = Op; }

  bool writeFile(const std::string &Path) const {
    JsonValue A = JsonValue::array();
    for (size_t I = 0; I < Spans.size(); ++I) {
      const Rec &R = Spans[I];
      JsonValue S = JsonValue::object();
      S.set("id", JsonValue(int64_t(I)));
      S.set("parent", JsonValue(int64_t(R.Parent)));
      S.set("op", JsonValue(int64_t(R.Op)));
      S.set("name", JsonValue(R.Name));
      S.set("start_us", JsonValue(R.StartUs));
      S.set("end_us", JsonValue(R.EndUs));
      A.push_back(std::move(S));
    }
    std::ofstream OS(Path, std::ios::binary);
    OS << support::writeJson(A);
    return OS.good();
  }

private:
  struct Rec {
    std::string Name;
    uint64_t Op = 0;
    int Parent = -1;
    double StartUs = 0, EndUs = 0;
  };

  double nowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - Epoch)
        .count();
  }
  void close(size_t Index) {
    Spans[Index].EndUs = nowUs();
    if (!Open.empty() && Open.back() == Index)
      Open.pop_back();
  }

  bool On;
  Clock::time_point Epoch;
  uint64_t CurOp = 0;
  std::vector<Rec> Spans;
  std::vector<size_t> Open;
};

//===----------------------------------------------------------------------===//
// setup
//===----------------------------------------------------------------------===//

/// The instrumentation a `--mode profile` run uses (reportProfile).
core::InstrumentationConfig profileConfig() {
  core::InstrumentationConfig Cfg = core::InstrumentationConfig::full();
  Cfg.GlobalMemoryOnly = false;
  return Cfg;
}

/// Per-app set-up times, one array of per-rep milliseconds per app.
using AppTimes = std::map<std::string, std::vector<double>>;

JsonValue appTimesToJson(const AppTimes &Times) {
  JsonValue Doc = JsonValue::object();
  for (const auto &[App, Ms] : Times)
    Doc.set(App, numArray(Ms));
  return Doc;
}

int cmdSetup(const Args &A) {
  std::vector<std::string> Apps = splitList(A.need("apps"));
  long Reps = std::max(1L, A.num("reps", 3));
  AppTimes Times;
  for (long R = 0; R < Reps; ++R)
    for (const std::string &Name : Apps) {
      const workloads::Workload &W = findApp(Name);
      ir::Context Ctx;
      auto T0 = Clock::now();
      frontend::CompileResult CR = workloads::compileWorkload(W, Ctx);
      if (!CR.succeeded())
        die(CR.firstError(W.SourceFile));
      core::InstrumentationEngine(profileConfig()).run(*CR.M);
      std::unique_ptr<gpusim::Program> P = gpusim::Program::compile(*CR.M);
      Times[Name].push_back(msBetween(T0, Clock::now()));
    }
  JsonValue Doc = JsonValue::object();
  Doc.set("setup_ms", appTimesToJson(Times));
  printDoc(Doc);
  return 0;
}

//===----------------------------------------------------------------------===//
// simulate / pin
//===----------------------------------------------------------------------===//

/// One what-if re-simulation setting: a device preset and the
/// horizontal-bypass warp count (-1 = every warp uses L1).
struct SimConfig {
  std::string Arch;
  int WarpsUsingL1 = -1;
  std::string str() const {
    return Arch + ":" + std::to_string(WarpsUsingL1);
  }
};

std::vector<SimConfig> parseConfigs(const std::string &S) {
  std::vector<SimConfig> Out;
  for (const std::string &Item : splitList(S)) {
    size_t Colon = Item.find(':');
    if (Colon == std::string::npos)
      die("bad config '" + Item + "' (want arch:warps)");
    Out.push_back({Item.substr(0, Colon),
                   int(std::strtol(Item.c_str() + Colon + 1, nullptr, 10))});
  }
  return Out;
}

struct SimResult {
  bool Ok = true;
  std::string Message;
  uint64_t Cycles = 0, WarpInsts = 0, Launches = 0;
  double Ms = 0; ///< Runtime set-up, Workload::Run and teardown.
};

/// One simulation; the runtime and its guest memory are released
/// before this returns.
void simulateInto(const workloads::Workload &W, const gpusim::Program &P,
                  const SimConfig &C, unsigned Jobs, Tracer &T,
                  SimResult &R) {
  gpusim::DeviceSpec Spec = presetSpec(C.Arch);
  Spec.Jobs = Jobs;
  runtime::Runtime RT(Spec);
  workloads::RunOptions Opts;
  Opts.WarpsUsingL1 = C.WarpsUsingL1;
  workloads::RunOutcome Out;
  {
    auto S = T.span("gpusim.simulate");
    Out = W.Run(RT, P, Opts);
  }
  R.Ok = Out.Ok;
  R.Message = Out.Message;
  R.Cycles = Out.totalKernelCycles();
  for (const gpusim::KernelStats &S : Out.Launches)
    R.WarpInsts += S.WarpInstructions;
  R.Launches = Out.Launches.size();
}

SimResult simulateOnce(const workloads::Workload &W, const gpusim::Program &P,
                       const SimConfig &C, unsigned Jobs, Tracer &T) {
  SimResult R;
  auto T0 = Clock::now();
  {
    auto OpSpan = T.span("op.simulate");
    simulateInto(W, P, C, Jobs, T, R);
  }
  R.Ms = msBetween(T0, Clock::now());
  return R;
}

struct CompiledApp {
  const workloads::Workload *W = nullptr;
  ir::Context Ctx;
  std::unique_ptr<ir::Module> M;
  std::unique_ptr<gpusim::Program> P;
};

/// Compiles and decodes every app (uninstrumented), \p Reps times,
/// keeping the last; appends each app's per-rep milliseconds to \p Times
/// when given.
void compileApps(const std::vector<std::string> &Names, long Reps,
                 std::vector<std::unique_ptr<CompiledApp>> &Out, Tracer &T,
                 AppTimes *Times = nullptr) {
  for (long R = 0; R < Reps; ++R) {
    Out.clear();
    for (const std::string &Name : Names) {
      auto T0 = Clock::now();
      auto C = std::make_unique<CompiledApp>();
      C->W = &findApp(Name);
      T.setOp(0);
      {
        auto S = T.span("frontend.parse");
        frontend::CompileResult CR = workloads::compileWorkload(*C->W, C->Ctx);
        if (!CR.succeeded())
          die(CR.firstError(C->W->SourceFile));
        C->M = std::move(CR.M);
      }
      {
        auto S = T.span("gpusim.decode");
        C->P = gpusim::Program::compile(*C->M);
      }
      Out.push_back(std::move(C));
      if (Times)
        (*Times)[Name].push_back(msBetween(T0, Clock::now()));
    }
  }
}

using PinMap = std::map<std::string, std::pair<uint64_t, uint64_t>>;

PinMap loadPins(const std::string &Path) {
  JsonValue Doc;
  std::string Error;
  std::ifstream IS(Path, std::ios::binary);
  std::stringstream Buf;
  Buf << IS.rdbuf();
  if (!IS.good() && !IS.eof())
    die("cannot read pins '" + Path + "'");
  if (!support::parseJson(Buf.str(), Doc, Error))
    die("pins '" + Path + "': " + Error);
  PinMap Pins;
  const JsonValue *Sims = Doc.find("simulations");
  if (!Sims)
    die("pins '" + Path + "' has no 'simulations'");
  for (size_t I = 0; I < Sims->size(); ++I) {
    const JsonValue &E = Sims->at(I);
    Pins[E.find("app")->asString() + "|" + E.find("config")->asString()] = {
        uint64_t(E.find("cycles")->asDouble()),
        uint64_t(E.find("warp_insts")->asDouble())};
  }
  return Pins;
}

int cmdPin(const Args &A) {
  std::vector<std::string> Apps = splitList(A.need("apps"));
  std::vector<SimConfig> Configs = parseConfigs(A.need("configs"));
  std::vector<std::unique_ptr<CompiledApp>> Compiled;
  Tracer T(false);
  compileApps(Apps, 1, Compiled, T);
  JsonValue Sims = JsonValue::array();
  for (const auto &C : Compiled)
    for (const SimConfig &Cfg : Configs) {
      SimResult R = simulateOnce(*C->W, *C->P, Cfg, 1, T);
      if (!R.Ok)
        die(std::string(C->W->Name) + ": " + R.Message);
      JsonValue E = JsonValue::object();
      E.set("app", JsonValue(C->W->Name));
      E.set("config", JsonValue(Cfg.str()));
      E.set("cycles", JsonValue(int64_t(R.Cycles)));
      E.set("warp_insts", JsonValue(int64_t(R.WarpInsts)));
      Sims.push_back(std::move(E));
    }
  JsonValue Doc = JsonValue::object();
  Doc.set("jobs", JsonValue(int64_t(1)));
  Doc.set("simulations", Sims);
  printDoc(Doc);
  return 0;
}

JsonValue simOpToJson(const std::string &App, const SimConfig &C,
                      const SimResult &R, const std::string &Failure) {
  JsonValue E = JsonValue::object();
  E.set("app", JsonValue(App));
  E.set("config", JsonValue(C.str()));
  E.set("ms", JsonValue(R.Ms));
  E.set("cycles", JsonValue(int64_t(R.Cycles)));
  E.set("warp_insts", JsonValue(int64_t(R.WarpInsts)));
  E.set("launches", JsonValue(int64_t(R.Launches)));
  E.set("failure", JsonValue(Failure));
  return E;
}

/// The oracle for one simulation: validation passed and the counts
/// equal the pinned Jobs = 1 values. Empty when it holds.
std::string simFailure(const std::string &App, const SimConfig &C,
                       const SimResult &R, const PinMap &Pins) {
  if (!R.Ok)
    return "validation: " + R.Message;
  auto It = Pins.find(App + "|" + C.str());
  if (It == Pins.end())
    return "no pinned value";
  if (It->second.first != R.Cycles)
    return "cycles " + std::to_string(R.Cycles) + " != pinned " +
           std::to_string(It->second.first);
  if (It->second.second != R.WarpInsts)
    return "warp_insts " + std::to_string(R.WarpInsts) + " != pinned " +
           std::to_string(It->second.second);
  return "";
}

int cmdSimulate(const Args &A) {
  std::vector<std::string> Apps = splitList(A.need("apps"));
  std::vector<SimConfig> Configs = parseConfigs(A.need("configs"));
  unsigned Jobs = unsigned(A.num("jobs", 4));
  long Passes = std::max(1L, A.num("passes", 1));
  long SetupReps = std::max(1L, A.num("setup-reps", 1));
  PinMap Pins = loadPins(A.need("pins"));
  std::string SpansPath = A.get("spans");
  Tracer T(false);

  std::vector<std::unique_ptr<CompiledApp>> Compiled;

  uint64_t OpId = 0;
  auto RunPass = [&](unsigned PassJobs, JsonValue &Ops) {
    auto P0 = Clock::now();
    for (const auto &C : Compiled)
      for (const SimConfig &Cfg : Configs) {
        T.setOp(++OpId);
        SimResult R = simulateOnce(*C->W, *C->P, Cfg, PassJobs, T);
        JsonValue E = simOpToJson(C->W->Name, Cfg, R,
                                  simFailure(C->W->Name, Cfg, R, Pins));
        E.set("op", JsonValue(int64_t(OpId)));
        Ops.push_back(std::move(E));
      }
    return msBetween(P0, Clock::now()) / 1000.0;
  };

  // A burst of set-up repetitions before every pass spreads the set-up
  // samples over the run, so they are not all taken in one phase of the
  // host's load.
  JsonValue Ops = JsonValue::array();
  std::vector<double> PassS;
  AppTimes SetupMs;
  for (long Pass = 0; Pass < Passes; ++Pass) {
    compileApps(Apps, SetupReps, Compiled, T, &SetupMs);
    PassS.push_back(RunPass(Jobs, Ops));
  }
  JsonValue Doc = JsonValue::object();
  Doc.set("setup_ms", appTimesToJson(SetupMs));
  Doc.set("pass_s", numArray(PassS));
  Doc.set("ops", Ops);

  // Traced runs add one recorded set-up and pass after the untraced
  // ones and one more untraced pass after it, so untraced passes bracket
  // the traced one; then the same simulations at Jobs = 1 for the
  // parallel schedule's speedup.
  if (!SpansPath.empty()) {
    T.enable(true);
    compileApps(Apps, 1, Compiled, T);
    JsonValue TracedOps = JsonValue::array();
    Doc.set("traced_pass_s", JsonValue(RunPass(Jobs, TracedOps)));
    Doc.set("traced_ops", TracedOps);
    T.enable(false);
    JsonValue AfterOps = JsonValue::array();
    Doc.set("after_pass_s", JsonValue(RunPass(Jobs, AfterOps)));
    Doc.set("after_ops", AfterOps);
    JsonValue Serial = JsonValue::array();
    RunPass(1, Serial);
    Doc.set("serial_ops", Serial);
    if (!T.writeFile(SpansPath))
      die("cannot write '" + SpansPath + "'");
  }
  printDoc(Doc);
  return 0;
}

//===----------------------------------------------------------------------===//
// check
//===----------------------------------------------------------------------===//

bool readArtifact(const std::string &Path, core::ProfileArtifact &Out) {
  std::string Error;
  if (!core::readProfileArtifact(Path, Out, Error)) {
    std::fprintf(stderr, "perfbench-harness: %s\n", Error.c_str());
    return false;
  }
  return true;
}

/// Deterministic-section diff of \p Current against \p Baseline, limited
/// to the apps \p Current holds; empty when every metric is unchanged.
std::string diffFailure(const core::ProfileArtifact &Baseline,
                        const core::ProfileArtifact &Current,
                        uint64_t &Unchanged, double &DiffMs) {
  core::DiffOptions Opts;
  Opts.DetTolerancePct = 0.0;
  for (const core::WorkloadProfile &W : Current.Workloads)
    Opts.Apps.push_back(W.App);
  auto T0 = Clock::now();
  core::DiffResult R = core::diffArtifacts(Baseline, Current, Opts);
  DiffMs = msBetween(T0, Clock::now());
  const core::DeltaCounts &D = R.Deterministic;
  Unchanged = D.Unchanged;
  if (Current.Workloads.empty())
    return "artifact holds no workload";
  if (D.Improved || D.Regressed || D.New || D.Missing)
    return "deterministic delta: " + std::to_string(D.Improved) +
           " improved, " + std::to_string(D.Regressed) + " regressed, " +
           std::to_string(D.New) + " new, " + std::to_string(D.Missing) +
           " missing";
  return "";
}

int cmdCheck(const Args &A) {
  core::ProfileArtifact Baseline;
  if (!readArtifact(A.need("baseline"), Baseline))
    die("cannot read baseline");
  JsonValue Results = JsonValue::array();
  for (const std::string &Path : splitList(A.need("artifacts"))) {
    core::ProfileArtifact Cur;
    std::string Failure = "unreadable artifact";
    uint64_t Unchanged = 0;
    double DiffMs = 0;
    if (readArtifact(Path, Cur))
      Failure = diffFailure(Baseline, Cur, Unchanged, DiffMs);
    JsonValue E = JsonValue::object();
    E.set("path", JsonValue(Path));
    E.set("unchanged", JsonValue(int64_t(Unchanged)));
    E.set("diff_ms", JsonValue(DiffMs));
    E.set("failure", JsonValue(Failure));
    Results.push_back(std::move(E));
  }
  JsonValue Doc = JsonValue::object();
  Doc.set("artifacts", Results);
  printDoc(Doc);
  return 0;
}

//===----------------------------------------------------------------------===//
// loadgen
//===----------------------------------------------------------------------===//

/// "app@sample" with sample "exact" or a --sample spec.
struct DaemonRequest {
  std::string App, Sample;
};

std::vector<DaemonRequest> parseRequests(const std::string &S) {
  std::vector<DaemonRequest> Out;
  for (const std::string &Item : splitList(S)) {
    size_t At = Item.find('@');
    if (At == std::string::npos)
      die("bad request '" + Item + "' (want app@exact|app@<sample>)");
    Out.push_back({Item.substr(0, At), Item.substr(At + 1)});
  }
  return Out;
}

std::string requestJson(const DaemonRequest &R) {
  server::JobRequest Req;
  Req.K = server::JobRequest::Kind::Profile;
  Req.App = R.App;
  if (R.Sample != "exact")
    Req.Sample = R.Sample;
  return support::writeJson(server::requestToJson(Req));
}

struct JobRecord {
  size_t Request = 0;
  bool Cold = false;
  double Ms = 0;
  bool Hit = false;
  unsigned Retries = 0;
  std::string Failure;
  std::string ArtifactBytes;
};

/// Submits \p Order (indices into \p Reqs) from \p Clients closed-loop
/// threads; each thread sends its next request once the previous one
/// is answered.
void runJobs(const std::string &Socket, const std::vector<DaemonRequest> &Reqs,
             const std::vector<size_t> &Order, bool Cold, unsigned Clients,
             std::vector<JobRecord> &Out) {
  size_t Base = Out.size();
  Out.resize(Base + Order.size());
  std::atomic<size_t> Next{0};
  std::vector<std::string> Bodies;
  for (const DaemonRequest &R : Reqs)
    Bodies.push_back(requestJson(R));
  std::vector<std::thread> Pool;
  for (unsigned C = 0; C < Clients; ++C)
    Pool.emplace_back([&] {
      for (size_t I = Next.fetch_add(1); I < Order.size();
           I = Next.fetch_add(1)) {
        JobRecord &J = Out[Base + I];
        J.Request = Order[I];
        J.Cold = Cold;
        auto T0 = Clock::now();
        server::SubmitResult S =
            server::submitWithRetry(Socket, Bodies[Order[I]]);
        J.Ms = msBetween(T0, Clock::now());
        J.Retries = S.Attempts ? S.Attempts - 1 : 0;
        if (!S.TransportOk)
          J.Failure = S.RetriesExhausted ? "retries exhausted"
                                         : "transport: " + S.Error;
        else if (!S.Response.ok())
          J.Failure = "job error: " + S.Response.ErrorCode;
        else {
          J.Hit = S.Response.CacheHit;
          J.ArtifactBytes = support::writeJson(S.Response.Artifact);
        }
      }
    });
  for (std::thread &T : Pool)
    T.join();
}

bool artifactFromBytes(const std::string &Bytes, core::ProfileArtifact &Out) {
  JsonValue Doc;
  std::string Error;
  return support::parseJson(Bytes, Doc, Error) &&
         core::artifactFromJson(Doc, Out, Error);
}

int cmdLoadgen(const Args &A) {
  std::string Socket = A.need("socket");
  std::vector<DaemonRequest> Reqs = parseRequests(A.need("requests"));
  unsigned Clients = unsigned(std::max(1L, A.num("clients", 2)));
  std::vector<size_t> ColdOrder, WarmOrder;
  for (const std::string &S : splitList(A.need("cold")))
    ColdOrder.push_back(std::strtoul(S.c_str(), nullptr, 10));
  for (const std::string &S : splitList(A.need("warm")))
    WarmOrder.push_back(std::strtoul(S.c_str(), nullptr, 10));
  for (size_t I : ColdOrder)
    if (I >= Reqs.size())
      die("cold index out of range");
  for (size_t I : WarmOrder)
    if (I >= Reqs.size())
      die("warm index out of range");

  std::vector<JobRecord> Jobs;
  auto T0 = Clock::now();
  runJobs(Socket, Reqs, ColdOrder, /*Cold=*/true, Clients, Jobs);
  auto T1 = Clock::now();
  runJobs(Socket, Reqs, WarmOrder, /*Cold=*/false, Clients, Jobs);
  auto T2 = Clock::now();

  // Oracles, outside the timed passes. A cold job must miss; a warm one
  // must hit and return exactly its miss's bytes.
  std::vector<const std::string *> MissBytes(Reqs.size(), nullptr);
  for (JobRecord &J : Jobs) {
    if (!J.Cold || !J.Failure.empty())
      continue;
    if (J.Hit)
      J.Failure = "cold request served from cache";
    else
      MissBytes[J.Request] = &J.ArtifactBytes;
  }
  for (JobRecord &J : Jobs) {
    if (J.Cold || !J.Failure.empty())
      continue;
    if (!J.Hit)
      J.Failure = "warm request missed the cache";
    else if (!MissBytes[J.Request] || *MissBytes[J.Request] != J.ArtifactBytes)
      J.Failure = "hit bytes differ from the miss";
  }
  // Each sampled artifact must lie within its declared tolerance bands
  // of the same app's exact artifact.
  std::map<std::string, const std::string *> ExactBytes;
  for (size_t I = 0; I < Reqs.size(); ++I)
    if (Reqs[I].Sample == "exact" && MissBytes[I])
      ExactBytes[Reqs[I].App] = MissBytes[I];
  uint64_t BoundsChecked = 0;
  double BoundsMs = 0;
  for (JobRecord &J : Jobs) {
    const DaemonRequest &R = Reqs[J.Request];
    if (!J.Cold || !J.Failure.empty() || R.Sample == "exact")
      continue;
    auto It = ExactBytes.find(R.App);
    core::ProfileArtifact Exact, Sampled;
    if (It == ExactBytes.end() || !artifactFromBytes(*It->second, Exact) ||
        !artifactFromBytes(J.ArtifactBytes, Sampled)) {
      J.Failure = "no exact artifact to bound the sampled one";
      continue;
    }
    auto B0 = Clock::now();
    core::SamplingBoundsResult B =
        core::checkSamplingBounds(Exact, Sampled, {});
    BoundsMs += msBetween(B0, Clock::now());
    BoundsChecked += B.Checked;
    if (B.GateFailed || B.Checked == 0)
      J.Failure = "sampling bounds: " + std::to_string(B.Violations) +
                  " of " + std::to_string(B.Checked) + " estimates out";
  }

  JsonValue Ops = JsonValue::array();
  for (const JobRecord &J : Jobs) {
    JsonValue E = JsonValue::object();
    E.set("request", JsonValue(Reqs[J.Request].App + "@" +
                               Reqs[J.Request].Sample));
    E.set("cold", JsonValue(J.Cold));
    E.set("ms", JsonValue(J.Ms));
    E.set("hit", JsonValue(J.Hit));
    E.set("retries", JsonValue(int64_t(J.Retries)));
    E.set("bytes", JsonValue(int64_t(J.ArtifactBytes.size())));
    E.set("failure", JsonValue(J.Failure));
    Ops.push_back(std::move(E));
  }
  JsonValue Doc = JsonValue::object();
  Doc.set("cold_s", JsonValue(msBetween(T0, T1) / 1000.0));
  Doc.set("warm_s", JsonValue(msBetween(T1, T2) / 1000.0));
  Doc.set("bounds_checked", JsonValue(int64_t(BoundsChecked)));
  Doc.set("bounds_ms", JsonValue(BoundsMs));
  Doc.set("ops", Ops);
  printDoc(Doc);
  return 0;
}

//===----------------------------------------------------------------------===//
// replay
//===----------------------------------------------------------------------===//

/// Counts one replayed profile contributes to the per-layer metrics.
struct ReplayCounts {
  uint64_t Sites = 0, Launches = 0, WarpInsts = 0, HookEvents = 0,
           Cycles = 0, Retained = 0, SampledIn = 0, SampledOut = 0,
           ArtifactBytes = 0, ArtifactMetrics = 0;
  JsonValue toJson() const {
    JsonValue V = JsonValue::object();
    V.set("sites", JsonValue(int64_t(Sites)));
    V.set("launches", JsonValue(int64_t(Launches)));
    V.set("warp_insts", JsonValue(int64_t(WarpInsts)));
    V.set("hook_events", JsonValue(int64_t(HookEvents)));
    V.set("sim_cycles", JsonValue(int64_t(Cycles)));
    V.set("events_retained", JsonValue(int64_t(Retained)));
    V.set("sampled_in", JsonValue(int64_t(SampledIn)));
    V.set("sampled_out", JsonValue(int64_t(SampledOut)));
    V.set("artifact_bytes", JsonValue(int64_t(ArtifactBytes)));
    V.set("artifact_metrics", JsonValue(int64_t(ArtifactMetrics)));
    return V;
  }
};

size_t metricCount(const core::WorkloadProfile &WP) {
  return WP.Metrics.size() + WP.StaticModel.size() +
         WP.CycleAccounting.size() + WP.Sampling.size() + WP.Advice.size() +
         WP.Wall.size();
}

/// The state one profiled run owns (mirrors cuadvisor's ProfiledApp).
struct Profiled {
  ir::Context Ctx;
  std::unique_ptr<ir::Module> M;
  core::InstrumentationInfo Info;
  std::unique_ptr<gpusim::Program> Prog;
  std::unique_ptr<runtime::Runtime> RT;
  core::Profiler Prof;
  workloads::RunOutcome Outcome;
  double SimulateMs = 0;
};

/// The standalone per-pass analysis timings, run after the pipeline and
/// outside the conservation sum.
JsonValue standalonePasses(const Profiled &P, const workloads::Workload &W,
                           const gpusim::DeviceSpec &Spec) {
  auto Time = [](auto &&Fn) {
    auto T0 = Clock::now();
    Fn();
    return msBetween(T0, Clock::now());
  };
  const auto &Profiles = P.Prof.profiles();
  JsonValue V = JsonValue::object();
  V.set("rd_ms", JsonValue(Time([&] {
          core::ReuseDistanceConfig Line;
          Line.Gran = core::ReuseDistanceConfig::Granularity::CacheLine;
          Line.LineBytes = Spec.L1LineBytes;
          for (const auto &KP : Profiles) {
            core::analyzeReuseDistance(*KP, {});
            core::analyzeReuseDistance(*KP, Line);
          }
        })));
  V.set("md_ms", JsonValue(Time([&] {
          for (const auto &KP : Profiles)
            core::analyzeMemoryDivergence(*KP, Spec.L1LineBytes);
        })));
  V.set("bd_ms", JsonValue(Time([&] {
          for (const auto &KP : Profiles)
            core::analyzeBranchDivergence(*KP);
        })));
  V.set("bank_ms", JsonValue(Time([&] {
          for (const auto &KP : Profiles)
            core::analyzeBankConflicts(*KP);
        })));
  V.set("bypass_ms", JsonValue(Time([&] {
          core::adviseBypassForRun(P.Prof, Spec, W.WarpsPerCTA);
        })));
  V.set("heat_ms", JsonValue(Time([&] {
          core::computeObjectHeat(P.Prof, Spec.L1LineBytes);
        })));
  V.set("cycle_ms", JsonValue(Time([&] {
          core::summarizeCycleAccounting(P.Prof);
        })));
  V.set("inspect_ms", JsonValue(Time([&] {
          core::runInspections({P.Prof, *P.M, Spec, W.WarpsPerCTA});
        })));
  if (Spec.Sampling.enabled())
    V.set("sampling_ms", JsonValue(Time([&] {
            core::WorkloadProfile Scratch;
            core::appendSamplingSection(Scratch, P.Prof, Spec);
          })));
  return V;
}

/// What the daemon derives a cache key from (JobRunner::run): printed
/// IR, the canonical request and the device spec text.
std::string replayCacheKey(const ir::Module &M, const DaemonRequest &R,
                           const gpusim::DeviceSpec &Spec) {
  server::JobRequest Req;
  Req.K = server::JobRequest::Kind::Profile;
  Req.App = R.App;
  Req.Sample = Spec.Sampling.enabled() ? Spec.Sampling.str() : "";
  return server::cacheKeyFor(ir::printModule(M),
                             support::writeJson(server::requestToJson(Req)),
                             Spec.Name + "|sample=" + Spec.Sampling.str());
}

/// Where a replay runs and what it is replaying.
struct ReplayContext {
  std::string Arch;
  bool Daemon = false;     ///< Replay a cuadvisord job, not a CLI run.
  std::string ArtifactDir; ///< CLI replays write their artifact here.
  server::ArtifactCache *Cache = nullptr; ///< Daemon replays only.
};

/// Replays one operation: the calls cuadvisor's profileApp +
/// reportProfile make for one app, or the calls JobRunner::run makes for
/// one daemon job, each wrapped in a span. The op's wall time is taken
/// around its root span; teardown and the standalone analysis passes
/// (run only when \p StandalonePasses) fall outside it.
JsonValue replayOne(const DaemonRequest &R, const ReplayContext &Ctx,
                    Tracer &T, uint64_t OpId, bool StandalonePasses) {
  const workloads::Workload &W = findApp(R.App);
  server::JobRunnerOptions JobDefaults;
  gpusim::DeviceSpec Spec = presetSpec(Ctx.Arch);
  Spec.Jobs = 1;
  if (Ctx.Daemon)
    Spec.WatchdogCycleBudget = JobDefaults.DefaultWatchdogCycles;
  if (R.Sample != "exact") {
    std::string Why;
    if (!gpusim::SamplingSpec::parse(R.Sample, Spec.Sampling, Why))
      die("bad sample spec '" + R.Sample + "': " + Why);
  }
  T.setOp(OpId);
  auto P = std::make_unique<Profiled>();
  ReplayCounts Counts;
  std::string Failure, ArtifactPath, Key, Bytes;
  bool Hit = false;
  auto O0 = Clock::now();
  {
    auto OpSpan = T.span(Ctx.Daemon ? "op.daemon_job" : "op.cli_profile");
    {
      auto S = T.span("frontend.parse");
      frontend::CompileResult CR = workloads::compileWorkload(W, P->Ctx);
      if (!CR.succeeded())
        die(CR.firstError(W.SourceFile));
      P->M = std::move(CR.M);
    }
    if (Ctx.Daemon) {
      {
        auto S = T.span("server.cache_key");
        Key = replayCacheKey(*P->M, R, Spec);
      }
      auto S = T.span("server.cache_lookup");
      Hit = Ctx.Cache->lookup(Key, Bytes);
    }
    if (Hit) {
      auto S = T.span("artifact.parse");
      core::ProfileArtifact Loaded;
      if (!artifactFromBytes(Bytes, Loaded))
        Failure = "cache entry does not parse";
      Counts.ArtifactBytes = Bytes.size();
    } else {
      {
        auto S = T.span("instrument");
        P->Info = core::InstrumentationEngine(profileConfig()).run(*P->M);
      }
      {
        auto S = T.span("gpusim.decode");
        P->Prog = gpusim::Program::compile(*P->M);
      }
      {
        auto S = T.span("runtime.setup");
        P->RT = std::make_unique<runtime::Runtime>(Spec);
        if (Ctx.Daemon)
          P->Prof.setTraceBufferPolicy(
              {JobDefaults.DefaultTraceCapacityEvents,
               /*SampleBackoff=*/true});
        P->Prof.attach(*P->RT);
        P->Prof.setInstrumentationInfo(&P->Info);
        P->Prof.setSamplingSpec(Spec.Sampling);
      }
      {
        auto S = T.span("gpusim.simulate");
        auto S0 = Clock::now();
        P->Outcome = W.Run(*P->RT, *P->Prog, {});
        P->SimulateMs = msBetween(S0, Clock::now());
      }
      if (!P->Outcome.Ok)
        Failure = "run failed: " + P->Outcome.Message;
      core::ProfileArtifact Art;
      Art.Preset = Ctx.Arch;
      {
        auto S = T.span("analysis.build");
        core::WorkloadProfileInputs In{P->Prof,
                                       *P->M,
                                       Spec,
                                       W.WarpsPerCTA,
                                       &P->RT->faultLog(),
                                       &P->RT->counters(),
                                       P->SimulateMs};
        Art.Workloads.push_back(core::buildWorkloadProfile(W.Name, In));
      }
      {
        auto S = T.span("artifact.serialize");
        Bytes = support::writeJson(core::artifactToJson(Art));
        if (!Ctx.Daemon) {
          ArtifactPath = Ctx.ArtifactDir + "/" + W.Name + ".json";
          std::ofstream OS(ArtifactPath, std::ios::binary);
          OS << Bytes;
          if (!OS.good())
            Failure = "cannot write " + ArtifactPath;
        }
      }
      if (Ctx.Daemon && Failure.empty()) {
        auto S = T.span("server.cache_store");
        std::string Error;
        if (!Ctx.Cache->store(Key, Bytes, Error))
          Failure = "cache store: " + Error;
      }
      Counts.Sites = P->Info.Sites.size();
      for (const auto &KP : P->Prof.profiles()) {
        const gpusim::KernelStats &S = KP->Stats;
        ++Counts.Launches;
        Counts.WarpInsts += S.WarpInstructions;
        Counts.HookEvents += S.HookInvocations;
        Counts.Cycles += S.Cycles;
        Counts.Retained += KP->retainedEvents();
        Counts.SampledIn += S.HookSampledIn;
        Counts.SampledOut += S.HookSampledOut;
      }
      Counts.ArtifactBytes = Bytes.size();
      Counts.ArtifactMetrics = metricCount(Art.Workloads.back());
    }
  }
  double OpMs = msBetween(O0, Clock::now());
  JsonValue E = JsonValue::object();
  E.set("op", JsonValue(int64_t(OpId)));
  E.set("request", JsonValue(R.App + "@" + R.Sample));
  E.set("hit", JsonValue(Hit));
  E.set("ms", JsonValue(OpMs));
  E.set("counts", Counts.toJson());
  E.set("artifact", JsonValue(ArtifactPath));
  E.set("failure", JsonValue(Failure));
  if (StandalonePasses && !Hit)
    E.set("passes", standalonePasses(*P, W, Spec));
  return E;
}

int cmdReplay(const Args &A) {
  std::vector<DaemonRequest> Reqs = parseRequests(A.need("requests"));
  std::string OutDir = A.need("out-dir");
  std::string SpansPath = A.get("spans");
  Tracer T(false);
  // Each request runs untraced, traced, then untraced again, so the two
  // untraced copies bracket the traced one and warm-up or drift over the
  // replay falls on both sides of the tracing overhead. Every copy has
  // its own artifact directory and cache. A daemon replay submits every
  // request twice: the miss that computes and stores, then the hit that
  // derives the key and loads the entry.
  const char *Variants[] = {"untraced-a", "traced", "untraced-b"};
  std::vector<std::unique_ptr<server::ArtifactCache>> Caches;
  std::vector<ReplayContext> Ctxs;
  for (const char *V : Variants) {
    ReplayContext Ctx;
    Ctx.Arch = A.get("arch", "kepler16");
    Ctx.Daemon = A.get("as") == "daemon";
    Ctx.ArtifactDir = OutDir + "/" + V;
    std::filesystem::create_directories(Ctx.ArtifactDir);
    Caches.push_back(std::make_unique<server::ArtifactCache>(
        Ctx.Daemon ? Ctx.ArtifactDir + "/cache" : ""));
    Ctx.Cache = Caches.back().get();
    Ctxs.push_back(Ctx);
  }
  JsonValue Ops = JsonValue::array();
  uint64_t OpId = 0;
  for (int Round = 0; Round < (Ctxs[0].Daemon ? 2 : 1); ++Round)
    for (const DaemonRequest &R : Reqs)
      for (size_t V = 0; V < Ctxs.size(); ++V) {
        bool Traced = V == 1;
        T.enable(Traced);
        JsonValue E = replayOne(R, Ctxs[V], T, ++OpId, Traced);
        E.set("variant", JsonValue(std::string(Variants[V])));
        Ops.push_back(std::move(E));
      }
  T.enable(false);
  JsonValue Doc = JsonValue::object();
  Doc.set("ops", Ops);
  if (!SpansPath.empty() && !T.writeFile(SpansPath))
    die("cannot write '" + SpansPath + "'");
  printDoc(Doc);
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc < 2)
    die("usage: perfbench-harness setup|simulate|pin|check|loadgen|replay "
        "--key value ...");
  Args A(Argc, Argv);
  std::string Cmd = Argv[1];
  if (Cmd == "setup")
    return cmdSetup(A);
  if (Cmd == "simulate")
    return cmdSimulate(A);
  if (Cmd == "pin")
    return cmdPin(A);
  if (Cmd == "check")
    return cmdCheck(A);
  if (Cmd == "loadgen")
    return cmdLoadgen(A);
  if (Cmd == "replay")
    return cmdReplay(A);
  die("unknown subcommand '" + Cmd + "'");
}
