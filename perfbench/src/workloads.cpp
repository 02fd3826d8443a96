// The benchmark's four workloads, each one rep at a time (see ../README.md).
//
// Every figure is read from outside the library: wall time around the
// benchmark's own calls into the harnesses, and the counters the layers
// already expose (Simulator fired/near/far counts, ShardedSim window and
// stall telemetry, TpuClient and ShardedCluster outcome totals, the
// AdmissionController, TpuPool, TpuDevice busy time and swaps, SimTransport
// message counts).

#include <algorithm>
#include <array>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "models/zoo.hpp"
#include "orch/spec.hpp"
#include "perfbench.hpp"
#include "scenario/spec.hpp"
#include "testbed/sharded_cluster.hpp"
#include "testbed/testbed.hpp"
#include "util/histogram.hpp"
#include "util/logging.hpp"
#include "util/rng.hpp"
#include "util/strings.hpp"

namespace perfbench {
namespace {

using namespace microedge;

// Timed phases advance simulated time in slices of this length; pending
// event counts are sampled at every slice boundary.
constexpr std::int64_t kSliceNs = 100'000'000;
// After a workload stops its streams it runs this long to drain in-flight
// frames to their terminal outcomes.
constexpr SimDuration kDrain = seconds(2);
// The latency bound the simulated SLO metrics judge frames against.
constexpr SimDuration kSlo = milliseconds(60);

double toD(std::uint64_t v) { return static_cast<double>(v); }
double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }
std::int64_t nsOf(SimDuration d) { return d.count(); }

// FNV-1a fold used for the digests of the Testbed workload.
std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  return (h ^ v) * 1099511628211ull;
}
constexpr std::uint64_t kFnvOffset = 14695981039346656037ull;
std::uint64_t fnvDouble(std::uint64_t h, double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  return fnv(h, bits);
}

// --- Event-engine probes -----------------------------------------------------

struct EngineTotals {
  std::uint64_t fired = 0;
  std::uint64_t near = 0;
  std::uint64_t far = 0;
};

EngineTotals engineTotals(const std::vector<Simulator*>& sims) {
  EngineTotals t;
  for (const Simulator* sim : sims) {
    t.fired += sim->firedCount();
    t.near += sim->nearCount();
    t.far += sim->farCount();
  }
  return t;
}

std::vector<Simulator*> simsOf(ShardedSim& sharded) {
  std::vector<Simulator*> sims;
  for (unsigned s = 0; s < sharded.shardCount(); ++s) {
    sims.push_back(&sharded.shardSim(s));
  }
  return sims;
}

std::uint64_t stallTotal(const ShardedSim* sharded) {
  std::uint64_t ns = 0;
  if (sharded == nullptr) return 0;
  for (std::uint64_t v : sharded->shardStallNanos()) ns += v;
  return ns;
}

// Pending-event samples taken at slice boundaries.
struct PendingStats {
  double nearSum = 0.0;
  double farSum = 0.0;
  double max = 0.0;
  std::uint64_t samples = 0;

  void add(const EngineTotals& t) {
    nearSum += toD(t.near);
    farSum += toD(t.far);
    max = std::max(max, toD(t.near + t.far));
    ++samples;
  }
  void store(Rep& rep) const {
    rep.sim["sim.pending_near_mean"] = ratio(nearSum, toD(samples));
    rep.sim["sim.pending_far_mean"] = ratio(farSum, toD(samples));
    rep.sim["sim.pending_max"] = max;
  }
};

// Runs one slice through `advance`, records it as a span with the events it
// fired, the pending counts after it and the barrier stall it added, and
// returns its wall time in seconds.
template <typename Advance>
double tracedSlice(Tracer& tracer, std::uint32_t parent,
                   const std::vector<Simulator*>& sims,
                   const ShardedSim* sharded, PendingStats& pending,
                   Advance&& advance) {
  const std::uint32_t span = tracer.begin("slice", parent);
  const std::uint64_t fired = engineTotals(sims).fired;
  const std::uint64_t stall = stallTotal(sharded);
  const Clock::time_point t0 = Clock::now();
  advance();
  const double wallS = secondsBetween(t0, Clock::now());
  const EngineTotals after = engineTotals(sims);
  pending.add(after);
  tracer.counter(span, "events", toD(after.fired - fired));
  tracer.counter(span, "near", toD(after.near));
  tracer.counter(span, "far", toD(after.far));
  tracer.counter(span, "stall_ns", toD(stallTotal(sharded) - stall));
  tracer.end(span);
  return wallS;
}

// --- TPU probes --------------------------------------------------------------

struct TpuSnapshot {
  std::vector<std::int64_t> busyNs;
  std::vector<std::size_t> invocations;
  std::uint64_t swaps = 0;
};

TpuSnapshot snapTpus(const ClusterTopology& topology) {
  TpuSnapshot s;
  for (const auto& tpu : topology.tpus()) {
    s.busyNs.push_back(nsOf(tpu->busyTime()));
    s.invocations.push_back(tpu->invocations());
    s.swaps += tpu->swapCount();
  }
  return s;
}

// Busy shares over a window of `windowNs` simulated nanoseconds: over every
// TPU in the cluster (tpu_util) and over the TPUs that served at least one
// invoke in the window (dataplane.tpu_busy_share, core.tpus_used).
void storeTpuShares(const TpuSnapshot& a, const TpuSnapshot& b,
                    std::int64_t windowNs, Rep& rep) {
  double busy = 0.0;
  double usedBusy = 0.0;
  std::size_t used = 0;
  for (std::size_t i = 0; i < a.busyNs.size(); ++i) {
    const double d = static_cast<double>(b.busyNs[i] - a.busyNs[i]);
    busy += d;
    if (b.invocations[i] > a.invocations[i]) {
      usedBusy += d;
      ++used;
    }
  }
  const double window = static_cast<double>(windowNs);
  rep.sim["tpu_util"] = ratio(busy, window * toD(a.busyNs.size()));
  rep.sim["dataplane.tpu_busy_share"] = ratio(usedBusy, window * toD(used));
  rep.sim["core.tpus_used"] = toD(used);
  rep.sim["dataplane.model_swaps"] = toD(b.swaps);
}

// --- Shared ShardedCluster rep pieces ----------------------------------------

// Outcome totals, the terminal-outcome gate and the outcome metrics of a
// drained ShardedCluster.
void storeClusterOutcomes(ShardedCluster& cluster, Rep& rep) {
  const std::uint64_t submitted = cluster.totalSubmitted();
  std::uint64_t terminal = 0;
  for (std::size_t o = 0; o < kFrameOutcomeCount; ++o) {
    const auto outcome = static_cast<FrameOutcome>(o);
    if (outcome != FrameOutcome::kInFlight) {
      terminal += cluster.outcomeTotal(outcome);
    }
  }
  if (submitted != terminal) {
    rep.violations.push_back(strCat("submitted ", submitted,
                                    " != terminal outcomes ", terminal));
  }
  std::uint64_t failovers = 0;
  std::uint64_t joined = 0;
  for (std::size_t i = 0; i < cluster.streamCount(); ++i) {
    const ShardedCluster::StreamStats stats = cluster.streamStats(i);
    failovers += stats.failovers;
    if (stats.joined) ++joined;
  }
  const std::uint64_t completed = cluster.totalCompleted();
  rep.framesSubmitted = submitted;
  rep.digest = cluster.digest();
  rep.sim["frame_completed_ratio"] = ratio(toD(completed), toD(submitted));
  rep.sim["frame_fail_ratio"] = 1.0 - ratio(toD(completed), toD(submitted));
  rep.sim["admit_ratio"] = ratio(toD(joined), toD(cluster.streamCount()));
  rep.sim["core.admitted"] = toD(joined);
  rep.sim["core.rejected"] = toD(cluster.streamCount() - joined);
  rep.sim["core.repacks"] = toD(cluster.totalRepacks());
  rep.sim["core.degrade_downs"] = toD(cluster.totalDegradeDowns());
  rep.sim["core.degrade_ups"] = toD(cluster.totalDegradeUps());
  rep.sim["dataplane.completed"] = toD(completed);
  rep.sim["dataplane.timed_out"] = toD(cluster.outcomeTotal(FrameOutcome::kTimedOut));
  rep.sim["dataplane.shed"] = toD(cluster.outcomeTotal(FrameOutcome::kShed));
  rep.sim["dataplane.admission_rejected"] =
      toD(cluster.outcomeTotal(FrameOutcome::kAdmissionRejected));
  rep.sim["dataplane.dead_target"] =
      toD(cluster.outcomeTotal(FrameOutcome::kDroppedDeadTarget));
  rep.sim["dataplane.failovers"] = toD(failovers);
  rep.sim["dataplane.transport_msgs"] =
      toD(cluster.dataPlane().transport().messagesSent());
}

// Window telemetry deltas over the timed phase.
struct WindowTotals {
  std::size_t windows = 0;
  std::size_t adaptive = 0;
  std::size_t relief = 0;
  std::size_t cross = 0;
};

WindowTotals windowTotals(const ShardedSim& s) {
  return {s.windowCount(), s.adaptiveWindowCount(), s.reliefWindowCount(),
          s.crossShardMessages()};
}

// Engine metrics of a timed phase.
void storeEngine(Rep& rep, std::uint64_t events, std::uint64_t frames,
                 double wallS, const WindowTotals& w0, const WindowTotals& w1,
                 std::uint64_t stallNs, unsigned shards) {
  const double windows = toD(w1.windows - w0.windows);
  rep.sim["sim.events"] = toD(events);
  rep.sim["sim.events_per_frame"] = ratio(toD(events), toD(frames));
  rep.sim["sharded.windows"] = windows;
  rep.sim["sharded.events_per_window"] = ratio(toD(events), windows);
  rep.sim["sharded.adaptive_windows"] = toD(w1.adaptive - w0.adaptive);
  rep.sim["sharded.relief_windows"] = toD(w1.relief - w0.relief);
  rep.sim["sharded.cross_msgs"] = toD(w1.cross - w0.cross);
  rep.host["sim.ns_per_event"] = ratio(wallS * 1e9, toD(events));
  rep.host["sharded.stall_share"] =
      shards > 1 ? ratio(toD(stallNs), toD(shards) * wallS * 1e9) : 0.0;
  rep.host["frames_per_s"] = ratio(toD(frames), wallS);
}

// Builds a ShardedCluster as the rep's timed setup. Returns null (with the
// failure recorded) when the harness reports a setup error.
std::unique_ptr<ShardedCluster> buildCluster(ShardedClusterConfig config,
                                             Tracer& tracer,
                                             std::uint32_t root, Rep& rep) {
  ScopedSpan span(tracer, "setup ShardedCluster", root);
  const std::uint64_t a0 = allocCount();
  const Clock::time_point t0 = Clock::now();
  auto cluster = std::make_unique<ShardedCluster>(std::move(config));
  rep.host["setup_s"] = secondsBetween(t0, Clock::now());
  rep.host["alloc.setup_count"] = toD(allocCount() - a0);
  if (!cluster->setupStatus().isOk()) {
    rep.violations.push_back("setup: " + cluster->setupStatus().toString());
    return nullptr;
  }
  return cluster;
}

// --- city-solo / city-sharded ------------------------------------------------

// The 100k-stream city slice: 1000 racks x (2 tRPi + 8 vRPi), ten 1 fps
// streams per RPi, every 5th stream cross-rack and deadline-free.
ShardedClusterConfig cityConfig(const Options& o, unsigned shards) {
  ShardedClusterConfig c;
  c.shards = shards;
  c.racks = o.scale == Scale::kTiny ? 8 : 1000;
  c.tRpisPerRack = 2;
  c.vRpisPerRack = 8;
  c.tpusPerTRpi = 1;
  c.streamsPerVRpi = 10;
  c.streamsPerTRpi = 10;
  c.fps = 1.0;
  c.tpuUnits = 0.01;
  c.crossRackStride = 5;
  c.windowBound = ShardedSim::WindowBound::kAdaptive;
  c.rackMapping = RackMapping::kBlock;
  return c;
}

// One full 1 fps frame period plus slack, so every stream has ticked once
// (and grown its pools) before timing starts.
constexpr SimDuration kCityWarmup = milliseconds(1250);
constexpr std::int64_t kCityTimedNs = 5'000'000'000;

Rep runCity(const Options& o, Tracer& tracer, unsigned shards) {
  Rep rep;
  const std::uint32_t root =
      tracer.begin(shards == 1 ? "rep city-solo" : "rep city-sharded");
  std::unique_ptr<ShardedCluster> cluster =
      buildCluster(cityConfig(o, shards), tracer, root, rep);
  if (cluster == nullptr) {
    tracer.end(root);
    return rep;
  }
  {
    ScopedSpan span(tracer, "warmup", root);
    const Clock::time_point t0 = Clock::now();
    cluster->run(kCityWarmup);
    rep.host["testbed.warmup_s"] = secondsBetween(t0, Clock::now());
  }

  ShardedSim& sharded = cluster->shardedSim();
  const std::vector<Simulator*> sims = simsOf(sharded);
  const std::uint64_t frames0 = cluster->totalSubmitted();
  const TpuSnapshot tpu0 = snapTpus(cluster->topology());
  const WindowTotals w0 = windowTotals(sharded);
  const std::uint64_t stall0 = stallTotal(&sharded);
  const std::uint64_t fired0 = engineTotals(sims).fired;
  PendingStats pending;
  std::vector<double> sliceWalls;
  sliceWalls.reserve(kCityTimedNs / kSliceNs);
  const std::uint64_t a0 = allocCount();
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan timed(tracer, "timed", root);
    for (std::int64_t at = 0; at < kCityTimedNs; at += kSliceNs) {
      sliceWalls.push_back(
          tracedSlice(tracer, timed.id(), sims, &sharded, pending,
                      [&] { cluster->run(SimDuration{kSliceNs}); }));
    }
  }
  const double wallS = secondsBetween(t0, Clock::now());
  const std::uint64_t allocs = allocCount() - a0;
  const std::uint64_t events = engineTotals(sims).fired - fired0;
  const std::uint64_t frames = cluster->totalSubmitted() - frames0;
  storeEngine(rep, events, frames, wallS, w0, windowTotals(sharded),
              stallTotal(&sharded) - stall0, shards);
  pending.store(rep);
  storeTpuShares(tpu0, snapTpus(cluster->topology()), kCityTimedNs, rep);
  rep.host["alloc.steady_per_frame"] = ratio(toD(allocs), toD(frames));
  rep.sliceWalls = std::move(sliceWalls);
  rep.timedFrames = frames;
  if (shards == 1 && allocs != 0) {
    rep.violations.push_back(strCat("city-solo steady state made ", allocs,
                                    " allocations (must be 0)"));
  }

  {
    ScopedSpan span(tracer, "drain", root);
    cluster->stopStreams();
    cluster->run(kDrain);
  }
  storeClusterOutcomes(*cluster, rep);
  rep.harness = std::move(cluster);
  tracer.end(root);
  return rep;
}

Rep runCitySolo(const Options& o, Tracer& tracer) {
  return runCity(o, tracer, 1);
}
Rep runCitySharded(const Options& o, Tracer& tracer) {
  return runCity(o, tracer, 2);
}

std::string noInputs(const Options&) { return "{}"; }

// --- flashcrowd --------------------------------------------------------------

// The builtin flash crowd with its onset and peak factor drawn from the
// seed: onset in [3.5, 4.5] s, peak in [1.9, 2.1]x, then the builtin's 1 s ramp,
// 3 s hold, 1 s decay and 3 s of recovery.
ScenarioSpec flashSpec(std::uint64_t seed) {
  ScenarioSpec spec = builtinScenario("flashcrowd").value();
  Pcg32 rng(seed, 0xf1a5c0ffeeull);
  const double start = 3.5 + 0.25 * rng.nextBounded(5);
  const double peak = 1.9 + 0.05 * rng.nextBounded(5);
  spec.seed = seed;
  FlashCrowdSpec& flash = spec.flash.at(0);
  flash.startS = start;
  flash.peakMultiplier = peak;
  const double peakEnd = start + flash.rampS + flash.holdS;
  const double decayEnd = peakEnd + flash.decayS;
  spec.horizonS = decayEnd + 3.0;
  spec.phases = {{"baseline", start},
                 {"ramp", start + flash.rampS},
                 {"peak", peakEnd},
                 {"decay", decayEnd},
                 {"recovery", spec.horizonS}};
  return spec;
}

std::string flashInputs(const Options& o) {
  const ScenarioSpec spec = flashSpec(o.seed);
  return strCat("{\"fingerprint\": \"", spec.fingerprint(),
                "\", \"onset_s\": ", spec.flash[0].startS,
                ", \"peak\": ", spec.flash[0].peakMultiplier, "}");
}

// The `full` control bundle (60 ms deadline, per-frame admission ledger,
// fps-ladder degrader, repack supervisor) on racks of 8 streams at 24 fps
// against one TPU, so the 2x peak is ~1.7x capacity: the configuration of
// bench/bench_micro_scenario.cpp, on 200 racks instead of 2.
ShardedClusterConfig flashConfig(const Options& o) {
  ShardedClusterConfig c;
  c.shards = 1;
  c.racks = o.scale == Scale::kTiny ? 2 : 200;
  c.tRpisPerRack = 1;
  c.vRpisPerRack = 4;
  c.tpusPerTRpi = 1;
  c.streamsPerVRpi = 2;
  c.fps = 24.0;
  c.scenario.enabled = true;
  c.scenario.spec = flashSpec(o.seed);
  c.scenario.sloDeadline = kSlo;
  c.frameDeadline = kSlo;
  c.frameAdmission.enabled = true;
  c.degradation.enabled = true;
  c.repack.enabled = true;
  return c;
}

// The gate on peak-phase attainment. At the 1.9-2.1x peak the TPUs can serve
// only about 0.55-0.61 of the nominal offered frames, which is what a
// controller that only rejects would attain. The full bundle also lowers the
// offered rate and holds 0.72-0.79 over seeds 1-6. With admission, degrader
// and repack off (deadline kept) seed 1 attains 0.50.
constexpr double kPeakAttainmentFloor = 0.6;

Rep runFlashcrowd(const Options& o, Tracer& tracer) {
  Rep rep;
  const std::uint32_t root = tracer.begin("rep flashcrowd");
  std::unique_ptr<ShardedCluster> cluster =
      buildCluster(flashConfig(o), tracer, root, rep);
  if (cluster == nullptr) {
    tracer.end(root);
    return rep;
  }
  // The armed scenario runs slice by slice up to each phase end, so the
  // peak phase's attainment is read at its boundaries. It is deadline-met ÷
  // submitted over the phase: rejected, shed and timed-out frames count as
  // misses. (The harness's own phase series divides by completed frames,
  // which under a deadline equal to the SLO is 1 by construction.)
  const ScenarioSpec spec = flashSpec(o.seed);
  ShardedSim& sharded = cluster->shardedSim();
  const std::vector<Simulator*> sims = simsOf(sharded);
  const TpuSnapshot tpu0 = snapTpus(cluster->topology());
  const WindowTotals w0 = windowTotals(sharded);
  const std::uint64_t fired0 = engineTotals(sims).fired;
  PendingStats pending;
  std::vector<double> sliceWalls;
  std::uint64_t peakMet = 0;
  std::uint64_t peakSubmitted = 0;
  const std::uint64_t a0 = allocCount();
  const Clock::time_point t0 = Clock::now();
  {
    ScopedSpan run(tracer, "scenario run", root);
    std::int64_t now = 0;
    for (const PhaseSpec& phase : spec.phases) {
      const std::int64_t end = std::llround(phase.untilS * 1e9);
      if (phase.name == "peak") {
        peakMet = cluster->totalDeadlineMet();
        peakSubmitted = cluster->totalSubmitted();
      }
      while (now < end) {
        const std::int64_t to = std::min(now + kSliceNs, end);
        sliceWalls.push_back(
            tracedSlice(tracer, run.id(), sims, &sharded, pending,
                        [&] { cluster->run(SimDuration{to - now}); }));
        now = to;
      }
      if (phase.name == "peak") {
        peakMet = cluster->totalDeadlineMet() - peakMet;
        peakSubmitted = cluster->totalSubmitted() - peakSubmitted;
      }
    }
  }
  const double wallS = secondsBetween(t0, Clock::now());
  const std::uint64_t allocs = allocCount() - a0;
  const std::uint64_t frames = cluster->totalSubmitted();
  const std::int64_t horizonNs = std::llround(spec.horizonS * 1e9);
  storeEngine(rep, engineTotals(sims).fired - fired0, frames, wallS, w0,
              windowTotals(sharded), 0, 1);
  pending.store(rep);
  storeTpuShares(tpu0, snapTpus(cluster->topology()), horizonNs, rep);
  rep.host["alloc.steady_per_frame"] = ratio(toD(allocs), toD(frames));
  rep.sliceWalls = std::move(sliceWalls);
  rep.timedFrames = frames;

  const double peak = ratio(toD(peakMet), toD(peakSubmitted));
  rep.sim["scenario.peak_attainment"] = peak;
  if (peak < kPeakAttainmentFloor) {
    rep.violations.push_back(strCat("peak-phase SLO attainment ", peak, " < ",
                                    kPeakAttainmentFloor));
  }
  {
    ScopedSpan span(tracer, "drain", root);
    cluster->stopStreams();
    cluster->run(kDrain);
  }
  storeClusterOutcomes(*cluster, rep);
  const double met = toD(cluster->totalDeadlineMet());
  rep.sim["sim_slo_attainment"] = ratio(met, toD(cluster->totalSubmitted()));
  rep.sim["sim_goodput_fps"] = ratio(met, toD(horizonNs) / 1e9);
  rep.harness = std::move(cluster);
  tracer.end(root);
  return rep;
}

// --- paper-churn -------------------------------------------------------------

enum class AppKind { kCamera, kCameraDiff, kCoralPie, kBodyPix, kCascade };

const char* appName(AppKind kind) {
  switch (kind) {
    case AppKind::kCamera: return "camera";
    case AppKind::kCameraDiff: return "camera-diff";
    case AppKind::kCoralPie: return "coral-pie";
    case AppKind::kBodyPix: return "bodypix";
    case AppKind::kCascade: return "cascade";
  }
  return "?";
}

std::optional<AppKind> appKind(const std::string& name) {
  for (AppKind kind : {AppKind::kCamera, AppKind::kCameraDiff,
                       AppKind::kCoralPie, AppKind::kBodyPix,
                       AppKind::kCascade}) {
    if (name == appName(kind)) return kind;
  }
  return std::nullopt;
}

// One deploy or remove request of the churn stream. A deploy is its pod spec
// as YAML (the paper's client-facing interface): the `app` label names the
// application and a cascade's `expert` label its second model. A remove takes
// down
// the oldest live deployment, so every camera lives about as long as the
// others and the live mix follows the dealt mix.
struct ChurnOp {
  std::int64_t atNs = 0;
  bool deploy = true;
  std::string yaml;
};

struct ChurnPlan {
  std::vector<ChurnOp> initial;  // deployed during setup
  std::vector<ChurnOp> ops;      // the open-loop stream, in time order
  std::int64_t horizonNs = 0;
  std::int64_t defragEveryNs = 0;
  std::int64_t failAtNs = 0;
  std::uint64_t fingerprint = kFnvOffset;
};

constexpr double kChurnFps = 15.0;
constexpr std::int64_t kChurnSliceNs = 1'000'000'000;

TopologySpec churnTopology(const Options& o) {
  TopologySpec t;
  const bool tiny = o.scale == Scale::kTiny;
  t.vRpiCount = tiny ? 12 : 72;
  t.tRpiCount = tiny ? 4 : 24;
  t.tpusPerTRpi = 1;
  return t;
}

// The request mix is dealt from shuffled decks: every 20 deploys hold
// exactly 7 plain cameras, 4 with the difference detector, 4 Coral-Pie, 2
// BodyPix and 3 cascades, and each kind cycles evenly through its models.
// The seed moves the order and the timing, not the proportions. These and
// the rates below are chosen values, not measured traffic; README.md gives
// the reason for each.
class MixDecks {
 public:
  explicit MixDecks(Pcg32& rng) : rng_(rng) {}

  AppKind kind() {
    static constexpr AppKind kDeck[] = {
        AppKind::kCamera,     AppKind::kCamera,     AppKind::kCamera,
        AppKind::kCamera,     AppKind::kCamera,     AppKind::kCamera,
        AppKind::kCamera,     AppKind::kCameraDiff, AppKind::kCameraDiff,
        AppKind::kCameraDiff, AppKind::kCameraDiff, AppKind::kCoralPie,
        AppKind::kCoralPie,   AppKind::kCoralPie,   AppKind::kCoralPie,
        AppKind::kBodyPix,    AppKind::kBodyPix,    AppKind::kCascade,
        AppKind::kCascade,    AppKind::kCascade};
    return deal(kinds_, kDeck);
  }
  const char* genericModel() {
    static constexpr const char* kDeck[] = {
        zoo::kMobileNetV1, zoo::kMobileNetV2, zoo::kEfficientNetLite0,
        zoo::kInceptionV1, zoo::kSsdMobileNetV1};
    return deal(generic_, kDeck);
  }
  const char* expertModel() {
    static constexpr const char* kDeck[] = {zoo::kSsdMobileNetV2,
                                            zoo::kUNetV2};
    return deal(experts_, kDeck);
  }

 private:
  template <typename T, std::size_t N>
  T deal(std::vector<T>& deck, const T (&cards)[N]) {
    if (deck.empty()) {
      deck.assign(cards, cards + N);
      rng_.shuffle(deck);
    }
    const T card = deck.back();
    deck.pop_back();
    return card;
  }

  Pcg32& rng_;
  std::vector<AppKind> kinds_;
  std::vector<const char*> generic_;
  std::vector<const char*> experts_;
};

ChurnOp makeDeploy(MixDecks& decks, const ModelRegistry& zoo, int index) {
  const AppKind kind = decks.kind();
  std::string model;
  switch (kind) {
    case AppKind::kCamera:
    case AppKind::kCameraDiff:
      model = decks.genericModel();
      break;
    case AppKind::kCoralPie:
      model = zoo::kSsdMobileNetV2;
      break;
    case AppKind::kBodyPix:
      model = zoo::kBodyPixMobileNetV1;
      break;
    case AppKind::kCascade:
      model = zoo::kMobileNetV1;
      break;
  }
  PodSpec spec;
  spec.name = strCat(appName(kind), "-", index);
  spec.image = strCat("microedge/", appName(kind), ":1.0");
  spec.fps = kChurnFps;
  spec.resources = {1000, 512};
  spec.tpu = TpuRequest{model, zoo.at(model).tpuUnitsAt(kChurnFps)};
  spec.labels["app"] = appName(kind);
  if (kind == AppKind::kCascade) {
    spec.labels["expert"] = decks.expertModel();
  }
  ChurnOp op;
  op.yaml = podSpecToYaml(spec);
  return op;
}

// The seed-derived inputs: initial deployments, then deploy arrivals (4/s)
// and removals (3/s) over the horizon. The run adds a full defragment every
// 10 s and, halfway through, the failure of the most loaded TPU.
ChurnPlan churnPlan(const Options& o) {
  const bool tiny = o.scale == Scale::kTiny;
  const ModelRegistry zoo = zoo::standardZoo();
  Pcg32 rng(o.seed, 0xc4a52ull);
  ChurnPlan plan;
  plan.horizonNs = (tiny ? 10 : 300) * 1'000'000'000ll;
  plan.defragEveryNs = 10'000'000'000ll;
  plan.failAtNs = plan.horizonNs / 2;
  MixDecks decks(rng);
  int index = 0;
  const int initial = tiny ? 6 : 48;
  for (int i = 0; i < initial; ++i) {
    plan.initial.push_back(makeDeploy(decks, zoo, index++));
  }
  const double deployRate = tiny ? 1.0 : 4.0;
  const double removeRate = tiny ? 0.7 : 3.0;
  // Jittered arrivals: each gap is its mean times U(0.5, 1.5), so the seed
  // moves every request without the bursts that swing the live population.
  auto gap = [&rng](double rate) { return rng.uniform(0.5, 1.5) / rate; };
  double nextDeploy = gap(deployRate);
  double nextRemove = gap(removeRate);
  const double horizonS = static_cast<double>(plan.horizonNs) / 1e9;
  while (std::min(nextDeploy, nextRemove) < horizonS) {
    ChurnOp op;
    if (nextDeploy <= nextRemove) {
      op = makeDeploy(decks, zoo, index++);
      op.atNs = static_cast<std::int64_t>(nextDeploy * 1e3) * 1'000'000;
      nextDeploy += gap(deployRate);
    } else {
      op.deploy = false;
      op.atNs = static_cast<std::int64_t>(nextRemove * 1e3) * 1'000'000;
      nextRemove += gap(removeRate);
    }
    plan.ops.push_back(std::move(op));
  }
  std::uint64_t h = kFnvOffset;
  for (const auto* list : {&plan.initial, &plan.ops}) {
    for (const ChurnOp& op : *list) {
      h = fnv(h, static_cast<std::uint64_t>(op.atNs));
      h = fnv(h, op.deploy ? 1 : 0);
      for (char c : op.yaml) h = fnv(h, static_cast<unsigned char>(c));
    }
  }
  plan.fingerprint = h;
  return plan;
}

std::string churnInputs(const Options& o) {
  const ChurnPlan plan = churnPlan(o);
  std::size_t deploys = plan.initial.size();
  for (const ChurnOp& op : plan.ops) deploys += op.deploy ? 1 : 0;
  return strCat("{\"fingerprint\": \"", plan.fingerprint,
                "\", \"deploys\": ", deploys,
                ", \"removes\": ", plan.ops.size() + plan.initial.size() - deploys,
                "}");
}

// A deployment the benchmark made, with the app objects it reads results
// from (they stay alive in the Testbed after removal or eviction).
struct Deployed {
  AppKind kind = AppKind::kCamera;
  std::string name;
  bool live = true;
  CameraPipeline* pipeline = nullptr;  // camera, Coral-Pie detection, BodyPix
  CoralPieApp* coralPie = nullptr;
  BodyPixApp* bodyPix = nullptr;
  CascadeApp* cascade = nullptr;

  std::vector<TpuClient*> clients() const {
    if (cascade != nullptr) {
      return {&cascade->gateClient(), &cascade->expertClient()};
    }
    return {&pipeline->client()};
  }
  const SloMonitor& slo() const {
    return cascade != nullptr ? cascade->slo() : pipeline->slo();
  }
  const BreakdownAggregator& breakdown() const {
    return cascade != nullptr ? cascade->fullCascade() : pipeline->breakdown();
  }
};

class ChurnRun {
 public:
  ChurnRun(const Options& o, Tracer& tracer, Rep& rep)
      : opts_(o), tracer_(tracer), rep_(rep), plan_(churnPlan(o)) {}

  void run();

 private:
  TestbedConfig config() const {
    TestbedConfig c;
    c.topology = churnTopology(opts_);
    c.mode = SchedulingMode::kMicroEdgeWp;
    c.enableCoCompile = true;
    c.seed = opts_.seed;
    c.frameDeadline = kSlo;
    c.frameAdmission.enabled = true;
    return c;
  }
  void deploy(const ChurnOp& op, std::uint32_t parent);
  void remove(std::size_t index, std::uint32_t parent);
  void pruneEvicted();
  std::vector<std::size_t> liveIndexes() const;
  std::uint64_t clientSubmitted() const;
  void finish(std::int64_t framesNs, std::uint32_t root);

  const Options& opts_;
  Tracer& tracer_;
  Rep& rep_;
  ChurnPlan plan_;
  std::unique_ptr<Testbed> tb_;
  std::vector<Deployed> deployed_;
  std::uint64_t deployAttempts_ = 0;
  std::uint64_t deployOk_ = 0;
};

void ChurnRun::deploy(const ChurnOp& op, std::uint32_t parent) {
  ScopedSpan span(tracer_, "deploy", parent);
  ++deployAttempts_;
  const Clock::time_point t0 = Clock::now();
  StatusOr<PodSpec> spec = podSpecFromYaml(op.yaml);
  const std::optional<AppKind> kind =
      spec.isOk() ? appKind(spec->labels["app"]) : std::nullopt;
  if (!kind.has_value() || !spec->tpu.has_value()) {
    rep_.violations.push_back("bad generated pod spec: " + op.yaml);
    return;
  }
  Deployed d;
  d.kind = *kind;
  d.name = spec->name;
  bool ok = false;
  CameraDeployment cam;
  cam.name = spec->name;
  cam.model = spec->tpu->model;
  cam.tpuUnits = spec->tpu->tpuUnits;
  cam.fps = spec->fps;
  cam.cpuMillicores = spec->resources.cpuMillicores;
  cam.memoryMb = spec->resources.memoryMb;
  cam.latencyBound = kSlo;
  switch (d.kind) {
    case AppKind::kCamera:
    case AppKind::kCameraDiff: {
      cam.useDiffDetector = d.kind == AppKind::kCameraDiff;
      StatusOr<CameraPipeline*> r = tb_->deployCamera(cam);
      if ((ok = r.isOk())) d.pipeline = *r;
      break;
    }
    case AppKind::kCoralPie: {
      StatusOr<CoralPieApp*> r = tb_->deployCoralPie(cam);
      if ((ok = r.isOk())) {
        d.coralPie = *r;
        d.pipeline = &d.coralPie->detection();
      }
      break;
    }
    case AppKind::kBodyPix: {
      StatusOr<BodyPixApp*> r = tb_->deployBodyPix(cam);
      if ((ok = r.isOk())) {
        d.bodyPix = *r;
        d.pipeline = &d.bodyPix->pipeline();
      }
      break;
    }
    case AppKind::kCascade: {
      CascadeDeployment cascade;
      cascade.name = cam.name;
      cascade.gateModel = cam.model;
      cascade.expertModel = spec->labels["expert"];
      cascade.fps = cam.fps;
      cascade.cpuMillicores = cam.cpuMillicores;
      cascade.memoryMb = cam.memoryMb;
      StatusOr<CascadeApp*> r = tb_->deployCascade(cascade);
      if ((ok = r.isOk())) d.cascade = *r;
      break;
    }
  }
  rep_.deployUs.push_back(secondsBetween(t0, Clock::now()) * 1e6);
  span.counter("admitted", ok ? 1.0 : 0.0);
  if (!ok) return;
  ++deployOk_;
  deployed_.push_back(std::move(d));
}

void ChurnRun::remove(std::size_t index, std::uint32_t parent) {
  Deployed& d = deployed_[index];
  ScopedSpan span(tracer_, "remove", parent);
  const Clock::time_point t0 = Clock::now();
  Status s = Status::ok();
  switch (d.kind) {
    case AppKind::kCamera:
    case AppKind::kCameraDiff:
      s = tb_->removeCamera(d.name);
      break;
    case AppKind::kCoralPie:
      s = tb_->removeCoralPie(d.name);
      break;
    case AppKind::kBodyPix:
      // The harness has no BodyPix remover: stop the app and delete its
      // pod through the API server, as removeCamera does for cameras.
      d.bodyPix->stop();
      s = tb_->api().deletePodByName(d.name);
      break;
    case AppKind::kCascade:
      s = tb_->removeCascade(d.name);
      break;
  }
  rep_.removeUs.push_back(secondsBetween(t0, Clock::now()) * 1e6);
  d.live = false;
  if (!s.isOk()) {
    rep_.violations.push_back(strCat("remove ", d.name, ": ", s.toString()));
  }
}

// Failure recovery evicts pods it cannot replan; they leave the harness's
// live sets, so the benchmark stops treating them as removable.
void ChurnRun::pruneEvicted() {
  auto contains = [](const auto& live, const auto* app) {
    return std::find(live.begin(), live.end(), app) != live.end();
  };
  const std::vector<CoralPieApp*> coral = tb_->liveCoralPies();
  const std::vector<BodyPixApp*> bodyPix = tb_->liveBodyPixes();
  const std::vector<CascadeApp*> cascades = tb_->liveCascades();
  for (Deployed& d : deployed_) {
    if (!d.live) continue;
    switch (d.kind) {
      case AppKind::kCamera:
      case AppKind::kCameraDiff:
        d.live = tb_->findCamera(d.name) != nullptr;
        break;
      case AppKind::kCoralPie:
        d.live = contains(coral, d.coralPie);
        break;
      case AppKind::kBodyPix:
        d.live = contains(bodyPix, d.bodyPix);
        break;
      case AppKind::kCascade:
        d.live = contains(cascades, d.cascade);
        break;
    }
  }
}

std::vector<std::size_t> ChurnRun::liveIndexes() const {
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < deployed_.size(); ++i) {
    if (deployed_[i].live) live.push_back(i);
  }
  return live;
}

std::uint64_t ChurnRun::clientSubmitted() const {
  std::uint64_t n = 0;
  for (const Deployed& d : deployed_) {
    for (const TpuClient* c : d.clients()) n += c->submittedCount();
  }
  return n;
}

void ChurnRun::run() {
  const std::uint32_t root = tracer_.begin("rep paper-churn");
  {
    ScopedSpan span(tracer_, "setup Testbed", root);
    const std::uint64_t a0 = allocCount();
    const Clock::time_point t0 = Clock::now();
    tb_ = std::make_unique<Testbed>(config());
    for (const ChurnOp& op : plan_.initial) deploy(op, span.id());
    rep_.host["setup_s"] = secondsBetween(t0, Clock::now());
    rep_.host["alloc.setup_count"] = toD(allocCount() - a0);
  }
  {
    ScopedSpan span(tracer_, "warmup", root);
    const Clock::time_point t0 = Clock::now();
    tb_->run(seconds(1));
    rep_.host["testbed.warmup_s"] = secondsBetween(t0, Clock::now());
  }

  const std::vector<Simulator*> sims = {&tb_->sim()};
  const SimTime base = tb_->sim().now();
  const std::uint64_t frames0 = clientSubmitted();
  const TpuSnapshot tpu0 = snapTpus(tb_->topology());
  const std::uint64_t fired0 = engineTotals(sims).fired;
  PendingStats pending;
  std::vector<double> sliceWalls;
  std::vector<double> defragUs;
  double failUs = 0.0;
  const std::uint64_t a0 = allocCount();
  const Clock::time_point t0 = Clock::now();
  {
    // Fixed slices of simulated time; inside a slice the run pauses at every
    // request, defragment and failure time to make that call.
    ScopedSpan timed(tracer_, "timed", root);
    std::size_t next = 0;
    std::int64_t now = 0;
    std::int64_t nextDefrag = plan_.defragEveryNs;
    bool failed = false;
    while (now < plan_.horizonNs) {
      const std::int64_t sliceEnd =
          std::min(now + kChurnSliceNs, plan_.horizonNs);
      const std::uint32_t slice = tracer_.begin("slice", timed.id());
      const std::uint64_t fired = engineTotals(sims).fired;
      const Clock::time_point s0 = Clock::now();
      while (now < sliceEnd) {
        std::int64_t to = std::min(sliceEnd, nextDefrag);
        if (next < plan_.ops.size()) to = std::min(to, plan_.ops[next].atNs);
        if (!failed) to = std::min(to, plan_.failAtNs);
        if (to > now) {
          tb_->run(SimDuration{to - now});
          now = to;
        }
        for (; next < plan_.ops.size() && plan_.ops[next].atNs <= now;
             ++next) {
          const ChurnOp& op = plan_.ops[next];
          if (op.deploy) {
            deploy(op, slice);
            continue;
          }
          const std::vector<std::size_t> live = liveIndexes();
          if (live.empty()) continue;
          remove(live.front(), slice);
          ScopedSpan reclaim(tracer_, "reclaim", slice);
          tb_->pollReclamationNow();
        }
        if (now >= nextDefrag && now < plan_.horizonNs) {
          ScopedSpan span(tracer_, "defragment", slice);
          const Clock::time_point d0 = Clock::now();
          const Defragmenter::Report report = tb_->defragment(true);
          defragUs.push_back(secondsBetween(d0, Clock::now()) * 1e6);
          span.counter("pods_replanned", toD(report.podsReplanned));
          nextDefrag += plan_.defragEveryNs;
        }
        if (!failed && now >= plan_.failAtNs) {
          failed = true;
          ScopedSpan span(tracer_, "failTpu", slice);
          // The most loaded TPU (lowest id on ties): the failure that makes
          // recovery replan the most work.
          const TpuState* victim = nullptr;
          for (const TpuState& t : tb_->pool().tpus()) {
            if (victim == nullptr || t.currentLoad() > victim->currentLoad()) {
              victim = &t;
            }
          }
          const std::string tpu = victim->id();
          const Clock::time_point f0 = Clock::now();
          const FailureRecovery::Report report = tb_->failTpu(tpu);
          failUs = secondsBetween(f0, Clock::now()) * 1e6;
          span.counter("affected", toD(report.affectedPods));
          span.counter("evicted", toD(report.evictedPods));
          pruneEvicted();
        }
      }
      sliceWalls.push_back(secondsBetween(s0, Clock::now()));
      const EngineTotals after = engineTotals(sims);
      pending.add(after);
      tracer_.counter(slice, "events", toD(after.fired - fired));
      tracer_.counter(slice, "near", toD(after.near));
      tracer_.counter(slice, "far", toD(after.far));
      tracer_.counter(slice, "stall_ns", 0.0);
      tracer_.end(slice);
    }
  }
  const double wallS = secondsBetween(t0, Clock::now());
  const std::uint64_t allocs = allocCount() - a0;
  const std::uint64_t frames = clientSubmitted() - frames0;
  const std::uint64_t events = engineTotals(sims).fired - fired0;
  storeEngine(rep_, events, frames, wallS, WindowTotals{}, WindowTotals{}, 0, 1);
  pending.store(rep_);
  storeTpuShares(tpu0, snapTpus(tb_->topology()), plan_.horizonNs, rep_);
  rep_.host["alloc.steady_per_frame"] = ratio(toD(allocs), toD(frames));
  rep_.sliceWalls = std::move(sliceWalls);
  rep_.timedFrames = frames;
  rep_.host["core.defrag_us"] = [&] {
    std::sort(defragUs.begin(), defragUs.end());
    return defragUs.empty() ? 0.0 : defragUs[defragUs.size() / 2];
  }();
  rep_.host["core.fail_tpu_us"] = failUs;
  finish(plan_.horizonNs + nsOf(base - kSimEpoch), root);
  tracer_.end(root);
}

// Removes every pod, drains, checks the conservation gates and stores the
// rep's metrics. `framesNs`: simulated time during which frames flowed.
void ChurnRun::finish(std::int64_t framesNs, std::uint32_t root) {
  {
    ScopedSpan span(tracer_, "remove all", root);
    for (std::size_t i : liveIndexes()) remove(i, span.id());
    tb_->run(kDrain);
    ScopedSpan reclaim(tracer_, "reclaim", span.id());
    tb_->pollReclamationNow();
  }
  if (!tb_->pool().totalLoad().isZero()) {
    rep_.violations.push_back(
        strCat("pool still holds ", tb_->pool().totalLoad().milli(),
               " milli-units after every pod was removed"));
  }

  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failovers = 0;
  std::array<std::uint64_t, kFrameOutcomeCount> outcomes{};
  std::uint64_t h = kFnvOffset;
  for (const Deployed& d : deployed_) {
    for (const TpuClient* c : d.clients()) {
      std::uint64_t terminal = 0;
      for (std::size_t o = 0; o < kFrameOutcomeCount; ++o) {
        const std::uint64_t n = c->outcomeCount(static_cast<FrameOutcome>(o));
        outcomes[o] += n;
        if (static_cast<FrameOutcome>(o) != FrameOutcome::kInFlight) {
          terminal += n;
        }
        h = fnv(h, n);
      }
      if (terminal != c->submittedCount()) {
        rep_.violations.push_back(strCat(d.name, ": submitted ",
                                         c->submittedCount(), " != terminal ",
                                         terminal));
      }
      const AdmissionLedger& ledger = c->admissionLedger();
      if (ledger.acceptedCount() != ledger.creditedCount()) {
        rep_.violations.push_back(strCat(
            d.name, ": ledger accepted ", ledger.acceptedCount(),
            " != credited ", ledger.creditedCount()));
      }
      submitted += c->submittedCount();
      completed += c->completedCount();
      failovers += c->failoverCount();
    }
  }

  // Simulated SLO figures from every pipeline's SloMonitor, and the Fig. 7b
  // breakdown merged over every pipeline.
  Summary latency;
  Summary queue;
  Summary inference;
  Summary transmit;
  std::uint64_t sloSubmitted = 0;
  std::uint64_t withinSlo = 0;
  const double sloMs = toMilliseconds(kSlo);
  for (const Deployed& d : deployed_) {
    const SloMonitor& slo = d.slo();
    sloSubmitted += slo.submitted();
    for (double ms : slo.latency().raw().samples()) {
      if (ms <= sloMs) ++withinSlo;
    }
    latency.merge(slo.latency().raw());
    const BreakdownAggregator& b = d.breakdown();
    queue.merge(b.queueDelay().raw());
    inference.merge(b.inference().raw());
    transmit.merge(b.requestTransmit().raw());
    transmit.merge(b.responseTransmit().raw());
    h = fnv(h, slo.submitted());
    h = fnvDouble(h, slo.latency().raw().sum());
  }
  AdmissionController* admission = tb_->admissionController();
  rep_.digest = fnv(h, deployOk_);
  rep_.framesSubmitted = submitted;
  rep_.sim["frame_completed_ratio"] = ratio(toD(completed), toD(submitted));
  rep_.sim["frame_fail_ratio"] = 1.0 - ratio(toD(completed), toD(submitted));
  rep_.sim["admit_ratio"] = ratio(toD(deployOk_), toD(deployAttempts_));
  rep_.sim["sim_slo_attainment"] = ratio(toD(withinSlo), toD(sloSubmitted));
  rep_.sim["sim_goodput_fps"] = ratio(toD(withinSlo), toD(framesNs) / 1e9);
  rep_.sim["sim_latency_p50_ms"] = latency.empty() ? 0.0 : latency.p50();
  rep_.sim["sim_latency_p99_ms"] = latency.empty() ? 0.0 : latency.p99();
  rep_.sim["dataplane.queue_ms_p99"] = queue.empty() ? 0.0 : queue.p99();
  rep_.sim["dataplane.inference_ms_mean"] =
      inference.empty() ? 0.0 : inference.mean();
  // Request + response hop, the paper's "Transmission" share.
  rep_.sim["dataplane.transmit_ms_mean"] =
      transmit.empty() ? 0.0 : 2.0 * transmit.mean();
  rep_.sim["dataplane.completed"] = toD(completed);
  rep_.sim["dataplane.timed_out"] =
      toD(outcomes[static_cast<std::size_t>(FrameOutcome::kTimedOut)]);
  rep_.sim["dataplane.shed"] =
      toD(outcomes[static_cast<std::size_t>(FrameOutcome::kShed)]);
  rep_.sim["dataplane.admission_rejected"] = toD(
      outcomes[static_cast<std::size_t>(FrameOutcome::kAdmissionRejected)]);
  rep_.sim["dataplane.dead_target"] = toD(
      outcomes[static_cast<std::size_t>(FrameOutcome::kDroppedDeadTarget)]);
  rep_.sim["dataplane.failovers"] = toD(failovers);
  rep_.sim["dataplane.transport_msgs"] =
      toD(tb_->dataPlane().transport().messagesSent());
  rep_.sim["core.admitted"] = toD(admission->admittedCount());
  rep_.sim["core.rejected"] = toD(admission->rejectedCount());
  rep_.sim["core.partitioned"] = toD(admission->partitionedCount());
  rep_.sim["core.reclaimed"] = toD(tb_->reclamation().reclaimedCount());
  rep_.harness = std::move(tb_);
}

Rep runPaperChurn(const Options& o, Tracer& tracer) {
  // Failure recovery logs every eviction; keep the run's output to results.
  Logger::instance().setLevel(LogLevel::kError);
  Rep rep;
  ChurnRun(o, tracer, rep).run();
  return rep;
}

}  // namespace

const std::vector<Workload>& workloads() {
  // Why each exists: BENCHMARK.json and README.md.
  static const std::vector<Workload> kWorkloads = {
      {"city-solo", runCitySolo, noInputs},
      {"city-sharded", runCitySharded, noInputs},
      {"flashcrowd", runFlashcrowd, flashInputs},
      {"paper-churn", runPaperChurn, churnInputs},
  };
  return kWorkloads;
}

}  // namespace perfbench
