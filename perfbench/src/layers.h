/**
 * @file
 * The three measured workloads of perfbench.  Each one is set up,
 * then measured for a wall-time budget; every call into the system
 * under test goes through its public functions (Compiler::compile,
 * CompiledKernel::prepare, MarionetteMachine::run,
 * CompiledKernel::validate, serve::ServeCore::trySubmit) and is
 * timed from outside.  A Tracer, when enabled, records one span
 * around each of those calls.
 */

#ifndef PERFBENCH_LAYERS_H
#define PERFBENCH_LAYERS_H

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "compiler/compiler.h"
#include "harness.h"
#include "serve/server.h"
#include "sim/config.h"

namespace perfbench
{

/** The 10x10 paper_eval primary fabric: 512 KiB scratchpad, 64 KiB
 *  instruction memory, default simulator settings (event-driven,
 *  fast-forward on). */
marionette::MachineConfig primaryFabric();

/** A measured value and its unit. */
struct Metric
{
    double value = 0;
    std::string unit;
};
using MetricMap = std::map<std::string, Metric>;

/** Operations attempted, failed, and whether any output diverged
 *  silently (a wrong answer that no error reported). */
struct Outcome
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void ok() { ++attempted; }
    /** A reported failure: rejected, errored or unserved. */
    void fail(const std::string &why);
    /** A wrong output with no error attached. */
    void diverge(const std::string &why);
};

/** Expected compile status of one Table-5 kernel. */
struct Expectation
{
    bool compiles = false;
    /** Pass expected to reject it (empty when it compiles). */
    std::string failedPass;
};
using Expectations = std::map<std::string, Expectation>;

/** Parse "MS=structure,VI=ok,..." (ok = compiles); throws
 *  std::invalid_argument on a malformed entry. */
Expectations parseExpectations(const std::string &text);

/** What one measurement window produced. */
struct Measurement
{
    /** End-to-end metrics except setup_s and peak_rss_mb. */
    MetricMap endToEnd;
    /** Per-layer metrics this workload exercised. */
    MetricMap layers;
    /** Operations the window timed (suites, passes, requests). */
    std::size_t ops = 0;
    /** Wall time of the window (µs). */
    std::int64_t wallMicros = 0;
    /** Start of the window on the tracer clock (µs). */
    std::int64_t startMicros = 0;
    /** HostSpeed::factor() over the window. */
    double hostFactor = 1;
    /** Raw p99 request latency (serve_open only). */
    double latencyP99Ms = 0;
};

// ----------------------------------------------------- compile_cold

/** Cold (cache-less) compiles of all 13 Table-5 workloads. */
class CompileSuite
{
  public:
    CompileSuite(const marionette::MachineConfig &fabric,
                 Expectations expectations, std::uint64_t seed);

    /** Build every workload's inputs once: its CDFG profile (with
     *  the golden run's trace) and its machine data. */
    void setup();

    /** Compile the suite in a seeded order until @p seconds pass
     *  (at least once), sampling @p speed before each compile. */
    Measurement measure(double seconds, Tracer &tracer,
                        Outcome &outcome, HostSpeed &speed);

    /** The kernels the last suite compile produced, in registry
     *  order (used by the simulation workload's set-up). */
    const std::vector<std::shared_ptr<const marionette::CompiledKernel>> &
    kernels() const
    { return kernels_; }

    /** One suite compile, sampling @p speed before each kernel;
     *  returns its wall time (ms) without the sampling. */
    double compileOnce(Tracer &tracer, Outcome &outcome,
                       MetricMap *per_kernel_ms,
                       std::map<std::string, double> *pass_us,
                       HostSpeed *speed = nullptr);

  private:
    marionette::Compiler compiler_;
    Expectations expectations_;
    std::uint64_t seed_;
    int round_ = 0;
    /** encodeProgram() bytes of each kernel's first compile. */
    std::map<std::string, std::vector<std::uint32_t>> firstBytes_;
    std::vector<std::shared_ptr<const marionette::CompiledKernel>>
        kernels_;
};

// ------------------------------------------------------ kernels_sim

/** prepare -> run -> validate over every kernel that compiles. */
class KernelSim
{
  public:
    KernelSim(const marionette::MachineConfig &fabric,
              Expectations expectations, std::uint64_t seed);

    /** Cold-compile the suite (the kernels the loop runs). */
    void setup(Tracer &tracer, Outcome &outcome);

    /** Run passes in a seeded order until @p seconds pass (at
     *  least one), sampling @p speed before each kernel. */
    Measurement measure(double seconds, Tracer &tracer,
                        Outcome &outcome, HostSpeed &speed);

    /** Per-layer compiler metrics of the last set-up compile. */
    const MetricMap &setupLayers() const { return setupLayers_; }

  private:
    marionette::MachineConfig fabric_;
    CompileSuite suite_;
    std::uint64_t seed_;
    MetricMap setupLayers_;
};

// ------------------------------------------------------- serve_open

/** Knobs of one open-loop serving window. */
struct ServeLoad
{
    double rate = 40;
    int requests = 1000;
};

/** Open-loop Poisson load into a ServeCore with two whole-fabric
 *  lanes. */
class ServeOpen
{
  public:
    ServeOpen(const marionette::MachineConfig &fabric,
              std::uint64_t seed);
    ~ServeOpen();

    ServeOpen(const ServeOpen &) = delete;
    ServeOpen &operator=(const ServeOpen &) = delete;

    /** Start a fresh core and warm its program and snapshot caches
     *  until every lane has served every mix kernel. */
    void setup(Outcome &outcome);

    /** Serve @p load on the seed's arrival schedule while a fourth
     *  thread samples @p speed every 100 ms. */
    Measurement measure(const ServeLoad &load, Tracer &tracer,
                        Outcome &outcome, HostSpeed &speed);

  private:
    marionette::MachineConfig fabric_;
    std::uint64_t seed_;
    std::unique_ptr<marionette::serve::ServeCore> core_;
};

/** The serving mix (kernel, weight). */
struct MixEntry
{
    const char *workload;
    double weight;
};
const std::vector<MixEntry> &serveMix();

/** Tenants in the serving load (Zipf(1.1) popularity). */
inline constexpr int kTenants = 6;

} // namespace perfbench

#endif // PERFBENCH_LAYERS_H
