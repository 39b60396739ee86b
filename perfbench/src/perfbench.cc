/**
 * @file
 * perfbench: one benchmark for compile, simulate and serve.
 *
 *   perfbench --workload <compile_cold|kernels_sim|serve_open>
 *             --seed <n> --seconds <s> --trace <0|1>
 *             --expect <K=pass,...> [--commit <id>]
 *             [--source-digest <hex>] [--out-dir <dir>]
 *
 * Normally started through perfbench/run.py, which builds this
 * binary and passes the committed compile-coverage expectations.
 * Untraced runs (--trace 0) print the end-to-end metrics; traced
 * runs print the per-layer metrics, a per-layer self-time table and
 * the tracing overhead, and write a Chrome trace-event file.  The
 * last line of standard output is the result object; the exit code
 * is 1 when any output diverged silently, 2 on a usage error.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "arch/machine.h"
#include "harness.h"
#include "layers.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#ifdef __clang__
constexpr const char *kCompiler = "clang " __VERSION__;
#else
constexpr const char *kCompiler = "gcc " __VERSION__;
#endif

using namespace perfbench;

namespace
{

/** Set-ups per run; setup_s is their median. */
constexpr int kSetupRepeats = 3;
/** Offered load of serve_open. */
constexpr double kServeRate = 40;
/** Requests in a probe or ladder window: enough that p99 leaves ten
 *  samples beyond it. */
constexpr int kMinServeRequests = 1000;
/** Ladder rates above the workload's own (requests per second). */
constexpr double kLadderRates[2] = {60, 80};
/** Stated latency limit of the ladder (p99, from the due time). */
constexpr double kLatencyLimitMs = 250;

struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0;
    bool trace = false;
    Expectations expectations;
    std::string commit = "unavailable";
    std::string sourceDigest = "unavailable";
    std::string outDir = ".bench_out";
};

[[noreturn]] void
usage(const std::string &why)
{
    throw std::invalid_argument(why);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    bool have_seed = false, have_seconds = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage("missing value after " + arg);
        const std::string value = argv[++i];
        char *end = nullptr;
        if (arg == "--workload") {
            o.workload = value;
        } else if (arg == "--seed") {
            o.seed = std::strtoull(value.c_str(), &end, 10);
            have_seed = *end == '\0' && !value.empty();
        } else if (arg == "--seconds") {
            o.seconds = std::strtod(value.c_str(), &end);
            have_seconds = *end == '\0' && o.seconds > 0 &&
                           o.seconds <= 600;
        } else if (arg == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace takes 0 or 1");
            o.trace = value == "1";
        } else if (arg == "--expect") {
            o.expectations = parseExpectations(value);
        } else if (arg == "--commit") {
            o.commit = value;
        } else if (arg == "--source-digest") {
            o.sourceDigest = value;
        } else if (arg == "--out-dir") {
            o.outDir = value;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (o.workload != "compile_cold" && o.workload != "kernels_sim" &&
        o.workload != "serve_open")
        usage("--workload must be compile_cold, kernels_sim or "
              "serve_open");
    if (!have_seed || !have_seconds)
        usage("--seed and --seconds (0 < s <= 600) are required");
    if (o.expectations.empty())
        usage("--expect is required");
    return o;
}

double
peakRssMb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0;
}

void
printEnv(const Options &o)
{
    const marionette::MachineConfig fabric = primaryFabric();
    JsonObject env;
    env.str("workload", o.workload)
        .num("seed", static_cast<double>(o.seed))
        .num("seconds", o.seconds)
        .num("trace", o.trace ? 1 : 0)
        .num("nproc", std::thread::hardware_concurrency())
        .str("compiler", kCompiler)
        .str("build_type", PERFBENCH_BUILD_TYPE)
        .str("git_commit", o.commit)
        .str("source_digest", o.sourceDigest)
        .str("fabric", std::to_string(fabric.rows) + "x" +
                           std::to_string(fabric.cols))
        .num("eventDrivenSim", fabric.eventDrivenSim ? 1 : 0)
        .num("fastForward", fabric.fastForward ? 1 : 0)
        .num("offered_rps", o.workload == "serve_open" ? kServeRate : 0);
    std::printf("env %s\n", env.render().c_str());
}

/** Time @p fn kSetupRepeats times, sampling @p speed between them;
 *  returns the median (seconds). */
template <typename Fn>
double
timedSetup(HostSpeed &speed, Fn &&fn)
{
    const auto sample = [&speed] {
        for (int i = 0; i < 5; ++i)
            speed.sample();
    };
    std::vector<double> times;
    for (int i = 0; i < kSetupRepeats; ++i) {
        sample();
        const auto t0 = Clock::now();
        fn();
        times.push_back(
            std::chrono::duration<double>(Clock::now() - t0).count());
    }
    sample();
    return median(times);
}

/** The arrivals of @p seconds at @p rate, never fewer than p99
 *  needs. */
ServeLoad
serveLoad(double rate, double seconds)
{
    return {rate, std::max(kMinServeRequests,
                           static_cast<int>(rate * seconds + 0.5))};
}

/** One run of a workload: set-up, then the measured window. */
struct WorkloadRun
{
    double setupSeconds = 0;
    double setupFactor = 1;
    /** The measured window (traced under --trace 1). */
    Measurement window;
    /** The same window untraced, for the overhead (--trace 1 only). */
    Measurement untraced;
    /** Per-layer metrics from set-up (kernels_sim's compiles). */
    MetricMap setupLayers;
};

/** Fill the per-layer metrics the workload did not exercise with one
 *  untraced probe per missing layer. */
void
probeMissingLayers(const Options &o, MetricMap &layers,
                   Outcome &outcome)
{
    Tracer off(false);
    HostSpeed speed;
    const auto fabric = primaryFabric();
    if (!layers.count("arch.prepare_us")) {
        KernelSim sim(fabric, o.expectations, o.seed);
        sim.setup(off, outcome);
        const Measurement m = sim.measure(0, off, outcome, speed);
        layers.insert(m.layers.begin(), m.layers.end());
        layers.insert(sim.setupLayers().begin(),
                      sim.setupLayers().end());
    }
    if (!layers.count("serve.wait_ms.p50")) {
        ServeOpen serve(fabric, o.seed);
        serve.setup(outcome);
        const Measurement m = serve.measure(
            {kServeRate, kMinServeRequests}, off, outcome, speed);
        layers.insert(m.layers.begin(), m.layers.end());
    }
}

/** The serving rate ladder: the workload's own untraced window plus
 *  kLadderRates, each against kLatencyLimitMs.  Latencies are raw
 *  host times. */
void
runLadder(ServeOpen &serve, const Measurement &own, Outcome &outcome)
{
    std::printf("\nserving rate ladder (limit: p99 <= %.0f ms from the "
                "due time, no rejections, goodput >= 95%% of offered)\n",
                kLatencyLimitMs);
    std::printf("  %8s %9s %10s %10s %12s %11s %6s\n", "rate_rps",
                "requests", "p50_ms", "p99_ms", "goodput_rps",
                "host_factor", "meets");
    Tracer off(false);
    double best = 0;
    for (double rate : {kServeRate, kLadderRates[0], kLadderRates[1]}) {
        Outcome rung;
        HostSpeed speed;
        const Measurement m =
            rate == kServeRate
                ? own
                : serve.measure({rate, kMinServeRequests}, off, rung,
                                speed);
        outcome.correct = outcome.correct && rung.correct;
        const std::uint64_t failed =
            rate == kServeRate ? outcome.failed : rung.failed;
        const double p99 = m.latencyP99Ms;
        const double goodput = m.endToEnd.at("goodput_per_s").value;
        // A backlog that keeps growing shows as goodput falling
        // behind the offered rate over the rung.
        const bool meets = failed == 0 && p99 <= kLatencyLimitMs &&
                           goodput >= 0.95 * rate;
        if (meets)
            best = std::max(best, rate);
        std::printf("  %8.0f %9zu %10.3f %10.3f %12.3f %11.3f %6s\n",
                    rate, m.ops, m.endToEnd.at("op_p50_ms").value, p99,
                    goodput, m.hostFactor, meets ? "yes" : "no");
    }
    std::printf("  highest rate meeting the limit: %.0f rps (a "
                "diagnostic: the ladder steps by 20 rps)\n",
                best);
}

void
printSelfTimes(const Options &o, const Tracer &tracer,
               const Measurement &m)
{
    const std::vector<Span> spans = tracer.spans();
    const double wall_ms = static_cast<double>(m.wallMicros) / 1e3;
    std::printf("\nper-layer self time, traced window %.1f ms\n",
                wall_ms);
    std::map<std::string, double> by_layer;
    std::printf("  %-24s %-9s %8s %12s\n", "span", "layer", "count",
                "self_ms");
    for (const SelfTimeRow &row : selfTimes(spans)) {
        by_layer[row.layer] += row.selfMs;
        std::printf("  %-24s %-9s %8llu %12.3f\n", row.name.c_str(),
                    row.layer.c_str(),
                    static_cast<unsigned long long>(row.count),
                    row.selfMs);
    }
    std::printf("  layer totals:");
    for (const auto &[layer, ms] : by_layer)
        std::printf(" %s %.3f ms;", layer.c_str(), ms);
    std::printf("\n");

    std::set<std::string> tracks;
    for (const Span &s : spans)
        if (!s.track.empty())
            tracks.insert(s.track);
    for (const std::string &track : tracks) {
        const double spanned =
            static_cast<double>(rootMicros(spans, track)) / 1e3;
        std::printf("  track %-10s spans %12.3f ms, unaccounted "
                    "%12.3f ms (%.2f%% of the window)\n",
                    track.c_str(), spanned, wall_ms - spanned,
                    100.0 * (wall_ms - spanned) / wall_ms);
    }

    const std::string path = o.outDir + "/trace-" + o.workload +
                             "-seed" + std::to_string(o.seed) + ".json";
    std::ofstream out(path);
    out << chromeTraceJson(spans);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    std::printf("  trace: %s (%zu spans; open in ui.perfetto.dev)\n",
                path.c_str(), spans.size());
}

/** The run's end-to-end numbers under their workload-specific
 *  names (perfbench/README.md maps each onto a generic metric). */
void
printWorkloadNames(const std::string &workload, const MetricMap &m,
                   const Measurement &window)
{
    const auto row = [](const char *name, double value,
                        const char *unit) {
        std::printf("%-36s %16.6g  %s\n", name, value, unit);
    };
    std::printf("\n%s, by workload-specific name:\n", workload.c_str());
    if (workload == "compile_cold") {
        row("compile_suite_s", m.at("op_p50_ms").value / 1e3, "s");
    } else if (workload == "kernels_sim") {
        row("suite_run_s", m.at("op_p50_ms").value / 1e3, "s");
        row("mapped_cycles_geomean", m.at("cycles_geomean").value,
            "cycles");
        row("kernels_bit_exact", m.at("kernels_ok").value, "count");
    } else {
        row("serve_latency_p50_ms", m.at("op_p50_ms").value, "ms");
        row("serve_latency_p90_ms", m.at("op_tail_ms").value, "ms");
        row("serve_latency_p99_ms (raw)", window.latencyP99Ms, "ms");
        row("serve_goodput_rps", m.at("goodput_per_s").value, "1/s");
    }
    row("failed_frac", 1.0 - m.at("ok_frac").value, "fraction");
}

/** Reference-normalized end-to-end times: each time divided by the
 *  host factor over the span it was measured in.  Goodput scales
 *  too, except under an open loop, where the offered rate sets it. */
void
normalize(MetricMap &m, double window_factor, double setup_factor,
          bool closed_loop)
{
    m.at("op_p50_ms").value /= window_factor;
    m.at("op_tail_ms").value /= window_factor;
    if (closed_loop)
        m.at("goodput_per_s").value *= window_factor;
    m.at("setup_s").value /= setup_factor;
}

int
run(const Options &o)
{
    printEnv(o);
    const auto fabric = primaryFabric();
    Outcome outcome;
    Tracer off(false);
    Tracer tracer(o.trace);
    HostSpeed setup_speed, unwindow_speed, window_speed;
    WorkloadRun r;

    if (o.workload == "compile_cold") {
        CompileSuite suite(fabric, o.expectations, o.seed);
        r.setupSeconds = timedSetup(setup_speed, [&] { suite.setup(); });
        if (o.trace)
            r.untraced =
                suite.measure(o.seconds, off, outcome, unwindow_speed);
        r.window = suite.measure(o.seconds, tracer, outcome, window_speed);
    } else if (o.workload == "kernels_sim") {
        KernelSim sim(fabric, o.expectations, o.seed);
        r.setupSeconds =
            timedSetup(setup_speed, [&] { sim.setup(off, outcome); });
        r.setupLayers = sim.setupLayers();
        if (o.trace)
            r.untraced =
                sim.measure(o.seconds, off, outcome, unwindow_speed);
        r.window = sim.measure(o.seconds, tracer, outcome, window_speed);
    } else {
        ServeOpen serve(fabric, o.seed);
        r.setupSeconds =
            timedSetup(setup_speed, [&] { serve.setup(outcome); });
        const ServeLoad load = serveLoad(kServeRate, o.seconds);
        if (o.trace)
            r.untraced = serve.measure(load, off, outcome, unwindow_speed);
        r.window = serve.measure(load, tracer, outcome, window_speed);
        if (o.trace)
            runLadder(serve, r.untraced, outcome);
    }
    r.setupFactor = setup_speed.factor();

    MetricMap metrics;
    if (o.trace) {
        metrics = r.window.layers;
        metrics.insert(r.setupLayers.begin(), r.setupLayers.end());
        printSelfTimes(o, tracer, r.window);
        const double t = r.window.endToEnd.at("op_p50_ms").value /
                         r.window.hostFactor;
        const double u = r.untraced.endToEnd.at("op_p50_ms").value /
                         r.untraced.hostFactor;
        std::printf("\ntracing overhead: reference-normalized op_p50_ms "
                    "traced %.3f - untraced %.3f = %+.3f ms (%+.2f%%)\n",
                    t, u, t - u, 100.0 * (t - u) / u);
        probeMissingLayers(o, metrics, outcome);
    } else {
        metrics = r.window.endToEnd;
        metrics["setup_s"] = {r.setupSeconds, "s"};
        metrics["peak_rss_mb"] = {peakRssMb(), "MB"};
        metrics["ok_frac"] = {
            outcome.attempted > 0
                ? 1.0 - static_cast<double>(outcome.failed) /
                            static_cast<double>(outcome.attempted)
                : 0,
            "fraction"};
        std::printf("\nraw host times: op_p50_ms %.6g, op_tail_ms %.6g, "
                    "goodput_per_s %.6g, setup_s %.6g; host factor %.4f "
                    "over the window (%zu reference samples), %.4f over "
                    "set-up\n",
                    metrics.at("op_p50_ms").value,
                    metrics.at("op_tail_ms").value,
                    metrics.at("goodput_per_s").value,
                    metrics.at("setup_s").value, r.window.hostFactor,
                    window_speed.samples(), r.setupFactor);
        normalize(metrics, r.window.hostFactor, r.setupFactor,
                  o.workload != "serve_open");
    }

    std::printf("\n%-36s %16s  %s\n", "metric", "value", "unit");
    for (const auto &[name, metric] : metrics)
        std::printf("%-36s %16.6g  %s\n", name.c_str(), metric.value,
                    metric.unit.c_str());
    if (!o.trace)
        printWorkloadNames(o.workload, metrics, r.window);

    JsonObject metric_json;
    for (const auto &[name, metric] : metrics)
        metric_json.add(name, JsonObject()
                                  .num("value", metric.value)
                                  .str("unit", metric.unit)
                                  .render());
    JsonObject result;
    result.add("correct", outcome.correct ? "true" : "false")
        .num("attempted", static_cast<double>(outcome.attempted))
        .num("failed", static_cast<double>(outcome.failed))
        .add("metrics", metric_json.render());
    std::printf("%s\n", result.render().c_str());
    std::fflush(stdout);
    return outcome.correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(parseArgs(argc, argv));
    } catch (const std::invalid_argument &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 2;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: error: %s\n", e.what());
        return 2;
    }
}
