/**
 * @file
 * Self-tests of perfbench's own helpers:
 *
 *  - percentile ranks, including the ten-samples-beyond rule;
 *  - the timings-note parser, on synthetic notes and on the note of
 *    a real CompileReport;
 *  - seeded schedule determinism (visiting orders, Poisson arrivals);
 *  - self-time accounting of the span recorder;
 *  - a held-out seed check: two kernels_sim passes under seeds never
 *    used while tuning give identical simulated cycles and bit-exact
 *    counts.
 *
 *   perfbench_selftest --expect <K=pass,...>
 *
 * (python3 perfbench/run.py --selftest builds and runs it.)  Exits
 * nonzero when any check fails.
 */

#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "harness.h"
#include "layers.h"
#include "workloads/workload.h"

using namespace perfbench;

namespace
{

int failures = 0;

void
check(bool ok, const std::string &what)
{
    std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
    if (!ok)
        ++failures;
}

void
testPercentiles()
{
    std::vector<double> v;
    for (int i = 1; i <= 1000; ++i)
        v.push_back(1001 - i);
    check(percentileIndex(1000, 0.99) == 989, "p99 of 1000 is index 989");
    check(samplesBeyond(1000, 0.99) == 10, "p99 of 1000 leaves 10 beyond");
    const auto p99 = percentile(v, 0.99);
    check(p99 && *p99 == 990, "p99 of 1..1000 is 990");
    std::vector<double> short_v(v.begin(), v.begin() + 999);
    check(!percentile(short_v, 0.99),
          "p99 of 999 samples is refused (9 beyond)");
    check(median({3, 1, 2}) == 2 && median({4, 1, 3, 2}) == 2.5,
          "median takes the middle, or the mean of the two middles");
    check(tailPercentile(1000) == 0.99, "tail of 1000 samples is p99");
    check(tailPercentile(500) == 0.98, "tail of 500 samples is p98");
    check(tailPercentile(100) == 0.90, "tail of 100 samples is p90");
    check(tailPercentile(15) == 0, "15 samples support no tail");
}

void
testTimingsNote(const Expectations &expectations)
{
    const auto parsed =
        parseTimingsNote("analyze 12us, place 3400us, emit 0us");
    check(parsed && parsed->size() == 3 &&
              (*parsed)[1].pass == "place" &&
              (*parsed)[1].micros == 3400,
          "synthetic timings note parses in order");
    for (const char *bad : {"", "analyze", "analyze 12", "analyze xus",
                            "analyze 12us,place 3us", "12us",
                            "analyze -3us"})
        check(!parseTimingsNote(bad),
              std::string("malformed note '") + bad + "' is refused");

    const marionette::Compiler compiler(primaryFabric());
    const std::vector<std::string> pipeline = {
        "analyze", "predicate", "structure", "unroll", "assign",
        "bind",    "lower",     "place",     "route",  "emit"};
    for (const char *name : {"SI", "MS"}) {
        const auto t0 = Clock::now();
        const marionette::CompileResult r = compiler.compile(name);
        const double wall_us =
            std::chrono::duration<double, std::micro>(Clock::now() - t0)
                .count();
        std::string note;
        for (const auto &n : r.report.notes)
            if (n.pass == "timings")
                note = n.message;
        const auto t = parseTimingsNote(note);
        check(t.has_value(),
              std::string(name) + ": real timings note parses");
        if (!t)
            continue;
        double sum = 0;
        bool in_order = true;
        for (std::size_t i = 0; i < t->size(); ++i) {
            sum += static_cast<double>((*t)[i].micros);
            in_order = in_order && i < pipeline.size() &&
                       (*t)[i].pass == pipeline[i];
        }
        check(in_order, std::string(name) +
                            ": passes appear in pipeline order");
        check(sum <= wall_us + 1,
              std::string(name) +
                  ": pass times fit inside the timed compile call");
        const Expectation &e = expectations.at(name);
        check(e.compiles ? t->size() == pipeline.size()
                         : t->back().pass == e.failedPass,
              std::string(name) + ": note stops at the expected pass");
    }
}

void
testSchedules()
{
    check(visitOrder(7, 13) == visitOrder(7, 13),
          "visiting order repeats for a seed");
    check(visitOrder(7, 13) != visitOrder(8, 13),
          "visiting order changes with the seed");
    const std::vector<int> order = visitOrder(7, 13);
    check(std::set<int>(order.begin(), order.end()).size() == 13,
          "visiting order is a permutation");

    const std::vector<double> w = {0.35, 0.20, 0.10, 0.35};
    const auto a = poissonSchedule(5, 40, 4000, w, kTenants);
    const auto b = poissonSchedule(5, 40, 4000, w, kTenants);
    const auto c = poissonSchedule(6, 40, 4000, w, kTenants);
    bool same = a.size() == b.size(), differs = false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        same = same && a[i].dueMicros == b[i].dueMicros &&
               a[i].mixIndex == b[i].mixIndex &&
               a[i].tenant == b[i].tenant;
        differs = differs || a[i].dueMicros != c[i].dueMicros;
    }
    check(same, "arrival schedule repeats for a seed");
    check(differs, "arrival schedule changes with the seed");
    const double rate =
        4000.0 / (static_cast<double>(a.back().dueMicros) / 1e6);
    check(std::abs(rate - 40) < 4, "arrivals average 40 per second");
    std::vector<int> per_mix(w.size()), per_tenant(kTenants);
    for (const Arrival &x : a) {
        ++per_mix[static_cast<std::size_t>(x.mixIndex)];
        ++per_tenant[static_cast<std::size_t>(x.tenant)];
    }
    bool mix_ok = true;
    for (std::size_t m = 0; m < w.size(); ++m)
        mix_ok = mix_ok && std::abs(per_mix[m] / 4000.0 - w[m]) < 0.03;
    check(mix_ok, "mix fractions follow the weights");
    check(per_tenant[0] > per_tenant[1] &&
              per_tenant[1] > per_tenant[kTenants - 1],
          "tenant popularity falls off (Zipf)");
}

void
testSelfTimes()
{
    Tracer t(true);
    const std::uint64_t root = t.reserve(), child = t.reserve();
    t.record({root, 0, 1, "root", "bench", "main", 0, 100});
    t.record({child, root, 1, "child", "arch", "main", 10, 60});
    t.record({t.reserve(), child, 1, "grandchild", "arch", "main", 20,
              20});
    const auto rows = selfTimes(t.spans());
    std::map<std::string, double> self;
    for (const SelfTimeRow &r : rows)
        self[r.name] = r.selfMs * 1000;
    check(self["root"] == 40 && self["child"] == 40 &&
              self["grandchild"] == 20,
          "self time subtracts child coverage");
    check(rootMicros(t.spans(), "main") == 100,
          "root spans account for the track");
    check(chromeTraceJson(t.spans()).find("\"traceEvents\"") !=
              std::string::npos,
          "trace export is trace-event JSON");
    Tracer off(false);
    check(off.reserve() == 0, "a disabled tracer hands out id 0");
}

void
testHeldOutSeeds(const Expectations &expectations)
{
    // Seeds never used while the benchmark was tuned.
    MetricMap runs[2];
    const std::uint64_t seeds[2] = {90001, 90002};
    Tracer off(false);
    for (int i = 0; i < 2; ++i) {
        Outcome outcome;
        KernelSim sim(primaryFabric(), expectations, seeds[i]);
        sim.setup(off, outcome);
        HostSpeed speed;
        const Measurement m = sim.measure(0, off, outcome, speed);
        check(outcome.correct && outcome.failed == 0,
              "seed " + std::to_string(seeds[i]) + ": no failures");
        runs[i] = m.layers;
        runs[i]["cycles_geomean"] = m.endToEnd.at("cycles_geomean");
        runs[i]["kernels_ok"] = m.endToEnd.at("kernels_ok");
    }
    int compared = 0;
    bool same = true;
    for (const auto &[name, metric] : runs[0]) {
        if (name.rfind("arch.cycles.", 0) != 0 &&
            name != "cycles_geomean" && name != "kernels_ok")
            continue;
        ++compared;
        const bool eq = runs[1].count(name) &&
                        runs[1].at(name).value == metric.value;
        if (!eq)
            std::printf("     %s differs across seeds\n", name.c_str());
        same = same && eq;
    }
    check(same && compared >= 3,
          "held-out seeds agree on cycles_geomean, kernels_ok and " +
              std::to_string(compared - 2) + " arch.cycles.<K>");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 3 || std::string(argv[1]) != "--expect") {
        std::fprintf(stderr, "usage: perfbench_selftest --expect "
                             "<K=pass,...>\n");
        return 2;
    }
    const Expectations expectations = parseExpectations(argv[2]);

    testPercentiles();
    testTimingsNote(expectations);
    testSchedules();
    testSelfTimes();
    testHeldOutSeeds(expectations);
    std::printf("%d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
}
