/**
 * @file
 * perfbench_driver: runs one workload of the MEMCON benchmark and
 * writes its result file. Normally started by perfbench/run.py:
 *
 *   perfbench_driver --workload NAME --seed N --seconds S --trace 0|1
 *                    --out-dir DIR [--commit SHA]
 *
 * Prints a human-readable report, writes DIR/result-NAME-N-tT.json
 * (host fingerprint, every metric, the output checks) and, in a
 * traced run, DIR/spans-NAME-N.json. Exits 1 if any output check
 * failed, 2 on a usage error.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench.hh"

using namespace perfbench;

namespace
{

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "perfbench_driver: %s\nusage: perfbench_driver --workload "
                 "{campaign_flat,campaign_sharded,closedloop,memcond} "
                 "--seed N --seconds S --trace 0|1 --out-dir DIR "
                 "[--commit SHA]\n",
                 msg);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string key = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + key).c_str());
        const char *val = argv[++i];
        if (key == "--workload")
            a.workload = val;
        else if (key == "--seed")
            a.seed = std::strtoull(val, nullptr, 10);
        else if (key == "--seconds")
            a.seconds = std::strtod(val, nullptr);
        else if (key == "--trace")
            a.trace = std::strcmp(val, "0") != 0;
        else if (key == "--out-dir")
            a.outDir = val;
        else if (key == "--commit")
            a.commit = val;
        else
            usage(("unknown argument " + key).c_str());
    }
    if (a.workload.empty() || a.outDir.empty())
        usage("--workload and --out-dir are required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

void
printReport(const Args &args, const Outcome &out)
{
    std::printf("perfbench %s seed=%llu trace=%d\n", args.workload.c_str(),
                static_cast<unsigned long long>(args.seed), args.trace);
    std::printf("host: %s\n", hostFingerprintJson(args).c_str());
    std::printf("end-to-end%s:\n",
                args.trace ? " (untraced passes of this run)" : "");
    for (const auto &[name, m] : out.endToEnd) {
        if (m.applies)
            std::printf("  %-22s %-.6g %s\n", name.c_str(), m.value,
                        m.unit.c_str());
        else
            std::printf("  %-22s n/a (%s; this workload does not run the "
                        "path)\n",
                        name.c_str(), m.unit.c_str());
    }
    if (args.trace) {
        std::printf("per-layer (traced passes):\n");
        for (const auto &[name, v] : out.perLayer)
            std::printf("  %-30s %-.6g\n", name.c_str(), v);
    }
    std::printf("checks: %llu passes, %llu failed\n",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));
    for (const std::string &f : out.failures)
        std::printf("  FAILED: %s\n", f.c_str());
}

bool
writeResult(const Args &args, const Outcome &out, const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n",
                 jsonEscape(args.workload).c_str(),
                 static_cast<unsigned long long>(args.seed));
    std::fprintf(f, "  \"trace\": %d,\n  \"seconds\": %.17g,\n", args.trace,
                 args.seconds);
    std::fprintf(f, "  \"host\": %s,\n", hostFingerprintJson(args).c_str());
    std::fprintf(f, "  \"attempted\": %llu,\n  \"failed\": %llu,\n",
                 static_cast<unsigned long long>(out.attempted),
                 static_cast<unsigned long long>(out.failed));
    std::fprintf(f, "  \"failures\": [");
    for (std::size_t i = 0; i < out.failures.size(); ++i)
        std::fprintf(f, "%s\"%s\"", i ? ", " : "",
                     jsonEscape(out.failures[i]).c_str());
    std::fprintf(f, "],\n  \"end_to_end\": {");
    bool first = true;
    for (const auto &[name, m] : out.endToEnd) {
        std::fprintf(f,
                     "%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                     "\"applies\": %s}",
                     first ? "" : ",", name.c_str(), m.value, m.unit.c_str(),
                     m.applies ? "true" : "false");
        first = false;
    }
    std::fprintf(f, "\n  },\n  \"per_layer\": {");
    first = true;
    for (const auto &[name, v] : out.perLayer) {
        std::fprintf(f, "%s\n    \"%s\": %.17g", first ? "" : ",",
                     name.c_str(), v);
        first = false;
    }
    std::fprintf(f, "\n  },\n  \"samples\": {");
    first = true;
    for (const auto &[name, v] : out.samples) {
        std::fprintf(f, "%s\n    \"%s\": [", first ? "" : ",", name.c_str());
        for (std::size_t i = 0; i < v.size(); ++i)
            std::fprintf(f, "%s%.17g", i ? ", " : "", v[i]);
        std::fprintf(f, "]");
        first = false;
    }
    std::fprintf(f, "\n  }\n}\n");
    return std::fclose(f) == 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    Tracer tracer(args.trace);

    Outcome out;
    if (args.workload == "campaign_flat")
        out = runCampaign(args, tracer, false);
    else if (args.workload == "campaign_sharded")
        out = runCampaign(args, tracer, true);
    else if (args.workload == "closedloop")
        out = runClosedLoop(args, tracer);
    else if (args.workload == "memcond")
        out = runMemcond(args, tracer);
    else
        usage(("unknown workload " + args.workload).c_str());

    out.endToEnd["peak_rss_mb"] = {peakRssMiB(), "MiB"};
    // Invariant checks outside the per-pass digests count against the
    // run as one more failed operation.
    if (out.failed == 0 && !out.failures.empty())
        out.failed = 1;
    printReport(args, out);

    const std::string stem = args.outDir + "/result-" + args.workload + "-" +
                             std::to_string(args.seed) + "-t" +
                             (args.trace ? "1" : "0") + ".json";
    if (!writeResult(args, out, stem)) {
        std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                     stem.c_str());
        return 1;
    }
    if (args.trace) {
        const std::string spans = args.outDir + "/spans-" + args.workload +
                                  "-" + std::to_string(args.seed) + ".json";
        if (!tracer.write(spans)) {
            std::fprintf(stderr, "perfbench_driver: cannot write %s\n",
                         spans.c_str());
            return 1;
        }
    }
    std::printf("result: %s\n", stem.c_str());
    return out.failures.empty() ? 0 : 1;
}
