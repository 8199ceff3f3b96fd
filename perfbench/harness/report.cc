/**
 * @file
 * Span recorder, host fingerprint and small helpers of the driver.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "bench.hh"
#include "common/simd.hh"

namespace perfbench
{

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
fastest(const std::vector<double> &v)
{
    return v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
}

int
Tracer::open(const std::string &name, int parent)
{
    if (!on)
        return -1;
    const std::int64_t now = nowNs();
    std::lock_guard<std::mutex> g(mu);
    spans.push_back(Span{name, parent, now, now, 1, 0});
    return static_cast<int>(spans.size() - 1);
}

void
Tracer::close(int id)
{
    if (!on || id < 0)
        return;
    const std::int64_t now = nowNs();
    std::lock_guard<std::mutex> g(mu);
    Span &s = spans[static_cast<std::size_t>(id)];
    s.endNs = now;
    s.busyNs = now - s.startNs;
}

int
Tracer::record(const std::string &name, int parent, std::int64_t start_ns,
               std::int64_t end_ns, std::uint64_t calls,
               std::int64_t busy_ns)
{
    if (!on)
        return -1;
    std::lock_guard<std::mutex> g(mu);
    spans.push_back(Span{name, parent, start_ns, end_ns, calls, busy_ns});
    return static_cast<int>(spans.size() - 1);
}

bool
Tracer::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::lock_guard<std::mutex> g(mu);
    std::fprintf(f, "{\"spans\": [\n");
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "  {\"id\": %zu, \"name\": \"%s\", \"parent\": %d, "
                     "\"start_ns\": %lld, \"end_ns\": %lld, \"calls\": "
                     "%llu, \"busy_ns\": %lld}%s\n",
                     i, jsonEscape(s.name).c_str(), s.parent,
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs),
                     static_cast<unsigned long long>(s.calls),
                     static_cast<long long>(s.busyNs),
                     i + 1 < spans.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

int
pinToCurrentCpu()
{
    const int cpu = sched_getcpu();
    if (cpu < 0)
        return -1;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

double
peakRssMiB()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out;
}

namespace
{

/** The CPU's brand string, read with cpuid (no file access). */
std::string
cpuModel()
{
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002 + i, &regs[i * 4], &regs[i * 4 + 1],
                    &regs[i * 4 + 2], &regs[i * 4 + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    s.erase(0, s.find_first_not_of(' '));
    return s;
#else
    return "unknown";
#endif
}

} // namespace

std::string
hostFingerprintJson(const Args &args)
{
    const char *forced = std::getenv("MEMCON_FORCE_SCALAR");
    char buf[1024];
    std::snprintf(
        buf, sizeof buf,
        "{\"cpu\": \"%s\", \"nproc\": %u, \"kernel_set\": \"%s\", "
        "\"force_scalar_env\": \"%s\", \"scalar_forced\": %s, "
        "\"build_type\": \"%s\", \"compiler\": \"%s\", \"commit\": \"%s\"}",
        jsonEscape(cpuModel()).c_str(), std::thread::hardware_concurrency(),
        memcon::simd::activeKernelSetName(),
        jsonEscape(forced ? forced : "").c_str(),
        memcon::simd::scalarForced() ? "true" : "false", PERFBENCH_BUILD_TYPE,
        jsonEscape(PERFBENCH_COMPILER).c_str(),
        jsonEscape(args.commit).c_str());
    return buf;
}

} // namespace perfbench
