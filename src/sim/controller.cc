#include "sim/controller.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"

namespace memcon::sim
{

double
ControllerStats::value(std::string_view name) const
{
    const std::pair<std::string_view, std::uint64_t> named[] = {
        {"refresh", refresh},
        {"queueFull", queueFull},
        {"enq.read", enqueuedReads},
        {"enq.write", enqueuedWrites},
        {"completed.read", completedReads},
        {"completed.write", completedWrites},
        {"ecc.corrected", eccCorrected},
    };
    for (const auto &[key, count] : named) {
        if (key == name)
            return static_cast<double>(count);
    }
    fatal("unknown controller counter '%.*s'",
          static_cast<int>(name.size()), name.data());
}

MemoryController::MemoryController(const dram::Geometry &geometry,
                                   const dram::TimingParams &timing,
                                   const ControllerConfig &config)
    : geom(geometry), params(timing), cfg(config), chan(geometry, timing)
{
    fatal_if(cfg.refreshReduction < 0.0 || cfg.refreshReduction >= 1.0,
             "refresh reduction must lie in [0, 1)");
    fatal_if(cfg.writeDrainLow > cfg.writeDrainHigh,
             "write drain low watermark above high watermark");
    fatal_if(cfg.writeDrainHigh > cfg.writeQueueCapacity,
             "write drain high watermark above queue capacity");

    double stretch = 1.0 / (1.0 - cfg.refreshReduction);
    effectiveTrefi = Tick{static_cast<std::uint64_t>(
        static_cast<double>(params.cyc(params.tREFI).value()) * stretch)};
    nextRefresh.assign(geom.ranks, effectiveTrefi);
}

void
MemoryController::setRefreshReduction(double reduction)
{
    fatal_if(reduction < 0.0 || reduction >= 1.0,
             "refresh reduction must lie in [0, 1)");
    cfg.refreshReduction = reduction;
    double stretch = 1.0 / (1.0 - reduction);
    effectiveTrefi = Tick{static_cast<std::uint64_t>(
        static_cast<double>(params.cyc(params.tREFI).value()) * stretch)};
}

bool
MemoryController::enqueue(Request request, Tick now)
{
    auto &queue =
        request.type == Request::Type::Read ? readQueue : writeQueue;
    std::size_t capacity = request.type == Request::Type::Read
                               ? cfg.readQueueCapacity
                               : cfg.writeQueueCapacity;
    if (request.isTest)
        capacity = std::min(capacity, cfg.testAdmissionLimit);
    if (queue.size() >= capacity) {
        ++counts.queueFull;
        return false;
    }
    bool is_read = request.type == Request::Type::Read;
    bool is_test = request.isTest;
    std::uint64_t addr = request.addr;
    request.coords = geom.decompose(request.addr);
    request.arrival = now;
    queue.push_back(std::move(request));
    ++(is_read ? counts.enqueuedReads : counts.enqueuedWrites);
    if (!is_read && !is_test && cfg.writeObserver)
        cfg.writeObserver(addr, now);
    return true;
}

bool
MemoryController::enqueueTest(std::uint64_t addr, bool is_write, Tick now)
{
    Request req;
    req.type = is_write ? Request::Type::Write : Request::Type::Read;
    req.addr = addr;
    req.coreId = -1;
    req.isTest = true;
    return enqueue(std::move(req), now);
}

bool
MemoryController::idle() const
{
    return readQueue.empty() && writeQueue.empty() && inflight.empty();
}

void
MemoryController::completeFinishedReads(Tick now)
{
    for (std::size_t i = 0; i < inflight.size();) {
        if (inflight[i].dataDone <= now) {
            Pending done = std::move(inflight[i]);
            inflight[i] = std::move(inflight.back());
            inflight.pop_back();
            ++counts.completedReads;
            if (!done.req.isTest && cfg.eccProbe) {
                dram::EccStatus st = cfg.eccProbe(done.req.addr, now);
                if (st == dram::EccStatus::CorrectedData ||
                    st == dram::EccStatus::CorrectedCheck)
                    ++counts.eccCorrected;
                if (st != dram::EccStatus::Ok && cfg.errorObserver)
                    cfg.errorObserver(done.req.addr, st, now);
            }
            if (done.req.onComplete)
                done.req.onComplete(done.req);
        } else {
            ++i;
        }
    }
}

void
MemoryController::handleRefresh(Tick now)
{
    if (!cfg.refreshEnabled)
        return;
    for (unsigned rank = 0; rank < geom.ranks; ++rank) {
        if (now < nextRefresh[rank])
            continue;

        // Refresh is due: close any open bank, then issue REF.
        if (!chan.allBanksPrecharged(rank)) {
            for (unsigned b = 0; b < geom.banks; ++b) {
                if (chan.isRowOpen(rank, b) &&
                    chan.canIssue(dram::Command::Pre, rank, b, RowId{}, now)) {
                    chan.issue(dram::Command::Pre, rank, b, RowId{}, now);
                    return; // one command per tick
                }
            }
            return; // waiting for a PRE to become legal
        }
        if (chan.canIssue(dram::Command::Ref, rank, 0, RowId{}, now)) {
            chan.issue(dram::Command::Ref, rank, 0, RowId{}, now);
            ++counts.refresh;
            nextRefresh[rank] += effectiveTrefi;
            return;
        }
        return; // REF pending but not yet legal; hold the rank
    }
}

int
MemoryController::pickCandidate(const std::deque<Request> &queue,
                                Tick now) const
{
    // FR-FCFS with demand-over-test priority: the oldest row-hit
    // request wins; if none, the oldest request. Test traffic is only
    // chosen when no demand request exists in the queue. A request
    // older than the starvation threshold bypasses row-hit
    // preference, or streaming row hits could starve a row miss
    // forever.
    auto scan = [&](bool tests_allowed) -> int {
        int first_any = -1;
        for (std::size_t i = 0; i < queue.size(); ++i) {
            const Request &r = queue[i];
            if (r.isTest && !tests_allowed)
                continue;
            if (first_any < 0) {
                first_any = static_cast<int>(i);
                if (!r.isTest &&
                    now - r.arrival > cfg.starvationThreshold) {
                    return first_any; // aged out: serve in order
                }
            }
            const auto &c = r.coords;
            bool row_hit = chan.isRowOpen(c.rank, c.bank) &&
                           chan.openRow(c.rank, c.bank) == c.row;
            if (row_hit)
                return static_cast<int>(i);
        }
        return first_any;
    };

    int demand = scan(false);
    if (demand >= 0)
        return demand;
    return scan(true);
}

bool
MemoryController::serviceQueue(std::deque<Request> &queue, Tick now)
{
    if (queue.empty())
        return false;
    int idx = pickCandidate(queue, now);
    if (idx < 0)
        return false;

    Request &req = queue[static_cast<std::size_t>(idx)];
    const auto &c = req.coords;
    bool is_read = req.type == Request::Type::Read;

    if (chan.isRowOpen(c.rank, c.bank)) {
        if (chan.openRow(c.rank, c.bank) == c.row) {
            dram::Command cmd =
                is_read ? dram::Command::Rd : dram::Command::Wr;
            if (!chan.canIssue(cmd, c.rank, c.bank, c.row, now))
                return false;
            Tick data_done = chan.issue(cmd, c.rank, c.bank, c.row, now);
            if (is_read)
                inflight.push_back({std::move(req), data_done});
            else
                ++counts.completedWrites;
            queue.erase(queue.begin() + idx);
            return true;
        }
        // Row conflict: close the current row.
        if (chan.canIssue(dram::Command::Pre, c.rank, c.bank, RowId{}, now)) {
            chan.issue(dram::Command::Pre, c.rank, c.bank, RowId{}, now);
            return true;
        }
        return false;
    }

    // Row closed: activate.
    if (chan.canIssue(dram::Command::Act, c.rank, c.bank, c.row, now)) {
        chan.issue(dram::Command::Act, c.rank, c.bank, c.row, now);
        if (cfg.activateObserver)
            cfg.activateObserver(req.addr, now);
        return true;
    }
    return false;
}

void
MemoryController::tick(Tick now)
{
    completeFinishedReads(now);

    // Refresh has strict priority; when a refresh is in progress or
    // due for some rank, try to make progress on it first.
    bool refresh_due = false;
    if (cfg.refreshEnabled) {
        for (unsigned rank = 0; rank < geom.ranks; ++rank)
            refresh_due |= now >= nextRefresh[rank];
    }
    if (refresh_due) {
        handleRefresh(now);
        return;
    }

    // Write drain hysteresis.
    if (drainingWrites) {
        if (writeQueue.size() <= cfg.writeDrainLow)
            drainingWrites = false;
    } else if (writeQueue.size() >= cfg.writeDrainHigh ||
               (readQueue.empty() && !writeQueue.empty())) {
        drainingWrites = true;
    }

    if (drainingWrites) {
        if (serviceQueue(writeQueue, now))
            return;
        serviceQueue(readQueue, now);
    } else {
        if (serviceQueue(readQueue, now))
            return;
        serviceQueue(writeQueue, now);
    }
}

} // namespace memcon::sim
