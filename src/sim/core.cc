#include "sim/core.hh"

#include "common/logging.hh"

namespace memcon::sim
{

SimpleCore::SimpleCore(int core_id, trace::CpuAccessStream stream_in,
                       MemoryController &controller,
                       std::uint64_t base_block, std::uint64_t total_blocks,
                       unsigned issue_width, unsigned window_size)
    : coreId(core_id), stream(std::move(stream_in)), mc(controller),
      baseBlock(base_block), totalBlocks(total_blocks),
      issueWidth(issue_width), windowSize(window_size),
      window(window_size), shared(std::make_shared<Shared>())
{
    fatal_if(issue_width == 0 || window_size == 0,
             "issue width and window size must be positive");
    fatal_if(total_blocks == 0, "module must have at least one block");
}

std::uint64_t
SimpleCore::blockToAddr(std::uint64_t block_index) const
{
    return ((baseBlock + block_index) % totalBlocks) * 64;
}

void
SimpleCore::refillPending()
{
    if (pendingBubbles == 0 && !pendingAccessValid) {
        pendingAccess = stream.next();
        pendingBubbles = pendingAccess.bubbleInsts;
        pendingAccessValid = true;
    }
}

void
SimpleCore::tick(Tick now)
{
    ++cycles;

    // Mark loads completed by the controller since the last cycle.
    if (!shared->completedAddrs.empty()) {
        for (std::uint64_t addr : shared->completedAddrs) {
            for (std::size_t i = 0; i < windowCount; ++i) {
                WindowEntry &e =
                    window[(windowHead + i) % windowSize];
                if (e.isLoad && !e.ready && e.addr == addr) {
                    e.ready = true;
                    break;
                }
            }
        }
        shared->completedAddrs.clear();
    }

    // Retire in order, up to issueWidth per cycle.
    unsigned retired_now = 0;
    while (retired_now < issueWidth && windowCount > 0) {
        WindowEntry &head = window[windowHead];
        if (head.isLoad && !head.ready)
            break;
        windowHead = (windowHead + 1) % windowSize;
        --windowCount;
        ++retired;
        ++retired_now;
    }

    // Issue new instructions into the window.
    unsigned issued = 0;
    while (issued < issueWidth && windowCount < windowSize) {
        refillPending();
        if (pendingBubbles > 0) {
            // Bubbles retire trivially; batch them into one slot
            // each to keep window pressure realistic.
            window[(windowHead + windowCount) % windowSize] =
                {false, true, 0};
            ++windowCount;
            --pendingBubbles;
            ++issued;
            continue;
        }
        panic_if(!pendingAccessValid, "trace refill failed");
        std::uint64_t addr = blockToAddr(pendingAccess.blockIndex);

        if (pendingAccess.isWrite) {
            // Posted write: counts as one instruction, does not
            // occupy a window slot waiting for data.
            Request req;
            req.type = Request::Type::Write;
            req.addr = addr;
            req.coreId = coreId;
            if (!mc.enqueue(std::move(req), now))
                break; // retry next cycle
            window[(windowHead + windowCount) % windowSize] =
                {false, true, 0};
            ++windowCount;
            pendingAccessValid = false;
            ++issued;
            continue;
        }

        Request req;
        req.type = Request::Type::Read;
        req.addr = addr;
        req.coreId = coreId;
        auto shared_ref = shared;
        req.onComplete = [shared_ref](const Request &done) {
            shared_ref->completedAddrs.push_back(done.addr);
        };
        if (!mc.enqueue(std::move(req), now))
            break; // queue full; retry next cycle
        window[(windowHead + windowCount) % windowSize] =
            {true, false, addr};
        ++windowCount;
        pendingAccessValid = false;
        ++issued;
    }
}

} // namespace memcon::sim
