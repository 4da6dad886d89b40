#include "sim/zero_pages.hh"

#include <sys/mman.h>

#include <cstring>
#include <utility>

#include "sim/log.hh"

namespace affalloc::sim
{

ZeroPages::ZeroPages(std::size_t bytes) : bytes_(bytes)
{
    if (bytes_ == 0)
        return;
    base_ = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base_ == MAP_FAILED)
        SIM_FATAL("sim", "cannot map %zu zero-filled bytes", bytes_);
}

ZeroPages::ZeroPages(const ZeroPages &o) : ZeroPages(o.bytes_)
{
    if (bytes_ != 0)
        std::memcpy(base_, o.base_, bytes_);
}

ZeroPages::ZeroPages(ZeroPages &&o) noexcept
    : base_(std::exchange(o.base_, nullptr)),
      bytes_(std::exchange(o.bytes_, 0))
{
}

ZeroPages &
ZeroPages::operator=(ZeroPages o) noexcept
{
    std::swap(base_, o.base_);
    std::swap(bytes_, o.bytes_);
    return *this;
}

ZeroPages::~ZeroPages()
{
    if (base_)
        munmap(base_, bytes_);
}

} // namespace affalloc::sim
