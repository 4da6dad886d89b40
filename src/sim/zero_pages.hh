/**
 * @file
 * Zero-filled host storage backed by an anonymous mapping.
 */

#ifndef AFFALLOC_SIM_ZERO_PAGES_HH
#define AFFALLOC_SIM_ZERO_PAGES_HH

#include <cstddef>

namespace affalloc::sim
{

/**
 * Zero-filled storage backed by an anonymous mapping: pages cost no
 * memory until first written, and go back to the OS on destruction,
 * so a structure rebuilt with every machine neither pays for pages it
 * never touches nor fragments the heap.
 */
class ZeroPages
{
  public:
    ZeroPages() = default;
    explicit ZeroPages(std::size_t bytes);
    ZeroPages(const ZeroPages &o);
    ZeroPages(ZeroPages &&o) noexcept;
    /** Copy or move, by the argument's construction. */
    ZeroPages &operator=(ZeroPages o) noexcept;
    ~ZeroPages();

    /** The storage as an array of T; null when empty. */
    template <class T>
    T *
    as() const
    {
        return static_cast<T *>(base_);
    }

  private:
    void *base_ = nullptr;
    std::size_t bytes_ = 0;
};

} // namespace affalloc::sim

#endif // AFFALLOC_SIM_ZERO_PAGES_HH
