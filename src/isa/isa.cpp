#include "isa/isa.hpp"

#include "isa/analysis/verifier.hpp"

namespace epf
{

KernelId
KernelTable::add(Kernel k)
{
    if (strict_)
        analysis::verifyOrThrow(k);
    kernels_.push_back(std::move(k));
    return static_cast<KernelId>(kernels_.size() - 1);
}

} // namespace epf
