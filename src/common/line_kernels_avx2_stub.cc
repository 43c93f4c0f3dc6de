/**
 * @file
 * Stub for builds without the AVX2 line-kernel TU (DEUCE_AVX2=OFF or
 * a compiler without -mavx2): the registry sees a null ops table and
 * resolves avx2 requests to scalar.
 */

#include "common/line_kernels.hh"

namespace deuce
{

const LineKernelOps *
avx2LineKernelOps()
{
    return nullptr;
}

} // namespace deuce
