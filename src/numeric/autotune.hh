/**
 * @file
 * Closed-form kernel plan for the INT4 screener.
 *
 * At deploy time the screener asks for a KernelPlan: which ISA level
 * to run, how many rows one parallel chunk should cover (the L2
 * tiling of the packed matrix), and how many queries the batch
 * kernel blocks together (the register tiling).
 *
 * The plan is a pure function of (matrix shape, ISA level) with no
 * timing pass, so the same shape always yields the same plan on
 * every machine and golden runs stay reproducible (see
 * docs/MODELING.md §14).
 */

#ifndef ECSSD_NUMERIC_AUTOTUNE_HH
#define ECSSD_NUMERIC_AUTOTUNE_HH

#include <cstdint>

#include "numeric/kernels.hh"

namespace ecssd
{
namespace numeric
{

class Int4Matrix;

/** The screener's kernel configuration. */
struct KernelPlan
{
    IsaLevel isa = IsaLevel::Scalar;
    /** Matrix shape the plan was made for. */
    std::size_t rows = 0;
    std::size_t cols = 0;
    std::size_t bytesPerRow = 0;
    /** Rows per parallel chunk (also the single-query row tile). */
    std::size_t rowChunk = 0;
    /** Queries the batch kernel blocks per decoded row. */
    std::size_t queryTile = 0;
};

/**
 * Rows per parallel chunk for @p bytes_per_row: the largest power of
 * two in [512, 4096] whose packed bytes fit a 256 KiB L2 share, and
 * 512 when not even that fits.
 */
std::size_t screenerRowChunk(std::size_t bytes_per_row);

/**
 * Closed-form batch query tile for a (rows, bytes_per_row) screener
 * shape at @p isa.  Power of two in [1, kMaxQueryTile]: the narrower
 * of the level's accumulator-register budget and the number of
 * widened query features that fit the per-tile L1 share.
 */
std::size_t batchQueryTile(std::size_t rows,
                           std::size_t bytes_per_row, IsaLevel isa);

/** The kernel plan for @p matrix at @p isa. */
KernelPlan planScreenerKernels(const Int4Matrix &matrix, IsaLevel isa);

} // namespace numeric
} // namespace ecssd

#endif // ECSSD_NUMERIC_AUTOTUNE_HH
