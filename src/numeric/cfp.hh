/**
 * @file
 * The compensation formats: CFP32 (the paper's) and CFP16 (its
 * half-width sibling, an extension beyond the paper in its own
 * spirit), as one vector type over a format trait.
 *
 * ECSSD pre-aligns every floating-point vector on the host: all
 * elements are right-shifted so they share the vector-wise maximum
 * exponent, and the bits that used to hold the per-element exponent
 * are repurposed as compensation bits that keep the hidden one plus
 * some of the least-significant mantissa bits that the shift would
 * otherwise drop.  The in-SSD MAC can then operate on plain integers.
 * The shared exponent is stored once per vector.
 *
 * Layout of one CFP32 element (32 bits):
 *
 *   [31]    sign
 *   [30:0]  31-bit aligned significand.  For a shift distance d the
 *           original 24-bit significand (hidden one included) sits at
 *           bits [30-d : 7-d]; shifts up to 7 are lossless.
 *
 * Layout of one CFP16 element (16 bits): the significand is first
 * rounded to FP16-class precision (10 mantissa bits), halving flash
 * traffic at that precision.
 *
 *   [15]    sign
 *   [14:0]  15-bit aligned significand; for shift distance d the
 *           11-bit significand sits at [14-d : 4-d]; shifts up to 4
 *           are lossless at FP16 precision.
 */

#ifndef ECSSD_NUMERIC_CFP_HH
#define ECSSD_NUMERIC_CFP_HH

#include <cstdint>
#include <span>
#include <vector>

#include "numeric/fp32.hh"
#include "numeric/kernels.hh"

namespace ecssd
{
namespace numeric
{

/**
 * CFP32: 7 compensation bits gained by repurposing the exponent, the
 * full 23-bit FP32 mantissa kept.
 */
struct Cfp32Format
{
    using Word = std::uint32_t;
    static constexpr int compensationBits = 7;
    static constexpr int mantissaBits = fp32MantissaBits;

    static std::uint32_t
    maxExponent(std::span<const float> values, IsaLevel level)
    {
        return cfp32MaxExponent(values, level);
    }

    static std::uint64_t
    alignSpan(std::span<const float> values, std::uint32_t emax,
              Word *out, IsaLevel level)
    {
        return cfp32AlignSpan(values, emax, out, level);
    }
};

/**
 * CFP16: 4 compensation bits at 16 bit, the mantissa rounded to
 * 10 bits (a rounding carry renormalizes into the exponent, so the
 * shared exponent is the post-rounding maximum).
 */
struct Cfp16Format
{
    using Word = std::uint16_t;
    static constexpr int compensationBits = 4;
    static constexpr int mantissaBits = 10;

    static std::uint32_t
    maxExponent(std::span<const float> values, IsaLevel level)
    {
        return cfp16MaxExponent(values, level);
    }

    static std::uint64_t
    alignSpan(std::span<const float> values, std::uint32_t emax,
              Word *out, IsaLevel level)
    {
        return cfp16AlignSpan(values, emax, out, level);
    }
};

/**
 * The binary scale of one aligned significand: each element is
 * m * 2^(E - bias - mantissa - compensation) for shared exponent E.
 */
template <class Format>
constexpr int
cfpElementExponent(std::uint32_t shared_exponent)
{
    return static_cast<int>(shared_exponent) - fp32ExponentBias
        - Format::mantissaBits - Format::compensationBits;
}

/**
 * The binary scale of an alignment-free dot: the integer product sum
 * of vectors with shared exponents @p ea and @p eb is scaled by
 * 2^result.
 */
template <class Format>
constexpr int
cfpDotExponent(std::uint32_t ea, std::uint32_t eb)
{
    return cfpElementExponent<Format>(ea)
        + cfpElementExponent<Format>(eb);
}

/** One pre-aligned element: sign and aligned significand. */
template <class Word>
struct CfpElement
{
    Word sign;
    Word significand;
};

/**
 * A pre-aligned vector: a shared biased exponent plus per-element
 * sign/significand pairs.
 */
template <class Format>
class CfpVector
{
  public:
    using Element = CfpElement<typename Format::Word>;

    CfpVector() = default;

    /** Shared biased exponent (the vector-wise maximum). */
    std::uint32_t sharedExponent() const { return sharedExponent_; }

    std::size_t size() const { return elements_.size(); }
    bool empty() const { return elements_.empty(); }

    const Element &operator[](std::size_t i) const
    {
        return elements_[i];
    }

    /**
     * Number of elements whose conversion dropped nonzero bits
     * (rounding or the alignment shift, counted once).
     */
    std::uint64_t lossyElements() const { return lossyElements_; }

    /** Decode element @p i back to the nearest float. */
    float toFloat(std::size_t i) const;

    /** Decode the whole vector. */
    std::vector<float> toFloats() const;

    /** Storage footprint in bytes (elements + one shared exponent). */
    std::uint64_t
    storageBytes() const
    {
        return elements_.size() * sizeof(typename Format::Word) + 1;
    }

    /**
     * Pre-align @p values (the host-side Pre_align() step), through
     * the runtime-dispatched kernels at activeIsa().
     *
     * NaN/Inf inputs are rejected with sim::fatal, matching the API
     * contract that only finite activations/weights reach the device.
     */
    static CfpVector preAlign(std::span<const float> values);

    /** ISA-pinned overload (differential tests). */
    static CfpVector preAlign(std::span<const float> values,
                              IsaLevel level);

    /**
     * preAlign() into an existing vector, reusing its element storage
     * (a row loop pre-aligns through one buffer, not one allocation
     * per row).
     */
    static void preAlignInto(std::span<const float> values,
                             IsaLevel level, CfpVector &out);

    /**
     * Write each element as one signed integer, +/-significand, into
     * @p out (size() values): the operand layout of the
     * signFoldedDot() kernel.  Exact, since significands are below
     * 2^31.
     */
    void signFoldInto(std::int32_t *out) const;

  private:
    std::uint32_t sharedExponent_ = 0;
    std::vector<Element> elements_;
    std::uint64_t lossyElements_ = 0;
};

extern template class CfpVector<Cfp32Format>;
extern template class CfpVector<Cfp16Format>;

using Cfp32Vector = CfpVector<Cfp32Format>;
using Cfp16Vector = CfpVector<Cfp16Format>;

/**
 * Fraction of elements across @p vectors that survive pre-alignment
 * with no bit loss (the paper reports > 95% on real models).
 */
double losslessFraction(std::span<const Cfp32Vector> vectors);

/** Result of a half-width dot product (value + op counts live in
 *  MacResult from mac.hh; this is the numeric core). */
struct Cfp16DotResult
{
    double value = 0.0;
    std::uint64_t multiplies = 0;
};

/**
 * Alignment-free dot product over two CFP16 vectors: a 15x15-bit
 * integer multiplier feeding a wide accumulator, one final scale.
 * The datapath model and test oracle, the CFP16 counterpart of
 * AlignmentFreeMac::dot; the re-rank runs the same integer through
 * the dispatched signFoldedDot() kernel.
 */
Cfp16DotResult alignmentFreeDot16(const Cfp16Vector &a,
                                  const Cfp16Vector &b);

} // namespace numeric
} // namespace ecssd

#endif // ECSSD_NUMERIC_CFP_HH
