#include "cfp.hh"

#include <cmath>
#include <cstddef>

#include "sim/logging.hh"

namespace ecssd
{
namespace numeric
{

template <class Format>
CfpVector<Format>
CfpVector<Format>::preAlign(std::span<const float> values,
                            IsaLevel level)
{
    CfpVector out;
    preAlignInto(values, level, out);
    return out;
}

template <class Format>
CfpVector<Format>
CfpVector<Format>::preAlign(std::span<const float> values)
{
    return preAlign(values, activeIsa());
}

template <class Format>
void
CfpVector<Format>::preAlignInto(std::span<const float> values,
                                IsaLevel level, CfpVector &out)
{
    // The align kernel writes interleaved (sign, significand) word
    // pairs straight into the element array.
    static_assert(sizeof(Element) == 2 * sizeof(typename Format::Word)
                      && offsetof(Element, sign) == 0
                      && offsetof(Element, significand)
                          == sizeof(typename Format::Word),
                  "CfpElement must match the kernel pair layout");
    out.elements_.resize(values.size());

    // Pass 1: the vector-wise maximum exponent (post-rounding for a
    // format that rounds the mantissa; fatal on NaN/Inf).
    out.sharedExponent_ = Format::maxExponent(values, level);

    // Pass 2: promote every significand into the aligned field (left
    // by the compensation bits), then shift it right by its exponent
    // gap; the kernel counts each lossy element once.
    out.lossyElements_ = Format::alignSpan(
        values, out.sharedExponent_,
        reinterpret_cast<typename Format::Word *>(out.elements_.data()),
        level);
}

template <class Format>
void
CfpVector<Format>::signFoldInto(std::int32_t *out) const
{
    static_assert(Format::mantissaBits + 1 + Format::compensationBits
                      <= 31,
                  "a significand must fit a signed int32");
    for (std::size_t i = 0; i < elements_.size(); ++i) {
        const auto magnitude =
            static_cast<std::int32_t>(elements_[i].significand);
        out[i] = elements_[i].sign ? -magnitude : magnitude;
    }
}

template <class Format>
float
CfpVector<Format>::toFloat(std::size_t i) const
{
    const Element &elem = elements_[i];
    if (elem.significand == 0)
        return elem.sign ? -0.0f : 0.0f;
    const double magnitude =
        std::ldexp(static_cast<double>(elem.significand),
                   cfpElementExponent<Format>(sharedExponent_));
    return static_cast<float>(elem.sign ? -magnitude : magnitude);
}

template <class Format>
std::vector<float>
CfpVector<Format>::toFloats() const
{
    std::vector<float> out;
    out.reserve(elements_.size());
    for (std::size_t i = 0; i < elements_.size(); ++i)
        out.push_back(toFloat(i));
    return out;
}

template class CfpVector<Cfp32Format>;
template class CfpVector<Cfp16Format>;

double
losslessFraction(std::span<const Cfp32Vector> vectors)
{
    std::uint64_t total = 0;
    std::uint64_t lossy = 0;
    for (const Cfp32Vector &vec : vectors) {
        total += vec.size();
        lossy += vec.lossyElements();
    }
    if (total == 0)
        return 1.0;
    return 1.0 - static_cast<double>(lossy) / static_cast<double>(total);
}

Cfp16DotResult
alignmentFreeDot16(const Cfp16Vector &a, const Cfp16Vector &b)
{
    ECSSD_ASSERT(a.size() == b.size(), "dot operand size mismatch");
    Cfp16DotResult result;
    if (a.empty())
        return result;

    // 30-bit products over <= 2^16 elements fit comfortably in a
    // 64-bit two's complement accumulator.
    std::int64_t acc = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        const std::int64_t product =
            static_cast<std::int64_t>(a[i].significand)
            * static_cast<std::int64_t>(b[i].significand);
        acc += (a[i].sign ^ b[i].sign) ? -product : product;
        ++result.multiplies;
    }
    result.value = std::ldexp(
        static_cast<double>(acc),
        cfpDotExponent<Cfp16Format>(a.sharedExponent(),
                                    b.sharedExponent()));
    return result;
}

} // namespace numeric
} // namespace ecssd
