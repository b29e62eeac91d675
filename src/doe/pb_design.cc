#include "doe/pb_design.hh"

#include <cstdint>
#include <stdexcept>
#include <string>

namespace rigor::doe
{

namespace
{

bool
isPrime(unsigned n)
{
    if (n < 2)
        return false;
    if (n % 2 == 0)
        return n == 2;
    for (unsigned d = 3; d * d <= n; d += 2)
        if (n % d == 0)
            return false;
    return true;
}

/** True when size X has a quadratic-residue generator. */
bool
hasQrGenerator(unsigned x)
{
    return x >= 8 && isPrime(x - 1) && (x - 1) % 4 == 3;
}

/** Build the cyclic design from a generator row. */
DesignMatrix
cyclicDesign(const std::vector<int> &generator)
{
    const std::size_t q = generator.size();
    const std::size_t x = q + 1;
    DesignMatrix m(x, q);
    // Row i is the generator circularly right-shifted i times:
    // entry (i, c) = g[(c - i) mod q].
    for (std::size_t i = 0; i + 1 < x; ++i) {
        for (std::size_t c = 0; c < q; ++c) {
            const std::size_t src = (c + q - (i % q)) % q;
            m.set(i, c,
                  generator[src] == 1 ? Level::High : Level::Low);
        }
    }
    // Final row: all low.
    for (std::size_t c = 0; c < q; ++c)
        m.set(x - 1, c, Level::Low);
    return m;
}

} // namespace

unsigned
pbRuns(unsigned num_factors)
{
    if (num_factors == 0)
        throw std::invalid_argument("pbRuns: need at least one factor");
    // Next multiple of 4 strictly greater than the factor count, so
    // the design always has at least num_factors columns.
    return (num_factors / 4 + 1) * 4;
}

std::vector<int>
pbGeneratorRow(unsigned x)
{
    if (!hasQrGenerator(x))
        throw std::invalid_argument(
            "no Plackett-Burman design of size " + std::to_string(x) +
            ": the size must be at least 8 and one more than a prime "
            "congruent to 3 (mod 4)");
    // +1 at j = 0 and at every square mod q; the (q - 1) / 2 roots
    // k = 1..(q-1)/2 reach each nonzero square exactly once.
    const std::uint64_t q = x - 1;
    std::vector<int> row(q, -1);
    row[0] = 1;
    for (std::uint64_t k = 1; k <= (q - 1) / 2; ++k)
        row[k * k % q] = 1;
    return row;
}

DesignMatrix
pbDesign(unsigned x)
{
    return cyclicDesign(pbGeneratorRow(x));
}

DesignMatrix
pbDesignForFactors(unsigned num_factors)
{
    unsigned x = pbRuns(num_factors);
    // Step to the next constructible size (16 -> 20, 28 -> 32); the
    // spare columns become dummy factors.
    while (!hasQrGenerator(x))
        x += 4;
    return pbDesign(x);
}

} // namespace rigor::doe
