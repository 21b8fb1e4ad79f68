/*
 * Batched negacyclic NTT over RNS residues: the `compiled` kernel backend.
 *
 * The wiring is the reference transform's (repro.fhe.ntt.NttContext):
 * Cooley-Tukey forward with the 2N-th root psi merged into bit-reversed
 * twiddles, Gentleman-Sande inverse with psi^-1 followed by the 1/N
 * scaling.  The butterflies are Harvey's lazy Shoup butterflies (D. Harvey,
 * "Faster arithmetic for number-theoretic transforms", J. Symb. Comp.
 * 2014): forward values stay in [0, 4q), inverse values in [0, 2q), and
 * each row is fully reduced once at the end.  Outputs are therefore the
 * canonical residues the reference transform produces, bit for bit.
 *
 * Layout: `a` holds `rows` contiguous length-`n` rows, transformed in
 * place; row r uses the prime at index r % level.  Twiddle tables are
 * (level, n), one row per prime, with Shoup quotients floor(w * 2^64 / q).
 * The lazy bounds need 4q < 2^64; the Python plan accepts only primes
 * below 2^30, the substrate's modulus cap.
 */
#include <stddef.h>
#include <stdint.h>

typedef unsigned __int128 u128;

/* x * w mod q in [0, 2q), for any 64-bit x (wq = floor(w * 2^64 / q)). */
static inline uint64_t shoup_lazy(uint64_t x, uint64_t w, uint64_t wq,
                                  uint64_t q)
{
    uint64_t hi = (uint64_t)(((u128)x * wq) >> 64);
    return x * w - hi * q;
}

static void forward_row(uint64_t *a, size_t n, uint64_t q,
                        const uint64_t *w, const uint64_t *wq)
{
    const uint64_t two_q = 2 * q;
    size_t t = n;
    for (size_t m = 1; m < n; m <<= 1) {
        t >>= 1;
        for (size_t i = 0; i < m; i++) {
            const uint64_t wi = w[m + i], wqi = wq[m + i];
            uint64_t *x = a + 2 * i * t, *y = x + t;
            for (size_t j = 0; j < t; j++) {
                uint64_t u = x[j];
                if (u >= two_q)
                    u -= two_q;
                uint64_t v = shoup_lazy(y[j], wi, wqi, q);
                x[j] = u + v;
                y[j] = u - v + two_q;
            }
        }
    }
    for (size_t j = 0; j < n; j++) {
        uint64_t u = a[j];
        if (u >= two_q)
            u -= two_q;
        if (u >= q)
            u -= q;
        a[j] = u;
    }
}

static void inverse_row(uint64_t *a, size_t n, uint64_t q,
                        const uint64_t *w, const uint64_t *wq,
                        uint64_t n_inv, uint64_t n_inv_q)
{
    const uint64_t two_q = 2 * q;
    size_t t = 1;
    for (size_t m = n; m > 1; m >>= 1) {
        const size_t h = m >> 1;
        for (size_t i = 0; i < h; i++) {
            const uint64_t wi = w[h + i], wqi = wq[h + i];
            uint64_t *x = a + 2 * i * t, *y = x + t;
            for (size_t j = 0; j < t; j++) {
                uint64_t u = x[j], v = y[j];
                uint64_t s = u + v;
                if (s >= two_q)
                    s -= two_q;
                x[j] = s;
                y[j] = shoup_lazy(u - v + two_q, wi, wqi, q);
            }
        }
        t <<= 1;
    }
    for (size_t j = 0; j < n; j++) {
        uint64_t u = shoup_lazy(a[j], n_inv, n_inv_q, q);
        if (u >= q)
            u -= q;
        a[j] = u;
    }
}

void repro_ntt_forward(uint64_t *a, size_t rows, size_t level, size_t n,
                       const uint64_t *qs, const uint64_t *w,
                       const uint64_t *wq)
{
    for (size_t r = 0; r < rows; r++) {
        const size_t k = r % level;
        forward_row(a + r * n, n, qs[k], w + k * n, wq + k * n);
    }
}

void repro_ntt_inverse(uint64_t *a, size_t rows, size_t level, size_t n,
                       const uint64_t *qs, const uint64_t *w,
                       const uint64_t *wq, const uint64_t *n_inv,
                       const uint64_t *n_inv_q)
{
    for (size_t r = 0; r < rows; r++) {
        const size_t k = r % level;
        inverse_row(a + r * n, n, qs[k], w + k * n, wq + k * n, n_inv[k],
                    n_inv_q[k]);
    }
}
