#include "compress/sais.hpp"

#include <algorithm>
#include <limits>

#include "util/status.hpp"

namespace atc::comp {

namespace {

/*
 * Induced sorting in the style of Mori's sais: one routine, templated
 * on the symbol type, runs on the input bytes at level 0 and on the
 * int32 reduced string below it. The text is followed by an implicit
 * sentinel smaller than every symbol, so position n - 1 is always
 * L-type and no sentinel is stored. Types are never stored either: a
 * suffix's type follows from the symbols at the moment it is induced,
 * and an entry of sa that needs one more bit (whether its predecessor
 * still has to be induced) carries it as the sign (~j). LMS names and
 * lengths live in sa's free upper half, and the reduced string sits at
 * the top of sa while its own suffix array is built in the bottom.
 */

using Index = int32_t;

template <typename Char>
void
countSymbols(const Char *t, Index n, Index k, Index *cnt)
{
    std::fill(cnt, cnt + k, 0);
    Index i = 0;
    if constexpr (sizeof(Char) == 1) {
        // Four counters per byte value: a run of one byte would
        // otherwise chain every increment through the same slot.
        Index part[3][256] = {};
        for (; i + 4 <= n; i += 4) {
            ++cnt[t[i]];
            ++part[0][t[i + 1]];
            ++part[1][t[i + 2]];
            ++part[2][t[i + 3]];
        }
        for (Index c = 0; c < k; ++c)
            cnt[c] += part[0][c] + part[1][c] + part[2][c];
    }
    for (; i < n; ++i)
        ++cnt[t[i]];
}

void
bucketHeads(const Index *cnt, Index k, Index *bkt)
{
    Index sum = 0;
    for (Index c = 0; c < k; ++c) {
        bkt[c] = sum;
        sum += cnt[c];
    }
}

void
bucketTails(const Index *cnt, Index k, Index *bkt)
{
    Index sum = 0;
    for (Index c = 0; c < k; ++c) {
        sum += cnt[c];
        bkt[c] = sum;
    }
}

/**
 * Call @p fn(p) for every LMS position p of t[0, n), right to left.
 * Suffix i is S-type iff t[i] < t[i+1], or t[i] == t[i+1] and i + 1
 * is S-type; an LMS position is an S-type one after an L-type one.
 */
template <typename Char, typename Fn>
void
forEachLms(const Char *t, Index n, Fn fn)
{
    Index i = n - 1;
    Index c0 = t[i], c1;
    do // the trailing L run
        c1 = c0;
    while (--i >= 0 && (c0 = t[i]) >= c1);
    while (i >= 0) {
        do // an S run
            c1 = c0;
        while (--i >= 0 && (c0 = t[i]) <= c1);
        if (i < 0)
            return;
        fn(i + 1);
        do // the L run before it
            c1 = c0;
        while (--i >= 0 && (c0 = t[i]) >= c1);
    }
}

/**
 * Sort the LMS substrings by induction. On entry sa holds, at the tail
 * of each LMS position p's bucket, p - 1 (the L-type suffix it
 * induces) and 0 elsewhere. Each slot of the L and S passes holds the
 * suffix it is about to induce, not its own: the slot is cleared once
 * it has induced. On return the m sorted LMS positions are the only
 * nonzero entries, as ~p, in substring order.
 */
template <typename Char>
void
sortLmsSubstrings(const Char *t, Index *sa, const Index *cnt, Index *bkt,
                  Index n, Index k)
{
    // L pass, left to right into bucket heads. The sentinel, first in
    // order, induces suffix n - 1. b caches bkt[c1] while the scan
    // stays in one bucket.
    bucketHeads(cnt, k, bkt);
    Index j = n - 1;
    Index c1 = t[j];
    Index *b = sa + bkt[c1];
    --j;
    *b++ = t[j] < c1 ? ~j : j;
    for (Index i = 0; i < n; ++i) {
        j = sa[i];
        if (j > 0) {
            Index c0 = t[j];
            if (c0 != c1) {
                bkt[c1] = static_cast<Index>(b - sa);
                b = sa + bkt[c1 = c0];
            }
            --j;
            // An S-type predecessor waits (negated) for the S pass.
            *b++ = t[j] < c1 ? ~j : j;
            sa[i] = 0;
        } else if (j < 0) {
            sa[i] = ~j;
        }
    }

    // S pass, right to left into bucket tails. A suffix whose
    // predecessor is L-type is an LMS position: it is kept, negated.
    bucketTails(cnt, k, bkt);
    c1 = 0;
    b = sa + bkt[0];
    for (Index i = n - 1; i >= 0; --i) {
        j = sa[i];
        if (j > 0) {
            Index c0 = t[j];
            if (c0 != c1) {
                bkt[c1] = static_cast<Index>(b - sa);
                b = sa + bkt[c1 = c0];
            }
            --j;
            *--b = t[j] > c1 ? ~(j + 1) : j;
            sa[i] = 0;
        }
    }
}

/**
 * Gather the m sorted LMS positions into sa[0, m) and name their
 * substrings: equal substrings share a name, names rise with the
 * order, and LMS position p's name (from 1) is stored at sa[m + p/2].
 * LMS positions are at least 2 apart, so the slots are distinct and
 * fit in sa[m, n).
 * @return the number of distinct names
 */
template <typename Char>
Index
nameLmsSubstrings(const Char *t, Index *sa, Index n, Index m)
{
    Index i = 0;
    for (; sa[i] < 0; ++i)
        sa[i] = ~sa[i];
    if (i < m) {
        for (Index j = i++;; ++i) {
            Index p = sa[i];
            if (p < 0) {
                sa[j++] = ~p;
                sa[i] = 0;
                if (j == m)
                    break;
            }
        }
    }

    // Each LMS substring's length, its closing LMS symbol included;
    // the last one closes on the sentinel, at n.
    Index next = n;
    forEachLms(t, n, [&](Index p) {
        sa[m + (p >> 1)] = next - p + 1;
        next = p;
    });

    // Neighbours in the sorted order are equal iff they have the same
    // length and symbols (the types then agree too); the substring
    // that ends on the sentinel equals no other.
    Index names = 0;
    Index q = n, qlen = 0;
    for (i = 0; i < m; ++i) {
        Index p = sa[i];
        Index plen = sa[m + (p >> 1)];
        bool same = plen == qlen && p + plen <= n && q + plen <= n;
        for (Index d = 0; same && d < plen; ++d)
            same = t[p + d] == t[q + d];
        if (!same) {
            ++names;
            q = p;
            qlen = plen;
        }
        sa[m + (p >> 1)] = names;
    }
    return names;
}

/**
 * Induce every suffix from the sorted LMS suffixes, which sa holds at
 * the tails of their buckets (0 elsewhere). Here each slot holds its
 * own suffix; during the L pass a suffix whose predecessor must not be
 * induced there (S-type, or none) is stored negated, and each pass
 * flips the entries it passes over back to their final sign.
 */
template <typename Char>
void
induce(const Char *t, Index *sa, const Index *cnt, Index *bkt, Index n,
       Index k)
{
    bucketHeads(cnt, k, bkt);
    Index j = n - 1;
    Index c1 = t[j];
    Index *b = sa + bkt[c1];
    *b++ = j > 0 && t[j - 1] < c1 ? ~j : j;
    for (Index i = 0; i < n; ++i) {
        j = sa[i];
        sa[i] = ~j;
        if (j > 0) {
            --j;
            Index c0 = t[j];
            if (c0 != c1) {
                bkt[c1] = static_cast<Index>(b - sa);
                b = sa + bkt[c1 = c0];
            }
            *b++ = j > 0 && t[j - 1] < c1 ? ~j : j;
        }
    }

    bucketTails(cnt, k, bkt);
    c1 = 0;
    b = sa + bkt[0];
    for (Index i = n - 1; i >= 0; --i) {
        j = sa[i];
        if (j > 0) {
            --j;
            Index c0 = t[j];
            if (c0 != c1) {
                bkt[c1] = static_cast<Index>(b - sa);
                b = sa + bkt[c1 = c0];
            }
            *--b = j == 0 || t[j - 1] > c1 ? ~j : j;
        } else {
            sa[i] = ~j;
        }
    }
}

/** Suffix array of t[0, n) (symbols in [0, k), n >= 1) into sa[0, n). */
template <typename Char>
void
sais(const Char *t, Index *sa, Index n, Index k)
{
    std::vector<Index> cnt(k), bkt(k);
    countSymbols(t, n, k, cnt.data());

    // Stage 1: seed each LMS position p at its bucket's tail, as the
    // L-type suffix p - 1 it induces, and sort the LMS substrings.
    std::fill(sa, sa + n, 0);
    bucketTails(cnt.data(), k, bkt.data());
    Index m = 0;
    Index leftmost = 0;
    forEachLms(t, n, [&](Index p) {
        sa[--bkt[t[p]]] = p - 1;
        leftmost = p;
        ++m;
    });
    Index names = m;
    if (m > 1) {
        sortLmsSubstrings(t, sa, cnt.data(), bkt.data(), n, k);
        names = nameLmsSubstrings(t, sa, n, m);
    } else if (m == 1) {
        sa[0] = leftmost;
    }

    // Stage 2: with repeated names, sort the LMS suffixes through the
    // suffix array of the reduced string (the names in text order),
    // which is moved to the top of sa, above its own suffix array.
    if (names < m) {
        Index *reduced = sa + n - m;
        for (Index i = m + (n >> 1) - 1, j = m - 1; i >= m; --i) {
            if (sa[i] != 0)
                reduced[j--] = sa[i] - 1;
        }
        sais(reduced, sa, m, names);
        // The reduced string is spent: reuse its slots for the LMS
        // positions, then map reduced suffixes to text positions.
        Index j = m - 1;
        forEachLms(t, n, [&](Index p) { reduced[j--] = p; });
        for (Index i = 0; i < m; ++i)
            sa[i] = reduced[sa[i]];
    }

    // Stage 3: the sorted LMS suffixes to their bucket tails, right to
    // left (each lands at or right of its rank, so none is overwritten
    // before it is moved), then induce everything else.
    bucketTails(cnt.data(), k, bkt.data());
    Index j = n;
    for (Index i = m - 1; i >= 0;) {
        Index p = sa[i];
        Index c = t[p];
        while (j > bkt[c])
            sa[--j] = 0;
        do {
            sa[--j] = p;
            if (--i < 0)
                break;
            p = sa[i];
        } while (t[p] == c);
    }
    while (j > 0)
        sa[--j] = 0;
    induce(t, sa, cnt.data(), bkt.data(), n, k);
}

} // namespace

std::vector<int32_t>
suffixArray(const uint8_t *data, size_t n)
{
    ATC_CHECK(n < static_cast<size_t>(std::numeric_limits<Index>::max()),
              "suffix array input too large");
    std::vector<int32_t> sa(n);
    if (n > 0)
        sais(data, sa.data(), static_cast<Index>(n), 256);
    return sa;
}

} // namespace atc::comp
