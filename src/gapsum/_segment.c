/* Segment kernel of gapsum.engine, loaded through ctypes.

   A mask holds one byte per odd number of a segment, 1 for a prime.
   cross_off clears the multiples of the base primes.  count_words packs
   a mask into 64-slot words, counts prime tuples by ANDing shifted words,
   and walks the primes of the words once, binning the gaps between them,
   storing them as uint16 gaps, or both: so one worker serves the counting
   pass, whose gap histogram the engine keeps for later reads at its
   limit, and the gap stream.  count_words reads eight mask bytes as one
   word, so the engine loads this only on a little-endian host.  The numpy
   code in engine.py does the same work and is the reference for every
   function.  */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define BLOCK 32768 /* slots per block: the 32 KiB of an L1 data cache */
#define SMALL 8192  /* primes below this hit every block at least 4 times */
#define ROW 256     /* words of a shifted row block: 16,384 slots, 2 KiB */
#define BINS 1024   /* histogram bins: slot distances to 1023, gaps to 2046 */

/* For each i < count, clear mask[o], mask[o + p], ... below n, where
   p = ps[i] and o = offsets[i].  ps is sorted.  The primes below SMALL
   sweep the mask one block at a time, and offsets[i] is left past the
   mask for them; the larger primes sweep it whole.  */
void cross_off(uint8_t *mask, int64_t n, const int64_t *ps, int64_t *offsets, int64_t count)
{
    int64_t small = 0;
    while (small < count && ps[small] < SMALL)
        small++;
    for (int64_t lo = 0; lo < n; lo += BLOCK) {
        int64_t hi = n - lo < BLOCK ? n : lo + BLOCK;
        for (int64_t i = 0; i < small; i++) {
            int64_t p = ps[i], o = offsets[i];
            for (; o + 3 * p < hi; o += 4 * p) {
                mask[o] = 0;
                mask[o + p] = 0;
                mask[o + 2 * p] = 0;
                mask[o + 3 * p] = 0;
            }
            for (; o < hi; o += p)
                mask[o] = 0;
            offsets[i] = o;
        }
    }
    for (int64_t i = small; i < count; i++)
        for (int64_t o = offsets[i], p = ps[i]; o < n; o += p)
            mask[o] = 0;
}

/* Slots base .. base + 63 of mask[0:n] as the bits of one word, 0 past n.  */
static inline uint64_t pack64(const uint8_t *mask, int64_t n, int64_t base)
{
    uint8_t rest[64];
    const uint8_t *bytes = rest;
    if (n - base >= 64) {
        bytes = mask + base;
    } else {
        memset(rest, 0, sizeof rest);
        if (n > base)
            memcpy(rest, mask + base, (size_t)(n - base));
    }
    /* byte k of each 8 moves to bit k: every byte is 0 or 1, and the
       products' bits land on distinct positions, so nothing carries */
    uint64_t word = 0;
#pragma GCC unroll 8
    for (int k = 0; k < 8; k++) {
        uint64_t x;
        memcpy(&x, bytes + 8 * k, 8);
        word |= (x * 0x0102040810204080ULL) >> 56 << (8 * k);
    }
    return word;
}

/* The set bits of x, summed bit-parallel: a baseline x86-64 has no popcnt
   instruction, and the library is built for any host of its architecture.  */
static inline int64_t bits(uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0FULL;
    return (int64_t)((x * 0x0101010101010101ULL) >> 56);
}

/* Walk the set slots of the first core slots of words, 64 to a word.
   Unless hist is NULL, hist[k] gains one for each set slot k slots past
   the previous one; unless gaps is NULL, it gets one uint16 per set slot:
   0 for the first, then 2 * (slot - previous slot), the gap between the
   odd numbers.  ends[0] and ends[1] get the first and the last set slot,
   or -1.  Returns the number of set slots, or -1 if two of them lie BINS
   or more apart.  */
static inline int64_t walk(const uint64_t *words, int64_t core, int64_t *hist, uint16_t *gaps,
                           int64_t *ends)
{
    int64_t found = 0, last = -1;
    ends[0] = -1;
    for (int64_t w = 0; 64 * w < core; w++) {
        uint64_t word = words[w];
        if (core - 64 * w < 64)
            word &= (1ULL << (core - 64 * w)) - 1;
        for (; word; word &= word - 1) {
            int64_t slot = 64 * w + __builtin_ctzll(word), gap = last < 0 ? 0 : slot - last;
            if (gap >= BINS)
                return -1;
            if (last < 0)
                ends[0] = slot;
            else if (hist)
                hist[gap]++;
            if (gaps)
                gaps[found] = (uint16_t)(2 * gap);
            found++;
            last = slot;
        }
    }
    ends[1] = last;
    return found;
}

/* Tuple counts of mask[0:n], and the gaps between the primes of its core.

   Tuple j has the slot shifts shifts[starts[j]] .. shifts[starts[j + 1] - 1],
   the first 0 and none negative; counts[j] gets the number of slots
   i < cores[j] with mask[i + s] set for every shift s, where i + s < n for
   each.  The mask is packed 64 slots to a word once.  Each distinct
   shift's row of words is built one block of ROW words at a time, which
   every tuple then ANDs and counts while the block is in the L1 cache.

   Then walk reads the set slots of mask[0:min(core, n)] from the same
   words into hist, gaps and ends.  Returns what walk returns, or -2 if
   memory runs out.  */
int64_t count_words(const uint8_t *mask, int64_t n, const int64_t *shifts,
                    const int64_t *starts, const int64_t *cores, int64_t tuples,
                    int64_t *counts, int64_t core, int64_t *hist, uint16_t *gaps,
                    int64_t *ends)
{
    int64_t entries = starts[tuples], distinct = 0, top = 0, reach = 0;
    int64_t *rows = malloc(2 * ((size_t)entries + 1) * sizeof *rows);
    if (!rows)
        return -2;
    int64_t *row_shift = rows + entries + 1;
    for (int64_t e = 0; e < entries; e++) { /* one row per distinct shift */
        int64_t r = 0;
        while (r < distinct && row_shift[r] != shifts[e])
            r++;
        if (r == distinct)
            row_shift[distinct++] = shifts[e];
        rows[e] = r;
        if (shifts[e] > reach)
            reach = shifts[e];
    }
    for (int64_t j = 0; j < tuples; j++) {
        counts[j] = 0;
        if (cores[j] > top)
            top = cores[j];
    }
    top = (top + 63) / 64; /* the words that hold a slot of some tuple's core */
    /* every word that a row block or the walk reads, the last ones zero */
    int64_t nwords = 1 + ((n + 63) / 64 > top + reach / 64 ? (n + 63) / 64 : top + reach / 64);
    /* then a row block per distinct shift, one for a tuple's fourth row on
       and one of ones, for the rows a tuple lacks */
    uint64_t *words = malloc(((size_t)nwords + ((size_t)distinct + 2) * ROW) * sizeof *words);
    if (!words) {
        free(rows);
        return -2;
    }
    uint64_t *rowbuf = words + nwords, *acc = rowbuf + distinct * ROW, *ones = acc + ROW;
    memset(ones, 0xFF, ROW * sizeof *ones);

    for (int64_t w = 0; w < nwords; w++)
        words[w] = pack64(mask, n, 64 * w);

    for (int64_t b = 0; b < top; b += ROW) {
        int64_t m = top - b < ROW ? top - b : ROW;
        for (int64_t r = 0; r < distinct; r++) {
            uint64_t *row = rowbuf + r * ROW;
            const uint64_t *src = words + b + row_shift[r] / 64;
            int sh = (int)(row_shift[r] % 64);
            if (sh == 0)
                memcpy(row, src, (size_t)m * sizeof *row);
            else
                for (int64_t k = 0; k < m; k++)
                    row[k] = src[k] >> sh | src[k + 1] << (64 - sh);
        }
        for (int64_t j = 0; j < tuples; j++) {
            int64_t end = (cores[j] + 63) / 64 - b;
            if (end <= 0)
                continue;
            if (end > m)
                end = m;
            /* rows past a tuple's third are ANDed into acc first, and
               rows it lacks read as the row of ones */
            const int64_t *row = rows + starts[j];
            int64_t len = starts[j + 1] - starts[j];
            const uint64_t *x = rowbuf + row[0] * ROW;
            const uint64_t *y = len > 1 ? rowbuf + row[1] * ROW : ones;
            const uint64_t *z = len > 2 ? rowbuf + row[2] * ROW : ones;
            if (len > 3) {
                for (int64_t k = 0; k < end; k++)
                    acc[k] = z[k] & rowbuf[row[3] * ROW + k];
                for (int64_t t = 4; t < len; t++)
                    for (int64_t k = 0; k < end; k++)
                        acc[k] &= rowbuf[row[t] * ROW + k];
                z = acc;
            }
            int64_t c = 0;
            for (int64_t k = 0; k < end - 1; k++)
                c += bits(x[k] & y[k] & z[k]);
            /* the slots of the last word past the core are not counted */
            int64_t past = 64 * (b + end) - cores[j];
            c += bits(x[end - 1] & y[end - 1] & z[end - 1] & (past > 0 ? ~0ULL >> past : ~0ULL));
            counts[j] += c;
        }
    }
    free(rows);

    /* a copy of walk with hist NULL: testing hist per prime made the gap walk ~15% slower */
    int64_t found = hist ? walk(words, core < n ? core : n, hist, gaps, ends)
                         : walk(words, core < n ? core : n, NULL, gaps, ends);
    free(words);
    return found;
}
