/* Segment kernel of gapsum.engine, loaded through ctypes.

   A mask holds one byte per odd number of a segment, 1 for a prime.
   cross_off clears the multiples of the base primes and pack_gaps reads
   the primes that are left as uint16 gaps.  pack_gaps reads eight mask
   bytes as one word, so the engine loads this only on a little-endian
   host.  The numpy code in engine.py does the same work and is the
   reference for both functions.  */

#include <stdint.h>
#include <string.h>

#define BLOCK 32768 /* slots per block: the 32 KiB of an L1 data cache */
#define SMALL 8192  /* primes below this hit every block at least 4 times */

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

/* Write one uint16 per set slot of mask[0:n]: 0 for the first, then
   2 * (slot - previous slot), the gap between the odd numbers.  ends[0]
   and ends[1] get the first and the last set slot.  Returns the number
   of set slots, or -1 if a gap exceeds 65535.  */
int64_t pack_gaps(const uint8_t *mask, int64_t n, uint16_t *gaps, int64_t *ends)
{
    uint8_t rest[64];
    int64_t count = 0, last = -1;
    for (int64_t base = 0; base < n; base += 64) {
        const uint8_t *bytes = mask + base;
        if (n - base < 64) {
            memset(rest, 0, sizeof rest);
            memcpy(rest, bytes, (size_t)(n - base));
            bytes = rest;
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
        for (; word; word &= word - 1) {
            int64_t slot = base + __builtin_ctzll(word);
            if (last < 0)
                ends[0] = slot;
            else if (slot - last > 32767)
                return -1;
            gaps[count++] = (uint16_t)(last < 0 ? 0 : 2 * (slot - last));
            last = slot;
        }
    }
    ends[1] = last;
    return count;
}
