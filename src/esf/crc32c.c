/* CRC32C (Castagnoli, reflected polynomial 0x82F63B78), slicing-by-8:
 * eight bytes per step through eight 256-entry tables (Kounavis & Berry,
 * ISCC 2005). Portable C99 with no intrinsics. Words are assembled from
 * bytes, LSB first, so the result does not depend on the host's byte order;
 * compilers fold that into one load where the host is little-endian.
 *
 * One slicing-by-8 stream is bound by latency: each step waits for the
 * previous step's lookups. So input is taken in groups of STREAMS adjacent
 * blocks of BLOCK bytes, and STREAMS independent streams run over them
 * side by side: the first continues the running CRC, the others start from
 * a zero register. The register is linear over GF(2), so the streams fold
 * into the CRC of the whole group with the shift table, which moves a
 * register across BLOCK zero bytes (the scheme of zlib's crc32_combine).
 * The 8-byte and 1-byte loops take the tail under one group, so inputs
 * shorter than STREAMS * BLOCK bytes run one stream only.
 * esf.util builds this file and calls esf_crc32c_init once after loading. */
#include <stddef.h>
#include <stdint.h>

#define STREAMS 4  /* the registers c0..c3 of esf_crc32c */
#define BLOCK 4096  /* a multiple of 8 */

static uint32_t table[8][256];
static uint32_t shift[4][256];  /* shift[k][i]: byte i at bit 8k, moved across BLOCK zero bytes */

static uint32_t load32(const unsigned char *p)
{
    return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16 | (uint32_t)p[3] << 24;
}

/* The register after the 8 bytes at p, from register crc */
static inline uint32_t step8(uint32_t crc, const unsigned char *p)
{
    uint32_t lo = crc ^ load32(p), hi = load32(p + 4);
    return table[7][lo & 0xFF] ^ table[6][lo >> 8 & 0xFF]
        ^ table[5][lo >> 16 & 0xFF] ^ table[4][lo >> 24]
        ^ table[3][hi & 0xFF] ^ table[2][hi >> 8 & 0xFF]
        ^ table[1][hi >> 16 & 0xFF] ^ table[0][hi >> 24];
}

/* The register after BLOCK zero bytes, from register crc */
static inline uint32_t shift_block(uint32_t crc)
{
    return shift[0][crc & 0xFF] ^ shift[1][crc >> 8 & 0xFF]
        ^ shift[2][crc >> 16 & 0xFF] ^ shift[3][crc >> 24];
}

void esf_crc32c_init(void)
{
    for (uint32_t i = 0; i < 256; i++) {
        uint32_t crc = i;
        for (int bit = 0; bit < 8; bit++)
            crc = (crc >> 1) ^ (0x82F63B78u & -(crc & 1u));
        table[0][i] = crc;
    }
    /* table[k][i]: the CRC of byte i followed by k zero bytes */
    for (int k = 1; k < 8; k++)
        for (int i = 0; i < 256; i++)
            table[k][i] = (table[k - 1][i] >> 8) ^ table[0][table[k - 1][i] & 0xFF];
    /* the images of the 32 single-bit registers, then every byte by linearity */
    static const unsigned char zeros[8];
    uint32_t image[32];
    for (int bit = 0; bit < 32; bit++) {
        uint32_t crc = 1u << bit;
        for (int i = 0; i < BLOCK; i += 8)
            crc = step8(crc, zeros);
        image[bit] = crc;
    }
    for (int k = 0; k < 4; k++)
        for (int i = 0; i < 256; i++) {
            uint32_t crc = 0;
            for (int bit = 0; bit < 8; bit++)
                if (i >> bit & 1)
                    crc ^= image[8 * k + bit];
            shift[k][i] = crc;
        }
}

/* The CRC32C of p[0..n), continuing from the CRC32C value of earlier bytes
 * (0 to start a message). */
uint32_t esf_crc32c(uint32_t value, const unsigned char *p, size_t n)
{
    uint32_t crc = ~value;
    for (; n >= STREAMS * BLOCK; p += STREAMS * BLOCK, n -= STREAMS * BLOCK) {
        uint32_t c0 = crc, c1 = 0, c2 = 0, c3 = 0;
        for (const unsigned char *q = p; q < p + BLOCK; q += 8) {
            c0 = step8(c0, q);
            c1 = step8(c1, q + BLOCK);
            c2 = step8(c2, q + 2 * BLOCK);
            c3 = step8(c3, q + 3 * BLOCK);
        }
        crc = shift_block(shift_block(shift_block(c0) ^ c1) ^ c2) ^ c3;
    }
    for (; n >= 8; p += 8, n -= 8)
        crc = step8(crc, p);
    for (; n > 0; p++, n--)
        crc = (crc >> 8) ^ table[0][(crc ^ *p) & 0xFF];
    return ~crc;
}
