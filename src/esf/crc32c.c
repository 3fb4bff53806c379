/* CRC32C (Castagnoli, reflected polynomial 0x82F63B78), slicing-by-8:
 * eight bytes per step through eight 256-entry tables (Kounavis & Berry,
 * ISCC 2005). Portable C99 with no intrinsics. Words are assembled from
 * bytes, LSB first, so the result does not depend on the host's byte order;
 * compilers fold that into one load where the host is little-endian.
 * esf.util builds this file and calls esf_crc32c_init once after loading. */
#include <stddef.h>
#include <stdint.h>

static uint32_t table[8][256];

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
}

static uint32_t load32(const unsigned char *p)
{
    return (uint32_t)p[0] | (uint32_t)p[1] << 8 | (uint32_t)p[2] << 16 | (uint32_t)p[3] << 24;
}

/* The CRC32C of p[0..n), continuing from the CRC32C value of earlier bytes
 * (0 to start a message). */
uint32_t esf_crc32c(uint32_t value, const unsigned char *p, size_t n)
{
    uint32_t crc = ~value;
    for (; n >= 8; p += 8, n -= 8) {
        uint32_t lo = crc ^ load32(p), hi = load32(p + 4);
        crc = table[7][lo & 0xFF] ^ table[6][lo >> 8 & 0xFF]
            ^ table[5][lo >> 16 & 0xFF] ^ table[4][lo >> 24]
            ^ table[3][hi & 0xFF] ^ table[2][hi >> 8 & 0xFF]
            ^ table[1][hi >> 16 & 0xFF] ^ table[0][hi >> 24];
    }
    for (; n > 0; p++, n--)
        crc = (crc >> 8) ^ table[0][(crc ^ *p) & 0xFF];
    return ~crc;
}
