/* Reader of plain CSV bodies: complete lines of ASCII decimal numbers
 * into a row-major float64 block.
 *
 * A plain body holds only Python float literals, [+-]?(d+[.d*]|.d+)
 * ([eE][+-]?d+)?, separated by commas, with spaces around fields, lines
 * ended by "\n", "\r\n" or "\r", and empty lines, which are skipped. At
 * the first byte outside that subset the reader answers "not plain" and
 * the caller reads the file by other means.
 *
 * Conversion is correctly rounded, as Python's is, so values are
 * bit-identical to float(). A literal of at most 19 significant digits
 * whose decimal exponent lies in the table goes through the Eisel-Lemire
 * algorithm (D. Lemire, "Number parsing at a gigabyte per second",
 * Softw. Pract. Exp. 51, 2021), with the 128-bit truncated powers of five
 * of the fast_float library. Longer literals, exponents outside the table,
 * products too close to a halfway point to round from, subnormal results
 * and overflow go to strtod_l in the "C" locale.
 *
 * The table is written in at build time, in place of the POWERS mark, by
 * hazlasso._plaincsv.
 */
#define _GNU_SOURCE
#include <float.h>
#include <locale.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define SMALLEST_POWER (-342)
#define LARGEST_POWER 308
#define MAX_DIGITS 19 /* 10^19 < 2^64 */

/* POWERS[q - SMALLEST_POWER] is 5^q normalised to [2^127, 2^128),
 * truncated (rounded up for q < 0), high word first */
static const uint64_t POWERS[LARGEST_POWER - SMALLEST_POWER + 1][2] = {
/* POWERS */
};

static locale_t c_locale;

/* Prepares the "C" locale for strtod_l; 0 on success. Called once, at load. */
int hazlasso_plaincsv_init(void)
{
    if (!c_locale)
        c_locale = newlocale(LC_ALL_MASK, "C", (locale_t)0);
    return c_locale ? 0 : -1;
}

/* strtod_l on a NUL-terminated copy of [start, stop); 1 when it reads the
 * whole literal */
static int slow_path(const char *start, const char *stop, double *out)
{
    char local[128], *end;
    size_t len = (size_t)(stop - start);
    char *text = len < sizeof local ? local : malloc(len + 1);
    int whole;
    if (!text)
        return 0;
    memcpy(text, start, len);
    text[len] = '\0';
    *out = strtod_l(text, &end, c_locale);
    whole = end == text + len;
    if (text != local)
        free(text);
    return whole;
}

/* w * 10^q, signed, correctly rounded; 0 when the slow path must decide */
static int fast_path(uint64_t w, int64_t q, int negative, double *out)
{
    uint64_t bits;
    if (w == 0) {
        *out = negative ? -0.0 : 0.0;
        return 1;
    }
#if FLT_EVAL_METHOD == 0
    /* Clinger's fast path: w and 10^|q| are exact doubles, and one
     * correctly rounded operation on them is the correctly rounded result */
    if (w <= (UINT64_C(1) << 53) && q >= -22 && q <= 22) {
        static const double exact[] = {
            1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
            1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
        };
        double value = q < 0 ? (double)w / exact[-q] : (double)w * exact[q];
        *out = negative ? -value : value;
        return 1;
    }
#endif
    if (q < SMALLEST_POWER || q > LARGEST_POWER)
        return 0;
    int lz = __builtin_clzll(w);
    w <<= lz;
    const uint64_t *power = POWERS[q - SMALLEST_POWER];
    unsigned __int128 product = (unsigned __int128)w * power[0];
    uint64_t high = (uint64_t)(product >> 64), low = (uint64_t)product;
    /* 55 bits are needed: 52 stored, the implicit one, a rounding bit and
     * the bit that "upperbit" may lose; when the bits below them are all
     * ones, the low word of the power may carry into them */
    const uint64_t below = UINT64_MAX >> 55;
    if ((high & below) == below) {
        uint64_t carry = (uint64_t)(((unsigned __int128)w * power[1]) >> 64);
        low += carry;
        if (carry > low)
            high++;
    }
    /* outside these exponents the truncated product may be one short */
    if (low == UINT64_MAX && (q < -27 || q > 55))
        return 0;
    int upperbit = (int)(high >> 63);
    int shift = upperbit + 64 - 52 - 3;
    uint64_t mantissa = high >> shift;
    /* floor(q log2(10)) + 63, the binary exponent of the product's top bit */
    int64_t power2 = (((152170 + 65536) * q) >> 16) + 63 + upperbit - lz + 1023;
    if (power2 <= 0) /* subnormal */
        return 0;
    if (low <= 1 && (mantissa & 3) == 1 && (mantissa << shift) == high)
        return 0; /* possibly halfway between two doubles */
    mantissa += mantissa & 1;
    mantissa >>= 1;
    if (mantissa >= (UINT64_C(2) << 52)) {
        mantissa = UINT64_C(1) << 52;
        power2++;
    }
    mantissa &= ~(UINT64_C(1) << 52);
    if (power2 >= 0x7FF) /* overflow */
        return 0;
    bits = mantissa | (uint64_t)power2 << 52 | (uint64_t)negative << 63;
    memcpy(out, &bits, sizeof bits);
    return 1;
}

#define IS_DIGIT(c) ((unsigned)((c) - '0') < 10u)

/* One literal from p; the byte after it, or NULL when there is none */
static const char *parse_number(const char *p, const char *end, double *out)
{
    const char *start = p;
    uint64_t w = 0;
    int64_t q = 0;
    int negative = 0, digits = 0, any = 0, many = 0;
    if (p < end && (*p == '+' || *p == '-')) {
        negative = *p == '-';
        p++;
    }
    for (; p < end && IS_DIGIT(*p); p++, any = 1) {
        if (digits < MAX_DIGITS) {
            w = w * 10 + (uint64_t)(*p - '0');
            digits += w != 0; /* leading zeros are not significant */
        } else {
            many = 1;
        }
    }
    if (p < end && *p == '.') {
        for (p++; p < end && IS_DIGIT(*p); p++, any = 1) {
            if (digits < MAX_DIGITS) {
                w = w * 10 + (uint64_t)(*p - '0');
                digits += w != 0;
                q--;
            } else {
                many = 1;
            }
        }
    }
    if (!any)
        return NULL;
    if (p < end && (*p == 'e' || *p == 'E')) {
        int64_t e = 0;
        int e_negative = 0;
        p++;
        if (p < end && (*p == '+' || *p == '-')) {
            e_negative = *p == '-';
            p++;
        }
        if (!(p < end && IS_DIGIT(*p)))
            return NULL;
        for (; p < end && IS_DIGIT(*p); p++) {
            if (e < 100000)
                e = e * 10 + (*p - '0');
            else /* the exponent is cut short: strtod reads it whole */
                many = 1;
        }
        q += e_negative ? -e : e;
    }
    if (many || !fast_path(w, q, negative, out))
        if (!slow_path(start, p, out))
            return NULL;
    return p;
}

/* Parses the lines of buf[0:len) into out, width values a record, from
 * record *rows on; the last line may lack its line end. binary[j] != 0
 * makes column j take only a lone "0" or "1". Returns 0 when every line
 * is parsed, 1 when out holds capacity records before the last line (then
 * *used is the offset of the first line not parsed), and -1 when the body
 * is not plain. *rows is the count of records in out. */
int hazlasso_parse_plain(const char *buf, int64_t len, int64_t width,
                         const unsigned char *binary, double *out,
                         int64_t capacity, int64_t *rows, int64_t *used)
{
    const char *p = buf, *end = buf + len;
    int64_t row = *rows;
    while (p < end) {
        /* an empty line, or the "\n" of a "\r\n" split between two calls,
         * which is an empty line too */
        if (*p == '\n' || *p == '\r') {
            p++;
            continue;
        }
        if (row == capacity) {
            *used = p - buf;
            *rows = row;
            return 1;
        }
        double *values = out + row * width;
        for (int64_t j = 0; j < width; j++) {
            while (p < end && *p == ' ')
                p++;
            if (binary[j]) {
                if (!(p < end && (*p == '0' || *p == '1')))
                    return -1;
                values[j] = *p++ - '0';
            } else if (!(p = parse_number(p, end, &values[j]))) {
                return -1;
            }
            while (p < end && *p == ' ')
                p++;
            if (j + 1 < width) {
                if (!(p < end && *p == ','))
                    return -1;
                p++;
            }
        }
        if (p < end) {
            if (*p == '\r' && p + 1 < end && p[1] == '\n')
                p += 2;
            else if (*p == '\n' || *p == '\r')
                p++;
            else
                return -1;
        }
        row++;
    }
    *used = len;
    *rows = row;
    return 0;
}
