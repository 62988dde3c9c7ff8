// Package reedsolomon implements a Reed–Solomon encoder and decoder over
// GF(2^8) as the functional model of the paper's RSD benchmark accelerator.
//
// The code is RS(n, k) with n ≤ 255 and t = (n-k)/2 correctable symbol
// errors, built on the field GF(256) with the primitive polynomial
// x^8+x^4+x^3+x^2+1 (0x11d) and generator roots α^0..α^(2t-1). Decoding is
// the classic hardware pipeline: syndrome computation → Berlekamp–Massey →
// Chien search → Forney's algorithm.
package reedsolomon

import (
	"errors"
	"fmt"
)

// ErrTooManyErrors is returned when the received word is uncorrectable.
var ErrTooManyErrors = errors.New("reedsolomon: too many errors to correct")

const fieldSize = 256

var (
	expTable [2 * fieldSize]byte
	logTable [fieldSize]int
	// mulTable is the full GF(256) product table: one unconditional load per
	// multiply instead of the branchy log/exp path. 64 KiB, built once; the
	// decoder's inner loops (syndromes, Chien search) index a single 256-byte
	// row at a time, which stays resident in L1.
	mulTable [fieldSize][fieldSize]byte
)

func init() {
	x := 1
	for i := 0; i < fieldSize-1; i++ {
		expTable[i] = byte(x)
		logTable[x] = i
		x <<= 1
		if x&0x100 != 0 {
			x ^= 0x11d
		}
	}
	// Duplicate so products of logs index without a mod.
	for i := fieldSize - 1; i < len(expTable); i++ {
		expTable[i] = expTable[i-(fieldSize-1)]
	}
	for a := 1; a < fieldSize; a++ {
		la := logTable[a]
		for b := 1; b < fieldSize; b++ {
			mulTable[a][b] = expTable[la+logTable[b]]
		}
	}
}

func gfMul(a, b byte) byte { return mulTable[a][b] }

func gfDiv(a, b byte) byte {
	if b == 0 {
		panic("reedsolomon: division by zero in GF(256)")
	}
	if a == 0 {
		return 0
	}
	return expTable[logTable[a]+fieldSize-1-logTable[b]]
}

func gfPow(a byte, n int) byte {
	if a == 0 {
		return 0
	}
	l := (logTable[a] * n) % (fieldSize - 1)
	if l < 0 {
		l += fieldSize - 1
	}
	return expTable[l]
}

func gfInv(a byte) byte { return gfDiv(1, a) }

// polyEval evaluates a polynomial (coefficients high-order first) at x.
func polyEval(p []byte, x byte) byte {
	var y byte
	for _, c := range p {
		y = gfMul(y, x) ^ c
	}
	return y
}

// Code is an RS(n, k) encoder/decoder.
type Code struct {
	n, k    int
	gen     []byte             // generator polynomial, high-order first, monic, degree 2t
	roots   []byte             // generator roots α^0..α^(2t-1) (syndrome evaluation points)
	synRows []*[fieldSize]byte // product-table row per root, for syndromes
}

// New returns an RS(n, k) code. n must be ≤ 255 and n-k even and positive.
func New(n, k int) (*Code, error) {
	if n > 255 || k <= 0 || k >= n {
		return nil, fmt.Errorf("reedsolomon: invalid parameters n=%d k=%d", n, k)
	}
	if (n-k)%2 != 0 {
		return nil, fmt.Errorf("reedsolomon: n-k = %d must be even", n-k)
	}
	// g(x) = ∏_{i=0}^{2t-1} (x - α^i)
	gen := []byte{1}
	roots := make([]byte, n-k)
	for i := 0; i < n-k; i++ {
		root := gfPow(2, i)
		roots[i] = root
		next := make([]byte, len(gen)+1)
		for j, c := range gen {
			next[j] ^= c
			next[j+1] ^= gfMul(c, root)
		}
		gen = next
	}
	rows := make([]*[fieldSize]byte, n-k)
	for i, root := range roots {
		rows[i] = &mulTable[root]
	}
	return &Code{n: n, k: k, gen: gen, roots: roots, synRows: rows}, nil
}

// N returns the codeword length in symbols.
func (c *Code) N() int { return c.n }

// K returns the message length in symbols.
func (c *Code) K() int { return c.k }

// T returns the number of correctable symbol errors.
func (c *Code) T() int { return (c.n - c.k) / 2 }

// Encode systematically encodes msg (length k) into a codeword of length n:
// the message followed by 2t parity symbols.
func (c *Code) Encode(msg []byte) ([]byte, error) {
	if len(msg) != c.k {
		return nil, fmt.Errorf("reedsolomon: message length %d, want %d", len(msg), c.k)
	}
	cw := make([]byte, c.n)
	copy(cw, msg)
	// Polynomial long division of msg·x^(2t) by gen; remainder is parity.
	rem := make([]byte, c.n-c.k)
	for _, m := range msg {
		factor := m ^ rem[0]
		copy(rem, rem[1:])
		rem[len(rem)-1] = 0
		if factor != 0 {
			row := &mulTable[factor]
			for j := 1; j < len(c.gen); j++ {
				rem[j-1] ^= row[c.gen[j]]
			}
		}
	}
	copy(cw[c.k:], rem)
	return cw, nil
}

// syndromes returns the 2t syndromes of received; all-zero means no error.
// Each syndrome is a Horner evaluation at one generator root; the multiply
// per step is a single load from that root's 256-byte product-table row.
// Four chains run interleaved per pass over received: they are mutually
// independent, so the load-to-use latency of one chain's table lookup is
// hidden behind the other three instead of serializing the whole loop.
func (c *Code) syndromes(received []byte) ([]byte, bool) {
	nk := c.n - c.k
	syn := make([]byte, nk)
	i := 0
	for ; i+4 <= nk; i += 4 {
		r0, r1, r2, r3 := c.synRows[i], c.synRows[i+1], c.synRows[i+2], c.synRows[i+3]
		var y0, y1, y2, y3 byte
		for _, v := range received {
			y0 = r0[y0] ^ v
			y1 = r1[y1] ^ v
			y2 = r2[y2] ^ v
			y3 = r3[y3] ^ v
		}
		syn[i], syn[i+1], syn[i+2], syn[i+3] = y0, y1, y2, y3
	}
	for ; i < nk; i++ {
		row := c.synRows[i]
		var y byte
		for _, v := range received {
			y = row[y] ^ v
		}
		syn[i] = y
	}
	var dirty byte
	for _, s := range syn {
		dirty |= s
	}
	return syn, dirty == 0
}

// Decode corrects up to t symbol errors in received (length n) in place and
// returns the corrected message symbols and the number of errors fixed.
func (c *Code) Decode(received []byte) (msg []byte, corrected int, err error) {
	if len(received) != c.n {
		return nil, 0, fmt.Errorf("reedsolomon: received length %d, want %d", len(received), c.n)
	}
	syn, clean := c.syndromes(received)
	if clean {
		return received[:c.k], 0, nil
	}

	// Berlekamp–Massey: find the error locator polynomial sigma
	// (low-order-first coefficients).
	sigma := []byte{1}
	prev := []byte{1}
	var l, m int = 0, 1
	var b byte = 1
	for i := 0; i < len(syn); i++ {
		var d byte = syn[i]
		for j := 1; j <= l; j++ {
			if j < len(sigma) {
				d ^= gfMul(sigma[j], syn[i-j])
			}
		}
		if d == 0 {
			m++
			continue
		}
		if 2*l <= i {
			tmp := make([]byte, len(sigma))
			copy(tmp, sigma)
			// sigma = sigma - (d/b)·x^m·prev
			coef := gfDiv(d, b)
			sigma = polySub(sigma, polyShift(polyScale(prev, coef), m))
			prev = tmp
			l = i + 1 - l
			b = d
			m = 1
		} else {
			coef := gfDiv(d, b)
			sigma = polySub(sigma, polyShift(polyScale(prev, coef), m))
			m++
		}
	}
	if l > c.T() {
		return nil, 0, ErrTooManyErrors
	}

	// Chien search: find error positions. Roots of sigma are α^{-pos'}
	// where pos' indexes from the end of the codeword. The candidate root
	// for position pos is x0·α^pos, so sigma is evaluated incrementally:
	// term j carries sigma[j]·x^j and is multiplied by α^j per position.
	var positions []int
	x0 := gfPow(2, fieldSize-1-((c.n-1)%(fieldSize-1)))
	terms := make([]byte, len(sigma))
	for j := range sigma {
		terms[j] = gfMul(sigma[j], gfPow(x0, j))
	}
	for pos := 0; pos < c.n; pos++ {
		var v byte
		for _, tv := range terms {
			v ^= tv
		}
		if v == 0 {
			positions = append(positions, pos)
		}
		for j := 1; j < len(terms); j++ {
			terms[j] = gfMul(terms[j], expTable[j])
		}
	}
	if len(positions) != l {
		return nil, 0, ErrTooManyErrors
	}

	// Forney: error magnitudes via the evaluator omega = syn·sigma mod x^{2t}.
	omega := polyMulMod(syndromePoly(syn), sigma, c.n-c.k)
	magnitudes := make([]byte, len(positions))
	for pi, pos := range positions {
		xlog := (c.n - 1 - pos) % (fieldSize - 1)
		x := gfPow(2, xlog)
		xinv := gfInv(x)
		// sigma'(x^{-1}) over odd terms.
		var denom byte
		for j := 1; j < len(sigma); j += 2 {
			denom ^= gfMul(sigma[j], gfPow(xinv, j-1))
		}
		if denom == 0 {
			return nil, 0, ErrTooManyErrors
		}
		num := gfMul(polyEvalLow(omega, xinv), x)
		magnitude := gfDiv(num, denom)
		magnitudes[pi] = magnitude
		received[pos] ^= magnitude
	}

	// Verify: instead of re-evaluating all 2t Horner loops over the
	// corrected word, fold each applied correction's exact syndrome
	// contribution (magnitude·root^{n-1-pos}) into the original syndromes
	// and require that every one cancels to zero.
	var dirty byte
	for i, root := range c.roots {
		s := syn[i]
		for pi, pos := range positions {
			s ^= gfMul(magnitudes[pi], gfPow(root, c.n-1-pos))
		}
		dirty |= s
	}
	if dirty != 0 {
		return nil, 0, ErrTooManyErrors
	}
	return received[:c.k], len(positions), nil
}

// Low-order-first polynomial helpers.

func polyScale(p []byte, c byte) []byte {
	out := make([]byte, len(p))
	for i, v := range p {
		out[i] = gfMul(v, c)
	}
	return out
}

func polyShift(p []byte, n int) []byte {
	out := make([]byte, len(p)+n)
	copy(out[n:], p)
	return out
}

func polySub(a, b []byte) []byte {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	out := make([]byte, n)
	for i := range out {
		var x, y byte
		if i < len(a) {
			x = a[i]
		}
		if i < len(b) {
			y = b[i]
		}
		out[i] = x ^ y
	}
	return out
}

func syndromePoly(syn []byte) []byte {
	out := make([]byte, len(syn))
	copy(out, syn)
	return out
}

// polyMulMod multiplies low-order-first polynomials mod x^deg.
func polyMulMod(a, b []byte, deg int) []byte {
	out := make([]byte, deg)
	for i, av := range a {
		if av == 0 || i >= deg {
			continue
		}
		for j, bv := range b {
			if i+j >= deg {
				break
			}
			out[i+j] ^= gfMul(av, bv)
		}
	}
	return out
}

// polyEvalLow evaluates a low-order-first polynomial at x.
func polyEvalLow(p []byte, x byte) byte {
	var y byte
	for i := len(p) - 1; i >= 0; i-- {
		y = gfMul(y, x) ^ p[i]
	}
	return y
}
