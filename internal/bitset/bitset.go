// Package bitset provides the small dynamic bitset GraphPool stores its
// membership matrix in (Section 6 of the paper): one bitset per bit
// position, indexed by element slot. The zero value is an empty bitset
// ready to use.
package bitset

import (
	"math/bits"
	"strconv"
	"strings"
)

const wordBits = 64

// Bits is a growable bitmap. The zero value has all bits clear.
type Bits struct {
	words []uint64
}

// Set sets bit i, growing the bitmap if needed.
func (b *Bits) Set(i int) {
	w := uint(i) / wordBits
	if w >= uint(len(b.words)) {
		b.grow(w)
	}
	b.words[w] |= 1 << (uint(i) % wordBits)
}

func (b *Bits) grow(w uint) {
	b.words = append(b.words, make([]uint64, int(w)+1-len(b.words))...)
}

// Clear clears bit i. Clearing a bit beyond the current length is a no-op.
func (b *Bits) Clear(i int) {
	if w := uint(i) / wordBits; w < uint(len(b.words)) {
		b.words[w] &^= 1 << (uint(i) % wordBits)
	}
}

// Get reports whether bit i is set.
func (b *Bits) Get(i int) bool {
	w := uint(i) / wordBits
	return w < uint(len(b.words)) && b.words[w]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (b *Bits) Count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// ClearAll clears every bit, retaining capacity.
func (b *Bits) ClearAll() { clear(b.words) }

// Or sets every bit that is set in o.
func (b *Bits) Or(o *Bits) {
	if len(o.words) > len(b.words) {
		b.grow(uint(len(o.words) - 1))
	}
	for i, w := range o.words {
		b.words[i] |= w
	}
}

// EachNotIn calls fn, in ascending order, for every bit set in b and clear
// in o. fn may clear bits of b it has been called for.
func (b *Bits) EachNotIn(o *Bits, fn func(i int)) {
	for wi, w := range b.words {
		if wi < len(o.words) {
			w &^= o.words[wi]
		}
		for w != 0 {
			fn(wi*wordBits + bits.TrailingZeros64(w))
			w &= w - 1
		}
	}
}

// SizeBytes returns the approximate heap footprint of the bitset payload;
// GraphPool's memory accounting uses it.
func (b *Bits) SizeBytes() int { return len(b.words) * 8 }

// String renders the set bits as e.g. "{0,3,17}".
func (b *Bits) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	for wi, w := range b.words {
		for w != 0 {
			if sb.Len() > 1 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Itoa(wi*wordBits + bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	sb.WriteByte('}')
	return sb.String()
}
