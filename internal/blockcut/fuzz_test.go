package blockcut

import (
	"testing"

	"repro/internal/bitio"
	"repro/internal/forestcode"
	"repro/internal/spantree"
)

// bytesToBits converts fuzz input into a bit string.
func bytesToBits(data []byte) bitio.String {
	var w bitio.Writer
	for _, b := range data {
		w.WriteUint(uint64(b), 8)
	}
	return w.String()
}

// isPrefix reports whether p is a prefix of s.
func isPrefix(p, s bitio.String) bool {
	if p.Len() > s.Len() {
		return false
	}
	for i := 0; i < p.Len(); i++ {
		if p.Bit(i) != s.Bit(i) {
			return false
		}
	}
	return true
}

// FuzzDecoders checks the stage's three label decoders, which the
// outerplanarity and treewidth-2 verifiers both run on adversary bits.
// Arbitrary input must decode to an error or a value, never a panic, and
// a decoded value must re-encode to the bits it was read from. Labels
// built from the fuzz values must round-trip through encode and decode
// unchanged.
func FuzzDecoders(f *testing.F) {
	f.Add([]byte{}, uint16(2), uint64(0), uint64(0), uint64(0))
	f.Add([]byte{0x5a, 0x81}, uint16(64), uint64(0x2b), uint64(7), uint64(1<<40))
	f.Add([]byte{0xff, 0x13, 0x77, 0x00, 0xc3, 0x9e, 0x41}, uint16(10000), ^uint64(0), uint64(0xdeadbeef), uint64(3))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, a, b, c uint64) {
		p := NewParams(int(n))
		s := bytesToBits(data)

		if l, err := decodeR1(s); err == nil && !isPrefix(l.encode(), s) {
			t.Fatalf("r1 %+v does not re-encode to its input", l)
		}
		if l, err := decodeCoin(s, p); err == nil && !isPrefix(l.encode(p), s) {
			t.Fatalf("coin %+v does not re-encode to its input", l)
		}
		if l, err := decodeR2(s, p); err == nil && !isPrefix(l.encode(p), s) {
			t.Fatalf("r2 %+v does not re-encode to its input", l)
		}

		mask := func(v uint64, bits int) uint64 { return v & (1<<uint(bits) - 1) }
		r1 := R1{
			FC:     forestcode.Label{C1: uint8(a & 7), C2: uint8(a >> 3 & 7), Parity: uint8(a >> 6 & 1)},
			Cut:    a>>7&1 == 1,
			Leader: a>>8&1 == 1,
		}
		if got, err := decodeR1(r1.encode()); err != nil || got != r1 {
			t.Fatalf("r1 round trip: %+v -> %+v, %v", r1, got, err)
		}
		coin := Coin{S: mask(a, p.L), ST: spantree.Coin{A: mask(b, p.ST.Reps), ID: mask(c, p.ST.IDBits)}}
		if got, err := decodeCoin(coin.encode(p), p); err != nil || got != coin {
			t.Fatalf("coin round trip: %+v -> %+v, %v", coin, got, err)
		}
		r2 := R2{
			Self: mask(a, p.L),
			Sep:  mask(b, p.L),
			Lead: mask(c, p.L),
			ST:   spantree.Sum{S: mask(b^c, p.ST.Reps), ID: mask(a^b, p.ST.IDBits)},
		}
		if got, err := decodeR2(r2.encode(p), p); err != nil || got != r2 {
			t.Fatalf("r2 round trip: %+v -> %+v, %v", r2, got, err)
		}
	})
}
