package blockcut

import (
	"testing"

	"repro/internal/bitio/bitiotest"
	"repro/internal/forestcode"
	"repro/internal/spantree"
)

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
		s := bitiotest.FromBytes(data)
		bitiotest.Prefix(t, p, s, (*R1).read, R1.write)
		bitiotest.Prefix(t, p, s, (*Coin).read, Coin.write)
		bitiotest.Prefix(t, p, s, (*R2).read, R2.write)

		mask := func(v uint64, bits int) uint64 { return v & (1<<uint(bits) - 1) }
		r1 := R1{
			FC:     forestcode.Label{C1: uint8(a & 7), C2: uint8(a >> 3 & 7), Parity: uint8(a >> 6 & 1)},
			Cut:    a>>7&1 == 1,
			Leader: a>>8&1 == 1,
		}
		bitiotest.RoundTrip(t, p, r1, (*R1).read, R1.write)
		coin := Coin{S: mask(a, p.L), ST: spantree.Coin{A: mask(b, p.ST.Reps), ID: mask(c, p.ST.IDBits)}}
		bitiotest.RoundTrip(t, p, coin, (*Coin).read, Coin.write)
		r2 := R2{
			Self: mask(a, p.L),
			Sep:  mask(b, p.L),
			Lead: mask(c, p.L),
			ST:   spantree.Sum{S: mask(b^c, p.ST.Reps), ID: mask(a^b, p.ST.IDBits)},
		}
		bitiotest.RoundTrip(t, p, r2, (*R2).read, R2.write)
	})
}
