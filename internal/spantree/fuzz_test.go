package spantree

import (
	"testing"

	"repro/internal/bitio"
	"repro/internal/bitio/bitiotest"
	"repro/internal/forestcode"
)

// FuzzDecoders checks the coin and sum decoders, which the composite
// protocols also run in place inside their own labels, and the exact-
// length round-0 parser. Arbitrary bits decode to an error or a value
// that re-encodes to a prefix of them (the round-0 parser, to all of
// them); labels built from fuzz values round-trip.
func FuzzDecoders(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint64(0), uint64(0))
	f.Add([]byte{0x5a, 0x81}, uint8(9), uint64(0x2b), uint64(7))
	f.Add([]byte{0xff, 0x13, 0x77, 0x00, 0xc3, 0x9e, 0x41, 0x08, 0x99, 0x10, 0x01, 0x02, 0x03, 0x04, 0x05, 0x06}, uint8(63), ^uint64(0), uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, data []byte, l uint8, a, b uint64) {
		p := Amplified(int(l))
		s := bitiotest.FromBytes(data)
		bitiotest.Prefix(t, p, s, (*Coin).Read, Coin.Write)
		bitiotest.Prefix(t, p, s, (*Sum).Read, Sum.Write)
		if l0, ok := parseRound0(s); ok {
			var w bitio.Writer
			l0.write(&w)
			if !w.String().Equal(s) {
				t.Fatalf("round-0 label %+v re-encodes to %s, not %s", l0, w.String(), s)
			}
		}

		mask := func(v uint64, bits int) uint64 { return v & (1<<uint(bits) - 1) }
		bitiotest.RoundTrip(t, p, Coin{A: mask(a, p.Reps), ID: mask(b, p.IDBits)}, (*Coin).Read, Coin.Write)
		bitiotest.RoundTrip(t, p, Sum{S: mask(b, p.Reps), ID: mask(a, p.IDBits)}, (*Sum).Read, Sum.Write)
		r0 := round0Label{fc: forestcode.Label{C1: uint8(a & 7), C2: uint8(a >> 3 & 7), Parity: uint8(a >> 6 & 1)}, root: b&1 == 1}
		var w bitio.Writer
		r0.write(&w)
		if got, ok := parseRound0(w.String()); !ok || got != r0 {
			t.Fatalf("round-0 round trip: %+v -> %+v, %v", r0, got, ok)
		}
	})
}
