package pls

import (
	"testing"

	"repro/internal/bitio/bitiotest"
)

// FuzzDecoders checks the certificate decoder the verifier runs on its
// own and every neighbour's label: arbitrary bits decode to an error or
// a value that re-encodes to a prefix of them, and a label built from
// fuzz values round-trips.
func FuzzDecoders(f *testing.F) {
	f.Add([]byte{}, uint16(2), uint64(0), uint64(0))
	f.Add([]byte{0x5a, 0x81, 0x07}, uint16(64), uint64(0x2b), uint64(7))
	f.Add([]byte{0xff, 0x13, 0x77, 0x00, 0xc3, 0x9e, 0x41, 0x08}, uint16(65535), ^uint64(0), uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, a, b uint64) {
		p := NewParams(int(n))
		bitiotest.Prefix(t, p, bitiotest.FromBytes(data), (*Label).read, Label.write)
		mask := func(v uint64) uint64 { return v & (1<<uint(p.PosBits) - 1) }
		l := Label{Pos: mask(a), HasAbove: b&1 == 1, AboveL: mask(b >> 1), AboveR: mask(a ^ b)}
		bitiotest.RoundTrip(t, p, l, (*Label).read, Label.write)
	})
}
