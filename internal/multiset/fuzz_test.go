package multiset

import (
	"testing"

	"repro/internal/bitio/bitiotest"
)

// FuzzDecoders checks the label decoder the verifier runs on its own
// and its tree neighbours' labels: arbitrary bits decode to an error or
// a value that re-encodes to a prefix of them, and a label built from
// fuzz values round-trips.
func FuzzDecoders(f *testing.F) {
	f.Add([]byte{}, uint8(1), uint8(1), uint64(0), uint64(0))
	f.Add([]byte{0x5a, 0x81, 0x07}, uint8(16), uint8(2), uint64(0x2b), uint64(7))
	f.Add([]byte{0xff, 0x13, 0x77, 0x00, 0xc3, 0x9e, 0x41, 0x08, 0x99, 0x10}, uint8(200), uint8(3), ^uint64(0), uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, data []byte, k, c uint8, a, b uint64) {
		p, err := NewParams(int(k), int(c%4))
		if err != nil {
			t.Skip()
		}
		bitiotest.Prefix(t, p, bitiotest.FromBytes(data), (*Label).read, Label.write)
		mask := func(v uint64) uint64 { return v & (1<<uint(p.PointBits()) - 1) }
		bitiotest.RoundTrip(t, p, Label{Z: mask(a), Phi1: mask(b), Phi2: mask(a ^ b)}, (*Label).read, Label.write)
	})
}
