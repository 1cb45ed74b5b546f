package seriesparallel

import (
	"testing"

	"repro/internal/bitio/bitiotest"
	"repro/internal/forestcode"
)

// FuzzDecoders checks the structural stage's five label decoders, which
// the verifier runs on adversary bits: arbitrary input decodes to an
// error or a value that re-encodes to a prefix of it, and labels built
// from fuzz values round-trip.
func FuzzDecoders(f *testing.F) {
	f.Add([]byte{}, uint16(2), uint64(0), uint64(0))
	f.Add([]byte{0x5a, 0x81}, uint16(64), uint64(0x2b), uint64(7))
	f.Add([]byte{0xff, 0x13, 0x77, 0x00, 0xc3, 0x9e, 0x41}, uint16(10000), ^uint64(0), uint64(0xdeadbeef))
	f.Fuzz(func(t *testing.T, data []byte, n uint16, a, b uint64) {
		p := NewParams(int(n))
		s := bitiotest.FromBytes(data)
		bitiotest.Prefix(t, p, s, (*structR1).read, structR1.write)
		bitiotest.Prefix(t, p, s, (*structEdge1).read, structEdge1.write)
		bitiotest.Prefix(t, p, s, (*structCoin).read, structCoin.write)
		bitiotest.Prefix(t, p, s, (*structR2).read, structR2.write)
		bitiotest.Prefix(t, p, s, (*structEdge2).read, structEdge2.write)

		mask := func(v uint64) uint64 { return v & (1<<uint(p.L) - 1) }
		fc := forestcode.Label{C1: uint8(a & 7), C2: uint8(a >> 3 & 7), Parity: uint8(a >> 6 & 1)}
		bitiotest.RoundTrip(t, p, structR1{FC: fc, InP1: b&1 == 1}, (*structR1).read, structR1.write)
		bitiotest.RoundTrip(t, p, structEdge1{Kind: int(b & 3), ConnectsCanonU: a&1 == 1}, (*structEdge1).read, structEdge1.write)
		bitiotest.RoundTrip(t, p, structCoin{R: mask(a), A: mask(b)}, (*structCoin).read, structCoin.write)
		bitiotest.RoundTrip(t, p, structR2{Ear: mask(a), PredEar: mask(b), Sum: mask(a ^ b)}, (*structR2).read, structR2.write)
		bitiotest.RoundTrip(t, p, structEdge2{HostR: mask(b)}, (*structEdge2).read, structEdge2.write)
	})
}
